//! Deterministic transfer-cost memoization.
//!
//! A load sweep admits thousands of instances of the *same* workflow
//! carrying the *same* payload over the *same* deployment. Every plane in
//! this workspace is deterministic: the outcome of one edge — received
//! bytes, prepare/transfer/consume attribution, virtual-clock advance —
//! is a pure function of the edge's endpoints, the placement the plane
//! derived for them, and the payload bytes. Recomputing the codec and
//! cost-model work per instance (Roadrunner's Wasm moves, the baselines'
//! serialize → HTTP → deserialize path) is therefore pure wall-clock
//! rework; the paper's own shim design (§4) makes the point that
//! identical deliveries should cost once.
//!
//! [`MemoizedPlane`] wraps any [`DataPlane`] and caches each distinct
//! `(from, to, placement(from), placement(to), payload)` transfer. On a
//! hit it replays the recorded outcome exactly — including advancing the
//! shared [`VirtualClock`] by the recorded amount — so **virtual-time
//! results are byte-identical** with and without the memo (property-
//! tested in `tests/memo_properties.rs`, asserted against the fig12 and
//! fig13 JSON output in CI).
//!
//! # Soundness contract
//!
//! The wrapper is sound for planes whose transfers are deterministic
//! functions of the key above. That holds for [`RoadrunnerPlane`],
//! `RuncPair` and `WasmedgePair` provided per-instance state is cyclic
//! (each workflow instance returns the plane to its pre-instance state —
//! true for the produce/relay/consume deployments the benches drive, and
//! exactly the property the fig13 determinism assert already relies on).
//! First-run one-off effects (lazy connection establishment, guest heap
//! growth) are *not* cyclic: warm the plane with one discarded run before
//! wrapping, as every bench already does.
//! Side effects the memo does **not** replay: sandbox CPU/RAM telemetry
//! accounts. Do not memoize runs whose *measured output* includes
//! telemetry (the paper figures fig2–fig10); the load figures read only
//! virtual-time quantities and scheduler reservations, which replay
//! exactly.
//!
//! [`RoadrunnerPlane`]: https://docs.rs/roadrunner

use std::borrow::Cow;
use std::collections::HashMap;

use bytes::Bytes;
use roadrunner_vkernel::{Nanos, VirtualClock};

use crate::error::PlatformError;
use crate::workflow::{fnv1a, DataPlane, TransferTiming};

/// The full identity of one transfer: endpoints, effective placement,
/// payload length and fingerprint, and the link-health epoch. Lookups
/// borrow the endpoint names; recorded entries own them.
#[derive(Debug, Clone, PartialEq)]
struct MemoKey<'a> {
    from: Cow<'a, str>,
    to: Cow<'a, str>,
    src: Option<usize>,
    dst: Option<usize>,
    len: usize,
    fingerprint: u64,
    epoch: u64,
}

impl MemoKey<'_> {
    /// Composite FNV-1a hash of every key field — the map key.
    fn hash(&self) -> u64 {
        let mut h = mix_str(0xcbf2_9ce4_8422_2325, &self.from);
        h = mix_str(h, &self.to);
        h = mix(h, self.src.map(|n| n as u64 + 1).unwrap_or(0));
        h = mix(h, self.dst.map(|n| n as u64 + 1).unwrap_or(0));
        h = mix(h, self.len as u64);
        h = mix(h, self.fingerprint);
        mix(h, self.epoch)
    }

    fn into_owned(self) -> MemoKey<'static> {
        MemoKey {
            from: Cow::Owned(self.from.into_owned()),
            to: Cow::Owned(self.to.into_owned()),
            ..self
        }
    }
}

/// One recorded transfer outcome, with the full key retained so a (once
/// in 2⁶⁴) composite-hash collision is detected and bypassed instead of
/// silently replaying the wrong edge.
#[derive(Debug, Clone)]
struct MemoEntry {
    key: MemoKey<'static>,
    received: Bytes,
    timing: Option<TransferTiming>,
    clock_advance_ns: Nanos,
}

/// A transfer-cost memo over any [`DataPlane`] (see the [module
/// docs](self) for the soundness contract).
///
/// The first occurrence of an edge runs on the wrapped plane for real;
/// repeats replay the recorded received bytes (a reference-counted
/// handle, no copy), the recorded [`TransferTiming`] and the recorded
/// virtual-clock advance. Payloads are fingerprinted once per distinct
/// buffer: the fingerprint cache is keyed by the buffer's address and
/// length, and every fingerprinted buffer is pinned (a clone is held) so
/// an address can never be recycled for different bytes while the memo
/// lives.
pub struct MemoizedPlane<'a> {
    inner: &'a mut dyn DataPlane,
    clock: VirtualClock,
    entries: HashMap<u64, MemoEntry>,
    fingerprints: HashMap<(usize, usize), u64>,
    pinned: Vec<Bytes>,
    /// Link-health epoch mixed into every key: bumped by the load
    /// engines on each outage transition, so recordings made while a
    /// link was up are never replayed while it is down (and vice
    /// versa). Stays 0 when no failures are injected.
    health_epoch: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
}

impl std::fmt::Debug for MemoizedPlane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoizedPlane")
            .field("entries", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("bypasses", &self.bypasses)
            .finish_non_exhaustive()
    }
}

/// Mixes one u64 into a running FNV-1a hash.
fn mix(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix_str(hash: u64, s: &str) -> u64 {
    let mut h = hash;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Terminator so ("ab","c") and ("a","bc") hash differently.
    mix(h, 0xFF)
}

impl<'a> MemoizedPlane<'a> {
    /// Wraps `inner`, replaying recorded outcomes against `clock` (the
    /// same shared clock the wrapped plane advances as it works).
    pub fn new(inner: &'a mut dyn DataPlane, clock: VirtualClock) -> Self {
        Self {
            inner,
            clock,
            entries: HashMap::new(),
            fingerprints: HashMap::new(),
            pinned: Vec::new(),
            health_epoch: 0,
            hits: 0,
            misses: 0,
            bypasses: 0,
        }
    }

    /// Transfers served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Transfers that ran on the wrapped plane (and were recorded).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Transfers that ran uncached because a composite-hash collision was
    /// detected (expected to stay 0 in any realistic run).
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    /// Number of distinct transfers recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every recorded transfer and fingerprint (e.g. after the
    /// wrapped plane was redeployed).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.fingerprints.clear();
        self.pinned.clear();
    }

    /// FNV-1a fingerprint of `payload`, computed once per distinct
    /// buffer. The buffer is pinned so the `(address, length)` cache key
    /// stays unique for the memo's lifetime.
    fn fingerprint(&mut self, payload: &Bytes) -> u64 {
        if payload.is_empty() {
            return fnv1a(&[]);
        }
        let key = (payload.as_ref().as_ptr() as usize, payload.len());
        if let Some(&fp) = self.fingerprints.get(&key) {
            return fp;
        }
        let fp = fnv1a(payload);
        self.fingerprints.insert(key, fp);
        self.pinned.push(payload.clone());
        fp
    }
}

impl DataPlane for MemoizedPlane<'_> {
    fn transfer(&mut self, from: &str, to: &str, payload: Bytes) -> Result<Bytes, PlatformError> {
        self.transfer_detailed(from, to, payload).map(|(received, _)| received)
    }

    fn transfer_detailed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        self.transfer_placed(from, to, payload, None, None)
    }

    fn transfer_placed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
        src_node: Option<usize>,
        dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        // The key uses the *effective* placement — the per-instance
        // override when one is given, the wrapped plane's deployment
        // placement otherwise — so an edge memoized colocated is never
        // replayed for an instance whose override separated it.
        let key = MemoKey {
            from: Cow::Borrowed(from),
            to: Cow::Borrowed(to),
            src: src_node.or_else(|| self.inner.placement(from)),
            dst: dst_node.or_else(|| self.inner.placement(to)),
            len: payload.len(),
            fingerprint: self.fingerprint(&payload),
            epoch: self.health_epoch,
        };
        let hash = key.hash();
        match self.entries.get(&hash) {
            Some(entry) if entry.key == key => {
                // Hit: replay the recorded outcome, clock advance
                // included, so downstream virtual-time math is
                // indistinguishable from the real run.
                self.hits += 1;
                self.clock.advance(entry.clock_advance_ns);
                Ok((entry.received.clone(), entry.timing))
            }
            Some(_) => {
                // Composite-hash collision: run uncached rather than risk
                // replaying the wrong edge.
                self.bypasses += 1;
                self.inner.transfer_placed(from, to, payload, src_node, dst_node)
            }
            None => {
                self.misses += 1;
                let t0 = self.clock.now();
                let (received, timing) =
                    self.inner.transfer_placed(from, to, payload, src_node, dst_node)?;
                let clock_advance_ns = self.clock.now() - t0;
                self.entries.insert(
                    hash,
                    MemoEntry {
                        key: key.into_owned(),
                        received: received.clone(),
                        timing,
                        clock_advance_ns,
                    },
                );
                Ok((received, timing))
            }
        }
    }

    fn placement(&self, function: &str) -> Option<usize> {
        self.inner.placement(function)
    }

    fn set_health_epoch(&mut self, epoch: u64) {
        self.health_epoch = epoch;
        self.inner.set_health_epoch(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{execute, WorkflowSpec};

    /// A deterministic plane that counts real invocations, advances the
    /// clock, and transforms the payload (so replayed bytes are
    /// distinguishable from merely echoing the input).
    struct CountingPlane {
        clock: VirtualClock,
        calls: usize,
    }

    impl DataPlane for CountingPlane {
        fn transfer(&mut self, _: &str, _: &str, p: Bytes) -> Result<Bytes, PlatformError> {
            self.calls += 1;
            self.clock.advance(1_000 + p.len() as u64);
            let transformed: Vec<u8> = p.iter().map(|b| b.wrapping_add(1)).collect();
            Ok(Bytes::from(transformed))
        }

        fn transfer_detailed(
            &mut self,
            from: &str,
            to: &str,
            p: Bytes,
        ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
            let transfer_ns = 1_000 + p.len() as u64;
            let received = self.transfer(from, to, p)?;
            Ok((
                received,
                Some(TransferTiming { prepare_ns: 7, transfer_ns, consume_ns: 3 }),
            ))
        }

        fn placement(&self, function: &str) -> Option<usize> {
            Some(usize::from(function.len() % 2 == 1))
        }
    }

    #[test]
    fn repeated_transfers_hit_and_replay_exactly() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let payload = Bytes::from(vec![9u8; 500]);

        let real = {
            let mut probe = CountingPlane { clock: VirtualClock::new(), calls: 0 };
            probe.transfer_detailed("a", "b", payload.clone()).unwrap()
        };

        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let first = memo.transfer_detailed("a", "b", payload.clone()).unwrap();
        let t_after_first = clock.now();
        let second = memo.transfer_detailed("a", "b", payload.clone()).unwrap();
        assert_eq!(first.0, real.0);
        assert_eq!(first.1, real.1);
        assert_eq!(second.0, first.0);
        assert_eq!(second.1, first.1);
        // The replay advanced the clock by exactly the recorded amount.
        assert_eq!(clock.now() - t_after_first, t_after_first);
        assert_eq!((memo.hits(), memo.misses(), memo.bypasses()), (1, 1, 0));
        assert_eq!(memo.len(), 1);
        drop(memo);
        assert_eq!(plane.calls, 1, "the wrapped plane ran once");
    }

    #[test]
    fn distinct_edges_payloads_and_placements_miss() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let p1 = Bytes::from(vec![1u8; 100]);
        let p2 = Bytes::from(vec![2u8; 100]);
        memo.transfer_detailed("a", "b", p1.clone()).unwrap();
        memo.transfer_detailed("a", "c", p1.clone()).unwrap(); // new edge
        memo.transfer_detailed("a", "b", p2.clone()).unwrap(); // new bytes
        memo.transfer_detailed("a", "b", p1.clone()).unwrap(); // hit
        assert_eq!((memo.hits(), memo.misses()), (1, 3));
        memo.clear();
        memo.transfer_detailed("a", "b", p1).unwrap();
        assert_eq!(memo.misses(), 4, "clear() forgets recordings");
    }

    #[test]
    fn fingerprints_are_cached_per_buffer_and_pinned() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let payload = Bytes::from(vec![3u8; 64]);
        // Clones share a buffer: one fingerprint entry, one pin.
        for _ in 0..5 {
            memo.transfer_detailed("x", "y", payload.clone()).unwrap();
        }
        assert_eq!(memo.fingerprints.len(), 1);
        assert_eq!(memo.pinned.len(), 1);
        // A byte-equal but distinct buffer still hits (same fingerprint).
        let twin = Bytes::from(vec![3u8; 64]);
        memo.transfer_detailed("x", "y", twin).unwrap();
        assert_eq!(memo.hits(), 5);
    }

    #[test]
    fn serial_engine_latencies_are_identical_under_the_memo() {
        let spec = WorkflowSpec::sequence(
            "wf",
            "t",
            ["a".to_owned(), "bb".to_owned(), "c".to_owned()],
        );
        let payload = Bytes::from(vec![8u8; 2_000]);

        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let plain = execute(&mut plane, &clock, &spec, payload.clone()).unwrap();

        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let first = execute(&mut memo, &clock, &spec, payload.clone()).unwrap();
        let repeat = execute(&mut memo, &clock, &spec, payload).unwrap();
        for run in [&first, &repeat] {
            assert_eq!(run.total_latency_ns, plain.total_latency_ns);
            for (a, b) in plain.edges.iter().zip(&run.edges) {
                assert_eq!(a.latency_ns, b.latency_ns);
                assert_eq!(a.checksum(), b.checksum());
            }
        }
        drop(memo);
        assert_eq!(plane.calls, 2, "second instance fully memoized");
    }

    #[test]
    fn health_epochs_partition_the_cache() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let p = Bytes::from(vec![5u8; 100]);
        memo.transfer_detailed("a", "b", p.clone()).unwrap();
        memo.transfer_detailed("a", "b", p.clone()).unwrap(); // hit
        memo.set_health_epoch(1);
        memo.transfer_detailed("a", "b", p.clone()).unwrap(); // new epoch: miss
        memo.set_health_epoch(0);
        memo.transfer_detailed("a", "b", p).unwrap(); // old epoch: hit again
        assert_eq!((memo.hits(), memo.misses()), (2, 2));
    }

    #[test]
    fn placement_overrides_key_separately_from_the_deployment() {
        let clock = VirtualClock::new();
        let mut plane = CountingPlane { clock: clock.clone(), calls: 0 };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let p = Bytes::from(vec![6u8; 100]);
        memo.transfer_detailed("a", "b", p.clone()).unwrap();
        // Overrides matching the deployment placement (both "a" and "b"
        // sit on node 1 under CountingPlane's parity rule) share the
        // entry...
        memo.transfer_placed("a", "b", p.clone(), Some(1), Some(1)).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // ...while an override that moves an endpoint records afresh.
        memo.transfer_placed("a", "b", p.clone(), Some(1), Some(0)).unwrap();
        memo.transfer_placed("a", "b", p, Some(1), Some(0)).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (2, 2));
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        struct Flaky {
            fail: bool,
        }
        impl DataPlane for Flaky {
            fn transfer(&mut self, _: &str, _: &str, p: Bytes) -> Result<Bytes, PlatformError> {
                if self.fail {
                    Err(PlatformError::Transfer("down".into()))
                } else {
                    Ok(p)
                }
            }
        }
        let clock = VirtualClock::new();
        let mut plane = Flaky { fail: true };
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        assert!(memo.transfer("a", "b", Bytes::from_static(b"x")).is_err());
        assert!(memo.is_empty());
        drop(memo);
        // After the link recovers the transfer runs (nothing poisoned).
        plane.fail = false;
        let mut memo = MemoizedPlane::new(&mut plane, clock);
        assert!(memo.transfer("a", "b", Bytes::from_static(b"x")).is_ok());
        assert_eq!(memo.len(), 1);
    }
}

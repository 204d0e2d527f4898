//! A timing [`DataPlane`] adapter.
//!
//! [`Timed`] forwards every trait method to the plane it wraps and
//! records each transfer call as a span. Stacked as
//! `Timed(MemoizedPlane(Timed(plane)))`, the outer spans are every call
//! the load engine makes into the memo and the inner spans are the
//! memo's misses running on the real plane, so the load engine's self
//! time, the memo's self time and the real plane work separate cleanly.
//!
//! With [`Timed::checking`] the adapter also checks that every edge
//! delivered exactly the expected payload. Each distinct received
//! buffer is compared once and then pinned, so memo replays of the same
//! buffer are recognized by address.

use bytes::Bytes;
use roadrunner_platform::{DataPlane, PlatformError, TransferTiming};

use crate::trace;

pub struct Timed<'a> {
    inner: &'a mut dyn DataPlane,
    name: &'static str,
    expect: Option<Bytes>,
    verified: Vec<Bytes>,
    mismatches: u64,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn DataPlane, name: &'static str) -> Self {
        Self {
            inner,
            name,
            expect: None,
            verified: Vec::new(),
            mismatches: 0,
        }
    }

    /// Also checks every delivered payload against `expect`.
    pub fn checking(mut self, expect: Bytes) -> Self {
        self.expect = Some(expect);
        self
    }

    /// Deliveries whose bytes differed from the expected payload.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    fn check<T>(
        &mut self,
        result: Result<(Bytes, T), PlatformError>,
    ) -> Result<(Bytes, T), PlatformError> {
        if let (Ok((received, _)), Some(expect)) = (&result, &self.expect) {
            let same = |b: &Bytes| b.as_ptr() == received.as_ptr() && b.len() == received.len();
            if !self.verified.iter().any(same) {
                let _s = trace::span("bench.verify_s");
                if received == expect {
                    self.verified.push(received.clone());
                } else {
                    self.mismatches += 1;
                }
            }
        }
        result
    }
}

impl DataPlane for Timed<'_> {
    fn transfer(&mut self, from: &str, to: &str, payload: Bytes) -> Result<Bytes, PlatformError> {
        let result = {
            let _s = trace::span(self.name);
            self.inner.transfer(from, to, payload).map(|b| (b, ()))
        };
        self.check(result).map(|(b, ())| b)
    }

    fn transfer_detailed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let result = {
            let _s = trace::span(self.name);
            self.inner.transfer_detailed(from, to, payload)
        };
        self.check(result)
    }

    fn transfer_placed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
        src_node: Option<usize>,
        dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let result = {
            let _s = trace::span(self.name);
            self.inner
                .transfer_placed(from, to, payload, src_node, dst_node)
        };
        self.check(result)
    }

    fn placement(&self, function: &str) -> Option<usize> {
        self.inner.placement(function)
    }

    fn set_health_epoch(&mut self, epoch: u64) {
        self.inner.set_health_epoch(epoch);
    }
}

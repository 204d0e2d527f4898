//! Single-edge workloads: one producer → consumer transfer per system.
//!
//! * `edge_small` — a closed loop with one client. Warm pairs for all
//!   five systems, deployed once, serve back-to-back transfers of
//!   seeded 1–256 KB `Text` and `SensorRecords` payloads.
//! * `edge_large` — Fig. 6/7-style points: seeded 10–40 MB `Text`
//!   payloads through all five systems, each on a fresh testbed per
//!   point, as `measure_transfer` builds them.
//!
//! Roadrunner latency is timed from "source sends" (§6.1): the input
//! is injected and the source handler has run before the transfer
//! starts. The end-to-end comparisons pair Roadrunner's network mode
//! with the inter-node RunC and WasmEdge pairs (both cross nodes 0 → 1).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_baselines::{BaselineOutcome, RuncPair, WasmedgePair};
use roadrunner_platform::FunctionBundle;
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::{Nanos, Testbed};
use roadrunner_wasm::encode;

use crate::trace::{self, timed};
use crate::util::{ms, pct, tail_pct, Rng, Sig};
use crate::{Metrics, PassOut, Workload};

const KB: usize = 1024;
const MB: usize = 1_000_000;

/// `edge_small`: payloads per pass.
const SMALL_PAYLOADS: usize = 128;
/// `edge_small`: payload size range.
const SMALL_MIN: usize = KB;
const SMALL_MAX: usize = 256 * KB;
/// `edge_large`: nominal sizes of the points, each jittered by up to
/// +2 % per seed.
const LARGE_SIZES: [usize; 4] = [10 * MB, 20 * MB, 30 * MB, 40 * MB];
/// Roadrunner-network SLO for goodput, per workload.
const SMALL_SLO_NS: Nanos = 3_000_000;
const LARGE_SLO_NS: Nanos = 300_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sys {
    RrUser,
    RrKernel,
    RrNetwork,
    Runc,
    Wasmedge,
}

const SYSTEMS: [Sys; 5] = [
    Sys::RrUser,
    Sys::RrKernel,
    Sys::RrNetwork,
    Sys::Runc,
    Sys::Wasmedge,
];

/// The encoded guest modules every Roadrunner deployment loads.
struct Bundles {
    producer: Arc<FunctionBundle>,
    consumer: Arc<FunctionBundle>,
}

fn bundles() -> Bundles {
    let _s = trace::span("wasm.module_build_s");
    let wrap = |name: &str, module| {
        Arc::new(
            FunctionBundle::wasm(name, encode::encode(&module))
                .with_workflow("bench")
                .with_tenant("bench"),
        )
    };
    Bundles {
        producer: wrap("a", guest::producer()),
        consumer: wrap("b", guest::consumer()),
    }
}

fn testbed() -> Arc<Testbed> {
    timed("vkernel.testbed_build_s", || Arc::new(Testbed::paper()))
}

/// One deployed system on its own testbed.
#[allow(clippy::large_enum_variant)]
enum Deployed {
    Rr(RoadrunnerPlane),
    Runc(RuncPair),
    Wasmedge(WasmedgePair),
}

struct Pair {
    sys: Sys,
    bed: Arc<Testbed>,
    deployed: Deployed,
}

fn deploy(sys: Sys, b: &Bundles) -> Pair {
    let bed = testbed();
    let deployed = match sys {
        Sys::Runc => Deployed::Runc(timed("baselines.establish_s.runc", || {
            RuncPair::establish(Arc::clone(&bed), 0, 1)
        })),
        Sys::Wasmedge => Deployed::Wasmedge(timed("baselines.establish_s.wasmedge", || {
            WasmedgePair::establish(Arc::clone(&bed), 0, 1)
        })),
        _ => {
            let _s = trace::span("core.deploy_s");
            let mut plane = RoadrunnerPlane::new(
                Arc::clone(&bed),
                ShimConfig::default().with_load_costs(false),
            );
            plane
                .deploy(0, "a", Arc::clone(&b.producer), "produce", false)
                .expect("deploy a");
            let consumer = Arc::clone(&b.consumer);
            match sys {
                Sys::RrUser => plane.deploy_into_shared_vm("a", "b", consumer, "consume", true),
                Sys::RrKernel => plane.deploy(0, "b", consumer, "consume", true),
                _ => plane.deploy(1, "b", consumer, "consume", true),
            }
            .expect("deploy b");
            Deployed::Rr(plane)
        }
    };
    Pair { sys, bed, deployed }
}

/// Sums CPU and peak RAM over every sandbox of a testbed. Right after
/// a telemetry reset the peak sum is the resident footprint, so the
/// difference of two readings is the RAM a transfer added.
fn telemetry(bed: &Testbed) -> (Nanos, Nanos, u64) {
    let _s = trace::span("vkernel.telemetry_s");
    let (mut user, mut kernel, mut ram) = (0, 0, 0);
    for node in bed.nodes() {
        for account in node.accounts() {
            user += account.user_ns();
            kernel += account.kernel_ns();
            ram += account.ram_peak();
        }
    }
    (user, kernel, ram)
}

fn reset(bed: &Testbed) {
    timed("vkernel.telemetry_s", || bed.reset_telemetry());
}

/// Virtual-time record of one transfer.
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    latency: Nanos,
    prepare: Nanos,
    consume: Nanos,
    serialize: Nanos,
    deserialize: Nanos,
    wasm_io: Nanos,
    user_cpu: Nanos,
    kernel_cpu: Nanos,
    /// RAM the transfer added over the sandboxes' resident footprint.
    ram: u64,
}

impl Rec {
    fn overhead(&self) -> Nanos {
        self.serialize + self.deserialize + self.wasm_io
    }

    fn sign(&self, sig: &mut Sig) {
        for w in [
            self.latency,
            self.prepare,
            self.consume,
            self.serialize,
            self.deserialize,
            self.wasm_io,
            self.user_cpu,
            self.kernel_cpu,
            self.ram,
        ] {
            sig.word(w);
        }
    }
}

/// One transfer of `payload` on `pair`; `None` when it failed or
/// delivered different bytes.
fn transfer(pair: &mut Pair, payload: &Payload) -> Option<Rec> {
    let bed = Arc::clone(&pair.bed);
    match &mut pair.deployed {
        Deployed::Rr(plane) => {
            timed("core.inject_s", || plane.inject("a", payload.flat()).ok())?;
            reset(&bed);
            let (u0, k0, r0) = telemetry(&bed);
            let name = match pair.sys {
                Sys::RrUser => "core.transfer_s.user",
                Sys::RrKernel => "core.transfer_s.kernel",
                _ => "core.transfer_s.network",
            };
            let received = timed(name, || plane.transfer_edge("a", "b", &Bytes::new()).ok())?;
            let (u1, k1, ram) = telemetry(&bed);
            let bd = plane.last_breakdown()?;
            let ok = timed("bench.verify_s", || received == *payload.flat());
            let cost = bed.cost();
            // Roadrunner never serializes: its serialization path is the
            // 8-byte descriptor handoff plus the VM I/O on both sides.
            let len = payload.flat().len();
            ok.then_some(Rec {
                latency: bd.transfer_ns,
                prepare: bd.prepare_ns,
                consume: bd.consume_ns,
                serialize: cost.wasm_boundary_ns + cost.vm_io_ns(8),
                deserialize: 0,
                wasm_io: cost.vm_io_ns(len) * 2,
                user_cpu: u1 - u0,
                kernel_cpu: k1 - k0,
                ram: ram - r0,
            })
        }
        deployed => {
            reset(&bed);
            let (u0, k0, r0) = telemetry(&bed);
            let name = match pair.sys {
                Sys::Runc => "baselines.transfer_s.runc",
                _ => "baselines.transfer_s.wasmedge",
            };
            // The outcome (a decoded value tree) is released inside the
            // span: freeing it is part of the baseline's cost.
            let _s = trace::span(name);
            let out: BaselineOutcome = match deployed {
                Deployed::Runc(p) => p.transfer(payload),
                Deployed::Wasmedge(p) => p.transfer(payload),
                Deployed::Rr(_) => unreachable!(),
            }
            .ok()?;
            let (u1, k1, ram) = telemetry(&bed);
            let ok = timed("bench.verify_s", || out.received_value == *payload.value());
            let user_cpu = u1 - u0;
            // WasmEdge's VM I/O is the user time that is not codec work;
            // the container baseline has no VM.
            let wasm_io = match pair.sys {
                Sys::Wasmedge => user_cpu.saturating_sub(out.serialization_ns()),
                _ => 0,
            };
            ok.then_some(Rec {
                latency: out.latency_ns,
                prepare: 0,
                consume: 0,
                serialize: out.serialize_ns,
                deserialize: out.deserialize_ns,
                wasm_io,
                user_cpu,
                kernel_cpu: k1 - k0,
                ram: ram - r0,
            })
        }
    }
}

/// Bytes synthesized while tracing was on (`serial.synthetic_mb`).
pub static SYNTHETIC_BYTES: AtomicU64 = AtomicU64::new(0);

fn first_call(sys: Sys) -> &'static str {
    match sys {
        Sys::Runc | Sys::Wasmedge => "baselines.first_call_s",
        _ => "core.first_call_s",
    }
}

fn synthesize(kind: PayloadKind, seed: u64, size: usize) -> Payload {
    let p = timed("serial.synthetic_s", || {
        Payload::synthetic(kind, seed, size)
    });
    if trace::enabled() {
        SYNTHETIC_BYTES.fetch_add(p.flat().len() as u64, Ordering::Relaxed);
    }
    p
}

/// Records of the first pass, per system (in [`SYSTEMS`] order).
type Records = [Vec<Rec>; 5];

fn idx(sys: Sys) -> usize {
    SYSTEMS
        .iter()
        .position(|&s| s == sys)
        .expect("listed system")
}

pub struct EdgeSmall {
    payloads: Vec<Payload>,
    pairs: Vec<Pair>,
    first: Option<Records>,
}

pub struct EdgeLarge {
    bundles: Bundles,
    /// (content seed, size) per point.
    points: Vec<(u64, usize)>,
    first: Option<Records>,
}

/// `edge_small` set-up. Payload sizes are stratified (one per
/// equal-width stratum, seeded position within it) and shuffled, with
/// exactly half of each kind, so the size distribution — and with it
/// every order statistic — barely moves between seeds while every
/// payload differs.
pub fn small_setup(seed: u64) -> EdgeSmall {
    let mut rng = Rng::new(seed);
    let n = SMALL_PAYLOADS;
    let mut specs: Vec<(PayloadKind, u64, usize)> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n as f64;
            let size = SMALL_MIN + (u * (SMALL_MAX - SMALL_MIN) as f64) as usize;
            let kind = if i % 2 == 0 {
                PayloadKind::Text
            } else {
                PayloadKind::SensorRecords
            };
            (kind, rng.next_u64(), size)
        })
        .collect();
    rng.shuffle(&mut specs);
    let payloads: Vec<Payload> = specs
        .iter()
        .map(|&(kind, s, size)| synthesize(kind, s, size))
        .collect();
    let b = bundles();
    let mut pairs: Vec<Pair> = SYSTEMS.iter().map(|&s| deploy(s, &b)).collect();
    // First-call warm-up at the largest size: lazy connection set-up and
    // guest heap growth happen here, not in the timed loop.
    let warm = synthesize(PayloadKind::SensorRecords, seed ^ 0xFEED, SMALL_MAX);
    for pair in &mut pairs {
        trace::opaque(first_call(pair.sys), || transfer(pair, &warm))
            .unwrap_or_else(|| panic!("warm-up transfer on {:?}", pair.sys));
    }
    EdgeSmall {
        payloads,
        pairs,
        first: None,
    }
}

pub fn large_setup(seed: u64) -> EdgeLarge {
    let mut rng = Rng::new(seed);
    let points = LARGE_SIZES
        .iter()
        .map(|&nominal| {
            let size = nominal + (rng.unit() * nominal as f64 * 0.02) as usize;
            (rng.next_u64(), size)
        })
        .collect();
    let bundles = bundles();
    // Warm the code paths once with a small point on throwaway testbeds.
    let warm = synthesize(PayloadKind::Text, seed ^ 0xFEED, MB);
    for &sys in &SYSTEMS {
        trace::opaque(first_call(sys), || {
            transfer(&mut deploy(sys, &bundles), &warm)
        })
        .unwrap_or_else(|| panic!("warm-up transfer on {sys:?}"));
    }
    EdgeLarge {
        bundles,
        points,
        first: None,
    }
}

fn record(out: &mut PassOut, recs: &mut Records, sys: Sys, rec: Option<Rec>) {
    out.attempted += 1;
    match rec {
        Some(r) => {
            out.instances += 1;
            timed("bench.verify_s", || r.sign(&mut out.sig));
            recs[idx(sys)].push(r);
        }
        None => out.failed += 1,
    }
}

impl Workload for EdgeSmall {
    fn pass(&mut self) -> PassOut {
        let mut out = PassOut::default();
        let mut recs: Records = Default::default();
        for payload in &self.payloads {
            for pair in &mut self.pairs {
                let rec = trace::in_op(crate::next_op(), || transfer(pair, payload));
                record(&mut out, &mut recs, pair.sys, rec);
            }
        }
        self.first.get_or_insert(recs);
        out
    }

    fn metrics(&self) -> Metrics {
        edge_metrics(self.first.as_ref().expect("one pass ran"), SMALL_SLO_NS)
    }
}

impl Workload for EdgeLarge {
    fn pass(&mut self) -> PassOut {
        let mut out = PassOut::default();
        let mut recs: Records = Default::default();
        for &(seed, size) in &self.points {
            let payload = synthesize(PayloadKind::Text, seed, size);
            for &sys in &SYSTEMS {
                let rec = trace::in_op(crate::next_op(), || {
                    let mut pair = deploy(sys, &self.bundles);
                    let rec = transfer(&mut pair, &payload);
                    timed("core.teardown_s", || drop(pair));
                    rec
                });
                record(&mut out, &mut recs, sys, rec);
            }
            timed("core.teardown_s", || drop(payload));
        }
        self.first.get_or_insert(recs);
        out
    }

    fn metrics(&self) -> Metrics {
        edge_metrics(self.first.as_ref().expect("one pass ran"), LARGE_SLO_NS)
    }
}

fn sum(recs: &[Rec], f: impl Fn(&Rec) -> u64) -> f64 {
    recs.iter().map(|r| f(r) as f64).sum()
}

fn mean_ms(recs: &[Rec], f: impl Fn(&Rec) -> u64) -> f64 {
    sum(recs, f) / recs.len().max(1) as f64 / 1e6
}

fn edge_metrics(recs: &Records, slo_ns: Nanos) -> Metrics {
    let rr = &recs[idx(Sys::RrNetwork)];
    let we = &recs[idx(Sys::Wasmedge)];
    let mut lat: Vec<u64> = rr.iter().map(|r| r.latency).collect();
    lat.sort_unstable();
    let tail = tail_pct(lat.len());
    let busy_s = sum(rr, |r| r.latency) / 1e9;
    let good = lat.iter().filter(|&&l| l <= slo_ns).count() as f64;
    let cut = |f: fn(&Rec) -> u64| 1.0 - sum(rr, f) / sum(we, f);
    let mut m = Metrics::default();
    m.put("virt_latency_p50_ms", ms(pct(&lat, 50.0)));
    m.put("virt_latency_tail_ms", ms(pct(&lat, tail)));
    m.put("bench.tail_pct", tail);
    m.put("virt_goodput_rps", good / busy_s);
    m.put("virt_max_rate_rps", lat.len() as f64 / busy_s);
    m.put("latency_cut_vs_wasmedge", cut(|r| r.latency));
    m.put("overhead_cut_vs_wasmedge", cut(Rec::overhead));
    m.put("cpu_cut_vs_wasmedge", cut(|r| r.user_cpu + r.kernel_cpu));
    m.put("ram_cut_vs_wasmedge", cut(|r| r.ram));
    m.put("core.virt_prepare_ms", mean_ms(rr, |r| r.prepare));
    m.put("core.virt_transfer_ms", mean_ms(rr, |r| r.latency));
    m.put("core.virt_consume_ms", mean_ms(rr, |r| r.consume));
    m.put("baselines.virt_serialize_ms", mean_ms(we, |r| r.serialize));
    m.put(
        "baselines.virt_deserialize_ms",
        mean_ms(we, |r| r.deserialize),
    );
    m.put("baselines.virt_wasm_io_ms", mean_ms(we, |r| r.wasm_io));
    m.put("vkernel.virt_user_cpu_ms", mean_ms(rr, |r| r.user_cpu));
    m.put("vkernel.virt_kernel_cpu_ms", mean_ms(rr, |r| r.kernel_cpu));
    m.put(
        "vkernel.virt_ram_peak_mb",
        sum(rr, |r| r.ram) / rr.len().max(1) as f64 / 1e6,
    );
    m
}

/// The paper's comparison on one cluster payload: a single inter-node
/// edge on Roadrunner's network mode against the WasmEdge pair, each on
/// a fresh testbed after a warm-up transfer. Returns the latency,
/// serialization-overhead, CPU and RAM cuts.
pub fn reference_cuts(payload: &Payload) -> [f64; 4] {
    trace::opaque("bench.reference_s", || cuts(payload))
}

fn cuts(payload: &Payload) -> [f64; 4] {
    let b = bundles();
    let run = |sys| {
        let mut pair = deploy(sys, &b);
        transfer(&mut pair, payload).expect("warm-up transfer");
        transfer(&mut pair, payload).expect("reference transfer")
    };
    let (rr, we) = (run(Sys::RrNetwork), run(Sys::Wasmedge));
    let cut = |f: fn(&Rec) -> u64| 1.0 - f(&rr) as f64 / f(&we) as f64;
    [
        cut(|r| r.latency),
        cut(Rec::overhead),
        cut(|r| r.user_cpu + r.kernel_cpu),
        cut(|r| r.ram),
    ]
}

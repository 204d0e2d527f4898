//! Cluster workloads: the 3-function pipeline `src → relay → sink`
//! under open-loop arrivals, through the `loadgen`/`workflow` engine
//! with the transfer memo on and cells fanned over `platform::sweep`.
//!
//! * `cluster_open` — fig12-style Poisson arrivals on a 4-node cluster,
//!   climbing a fixed ladder of rates from below to beyond saturation,
//!   for both placement policies and all three systems.
//! * `cluster_overload` — a fig15/16-style calm → 3× burst (with link
//!   flaps) → calm trace from a flood tenant beside a light interactive
//!   tenant, Roadrunner only, with the whole control stack on.
//!
//! Every load run gets a fresh memo, fresh scheduler timelines and a
//! fresh policy, stacked as `Timed(MemoizedPlane(Timed(plane)))`.
//! `cluster_open` builds, deploys, warms and calibrates its cells once,
//! in set-up. `cluster_overload` calibrates in set-up but deploys its
//! cells afresh every pass, as fig16 does per job: a deployment reused
//! across passes leaks guest memory on this path (see
//! `perfbench/README.md`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_baselines::coldstart::{
    wasm_cold_ns, wasm_snapshot_restore_ns, PAPER_WASM_HELLO_BYTES,
};
use roadrunner_baselines::{RuncPair, WasmedgePair};
use roadrunner_platform::{
    execute, execute_concurrent, run_jobs, AdmissionConfig, ArrivalProcess, Autoscaler,
    AutoscalerConfig, BreakerConfig, ClosedLoop, DataPlane, FailurePlan, FunctionBundle,
    InstanceOutcome, KeepAlive, LoadRun, LocalityFirst, MemoizedPlane, MultiLoad, OpenLoop,
    OverloadConfig, PlacementPolicy, PrewarmConfig, QueueConfig, RetryBudgetConfig, RetryPolicy,
    ShedPolicy, SpreadLoad, SweepMode, TenantLoad, WarmPoolConfig, WorkflowSpec,
};
use roadrunner_serial::payload::Payload;
use roadrunner_vkernel::{ClusterSpec, Nanos, OutageSchedule, SchedResources, Testbed};
use roadrunner_wasm::encode;

use crate::timed::Timed;
use crate::trace::{self, timed};
use crate::util::{derive, ms, pct, tail_pct, Rng, Sig};
use crate::{Metrics, PassOut, Workload};

/// Sweep workers for both cluster workloads.
pub const WORKERS: usize = 2;
const CORES: u32 = 4;
/// Payload every pipeline instance carries.
const PAYLOAD_BYTES: usize = 256 * 1024;

/// `cluster_open`: nodes, instances per ladder cell, and the ladder as
/// mean inter-arrival gaps in multiples of Roadrunner's uncontended
/// makespan (locality placement), lightest first.
const OPEN_NODES: usize = 4;
const OPEN_INSTANCES: usize = 2000;
const LADDER: [f64; 8] = [1.0, 0.5, 0.3, 0.2, 0.18, 0.16, 0.13, 0.1];
/// The rung whose Roadrunner sojourns give the latency percentiles:
/// below saturation, with queueing. It runs `REF_REPLICAS` extra
/// arrival streams so its percentiles rest on enough samples.
const REF_RUNG: usize = 4;
const REF_REPLICAS: usize = 47;
/// Tail limit for the max-rate search, in uncontended makespans (also
/// the goodput SLO).
const OPEN_LIMIT_MAKESPANS: u64 = 4;
const POLICIES: [&str; 2] = ["locality", "spread"];
const OPEN_SYSTEMS: [&str; 3] = ["roadrunner", "runc", "wasmedge"];

/// `cluster_overload`: starting and maximum nodes, sweep cells (one
/// cluster and deployment each), independent seeded traces each cell
/// replays per pass, flood arrivals per phase (calm, burst, calm),
/// interactive arrivals, and the SLO (= deadline) in saturation
/// intervals.
const OVL_START_NODES: usize = 4;
const OVL_MAX_NODES: usize = 6;
const OVL_CELLS: usize = 4;
const OVL_TRACES: usize = 4;
const OVL_PHASES: (usize, usize, usize) = (60, 240, 90);
const OVL_INTERACTIVE: usize = 40;
const OVL_SLO_INTERVALS: u64 = 12;

fn spec(tenant: &str) -> WorkflowSpec {
    WorkflowSpec::sequence(
        "pipeline",
        tenant,
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    )
}

fn payload_of(seed: u64) -> Bytes {
    let _s = trace::span("serial.synthetic_s");
    let mut rng = Rng::new(seed);
    let mut buf = Vec::with_capacity(PAYLOAD_BYTES);
    while buf.len() < PAYLOAD_BYTES {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    buf.truncate(PAYLOAD_BYTES);
    if trace::enabled() {
        crate::edge::SYNTHETIC_BYTES
            .fetch_add(PAYLOAD_BYTES as u64, std::sync::atomic::Ordering::Relaxed);
    }
    Bytes::from(buf)
}

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    let bytes = timed("wasm.module_build_s", || encode::encode(&module));
    Arc::new(
        FunctionBundle::wasm(name, bytes)
            .with_workflow("bench")
            .with_tenant("bench"),
    )
}

/// Deploys the Roadrunner pipeline on `nodes` (src, relay, sink).
fn roadrunner(bed: &Arc<Testbed>, nodes: [usize; 3]) -> RoadrunnerPlane {
    let modules = [
        ("src", guest::producer(), "produce", false),
        ("relay", guest::relay(), "relay", false),
        ("sink", guest::consumer(), "consume", true),
    ];
    let bundles: Vec<_> = modules
        .iter()
        .map(|(n, m, ..)| bundle(n, m.clone()))
        .collect();
    let _s = trace::span("core.deploy_s");
    let mut plane = RoadrunnerPlane::new(
        Arc::clone(bed),
        ShimConfig::default().with_load_costs(false),
    );
    for ((name, _, handler, returns), (b, node)) in
        modules.iter().zip(bundles.into_iter().zip(nodes))
    {
        plane
            .deploy(node, name, b, handler, *returns)
            .expect("deploy pipeline");
    }
    plane
}

fn cluster(nodes: usize) -> Arc<Testbed> {
    timed("vkernel.testbed_build_s", || {
        Arc::new(ClusterSpec::homogeneous(nodes, CORES, 8 << 30).build())
    })
}

/// Warms `plane` with one discarded serial run, so lazy connection
/// set-up and guest heap growth stay out of every measured run.
fn warm_up(plane: &mut dyn DataPlane, bed: &Testbed, payload: &Bytes, span: &'static str) {
    let _s = trace::span(span);
    execute(plane, bed.clock(), &spec("bench"), payload.clone()).expect("warm-up run");
}

/// One instance's uncontended concurrent makespan on empty timelines.
fn uncontended(
    plane: &mut dyn DataPlane,
    bed: &Testbed,
    mut fresh: SchedResources,
    payload: &Bytes,
) -> Nanos {
    let _s = trace::span("platform.calibrate_s");
    execute_concurrent(
        plane,
        bed.clock(),
        &spec("bench"),
        payload.clone(),
        &mut fresh,
    )
    .expect("uncontended run")
    .total_latency_ns
}

/// One cell's load-run digest.
struct CellRun {
    run: LoadRun,
    hits: u64,
    misses: u64,
    bypasses: u64,
    /// Edges whose received bytes differed from the payload.
    mismatches: u64,
    /// Conservation held.
    conserved: bool,
}

/// Runs `drive` over `Timed(MemoizedPlane(Timed(plane)))` — or, without
/// `adapters`, over the bare memo — checking every delivered payload
/// (adapters only) and the run's conservation.
fn memoized_run(
    plane: &mut dyn DataPlane,
    bed: &Testbed,
    payload: &Bytes,
    adapters: bool,
    drive: impl FnOnce(&mut dyn DataPlane) -> LoadRun,
) -> CellRun {
    let clock = bed.clock().clone();
    let counts = |memo: &MemoizedPlane<'_>| [memo.hits(), memo.misses(), memo.bypasses()];
    let (run, mismatches, memo_counts) = if adapters {
        let mut inner = Timed::new(plane, "platform.plane_s");
        let mut memo = MemoizedPlane::new(&mut inner, clock);
        let mut outer = Timed::new(&mut memo, "platform.memo_self_s").checking(payload.clone());
        let run = timed("platform.loadgen_self_s", || drive(&mut outer));
        let mismatches = outer.mismatches();
        drop(outer);
        (run, mismatches, counts(&memo))
    } else {
        let mut memo = MemoizedPlane::new(plane, clock);
        let run = drive(&mut memo);
        (run, 0, counts(&memo))
    };
    let completed = run
        .outcomes
        .iter()
        .filter(|o| !o.failed && !o.deadline_exceeded)
        .count();
    let conserved = timed("bench.verify_s", || {
        run.arrivals == run.outcomes.len() + run.shed
            && run.outcomes.len() == completed + run.failed + run.deadline_exceeded
            && run.tenants.iter().map(|t| t.arrivals).sum::<usize>() == run.arrivals
    });
    let [hits, misses, bypasses] = memo_counts;
    CellRun {
        hits,
        misses,
        bypasses,
        mismatches,
        conserved,
        run,
    }
}

/// Every sojourn of `runs`, sorted.
fn sorted_sojourns<'a>(runs: impl IntoIterator<Item = &'a LoadRun>) -> Vec<u64> {
    let mut v: Vec<u64> = runs
        .into_iter()
        .flat_map(|r| r.outcomes.iter().map(|o| o.sojourn_ns))
        .collect();
    v.sort_unstable();
    v
}

/// Whether two runs' virtual outputs sign identically.
fn same_outputs(a: &CellRun, b: &CellRun) -> bool {
    let sign = |c: &CellRun| {
        let mut sig = Sig::default();
        sign_run(&mut sig, &c.run);
        sig
    };
    sign(a) == sign(b)
}

fn sign_run(sig: &mut Sig, run: &LoadRun) {
    for o in &run.outcomes {
        for w in [
            o.release_ns,
            o.finish_ns,
            o.sojourn_ns,
            o.cold_start_ns,
            u64::from(o.retries),
        ] {
            sig.word(w);
        }
        sig.word(
            u64::from(o.failed) | u64::from(o.deadline_exceeded) << 1 | (o.tenant as u64) << 2,
        );
        for &n in &o.assignment {
            sig.word(n as u64);
        }
    }
    for w in [
        run.arrivals,
        run.shed,
        run.failed,
        run.deadline_exceeded,
        run.final_nodes,
    ] {
        sig.word(w as u64);
    }
    sig.word(run.retries);
    sig.word(run.scale_events.len() as u64);
}

/// Runs every job on the sweep's worker pool, each as one operation
/// under a `bench.cell` span; a job that panicked yields `None`.
fn sweep_cells<J: Sync, R: Send>(jobs: &[J], run: impl Fn(&J) -> R + Sync) -> Vec<Option<R>> {
    let _wall = trace::span("platform.sweep_wall");
    run_jobs(jobs, SweepMode::Parallel { workers: WORKERS }, |job| {
        trace::in_op(crate::next_op(), || {
            let _cell = trace::span("bench.cell");
            catch_unwind(AssertUnwindSafe(|| run(job))).ok()
        })
    })
}

/// Tallies a cell into a pass: one attempted operation per arrival plus
/// one per check; a failed check or a panic fails the cell.
fn tally(out: &mut PassOut, cell: Option<&CellRun>, arrivals: usize, counts: &mut [u64; 3]) {
    out.attempted += arrivals as u64 + 2;
    match cell {
        Some(c) => {
            out.instances += c.run.completed() as u64;
            out.failed += c.mismatches + u64::from(!c.conserved);
            counts[0] += c.hits;
            counts[1] += c.misses;
            counts[2] += c.bypasses;
            sign_run(&mut out.sig, &c.run);
        }
        None => out.failed += arrivals as u64 + 2,
    }
}

fn memo_metrics(m: &mut Metrics, counts: [u64; 3], cells: usize) {
    let [hits, misses, bypasses] = counts;
    m.put("platform.memo.hits", hits as f64);
    m.put("platform.memo.misses", misses as f64);
    m.put("platform.memo.bypasses", bypasses as f64);
    m.put(
        "platform.memo.hit_ratio",
        hits as f64 / (hits + misses + bypasses).max(1) as f64,
    );
    m.put("platform.sweep.cells", cells as f64);
}

fn cut_metrics(m: &mut Metrics, payload: &Bytes) {
    let [lat, overhead, cpu, ram] = crate::edge::reference_cuts(&Payload::opaque(payload.clone()));
    m.put("latency_cut_vs_wasmedge", lat);
    m.put("overhead_cut_vs_wasmedge", overhead);
    m.put("cpu_cut_vs_wasmedge", cpu);
    m.put("ram_cut_vs_wasmedge", ram);
}

// ------------------------------------------------------------ cluster_open

struct OpenCell {
    bed: Arc<Testbed>,
    plane: Box<dyn DataPlane + Send>,
    policy: usize,
    system: usize,
    solo_ns: Nanos,
}

pub struct ClusterOpen {
    cells: Vec<Mutex<OpenCell>>,
    payload: Bytes,
    seed: u64,
    /// Mean inter-arrival gap per rung (identical for every cell).
    ladder_ns: Vec<Nanos>,
    /// Roadrunner solo makespan the ladder and limit derive from.
    base_ns: Nanos,
    /// (policy, system) and uncontended makespan per cell, in cell order.
    keys: Vec<(usize, usize)>,
    solos: Vec<Nanos>,
    first: Option<Vec<Vec<LoadRun>>>,
    counts: [u64; 3],
    cuts: Metrics,
}

pub fn open_setup(seed: u64) -> ClusterOpen {
    let payload = payload_of(derive(seed, 1));
    let jobs: Vec<(usize, usize)> = (0..POLICIES.len())
        .flat_map(|p| (0..OPEN_SYSTEMS.len()).map(move |s| (p, s)))
        .collect();
    let cells: Vec<OpenCell> = run_jobs(
        &jobs,
        SweepMode::Parallel { workers: WORKERS },
        |&(policy, system)| {
            let bed = cluster(OPEN_NODES);
            let colocated = POLICIES[policy] == "locality";
            let peer = usize::from(!colocated);
            let mut plane: Box<dyn DataPlane + Send> = match OPEN_SYSTEMS[system] {
                "roadrunner" => Box::new(roadrunner(
                    &bed,
                    if colocated { [0, 0, 0] } else { [0, 1, 2] },
                )),
                "runc" => Box::new(timed("baselines.establish_s.runc", || {
                    RuncPair::establish(Arc::clone(&bed), 0, peer)
                })),
                _ => Box::new(timed("baselines.establish_s.wasmedge", || {
                    WasmedgePair::establish(Arc::clone(&bed), 0, peer)
                })),
            };
            let first_call = if system == 0 {
                "core.first_call_s"
            } else {
                "baselines.first_call_s"
            };
            warm_up(plane.as_mut(), &bed, &payload, first_call);
            let solo_ns = uncontended(
                plane.as_mut(),
                &bed,
                SchedResources::for_testbed(&bed),
                &payload,
            );
            OpenCell {
                bed,
                plane,
                policy,
                system,
                solo_ns,
            }
        },
    );
    let base_ns = cells
        .iter()
        .find(|c| c.system == 0 && POLICIES[c.policy] == "locality")
        .expect("roadrunner locality cell")
        .solo_ns;
    let keys = cells.iter().map(|c| (c.policy, c.system)).collect();
    let solos = cells.iter().map(|c| c.solo_ns).collect();
    let ladder_ns = LADDER
        .iter()
        .map(|f| ((base_ns as f64 * f).round() as Nanos).max(1))
        .collect();
    let mut cuts = Metrics::default();
    cut_metrics(&mut cuts, &payload);
    ClusterOpen {
        cells: cells.into_iter().map(Mutex::new).collect(),
        payload,
        seed,
        ladder_ns,
        base_ns,
        keys,
        solos,
        first: None,
        counts: [0; 3],
        cuts,
    }
}

impl OpenCell {
    /// One open-loop stream of Poisson arrivals with mean gap `gap`.
    fn stream(&mut self, gap: Nanos, seed: u64, payload: &Bytes, adapters: bool) -> CellRun {
        let load = OpenLoop {
            spec: spec("bench"),
            payload: payload.clone(),
            arrivals: ArrivalProcess::Poisson {
                mean_interval_ns: gap,
                seed,
            },
            instances: OPEN_INSTANCES,
            admission: AdmissionConfig::warm(),
        };
        let mut resources = SchedResources::for_testbed(&self.bed);
        let mut policy = policy_of(POLICIES[self.policy]);
        let clock = self.bed.clock().clone();
        memoized_run(self.plane.as_mut(), &self.bed, payload, adapters, |plane| {
            load.run(plane, &clock, &mut resources, policy.as_mut())
                .expect("open-loop run")
        })
    }
}

fn policy_of(name: &str) -> Box<dyn PlacementPolicy> {
    match name {
        "locality" => Box::new(LocalityFirst::new()),
        _ => Box::new(SpreadLoad::new()),
    }
}

impl Workload for ClusterOpen {
    fn adapter_check(&mut self) -> Option<bool> {
        // Roadrunner under spread placement: per-instance placements,
        // memo hits and misses.
        let index = self.keys.iter().position(|&k| k == (1, 0))?;
        let mut cell = self.cells[index].lock().ok()?;
        let (gap, seed) = (self.ladder_ns[REF_RUNG], derive(self.seed, 99));
        let bare = cell.stream(gap, seed, &self.payload, false);
        let adapted = cell.stream(gap, seed, &self.payload, true);
        Some(same_outputs(&bare, &adapted))
    }

    fn pass(&mut self) -> PassOut {
        let (payload, seed) = (&self.payload, self.seed);
        // Every cell climbs the ladder; Roadrunner under locality then
        // replays the reference rung with extra arrival streams.
        let ladder = self.ladder_ns.clone();
        let reference = ladder[REF_RUNG];
        let streams_of = |policy: usize, system: usize| -> Vec<Nanos> {
            let extra = if (policy, system) == (0, 0) {
                REF_REPLICAS
            } else {
                0
            };
            ladder
                .iter()
                .copied()
                .chain(std::iter::repeat_n(reference, extra))
                .collect()
        };
        let results = sweep_cells(&self.cells, |cell| {
            let mut cell = cell.lock().expect("cell state");
            let streams = streams_of(cell.policy, cell.system);
            streams
                .iter()
                .enumerate()
                .map(|(stream, &gap)| {
                    // Identical arrivals for every system of a (policy, stream).
                    let stream_seed = derive(seed, (cell.policy * 1000 + stream) as u64 + 100);
                    cell.stream(gap, stream_seed, payload, true)
                })
                .collect::<Vec<CellRun>>()
        });
        let mut out = PassOut::default();
        let mut counts = [0; 3];
        let mut runs = Vec::new();
        for (cell, key) in results.iter().zip(&self.keys) {
            let mut cell_runs = Vec::new();
            for stream in 0..streams_of(key.0, key.1).len() {
                let c = cell.as_ref().map(|c| &c[stream]);
                tally(&mut out, c, OPEN_INSTANCES, &mut counts);
                cell_runs.extend(c.map(|c| c.run.clone()));
            }
            runs.push(cell_runs);
        }
        self.counts = counts;
        if self.first.is_none() && out.failed == 0 {
            self.first = Some(runs);
        }
        out
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.cuts.clone();
        let Some(runs) = &self.first else { return m };
        let keys = &self.keys;
        let cell = |policy: usize, system: usize| -> &Vec<LoadRun> {
            &runs[keys
                .iter()
                .position(|&k| k == (policy, system))
                .expect("cell exists")]
        };
        // Latency, goodput and rate follow Roadrunner under locality
        // placement, the regime whose saturation the ladder brackets.
        let rr = cell(0, 0);
        let limit = OPEN_LIMIT_MAKESPANS * self.base_ns;
        let reference = sorted_sojourns(std::iter::once(&rr[REF_RUNG]).chain(&rr[LADDER.len()..]));
        let tail = tail_pct(reference.len());
        m.put("virt_latency_p50_ms", ms(pct(&reference, 50.0)));
        m.put("virt_latency_tail_ms", ms(pct(&reference, tail)));
        m.put("bench.tail_pct", tail);
        let good: usize = rr
            .iter()
            .map(|r| r.outcomes.iter().filter(|o| o.sojourn_ns <= limit).count())
            .sum();
        let horizon_s: f64 = rr.iter().map(|r| r.horizon_ns as f64 / 1e9).sum();
        m.put("virt_goodput_rps", good as f64 / horizon_s);
        m.put("virt_max_rate_rps", self.max_rate(rr, tail, limit));
        // Same pipeline, same payload, one uncontended instance each.
        let solo = |system| {
            keys.iter()
                .zip(&self.solos)
                .filter(|(k, _)| k.1 == system)
                .map(|(_, &ns)| ns as f64)
                .sum::<f64>()
        };
        m.put("latency_cut_vs_wasmedge", 1.0 - solo(0) / solo(2));
        m.put("vkernel.virt_cpu_util", rr[REF_RUNG].cpu_utilization);
        m.put("vkernel.virt_link_util", rr[REF_RUNG].link_utilization);
        let all: Vec<&LoadRun> = runs.iter().flatten().collect();
        overload_counts(&mut m, &all);
        memo_metrics(&mut m, self.counts, self.cells.len());
        m
    }
}

impl ClusterOpen {
    /// The highest ladder rate whose tail meets `limit` with no growing
    /// backlog (the last quarter's median sojourn within twice the first
    /// quarter's), interpolated in log-rate toward the first failing
    /// rung by the log-ratios of the two rungs' tails to the limit.
    fn max_rate(&self, rr: &[LoadRun], tail: f64, limit: Nanos) -> f64 {
        let rate = |rung: usize| 1e9 / self.ladder_ns[rung] as f64;
        let tail_of = |rung: usize| pct(&sorted_sojourns([&rr[rung]]), tail) as f64;
        let steady = |rung: usize| {
            let o = &rr[rung].outcomes;
            let q = o.len() / 4;
            let med = |s: &[InstanceOutcome]| {
                let mut v: Vec<u64> = s.iter().map(|o| o.sojourn_ns).collect();
                v.sort_unstable();
                pct(&v, 50.0)
            };
            med(&o[o.len() - q..]) <= 2 * med(&o[..q])
        };
        let limit = limit as f64;
        let ok = |rung: usize| tail_of(rung) <= limit && steady(rung);
        match (0..LADDER.len()).take_while(|&r| ok(r)).last() {
            None => rate(0) * (limit / tail_of(0)).min(1.0),
            Some(r) if r + 1 == LADDER.len() => rate(r),
            Some(r) => {
                let over = (tail_of(r + 1).max(limit) / limit).ln();
                let under = (limit / tail_of(r)).ln();
                let frac = if over + under > 0.0 {
                    under / (over + under)
                } else {
                    0.0
                };
                rate(r) * (rate(r + 1) / rate(r)).powf(frac)
            }
        }
    }
}

/// The control-stack per-layer counts over `runs`.
fn overload_counts(m: &mut Metrics, runs: &[&LoadRun]) {
    let total = |f: &dyn Fn(&LoadRun) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let instances = total(&|r| r.outcomes.len() as u64).max(1.0);
    m.put("platform.virt_retries", total(&|r| r.retries));
    m.put("platform.virt_shed", total(&|r| r.shed as u64));
    m.put(
        "platform.virt_deadline_exceeded",
        total(&|r| r.deadline_exceeded as u64),
    );
    m.put("platform.virt_failed", total(&|r| r.failed as u64));
    m.put(
        "platform.virt_cold_start_ms",
        total(&|r| r.cold_start_total_ns()) / 1e6 / instances,
    );
    let pool =
        |f: fn(&roadrunner_platform::PoolStats) -> u64| total(&|r| r.pool.map_or(0, |p| f(&p)));
    let (hits, misses) = (pool(|p| p.hits), pool(|p| p.misses));
    m.put(
        "platform.pool.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.put("platform.pool.evictions", pool(|p| p.evictions));
    m.put("platform.pool.prewarms", pool(|p| p.prewarms));
    m.put(
        "platform.scale_events",
        total(&|r| r.scale_events.len() as u64),
    );
}

// -------------------------------------------------------- cluster_overload

pub struct ClusterOverload {
    payload: Bytes,
    /// Saturation interval: 1 / deliverable throughput under spread
    /// placement, from a think-free closed-loop probe.
    interval_ns: Nanos,
    solo_ns: Nanos,
    /// Per sweep cell, one seed per trace the cell replays.
    seeds: Vec<Vec<u64>>,
    first: Option<Vec<(LoadRun, (Nanos, Nanos))>>,
    counts: [u64; 3],
    cuts: Metrics,
}

/// A fresh cluster with the pipeline deployed on node 0 and warmed up.
/// Every pass deploys its cells afresh, as fig16 does per job.
fn overload_deployment(payload: &Bytes) -> (Arc<Testbed>, RoadrunnerPlane) {
    let bed = cluster(OVL_MAX_NODES);
    let mut plane = roadrunner(&bed, [0, 0, 0]);
    warm_up(&mut plane, &bed, payload, "core.first_call_s");
    (bed, plane)
}

pub fn overload_setup(seed: u64) -> ClusterOverload {
    let payload = payload_of(derive(seed, 1));
    let seeds = (0..OVL_CELLS)
        .map(|c| {
            (0..OVL_TRACES)
                .map(|t| derive(seed, (c * OVL_TRACES + t) as u64 + 200))
                .collect()
        })
        .collect();
    let (bed, mut plane) = overload_deployment(&payload);
    let solo_ns = uncontended(
        &mut plane,
        &bed,
        SchedResources::mesh(&[CORES; OVL_START_NODES]),
        &payload,
    );
    let users = OVL_START_NODES * CORES as usize;
    let probe = ClosedLoop {
        spec: spec("bench"),
        payload: payload.clone(),
        users,
        think_ns: 0,
        ramp_ns: 0,
        instances: users * 4,
        admission: AdmissionConfig::warm(),
    };
    let clock = bed.clock().clone();
    let run = timed("platform.calibrate_s", || {
        let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
        let mut resources = SchedResources::mesh(&[CORES; OVL_START_NODES]);
        probe
            .run(&mut memo, &clock, &mut resources, &mut SpreadLoad::new())
            .expect("saturation probe")
    });
    let horizon = run.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(1);
    let interval_ns = (horizon / run.completed().max(1) as u64).max(1);
    let mut cuts = Metrics::default();
    cut_metrics(&mut cuts, &payload);
    ClusterOverload {
        payload,
        interval_ns,
        solo_ns,
        seeds,
        first: None,
        counts: [0; 3],
        cuts,
    }
}

/// Seeded Poisson release times: `n` arrivals from `start` with mean
/// gap `gap`.
fn poisson(rng: &mut Rng, start: Nanos, n: usize, gap: Nanos, out: &mut Vec<Nanos>) -> Nanos {
    let mut t = start;
    for _ in 0..n {
        out.push(t);
        t += rng.exp(gap as f64).round() as Nanos;
    }
    t
}

impl ClusterOverload {
    /// One overload trace on a deployment: the seeded arrivals, the flap
    /// plan and the control stack.
    fn trace(
        &self,
        bed: &Testbed,
        plane: &mut RoadrunnerPlane,
        seed: u64,
        adapters: bool,
    ) -> (CellRun, (Nanos, Nanos)) {
        let (i, payload) = (self.interval_ns, &self.payload);
        let mut rng = Rng::new(seed);
        let (n_pre, n_burst, n_post) = OVL_PHASES;
        let mut flood = Vec::new();
        let burst_start = poisson(&mut rng, 0, n_pre, 2 * i, &mut flood);
        let burst_end = poisson(&mut rng, burst_start, n_burst, (i / 3).max(1), &mut flood);
        let end = poisson(&mut rng, burst_end, n_post, 2 * i, &mut flood);
        let mut interactive = Vec::new();
        poisson(
            &mut rng,
            0,
            OVL_INTERACTIVE,
            (end / OVL_INTERACTIVE as u64).max(1),
            &mut interactive,
        );

        let mut resources = SchedResources::mesh(&[CORES; OVL_START_NODES]);
        let ids: Vec<u64> = (0..OVL_START_NODES).map(|n| resources.node_id(n)).collect();
        // Two three-interval link flaps at seeded instants inside the burst.
        let mut outages = OutageSchedule::new();
        for _ in 0..2 {
            let a = (rng.next_u64() % ids.len() as u64) as usize;
            let b = (a + 1 + (rng.next_u64() % (ids.len() as u64 - 1)) as usize) % ids.len();
            let from = burst_start + (rng.unit() * (burst_end - burst_start) as f64) as Nanos;
            outages = outages.link_down(ids[a], ids[b], from, from + 3 * i);
        }
        let plan = FailurePlan::new(RetryPolicy::new(6, (i / 2).max(1), (4 * i).max(1)))
            .with_outages(outages);
        let overload = OverloadConfig {
            deadline_ns: Some(OVL_SLO_INTERVALS * i),
            retry_budget: Some(RetryBudgetConfig {
                refill_millitokens_per_s: 0,
                burst_millitokens: 4_000,
                per_success_millitokens: 200,
            }),
            breaker: Some(BreakerConfig {
                window_ns: (4 * i).max(1),
                failure_rate: (1, 2),
                min_samples: 4,
                open_ns: (4 * i).max(1),
                half_open_probes: 2,
                placement_penalty_ns: 1 << 40,
            }),
            queue: Some(QueueConfig {
                max_in_flight: OVL_START_NODES * CORES as usize / 2,
                queue_cap: 64,
                policy: ShedPolicy::CoDel {
                    target_ns: (2 * i).max(1),
                },
            }),
        };
        let cost = bed.cost();
        let admission = AdmissionConfig::pooled(
            wasm_cold_ns(cost, PAPER_WASM_HELLO_BYTES),
            WarmPoolConfig {
                restore_ns: Some(wasm_snapshot_restore_ns(cost, PAPER_WASM_HELLO_BYTES)),
                keep_alive: KeepAlive::Hybrid {
                    min_ttl_ns: 1_000_000,
                    max_ttl_ns: 40 * i,
                },
                max_idle_per_slot: 8,
            },
        );
        let tenant = |name: &str, releases: Vec<Nanos>, weight| TenantLoad {
            name: name.to_owned(),
            spec: spec(name),
            payload: payload.clone(),
            releases,
            weight,
        };
        let load = MultiLoad {
            tenants: vec![
                tenant("interactive", interactive, 4),
                tenant("flood", flood, 1),
            ],
            admission,
        };
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: OVL_START_NODES,
            max_nodes: OVL_MAX_NODES,
            node_cores: CORES,
            scale_up_backlog_ns: 4 * i,
            scale_down_backlog_ns: i / 2,
            window_ns: (8 * i).max(1),
        })
        .with_prewarm(PrewarmConfig {
            headroom: 2.0,
            lead_ns: self.solo_ns.max(1),
            window_ns: self.solo_ns.max(1),
        });
        let clock = bed.clock().clone();
        let run = memoized_run(plane, bed, payload, adapters, |plane| {
            load.run_overloaded(
                plane,
                &clock,
                &mut resources,
                &mut SpreadLoad::new(),
                Some(&mut scaler),
                Some(&plan),
                &overload,
            )
            .expect("overload run")
        });
        (run, (burst_start, burst_end))
    }
}

impl Workload for ClusterOverload {
    fn adapter_check(&mut self) -> Option<bool> {
        let seed = self.seeds[0][0];
        let run = |adapters| {
            let (bed, mut plane) = overload_deployment(&self.payload);
            self.trace(&bed, &mut plane, seed, adapters).0
        };
        let bare = run(false);
        Some(same_outputs(&bare, &run(true)))
    }

    fn pass(&mut self) -> PassOut {
        let results = sweep_cells(&self.seeds, |seeds| {
            let (bed, mut plane) = overload_deployment(&self.payload);
            seeds
                .iter()
                .map(|&seed| self.trace(&bed, &mut plane, seed, true))
                .collect::<Vec<_>>()
        });
        let mut out = PassOut::default();
        let mut counts = [0; 3];
        let arrivals = OVL_PHASES.0 + OVL_PHASES.1 + OVL_PHASES.2 + OVL_INTERACTIVE;
        for cell in &results {
            for t in 0..OVL_TRACES {
                tally(
                    &mut out,
                    cell.as_ref().map(|c| &c[t].0),
                    arrivals,
                    &mut counts,
                );
            }
        }
        self.counts = counts;
        if self.first.is_none() && out.failed == 0 {
            self.first = Some(
                results
                    .into_iter()
                    .flatten()
                    .flatten()
                    .map(|(c, b)| (c.run, b))
                    .collect(),
            );
        }
        out
    }

    fn metrics(&self) -> Metrics {
        let mut m = self.cuts.clone();
        let Some(first) = &self.first else { return m };
        let mut sojourns: Vec<u64> = first
            .iter()
            .flat_map(|(r, ..)| {
                r.outcomes
                    .iter()
                    .filter(|o| !o.failed && !o.deadline_exceeded)
                    .map(|o| o.sojourn_ns)
            })
            .collect();
        sojourns.sort_unstable();
        let tail = tail_pct(sojourns.len());
        m.put("virt_latency_p50_ms", ms(pct(&sojourns, 50.0)));
        m.put("virt_latency_tail_ms", ms(pct(&sojourns, tail)));
        m.put("bench.tail_pct", tail);
        let (mut good, mut horizon, mut burst_done, mut burst_len) = (0usize, 0f64, 0usize, 0f64);
        let slo = OVL_SLO_INTERVALS * self.interval_ns;
        for (run, (b0, b1)) in first {
            let ok = |o: &&InstanceOutcome| !o.failed && !o.deadline_exceeded;
            good += run
                .outcomes
                .iter()
                .filter(ok)
                .filter(|o| o.sojourn_ns <= slo)
                .count();
            horizon += run.horizon_ns as f64 / 1e9;
            burst_done += run
                .outcomes
                .iter()
                .filter(ok)
                .filter(|o| o.finish_ns >= *b0 && o.finish_ns < *b1)
                .count();
            burst_len += (b1 - b0) as f64 / 1e9;
        }
        m.put("virt_goodput_rps", good as f64 / horizon);
        m.put("virt_max_rate_rps", burst_done as f64 / burst_len);
        let runs: Vec<&LoadRun> = first.iter().map(|(r, ..)| r).collect();
        m.put(
            "vkernel.virt_cpu_util",
            runs.iter().map(|r| r.cpu_utilization).sum::<f64>() / runs.len() as f64,
        );
        m.put(
            "vkernel.virt_link_util",
            runs.iter().map(|r| r.link_utilization).sum::<f64>() / runs.len() as f64,
        );
        overload_counts(&mut m, &runs);
        memo_metrics(&mut m, self.counts, self.seeds.len());
        m
    }
}

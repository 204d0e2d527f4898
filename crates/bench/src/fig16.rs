//! Fig. 16 (beyond the paper) — overload control and metastable
//! failure.
//!
//! The elasticity experiments (fig13/fig14) always let every arrival
//! in; this experiment drives the cluster *past* saturation and shows
//! why that is the failure mode that does not heal on its own. A
//! three-phase open-loop trace — a calm pre-burst stretch, a burst at
//! several times deliverable capacity (with link flaps feeding the
//! retry engine), and a calm post-burst stretch at the pre-burst rate —
//! is replayed through two configurations of the same engine:
//!
//! * **naive** — aggressive retries (6 attempts), no deadline, no
//!   budget, no breaker, no queue. The burst's work plus its retry
//!   amplification piles onto the shared timelines; long after the
//!   burst ends, post-phase arrivals still queue behind it and miss the
//!   SLO. Goodput (completions within [`SLO_INTERVALS`]× the measured
//!   saturation interval, per second of arrivals) stays collapsed: the metastable
//!   signature.
//! * **mitigated** — the same trace, same flaps, same retry policy,
//!   with the overload layer on: per-instance deadlines shed doomed
//!   work mid-flight, the retry budget caps retry traffic at a fraction
//!   of successes, circuit breakers steer placement off failing
//!   (function, node) pairs, and a bounded CoDel admission queue sheds
//!   the burst's excess instead of admitting it. Post-burst goodput
//!   recovers to ≥ [`GATE_RECOVERY`] of pre-burst.
//!
//! A second pair of cells replays a multi-tenant variant: a light
//! interactive tenant sharing the cluster with an adversarial flood
//! tenant, once with unbounded admission (**fair_naive** — the flood
//! wrecks the interactive p95) and once behind the weighted admission
//! queue (**fair_shared** — reject-oldest keeps the queue fresh and a
//! 4:1 weight drains the interactive lane first; its p95 stays within
//! [`GATE_ISOLATION`]× of the flood-free pair's). All four cells are
//! independent jobs fanned over the sweep worker pool; serial and
//! parallel output is byte-identical.

use bytes::Bytes;
use roadrunner_platform::{
    run_jobs, AdmissionConfig, BreakerConfig, ClosedLoop, FailurePlan, LoadRun, MemoizedPlane,
    MultiLoad, OverloadConfig, QueueConfig, RetryBudgetConfig, RetryPolicy, ShedPolicy, SpreadLoad,
    SweepMode, TenantLoad, WorkflowSpec,
};
use roadrunner_vkernel::{secs, Nanos, OutageSchedule, SchedResources};

use crate::fig13::{cluster, systems, CORES, START_NODES};
use crate::MB;

/// The SLO every goodput number is measured against, in multiples of
/// the measured saturation interval (also the mitigated cell's
/// deadline). Every cell calibrates its own interval with a closed-loop
/// probe before the trace runs, so the geometry tracks what the cluster
/// actually delivers under spread placement rather than the co-located
/// solo makespan.
pub const SLO_INTERVALS: u64 = 12;
/// Naive post-burst goodput must collapse below this fraction of its
/// own pre-burst goodput.
pub const GATE_COLLAPSE: f64 = 0.5;
/// Mitigated post-burst goodput must recover to at least this fraction
/// of its own pre-burst goodput.
pub const GATE_RECOVERY: f64 = 0.8;
/// The shared-queue interactive p95 must beat the unprotected
/// interactive p95 by at least this factor.
pub const GATE_ISOLATION: f64 = 2.0;

/// Knobs for one fig16 sweep.
pub struct Fig16Options {
    /// Reduced phase lengths for CI.
    pub quick: bool,
    /// Serial reference loop or the worker pool.
    pub mode: SweepMode,
}

/// The four experiment cells, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Naive,
    Mitigated,
    FairNaive,
    FairShared,
}

impl Cell {
    fn label(self) -> &'static str {
        match self {
            Cell::Naive => "naive",
            Cell::Mitigated => "mitigated",
            Cell::FairNaive => "fair_naive",
            Cell::FairShared => "fair_shared",
        }
    }

    fn is_fair(self) -> bool {
        matches!(self, Cell::FairNaive | Cell::FairShared)
    }
}

/// One cell's knobs — also the parallel job description.
#[derive(Clone, Copy)]
struct Job {
    cell: Cell,
    quick: bool,
}

/// Per-phase arrival counts (pre, burst, post) and the fairness-pair
/// counts (interactive, flood), quick vs full.
fn counts(quick: bool) -> (usize, usize, usize, usize, usize) {
    if quick {
        (20, 80, 30, 10, 160)
    } else {
        (40, 160, 60, 16, 256)
    }
}

/// The burst trace geometry, all in units of the measured saturation
/// interval `i` (the reciprocal of deliverable throughput): calm phases
/// at one arrival per `2i` (half of capacity), the burst at one per
/// `i/3` (three times capacity before retries).
struct Trace {
    releases: Vec<Nanos>,
    burst_start: Nanos,
    post_start: Nanos,
    post_end: Nanos,
}

fn burst_trace(i: Nanos, quick: bool) -> Trace {
    let (n_pre, n_burst, n_post, _, _) = counts(quick);
    let (gap_calm, gap_burst) = ((2 * i).max(1), (i / 3).max(1));
    let mut releases = Vec::with_capacity(n_pre + n_burst + n_post);
    let mut t = 0;
    for _ in 0..n_pre {
        releases.push(t);
        t += gap_calm;
    }
    let burst_start = t;
    for _ in 0..n_burst {
        releases.push(t);
        t += gap_burst;
    }
    let post_start = t;
    for _ in 0..n_post {
        releases.push(t);
        t += gap_calm;
    }
    Trace { releases, burst_start, post_start, post_end: t }
}

fn spec_for(tenant: &str) -> WorkflowSpec {
    WorkflowSpec::sequence(
        "pipeline",
        tenant,
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    )
}

/// The flap schedule the burst pair injects: two three-interval link
/// outages on the pair link, nine intervals apart, starting nine
/// intervals *into* the burst — the healthy front of the burst piles
/// the admission queue up first, then the flaps feed the retry engine
/// while the cluster is already past saturation.
fn flap_plan(i: Nanos, burst_start: Nanos, ids: (u64, u64)) -> FailurePlan {
    let retry = RetryPolicy::new(6, (i / 2).max(1), (4 * i).max(1));
    let mut outages = OutageSchedule::new();
    for flap in 0..2u64 {
        let from = burst_start + (9 + flap * 9) * i;
        outages = outages.link_down(ids.0, ids.1, from, from + 3 * i);
    }
    FailurePlan::new(retry).with_outages(outages)
}

/// The full overload stack the mitigated cell turns on.
fn mitigations(i: Nanos) -> OverloadConfig {
    OverloadConfig {
        deadline_ns: Some(SLO_INTERVALS * i),
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
        // Admit at most half the saturation depth: overload posture is
        // to hold concurrency at the knee and queue (then shed) the
        // rest, not to let the timelines absorb unbounded backlog.
        queue: Some(QueueConfig {
            max_in_flight: (START_NODES * CORES as usize) / 2,
            queue_cap: 64,
            policy: ShedPolicy::CoDel { target_ns: (2 * i).max(1) },
        }),
    }
}

/// The weighted queue the fair_shared cell puts in front of admission.
fn fair_queue() -> OverloadConfig {
    OverloadConfig {
        queue: Some(QueueConfig {
            max_in_flight: (START_NODES * CORES as usize),
            queue_cap: 32,
            policy: ShedPolicy::RejectOldest,
        }),
        ..OverloadConfig::default()
    }
}

/// Goodput over arrivals in `[from, to)`: completions within `slo`,
/// per second of the window.
fn goodput_rps(run: &LoadRun, from: Nanos, to: Nanos, slo: Nanos) -> f64 {
    if to <= from {
        return 0.0;
    }
    let good = run
        .outcomes
        .iter()
        .filter(|o| {
            !o.failed
                && !o.deadline_exceeded
                && o.release_ns >= from
                && o.release_ns < to
                && o.sojourn_ns <= slo
        })
        .count();
    good as f64 * 1e9 / (to - from) as f64
}

/// One cell's run plus everything the gates and rows need.
struct CellResult {
    job: Job,
    solo_ns: Nanos,
    /// The calibrated saturation interval (1 / deliverable throughput).
    interval_ns: Nanos,
    run: LoadRun,
    /// (pre, post) goodput for the burst pair; `None` for fairness.
    goodput: Option<(f64, f64)>,
}

/// Measures the cluster's deliverable throughput under spread placement
/// as a saturation interval: eight think-free closed-loop users, the
/// horizon over the completions. Every cell runs the same probe on
/// fresh resources, so the calibration is deterministic and identical
/// across cells.
fn saturation_interval(
    plane: &mut MemoizedPlane<'_>,
    clock: &roadrunner_vkernel::VirtualClock,
    payload: &Bytes,
) -> Nanos {
    let users = START_NODES * CORES as usize;
    let probe = ClosedLoop {
        spec: spec_for("bench"),
        payload: payload.clone(),
        users,
        think_ns: 0,
        ramp_ns: 0,
        instances: users * 4,
        admission: AdmissionConfig::warm(),
    };
    let mut resources = SchedResources::mesh(&[CORES; START_NODES]);
    let mut policy = SpreadLoad::new();
    let run = probe.run(plane, clock, &mut resources, &mut policy).expect("calibration probe");
    let horizon = run.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(1);
    (horizon / run.completed().max(1) as u64).max(1)
}

fn run_job(job: &Job, payload: &Bytes) -> CellResult {
    let bed = cluster();
    let mut under_load = systems(&bed, payload);
    let system = &mut under_load[0]; // roadrunner
    let clock = bed.clock().clone();
    let mut resources = SchedResources::mesh(&[CORES; START_NODES]);
    let ids = (resources.node_id(0), resources.node_id(1));
    let mut policy = SpreadLoad::new();
    let mut plane = MemoizedPlane::new(system.plane.as_mut(), clock.clone());
    let i = saturation_interval(&mut plane, &clock, payload);

    let (load, plan, overload, windows) = if job.cell.is_fair() {
        let (_, _, _, n_inter, n_flood) = counts(job.quick);
        let interactive = TenantLoad {
            name: "interactive".to_owned(),
            spec: spec_for("interactive"),
            payload: payload.clone(),
            releases: (0..n_inter as u64).map(|k| k * 8 * i).collect(),
            weight: 4,
        };
        let flood = TenantLoad {
            name: "flood".to_owned(),
            spec: spec_for("flood"),
            payload: payload.clone(),
            releases: (0..n_flood as u64).map(|k| k * (i / 2).max(1)).collect(),
            weight: 1,
        };
        let overload = match job.cell {
            Cell::FairShared => fair_queue(),
            _ => OverloadConfig::default(),
        };
        (
            MultiLoad {
                tenants: vec![interactive, flood],
                admission: AdmissionConfig::warm(),
            },
            None,
            overload,
            None,
        )
    } else {
        let trace = burst_trace(i, job.quick);
        let windows = (trace.burst_start, trace.post_start, trace.post_end);
        let tenant = TenantLoad {
            name: "bench".to_owned(),
            spec: spec_for("bench"),
            payload: payload.clone(),
            releases: trace.releases,
            weight: 1,
        };
        let plan = flap_plan(i, trace.burst_start, ids);
        let overload = match job.cell {
            Cell::Mitigated => mitigations(i),
            _ => OverloadConfig::default(),
        };
        (
            MultiLoad { tenants: vec![tenant], admission: AdmissionConfig::warm() },
            Some(plan),
            overload,
            Some(windows),
        )
    };

    let run = load
        .run_overloaded(
            &mut plane,
            &clock,
            &mut resources,
            &mut policy,
            None,
            plan.as_ref(),
            &overload,
        )
        .expect("fig16 cell run");

    // Conservation in every cell: arrivals are fully accounted.
    assert_eq!(
        run.arrivals,
        run.completed() + run.failed + run.deadline_exceeded + run.shed,
        "{}: arrivals must be conserved",
        job.cell.label(),
    );

    let goodput = windows.map(|(burst_start, post_start, post_end)| {
        let slo = SLO_INTERVALS * i;
        (goodput_rps(&run, 0, burst_start, slo), goodput_rps(&run, post_start, post_end, slo))
    });
    if std::env::var_os("FIG16_DEBUG").is_some() {
        let d = run.sojourn_percentiles();
        eprintln!(
            "[fig16] {}: interval={} arrivals={} completed={} failed={} dl={} shed={} retries={} \
             p50={:?} p95={:?} goodput={:?} tenants={:?}",
            job.cell.label(),
            i,
            run.arrivals,
            run.completed(),
            run.failed,
            run.deadline_exceeded,
            run.shed,
            run.retries,
            d.map(|x| x.p50_ns / i.max(1)),
            d.map(|x| x.p95_ns / i.max(1)),
            goodput,
            run.tenants
                .iter()
                .map(|t| (t.name.clone(), t.completed, t.sojourn_percentiles().map(|p| p.p95_ns / i.max(1))))
                .collect::<Vec<_>>(),
        );
    }
    CellResult { job: *job, solo_ns: system.solo_ns, interval_ns: i, run, goodput }
}

fn cell_json(result: &CellResult) -> String {
    let run = &result.run;
    let digest = run.sojourn_percentiles();
    let pct = |p: Option<roadrunner_platform::PercentileSummary>, f: fn(&roadrunner_platform::PercentileSummary) -> Nanos| {
        p.map_or("null".to_owned(), |d| format!("{:.6}", secs(f(&d))))
    };
    let tenant_p95 = |name: &str| {
        run.tenants
            .iter()
            .find(|t| t.name == name)
            .and_then(|t| t.sojourn_percentiles())
            .map_or("null".to_owned(), |d| format!("{:.6}", secs(d.p95_ns)))
    };
    let goodput = |pick: fn(&(f64, f64)) -> f64| {
        result.goodput.as_ref().map_or("null".to_owned(), |g| format!("{:.3}", pick(g)))
    };
    format!(
        concat!(
            "    {{\"cell\": \"{}\", \"solo_s\": {:.6}, \"saturation_interval_s\": {:.6}, ",
            "\"arrivals\": {}, ",
            "\"completed\": {}, \"failed\": {}, \"deadline_exceeded\": {}, ",
            "\"shed\": {}, \"retries\": {}, ",
            "\"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, ",
            "\"goodput_pre_rps\": {}, \"goodput_post_rps\": {}, ",
            "\"interactive_p95_s\": {}, \"flood_p95_s\": {}}}"
        ),
        result.job.cell.label(),
        secs(result.solo_ns),
        secs(result.interval_ns),
        run.arrivals,
        run.completed(),
        run.failed,
        run.deadline_exceeded,
        run.shed,
        run.retries,
        pct(digest, |d| d.p50_ns),
        pct(digest, |d| d.p95_ns),
        pct(digest, |d| d.p99_ns),
        goodput(|g| g.0),
        goodput(|g| g.1),
        if result.job.cell.is_fair() { tenant_p95("interactive") } else { "null".to_owned() },
        if result.job.cell.is_fair() { tenant_p95("flood") } else { "null".to_owned() },
    )
}

/// Runs the fig16 sweep under `opts` and returns the complete JSON
/// document (the content of `BENCH_overload.json`). Panics if any
/// headline gate — the naive collapse, the mitigated recovery, or the
/// tenant isolation — fails.
pub fn fig16_json(opts: &Fig16Options) -> String {
    let payload = Bytes::from(vec![0xF1u8; MB / 4]);
    let jobs: Vec<Job> = [Cell::Naive, Cell::Mitigated, Cell::FairNaive, Cell::FairShared]
        .into_iter()
        .map(|cell| Job { cell, quick: opts.quick })
        .collect();

    let results = run_jobs(&jobs, opts.mode, |job| run_job(job, &payload));
    let find = |cell: Cell| results.iter().find(|r| r.job.cell == cell).expect("cell exists");

    // Gate 1: the naive cell's post-burst goodput stays collapsed.
    let (naive_pre, naive_post) = find(Cell::Naive).goodput.expect("burst cell");
    assert!(naive_pre > 0.0, "naive pre-burst goodput must be nonzero");
    let collapse = naive_post / naive_pre;
    assert!(
        collapse < GATE_COLLAPSE,
        "naive goodput must stay collapsed after the burst: \
         post {naive_post:.3} rps vs pre {naive_pre:.3} rps (ratio {collapse:.3})",
    );

    // Gate 2: the mitigated cell recovers.
    let (mit_pre, mit_post) = find(Cell::Mitigated).goodput.expect("burst cell");
    assert!(mit_pre > 0.0, "mitigated pre-burst goodput must be nonzero");
    let recovery = mit_post / mit_pre;
    assert!(
        recovery >= GATE_RECOVERY,
        "the overload layer must restore post-burst goodput: \
         post {mit_post:.3} rps vs pre {mit_pre:.3} rps (ratio {recovery:.3})",
    );
    // Mitigation must come from the mechanisms, not from luck: the
    // queue must shed, and retry traffic must be cut vs naive.
    let mitigated = find(Cell::Mitigated);
    assert!(mitigated.run.shed > 0, "the mitigated queue must shed burst excess");
    assert!(
        mitigated.run.retries < find(Cell::Naive).run.retries,
        "the retry budget must cut retry amplification ({} vs naive {})",
        mitigated.run.retries,
        find(Cell::Naive).run.retries,
    );

    // Gate 3: the weighted queue isolates the interactive tenant.
    let inter_p95 = |cell: Cell| {
        find(cell)
            .run
            .tenants
            .iter()
            .find(|t| t.name == "interactive")
            .and_then(|t| t.sojourn_percentiles())
            .expect("interactive completions")
            .p95_ns
    };
    let (exposed, isolated) = (inter_p95(Cell::FairNaive), inter_p95(Cell::FairShared));
    let isolation = exposed as f64 / isolated.max(1) as f64;
    assert!(
        isolation >= GATE_ISOLATION,
        "the weighted queue must isolate the interactive tenant: \
         p95 {} vs unprotected {} (ratio {isolation:.2})",
        isolated,
        exposed,
    );
    let shared = find(Cell::FairShared);
    let inter = shared
        .run
        .tenants
        .iter()
        .find(|t| t.name == "interactive")
        .expect("interactive stats");
    assert!(
        inter.completed * 10 >= inter.arrivals * 8,
        "the interactive tenant must keep completing behind the queue \
         ({}/{} completed)",
        inter.completed,
        inter.arrivals,
    );

    let rows: Vec<String> = results.iter().map(cell_json).collect();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"figure\": \"fig16_overload\",\n");
    out.push_str(&format!(
        "  \"cluster\": {{\"nodes\": {START_NODES}, \"cores_per_node\": {CORES}}},\n"
    ));
    out.push_str("  \"workflow\": \"src -> relay -> sink\",\n");
    out.push_str(&format!("  \"payload_mb\": {:.2},\n", (MB / 4) as f64 / MB as f64));
    out.push_str(&format!("  \"slo_intervals\": {SLO_INTERVALS},\n"));
    out.push_str(&format!(
        "  \"gate\": {{\"max_collapse_ratio\": {GATE_COLLAPSE:.1}, \
         \"collapse_ratio\": {collapse:.3}, \
         \"min_recovery_ratio\": {GATE_RECOVERY:.1}, \
         \"recovery_ratio\": {recovery:.3}, \
         \"min_isolation_ratio\": {GATE_ISOLATION:.1}, \
         \"isolation_ratio\": {isolation:.3}, \"pass\": true}},\n"
    ));
    out.push_str("  \"cells\": [\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1 smoke: the quick matrix end to end, serial for
    /// determinism; every headline gate asserts inside `fig16_json`.
    #[test]
    fn quick_sweep_passes_every_gate() {
        let json = fig16_json(&Fig16Options { quick: true, mode: SweepMode::Serial });
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"cell\": \"fair_shared\""));
    }
}

//! Multi-tenant load generation and the elastic control loop.
//!
//! The paper evaluates one workflow at a time; a platform serves many at
//! once. This module admits streams of workflow *instances* onto
//! **shared** [`SchedResources`] timelines through one completion-event
//! engine: every admission pops from a deterministic event queue, takes a
//! live [`ResourceView`] snapshot, asks the [`PlacementPolicy`] where the
//! instance goes, charges an optional cold start for functions landing on
//! a node for the first time, and executes the instance at its release
//! time on the concurrent workflow engine (the spec is compiled **once
//! per run**, not once per arrival) — so every in-flight instance
//! contends for the same per-node core lanes and per-pair links in
//! virtual time. Completion events close the loop: they gate the next
//! arrival of a closed-loop user and give the [`Autoscaler`] its
//! observation points.
//!
//! Three drivers share the engine:
//!
//! * [`OpenLoop`] — arrivals do not wait for completions (the classic
//!   serverless traffic model — users do not coordinate), so offered
//!   load can exceed capacity and queueing shows up as growing sojourn
//!   times rather than a throttled arrival stream.
//! * [`ClosedLoop`] — N virtual users each keep exactly one instance in
//!   flight: a user's next arrival fires only after its previous
//!   instance completed plus a think time. Saturation throughput is
//!   measured directly instead of read off the achieved-vs-offered gap.
//! * [`MultiLoad`] — several tenants' explicit release traces
//!   interleaved onto the same timelines, each in its own admission
//!   lane.
//!
//! Each driver has exactly two entry points: `run`, with every optional
//! layer off, and `run_overloaded`, which takes the [`Autoscaler`], the
//! [`FailurePlan`] and the [`OverloadConfig`]. `run` is
//! `run_overloaded(None, None, &OverloadConfig::default())`.
//!
//! Admission is FIFO in arrival order: an earlier instance's
//! reservations are placed before a later instance's, the discipline of
//! a work-conserving platform queue. The optional [`Autoscaler`] watches
//! the windowed backlog signal from the live view at every event and
//! grows/shrinks the active node set through the resizable
//! [`SchedResources`] — capacity changes mid-run, between instances.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use roadrunner_vkernel::sched::{EventQueue, ResourceView, SchedResources};
use roadrunner_vkernel::{Nanos, OutageSchedule, VirtualClock};

use crate::error::PlatformError;
use crate::metrics::{percentiles_sorted, PercentileSummary, StreamingPercentiles};
use crate::overload::{OverloadConfig, OverloadCtl, OverloadState, ShedPolicy};
use crate::scheduler::PlacementPolicy;
use crate::warmpool::{AdmissionConfig, Admitted, PoolStats, WarmPool};
use crate::workflow::{
    run_compiled_at, CompiledWorkflow, DataPlane, FaultyOutcome, RetryPolicy, TransferTiming,
    WorkflowSpec,
};

/// The inter-arrival process of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Deterministic arrivals every `interval_ns`.
    Uniform {
        /// Fixed inter-arrival gap.
        interval_ns: Nanos,
    },
    /// Poisson arrivals (exponential inter-arrival times) with the given
    /// mean, generated from a deterministic seed so runs replay
    /// identically.
    Poisson {
        /// Mean inter-arrival gap.
        mean_interval_ns: Nanos,
        /// PRNG seed.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// The first `count` arrival times (non-decreasing, starting at 0).
    pub fn times(&self, count: usize) -> Vec<Nanos> {
        match *self {
            ArrivalProcess::Uniform { interval_ns } => {
                (0..count as u64).map(|i| i * interval_ns).collect()
            }
            ArrivalProcess::Poisson { mean_interval_ns, seed } => {
                let mut state = seed;
                let mut at: Nanos = 0;
                (0..count)
                    .map(|_| {
                        let release = at;
                        // Inverse-transform sampling of Exp(1/mean) from a
                        // splitmix64 uniform draw.
                        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                        let gap = -(1.0 - u).ln() * mean_interval_ns as f64;
                        at += gap.round() as Nanos;
                        release
                    })
                    .collect()
            }
        }
    }

    /// Mean inter-arrival gap (exact for uniform, the distribution mean
    /// for Poisson).
    pub fn mean_interval_ns(&self) -> Nanos {
        match *self {
            ArrivalProcess::Uniform { interval_ns } => interval_ns,
            ArrivalProcess::Poisson { mean_interval_ns, .. } => mean_interval_ns,
        }
    }

    /// The same process re-seeded — the replication seam the sweep
    /// engine uses to run one grid cell under several arrival seeds.
    /// Uniform arrivals carry no randomness and are returned unchanged.
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            ArrivalProcess::Uniform { .. } => self,
            ArrivalProcess::Poisson { mean_interval_ns, .. } => {
                ArrivalProcess::Poisson { mean_interval_ns, seed }
            }
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`DataPlane`] wrapper that overrides placement per workflow
/// instance — how a [`PlacementPolicy`]'s decision reaches the engine.
///
/// Borrows the run-wide function-name list (interned once per run, not
/// once per instance) and the policy's assignment for this instance:
/// `function`'s position in `names` indexes `nodes`, and unlisted
/// functions fall back to the wrapped plane's own placement. Transfers
/// (and therefore costs and payload bytes) still go through the wrapped
/// plane, so the instance's phases land on the scheduler timelines of
/// the nodes the policy chose.
struct InstancePlane<'a, 'b> {
    inner: &'a mut dyn DataPlane,
    names: &'b [String],
    nodes: &'b [usize],
}

impl DataPlane for InstancePlane<'_, '_> {
    fn transfer(&mut self, from: &str, to: &str, payload: Bytes) -> Result<Bytes, PlatformError> {
        self.transfer_detailed(from, to, payload).map(|(received, _)| received)
    }

    fn transfer_detailed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        // Route through the placement-aware seam so the wrapped plane
        // derives the edge's transfer mode from the *instance's*
        // placement, not the deployment's static colocation. Planes
        // without placement-sensitive modes ignore the overrides.
        let src = self.placement(from);
        let dst = self.placement(to);
        self.inner.transfer_placed(from, to, payload, src, dst)
    }

    fn placement(&self, function: &str) -> Option<usize> {
        self.names
            .iter()
            .position(|n| n == function)
            .map(|i| self.nodes[i])
            .or_else(|| self.inner.placement(function))
    }
}

/// A node kill in a [`FailurePlan`]: the node (by **stable id**, so the
/// schedule survives index reshuffling as the cluster resizes) dies at
/// `at_ns` and the control plane notices — and removes it from the
/// schedule — `detect_ns` later. Between those instants, instances
/// placed onto the dying node fail after exhausting their retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKill {
    /// Stable node id ([`SchedResources::node_id`]).
    pub node_id: u64,
    /// Virtual instant the node dies (its outage window opens here).
    pub at_ns: Nanos,
    /// Detection delay before the dead node is removed from the
    /// resource schedule and its un-started backlog migrates.
    pub detect_ns: Nanos,
}

/// Everything the load engine needs to make a run fallible: an outage
/// schedule for link flaps and node down-windows, a list of node kills
/// (permanent outages with control-plane removal), and the retry policy
/// the workflow engine drives edges with.
///
/// An empty plan (`FailurePlan::new(..)` with nothing added) leaves the
/// engine byte-identical to a failure-free run.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    outages: OutageSchedule,
    kills: Vec<NodeKill>,
    retry: RetryPolicy,
}

impl FailurePlan {
    /// A plan with no outages yet, retrying per `retry`.
    pub fn new(retry: RetryPolicy) -> Self {
        Self { outages: OutageSchedule::new(), kills: Vec::new(), retry }
    }

    /// Adds a whole outage schedule (link flaps, transient node
    /// windows) on top of whatever the plan already holds.
    #[must_use]
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = self.outages.merged_with(outages);
        self
    }

    /// Kills the node with stable id `node_id` at `at_ns`: its outage
    /// window opens immediately (transfers touching it start failing)
    /// and the engine removes it from the schedule `detect_ns` later.
    #[must_use]
    pub fn kill_node(mut self, node_id: u64, at_ns: Nanos, detect_ns: Nanos) -> Self {
        self.outages = self.outages.node_killed(node_id, at_ns);
        self.kills.push(NodeKill { node_id, at_ns, detect_ns });
        self
    }

    /// The outage schedule (kills included as never-ending windows).
    pub fn outages(&self) -> &OutageSchedule {
        &self.outages
    }

    /// The node kills, in insertion order.
    pub fn kills(&self) -> &[NodeKill] {
        &self.kills
    }

    /// The retry policy edges run under.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.kills.is_empty()
    }
}

/// One admitted workflow instance's outcome.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// Instance index in admission order.
    pub instance: usize,
    /// The virtual user that issued the instance (equals `instance` for
    /// open-loop runs, the user slot for closed-loop runs).
    pub user: usize,
    /// Arrival time on the shared timescale.
    pub release_ns: Nanos,
    /// Cold-start delay charged before the instance's edges could start
    /// (0 when every function was already warm on its node).
    pub cold_start_ns: Nanos,
    /// Functions of this instance served warm out of the pool (always 0
    /// without pooled admission).
    pub pool_hits: u32,
    /// Functions of this instance that had to instantiate — full build
    /// or snapshot restore (always 0 without pooled admission).
    pub pool_misses: u32,
    /// When the instance's last edge finished.
    pub finish_ns: Nanos,
    /// Sojourn time: `finish_ns - release_ns` (cold start + queueing +
    /// service). For a failed instance this is time-in-system until the
    /// engine gave up.
    pub sojourn_ns: Nanos,
    /// The nodes the policy assigned, indexed by DAG node.
    pub assignment: Vec<usize>,
    /// Tenant (workload lane) index the instance belongs to; 0 for
    /// every single-tenant driver.
    pub tenant: usize,
    /// Whether the instance failed (an edge exhausted its retry budget
    /// under the run's [`FailurePlan`]). Always `false` without one.
    pub failed: bool,
    /// Whether the instance aborted on its overload-control deadline
    /// (distinct from `failed`: the work was shed as stale, not
    /// exhausted). Always `false` without a configured deadline.
    pub deadline_exceeded: bool,
    /// Failed edge attempts the instance absorbed (0 when every edge
    /// succeeded first try).
    pub retries: u32,
}

/// One autoscaler decision, for the scale-event trace the elastic
/// experiments emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// When the decision fired (virtual time).
    pub at_ns: Nanos,
    /// Direction.
    pub action: ScaleAction,
    /// Active node count after the action.
    pub nodes_after: usize,
    /// The windowed mean-backlog signal that triggered it.
    pub signal_ns: Nanos,
}

/// Direction of a scale event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// A node was added.
    Up,
    /// The last node was removed.
    Down,
    /// A node was added to replace capacity lost outside the
    /// controller's own decisions (a dead node the control plane
    /// removed). Replacement bypasses the decision cooldown — waiting a
    /// full window to restore known-lost capacity only deepens the
    /// backlog.
    Replace,
    /// A predictive pre-warm decision: the square-root staffing target
    /// rose and the warm pool was topped up ahead of demand. The node
    /// count is unchanged; `signal_ns` carries the new staffing target
    /// instead of a backlog signal.
    Prewarm,
}

/// Aggregate result of one load-generation run (open- or closed-loop).
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Per-instance outcomes in admission order.
    pub outcomes: Vec<InstanceOutcome>,
    /// First release to last finish — the horizon utilizations are
    /// normalized by. 0 for an empty run.
    pub horizon_ns: Nanos,
    /// Offered arrival rate (instances per second of virtual time,
    /// `1 / mean inter-arrival gap`) for open-loop runs; for closed-loop
    /// runs this equals the achieved rate (a closed loop offers exactly
    /// what completes). Note that achieved throughput
    /// ([`LoadRun::throughput_rps`]) can slightly exceed this under
    /// light open load with few instances: the horizon ends at the last
    /// *completion*, which then trails the last arrival by less than one
    /// inter-arrival gap.
    pub offered_rps: f64,
    /// Core-lane utilization over the horizon: Σ reserved CPU time
    /// divided by the **time-weighted** active core-lane capacity
    /// (∫ active lanes dt across the event timeline), so the figure
    /// stays comparable when an autoscaler resizes the cluster mid-run.
    /// For fixed capacity this reduces to the classic
    /// `reserved / (lanes × horizon)`.
    pub cpu_utilization: f64,
    /// Link utilization over the horizon (same time-weighted
    /// normalization).
    pub link_utilization: f64,
    /// The autoscaler's decision trace (empty without an autoscaler).
    pub scale_events: Vec<ScaleEvent>,
    /// Active node count when the run ended.
    pub final_nodes: usize,
    /// Instances that failed after exhausting their retries (0 without
    /// a [`FailurePlan`]). Conservation: `outcomes.len()` admitted ==
    /// completed + `failed` + `deadline_exceeded`.
    pub failed: usize,
    /// Arrivals the run saw, admitted or not. Conservation:
    /// `arrivals == outcomes.len() + shed`.
    pub arrivals: usize,
    /// Arrivals shed at the bounded admission queue (0 without an
    /// overload [`QueueConfig`](crate::overload::QueueConfig)).
    pub shed: usize,
    /// Instances that aborted on their overload-control deadline (0
    /// without a configured deadline).
    pub deadline_exceeded: usize,
    /// Per-tenant accounting, indexed by tenant lane; single-tenant
    /// drivers produce exactly one entry.
    pub tenants: Vec<TenantStats>,
    /// Failed edge attempts absorbed across all instances, completed
    /// ones included.
    pub retries: u64,
    /// Warm-pool accounting (hits, misses, restores, evictions,
    /// prewarms, idle residency); `None` without pooled admission.
    pub pool: Option<PoolStats>,
}

/// Instance-count threshold above which [`LoadRun::sojourn_percentiles`]
/// switches from the exact nearest-rank digest (sorts a full copy) to
/// the constant-space streaming P² digest.
pub const STREAMING_DIGEST_MIN: usize = 4_096;

impl LoadRun {
    /// Completed instances per second of virtual time over the horizon.
    ///
    /// Empty-run contract: an empty run reports `0.0` (nothing
    /// completed), and a non-empty run whose horizon is zero (every
    /// instance completed at its release instant) reports
    /// `f64::INFINITY` — so `0.0` always means "no throughput", never
    /// "instant throughput".
    pub fn throughput_rps(&self) -> f64 {
        if self.completed() == 0 {
            return 0.0;
        }
        if self.horizon_ns == 0 {
            return f64::INFINITY;
        }
        self.completed() as f64 * 1e9 / self.horizon_ns as f64
    }

    /// Instances that completed (admitted minus failed-after-retries
    /// minus deadline-exceeded aborts).
    pub fn completed(&self) -> usize {
        self.outcomes.len() - self.failed - self.deadline_exceeded
    }

    /// Instances that completed only after absorbing at least one
    /// retry.
    pub fn retried(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.failed && !o.deadline_exceeded && o.retries > 0)
            .count()
    }

    /// Sojourn-time percentile digest; `None` for an empty run. Uses the
    /// exact nearest-rank path below [`STREAMING_DIGEST_MIN`] instances
    /// and the streaming P² estimator at or above it (large runs would
    /// otherwise sort a full copy). Each call recomputes the digest, so
    /// callers querying one run repeatedly bind the result once.
    pub fn sojourn_percentiles(&self) -> Option<PercentileSummary> {
        // Failed and deadline-exceeded instances never delivered: their
        // time-in-system is not a sojourn, so the digest covers
        // completed instances only (everything, in a run without
        // failures).
        let sojourns = self
            .outcomes
            .iter()
            .filter(|o| !o.failed && !o.deadline_exceeded)
            .map(|o| o.sojourn_ns);
        if self.completed() >= STREAMING_DIGEST_MIN {
            let mut digest = StreamingPercentiles::new();
            for sojourn in sojourns {
                digest.record(sojourn);
            }
            digest.summary()
        } else {
            let mut sorted: Vec<Nanos> = sojourns.collect();
            sorted.sort_unstable();
            percentiles_sorted(&sorted)
        }
    }

    /// The slowest instance's sojourn; `None` for an empty run (so an
    /// empty run is distinguishable from one whose slowest sojourn was
    /// genuinely zero).
    pub fn max_sojourn_ns(&self) -> Option<Nanos> {
        self.outcomes.iter().map(|o| o.sojourn_ns).max()
    }

    /// Total cold-start time charged across all instances.
    pub fn cold_start_total_ns(&self) -> Nanos {
        self.outcomes.iter().map(|o| o.cold_start_ns).sum()
    }

    /// Number of instances that paid a nonzero cold start.
    pub fn cold_starts(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cold_start_ns > 0).count()
    }
}

/// Per-tenant accounting of one load run: arrival/outcome conservation
/// counters plus a streaming sojourn digest of the tenant's completed
/// instances. Per-tenant digests merge into run-level rollups with
/// [`StreamingPercentiles::merge`].
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name (from [`TenantLoad::name`]; the spec's tenant for
    /// single-tenant drivers).
    pub name: String,
    /// Arrivals the tenant offered, admitted or not. Conservation:
    /// `arrivals == completed + failed + deadline_exceeded + shed`.
    pub arrivals: usize,
    /// Instances that completed.
    pub completed: usize,
    /// Instances that failed after exhausting retries.
    pub failed: usize,
    /// Instances that aborted on their deadline.
    pub deadline_exceeded: usize,
    /// Arrivals shed at the admission queue.
    pub shed: usize,
    /// Streaming sojourn digest over the tenant's completed instances
    /// (queue wait included).
    pub digest: StreamingPercentiles,
}

impl TenantStats {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            arrivals: 0,
            completed: 0,
            failed: 0,
            deadline_exceeded: 0,
            shed: 0,
            digest: StreamingPercentiles::new(),
        }
    }

    /// Sojourn-percentile digest of the tenant's completed instances;
    /// `None` when nothing completed.
    pub fn sojourn_percentiles(&self) -> Option<PercentileSummary> {
        self.digest.summary()
    }
}

/// One tenant's workload in a [`MultiLoad`] run: a workflow spec, its
/// payload, an explicit release trace, and a fair-share weight for the
/// weighted-round-robin admission queue.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Tenant name, carried into [`TenantStats::name`].
    pub name: String,
    /// The workflow every instance of this tenant runs.
    pub spec: WorkflowSpec,
    /// Payload injected into every instance's roots.
    pub payload: Bytes,
    /// Explicit arrival instants (non-decreasing). An explicit trace —
    /// rather than an [`ArrivalProcess`] — lets a tenant model
    /// multi-phase shapes (pre-burst / burst / recovery) directly.
    pub releases: Vec<Nanos>,
    /// Fair-share weight at the admission queue (≥ 1; a weight-4 tenant
    /// dequeues 4× as often as a weight-1 tenant when both are backed
    /// up).
    pub weight: u64,
}

impl TenantLoad {
    /// A tenant generating `instances` arrivals from `arrivals`.
    pub fn from_process(
        name: impl Into<String>,
        spec: WorkflowSpec,
        payload: Bytes,
        arrivals: &ArrivalProcess,
        instances: usize,
    ) -> Self {
        Self {
            name: name.into(),
            spec,
            payload,
            releases: arrivals.times(instances),
            weight: 1,
        }
    }
}

/// A multi-tenant open-loop workload: every tenant's release trace is
/// interleaved onto the **shared** timelines (stable-ordered by time,
/// ties by tenant index), each instance runs its own tenant's spec and
/// payload, and per-tenant warmth never aliases — each tenant gets its
/// own admission lane, so one tenant's warm instances are invisible to
/// another's (the paper's per-tenant trust boundary).
///
/// Combined with an overload [`QueueConfig`](crate::overload::QueueConfig),
/// the weighted admission queue is the fairness lever the ROADMAP's
/// multi-tenant item calls for: an adversarial tenant's backlog queues
/// behind its own weight instead of starving everyone.
#[derive(Debug, Clone)]
pub struct MultiLoad {
    /// The tenants, in lane order.
    pub tenants: Vec<TenantLoad>,
    /// Cold-start admission model, applied per tenant lane.
    pub admission: AdmissionConfig,
}

impl MultiLoad {
    /// Drives all tenants onto `resources` without overload control
    /// (every knob off).
    ///
    /// # Errors
    ///
    /// Propagates the first validation or transfer error.
    pub fn run(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
    ) -> Result<LoadRun, PlatformError> {
        self.run_overloaded(plane, clock, resources, policy, None, None, &OverloadConfig::default())
    }

    /// [`run`](Self::run) with the full stack in the loop (see
    /// [`OpenLoop::run_overloaded`]): optional autoscaler, optional
    /// failure plan, and the overload-control configuration (deadlines,
    /// retry budgets, breakers, bounded queues with weighted-fair
    /// shedding).
    ///
    /// # Errors
    ///
    /// Propagates the first validation or non-fault transfer error.
    #[allow(clippy::too_many_arguments)]
    pub fn run_overloaded(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
        autoscaler: Option<&mut Autoscaler>,
        failures: Option<&FailurePlan>,
        overload: &OverloadConfig,
    ) -> Result<LoadRun, PlatformError> {
        let mut releases: Vec<(Nanos, usize, usize)> = Vec::new();
        for (tenant, load) in self.tenants.iter().enumerate() {
            for (user, &at) in load.releases.iter().enumerate() {
                releases.push((at, tenant, user));
            }
        }
        // Stable by time: equal instants keep tenant order, so the
        // interleaving is deterministic.
        releases.sort_by_key(|&(at, _, _)| at);
        let work: Vec<TenantWork<'_>> = self
            .tenants
            .iter()
            .map(|t| TenantWork {
                name: &t.name,
                spec: &t.spec,
                payload: &t.payload,
                weight: t.weight.max(1),
            })
            .collect();
        Engine::new(plane, clock, resources, policy, autoscaler, failures, overload).drive(
            &work,
            Admission::Multi { releases },
            &self.admission,
        )
    }
}

/// An open-loop workload: `instances` copies of `spec` carrying
/// `payload`, admitted per `arrivals`.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// The workflow every instance runs.
    pub spec: WorkflowSpec,
    /// Payload injected into every instance's roots.
    pub payload: Bytes,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of instances to admit.
    pub instances: usize,
    /// How instances are admitted: all-warm, the legacy fig. 2a
    /// warm-set model, or a warm pool with keep-alive eviction (see
    /// [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
}

impl OpenLoop {
    /// Admits the workload onto `resources`, placing each instance with
    /// `policy` and driving every edge through `plane`, with every
    /// optional layer (autoscaler, failures, overload control) off.
    ///
    /// `resources` is *not* reset: callers own the timescale and may
    /// pre-load it (e.g. with background traffic). Utilizations are
    /// computed from the reservations this run added, over its own
    /// horizon.
    ///
    /// # Errors
    ///
    /// Propagates the first validation or transfer error.
    pub fn run(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
    ) -> Result<LoadRun, PlatformError> {
        self.run_overloaded(plane, clock, resources, policy, None, None, &OverloadConfig::default())
    }

    /// [`run`](Self::run) with the full stack in the loop:
    ///
    /// * an [`Autoscaler`] grows and shrinks capacity between instances
    ///   as it reacts to the live backlog signal;
    /// * a [`FailurePlan`] makes the run fallible — outages reject
    ///   reservations, edges retry with backoff, dead nodes are removed
    ///   (and, with an autoscaler, replaced);
    /// * an [`OverloadConfig`] adds deadlines, retry budgets, circuit
    ///   breakers and bounded-queue shedding.
    ///
    /// `None`, an empty plan and the default (all-off) config each leave
    /// the run byte-identical to [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Propagates the first validation or non-fault transfer error;
    /// outage-induced failures become failed outcomes, not errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run_overloaded(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
        autoscaler: Option<&mut Autoscaler>,
        failures: Option<&FailurePlan>,
        overload: &OverloadConfig,
    ) -> Result<LoadRun, PlatformError> {
        let work = [TenantWork {
            name: &self.spec.tenant,
            spec: &self.spec,
            payload: &self.payload,
            weight: 1,
        }];
        Engine::new(plane, clock, resources, policy, autoscaler, failures, overload).drive(
            &work,
            Admission::Open {
                releases: self.arrivals.times(self.instances),
                mean_interval_ns: self.arrivals.mean_interval_ns(),
            },
            &self.admission,
        )
    }
}

/// A closed-loop workload: `users` virtual users each keep one instance
/// of `spec` in flight, thinking for `think_ns` between a completion and
/// their next request, until `instances` total have completed.
///
/// Concurrency is bounded by construction — at most `users` instances
/// ever overlap — and each user's arrivals are gated on its own
/// completions, so throughput saturates at what the cluster actually
/// sustains (the directly measured saturation throughput the elastic
/// experiments report).
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// The workflow every instance runs.
    pub spec: WorkflowSpec,
    /// Payload injected into every instance's roots.
    pub payload: Bytes,
    /// Number of concurrent virtual users.
    pub users: usize,
    /// Think time between a user's completion and its next arrival.
    pub think_ns: Nanos,
    /// Ramp-up stagger: user `u`'s first arrival fires at `u × ramp_ns`
    /// (0 starts every user at once). Ramping is how closed-loop
    /// harnesses avoid measuring the artificial thundering herd of a
    /// simultaneous start instead of steady-state queueing.
    pub ramp_ns: Nanos,
    /// Total instances to admit across all users.
    pub instances: usize,
    /// How instances are admitted: all-warm, the legacy fig. 2a
    /// warm-set model, or a warm pool with keep-alive eviction (see
    /// [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
}

impl ClosedLoop {
    /// Drives the closed loop onto `resources` with every optional
    /// layer off (see [`OpenLoop::run`] for the sharing semantics).
    ///
    /// # Errors
    ///
    /// Propagates the first validation or transfer error.
    pub fn run(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
    ) -> Result<LoadRun, PlatformError> {
        self.run_overloaded(plane, clock, resources, policy, None, None, &OverloadConfig::default())
    }

    /// [`run`](Self::run) with the full stack in the loop (see
    /// [`OpenLoop::run_overloaded`]). Failed instances still re-arm
    /// their virtual user — a closed-loop client retries elsewhere
    /// after an error page, it does not stop existing.
    ///
    /// # Errors
    ///
    /// Propagates the first validation or non-fault transfer error.
    #[allow(clippy::too_many_arguments)]
    pub fn run_overloaded(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
        autoscaler: Option<&mut Autoscaler>,
        failures: Option<&FailurePlan>,
        overload: &OverloadConfig,
    ) -> Result<LoadRun, PlatformError> {
        assert!(self.users > 0, "a closed loop needs at least one user");
        let work = [TenantWork {
            name: &self.spec.tenant,
            spec: &self.spec,
            payload: &self.payload,
            weight: 1,
        }];
        Engine::new(plane, clock, resources, policy, autoscaler, failures, overload).drive(
            &work,
            Admission::Closed {
                users: self.users,
                think_ns: self.think_ns,
                ramp_ns: self.ramp_ns,
                instances: self.instances,
            },
            &self.admission,
        )
    }
}

/// One tenant's share of an [`Engine::drive`] call: the spec/payload to run and
/// the fair-share weight. Single-tenant drivers pass exactly one.
struct TenantWork<'a> {
    name: &'a str,
    spec: &'a WorkflowSpec,
    payload: &'a Bytes,
    weight: u64,
}

/// How the engine admits instances.
enum Admission {
    /// Pre-scheduled arrival times (instance k = user k, tenant 0).
    Open { releases: Vec<Nanos>, mean_interval_ns: Nanos },
    /// `users` slots seeded `ramp_ns` apart, each re-arming `think_ns`
    /// after its completion, until `instances` total have been admitted.
    Closed { users: usize, think_ns: Nanos, ramp_ns: Nanos, instances: usize },
    /// Pre-merged multi-tenant release trace: `(at, tenant, user)`,
    /// non-decreasing in time.
    Multi { releases: Vec<(Nanos, usize, usize)> },
}

/// Engine events: an instance arriving for admission, one completing
/// (or failing — failed instances re-arm their closed-loop user too),
/// or the control plane removing a node it detected dead.
enum LoadEvent {
    Arrival { tenant: usize, user: usize },
    Completion { user: usize, instance: usize },
    NodeKill { node_id: u64 },
}

/// The engine's per-run admission state, resolved once from an
/// [`AdmissionConfig`] — the single home of the cold-start wiring that
/// [`OpenLoop`] and [`ClosedLoop`] used to duplicate.
enum AdmissionState {
    /// No cold starts: every instance admits at its arrival instant.
    AllWarm,
    /// The legacy fig. 2a model: the first (function, node) landing
    /// pays the full cost and the pair stays warm for the whole run.
    WarmSet { cold_ns: Nanos, warm: std::collections::HashSet<(usize, usize)> },
    /// Warm-pool admission with keep-alive eviction (and, with a
    /// prewarm-configured [`Autoscaler`], predictive pre-warming).
    Pool(Box<WarmPool>),
}

impl AdmissionState {
    fn new(cfg: &AdmissionConfig, functions: usize) -> Self {
        match (cfg.cold_start_ns, &cfg.pool) {
            (None, _) => Self::AllWarm,
            (Some(cold_ns), None) => {
                Self::WarmSet { cold_ns, warm: std::collections::HashSet::new() }
            }
            (Some(cold_ns), Some(pool)) => {
                Self::Pool(Box::new(WarmPool::new(cold_ns, pool.clone(), functions)))
            }
        }
    }

    /// Admits one instance at `now`: charges whatever instantiation the
    /// policy requires on the nodes' CPU timelines and returns the
    /// (possibly delayed) release instant plus pool accounting.
    fn admit(
        &mut self,
        now: Nanos,
        assignment: &[usize],
        resources: &mut SchedResources,
    ) -> Admitted {
        match self {
            Self::AllWarm => Admitted { release_ns: now, hits: 0, misses: 0 },
            Self::WarmSet { cold_ns, warm } => {
                let mut release = now;
                let cold = *cold_ns;
                for (fi, &node) in assignment.iter().enumerate() {
                    if warm.insert((fi, node)) {
                        let start = resources.cpu(node).reserve(now, cold);
                        release = release.max(start + cold);
                    }
                }
                Admitted { release_ns: release, hits: 0, misses: 0 }
            }
            Self::Pool(pool) => pool.admit(now, assignment, resources),
        }
    }

    /// A completed instance hands its warm functions back (pool only —
    /// the warm set never gives anything back by construction).
    fn complete(&mut self, finish: Nanos, assignment: &[usize]) {
        if let Self::Pool(pool) = self {
            pool.complete(finish, assignment);
        }
    }

    /// Scale-in to `nodes` survivors: warmth on dropped indices dies
    /// with them (a re-added index is a brand-new machine).
    fn shrink_to(&mut self, nodes: usize, now: Nanos) {
        match self {
            Self::AllWarm => {}
            Self::WarmSet { warm, .. } => warm.retain(|&(_, node)| node < nodes),
            Self::Pool(pool) => pool.shrink_to(nodes, now),
        }
    }

    /// A kill removed `victim` mid-run: its warmth dies, survivors
    /// above it shift down one index.
    fn remove_node(&mut self, victim: usize, now: Nanos) {
        match self {
            Self::AllWarm => {}
            Self::WarmSet { warm, .. } => {
                *warm = warm
                    .iter()
                    .filter_map(|&(fi, n)| match n.cmp(&victim) {
                        std::cmp::Ordering::Less => Some((fi, n)),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some((fi, n - 1)),
                    })
                    .collect();
            }
            Self::Pool(pool) => pool.remove_node(victim, now),
        }
    }

    /// Settles keep-alive fates at the run horizon and surrenders the
    /// pool's accounting (None off the pool path).
    fn finalize(self, end: Nanos) -> Option<PoolStats> {
        match self {
            Self::Pool(pool) => Some(pool.finalize(end)),
            _ => None,
        }
    }
}

/// One tenant's per-run lane: the compiled spec, interned names, its
/// own admission state (per-tenant warmth never aliases — the paper's
/// per-tenant trust boundary), and its slice of the bounded admission
/// queue.
struct Lane<'a> {
    spec: &'a WorkflowSpec,
    payload: &'a Bytes,
    compiled: CompiledWorkflow<'a>,
    fn_names: Vec<String>,
    weight: u64,
    admission_state: AdmissionState,
    /// Queued-but-not-admitted arrivals: `(user, arrival_ns)` in FIFO
    /// order (only populated under an overload queue config).
    queued: VecDeque<(usize, Nanos)>,
}

/// The completion-event engine behind [`OpenLoop`], [`ClosedLoop`] and
/// [`MultiLoad`]: the run-wide stack every driver hands in, plus the
/// per-run state the event loop and [`start_instance`](Self::start_instance)
/// share.
struct Engine<'r> {
    plane: &'r mut dyn DataPlane,
    clock: &'r VirtualClock,
    resources: &'r mut SchedResources,
    policy: &'r mut dyn PlacementPolicy,
    autoscaler: Option<&'r mut Autoscaler>,
    failures: Option<&'r FailurePlan>,
    overload: &'r OverloadConfig,
    /// One lane per tenant, index-aligned with `tenant_stats`.
    lanes: Vec<Lane<'r>>,
    tenant_stats: Vec<TenantStats>,
    /// Budget buckets and breaker circuits for the whole run.
    overload_state: OverloadState,
    /// Scratch snapshot refreshed in place at every observation point:
    /// the per-event view is allocation-free in steady state.
    view: ResourceView,
    queue: EventQueue<LoadEvent>,
    outcomes: Vec<InstanceOutcome>,
    failed: usize,
    deadline_exceeded: usize,
    retries: u64,
    in_flight: usize,
}

impl<'r> Engine<'r> {
    fn new(
        plane: &'r mut dyn DataPlane,
        clock: &'r VirtualClock,
        resources: &'r mut SchedResources,
        policy: &'r mut dyn PlacementPolicy,
        autoscaler: Option<&'r mut Autoscaler>,
        failures: Option<&'r FailurePlan>,
        overload: &'r OverloadConfig,
    ) -> Self {
        Self {
            plane,
            clock,
            resources,
            policy,
            autoscaler,
            failures,
            overload,
            lanes: Vec::new(),
            tenant_stats: Vec::new(),
            overload_state: OverloadState::new(overload),
            view: ResourceView::default(),
            queue: EventQueue::new(),
            outcomes: Vec::new(),
            failed: 0,
            deadline_exceeded: 0,
            retries: 0,
            in_flight: 0,
        }
    }

    /// Admits and executes one instance of `tenant` at `start_ns` (its
    /// arrival was at `arrival_ns`; they differ only for instances that
    /// waited in the bounded queue). The one definition of the
    /// place → admit → execute → account sequence, shared by the direct
    /// arrival path and the queue-drain path — its mutation order against
    /// `resources`/`policy`/`plane` is exactly the pre-overload engine's,
    /// which is what keeps the all-knobs-off run byte-identical.
    fn start_instance(
        &mut self,
        tenant: usize,
        user: usize,
        arrival_ns: Nanos,
        start_ns: Nanos,
        view_is_fresh: bool,
    ) -> Result<(), PlatformError> {
        if !view_is_fresh {
            self.resources.view_into(start_ns, &mut self.view);
        }
        // Open circuits push their nodes' apparent backlog up before the
        // policy looks — placement steers away without any policy change.
        self.overload_state.penalize_view(start_ns, &mut self.view);
        let lane = &mut self.lanes[tenant];
        let assignment = self.policy.place(lane.spec, &self.view);
        // Charge instantiation: warm-set misses reserve the fig2a-style
        // full cost on the node's CPU; pool misses pay their tier (full
        // build or snapshot restore) while hits admit warm. Either way a
        // charged instance's release is delayed past the work.
        let admitted = lane.admission_state.admit(start_ns, &assignment, self.resources);
        let release = admitted.release_ns;
        let mut placed =
            InstancePlane { inner: &mut *self.plane, names: &lane.fn_names, nodes: &assignment };
        // The overload control block rides along only when a knob is on:
        // the all-off engine path must not even construct it.
        let ctl = if self.overload.is_off() {
            None
        } else {
            Some(OverloadCtl {
                tenant,
                deadline_ns: self.overload.deadline_ns.map(|d| arrival_ns.saturating_add(d)),
                state: &mut self.overload_state,
            })
        };
        let outcome = run_compiled_at(
            &mut placed,
            self.clock,
            &lane.compiled,
            lane.payload.clone(),
            self.resources,
            release,
            self.failures.map(FailurePlan::retry),
            ctl,
        )?;
        let stats = &mut self.tenant_stats[tenant];
        let instance = self.outcomes.len();
        let (finish, failed, deadline_exceeded, retries) = match outcome {
            FaultyOutcome::Completed { run, retries } => {
                (release + run.total_latency_ns, false, false, retries)
            }
            // Failed instances still produce a completion event: the
            // closed-loop user saw an error and re-arms.
            FaultyOutcome::Failed { failure, retries } => {
                self.failed += 1;
                stats.failed += 1;
                (failure.failed_at_ns.max(release), true, false, retries)
            }
            // Deadline aborts are shed-as-stale, not failures; they too
            // produce a completion event (the user saw a timeout).
            FaultyOutcome::DeadlineExceeded { at_ns, retries } => {
                self.deadline_exceeded += 1;
                stats.deadline_exceeded += 1;
                (at_ns.max(release), false, true, retries)
            }
        };
        self.retries += u64::from(retries);
        if !failed && !deadline_exceeded {
            stats.completed += 1;
            stats.digest.record(finish - arrival_ns);
        }
        self.outcomes.push(InstanceOutcome {
            instance,
            user,
            release_ns: arrival_ns,
            cold_start_ns: release - start_ns,
            pool_hits: admitted.hits,
            pool_misses: admitted.misses,
            finish_ns: finish,
            sojourn_ns: finish - arrival_ns,
            assignment,
            tenant,
            failed,
            deadline_exceeded,
            retries,
        });
        self.in_flight += 1;
        self.queue.push(finish, LoadEvent::Completion { user, instance });
        Ok(())
    }

    /// Runs `tenants` to completion under `admission`.
    ///
    /// Events drain in deterministic time order (FIFO among equals). Each
    /// arrival snapshots the live view, places, charges cold starts, and
    /// executes the instance at its release; each completion re-arms its
    /// closed-loop user and drains the bounded admission queue (when one
    /// is configured) in smooth weighted-round-robin tenant order. The
    /// autoscaler (when present) observes at *every* event, so it sees
    /// both pressure building (arrivals) and draining (completions).
    #[allow(clippy::too_many_lines)]
    fn drive(
        mut self,
        tenants: &[TenantWork<'r>],
        admission: Admission,
        admission_cfg: &AdmissionConfig,
    ) -> Result<LoadRun, PlatformError> {
        let (cpu0, _) = self.resources.cpu_reserved();
        let (link0, _) = self.resources.link_reserved();

        // Arm the failure plan: attach the outage schedule (timelines
        // start rejecting reservations inside down windows); its retry
        // policy drives the fault-aware edges. Without a plan every
        // `try_reserve_*` stays on the plain-reservation path.
        if let Some(plan) = self.failures {
            self.resources.set_outages(Arc::new(plan.outages().clone()));
        }

        // Per-run precomputation, per tenant lane: validate/topo-sort each
        // spec once for every instance (the compiled form), and intern the
        // function-name list the placement override needs — neither is
        // per-arrival work. Each lane owns its admission state, so one
        // tenant's warmth is invisible to another's.
        for t in tenants {
            let compiled = CompiledWorkflow::compile(t.spec)?;
            let fn_names: Vec<String> = t.spec.functions().iter().map(|&f| f.to_owned()).collect();
            let admission_state = AdmissionState::new(admission_cfg, fn_names.len());
            self.lanes.push(Lane {
                spec: t.spec,
                payload: t.payload,
                compiled,
                fn_names,
                weight: t.weight.max(1),
                admission_state,
                queued: VecDeque::new(),
            });
            self.tenant_stats.push(TenantStats::new(t.name));
        }
        // Smooth weighted-round-robin credit per tenant lane (the
        // queue-drain fairness state).
        let mut wrr_credit: Vec<i128> = vec![0; self.lanes.len()];

        // Kill-removal events go in before any arrival, so at equal times
        // the control plane acts first (FIFO among equals).
        if let Some(plan) = self.failures {
            for kill in plan.kills() {
                self.queue.push(
                    kill.at_ns.saturating_add(kill.detect_ns),
                    LoadEvent::NodeKill { node_id: kill.node_id },
                );
            }
        }
        // Closed-loop admission bookkeeping: how many instances have been
        // admitted so far, against the total bound.
        let (mut admitted, instance_bound, think_ns) = match &admission {
            Admission::Open { releases, .. } => {
                for (user, &at) in releases.iter().enumerate() {
                    self.queue.push(at, LoadEvent::Arrival { tenant: 0, user });
                }
                (releases.len(), releases.len(), 0)
            }
            Admission::Closed { users, think_ns, ramp_ns, instances } => {
                let seed = (*users).min(*instances);
                for user in 0..seed {
                    self.queue.push(user as Nanos * ramp_ns, LoadEvent::Arrival { tenant: 0, user });
                }
                (seed, *instances, *think_ns)
            }
            Admission::Multi { releases } => {
                for &(at, tenant, user) in releases {
                    self.queue.push(at, LoadEvent::Arrival { tenant, user });
                }
                (releases.len(), releases.len(), 0)
            }
        };
        let mut arrivals_total: usize = 0;
        let mut shed_total: usize = 0;
        // Queued arrivals across all lanes (kept incrementally so the
        // overflow check is O(1)).
        let mut queued_total: usize = 0;
        // Link-health epoch last pushed into the plane (see the memo): only
        // transitions move it, so a failure-free run never calls the hook.
        let mut last_epoch: u64 = 0;
        let mut known_nodes = self.resources.node_count();
        // Time-weighted active-lane capacity (∫ lanes dt over the event
        // timeline) — the utilization denominators under elastic capacity.
        // Lane counts only change at scale events, so they are cached and
        // refreshed when the node count moves.
        let mut prev_event_ns: Option<Nanos> = None;
        let mut cpu_lane_ns: u128 = 0;
        let mut link_lane_ns: u128 = 0;
        let mut cpu_lanes = self.resources.cpu_lanes();
        let mut link_lanes = self.resources.link_lanes();

        while let Some((now, event)) = self.queue.pop() {
            // Integrate the lane capacity that was active since the last
            // event, before the autoscaler gets a chance to change it.
            if let Some(prev) = prev_event_ns {
                let dt = u128::from(now - prev);
                cpu_lane_ns += dt * cpu_lanes as u128;
                link_lane_ns += dt * link_lanes as u128;
            }
            prev_event_ns = Some(now);
            if let Some(plan) = self.failures {
                let epoch = plan.outages().transitions_until(now);
                if epoch != last_epoch {
                    self.plane.set_health_epoch(epoch);
                    last_epoch = epoch;
                }
            }
            let observed = match self.autoscaler.as_deref_mut() {
                Some(scaler) => {
                    scaler.observe_into(now, self.resources, &mut self.view);
                    true
                }
                None => false,
            };
            let nodes_now = self.resources.node_count();
            if nodes_now != known_nodes {
                // Scale-in drops node timelines: anything warmed on a
                // removed node must re-pay its cold start if the index is
                // later re-added (a re-added index is a brand-new machine).
                if nodes_now < known_nodes {
                    for lane in &mut self.lanes {
                        lane.admission_state.shrink_to(nodes_now, now);
                    }
                }
                cpu_lanes = self.resources.cpu_lanes();
                link_lanes = self.resources.link_lanes();
                known_nodes = nodes_now;
            }
            // Predictive pre-warming: with both a prewarm-configured
            // controller and pooled admission present, re-staff the pools
            // toward the square-root staffing target at every event (not
            // just on cooldown-gated decisions — evictions between
            // decisions would otherwise leave the pool empty).
            if let Some(scaler) = self.autoscaler.as_deref_mut() {
                if self.lanes.iter().any(|l| matches!(l.admission_state, AdmissionState::Pool(_))) {
                    if let Some(target) =
                        scaler.prewarm_target(now, self.in_flight, self.resources.node_count())
                    {
                        for lane in &mut self.lanes {
                            if let AdmissionState::Pool(pool) = &mut lane.admission_state {
                                pool.ensure_target(now, target, self.in_flight, self.resources);
                            }
                        }
                    }
                }
            }
            match event {
                LoadEvent::Arrival { tenant, user } => {
                    arrivals_total += 1;
                    self.tenant_stats[tenant].arrivals += 1;
                    match self.overload.queue {
                        // No admission slot: queue the arrival, or shed
                        // per policy when the shared queue is full.
                        Some(qcfg) if self.in_flight >= qcfg.max_in_flight => {
                            if queued_total >= qcfg.queue_cap {
                                let shed_tenant = match qcfg.policy {
                                    // Tail drop (CoDel also tail-drops on
                                    // overflow; its sojourn check runs at
                                    // dequeue).
                                    ShedPolicy::RejectNewest | ShedPolicy::CoDel { .. } => tenant,
                                    // Shed the globally oldest queued entry
                                    // (most likely already stale) and queue
                                    // the newcomer in its place.
                                    ShedPolicy::RejectOldest => {
                                        let oldest = self
                                            .lanes
                                            .iter()
                                            .enumerate()
                                            .filter_map(|(i, l)| {
                                                l.queued.front().map(|&(_, at)| (at, i))
                                            })
                                            .min()
                                            .map(|(_, i)| i);
                                        match oldest {
                                            Some(victim) => {
                                                self.lanes[victim].queued.pop_front();
                                                self.lanes[tenant].queued.push_back((user, now));
                                                victim
                                            }
                                            // Zero-capacity queue: nothing
                                            // to displace, drop the arrival.
                                            None => tenant,
                                        }
                                    }
                                };
                                shed_total += 1;
                                self.tenant_stats[shed_tenant].shed += 1;
                            } else {
                                self.lanes[tenant].queued.push_back((user, now));
                                queued_total += 1;
                            }
                        }
                        _ => self.start_instance(tenant, user, now, now, observed)?,
                    }
                }
                LoadEvent::Completion { user, instance } => {
                    self.in_flight = self.in_flight.saturating_sub(1);
                    let outcome = &self.outcomes[instance];
                    let tenant = outcome.tenant;
                    // A completed instance hands its functions back to the
                    // pool; a failed or deadline-blown one is torn down
                    // where it died, so it returns nothing.
                    if !outcome.failed && !outcome.deadline_exceeded {
                        self.lanes[tenant].admission_state.complete(now, &outcome.assignment);
                    }
                    // Closed loop: the freed user thinks, then re-arrives —
                    // the arrival is gated on this completion by
                    // construction.
                    if matches!(admission, Admission::Closed { .. }) && admitted < instance_bound {
                        admitted += 1;
                        self.queue.push(now + think_ns, LoadEvent::Arrival { tenant, user });
                    }
                    // Drain the bounded queue into the freed capacity in
                    // smooth weighted-round-robin tenant order: each round,
                    // every backed-up tenant earns its weight in credit, the
                    // richest (ties → lowest index) dequeues and pays the
                    // total active weight back.
                    if let Some(qcfg) = self.overload.queue {
                        while self.in_flight < qcfg.max_in_flight && queued_total > 0 {
                            let mut total_weight: i128 = 0;
                            let mut pick: Option<usize> = None;
                            for (i, lane) in self.lanes.iter().enumerate() {
                                if lane.queued.is_empty() {
                                    continue;
                                }
                                wrr_credit[i] += i128::from(lane.weight);
                                total_weight += i128::from(lane.weight);
                                match pick {
                                    Some(p) if wrr_credit[p] >= wrr_credit[i] => {}
                                    _ => pick = Some(i),
                                }
                            }
                            let Some(pick) = pick else { break };
                            wrr_credit[pick] -= total_weight;
                            let (quser, qarrival) = self.lanes[pick]
                                .queued
                                .pop_front()
                                .expect("picked lanes have queued arrivals");
                            queued_total -= 1;
                            // CoDel-style staleness check at dequeue: an
                            // arrival that already overstayed the sojourn
                            // target is dead on arrival — shed it instead
                            // of burning capacity on it.
                            if let ShedPolicy::CoDel { target_ns } = qcfg.policy {
                                if now.saturating_sub(qarrival) > target_ns {
                                    shed_total += 1;
                                    self.tenant_stats[pick].shed += 1;
                                    continue;
                                }
                            }
                            self.start_instance(pick, quser, qarrival, now, false)?;
                        }
                    }
                }
                LoadEvent::NodeKill { node_id } => {
                    // The control plane removes the dead node: un-started
                    // backlog migrates to survivors, the mesh shrinks, and
                    // everything warmed on the victim dies with it
                    // (survivors above the victim shift down one index).
                    // A one-node cluster keeps its dead node in the
                    // schedule — there is nowhere to migrate to, and the
                    // outage window already fails every placement.
                    if let Some(victim) = self.resources.node_index_of(node_id) {
                        if self.resources.node_count() > 1 {
                            self.resources.remove_node(victim, now);
                            for lane in &mut self.lanes {
                                lane.admission_state.remove_node(victim, now);
                            }
                            cpu_lanes = self.resources.cpu_lanes();
                            link_lanes = self.resources.link_lanes();
                            known_nodes = self.resources.node_count();
                        }
                    }
                }
            }
        }

        // Arrivals still queued when the event stream dried up never ran:
        // they count as shed, keeping `arrivals == outcomes + shed` exact.
        for (i, lane) in self.lanes.iter().enumerate() {
            let leftover = lane.queued.len();
            if leftover > 0 {
                shed_total += leftover;
                self.tenant_stats[i].shed += leftover;
            }
        }

        let first = self.outcomes.first().map(|o| o.release_ns).unwrap_or(0);
        let last = self.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(first);
        let horizon_ns = last - first;
        // Keep-alive fates settle at the run horizon: still-warm instances
        // whose TTL would expire by then count as evictions, the rest stay
        // warm at end (so the idle-residency integral is complete). Lane
        // pools merge by summation into the run-level accounting.
        let mut pool: Option<PoolStats> = None;
        for lane in self.lanes {
            if let Some(stats) = lane.admission_state.finalize(last) {
                pool = Some(match pool {
                    None => stats,
                    Some(acc) => PoolStats {
                        hits: acc.hits + stats.hits,
                        misses: acc.misses + stats.misses,
                        restores: acc.restores + stats.restores,
                        returns: acc.returns + stats.returns,
                        evictions: acc.evictions + stats.evictions,
                        prewarms: acc.prewarms + stats.prewarms,
                        prewarm_ns: acc.prewarm_ns + stats.prewarm_ns,
                        idle_ns: acc.idle_ns + stats.idle_ns,
                        warm_at_end: acc.warm_at_end + stats.warm_at_end,
                    },
                });
            }
        }
        let (cpu1, _) = self.resources.cpu_reserved();
        let (link1, _) = self.resources.link_reserved();
        let util = |used: Nanos, lane_ns: u128| {
            if lane_ns == 0 {
                0.0
            } else {
                used as f64 / lane_ns as f64
            }
        };
        // Offered load is a property of the admission process, so the engine
        // computes it (the drivers used to fill it in post hoc, which left a
        // 0.0 sentinel on any path that forgot). An empty run offers nothing
        // — 0.0, never NaN.
        let offered_rps = match &admission {
            Admission::Open { releases, mean_interval_ns } => {
                if releases.is_empty() {
                    0.0
                } else {
                    1e9 / (*mean_interval_ns).max(1) as f64
                }
            }
            Admission::Closed { .. } => 0.0, // filled from the measured rate below
            // Multi offers the merged trace's mean rate: n−1 gaps over the
            // release span. Degenerate traces (< 2 releases, or all at one
            // instant) offer 0.0 — never NaN.
            Admission::Multi { releases } => {
                if releases.len() < 2 {
                    0.0
                } else {
                    let first_at = releases.first().map(|r| r.0).unwrap_or(0);
                    let last_at = releases.last().map(|r| r.0).unwrap_or(0);
                    let span = last_at.saturating_sub(first_at);
                    if span == 0 {
                        0.0
                    } else {
                        (releases.len() - 1) as f64 * 1e9 / span as f64
                    }
                }
            }
        };
        let mut run = LoadRun {
            outcomes: self.outcomes,
            horizon_ns,
            failed: self.failed,
            arrivals: arrivals_total,
            shed: shed_total,
            deadline_exceeded: self.deadline_exceeded,
            tenants: self.tenant_stats,
            retries: self.retries,
            offered_rps,
            pool,
            cpu_utilization: util(cpu1 - cpu0, cpu_lane_ns),
            link_utilization: util(link1 - link0, link_lane_ns),
            scale_events: self.autoscaler.map(|a| a.events().to_vec()).unwrap_or_default(),
            final_nodes: self.resources.node_count(),
        };
        // A closed loop offers exactly what it completes: each user admits
        // its next instance only after the previous one finishes.
        if matches!(admission, Admission::Closed { .. }) {
            run.offered_rps = run.throughput_rps();
        }
        Ok(run)
    }
}

/// Configuration of the backlog-driven [`Autoscaler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalerConfig {
    /// Never shrink below this many nodes.
    pub min_nodes: usize,
    /// Never grow beyond this many nodes.
    pub max_nodes: usize,
    /// Core count of every node the controller adds.
    pub node_cores: u32,
    /// Scale **up** when the windowed mean per-node backlog exceeds
    /// this.
    pub scale_up_backlog_ns: Nanos,
    /// Scale **down** when the windowed mean per-node backlog falls
    /// below this *and* the last node has fully drained.
    pub scale_down_backlog_ns: Nanos,
    /// Observation window; also the minimum gap between two decisions
    /// (the cooldown that keeps the controller from flapping on one
    /// bursty arrival).
    pub window_ns: Nanos,
}

/// Predictive pre-warming configuration (see
/// [`Autoscaler::with_prewarm`]).
///
/// The controller watches the engine's in-flight demand estimate,
/// extrapolates it `lead_ns` ahead along the observed slope, and staffs
/// the warm pool to `ceil(demand + headroom·√demand)` — Erlang-style
/// square-root staffing, the classic safety-capacity rule for keeping
/// wait probability flat as demand grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrewarmConfig {
    /// Square-root staffing headroom β in `ceil(d + β·√d)`.
    pub headroom: f64,
    /// How far ahead demand is extrapolated along the observed slope.
    pub lead_ns: Nanos,
    /// Demand-observation window; also the minimum gap between two
    /// staffing-target *increases* (the prewarm cooldown).
    pub window_ns: Nanos,
}

/// The elastic controller: watches the windowed mean-backlog signal from
/// live [`ResourceView`] snapshots and resizes the [`SchedResources`]
/// between instances.
///
/// The engine calls [`observe`](Self::observe) at every load event
/// (arrivals *and* completions). Each observation appends the view's
/// [`mean_backlog_ns`](ResourceView::mean_backlog_ns) to a sliding
/// window; once per `window_ns` the controller compares the window mean
/// against the two thresholds and adds ([`SchedResources::add_node`]) or
/// removes ([`SchedResources::remove_last_node`]) one node. Scale-in is
/// drain-safe: the last node is only removed once its own CPU backlog
/// *and* every one of its pair links have drained, so no in-flight
/// reservation is orphaned mid-instance.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    /// Sliding window of (time, mean-backlog) samples.
    window: Vec<(Nanos, Nanos)>,
    last_decision_ns: Nanos,
    events: Vec<ScaleEvent>,
    /// The node count this controller last decided the cluster should
    /// have (seeded from the first observation). A live count *below*
    /// it means capacity was lost outside the controller — a killed
    /// node — and triggers replacement.
    expected_nodes: Option<usize>,
    /// Predictive pre-warming; `None` leaves the controller scaling
    /// nodes only.
    prewarm: Option<PrewarmConfig>,
    /// Sliding (time, in-flight) demand samples for the prewarm slope.
    demand: Vec<(Nanos, usize)>,
    /// The ratcheted square-root staffing target (only grows within a
    /// run — bursty ramps re-cool between runs via [`reset`](Self::reset)).
    prewarm_level: usize,
    /// When the staffing target last rose (the prewarm cooldown anchor).
    last_prewarm_ns: Option<Nanos>,
}

impl Autoscaler {
    /// A fresh controller.
    ///
    /// # Panics
    ///
    /// Panics if `min_nodes` is zero or exceeds `max_nodes`, or if
    /// `window_ns` is zero.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        assert!(cfg.min_nodes > 0, "the cluster cannot shrink to zero nodes");
        assert!(cfg.min_nodes <= cfg.max_nodes, "min_nodes must not exceed max_nodes");
        assert!(cfg.window_ns > 0, "a zero observation window would decide on every event");
        Self {
            cfg,
            window: Vec::new(),
            last_decision_ns: 0,
            events: Vec::new(),
            expected_nodes: None,
            prewarm: None,
            demand: Vec::new(),
            prewarm_level: 0,
            last_prewarm_ns: None,
        }
    }

    /// Enables predictive pre-warming: square-root staffing on the
    /// engine's in-flight demand estimate, emitting
    /// [`ScaleAction::Prewarm`] events as the staffing target ratchets
    /// up. Only effective when the run also uses pooled admission
    /// ([`AdmissionConfig::pooled`]).
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero or `headroom` is negative.
    #[must_use]
    pub fn with_prewarm(mut self, prewarm: PrewarmConfig) -> Self {
        assert!(prewarm.window_ns > 0, "a zero prewarm window would ratchet on every event");
        assert!(prewarm.headroom >= 0.0, "negative staffing headroom is meaningless");
        self.prewarm = Some(prewarm);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// The decisions taken so far, in order.
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    /// Forgets window samples and the decision trace (between runs);
    /// keeps the configuration.
    pub fn reset(&mut self) {
        self.window.clear();
        self.last_decision_ns = 0;
        self.events.clear();
        self.expected_nodes = None;
        self.demand.clear();
        self.prewarm_level = 0;
        self.last_prewarm_ns = None;
    }

    /// One prewarm observation at `now`: records the in-flight demand
    /// sample, ratchets the square-root staffing target when the
    /// `lead_ns`-ahead extrapolation warrants it (at most once per
    /// cooldown window, traced as a [`ScaleAction::Prewarm`] event),
    /// and returns the current target for the engine to staff the pool
    /// to. `None` when pre-warming is unconfigured or the target is
    /// still zero.
    fn prewarm_target(&mut self, now: Nanos, in_flight: usize, nodes: usize) -> Option<usize> {
        let cfg = self.prewarm?;
        self.demand.push((now, in_flight));
        let cutoff = now.saturating_sub(cfg.window_ns);
        self.demand.retain(|&(t, _)| t >= cutoff);
        let (_, d0) = self.demand[0];
        // Normalise over the full window, not the observed sample span:
        // two samples landing nanoseconds apart would otherwise produce
        // an unbounded slope and ratchet the staffing level into the
        // hundreds from a single coincident-arrival tie.
        let slope = (in_flight as f64 - d0 as f64) / cfg.window_ns as f64;
        let predicted = (in_flight as f64 + slope.max(0.0) * cfg.lead_ns as f64).max(0.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let candidate = (predicted + cfg.headroom * predicted.sqrt()).ceil() as usize;
        let cooled =
            self.last_prewarm_ns.is_none_or(|t| now.saturating_sub(t) >= cfg.window_ns);
        if candidate > self.prewarm_level && cooled {
            self.prewarm_level = candidate;
            self.last_prewarm_ns = Some(now);
            self.events.push(ScaleEvent {
                at_ns: now,
                action: ScaleAction::Prewarm,
                nodes_after: nodes,
                signal_ns: candidate as Nanos,
            });
        }
        (self.prewarm_level > 0).then_some(self.prewarm_level)
    }

    /// One observation at virtual time `now`: record the live backlog
    /// signal and, at most once per window, act on it. Returns a view
    /// that is **current after any decision** (freshly re-snapshotted
    /// when the observation resized the cluster), so callers placing an
    /// instance at the same event need not snapshot twice.
    ///
    /// Allocates a fresh view; the load engine's per-event path uses
    /// [`observe_into`](Self::observe_into) with a reusable scratch view
    /// instead.
    pub fn observe(&mut self, now: Nanos, resources: &mut SchedResources) -> ResourceView {
        let mut view = ResourceView::default();
        self.observe_into(now, resources, &mut view);
        view
    }

    /// [`observe`](Self::observe), refreshing the caller's scratch `view`
    /// in place (allocation-free in steady state). On return `view` is
    /// current **after** any scaling decision this observation took.
    pub fn observe_into(
        &mut self,
        now: Nanos,
        resources: &mut SchedResources,
        view: &mut ResourceView,
    ) {
        resources.view_into(now, view);
        // Capacity-loss detection first: a live node count below what
        // this controller last decided (seeded from the first
        // observation) means something *outside* it — a kill — removed
        // capacity. Replacement bypasses the backlog cooldown: a dead
        // node is not a noisy signal to be smoothed, so `last_decision_ns`
        // stays put and a pending backlog decision is not delayed.
        let live = resources.node_count();
        let expected = (*self.expected_nodes.get_or_insert(live)).min(self.cfg.max_nodes);
        if live < expected {
            for replaced in live..expected {
                resources.add_node(self.cfg.node_cores);
                self.events.push(ScaleEvent {
                    at_ns: now,
                    action: ScaleAction::Replace,
                    nodes_after: replaced + 1,
                    signal_ns: 0,
                });
            }
            resources.view_into(now, view);
        }
        self.window.push((now, view.mean_backlog_ns()));
        let cutoff = now.saturating_sub(self.cfg.window_ns);
        self.window.retain(|&(t, _)| t >= cutoff);
        if now.saturating_sub(self.last_decision_ns) < self.cfg.window_ns {
            return;
        }
        let signal = self.window.iter().map(|&(_, b)| b).sum::<Nanos>()
            / self.window.len().max(1) as u64;
        let nodes = resources.node_count();
        if signal > self.cfg.scale_up_backlog_ns && nodes < self.cfg.max_nodes {
            resources.add_node(self.cfg.node_cores);
            self.events.push(ScaleEvent {
                at_ns: now,
                action: ScaleAction::Up,
                nodes_after: nodes + 1,
                signal_ns: signal,
            });
            self.expected_nodes = Some(nodes + 1);
            self.last_decision_ns = now;
        } else if signal < self.cfg.scale_down_backlog_ns
            && nodes > self.cfg.min_nodes
            && view.node(nodes - 1).backlog_ns == 0
            // The departing node's pair links must have drained too —
            // an in-flight transfer still occupies its wire even after
            // the node's own CPU went idle.
            && (0..nodes - 1).all(|o| view.link_backlog_between(o, nodes - 1) == 0)
        {
            resources.remove_last_node();
            self.events.push(ScaleEvent {
                at_ns: now,
                action: ScaleAction::Down,
                nodes_after: nodes - 1,
                signal_ns: signal,
            });
            self.expected_nodes = Some(nodes - 1);
            self.last_decision_ns = now;
        } else {
            return;
        }
        resources.view_into(now, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{LocalityFirst, Pinned, SpreadLoad};
    use crate::workflow::execute_concurrent;

    /// A plane charging fixed phase costs, payload-independent, so
    /// schedules are easy to reason about.
    struct FixedPlane {
        clock: VirtualClock,
        prepare_ns: Nanos,
        transfer_ns: Nanos,
        consume_ns: Nanos,
    }

    impl FixedPlane {
        fn new(clock: VirtualClock) -> Self {
            Self { clock, prepare_ns: 200, transfer_ns: 1_000, consume_ns: 300 }
        }
    }

    impl DataPlane for FixedPlane {
        fn transfer(&mut self, _: &str, _: &str, p: Bytes) -> Result<Bytes, PlatformError> {
            self.clock.advance(self.prepare_ns + self.transfer_ns + self.consume_ns);
            Ok(p)
        }

        fn transfer_detailed(
            &mut self,
            from: &str,
            to: &str,
            p: Bytes,
        ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
            let timing = TransferTiming {
                prepare_ns: self.prepare_ns,
                transfer_ns: self.transfer_ns,
                consume_ns: self.consume_ns,
            };
            let received = self.transfer(from, to, p)?;
            Ok((received, Some(timing)))
        }
    }

    fn pipeline_spec() -> WorkflowSpec {
        WorkflowSpec::sequence("pipe", "t", ["a".to_owned(), "b".to_owned()])
    }

    fn open(spec: WorkflowSpec, interval_ns: Nanos, instances: usize) -> OpenLoop {
        OpenLoop {
            spec,
            payload: Bytes::new(),
            arrivals: ArrivalProcess::Uniform { interval_ns },
            instances,
            admission: AdmissionConfig::warm(),
        }
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let times = ArrivalProcess::Uniform { interval_ns: 250 }.times(4);
        assert_eq!(times, vec![0, 250, 500, 750]);
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_near_their_mean() {
        let process = ArrivalProcess::Poisson { mean_interval_ns: 1_000_000, seed: 7 };
        let a = process.times(400);
        let b = process.times(400);
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = a[399] as f64 / 399.0;
        assert!(
            (500_000.0..2_000_000.0).contains(&mean_gap),
            "empirical mean gap {mean_gap} too far from 1e6"
        );
        let other = ArrivalProcess::Poisson { mean_interval_ns: 1_000_000, seed: 8 }.times(400);
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn placed_overrides_placement_and_forwards_transfers() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let names = ["a".to_owned(), "b".to_owned()];
        let mut placed = InstancePlane { inner: &mut plane, names: &names, nodes: &[2, 5] };
        assert_eq!(placed.placement("a"), Some(2));
        assert_eq!(placed.placement("b"), Some(5));
        assert_eq!(placed.placement("ghost"), None);
        let out = placed.transfer("a", "b", Bytes::from_static(b"xyz")).unwrap();
        assert_eq!(&out[..], b"xyz");
    }

    #[test]
    fn contention_never_speeds_an_instance_up() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let spec = pipeline_spec();

        // Uncontended makespan of one instance under locality placement.
        let mut fresh = SchedResources::heterogeneous(&[1, 1]);
        let names = ["a".to_owned(), "b".to_owned()];
        let mut placed = InstancePlane { inner: &mut plane, names: &names, nodes: &[0, 0] };
        let solo = execute_concurrent(&mut placed, &clock, &spec, Bytes::new(), &mut fresh)
            .unwrap()
            .total_latency_ns;
        assert_eq!(solo, 1_500);

        // Heavy load: arrivals far faster than the 1-core nodes drain.
        let load = open(spec.clone(), 100, 12);
        let mut shared = SchedResources::heterogeneous(&[1, 1]);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut shared, &mut policy).unwrap();
        assert_eq!(run.outcomes.len(), 12);
        for outcome in &run.outcomes {
            assert!(
                outcome.sojourn_ns >= solo,
                "instance {} finished in {} < uncontended {}",
                outcome.instance,
                outcome.sojourn_ns,
                solo
            );
        }
        // Queueing builds: the last instance waits longer than the first.
        assert!(run.outcomes[11].sojourn_ns > run.outcomes[0].sojourn_ns);
        // Overload: achieved throughput falls short of offered.
        assert!(run.throughput_rps() < run.offered_rps);
    }

    #[test]
    fn light_load_leaves_instances_at_their_solo_makespan() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let spec = pipeline_spec();
        let load = open(spec.clone(), 1_000_000, 5);
        let mut shared = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut shared, &mut policy).unwrap();
        // Arrivals 1 ms apart, service 1.5 µs: nothing ever queues.
        assert!(run.outcomes.iter().all(|o| o.sojourn_ns == 1_500));
        let p = run.sojourn_percentiles().unwrap();
        assert_eq!((p.p50_ns, p.p95_ns, p.p99_ns), (1_500, 1_500, 1_500));
        assert_eq!(run.max_sojourn_ns(), Some(1_500));
    }

    #[test]
    fn spread_policy_pays_the_link_locality_avoids() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let spec = pipeline_spec();
        let load = open(spec.clone(), 10_000, 4);

        let mut res = SchedResources::new(2, 4);
        let mut locality = LocalityFirst::new();
        let packed = load.run(&mut plane, &clock, &mut res, &mut locality).unwrap();
        assert!((packed.link_utilization - 0.0).abs() < f64::EPSILON);
        assert!(packed.cpu_utilization > 0.0);

        let mut res = SchedResources::new(2, 4);
        let mut spread = SpreadLoad::new();
        let crossed = load.run(&mut plane, &clock, &mut res, &mut spread).unwrap();
        assert!(crossed.link_utilization > 0.0);
        // Every instance's a→b crosses nodes under spread.
        assert!(crossed.outcomes.iter().all(|o| o.assignment[0] != o.assignment[1]));
    }

    #[test]
    fn transfer_errors_propagate_out_of_the_loop() {
        struct Failing;
        impl DataPlane for Failing {
            fn transfer(&mut self, _: &str, _: &str, _: Bytes) -> Result<Bytes, PlatformError> {
                Err(PlatformError::Transfer("down".into()))
            }
        }
        let clock = VirtualClock::new();
        let load = open(pipeline_spec(), 1, 2);
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        assert!(matches!(
            load.run(&mut Failing, &clock, &mut res, &mut policy),
            Err(PlatformError::Transfer(_))
        ));
    }

    #[test]
    fn empty_run_reports_zeroes_not_nan() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let load = open(pipeline_spec(), 1_000, 0);
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        assert!(run.outcomes.is_empty());
        assert_eq!(run.horizon_ns, 0);
        assert_eq!(run.throughput_rps(), 0.0);
        assert_eq!(run.offered_rps, 0.0, "an empty run offers nothing");
        assert_eq!(run.max_sojourn_ns(), None);
        assert!(run.sojourn_percentiles().is_none());
        assert_eq!(run.cpu_utilization, 0.0);
        assert_eq!(run.link_utilization, 0.0);
    }

    #[test]
    fn single_instance_run_is_consistent() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let load = open(pipeline_spec(), 1_000, 1);
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        assert_eq!(run.outcomes.len(), 1);
        assert_eq!(run.horizon_ns, 1_500);
        assert!(run.throughput_rps().is_finite());
        assert!(run.throughput_rps() > 0.0);
        assert_eq!(run.max_sojourn_ns(), Some(1_500));
        let p = run.sojourn_percentiles().unwrap();
        assert_eq!((p.count, p.p50_ns, p.p99_ns), (1, 1_500, 1_500));
    }

    #[test]
    fn closed_loop_gates_arrivals_on_completions() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let load = ClosedLoop {
            spec: pipeline_spec(),
            payload: Bytes::new(),
            users: 2,
            think_ns: 400,
            ramp_ns: 0,
            instances: 8,
            admission: AdmissionConfig::warm(),
        };
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        assert_eq!(run.outcomes.len(), 8);
        // Per user: arrival k is exactly completion k-1 plus think time.
        for user in 0..2 {
            let mine: Vec<&InstanceOutcome> =
                run.outcomes.iter().filter(|o| o.user == user).collect();
            assert_eq!(mine.len(), 4);
            for pair in mine.windows(2) {
                assert_eq!(pair[1].release_ns, pair[0].finish_ns + 400);
            }
        }
        // Closed loop: offered equals achieved by definition.
        assert_eq!(run.offered_rps, run.throughput_rps());
    }

    #[test]
    fn closed_loop_concurrency_never_exceeds_users() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let load = ClosedLoop {
            spec: pipeline_spec(),
            payload: Bytes::new(),
            users: 3,
            think_ns: 0,
            ramp_ns: 0,
            instances: 12,
            admission: AdmissionConfig::warm(),
        };
        let mut res = SchedResources::new(1, 1);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        assert_eq!(run.outcomes.len(), 12);
        // At any instance's release, at most `users` instances overlap.
        for o in &run.outcomes {
            let in_flight = run
                .outcomes
                .iter()
                .filter(|p| p.release_ns <= o.release_ns && p.finish_ns > o.release_ns)
                .count();
            assert!(in_flight <= 3, "{in_flight} instances in flight at {}", o.release_ns);
        }
    }

    #[test]
    fn closed_loop_with_fewer_instances_than_users() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let load = ClosedLoop {
            spec: pipeline_spec(),
            payload: Bytes::new(),
            users: 8,
            think_ns: 100,
            ramp_ns: 0,
            instances: 3,
            admission: AdmissionConfig::warm(),
        };
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        assert_eq!(run.outcomes.len(), 3);
    }

    #[test]
    fn cold_start_charged_once_per_function_and_node() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let spec = pipeline_spec();
        let mut load = open(spec, 1_000_000, 3);
        load.admission = AdmissionConfig::cold(50_000);
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        // First instance pays both functions' cold starts; later
        // instances land warm (locality keeps them on the same node —
        // arrivals are 1 ms apart so the node has drained each time).
        assert_eq!(run.outcomes[0].cold_start_ns, 50_000);
        assert_eq!(run.outcomes[0].sojourn_ns, 50_000 + 1_500);
        assert_eq!(run.outcomes[1].cold_start_ns, 0);
        assert_eq!(run.outcomes[1].sojourn_ns, 1_500);
        assert_eq!(run.cold_starts(), 1);
        assert_eq!(run.cold_start_total_ns(), 50_000);
    }

    #[test]
    fn cold_start_repaid_on_every_new_node() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let spec = pipeline_spec();
        let load = ClosedLoop {
            spec,
            payload: Bytes::new(),
            users: 1,
            think_ns: 0,
            ramp_ns: 0,
            instances: 4,
            admission: AdmissionConfig::cold(10_000),
        };
        let mut res = SchedResources::new(4, 4);
        let mut policy = crate::scheduler::RoundRobin::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        // Round-robin moves every instance to a fresh node: each pays.
        assert_eq!(run.cold_starts(), 4);
        assert!(run.outcomes.iter().all(|o| o.cold_start_ns == 10_000));
    }

    #[test]
    fn autoscaler_grows_under_pressure_and_shrinks_when_idle() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let spec = pipeline_spec();
        // 40 instances arriving every 500 ns onto a single 1-core node
        // (service 1500 ns): heavy overload.
        let load = open(spec, 500, 40);
        let mut res = SchedResources::heterogeneous(&[1]);
        let mut policy = LocalityFirst::new();
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 4,
            node_cores: 1,
            scale_up_backlog_ns: 3_000,
            scale_down_backlog_ns: 500,
            window_ns: 2_000,
        });
        let run = load
            .run_overloaded(
                &mut plane,
                &clock,
                &mut res,
                &mut policy,
                Some(&mut scaler),
                None,
                &OverloadConfig::default(),
            )
            .unwrap();
        assert!(
            run.scale_events.iter().any(|e| e.action == ScaleAction::Up),
            "overload must trigger scale-up: {:?}",
            run.scale_events
        );
        assert!(run.final_nodes > 1);
        // And the elastic run beats the fixed-capacity run's tail.
        let clock2 = VirtualClock::new();
        let mut plane2 = FixedPlane::new(clock2.clone());
        let load2 = open(pipeline_spec(), 500, 40);
        let mut fixed = SchedResources::heterogeneous(&[1]);
        let mut policy2 = LocalityFirst::new();
        let fixed_run = load2.run(&mut plane2, &clock2, &mut fixed, &mut policy2).unwrap();
        let p_el = run.sojourn_percentiles().unwrap();
        let p_fx = fixed_run.sojourn_percentiles().unwrap();
        assert!(
            p_el.p95_ns < p_fx.p95_ns,
            "elastic p95 {} must beat fixed p95 {}",
            p_el.p95_ns,
            p_fx.p95_ns
        );
    }

    #[test]
    fn autoscaler_scales_down_after_the_surge_drains() {
        let mut res = SchedResources::heterogeneous(&[1, 1, 1]);
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 3,
            node_cores: 1,
            scale_up_backlog_ns: 1_000_000,
            scale_down_backlog_ns: 100,
            window_ns: 1_000,
        });
        // Idle cluster observed well past the window: scale down fires.
        scaler.observe(5_000, &mut res);
        assert_eq!(res.node_count(), 2);
        assert_eq!(scaler.events().len(), 1);
        assert_eq!(scaler.events()[0].action, ScaleAction::Down);
        // Cooldown: an immediate second observation does nothing…
        scaler.observe(5_100, &mut res);
        assert_eq!(res.node_count(), 2);
        // …but after another full window the next shrink fires, and the
        // floor holds.
        scaler.observe(6_500, &mut res);
        assert_eq!(res.node_count(), 1);
        scaler.observe(9_000, &mut res);
        assert_eq!(res.node_count(), 1, "min_nodes is a floor");
        scaler.reset();
        assert!(scaler.events().is_empty());
    }

    #[test]
    fn cold_start_repaid_when_a_scaled_in_node_returns() {
        // Two users burst at t=0 onto two 1-core nodes (both pay cold
        // starts), the cluster drains and the controller scales in to
        // one node, then the next burst scales back out — the re-added
        // node is a brand-new machine and must charge its cold starts
        // again, not inherit the removed node's warm set.
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let load = ClosedLoop {
            spec: pipeline_spec(),
            payload: Bytes::new(),
            users: 2,
            think_ns: 6_000,
            ramp_ns: 0,
            instances: 4,
            admission: AdmissionConfig::cold(1_000),
        };
        let mut res = SchedResources::heterogeneous(&[1, 1]);
        let mut policy = LocalityFirst::new();
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 2,
            node_cores: 1,
            scale_up_backlog_ns: 600,
            scale_down_backlog_ns: 500,
            window_ns: 1_000,
        });
        let run = load
            .run_overloaded(
                &mut plane,
                &clock,
                &mut res,
                &mut policy,
                Some(&mut scaler),
                None,
                &OverloadConfig::default(),
            )
            .unwrap();
        // Drain → scale-in, burst → scale-out (a final drain-time
        // scale-in may trail at the last completion).
        let actions: Vec<ScaleAction> = run.scale_events.iter().map(|e| e.action).collect();
        assert!(
            actions.starts_with(&[ScaleAction::Down, ScaleAction::Up]),
            "expected drain → scale-in → burst → scale-out: {:?}",
            run.scale_events
        );
        // Burst 1: both instances cold (one per node).
        assert_eq!(run.outcomes[0].cold_start_ns, 2_000);
        assert_eq!(run.outcomes[1].cold_start_ns, 2_000);
        // Burst 2: the packed node is warm, the re-added node is not.
        assert_eq!(run.outcomes[2].cold_start_ns, 0);
        assert_eq!(
            run.outcomes[3].cold_start_ns, 2_000,
            "a re-added node is a fresh machine and must re-pay cold starts"
        );
    }

    #[test]
    fn autoscaler_does_not_remove_a_node_with_busy_links() {
        let mut res = SchedResources::mesh(&[1, 1, 1]);
        // Node 2's CPU is idle but its wire to node 0 still drains.
        res.link_between(0, 2).reserve(0, 2_000);
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 3,
            node_cores: 1,
            scale_up_backlog_ns: 1_000_000,
            scale_down_backlog_ns: 1_000_000,
            window_ns: 500,
        });
        scaler.observe(1_000, &mut res);
        assert_eq!(res.node_count(), 3, "a node with an in-flight transfer must stay");
        // Once the wire drains, scale-in proceeds.
        scaler.observe(3_000, &mut res);
        assert_eq!(res.node_count(), 2);
    }

    #[test]
    fn autoscaler_does_not_remove_a_backlogged_node() {
        let mut res = SchedResources::heterogeneous(&[1, 1]);
        // Last node still draining: mean backlog is low, node backlog not.
        res.cpu(1).reserve(0, 2_000);
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 2,
            node_cores: 1,
            scale_up_backlog_ns: 1_000_000,
            scale_down_backlog_ns: 1_500,
            window_ns: 500,
        });
        scaler.observe(1_000, &mut res);
        assert_eq!(res.node_count(), 2, "a draining node must not be removed");
        // Once drained, it goes.
        scaler.observe(3_000, &mut res);
        assert_eq!(res.node_count(), 1);
    }

    #[test]
    fn open_loop_outcomes_match_user_indices() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let load = open(pipeline_spec(), 2_000, 4);
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.instance, i);
            assert_eq!(o.user, i);
            assert_eq!(o.cold_start_ns, 0);
        }
        assert!(run.scale_events.is_empty());
        assert_eq!(run.final_nodes, 2);
    }

    #[test]
    fn an_empty_failure_plan_is_byte_identical_to_a_failure_free_run() {
        let baseline = {
            let clock = VirtualClock::new();
            let mut plane = FixedPlane::new(clock.clone());
            let mut res = SchedResources::new(2, 4);
            let mut policy = SpreadLoad::new();
            open(pipeline_spec(), 700, 9).run(&mut plane, &clock, &mut res, &mut policy).unwrap()
        };
        let faulty = {
            let clock = VirtualClock::new();
            let mut plane = FixedPlane::new(clock.clone());
            let mut res = SchedResources::new(2, 4);
            let mut policy = SpreadLoad::new();
            let plan = FailurePlan::new(RetryPolicy::default());
            assert!(plan.is_empty());
            open(pipeline_spec(), 700, 9)
                .run_overloaded(
                    &mut plane,
                    &clock,
                    &mut res,
                    &mut policy,
                    None,
                    Some(&plan),
                    &OverloadConfig::default(),
                )
                .unwrap()
        };
        assert_eq!(baseline.outcomes.len(), faulty.outcomes.len());
        for (a, b) in baseline.outcomes.iter().zip(&faulty.outcomes) {
            assert_eq!(
                (a.release_ns, a.finish_ns, a.sojourn_ns, &a.assignment),
                (b.release_ns, b.finish_ns, b.sojourn_ns, &b.assignment),
            );
            assert!(!b.failed);
            assert_eq!(b.retries, 0);
        }
        assert_eq!(baseline.offered_rps, faulty.offered_rps);
        assert_eq!(baseline.cpu_utilization, faulty.cpu_utilization);
        assert_eq!(baseline.link_utilization, faulty.link_utilization);
        assert_eq!((faulty.failed, faulty.retries), (0, 0));
    }

    #[test]
    fn link_flap_edges_retry_until_the_window_lifts() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        // Pin a→b across the 0–1 link, then flap that link over the
        // first arrivals: they must retry (not fail, not error) and the
        // run must account every extra attempt.
        let mut policy = Pinned::new(0).pin("b", 1);
        let plan = FailurePlan::new(RetryPolicy::new(6, 2_000, 1 << 40)).with_outages(
            OutageSchedule::new().link_down(res.node_id(0), res.node_id(1), 0, 5_000),
        );
        let run = open(pipeline_spec(), 10_000, 4)
            .run_overloaded(
                &mut plane,
                &clock,
                &mut res,
                &mut policy,
                None,
                Some(&plan),
                &OverloadConfig::default(),
            )
            .unwrap();
        assert_eq!(run.outcomes.len(), 4);
        assert_eq!(run.failed, 0, "the flap lifts well inside the retry budget");
        assert_eq!(run.completed(), 4);
        assert!(run.retries > 0, "the covered arrivals must have retried");
        assert!(run.retried() >= 1);
        // Instance 0 arrives at t=0 under the flap: its sojourn absorbs
        // the down window. Instance 3 arrives at t=30000, after the
        // window: clean first attempt.
        assert!(run.outcomes[0].retries > 0);
        assert!(run.outcomes[0].sojourn_ns >= 5_000);
        assert_eq!(run.outcomes[3].retries, 0);
        assert_eq!(run.outcomes[3].sojourn_ns, 1_500);
    }

    #[test]
    fn a_killed_node_fails_placed_instances_and_conserves_outcomes() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = Pinned::new(0).pin("b", 1);
        // Node 1 dies before the run and is never detected (no removal):
        // every pinned a→b edge dead-ends there and exhausts its budget.
        let plan = FailurePlan::new(RetryPolicy::new(3, 1_000, 1 << 40))
            .with_outages(OutageSchedule::new().node_killed(res.node_id(1), 0));
        let run = open(pipeline_spec(), 10_000, 3)
            .run_overloaded(
                &mut plane,
                &clock,
                &mut res,
                &mut policy,
                None,
                Some(&plan),
                &OverloadConfig::default(),
            )
            .unwrap();
        assert_eq!(run.outcomes.len(), 3, "failed instances still yield outcomes");
        assert_eq!(run.failed, 3);
        assert_eq!(run.completed(), 0);
        assert_eq!(run.outcomes.len(), run.completed() + run.failed);
        // 3 attempts per instance: 2 retries each.
        assert_eq!(run.retries, 6);
        assert!(run.outcomes.iter().all(|o| o.failed && o.retries == 2));
        assert!(run.sojourn_percentiles().is_none(), "percentiles cover completions only");
        assert!(run.throughput_rps() == 0.0);
    }

    #[test]
    fn a_detected_kill_removes_the_node_and_the_autoscaler_replaces_it() {
        let spec = pipeline_spec();
        let closed = ClosedLoop {
            spec: spec.clone(),
            payload: Bytes::new(),
            users: 3,
            think_ns: 200,
            ramp_ns: 0,
            instances: 30,
            admission: AdmissionConfig::warm(),
        };
        // Thresholds no backlog signal can cross: the only decisions
        // this controller ever takes are replacements.
        let cfg = AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 4,
            node_cores: 4,
            scale_up_backlog_ns: Nanos::MAX,
            scale_down_backlog_ns: 0,
            window_ns: 1,
        };

        // Fixed-size baseline: the kill permanently halves capacity.
        let fixed = {
            let clock = VirtualClock::new();
            let mut plane = FixedPlane::new(clock.clone());
            let mut res = SchedResources::new(2, 4);
            let mut policy = SpreadLoad::new();
            let plan = FailurePlan::new(RetryPolicy::new(2, 500, 1 << 40)).kill_node(
                res.node_id(1),
                4_000,
                1_000,
            );
            closed
                .run_overloaded(
                    &mut plane,
                    &clock,
                    &mut res,
                    &mut policy,
                    None,
                    Some(&plan),
                    &OverloadConfig::default(),
                )
                .unwrap()
        };
        assert_eq!(fixed.final_nodes, 1, "nobody replaces the dead node");
        assert_eq!(fixed.outcomes.len(), fixed.completed() + fixed.failed);

        // Elastic: the controller notices the loss and restores capacity.
        let elastic = {
            let clock = VirtualClock::new();
            let mut plane = FixedPlane::new(clock.clone());
            let mut res = SchedResources::new(2, 4);
            let mut policy = SpreadLoad::new();
            let mut scaler = Autoscaler::new(cfg);
            let plan = FailurePlan::new(RetryPolicy::new(2, 500, 1 << 40)).kill_node(
                res.node_id(1),
                4_000,
                1_000,
            );
            closed
                .run_overloaded(
                    &mut plane,
                    &clock,
                    &mut res,
                    &mut policy,
                    Some(&mut scaler),
                    Some(&plan),
                    &OverloadConfig::default(),
                )
                .unwrap()
        };
        assert_eq!(elastic.final_nodes, 2, "capacity restored to the expected size");
        assert_eq!(
            elastic.scale_events.iter().filter(|e| e.action == ScaleAction::Replace).count(),
            1,
            "exactly one replacement, no flapping: {:?}",
            elastic.scale_events,
        );
        assert_eq!(elastic.outcomes.len(), elastic.completed() + elastic.failed);
        // Once replaced, the tail of the run completes cleanly again.
        let last = elastic.outcomes.last().unwrap();
        assert!(!last.failed);
        // The replacement node is a fresh machine with a fresh id: the
        // dead node's windows must not apply to it.
        assert!(elastic.outcomes.iter().rev().take(5).all(|o| !o.failed));
    }

    #[test]
    fn failed_instances_re_arm_their_closed_loop_user() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = Pinned::new(0).pin("b", 1);
        // Node 1 is dead for the whole run and never removed: every
        // instance fails, yet all 6 get admitted — each failure re-arms
        // its user after think time.
        let plan = FailurePlan::new(RetryPolicy::new(2, 100, 1 << 40))
            .with_outages(OutageSchedule::new().node_killed(res.node_id(1), 0));
        let closed = ClosedLoop {
            spec: pipeline_spec(),
            payload: Bytes::new(),
            users: 2,
            think_ns: 300,
            ramp_ns: 0,
            instances: 6,
            admission: AdmissionConfig::warm(),
        };
        let run = closed
            .run_overloaded(
                &mut plane,
                &clock,
                &mut res,
                &mut policy,
                None,
                Some(&plan),
                &OverloadConfig::default(),
            )
            .unwrap();
        assert_eq!(run.outcomes.len(), 6);
        assert_eq!(run.failed, 6);
        assert_eq!(run.completed(), 0);
        assert_eq!(run.offered_rps, 0.0, "a closed loop that completes nothing offers nothing");
        assert!(!run.offered_rps.is_nan());
    }

    #[test]
    fn open_loop_offered_rate_comes_from_the_arrival_process() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        // 1 ms mean interval → 1000 rps offered, computed by the engine
        // (no driver fills it in after the fact).
        let run = open(pipeline_spec(), 1_000_000, 3)
            .run(&mut plane, &clock, &mut res, &mut policy)
            .unwrap();
        assert!((run.offered_rps - 1_000.0).abs() < 1e-9);
    }

    use crate::overload::{OverloadConfig, QueueConfig, ShedPolicy};

    fn queue_only(max_in_flight: usize, queue_cap: usize, policy: ShedPolicy) -> OverloadConfig {
        OverloadConfig {
            queue: Some(QueueConfig { max_in_flight, queue_cap, policy }),
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn an_all_shed_run_reports_zeroes_and_none_never_nan() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        // Zero slots, zero queue: every arrival is shed at admission.
        let cfg = queue_only(0, 0, ShedPolicy::RejectNewest);
        let run = open(pipeline_spec(), 1_000, 5)
            .run_overloaded(&mut plane, &clock, &mut res, &mut policy, None, None, &cfg)
            .unwrap();
        assert_eq!(run.arrivals, 5);
        assert_eq!(run.shed, 5);
        assert!(run.outcomes.is_empty());
        assert_eq!((run.completed(), run.failed, run.deadline_exceeded), (0, 0, 0));
        assert!(run.sojourn_percentiles().is_none());
        assert!(run.throughput_rps() == 0.0 && !run.throughput_rps().is_nan());
        assert!(!run.offered_rps.is_nan());
        assert!(!run.cpu_utilization.is_nan() && !run.link_utilization.is_nan());
        let t = &run.tenants[0];
        assert_eq!((t.arrivals, t.shed, t.completed), (5, 5, 0));
        assert!(t.sojourn_percentiles().is_none());
    }

    #[test]
    fn multi_tenant_runs_interleave_and_account_per_tenant() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = SpreadLoad::new();
        let spec_a = WorkflowSpec::sequence("pipe-a", "alice", ["a".to_owned(), "b".to_owned()]);
        let spec_b = WorkflowSpec::sequence("pipe-b", "bob", ["a".to_owned(), "b".to_owned()]);
        let load = MultiLoad {
            tenants: vec![
                TenantLoad::from_process(
                    "alice",
                    spec_a,
                    Bytes::new(),
                    &ArrivalProcess::Uniform { interval_ns: 2_000 },
                    5,
                ),
                TenantLoad::from_process(
                    "bob",
                    spec_b,
                    Bytes::new(),
                    &ArrivalProcess::Uniform { interval_ns: 3_000 },
                    4,
                ),
            ],
            admission: AdmissionConfig::warm(),
        };
        let run = load.run(&mut plane, &clock, &mut res, &mut policy).unwrap();
        assert_eq!(run.outcomes.len(), 9);
        assert_eq!(run.arrivals, 9);
        assert_eq!(run.tenants.len(), 2);
        assert_eq!(run.tenants[0].name, "alice");
        assert_eq!(run.tenants[1].name, "bob");
        for (idx, t) in run.tenants.iter().enumerate() {
            assert_eq!(t.arrivals, [5, 4][idx]);
            assert_eq!(t.arrivals, t.completed + t.failed + t.deadline_exceeded + t.shed);
            assert_eq!(t.completed, run.outcomes.iter().filter(|o| o.tenant == idx && !o.failed).count());
        }
        // Same-instant ties keep tenant order: both release at t = 0 and
        // t = 6000, with alice (lane 0) admitted first each time.
        let tenant_order: Vec<usize> = run.outcomes.iter().map(|o| o.tenant).collect();
        assert_eq!(tenant_order, vec![0, 1, 0, 1, 0, 0, 1, 0, 1]);
        assert_eq!(run.completed(), run.tenants.iter().map(|t| t.completed).sum::<usize>());
    }

    #[test]
    fn blown_deadlines_are_accounted_apart_from_failures() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        // A three-stage pipeline: the b→c edge becomes ready 1500 ns
        // after the roots, past the 100 ns deadline — every instance
        // blows its deadline at that edge, none "fails".
        let spec =
            WorkflowSpec::sequence("pipe3", "t", ["a".to_owned(), "b".to_owned(), "c".to_owned()]);
        let cfg = OverloadConfig { deadline_ns: Some(100), ..OverloadConfig::default() };
        let load = OpenLoop {
            spec,
            payload: Bytes::new(),
            arrivals: ArrivalProcess::Uniform { interval_ns: 5_000 },
            instances: 3,
            admission: AdmissionConfig::warm(),
        };
        let run = load
            .run_overloaded(&mut plane, &clock, &mut res, &mut policy, None, None, &cfg)
            .unwrap();
        assert_eq!(run.outcomes.len(), 3);
        assert_eq!(run.deadline_exceeded, 3);
        assert_eq!((run.failed, run.completed(), run.shed), (0, 0, 0));
        assert!(run.outcomes.iter().all(|o| o.deadline_exceeded && !o.failed));
        assert!(run.sojourn_percentiles().is_none(), "blown instances never enter the digest");
        assert_eq!(run.tenants[0].deadline_exceeded, 3);
        assert_eq!(run.arrivals, run.completed() + run.failed + run.deadline_exceeded + run.shed);
    }

    #[test]
    fn the_weighted_queue_drains_tenants_by_their_weights() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let spec_a = WorkflowSpec::sequence("pipe-a", "alice", ["a".to_owned(), "b".to_owned()]);
        let spec_b = WorkflowSpec::sequence("pipe-b", "bob", ["a".to_owned(), "b".to_owned()]);
        let heavy = TenantLoad {
            name: "alice".to_owned(),
            spec: spec_a,
            payload: Bytes::new(),
            releases: vec![0; 10],
            weight: 4,
        };
        let light = TenantLoad {
            name: "bob".to_owned(),
            spec: spec_b,
            payload: Bytes::new(),
            releases: vec![0; 10],
            weight: 1,
        };
        let load = MultiLoad { tenants: vec![heavy, light], admission: AdmissionConfig::warm() };
        // One slot, everything else queues: the drain order is pure
        // smooth-WRR — a 4:1 cycle of [alice ×2, bob, alice ×2].
        let cfg = queue_only(1, 64, ShedPolicy::RejectNewest);
        let run = load
            .run_overloaded(&mut plane, &clock, &mut res, &mut policy, None, None, &cfg)
            .unwrap();
        assert_eq!(run.outcomes.len(), 20);
        assert_eq!(run.shed, 0);
        let order: Vec<usize> = run.outcomes.iter().map(|o| o.tenant).collect();
        // outcomes[0] is the t = 0 immediate admit (alice, lane order);
        // each subsequent start is one WRR dequeue.
        assert_eq!(order[0], 0);
        assert_eq!(&order[1..6], &[0, 0, 1, 0, 0], "one smooth-WRR cycle at weights 4:1");
        assert_eq!(&order[6..11], &[0, 0, 1, 0, 0]);
        // Once alice's lane empties, bob drains the remainder.
        assert_eq!(order.iter().filter(|&&t| t == 1).count(), 10);
    }

    #[test]
    fn reject_newest_and_reject_oldest_shed_opposite_ends_of_the_queue() {
        let run_with = |policy_kind: ShedPolicy| {
            let clock = VirtualClock::new();
            let mut plane = FixedPlane::new(clock.clone());
            let mut res = SchedResources::new(2, 4);
            let mut policy = LocalityFirst::new();
            let cfg = queue_only(1, 4, policy_kind);
            open(pipeline_spec(), 1, 10)
                .run_overloaded(&mut plane, &clock, &mut res, &mut policy, None, None, &cfg)
                .unwrap()
        };
        // All ten arrivals land before the first completion (1500 ns):
        // user 0 runs, four queue, five overflow.
        let newest = run_with(ShedPolicy::RejectNewest);
        assert_eq!((newest.shed, newest.outcomes.len()), (5, 5));
        let survivors: Vec<usize> = newest.outcomes.iter().map(|o| o.user).collect();
        assert_eq!(survivors, vec![0, 1, 2, 3, 4], "reject-newest keeps the early arrivals");

        let oldest = run_with(ShedPolicy::RejectOldest);
        assert_eq!((oldest.shed, oldest.outcomes.len()), (5, 5));
        let survivors: Vec<usize> = oldest.outcomes.iter().map(|o| o.user).collect();
        assert_eq!(survivors, vec![0, 6, 7, 8, 9], "reject-oldest keeps the fresh arrivals");
    }

    #[test]
    fn codel_sheds_entries_that_outstayed_the_target_at_dequeue() {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane::new(clock.clone());
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        // Every queued arrival waits ≥ 1500 ns (the first completion),
        // far past the 100 ns sojourn target: CoDel sheds them all at
        // dequeue and only the immediately admitted instance completes.
        let cfg = queue_only(1, 64, ShedPolicy::CoDel { target_ns: 100 });
        let run = open(pipeline_spec(), 1, 10)
            .run_overloaded(&mut plane, &clock, &mut res, &mut policy, None, None, &cfg)
            .unwrap();
        assert_eq!(run.outcomes.len(), 1);
        assert_eq!(run.shed, 9);
        assert_eq!(run.completed(), 1);
        assert_eq!(run.arrivals, run.completed() + run.failed + run.deadline_exceeded + run.shed);
    }
}

//! Serverless platform substrate for the Roadrunner reproduction.
//!
//! Roadrunner is "a sidecar shim that lives alongside serverless
//! functions, allowing the container orchestration tool to manage
//! scalability" (paper §3.2.4). This crate is that surrounding platform:
//!
//! * [`bundle`] — OCI-style function bundles (real Wasm binaries or
//!   container-image descriptors) with workflow/tenant annotations.
//! * [`registry`] — the control plane's catalog of bundles.
//! * [`scheduler`] — placement strategies; Roadrunner adapts to whatever
//!   they decide.
//! * [`deploy`] — live instances bound to nodes, with co-location
//!   queries.
//! * [`dag`] — first-class workflow DAGs (named nodes, payload-carrying
//!   edges, cycle/connectivity validation) generalizing the paper's
//!   sequence/fan-out/fan-in shapes.
//! * [`workflow`] — the execution engines over a pluggable
//!   [`workflow::DataPlane`]: a serial engine ([`workflow::execute`]) and
//!   a discrete-event concurrent engine ([`workflow::execute_concurrent`])
//!   that overlaps independent edges in virtual time, both with
//!   [`workflow::CompiledWorkflow`] fast paths
//!   ([`workflow::execute_compiled`], [`workflow::execute_compiled_at`])
//!   that hoist validation and topological sorting out of the
//!   per-execution loop.
//! * [`memo`] — [`memo::MemoizedPlane`], a deterministic transfer-cost
//!   memo over any [`workflow::DataPlane`]: identical edges replay their
//!   recorded outcome (bytes, timing, virtual-clock advance) instead of
//!   recomputing codec and cost-model work.
//! * [`loadgen`] — multi-tenant load generation and the elastic control
//!   loop: open-loop, closed-loop and multi-tenant drivers over one
//!   completion-event engine (each with a plain `run` and a full-stack
//!   `run_overloaded`), instances placed per arrival by a
//!   [`scheduler::PlacementPolicy`] observing the live
//!   [`ResourceView`](roadrunner_vkernel::ResourceView), optional
//!   cold-start admission, and a backlog-driven [`loadgen::Autoscaler`]
//!   resizing capacity mid-run.
//! * [`warmpool`] — warm-instance management for cold-start admission:
//!   a deterministic per-(function, node) [`warmpool::WarmPool`] with
//!   snapshot-restore tiering, keep-alive eviction
//!   ([`warmpool::KeepAlive`]: fixed TTL or hybrid histogram), and the
//!   predictive pre-warming target the [`loadgen::Autoscaler`] staffs
//!   via square-root staffing.
//! * [`overload`] — the overload-control layer: per-instance deadlines,
//!   deterministic per-(tenant, function, node) retry budgets and
//!   circuit breakers, and the bounded-queue shedding policies the load
//!   engine applies at admission. All knobs default off; breakers steer
//!   placement through the `ResourceView` backlog seam.
//! * [`metrics`] — sample collection, summaries, latency percentile
//!   digests (exact nearest-rank and streaming P²) and multi-seed
//!   [`metrics::Replicated`] summaries with order-statistic confidence
//!   intervals for the harness.
//! * [`mod@sweep`] — the parallel sweep engine: a scoped-thread worker pool
//!   fanning a declarative [`sweep::SweepGrid`] (rates × payloads ×
//!   policies × seeds) across cores, merging results in deterministic
//!   grid order so parallel output is byte-identical to the serial
//!   loop.
//!
//! ```
//! use roadrunner_platform::bundle::FunctionBundle;
//! use roadrunner_platform::deploy::Deployment;
//! use roadrunner_platform::registry::FunctionRegistry;
//! use roadrunner_platform::scheduler::Pinned;
//!
//! # fn main() -> Result<(), roadrunner_platform::PlatformError> {
//! let registry = FunctionRegistry::new();
//! registry.register(FunctionBundle::wasm("fn-a", vec![0, 97, 115, 109]));
//! registry.register(FunctionBundle::wasm("fn-b", vec![0, 97, 115, 109]));
//!
//! let scheduler = Pinned::new(0).pin("fn-b", 1);
//! let mut deployment = Deployment::new(2);
//! deployment.deploy(&registry, &scheduler, "fn-a")?;
//! deployment.deploy(&registry, &scheduler, "fn-b")?;
//! assert!(!deployment.colocated("fn-a", "fn-b"));
//! # Ok(())
//! # }
//! ```

pub mod bundle;
pub mod dag;
pub mod deploy;
pub mod error;
pub mod loadgen;
pub mod memo;
pub mod metrics;
pub mod overload;
pub mod registry;
pub mod scheduler;
pub mod sweep;
pub mod warmpool;
pub mod workflow;

pub use bundle::{BundleKind, FunctionBundle, Manifest};
pub use dag::WorkflowDag;
pub use deploy::{DeployedFunction, Deployment};
pub use error::PlatformError;
pub use loadgen::{
    ArrivalProcess, Autoscaler, AutoscalerConfig, ClosedLoop, FailurePlan, InstanceOutcome,
    LoadRun, MultiLoad, NodeKill, OpenLoop, PrewarmConfig, ScaleAction, ScaleEvent, TenantLoad,
    TenantStats,
};
pub use warmpool::{AdmissionConfig, Admitted, KeepAlive, PoolStats, WarmPool, WarmPoolConfig};
pub use metrics::{
    percentiles, percentiles_sorted, replicate, MetricsCollector, P2Quantile, PercentileSummary,
    Replicated, ReplicatedStat, Sample, StreamingPercentiles, Summary, STREAMING_EXACT_MAX,
};
pub use overload::{
    BreakerConfig, OverloadConfig, OverloadState, QueueConfig, RetryBudgetConfig, ShedPolicy,
    RETRY_COST_MILLITOKENS,
};
pub use registry::FunctionRegistry;
pub use scheduler::{
    LocalityFirst, PackThenSpill, Pinned, Placement, PlacementPolicy, RoundRobin, Scheduler,
    SpreadLoad,
};
pub use memo::MemoizedPlane;
pub use sweep::{
    available_workers, parallel_map, run_jobs, sweep, SweepGrid, SweepMode, SweepPoint,
};
pub use workflow::{
    critical_path_ns, execute, execute_compiled, execute_compiled_at, execute_concurrent,
    CompiledWorkflow, DataPlane, EdgeResult, RetryPolicy, TransferTiming, WorkflowRun,
    WorkflowSpec,
};

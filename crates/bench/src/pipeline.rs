//! The shared `src → relay → sink` pipeline fixture of the load benches
//! (fig12–fig16 and `bench_engine`), plus the Roadrunner bundle helper
//! every bench deploys its guests with.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_platform::{execute, execute_concurrent, DataPlane, FunctionBundle, WorkflowSpec};
use roadrunner_vkernel::{Nanos, SchedResources, Testbed};
use roadrunner_wasm::encode;

/// The three-function pipeline every load bench drives.
pub fn spec() -> WorkflowSpec {
    WorkflowSpec::sequence(
        "pipeline",
        "bench",
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    )
}

/// A Roadrunner Wasm bundle for function `name`, annotated with
/// `workflow` and the bench tenant.
pub fn rr_bundle(
    name: &str,
    module: roadrunner_wasm::Module,
    workflow: &str,
) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow(workflow)
            .with_tenant("bench"),
    )
}

/// Deploys the Roadrunner pipeline with `src`, `relay` and `sink` on
/// `nodes[0]`, `nodes[1]` and `nodes[2]`, its bundles annotated with
/// `workflow`.
pub fn roadrunner_plane(bed: &Arc<Testbed>, nodes: [usize; 3], workflow: &str) -> RoadrunnerPlane {
    let mut plane = RoadrunnerPlane::new(
        Arc::clone(bed),
        ShimConfig::default().with_load_costs(false),
    );
    let functions = [
        ("src", guest::producer(), "produce", false),
        ("relay", guest::relay(), "relay", false),
        ("sink", guest::consumer(), "consume", true),
    ];
    for ((name, module, handler, returns), node) in functions.into_iter().zip(nodes) {
        plane
            .deploy(
                node,
                name,
                rr_bundle(name, module, workflow),
                handler,
                returns,
            )
            .expect("deploy pipeline function");
    }
    plane
}

/// Warms `plane` with one discarded serial run, so lazy connection
/// establishment stays out of every measured comparison, then returns
/// one instance's uncontended concurrent makespan on the empty `fresh`
/// timelines — the lower bound no instance under load may beat.
pub fn uncontended(
    plane: &mut dyn DataPlane,
    bed: &Testbed,
    payload: &Bytes,
    mut fresh: SchedResources,
) -> Nanos {
    let workflow = spec();
    execute(plane, bed.clock(), &workflow, payload.clone()).expect("warmup run");
    execute_concurrent(plane, bed.clock(), &workflow, payload.clone(), &mut fresh)
        .expect("uncontended run")
        .total_latency_ns
}

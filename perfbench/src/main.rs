//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <edge_small|edge_large|cluster_open|cluster_overload> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates the workload's inputs from `--seed`, sets the
//! workload up [`SETUPS`] times (reporting the median as `setup_s`),
//! then repeats passes over the same inputs until `--seconds` have
//! elapsed. Every pass checks every output and signs the virtual
//! outputs; all passes must produce the same signature. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run spends half its
//! time untraced and half traced, writes the spans as Chrome
//! trace-event JSON and a self-time table under `perfbench/out/`, and
//! reports the tracing overhead between its two halves.
//!
//! Metric names starting with `virt_` (or containing `.virt_`) are on
//! the simulator's deterministic virtual clock; every other time is host
//! wall-clock. `perfbench/README.md` documents each workload and metric.

mod cluster;
mod edge;
mod timed;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use util::{median, peak_rss_mb, Sig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The end-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 11] = [
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virt_latency_p50_ms", "ms"),
    ("virt_latency_tail_ms", "ms"),
    ("virt_goodput_rps", "1/s"),
    ("virt_max_rate_rps", "1/s"),
    ("latency_cut_vs_wasmedge", "ratio"),
    ("overhead_cut_vs_wasmedge", "ratio"),
    ("cpu_cut_vs_wasmedge", "ratio"),
    ("ram_cut_vs_wasmedge", "ratio"),
];

/// The per-layer metrics, with units. Host-time `_s` metrics are the
/// self time of the span of the same name.
const PER_LAYER: [(&str, &str); 54] = [
    ("serial.synthetic_s", "s"),
    ("serial.synthetic_mb", "MB"),
    ("wasm.module_build_s", "s"),
    ("core.deploy_s", "s"),
    ("core.first_call_s", "s"),
    ("core.inject_s", "s"),
    ("core.transfer_s.user", "s"),
    ("core.transfer_s.kernel", "s"),
    ("core.transfer_s.network", "s"),
    ("core.teardown_s", "s"),
    ("core.virt_prepare_ms", "ms"),
    ("core.virt_transfer_ms", "ms"),
    ("core.virt_consume_ms", "ms"),
    ("baselines.establish_s.runc", "s"),
    ("baselines.establish_s.wasmedge", "s"),
    ("baselines.first_call_s", "s"),
    ("baselines.transfer_s.runc", "s"),
    ("baselines.transfer_s.wasmedge", "s"),
    ("baselines.virt_serialize_ms", "ms"),
    ("baselines.virt_deserialize_ms", "ms"),
    ("baselines.virt_wasm_io_ms", "ms"),
    ("vkernel.testbed_build_s", "s"),
    ("vkernel.telemetry_s", "s"),
    ("vkernel.virt_user_cpu_ms", "ms"),
    ("vkernel.virt_kernel_cpu_ms", "ms"),
    ("vkernel.virt_ram_peak_mb", "MB"),
    ("vkernel.virt_cpu_util", "ratio"),
    ("vkernel.virt_link_util", "ratio"),
    ("platform.calibrate_s", "s"),
    ("platform.loadgen_self_s", "s"),
    ("platform.memo_self_s", "s"),
    ("platform.plane_s", "s"),
    ("platform.memo.hits", "count"),
    ("platform.memo.misses", "count"),
    ("platform.memo.bypasses", "count"),
    ("platform.memo.hit_ratio", "ratio"),
    ("platform.sweep.cells", "count"),
    ("platform.sweep.busy_s", "s"),
    ("platform.sweep.idle_s", "s"),
    ("platform.virt_retries", "count"),
    ("platform.virt_shed", "count"),
    ("platform.virt_deadline_exceeded", "count"),
    ("platform.virt_failed", "count"),
    ("platform.virt_cold_start_ms", "ms"),
    ("platform.pool.hit_ratio", "ratio"),
    ("platform.pool.evictions", "count"),
    ("platform.pool.prewarms", "count"),
    ("platform.scale_events", "count"),
    ("bench.verify_s", "s"),
    ("bench.reference_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.tail_pct", "pct"),
];

/// Named metric values.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Verified instances completed.
    pub instances: u64,
    /// Operations attempted (transfers, arrivals, checks).
    pub attempted: u64,
    /// Operations that failed their check, returned `Err` or panicked.
    pub failed: u64,
    /// FNV signature over the pass's virtual outputs.
    pub sig: Sig,
}

pub trait Workload {
    /// One pass over the workload's fixed, seed-generated inputs.
    fn pass(&mut self) -> PassOut;
    /// Virtual-clock metrics (end-to-end and per-layer) from the first
    /// pass, plus the per-layer counts of the latest pass.
    fn metrics(&self) -> Metrics;
    /// Runs one cell with and without the timing adapters and reports
    /// whether the virtual outputs matched (workloads without adapters
    /// have nothing to check).
    fn adapter_check(&mut self) -> Option<bool> {
        None
    }
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// A fresh operation id for the span recorder.
pub fn next_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "edge_small" => Box::new(edge::small_setup(seed)),
        "edge_large" => Box::new(edge::large_setup(seed)),
        "cluster_open" => Box::new(cluster::open_setup(seed)),
        "cluster_overload" => Box::new(cluster::overload_setup(seed)),
        _ => return None,
    })
}

/// Passes over the inputs until `seconds` have elapsed (at least one).
struct Phase {
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    sig: Option<Sig>,
    consistent: bool,
}

impl Phase {
    fn instances_per_s(&self) -> f64 {
        median(&self.rates)
    }
}

/// Returns the heap memory freed by a pass to the OS before the next
/// one starts, outside the pass's timing. Without it the peak RSS of
/// `cluster_overload`, whose passes build and drop deployments on fresh
/// sweep threads, depended on how glibc happened to assign its arenas to
/// those threads: identical runs peaked at 154 MB or at 240 MB.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free heap pages; it takes
        // no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn run_phase(w: &mut dyn Workload, seconds: f64) -> Phase {
    let mut phase = Phase {
        rates: Vec::new(),
        attempted: 0,
        failed: 0,
        sig: None,
        consistent: true,
    };
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let (out, secs) = {
            let _s = trace::span("bench.pass");
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.pass()));
            let secs = t.elapsed().as_secs_f64();
            release_free_memory();
            (out, secs)
        };
        match out {
            Ok(out) => {
                phase.rates.push(out.instances as f64 / secs);
                phase.attempted += out.attempted;
                phase.failed += out.failed;
                // Every pass replays the same inputs: the virtual outputs
                // must sign identically.
                phase.consistent &= *phase.sig.get_or_insert(out.sig) == out.sig;
            }
            Err(_) => {
                phase.attempted += 1;
                phase.failed += 1;
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return phase;
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for k in 0..SETUPS {
        // Only the last set-up is traced: its spans feed the set-up
        // layers of the per-layer table.
        trace::set_enabled(args.trace && k + 1 == SETUPS);
        drop(workload.take());
        let t = Instant::now();
        workload = setup(&args.workload, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        if workload.is_none() {
            eprintln!("perfbench: unknown workload `{}`", args.workload);
            std::process::exit(2);
        }
    }
    trace::set_enabled(false);
    let setup_spans = trace::take();
    let mut w = workload.expect("set up");

    let mut attempted = 0;
    let mut failed = 0;
    if let Some(same) = w.adapter_check() {
        attempted += 1;
        failed += u64::from(!same);
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let phase = if args.trace {
        let untraced = run_phase(w.as_mut(), args.seconds / 2.0);
        trace::set_enabled(true);
        let traced = run_phase(w.as_mut(), args.seconds / 2.0);
        trace::set_enabled(false);
        let spans = trace::take();
        let same_sig = untraced.sig == traced.sig && untraced.consistent;
        attempted += untraced.attempted + 1;
        failed += untraced.failed + u64::from(!same_sig);
        let overhead = 1.0 - traced.instances_per_s() / untraced.instances_per_s();
        let layers = layer_metrics(&setup_spans, &spans, w.metrics(), overhead);
        write_trace(&args, &setup_spans, &spans, &layers);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layers.get(name)));
        }
        traced
    } else {
        let phase = run_phase(w.as_mut(), args.seconds);
        let mut m = w.metrics();
        m.put("instances_per_s", phase.instances_per_s());
        m.put("setup_s", median(&setups));
        m.put("peak_rss_mb", peak_rss_mb());
        for (name, unit) in END_TO_END {
            metrics.push((name, unit, m.get(name)));
        }
        phase
    };
    attempted += phase.attempted;
    failed += phase.failed;
    let correct = failed == 0 && phase.consistent;

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            eprintln!("{:<34} {:>16.6} {unit}", name, value);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    let rates: Vec<String> = phase.rates.iter().map(|r| format!("{r:.1}")).collect();
    eprintln!(
        "workload {} seed {} signature {:016x} pass rates [{}]",
        args.workload,
        args.seed,
        phase.sig.map_or(0, |s| s.0),
        rates.join(" ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Per-layer metrics: span self times from the traced set-up and phase,
/// plus the workload's virtual and count metrics.
fn layer_metrics(
    setup_spans: &[trace::Span],
    spans: &[trace::Span],
    virt: Metrics,
    overhead: f64,
) -> Metrics {
    let mut m = virt;
    let mut all = setup_spans.to_vec();
    all.extend_from_slice(spans);
    let own = trace::self_seconds(&all);
    for (name, unit) in PER_LAYER {
        if unit == "s" {
            if let Some(&v) = own.get(name) {
                m.put(name, v);
            }
        }
    }
    // The sweep's wall span only waits on its workers: busy time is the
    // cells' time, idle time the rest of the workers' share of the wall.
    let dur = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_ns() as f64 / 1e9)
    };
    let busy = dur("bench.cell");
    m.put("platform.sweep.busy_s", busy);
    m.put(
        "platform.sweep.idle_s",
        (dur("platform.sweep_wall") * cluster::WORKERS as f64 - busy).max(0.0),
    );
    // Time inside a pass or a cell that no layer span covers.
    let phase_own = trace::self_seconds(spans);
    let unattributed = phase_own.get("bench.pass").copied().unwrap_or(0.0)
        + phase_own.get("bench.cell").copied().unwrap_or(0.0);
    let host: f64 = phase_own
        .iter()
        .filter(|(n, _)| **n != "platform.sweep_wall")
        .map(|(_, v)| v)
        .sum();
    m.put("bench.unattributed_s", unattributed);
    m.put("bench.unattributed_share", unattributed / host.max(1e-9));
    m.put("bench.trace_overhead", overhead);
    m.put(
        "serial.synthetic_mb",
        edge::SYNTHETIC_BYTES.load(Ordering::Relaxed) as f64 / 1e6,
    );
    m
}

/// Writes the Chrome trace (capped) and the self-time table.
fn write_trace(args: &Args, setup_spans: &[trace::Span], spans: &[trace::Span], layers: &Metrics) {
    const MAX_SPANS: usize = 200_000;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut all: Vec<trace::Span> = setup_spans
        .iter()
        .chain(spans)
        .take(MAX_SPANS)
        .cloned()
        .collect();
    all.sort_by_key(|s| s.start_ns);
    let _ = std::fs::write(
        dir.join(format!("{stem}.trace.json")),
        trace::chrome_json(&all),
    );
    let table: String = PER_LAYER
        .iter()
        .map(|(name, unit)| format!("{name:<34} {:>16.6} {unit}\n", layers.get(name)))
        .collect();
    let _ = std::fs::write(dir.join(format!("{stem}.layers.txt")), table);
}

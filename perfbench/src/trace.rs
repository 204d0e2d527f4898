//! In-memory span recorder.
//!
//! The benchmark wraps each of its own calls into a crate's public
//! functions in a [`span`]. A span records its name, host start and end
//! (nanoseconds since the recorder's epoch), the span that was open on
//! the same thread when it started (its parent), the recording thread,
//! and the operation id shared by every span of one benchmark
//! operation. Spans stay in memory and are only turned into the
//! per-layer self-time table and the Chrome trace-event JSON when the
//! run ends.
//!
//! Recording is off by default; a disabled [`span`] returns an inert
//! guard without reading the clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// Id of the span open on the same thread at start; 0 for a root.
    pub parent: u64,
    /// Operation id shared by one operation's spans; 0 outside any.
    pub op: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Set inside an [`opaque`] span: nested spans are not recorded.
    static OPAQUE: Cell<bool> = const { Cell::new(false) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Host nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SINK.lock().expect("span sink"))
}

/// An open span; closes (and is recorded) when dropped.
pub struct Guard {
    open: Option<(&'static str, u64, u64, u64)>,
}

/// Opens a span named `name` on the current thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() || OPAQUE.with(Cell::get) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        open: Some((name, id, parent, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((name, id, parent, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.truncate(pos);
                }
            });
            let span = Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                op: OP.with(Cell::get),
                thread: THREAD.with(|t| *t),
            };
            SINK.lock().expect("span sink").push(span);
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

/// Runs `f` inside a span named `name` that records no nested spans, so
/// the whole call is that span's self time. Set-up steps that reuse the
/// measured code paths (warm-up calls, reference transfers) use it to
/// keep their time out of the timed layers.
pub fn opaque<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    let prev = OPAQUE.with(|o| o.replace(true));
    let out = f();
    OPAQUE.with(|o| o.set(prev));
    out
}

/// Runs `f` as operation `op`: every span it opens on this thread
/// carries that id.
pub fn in_op<R>(op: u64, f: impl FnOnce() -> R) -> R {
    let prev = OP.with(|o| o.replace(op));
    let out = f();
    OP.with(|o| o.set(prev));
    out
}

/// Self time per span name in seconds: each span's duration minus the
/// part its children on the same thread cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

/// Chrome trace-event JSON (complete `"X"` events, microseconds), as
/// Perfetto and `chrome://tracing` open it.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread,
            s.id,
            s.parent,
            s.op,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, id: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            op: 1,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            at("a", 0, 100, 1, 0),
            at("b", 10, 40, 2, 1),
            at("b", 50, 70, 3, 1),
        ];
        let t = self_seconds(&spans);
        assert!((t["a"] - 50e-9).abs() < 1e-15);
        assert!((t["b"] - 50e-9).abs() < 1e-15);
        assert!(chrome_json(&spans).contains("\"ph\":\"X\""));
    }
}

//! Deterministic virtual kernel and network simulator.
//!
//! The Roadrunner paper measures its system on a two-node testbed (4-core
//! 2 GHz VMs, 8 GB RAM, Ubuntu 22.04, a 100 Mbit/s link with 1 ms RTT) and
//! reads CPU and memory telemetry from cgroups. This crate substitutes that
//! testbed with a *virtual-time* simulator so the evaluation is
//! deterministic and laptop-runnable while still **actually moving every
//! payload byte** (so data integrity is testable end to end).
//!
//! The pieces:
//!
//! * [`VirtualClock`] — monotonically advancing virtual nanoseconds.
//! * [`CostModel`] — every calibrated parameter of the simulation in one
//!   documented struct ([`CostModel::paper_testbed`] reproduces the paper's
//!   environment).
//! * [`ResourceAccount`] — cgroup-style per-sandbox accounting: user-space
//!   CPU time, kernel-space CPU time, current/peak RAM. These are the raw
//!   series behind the paper's Fig. 7–10 panels (e)–(h).
//! * [`buffer`] — page-granular segmented buffers over [`bytes::Bytes`];
//!   zero-copy means *moving page references*, copies are real `memcpy`s.
//! * [`pipe`] — kernel pipes with `vmsplice` (page gifting from user
//!   memory) and `splice` (page moves between pipe and socket) — the
//!   building blocks of Roadrunner's virtual data hose (paper §4.3,
//!   Algorithm 1).
//! * [`unix`] — Unix-domain stream sockets, the kernel-space transfer
//!   mechanism (paper §4.2).
//! * [`tcp`] — a TCP-like byte stream between nodes with bandwidth and RTT
//!   from the link model.
//! * [`sched`] — discrete-event scheduling primitives (per-resource
//!   timelines, a deterministic event queue) that let the platform's DAG
//!   executor overlap independent workflow edges in virtual time while
//!   contended cores and links serialize.
//! * [`node`] / [`testbed`] — hosts, sandboxes and links wired into the
//!   paper's topology.
//! * [`cluster`] — N-node topologies beyond the paper's two-VM pair:
//!   heterogeneous nodes joined by a per-pair link mesh, built into the
//!   same [`Testbed`] everything else already runs on.
//! * [`outage`] — deterministic link/node up–down schedules that make
//!   the cluster fallible: timelines reject reservations during a down
//!   window so the platform's engines see transfer failures and retry.
//!
//! # Example
//!
//! ```
//! use roadrunner_vkernel::{CostModel, Testbed};
//!
//! let bed = Testbed::paper();
//! let sandbox = bed.node(0).sandbox("fn-a");
//! sandbox.charge_user(1_000);
//! assert_eq!(sandbox.user_ns(), 1_000);
//! assert_eq!(bed.cost().net_bandwidth_bps, CostModel::paper_testbed().net_bandwidth_bps);
//! ```

pub mod account;
pub mod buffer;
pub mod clock;
pub mod cluster;
pub mod costmodel;
pub mod error;
pub mod net;
pub mod node;
pub mod outage;
pub mod pipe;
pub mod sched;
pub mod tcp;
pub mod testbed;
pub mod unix;

pub use account::ResourceAccount;
pub use clock::VirtualClock;
pub use cluster::{ClusterSpec, LinkSpec, NodeSpec};
pub use costmodel::CostModel;
pub use error::VkError;
pub use net::Link;
pub use node::Node;
pub use outage::{OutageSchedule, OutageWindow};
pub use sched::{EventQueue, NodeView, ResourceView, SchedResources, Timeline};
pub use testbed::Testbed;

/// Virtual time in nanoseconds.
pub type Nanos = u64;

/// Converts virtual nanoseconds to floating-point seconds (for reports).
pub fn secs(ns: Nanos) -> f64 {
    ns as f64 / 1e9
}

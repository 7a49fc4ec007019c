//! Observability primitives for the DOCS service stack.
//!
//! The paper's headline figures are latency distributions (Figure 8(b) is
//! *worst-case* assignment time); operating the reproduction at
//! production scale needs the same distributions, live, at near-zero hot
//! path cost. This crate holds the pieces, free of any service policy so
//! every layer can depend on it:
//!
//! * [`hist`] — log-bucketed latency histograms: the single-threaded
//!   [`LatencyHistogram`] (bench harness bookkeeping) and the lock-free
//!   [`AtomicHistogram`] (shared hot-path recording, one relaxed
//!   `fetch_add` per sample), sharing one bucket geometry so service
//!   quantiles and harness quantiles can never drift.
//! * [`trace`] — sampled request tracing: a [`TraceContext`] rides a
//!   request's envelope and accumulates typed [`Span`]s (client submit →
//!   queue wait → apply → flush wait → ship); finished
//!   traces land in a bounded [`FlightRecorder`] harvestable as JSON.
//! * [`journal`] — the [`ControlJournal`]: timestamped, severity-tagged
//!   control-plane events (promotions, flush and snapshot failures,
//!   follower disconnects).
//! * [`expo`] — [`Exposition`]: renders one coherent snapshot of every
//!   counter/gauge/histogram as Prometheus text (`render_prometheus`)
//!   and JSON, with [`validate_prometheus`] for smoke assertions.

pub mod expo;
pub mod hist;
pub mod journal;
pub mod trace;

pub use expo::{validate_prometheus, Exposition, MetricKind};
pub use hist::{AtomicHistogram, LatencyHistogram};
pub use journal::{ControlJournal, JournalEntry, JournalKind, Severity};
pub use trace::{FlightRecorder, Span, SpanKind, Trace, TraceContext};

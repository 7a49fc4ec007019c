//! Request tracing: typed spans on sampled requests, collected into a
//! fixed-size flight recorder.
//!
//! A [`TraceContext`] rides the correlation-id envelope of a sampled
//! request. Each layer that touches the request closes a [`Span`] on it —
//! client submit, router hop, shard queue wait, validate/apply, flush
//! wait, replication ship — and when the completion is released the
//! finished [`Trace`] lands in the service's [`FlightRecorder`], a
//! bounded ring that keeps the most recent traces and can be harvested as
//! structured JSON at any time.
//!
//! Span timing is *contiguous by construction*: the context keeps one
//! `mark` instant, and every span covers `[previous mark, now]`. That
//! makes the span durations of one request sum to its end-to-end latency
//! (within the gaps a layer deliberately leaves unattributed), which is
//! the property `BENCH_obs.json` asserts: queue-wait + apply + flush-wait
//! + ship within 10% of the measured submit→completion time.

use docs_types::TraceId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

/// Where a request spent a slice of its life. One variant per pipeline
/// stage; the order here is the canonical pipeline order used by docs and
/// rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Client-side work before the envelope entered the ingress queue
    /// (encode, correlation allocation, channel send).
    ClientSubmit,
    /// A routing hop: the router consulted its map, or absorbed a
    /// `WrongNode` redirect and retried on the new owner.
    RouterHop,
    /// Sitting in the shard's bounded ingress queue before the shard
    /// thread picked the envelope up.
    QueueWait,
    /// Deterministic validate + event apply on the shard thread,
    /// including the WAL append (but not the batch fdatasync).
    Apply,
    /// Completion withheld while the adaptive group-commit batch waited
    /// for its fdatasync (the ack⇒durable deferral).
    FlushWait,
    /// Handing the durable events to the replication hub for fan-out.
    Ship,
}

impl SpanKind {
    /// All kinds in pipeline order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::ClientSubmit,
        SpanKind::RouterHop,
        SpanKind::QueueWait,
        SpanKind::Apply,
        SpanKind::FlushWait,
        SpanKind::Ship,
    ];

    /// Stable snake_case label used in JSON and the exposition.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ClientSubmit => "client_submit",
            SpanKind::RouterHop => "router_hop",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Apply => "apply",
            SpanKind::FlushWait => "flush_wait",
            SpanKind::Ship => "ship",
        }
    }
}

/// One closed span: a stage of the pipeline with its offset from the
/// trace origin and its duration, both in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// Start of the span, as nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Duration of the span in nanoseconds.
    pub dur_ns: u64,
}

/// A live trace riding one request envelope.
///
/// Created at submit time for sampled requests, carried through the
/// pipeline (boxed, so unsampled envelopes pay one null-pointer check),
/// and finished into a [`Trace`] when the completion is released.
#[derive(Debug, Clone)]
pub struct TraceContext {
    id: TraceId,
    origin: Instant,
    mark: Instant,
    spans: Vec<Span>,
}

impl TraceContext {
    /// Starts a trace now. `id` comes from the service's trace counter.
    pub fn start(id: TraceId) -> Self {
        let now = Instant::now();
        TraceContext {
            id,
            origin: now,
            mark: now,
            spans: Vec::with_capacity(SpanKind::ALL.len()),
        }
    }

    /// Closes a span covering everything since the previous mark (or the
    /// origin) and advances the mark to now. Layers call this at each
    /// hand-off point, which keeps spans contiguous.
    pub fn span(&mut self, kind: SpanKind) {
        let now = Instant::now();
        self.spans.push(Span {
            kind,
            start_ns: dur_ns(self.origin, self.mark),
            dur_ns: dur_ns(self.mark, now),
        });
        self.mark = now;
    }

    /// Finishes the trace: total latency is origin→now, spans as closed.
    pub fn finish(self) -> Trace {
        let total_ns = dur_ns(self.origin, Instant::now());
        Trace {
            id: self.id,
            total_ns,
            spans: self.spans,
        }
    }
}

#[inline]
fn dur_ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos().min(u64::MAX as u128) as u64
}

/// One finished request trace, as stored in the flight recorder.
#[derive(Debug, Clone)]
pub struct Trace {
    pub id: TraceId,
    /// End-to-end latency (trace origin → finish) in nanoseconds.
    pub total_ns: u64,
    pub spans: Vec<Span>,
}

impl Trace {
    /// Duration of the first span of `kind`, if the trace has one.
    pub fn span_ns(&self, kind: SpanKind) -> Option<u64> {
        self.spans.iter().find(|s| s.kind == kind).map(|s| s.dur_ns)
    }

    /// Sum of all span durations — compared against `total_ns` to check
    /// the trace accounts for (nearly) all of the request's latency.
    pub fn spans_sum_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_ns).sum()
    }

    /// Renders the trace as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 64);
        out.push_str(&format!(
            "{{\"trace_id\":{},\"total_ns\":{},\"spans\":[",
            self.id.0, self.total_ns
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.kind.name(),
                s.start_ns,
                s.dur_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Default flight-recorder capacity (most recent traces kept).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Bounded ring of the most recent finished traces.
///
/// Writes happen off the hot path — only *sampled* requests reach
/// [`FlightRecorder::record`], and even those touch the mutex once per
/// request at completion release, not per span. Harvesting clones the
/// ring, so readers never stall a shard thread.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<Trace>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder keeping the `capacity` most recent traces.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
        }
    }

    /// A recorder with [`DEFAULT_FLIGHT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Stores a finished trace, evicting the oldest at capacity.
    pub fn record(&self, trace: Trace) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the recorder holds no traces.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Copies out all held traces, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Renders every held trace as a JSON array.
    pub fn to_json(&self) -> String {
        let traces = self.snapshot();
        let mut out = String::from("[");
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push(']');
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_are_contiguous_and_sum_to_total() {
        let mut ctx = TraceContext::start(TraceId(7));
        std::thread::sleep(Duration::from_millis(2));
        ctx.span(SpanKind::QueueWait);
        std::thread::sleep(Duration::from_millis(2));
        ctx.span(SpanKind::Apply);
        let trace = ctx.finish();
        assert_eq!(trace.id, TraceId(7));
        assert_eq!(trace.spans.len(), 2);
        // Each span starts where the previous ended.
        assert_eq!(trace.spans[0].start_ns, 0);
        assert_eq!(
            trace.spans[1].start_ns,
            trace.spans[0].start_ns + trace.spans[0].dur_ns
        );
        // Spans cover the whole trace up to the finish call itself.
        assert!(trace.spans_sum_ns() <= trace.total_ns);
        assert!(trace.spans_sum_ns() >= trace.total_ns / 2);
        assert!(trace.span_ns(SpanKind::Apply).unwrap() >= 1_000_000);
    }

    #[test]
    fn recorder_is_a_bounded_ring() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.record(TraceContext::start(TraceId(i)).finish());
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        let ids: Vec<u64> = snap.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest traces evicted first");
    }

    #[test]
    fn json_rendering_names_every_span() {
        let mut ctx = TraceContext::start(TraceId(9));
        for kind in SpanKind::ALL {
            ctx.span(kind);
        }
        let json = ctx.finish().to_json();
        assert!(json.starts_with("{\"trace_id\":9,"));
        for kind in SpanKind::ALL {
            assert!(json.contains(kind.name()), "missing {}", kind.name());
        }
    }
}

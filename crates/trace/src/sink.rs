//! Trace sinks: where cycle-stamped events go.
//!
//! The machine holds an `Option<Box<dyn TraceSink>>` and emits nothing
//! when it is `None` — the disabled path takes no snapshots, formats no
//! strings, and allocates nothing, so tracing compiled in but off is
//! observationally inert.

use std::any::Any;
use std::collections::HashMap;

use ctbia_sim::HierarchyStats;

use crate::event::{add_assign_stats, EventKind, MemOp, TraceRecord};
use crate::phase::LinearizeStats;

/// Receives every trace event, in emission order.
///
/// Implementations must be deterministic functions of the event stream:
/// no wall-clock reads, no randomness — the golden-trace suite asserts
/// byte-identical output across serial and parallel sweep execution.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Observe one event.
    fn record(&mut self, ev: &TraceRecord);

    /// Recover the concrete sink type after the machine hands the boxed
    /// sink back (see `Machine::take_trace_sink`).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Buffers the canonical JSONL form of every event, one line per event.
///
/// The sink owns a `String` rather than a file handle so that trace
/// generation stays I/O-free and deterministic; callers write the buffer
/// to disk (or diff it against a golden fixture) afterwards.
#[derive(Debug, Default)]
pub struct JsonlSink {
    buf: String,
    lines: u64,
}

impl JsonlSink {
    /// An empty JSONL buffer.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The buffered JSONL document (newline-terminated lines).
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consume the sink, returning the buffered JSONL document.
    pub fn into_string(self) -> String {
        self.buf
    }

    /// Number of lines (= events) buffered.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceRecord) {
        ev.write_jsonl(&mut self.buf);
        self.buf.push('\n');
        self.lines += 1;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Aggregates the event stream into totals that reconcile exactly with
/// the machine's counter snapshot (enforced by the property suite).
#[derive(Debug, Default)]
pub struct MetricsSink {
    /// Total events observed.
    pub events: u64,
    /// Demand accesses per [`MemOp`] (indexed by [`MemOp::index`]).
    pub op_counts: [u64; 6],
    /// Sum of every event's hierarchy-statistics delta.
    pub hier: HierarchyStats,
    /// `CTLoad` micro-ops observed.
    pub ct_loads: u64,
    /// `CTStore` micro-ops observed.
    pub ct_stores: u64,
    /// CT micro-ops served in degraded (zeroed) mode.
    pub ct_degraded: u64,
    /// Linearization-pass aggregates.
    pub linearize: LinearizeStats,
    /// Groups demoted to full linearization.
    pub degrades: u64,
    /// Divergent groups repaired by auditor resyncs.
    pub resync_violations: u64,
    /// Clean-batch re-promotion events (one per resync, regardless of
    /// how many groups the batch re-promoted).
    pub repromotes: u64,
    /// Faults injected into the BIA event stream.
    pub faults_injected: u64,
    /// Wrong-path demand accesses observed inside speculation windows.
    pub spec_accesses: u64,
    /// Sum of the cycles charged to the speculative phase by those
    /// accesses (reconciles exactly with `phases.speculative`).
    pub spec_cycles: u64,
    /// Squash events (one per misprediction whose window was drained).
    pub squashes: u64,
    hot_lines: HashMap<u64, u64>,
}

impl MetricsSink {
    /// An empty aggregator.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Demand accesses observed for `op`.
    pub fn op_count(&self, op: MemOp) -> u64 {
        self.op_counts[op.index()]
    }

    /// The `n` most-accessed cache lines as `(line, accesses)`, ordered
    /// by access count descending, then line address ascending (a total
    /// order, so the report is deterministic).
    pub fn hottest_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.hot_lines.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Number of distinct lines touched by demand or CT accesses.
    pub fn distinct_lines(&self) -> usize {
        self.hot_lines.len()
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, ev: &TraceRecord) {
        self.events += 1;
        match &ev.kind {
            EventKind::Access {
                op, line, delta, ..
            } => {
                self.op_counts[op.index()] += 1;
                add_assign_stats(&mut self.hier, delta);
                *self.hot_lines.entry(*line).or_insert(0) += 1;
            }
            EventKind::CtOp {
                store,
                line,
                degraded,
                delta,
                ..
            } => {
                if *store {
                    self.ct_stores += 1;
                } else {
                    self.ct_loads += 1;
                }
                if *degraded {
                    self.ct_degraded += 1;
                }
                add_assign_stats(&mut self.hier, delta);
                *self.hot_lines.entry(*line).or_insert(0) += 1;
            }
            EventKind::LinearizePass {
                skipped, fetched, ..
            } => {
                self.linearize.passes += 1;
                self.linearize.lines_skipped += u64::from(*skipped);
                self.linearize.lines_fetched += u64::from(*fetched);
            }
            EventKind::Degrade { .. } => self.degrades += 1,
            EventKind::Resync { violations } => self.resync_violations += violations,
            EventKind::Repromote { .. } => self.repromotes += 1,
            EventKind::Faults { injected } => self.faults_injected += injected,
            EventKind::SpecAccess {
                line,
                cycles,
                delta,
                ..
            } => {
                self.spec_accesses += 1;
                self.spec_cycles += cycles;
                add_assign_stats(&mut self.hier, delta);
                *self.hot_lines.entry(*line).or_insert(0) += 1;
            }
            EventKind::Squash { .. } => self.squashes += 1,
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Fans every event out to two sinks (e.g. JSONL capture + aggregation
/// in a single run). Nest for wider fan-out.
#[derive(Debug)]
pub struct TeeSink<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A: TraceSink, B: TraceSink> TeeSink<A, B> {
    /// Fan out to `a` and `b`, in that order.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: TraceSink + 'static, B: TraceSink + 'static> TraceSink for TeeSink<A, B> {
    fn record(&mut self, ev: &TraceRecord) {
        self.a.record(ev);
        self.b.record(ev);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(cycle: u64, line: u64) -> TraceRecord {
        let mut delta = HierarchyStats::default();
        delta.l1d.reads = 1;
        delta.l1d.hits = 1;
        TraceRecord {
            cycle,
            kind: EventKind::Access {
                op: MemOp::Load,
                line,
                hit_level: ctbia_sim::Level::L1d,
                latency: 1,
                cycles: 1,
                delta,
            },
        }
    }

    #[test]
    fn jsonl_sink_is_line_per_event() {
        let mut s = JsonlSink::new();
        s.record(&access(1, 10));
        s.record(&access(2, 11));
        assert_eq!(s.lines(), 2);
        let text = s.into_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert!(text.starts_with("{\"c\":1,"));
    }

    #[test]
    fn metrics_sink_aggregates_and_ranks() {
        let mut s = MetricsSink::new();
        s.record(&access(1, 10));
        s.record(&access(2, 10));
        s.record(&access(3, 11));
        s.record(&TraceRecord {
            cycle: 4,
            kind: EventKind::CtOp {
                store: false,
                line: 11,
                bitmap: 3,
                cycles: 3,
                degraded: true,
                delta: HierarchyStats::default(),
            },
        });
        s.record(&TraceRecord {
            cycle: 5,
            kind: EventKind::LinearizePass {
                store: false,
                software: false,
                group: 0,
                ds_lines: 8,
                skipped: 6,
                fetched: 2,
            },
        });
        s.record(&TraceRecord {
            cycle: 6,
            kind: EventKind::Faults { injected: 4 },
        });
        assert_eq!(s.events, 6);
        assert_eq!(s.op_count(MemOp::Load), 3);
        assert_eq!(s.hier.l1d.reads, 3);
        assert_eq!(s.ct_loads, 1);
        assert_eq!(s.ct_degraded, 1);
        assert_eq!(s.linearize.passes, 1);
        assert_eq!(s.linearize.lines_skipped, 6);
        assert_eq!(s.faults_injected, 4);
        // line 10 and 11 both have 2 accesses -> tie broken by address.
        assert_eq!(s.hottest_lines(3), vec![(10, 2), (11, 2)]);
        assert_eq!(s.distinct_lines(), 2);
    }

    #[test]
    fn tee_feeds_both_and_downcasts() {
        let tee = TeeSink::new(JsonlSink::new(), MetricsSink::new());
        let mut boxed: Box<dyn TraceSink> = Box::new(tee);
        boxed.record(&access(7, 1));
        let tee = boxed
            .into_any()
            .downcast::<TeeSink<JsonlSink, MetricsSink>>()
            .unwrap();
        assert_eq!(tee.a.lines(), 1);
        assert_eq!(tee.b.events, 1);
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! A disabled tracer runs the closure and records nothing, so the
//! end-to-end run pays no tracing cost. An enabled tracer keeps every span
//! in memory; [`Tracer::to_json`] serialises them once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: which layer call, when, what caused it, and which cell
/// or request it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Per-cell or per-request id, shared by every span of that item.
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// to pass as the parent of nested spans (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        item: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let r = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            item,
            start_ns,
            end_ns,
        });
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval that its children cover (children of one span may run
    /// in parallel, so their union is what is subtracted).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children.get_mut(&s.id).map_or(0, |iv| union_len(iv));
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(covered);
        }
        out
    }

    /// The span file: every span plus the per-name self times.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"perfbench-spans-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.item, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"self_ns\":{");
        for (i, (name, ns)) in self.self_ns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{ns}");
        }
        out.push_str("}}\n");
        out
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, |id| id), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        let t = Tracer::new(true);
        t.span("outer", 0, 1, |p| {
            t.span("inner", p, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_ns();
        let outer = t.durations("outer")[0] as u64;
        let inner = t.durations("inner")[0] as u64;
        assert_eq!(own["outer"] + inner, outer);
        assert_eq!(own["inner"], inner);
        assert!(t.to_json("w", 1).contains("\"name\":\"inner\""));
    }
}

//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that caused it, and the request it served. A
//! disabled tracer records nothing and reads no clock, so the untraced
//! run times only whole decisions.

use crate::stats::{quantile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// The layer call this span wraps.
    name: &'static str,
    /// Start, in ns since the tracer's origin.
    start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    end_ns: u64,
    /// The enclosing span.
    parent: Option<usize>,
    /// The request this span served, if any.
    request: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting at `start`.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: Option<u64>,
        start: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes span `id` at `end`.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            let end_ns = self.ns(end);
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Records a complete span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.open(name, parent, request, start);
        self.close(id, end);
        id
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let value = f();
        self.record(name, parent, request, start, Instant::now());
        value
    }

    /// Self time of each span (its duration minus its children's), in ns.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Self times of every span named `name`, in ms.
    #[must_use]
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The spans as JSON lines: one object per span with its index.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        out
    }

    /// Per-layer table: calls, total and self time, self-time p50/p95.
    #[must_use]
    pub fn layer_table(&self) -> String {
        let own = self.self_times_ns();
        let mut layers: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            let entry = layers.entry(s.name).or_default();
            entry.0.push(ns as f64 / 1e6);
            entry.1 += s.duration_ns() as f64 / 1e6;
        }
        let all_self: f64 = layers.values().flat_map(|(v, _)| v).sum();
        let mut out = String::from(
            "| span | calls | total ms | self ms | self share | self p50 ms | self p95 ms |\n|---|---|---|---|---|---|---|\n",
        );
        for (name, (selfs, total)) in &layers {
            let self_sum: f64 = selfs.iter().sum();
            let _ = writeln!(
                out,
                "| {name} | {} | {total:.3} | {self_sum:.3} | {:.4} | {:.4} | {:.4} |",
                selfs.len(),
                ratio(self_sum, all_self),
                quantile(selfs, 0.5),
                quantile(selfs, 0.95)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let ms = |n| o + Duration::from_millis(n);
        let root = t.open("decision", None, Some(7), ms(0));
        t.record("plan", root, Some(7), ms(1), ms(4));
        t.record("allocate", root, Some(7), ms(4), ms(5));
        t.close(root, ms(10));
        assert_eq!(t.self_ms("decision"), vec![6.0]);
        assert_eq!(t.self_ms("plan"), vec![3.0]);
        assert!(t.to_jsonl().contains("\"parent\": 0, \"request\": 7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("decision", None, None, Instant::now());
        assert!(id.is_none());
        assert_eq!(t.scope("plan", id, None, || 3), 3);
        assert!(t.to_jsonl().is_empty());
    }
}

//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around each call it makes into a
//! layer (name, start, end, parent); spans of one trial or one replica
//! share a `trace_id`. Nothing inside the program is instrumented. A
//! layer's self time is its span's duration minus its children's, and the
//! self time of a root span is the part of the end-to-end wall time no
//! layer claimed: the `unattributed` figure.
//!
//! Span names come from the program's own vocabulary where it has one —
//! [`hawkeye_obs::Stage`] names for the analysis stages and the
//! [`hawkeye_obs::names`] counter names for daemon ops — so a trace and a
//! live daemon's `serve-stats` read side by side.

use hawkeye_obs::{emit::chrome_trace, TraceEvent, TraceRecord};
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub trace_id: u64,
    pub name: &'static str,
    /// Wall-clock ns since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder; a disabled tracer records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: SpanId,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next: 1,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread on this tracer's clock. Its ids start
    /// at `lane << 24`, so [`Tracer::merge`] keeps them unique.
    pub fn lane(&self, lane: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            t0: self.t0,
            next: (lane << 24) | 1,
            spans: Vec::new(),
        }
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Wall-clock ns since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span starting now.
    pub fn open(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now();
        self.add(name, trace_id, parent, now, now)
    }

    /// Close a span opened by [`Tracer::open`] at the current instant.
    pub fn close(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = now;
        }
    }

    /// Record a span whose bounds were measured elsewhere (for example a
    /// daemon-side stage duration placed inside the client's span).
    pub fn add(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            trace_id,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn child_ns(&self) -> BTreeMap<SpanId, u64> {
        let mut child: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child.entry(p).or_default() += s.dur_ns();
            }
        }
        child
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let child = self.child_ns();
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s
                .dur_ns()
                .saturating_sub(child.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Share (percent) of the `root` spans' wall time that no child span
    /// covers.
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        let t = self.totals().get(root).copied().unwrap_or_default();
        if t.total_ns == 0 {
            return 0.0;
        }
        100.0 * t.self_ns as f64 / t.total_ns as f64
    }

    /// Chrome trace-event JSON, through the program's own emitter: each
    /// span becomes a complete event on the trace's analysis row.
    pub fn chrome(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let records: Vec<TraceRecord> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| TraceRecord {
                seq: i as u64,
                at_ns: s.start_ns,
                event: TraceEvent::StageSpan {
                    stage: s.name.to_string(),
                    from_ns: s.start_ns,
                    to_ns: s.end_ns,
                },
            })
            .collect();
        chrome_trace(&records)
    }

    /// One JSON object per span, with ids, parents and self time — the
    /// structure the Chrome view flattens away.
    pub fn jsonl(&self) -> String {
        let child = self.child_ns();
        let mut out = String::new();
        for s in &self.spans {
            let v = Value::Object(vec![
                ("id".into(), Value::UInt(u64::from(s.id))),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                ),
                ("trace".into(), Value::UInt(s.trace_id)),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                (
                    "self_ns".into(),
                    Value::UInt(
                        s.dur_ns()
                            .saturating_sub(child.get(&s.id).copied().unwrap_or(0)),
                    ),
                ),
            ]);
            out.push_str(&serde_json::to_string(&v).expect("span serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.add("trial", 7, None, 0, 100);
        t.add("sim.run", 7, root, 10, 70);
        t.add("graph_build", 7, root, 70, 90);
        let totals = t.totals();
        assert_eq!(totals["trial"].self_ns, 20);
        assert_eq!(totals["sim.run"].self_ns, 60);
        assert!((t.unattributed_pct("trial") - 20.0).abs() < 1e-9);
        assert!(t.chrome().contains("\"sim.run\""));
        assert_eq!(t.jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("trial", 1, None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}

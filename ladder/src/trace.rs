//! In-memory spans and counters for the traced run.
//!
//! Spans nest (workload → job → pass → end-of-pass evaluation, and the
//! flow's finish step after the last pass); each records its name, its
//! parent and its start and end relative to the trace origin. Nothing is
//! written while the run measures: the spans stay in memory and are rendered
//! once the run ends. Counters (evaluator runs, cache hits and misses,
//! committed rounds) are kept apart from times so they can be compared
//! exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `job`, `pipeline.TWSZ`, `sim.post_pass_eval`.
    pub name: String,
    /// Index of the enclosing span, `None` for a root span.
    pub parent: Option<usize>,
    /// Start, seconds since the trace origin.
    pub start: f64,
    /// End, seconds since the trace origin (equal to `start` while open).
    pub end: f64,
}

impl Span {
    /// The span's wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span stack plus named counters.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let now = self.now();
        let parent = self.open.last().copied();
        let id = self.record(name, parent, now, now);
        self.open.push(id);
        id
    }

    /// Closes span `id` and every span opened inside it that is still open
    /// (a pass that returns an error leaves its children open).
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} was not open");
    }

    /// Records a span `[start, end]` (seconds since the origin) under
    /// `parent` without touching the open-span stack; [`Trace::begin`]
    /// builds on it, and the self-tests use it to lay out exact intervals.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The value of counter `name` (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = span.start;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    let hi = hi.min(span.end);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                span.duration() - covered
            })
            .collect()
    }

    /// Summed self time of the spans called `name`.
    pub fn total_self(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .fold(0.0, |a, b| a + b)
    }

    /// Per-name totals (count, duration, self time), sorted by self time,
    /// as a text table for stderr.
    pub fn render(&self) -> String {
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let row = rows.entry(span.name.as_str()).or_default();
            row.0 += 1;
            row.1 += span.duration();
            row.2 += own;
        }
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = format!(
            "{:<24} {:>7} {:>12} {:>12}\n",
            "span", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in rows {
            out.push_str(&format!(
                "{name:<24} {count:>7} {total:>12.6} {own:>12.6}\n"
            ));
        }
        out
    }
}

//! Metric names, units and the result line.
//!
//! The names here are the contract with `BENCHMARK.json`: the self-tests
//! check that both list the same metrics.

use crate::trace::Trace;
use crate::workloads::JobQuality;
use std::fmt::Write as _;

/// The passes of the default pipeline, in order.
pub const PASSES: [&str; 5] = ["INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN"];

/// End-to-end metrics: name, unit and which direction is better.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("skew_ps", "ps", "lower"),
    ("clr_ps", "ps", "lower"),
    ("worst_skew_ps", "ps", "lower"),
    ("worst_slew_ps", "ps", "lower"),
    ("legal_jobs", "count", "higher"),
];

/// Layer times read as the self time of the span of the same name (the
/// metric is the span name plus `_s`).
pub const SPAN_TIMES: [&str; 10] = [
    "construct.initial",
    "construct.zst",
    "lower.hash_walk",
    "lower.to_netlist",
    "sim.post_pass_eval",
    "sim.full_eval",
    "session.finish",
    "slack.compute",
    "variation.mc",
    "variation.corners",
];

/// Counters read from the trace under their own name.
pub const COUNTERS: [(&str, &str); 6] = [
    ("construct.arena_mb", "MiB"),
    ("incremental.stage_hits", "count"),
    ("incremental.stage_misses", "count"),
    ("incremental.solve_hits", "count"),
    ("incremental.solve_misses", "count"),
    ("incremental.evictions", "count"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `s`, `ps`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    per_layer(&Trace::new(), 1.0, 1.0, &[], 0.0)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The end-to-end metrics of one run, in [`END_TO_END`] order.
pub fn end_to_end(
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    quality: &[JobQuality],
) -> Vec<Metric> {
    let n = quality.len().max(1) as f64;
    let mean = |f: fn(&JobQuality) -> f64| quality.iter().map(f).sum::<f64>() / n;
    let values = [
        wall_s,
        setup_s,
        peak_rss_mb,
        mean(|q| q.skew),
        mean(|q| q.clr),
        mean(|q| q.worst_skew),
        quality.iter().map(|q| q.worst_slew).fold(0.0, f64::max),
        quality.iter().filter(|q| !q.illegal).count() as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric::new(name, unit, value))
        .collect()
}

/// The per-layer metrics of a traced run, in [`per_layer_names`] order.
///
/// `job_s` (every job of every timed iteration) and `render_s` (median
/// JSONL rendering time) come from the timed campaign iterations; `wall_s`
/// is the untraced median wall time the replay's overhead is measured
/// against.
pub fn per_layer(
    trace: &Trace,
    replay_wall_s: f64,
    wall_s: f64,
    job_s: &[f64],
    render_s: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    for pass in PASSES {
        let runs = trace.counter(&format!("pipeline.{pass}.eval_runs"));
        let rounds = trace.counter(&format!("pipeline.{pass}.rounds"));
        out.push(Metric::new(
            format!("pipeline.{pass}_s"),
            "s",
            trace.total_self(&format!("pipeline.{pass}")),
        ));
        out.push(Metric::new(
            format!("pipeline.{pass}.eval_runs"),
            "count",
            runs,
        ));
        out.push(Metric::new(
            format!("pipeline.{pass}.rounds"),
            "count",
            rounds,
        ));
        let ratio = if runs > 0.0 { rounds / runs } else { 0.0 };
        out.push(Metric::new(
            format!("pipeline.{pass}.commit_ratio"),
            "ratio",
            ratio,
        ));
    }
    for span in SPAN_TIMES {
        out.push(Metric::new(
            format!("{span}_s"),
            "s",
            trace.total_self(span),
        ));
    }
    for (counter, unit) in COUNTERS {
        out.push(Metric::new(counter, unit, trace.counter(counter)));
    }
    let hits = trace.counter("incremental.solve_hits");
    let misses = trace.counter("incremental.solve_misses");
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let mc_s = trace.total_self("variation.mc");
    let samples = trace.counter("variation.samples");
    let (p50, max) = if job_s.is_empty() {
        (0.0, 0.0)
    } else {
        (median(job_s), job_s.iter().copied().fold(0.0, f64::max))
    };
    for (name, unit, value) in [
        ("campaign.render_s", "s", render_s),
        ("sim.eval_runs", "count", trace.counter("sim.eval_runs")),
        ("incremental.solve_hit_ratio", "ratio", hit_ratio),
        (
            "variation.samples_per_s",
            "1/s",
            if mc_s > 0.0 { samples / mc_s } else { 0.0 },
        ),
        ("campaign.job_s_p50", "s", p50),
        ("campaign.job_s_max", "s", max),
        (
            "trace.overhead_pct",
            "%",
            100.0 * (replay_wall_s / wall_s - 1.0),
        ),
    ] {
        out.push(Metric::new(name, unit, value));
    }
    out
}

/// Renders the final result line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that reads back exactly.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

//! The Contango benchmark ladder: four workloads, end-to-end metrics with
//! output quality attached, and a traced per-layer breakdown.
//!
//! One process runs one workload: it builds the inputs from the seed
//! (several times, to time set-up), repeats the timed iteration for the
//! requested seconds, then replays the same jobs with tracing on. Every
//! wall-clock-free output must be byte-identical across the timed
//! iterations and the replay; a mismatch, a failed job or a failed replay
//! check counts as a failure and makes the run incorrect. See `README.md`.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;
pub mod workloads;

use contango_core::ConstructArena;
use metrics::{end_to_end, median, per_layer, Metric};
use std::collections::BTreeSet;
use std::time::Instant;
use workloads::{inputs, replay, timed_iteration, Outputs, Workload};

/// Set-up repeats until this much time is spent (and at least
/// [`MIN_SETUPS`] times); `setup_s` is the median. A single set-up of the
/// ISPD'09 suite takes a fraction of a millisecond, so one reading would be
/// mostly noise.
const SETUP_BUDGET_S: f64 = 0.5;

/// Fewest set-ups per run.
const MIN_SETUPS: usize = 5;

/// Timed iterations every run makes at least, so determinism is checked
/// between two of them even when one iteration outlasts the budget.
const MIN_ITERATIONS: usize = 2;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Benchmark seed; only the Monte-Carlo sampler follows it (see
    /// [`workloads::mc_seed`]).
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one invocation found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Job executions attempted (timed iterations plus the replay).
    pub attempted: usize,
    /// Job executions that failed, mismatched or failed a replay check.
    pub failed: usize,
    /// The metrics: end-to-end, or per-layer when tracing.
    pub metrics: Vec<Metric>,
    /// Human-readable diagnostics for stderr.
    pub notes: Vec<String>,
}

/// The jobs of `outputs` that failed or differ from `reference`.
fn failures(
    reference: &Outputs,
    outputs: &Outputs,
    what: &str,
    notes: &mut Vec<String>,
) -> BTreeSet<usize> {
    let mut failed = BTreeSet::new();
    for (i, (want, got)) in reference.iter().zip(outputs).enumerate() {
        match got {
            Err(e) => {
                notes.push(format!("{what}: job {i} failed: {e}"));
                failed.insert(i);
            }
            Ok(line) if Ok(line) != want.as_ref() => {
                notes.push(format!(
                    "{what}: job {i} output differs from the first iteration"
                ));
                failed.insert(i);
            }
            Ok(_) => {}
        }
    }
    failed
}

/// Runs one workload for `args.seconds` and checks its outputs.
pub fn run(args: Args) -> Report {
    let mut setup_s = Vec::new();
    let mut spent = 0.0;
    let (inputs, mut arena) = loop {
        let start = Instant::now();
        let built = (inputs(args.workload, args.seed), ConstructArena::new());
        let took = start.elapsed().as_secs_f64();
        setup_s.push(took);
        spent += took;
        if setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S {
            break built;
        }
    };

    let started = Instant::now();
    let mut iterations = Vec::new();
    loop {
        iterations.push(timed_iteration(&inputs, &mut arena));
        let walls: Vec<f64> = iterations.iter().map(|t| t.wall_s).collect();
        let elapsed = started.elapsed().as_secs_f64();
        if iterations.len() >= MIN_ITERATIONS && elapsed + median(&walls) > args.seconds {
            break;
        }
    }
    let walls: Vec<f64> = iterations.iter().map(|t| t.wall_s).collect();
    let wall_s = median(&walls);

    let first = &iterations[0];
    let replayed = replay(&inputs, &first.records, &mut arena);
    let mut notes = Vec::new();
    let mut failed = 0;
    for (k, timed) in iterations.iter().enumerate() {
        failed += failures(
            &first.outputs,
            &timed.outputs,
            &format!("iteration {k}"),
            &mut notes,
        )
        .len();
    }
    // A replayed job fails once, whichever of its checks it fails.
    let mut replay_failed = failures(
        &first.outputs,
        &replayed.outputs,
        "traced replay",
        &mut notes,
    );
    for (job, why) in &replayed.mismatches {
        notes.push(format!("traced replay: job {job}: {why}"));
        replay_failed.insert(*job);
    }
    failed += replay_failed.len();
    let attempted = inputs.len() * (iterations.len() + 1);

    let peak_rss_mb = contango_core::mem::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    notes.push(format!(
        "timed iterations {walls:.3?} s, median {wall_s:.3} s; traced replay {:.3} s",
        replayed.wall_s
    ));
    let metrics = if args.trace {
        let job_s: Vec<f64> = iterations
            .iter()
            .flat_map(|t| t.job_s.iter().copied())
            .collect();
        let render_s: Vec<f64> = iterations.iter().map(|t| t.render_s).collect();
        notes.push(replayed.trace.render());
        per_layer(
            &replayed.trace,
            replayed.wall_s,
            wall_s,
            &job_s,
            median(&render_s),
        )
    } else {
        end_to_end(wall_s, median(&setup_s), peak_rss_mb, &replayed.quality)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        notes.push("a metric is not a finite number".to_string());
    }
    Report {
        correct: failed == 0 && finite && !replayed.quality.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    }
}

//! Cross-crate integration tests: benchmark generation → Contango flow →
//! evaluation, checked against the qualitative claims of the paper.

use contango::baselines::{run_baseline, BaselineKind};
use contango::benchmarks::{ispd09_suite, make_instance, ti_instance};
use contango::core::slack::SlackAnalysis;
use contango::{ContangoFlow, FlowConfig, Technology};

/// Shrinks a generated instance to its first `n` sinks so integration tests
/// stay fast while exercising the full pipeline.
fn truncated(spec_idx: usize, n: usize) -> contango::ClockNetInstance {
    let spec = &ispd09_suite()[spec_idx];
    let full = make_instance(spec);
    let mut builder = contango::ClockNetInstance::builder(&format!("{}-head{n}", spec.name))
        .die(full.die.lo.x, full.die.lo.y, full.die.hi.x, full.die.hi.y)
        .source(full.source)
        .cap_limit(full.cap_limit);
    for sink in full.sinks.iter().take(n) {
        builder = builder.sink(sink.location, sink.cap);
    }
    for o in full.obstacles.iter() {
        builder = builder.obstacle(o.rect);
    }
    builder.build().expect("valid truncated instance")
}

#[test]
fn flow_on_a_generated_benchmark_meets_constraints() {
    let instance = truncated(6, 24); // ispd09fnb1-style, 24 sinks
    let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
    let result = flow.run(&instance).expect("flow runs");
    assert_eq!(result.report.sink_count(), instance.sink_count());
    assert!(
        !result.report.has_slew_violation(),
        "slew {}",
        result.report.worst_slew()
    );
    assert!(result.report.total_cap <= instance.cap_limit);
    let initial_skew = result.snapshots.first().expect("snapshots").skew;
    assert!(
        result.skew() < 20.0 || result.skew() <= 0.6 * initial_skew,
        "final skew {} ps (initial {} ps)",
        result.skew(),
        initial_skew
    );
    assert!(result.tree.validate().is_ok());
}

#[test]
fn optimized_flow_beats_untuned_baseline() {
    let instance = truncated(0, 20);
    let tech = Technology::ispd09();
    let contango = ContangoFlow::new(tech.clone(), FlowConfig::fast())
        .run(&instance)
        .expect("contango runs");
    let baseline =
        run_baseline(BaselineKind::DmeNoTuning, &tech, &instance).expect("baseline runs");
    assert!(contango.skew() <= baseline.skew() + 1e-9);
    assert!(contango.clr() <= baseline.clr() + 1e-9);
}

#[test]
fn stage_progress_matches_table3_shape() {
    // Table III: wiresizing and wiresnaking deliver the bulk of the skew
    // reduction; the final skew is far below the initial skew.
    let instance = truncated(1, 20);
    let result = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast())
        .run(&instance)
        .expect("flow runs");
    let first = result.snapshots.first().expect("snapshots");
    let last = result.snapshots.last().expect("snapshots");
    assert!(last.skew <= first.skew);
    assert!(last.clr <= first.clr);
}

#[test]
fn ti_style_instance_scales_through_the_flow() {
    let instance = ti_instance(150, 42);
    let result = ContangoFlow::new(Technology::ti45(), FlowConfig::scalability())
        .run(&instance)
        .expect("flow runs");
    assert_eq!(result.report.sink_count(), 150);
    assert!(!result.report.has_slew_violation());
    // Latency stays within the same order as the paper's ~500 ps scale.
    assert!(result.report.max_latency() < 2000.0);
}

#[test]
fn final_slacks_are_consistent_with_the_report() {
    let instance = truncated(2, 16);
    let result = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast())
        .run(&instance)
        .expect("flow runs");
    let slacks = SlackAnalysis::compute(&result.tree, &result.report);
    // The per-sink slow-down slacks never exceed the skew envelope.
    let max_slow = slacks.sink_slow.iter().copied().fold(0.0_f64, f64::max);
    assert!(max_slow <= result.report.low.skew().max(result.skew()) + 1e-6);
}

#[test]
fn small_transient_flow_bits_are_pinned() {
    // Every stage solve of this flow goes through the transient kernel, on
    // both the incremental and the full evaluation path. The bits were
    // recorded before the kernel solved a stage's transitions as
    // interleaved lanes and before solve keys aged individually.
    let instance = truncated(6, 24);
    let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
    let result = flow.run(&instance).expect("flow runs");
    assert_eq!(
        result.skew().to_bits(),
        0x403842fb644a7250,
        "skew {}",
        result.skew()
    );
    assert_eq!(
        result.clr().to_bits(),
        0x4052d4ea028e0288,
        "CLR {}",
        result.clr()
    );
    assert_eq!(result.spice_runs, 30);
}

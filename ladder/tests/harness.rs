//! Self-tests of the ladder harness: span arithmetic, the metric-name
//! contract with `BENCHMARK.json`, seed plumbing, and (in release builds)
//! that every workload runs clean and reports every end-to-end metric.

use contango_benchmarks::generator::{ispd09_suite, make_instance};
use contango_campaign::JsonValue;
use contango_ladder::metrics::{end_to_end, per_layer, per_layer_names, result_line, END_TO_END};
use contango_ladder::trace::Trace;
use contango_ladder::workloads::{inputs, mc_seed, Inputs, Workload, DEFAULT_SEED};
use contango_ladder::{run, Args};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(json: &JsonValue, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let mut trace = Trace::new();
    let job = trace.record("job", None, 0.0, 10.0);
    // Two overlapping children cover [1, 5]; a third runs past the parent's
    // end and only counts up to it.
    let pass = trace.record("pass", Some(job), 1.0, 3.0);
    trace.record("pass", Some(job), 2.0, 5.0);
    trace.record("finish", Some(job), 8.0, 12.0);
    // A grandchild is its parent's business, not the job's.
    trace.record("eval", Some(pass), 1.5, 2.5);
    let own = trace.self_times();
    assert_eq!(own[job], 10.0 - 4.0 - 2.0);
    assert_eq!(own[pass], 2.0 - 1.0);
    assert_eq!(trace.total_self("pass"), 1.0 + 3.0);
    assert_eq!(trace.total_self("absent").to_bits(), 0.0f64.to_bits());
}

#[test]
fn ending_a_span_closes_the_spans_left_open_inside_it() {
    let mut trace = Trace::new();
    let job = trace.begin("job");
    let pass = trace.begin("pipeline.TWSZ");
    trace.begin("sim.post_pass_eval");
    trace.end(job);
    let spans = trace.spans();
    assert_eq!(spans[pass].parent, Some(job));
    assert!(spans.iter().all(|s| s.end >= s.start));
    assert!(spans[job].end >= spans[pass].end);
    let next = trace.begin("job");
    assert_eq!(trace.spans()[next].parent, None);
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let json = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names(&json, "per_layer"), layers);
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "bad metric name {name}");
    }
    for (entry, &(_, _, better)) in json
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .expect("end_to_end")
        .iter()
        .zip(END_TO_END.iter())
    {
        assert_eq!(
            entry.get("better").and_then(JsonValue::as_str),
            Some(better)
        );
    }
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn both_metric_sets_render_every_name_once() {
    let e2e = end_to_end(1.0, 0.1, 10.0, &[]);
    let layers = per_layer(&Trace::new(), 1.0, 1.0, &[], 0.0);
    assert_eq!(e2e.len(), END_TO_END.len());
    let unique: std::collections::BTreeSet<&str> = layers.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(unique.len(), layers.len(), "a per-layer name repeats");
    let line = result_line(true, 3, 0, &e2e);
    let parsed = JsonValue::parse(&line).expect("result line is JSON");
    let metrics = parsed.get("metrics").expect("metrics");
    for &(name, unit, _) in &END_TO_END {
        let m = metrics.get(name).expect(name);
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit));
        assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
    }
}

fn jobs(workload: Workload, seed: u64) -> Vec<contango_campaign::Job> {
    match inputs(workload, seed) {
        Inputs::Jobs(jobs) => jobs,
        Inputs::Construct(_) => panic!("{} runs campaign jobs", workload.name()),
    }
}

#[test]
fn the_default_seed_reproduces_the_repository_inputs() {
    assert_eq!(mc_seed(DEFAULT_SEED), 0xC0FFEE);
    let suite: Vec<_> = ispd09_suite().iter().map(make_instance).collect();
    let ispd: Vec<_> = jobs(Workload::Ispd09Transient, DEFAULT_SEED)
        .into_iter()
        .map(|j| j.instance)
        .collect();
    assert_eq!(ispd, suite);
}

#[test]
fn the_seed_moves_the_sampler_and_no_instance() {
    let sampler = |seed| {
        jobs(Workload::McCorners, seed)
            .iter()
            .map(|j| j.variation.expect("mc jobs sample").seed)
            .collect::<Vec<_>>()
    };
    assert_eq!(sampler(7), vec![mc_seed(7); 4]);
    assert_ne!(sampler(7), sampler(8));
    for workload in Workload::ALL {
        let instances = |seed| match inputs(workload, seed) {
            Inputs::Jobs(jobs) => jobs.into_iter().map(|j| j.instance).collect::<Vec<_>>(),
            Inputs::Construct(instances) => instances,
        };
        assert_eq!(instances(7), instances(8), "{}", workload.name());
    }
}

/// Runs every workload once (two timed iterations plus the replay) and
/// checks it is correct and reports every end-to-end metric. Optimized
/// builds only: the transient workload takes minutes unoptimized.
#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn every_workload_runs_clean_and_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report = run(Args {
            workload,
            seed: 3,
            seconds: 0.001,
            trace: false,
        });
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_eq!(report.failed, 0);
        let reported: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let wanted: Vec<&str> = END_TO_END.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(reported, wanted, "{}", workload.name());
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{}: every end-to-end metric is positive: {:?}",
            workload.name(),
            report.metrics
        );
    }
}

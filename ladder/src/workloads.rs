//! The four ladder workloads: their inputs, the timed iteration that
//! produces the end-to-end numbers, and the traced replay that attributes
//! the same work to layers.
//!
//! A timed iteration runs the workload the way a user would: the flow
//! workloads as one single-threaded [`Campaign`], `construct100k` as direct
//! calls into the construction, lowering and evaluation layers. The replay
//! then redoes every job through [`EngineSession::run`] with each pass
//! wrapped in a timing [`Pass`], re-evaluates corners and Monte-Carlo
//! samples itself, and rebuilds the job records, so its output can be
//! compared byte for byte with the timed iterations'. Probe calls that
//! time a layer in isolation (the flow's netlist lowering, a full
//! evaluation, slack analysis, the incremental hash walk, the bare
//! zero-skew tree) run after the replay and outside its wall time.

use crate::trace::Trace;
use contango_benchmarks::generator::{ispd09_suite, make_instance, stress_instance, ti_instance};
use contango_benchmarks::report::RunSummary;
use contango_benchmarks::StressLayout;
use contango_campaign::{
    Campaign, CampaignResult, CornerKind, CornerMetrics, Job, JobMetrics, JobRecord, MemoryProfile,
    VariationMetrics, VariationSpec,
};
use contango_core::construct::{construct_initial, zero_skew_tree_with, ConstructConfig};
use contango_core::dme::DmeOptions;
use contango_core::error::CoreError;
use contango_core::flow::{FlowConfig, StageSnapshot};
use contango_core::instance::ClockNetInstance;
use contango_core::lower::{evaluate_incremental, to_netlist};
use contango_core::pipeline::{
    BottomLevelPass, BufferSizingPass, FlowObserver, InitialConstruction, Pass, PassCtx, Pipeline,
    WireSizingPass, WireSnakingPass,
};
use contango_core::tree::ClockTree;
use contango_core::{ConstructArena, EngineSession, PassOutcome, SlackAnalysis};
use contango_sim::{
    monte_carlo_samples, scaled_netlist, scaled_technology, CacheStats, DelayModel, EvalReport,
    Evaluator, VariationModel,
};
use contango_tech::Technology;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// The repository's default instance seed (`ti:N` and `stress:N` default to
/// it); a run with this benchmark seed samples with the manifest's default
/// Monte-Carlo seed, so it reproduces the repository's own inputs.
pub const DEFAULT_SEED: u64 = 45;

/// Seed of `variation` manifests without a `seed` key.
const DEFAULT_MC_SEED: u64 = 0xC0FFEE;

/// Monte-Carlo samples per `mc_corners` job.
const MC_SAMPLES: usize = 256;

/// TI instances per `mc_corners` run.
const TI_INSTANCES: u64 = 4;

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven synthetic ISPD'09 benchmarks, default profile, transient
    /// model: the paper's headline experiment.
    Ispd09Transient,
    /// One clustered 20k-sink instance, fast profile, Elmore model.
    Stress20kElmore,
    /// Serial initial construction, lowering and one Elmore evaluation of
    /// three 100k-sink layouts.
    Construct100k,
    /// Four 1000-sink TI instances with every corner and 256 Monte-Carlo
    /// samples each.
    McCorners,
}

impl Workload {
    /// Every workload, in ladder order.
    pub const ALL: [Workload; 4] = [
        Workload::Ispd09Transient,
        Workload::Stress20kElmore,
        Workload::Construct100k,
        Workload::McCorners,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ispd09Transient => "ispd09_transient",
            Workload::Stress20kElmore => "stress20k_elmore",
            Workload::Construct100k => "construct100k",
            Workload::McCorners => "mc_corners",
        }
    }

    /// Parses a [`Self::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The Monte-Carlo sampler seed for a benchmark seed: the manifest's
/// default `0xC0FFEE` at [`DEFAULT_SEED`], shifted by the distance from it.
///
/// The sampler is the only input that follows the benchmark seed. Every
/// instance stays at the repository's default seed, because re-seeding an
/// instance moves the deterministic quality metrics by more than a
/// regression bound can absorb: over ten seeds, the final skew of the
/// ISPD'09 suite changes by more than 2x between spec-seed offsets, and
/// the skew of the 20k-sink instance, the four TI instances and the three
/// 100k-sink layouts spreads by 10-17% (quartile distance over median).
pub fn mc_seed(seed: u64) -> u64 {
    DEFAULT_MC_SEED.wrapping_add(seed.wrapping_sub(DEFAULT_SEED))
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Campaign jobs (every workload but `construct100k`).
    Jobs(Vec<Job>),
    /// Instances for direct construction (`construct100k`).
    Construct(Vec<ClockNetInstance>),
}

impl Inputs {
    /// Number of jobs (or instances) one iteration runs.
    pub(crate) fn len(&self) -> usize {
        match self {
            Inputs::Jobs(jobs) => jobs.len(),
            Inputs::Construct(instances) => instances.len(),
        }
    }
}

fn elmore(config: FlowConfig) -> FlowConfig {
    FlowConfig {
        model: DelayModel::Elmore,
        ..config
    }
}

/// Generates the inputs of `workload` for `seed` and builds its jobs.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let tech = Technology::ispd09();
    match workload {
        Workload::Ispd09Transient => Inputs::Jobs(
            ispd09_suite()
                .iter()
                .map(|spec| Job::contango(&tech, FlowConfig::default(), &make_instance(spec)))
                .collect(),
        ),
        Workload::Stress20kElmore => {
            let instance = stress_instance(20_000, DEFAULT_SEED, StressLayout::Clustered);
            Inputs::Jobs(vec![Job::contango(
                &tech,
                elmore(FlowConfig::fast()),
                &instance,
            )])
        }
        Workload::Construct100k => Inputs::Construct(
            StressLayout::all()
                .into_iter()
                .map(|layout| stress_instance(100_000, DEFAULT_SEED, layout))
                .collect(),
        ),
        Workload::McCorners => Inputs::Jobs(
            (0..TI_INSTANCES)
                .map(|k| {
                    let ti_seed = DEFAULT_SEED + k;
                    let instance = ti_instance(1000, ti_seed);
                    Job::contango(&tech, elmore(FlowConfig::fast()), &instance)
                        .with_benchmark(format!("ti1000_s{ti_seed}"))
                        .with_corners(CornerKind::all().to_vec())
                        .with_variation(Some(VariationSpec {
                            model: VariationModel::typical_45nm(),
                            samples: MC_SAMPLES,
                            seed: mc_seed(seed),
                        }))
                })
                .collect(),
        ),
    }
}

/// The construction settings `construct100k` uses: the default profile's
/// `INITIAL` pass, serial.
fn construct_config() -> ConstructConfig {
    let pass = InitialConstruction::from_config(&FlowConfig::default());
    ConstructConfig {
        topology: pass.topology,
        use_large_inverters: pass.use_large_inverters,
        max_edge_len: pass.max_edge_len,
        power_reserve: pass.power_reserve,
        parallel: pass.parallel,
    }
}

/// Per-job output lines: JSONL records for the flow workloads, a tree
/// fingerprint plus evaluation bits for `construct100k`. `Err` marks a job
/// that failed.
pub type Outputs = Vec<Result<String, String>>;

/// One timed iteration.
#[derive(Debug)]
pub struct Timed {
    /// Wall time of the iteration, seconds.
    pub wall_s: f64,
    /// Per-job outputs, in submission order.
    pub outputs: Outputs,
    /// The campaign's job records (flow workloads only).
    pub records: Vec<JobRecord>,
    /// Time between consecutive completed jobs, seconds (flow workloads).
    pub job_s: Vec<f64>,
    /// Time to render the campaign's JSONL, seconds (flow workloads).
    pub render_s: f64,
}

/// Runs one timed iteration of the workload.
///
/// `arena` is the construction scratch `construct100k` keeps warm across
/// iterations, as a campaign worker's session does.
pub fn timed_iteration(inputs: &Inputs, arena: &mut ConstructArena) -> Timed {
    let tech = Technology::ispd09();
    match inputs {
        Inputs::Jobs(jobs) => {
            let campaign = Campaign::new().threads(1).extend(jobs.iter().cloned());
            let start = Instant::now();
            let mut done = Vec::with_capacity(jobs.len());
            let result = campaign.run_streaming(|_| done.push(start.elapsed().as_secs_f64()));
            let rendered = Instant::now();
            let jsonl = result.to_jsonl();
            let render_s = rendered.elapsed().as_secs_f64();
            let wall_s = start.elapsed().as_secs_f64();
            let job_s = done
                .iter()
                .scan(0.0, |prev, &t| {
                    let d = t - *prev;
                    *prev = t;
                    Some(d)
                })
                .collect();
            let outputs = job_lines(&jsonl, &result.records);
            Timed {
                wall_s,
                outputs,
                records: result.records,
                job_s,
                render_s,
            }
        }
        Inputs::Construct(instances) => {
            let config = construct_config();
            let segment_um = FlowConfig::default().segment_um;
            let evaluator = Evaluator::with_model(tech.clone(), DelayModel::Elmore);
            let start = Instant::now();
            let built: Vec<Built> = instances
                .iter()
                .map(|instance| {
                    let (tree, _) = construct_initial(instance, &tech, &config, arena)?;
                    let netlist = to_netlist(&tree, &tech, &instance.source_spec, segment_um)?;
                    let report = evaluator.evaluate(&netlist);
                    Ok((tree, report))
                })
                .collect();
            let wall_s = start.elapsed().as_secs_f64();
            let (outputs, _) = graded(instances, &built, &tech);
            Timed {
                wall_s,
                outputs,
                records: Vec::new(),
                job_s: Vec::new(),
                render_s: 0.0,
            }
        }
    }
}

/// Pairs each job's JSONL line with its record; failed jobs become `Err`.
fn job_lines(jsonl: &str, records: &[JobRecord]) -> Outputs {
    jsonl
        .lines()
        .zip(records)
        .map(|(line, record)| match &record.outcome {
            Ok(_) => Ok(line.to_string()),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

type Built = Result<(ClockTree, EvalReport), CoreError>;

/// Fingerprints and grades constructed trees, outside any timed window.
fn graded(
    instances: &[ClockNetInstance],
    built: &[Built],
    tech: &Technology,
) -> (Outputs, Vec<JobQuality>) {
    let mut outputs = Vec::with_capacity(built.len());
    let mut quality = Vec::with_capacity(built.len());
    for (instance, one) in instances.iter().zip(built) {
        match one {
            Ok((tree, report)) => {
                outputs.push(Ok(tree_fingerprint(tree, report)));
                quality.push(JobQuality::of(report, tree, tech, instance.cap_limit));
            }
            Err(e) => outputs.push(Err(e.to_string())),
        }
    }
    (outputs, quality)
}

/// A streaming FNV-1a hasher fed through `fmt::Write`, so a tree's `Debug`
/// rendering (exact for every `f64`) can be hashed without materializing it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// A wall-clock-free fingerprint of a constructed tree and its evaluation:
/// a hash over every node plus the skew, CLR and worst-slew bits.
fn tree_fingerprint(tree: &ClockTree, report: &EvalReport) -> String {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    write!(fnv, "{tree:?}").expect("hashing never fails");
    format!(
        "nodes={} tree={:016x} skew={:016x} clr={:016x} slew={:016x}",
        tree.len(),
        fnv.0,
        report.skew().to_bits(),
        report.clr().to_bits(),
        report.worst_slew().to_bits()
    )
}

/// Output quality of one job, from the replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobQuality {
    /// Final nominal skew, ps.
    pub skew: f64,
    /// Final CLR, ps.
    pub clr: f64,
    /// Worst skew across nominal, corners and Monte-Carlo samples, ps.
    pub worst_skew: f64,
    /// Final worst sink slew, ps.
    pub worst_slew: f64,
    /// Final slew above the limit, or capacitance over budget.
    pub illegal: bool,
}

impl JobQuality {
    fn of(report: &EvalReport, tree: &ClockTree, tech: &Technology, cap_limit: f64) -> Self {
        Self {
            skew: report.skew(),
            clr: report.clr(),
            worst_skew: report.skew(),
            worst_slew: report.worst_slew(),
            illegal: report.has_slew_violation() || tree.total_cap(tech) > cap_limit,
        }
    }
}

/// The traced replay of one workload.
#[derive(Debug)]
pub struct Replay {
    /// Per-job outputs, in submission order (comparable with [`Timed`]).
    pub outputs: Outputs,
    /// Per-job quality of the jobs that succeeded.
    pub quality: Vec<JobQuality>,
    /// Spans and counters.
    pub trace: Trace,
    /// Wall time of the replayed work (probes excluded), seconds.
    pub wall_s: f64,
    /// Replay-check failures by job index: a replayed job whose skew, CLR
    /// or evaluator runs differ from the timed record, or whose traced
    /// pipeline differs from `Pipeline::contango`.
    pub mismatches: Vec<(usize, String)>,
}

type Shared = Rc<RefCell<Trace>>;

/// A pass wrapped so its body and the evaluator runs it makes are traced.
/// The end-of-pass evaluation span opens when the body returns and closes
/// in [`PassSpans::on_pass_end`].
struct Timing<P> {
    inner: P,
    trace: Shared,
}

impl<P: Pass> Pass for Timing<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn acronym(&self) -> &str {
        self.inner.acronym()
    }

    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let runs = ctx.opt.evaluator.runs();
        let outcome = self.inner.run(tree, ctx);
        let mut trace = self.trace.borrow_mut();
        let acronym = self.inner.acronym();
        let made = (ctx.opt.evaluator.runs() - runs) as f64;
        trace.add(&format!("pipeline.{acronym}.eval_runs"), made);
        if let Ok(outcome) = &outcome {
            trace.add(&format!("pipeline.{acronym}.rounds"), outcome.rounds as f64);
        }
        trace.begin("sim.post_pass_eval");
        outcome
    }
}

/// The default pipeline for `config` with every pass wrapped in [`Timing`].
fn timed_pipeline(config: &FlowConfig, trace: &Shared) -> Pipeline {
    fn timed<P: Pass>(inner: P, trace: &Shared) -> Timing<P> {
        Timing {
            inner,
            trace: Rc::clone(trace),
        }
    }
    Pipeline::new()
        .with_pass(timed(InitialConstruction::from_config(config), trace))
        .with_pass(timed(BufferSizingPass::from_config(config), trace))
        .with_pass(timed(WireSizingPass::from_config(config), trace))
        .with_pass(timed(WireSnakingPass::from_config(config), trace))
        .with_pass(timed(BottomLevelPass::from_config(config), trace))
}

/// Opens a span per pass, and the finish span after the last one.
struct PassSpans {
    trace: Shared,
    pass: Option<usize>,
    last: bool,
    finish: Option<usize>,
}

impl FlowObserver for PassSpans {
    fn on_pass_start(&mut self, pass: &dyn Pass, index: usize, total: usize) {
        let name = format!("pipeline.{}", pass.acronym());
        self.pass = Some(self.trace.borrow_mut().begin(name));
        self.last = index + 1 == total;
    }

    fn on_pass_end(&mut self, _pass: &dyn Pass, _snapshot: &StageSnapshot, _outcome: &PassOutcome) {
        let mut trace = self.trace.borrow_mut();
        trace.end(self.pass.take().expect("pass span is open"));
        if self.last {
            self.finish = Some(trace.begin("session.finish"));
        }
    }
}

fn add_stats(trace: &mut Trace, before: CacheStats, after: CacheStats) {
    let delta = |a: u64, b: u64| (a - b) as f64;
    trace.add(
        "incremental.stage_hits",
        delta(after.stage_hits, before.stage_hits),
    );
    trace.add(
        "incremental.stage_misses",
        delta(after.stage_misses, before.stage_misses),
    );
    trace.add(
        "incremental.solve_hits",
        delta(after.solve_hits, before.solve_hits),
    );
    trace.add(
        "incremental.solve_misses",
        delta(after.solve_misses, before.solve_misses),
    );
    trace.add(
        "incremental.evictions",
        delta(after.evictions, before.evictions),
    );
}

/// Runs `f` inside a span called `name`.
fn span<T>(trace: &Shared, name: &str, f: impl FnOnce() -> T) -> T {
    let id = trace.borrow_mut().begin(name);
    let out = f();
    trace.borrow_mut().end(id);
    out
}

/// Replays the workload with tracing on. `records` are the timed
/// campaign's job records the replay must reproduce (empty for
/// `construct100k`).
pub fn replay(inputs: &Inputs, records: &[JobRecord], arena: &mut ConstructArena) -> Replay {
    match inputs {
        Inputs::Jobs(jobs) => replay_jobs(jobs, records),
        Inputs::Construct(instances) => replay_construct(instances, arena),
    }
}

fn replay_construct(instances: &[ClockNetInstance], arena: &mut ConstructArena) -> Replay {
    let tech = Technology::ispd09();
    let config = construct_config();
    let segment_um = FlowConfig::default().segment_um;
    let evaluator = Evaluator::with_model(tech.clone(), DelayModel::Elmore);
    let trace: Shared = Rc::new(RefCell::new(Trace::new()));
    let workload = trace.borrow_mut().begin("workload");
    let mut built = Vec::with_capacity(instances.len());
    for instance in instances {
        let job = trace.borrow_mut().begin("job");
        let one = span(&trace, "construct.initial", || {
            construct_initial(instance, &tech, &config, arena)
        })
        .and_then(|(tree, _)| {
            let netlist = span(&trace, "lower.to_netlist", || {
                to_netlist(&tree, &tech, &instance.source_spec, segment_um)
            })?;
            let report = span(&trace, "sim.full_eval", || evaluator.evaluate(&netlist));
            Ok((tree, report))
        });
        trace.borrow_mut().end(job);
        built.push(one);
    }
    trace.borrow_mut().end(workload);
    let wall_s = trace.borrow().spans()[workload].duration();
    // The arena keeps its capacity, so its watermark is the peak over the
    // three constructions.
    let arena_mb = arena.watermark().total_bytes() as f64 / (1024.0 * 1024.0);
    trace.borrow_mut().add("construct.arena_mb", arena_mb);
    for instance in instances {
        span(&trace, "construct.zst", || {
            zero_skew_tree_with(instance, &tech, DmeOptions::default(), arena)
        });
    }
    let (outputs, quality) = graded(instances, &built, &tech);
    Replay {
        outputs,
        quality,
        trace: Rc::try_unwrap(trace)
            .expect("no pass holds the trace")
            .into_inner(),
        wall_s,
        mismatches: Vec::new(),
    }
}

fn replay_jobs(jobs: &[Job], records: &[JobRecord]) -> Replay {
    let trace: Shared = Rc::new(RefCell::new(Trace::new()));
    let mut mismatches = Vec::new();
    let mut session: Option<EngineSession> = None;
    // The campaign's dispatch order: longest first, ties in submission order.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cost()));
    let mut slots: Vec<Option<JobRecord>> = (0..jobs.len()).map(|_| None).collect();
    let mut quality = vec![None; jobs.len()];
    let mut probes = Vec::new();

    let workload = trace.borrow_mut().begin("workload");
    for &ji in &order {
        let job = &jobs[ji];
        let job_span = trace.borrow_mut().begin("job");
        let sess = match &mut session {
            Some(sess) => {
                sess.retarget(&job.tech, job.config.model);
                sess
            }
            None => session.insert(EngineSession::new(job.tech.clone(), job.config.model)),
        };
        let pipeline = timed_pipeline(&job.config, &trace);
        if pipeline.acronyms() != job.pipeline().acronyms() {
            mismatches.push((
                ji,
                format!(
                    "traced pipeline {:?} differs from {:?}",
                    pipeline.acronyms(),
                    job.pipeline().acronyms()
                ),
            ));
        }
        let stats = sess.evaluator().stats();
        let mut observer = PassSpans {
            trace: Rc::clone(&trace),
            pass: None,
            last: false,
            finish: None,
        };
        let run = sess.run(&job.config, &pipeline, &job.instance, &mut observer);
        if let Some(finish) = observer.finish {
            trace.borrow_mut().end(finish);
        }
        add_stats(&mut trace.borrow_mut(), stats, sess.evaluator().stats());
        let outcome = run.map(|result| {
            let corners = span(&trace, "variation.corners", || {
                corners(job, &result.netlist)
            });
            let variation = job.variation.map(|spec| {
                trace
                    .borrow_mut()
                    .add("variation.samples", spec.samples as f64);
                span(&trace, "variation.mc", || {
                    variation(job, &result.netlist, spec)
                })
            });
            (result, corners, variation)
        });
        // A failed pass leaves its spans open; this closes them too.
        trace.borrow_mut().end(job_span);
        let outcome = match outcome {
            Ok((result, corners, variation)) => {
                let mut graded = JobQuality::of(
                    &result.report,
                    &result.tree,
                    &job.tech,
                    job.instance.cap_limit,
                );
                let metrics = JobMetrics {
                    summary: RunSummary::from_result(
                        &job.benchmark,
                        &job.tool,
                        &job.instance,
                        &result,
                    ),
                    snapshots: result.snapshots.clone(),
                    corners,
                    variation,
                };
                graded.worst_skew = metrics.worst_case_skew();
                quality[ji] = Some(graded);
                trace
                    .borrow_mut()
                    .add("sim.eval_runs", result.spice_runs as f64);
                probes.push((ji, result));
                Ok(metrics)
            }
            Err(e) => Err(e),
        };
        slots[ji] = Some(JobRecord {
            benchmark: job.benchmark.clone(),
            tool: job.tool.clone(),
            sinks: job.instance.sink_count(),
            outcome,
            cache: None,
        });
    }
    trace.borrow_mut().end(workload);
    let wall_s = trace.borrow().spans()[workload].duration();
    let result = CampaignResult {
        records: slots
            .into_iter()
            .map(|s| s.expect("every job replayed"))
            .collect(),
        threads: 1,
        memory: MemoryProfile::default(),
    };

    for (ji, (replayed, timed)) in result.records.iter().zip(records).enumerate() {
        if !same_result(replayed, timed) {
            let why = "skew, CLR or spice_runs differ from the timed record";
            mismatches.push((ji, why.to_string()));
        }
    }

    // Layer probes on each finished flow, outside the replay's wall time.
    let sess = session.as_ref();
    for (ji, result) in &probes {
        let job = &jobs[*ji];
        let source = &job.instance.source_spec;
        let segment_um = job.config.segment_um;
        let netlist = span(&trace, "lower.to_netlist", || {
            to_netlist(&result.tree, &job.tech, source, segment_um)
        });
        if let Ok(netlist) = netlist {
            let evaluator = Evaluator::with_model(job.tech.clone(), job.config.model);
            span(&trace, "sim.full_eval", || evaluator.evaluate(&netlist));
        }
        span(&trace, "slack.compute", || {
            SlackAnalysis::compute(&result.tree, &result.report)
        });
        // Every stage of the final tree is cached by the flow's last
        // end-of-pass evaluation, so this times the plan and hash walk.
        if let Some(sess) = sess {
            span(&trace, "lower.hash_walk", || {
                evaluate_incremental(
                    &result.tree,
                    &job.tech,
                    source,
                    segment_um,
                    sess.evaluator(),
                )
            });
        }
    }

    Replay {
        outputs: job_lines(&result.to_jsonl(), &result.records),
        quality: quality.into_iter().flatten().collect(),
        trace: Rc::try_unwrap(trace)
            .expect("no pass holds the trace")
            .into_inner(),
        wall_s,
        mismatches,
    }
}

/// Whether two successful records agree on the final skew and CLR bits and
/// the evaluator-run count. A failed job is already counted through its
/// output, so it never counts again here.
fn same_result(a: &JobRecord, b: &JobRecord) -> bool {
    match (&a.outcome, &b.outcome) {
        (Ok(x), Ok(y)) => {
            x.summary.skew.to_bits() == y.summary.skew.to_bits()
                && x.summary.clr.to_bits() == y.summary.clr.to_bits()
                && x.summary.spice_runs == y.summary.spice_runs
        }
        _ => true,
    }
}

/// The job's corner re-evaluations, as the campaign computes them.
fn corners(job: &Job, netlist: &contango_sim::Netlist) -> Vec<CornerMetrics> {
    job.corners
        .iter()
        .map(|&corner| {
            let (res_f, cap_f, vdd_f) = corner.factors();
            let evaluator =
                Evaluator::with_model(scaled_technology(&job.tech, vdd_f), job.config.model);
            let report = evaluator.evaluate(&scaled_netlist(netlist, res_f, cap_f));
            CornerMetrics {
                corner: corner.label().to_string(),
                clr: report.clr(),
                skew: report.skew(),
                max_latency: report.max_latency(),
            }
        })
        .collect()
}

/// The job's Monte-Carlo samples, as the campaign draws them.
fn variation(job: &Job, netlist: &contango_sim::Netlist, spec: VariationSpec) -> VariationMetrics {
    let evaluator = Evaluator::with_model(job.tech.clone(), job.config.model);
    let drawn = monte_carlo_samples(&evaluator, netlist, &spec.model, spec.samples, spec.seed);
    let skews: Vec<f64> = drawn.iter().map(|s| s.skew).collect();
    let worst_skew = skews.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean_skew = skews.iter().sum::<f64>() / skews.len() as f64;
    VariationMetrics {
        samples: spec.samples,
        seed: spec.seed,
        model: spec.model,
        skews,
        worst_skew,
        mean_skew,
    }
}

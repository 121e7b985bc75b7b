//! Multi-corner clock-network evaluation.
//!
//! The evaluator plays the role of the SPICE runs in the paper's flow
//! (Figure 1, "Clock-Network Evaluation"): it propagates rising and falling
//! transitions from the clock source through every buffered stage and
//! reports per-sink latencies and slews at both supply corners, from which
//! skew, Clock Latency Range and slew violations are derived.
//!
//! Every full evaluation runs through one stage walk, [`Evaluator::walk`]:
//! it visits the stages once in topological order, solves both transitions
//! at both supply corners of each stage in one call (one lane-interleaved
//! kernel call under the transient model), and can scale each stage's wire
//! resistance, node capacitance and drive resistance by a [`StageScale`] on
//! the fly.
//! [`Evaluator::evaluate`] is the unit-scale case; Monte-Carlo samples and
//! process corners ([`crate::variation`]) re-evaluate a finished netlist
//! under other scales and supplies without building a perturbed copy of it.
//! Scaling by exactly `1.0` is exact, so every path reports the bits an
//! evaluation of the equivalently scaled netlist would.

use crate::driver::DriverSpec;
use crate::models::{analytic_tap_timing, DelayModel};
use crate::netlist::{Netlist, StageDriver, TapKind};
use crate::report::{CornerReport, EvalReport, SinkTiming, TransitionTiming};
use crate::transient::{Lane, TransientKernel, MAX_LANES};
use crate::RcTree;
use contango_tech::Technology;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Options controlling an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalOptions {
    /// Delay model to use.
    pub model: DelayModel,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            model: DelayModel::Transient,
        }
    }
}

/// State of one transition edge arriving at a stage's driver input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct EdgeState {
    /// Arrival time relative to the corresponding source edge, in ps.
    pub(crate) arrival: f64,
    /// 10%–90% slew of the transition, in ps.
    pub(crate) slew: f64,
}

/// Rising and falling edge state at one point of the network.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct NodeState {
    pub(crate) rise: EdgeState,
    pub(crate) fall: EdgeState,
}

/// Timing of one output transition at one tap, relative to the arrival of
/// the causing input edge. Adding the input arrival yields the absolute
/// arrival, so these are the cacheable per-stage quantities: they depend on
/// the stage content, the supply corner, the transition direction and the
/// input slew — but not on when the input edge arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RelTiming {
    /// Stage delay (gate delay plus network delay), in ps.
    pub(crate) delay: f64,
    /// 10%–90% output slew at the tap, in ps.
    pub(crate) slew: f64,
}

/// Multiplicative factors applied to one stage's electricals during an
/// evaluation: the per-stage half of a Monte-Carlo sample or a process
/// corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageScale {
    /// Factor on every wire resistance of the stage's RC tree.
    pub(crate) res: f64,
    /// Factor on every node capacitance of the stage's RC tree.
    pub(crate) cap: f64,
    /// Factor on the buffer's output (drive) resistance.
    pub(crate) drive: f64,
}

impl Default for StageScale {
    fn default() -> Self {
        Self::UNIT
    }
}

impl StageScale {
    /// No scaling.
    pub(crate) const UNIT: Self = Self {
        res: 1.0,
        cap: 1.0,
        drive: 1.0,
    };

    /// `driver` with its drive resistance scaled; the off-chip clock source
    /// is never scaled.
    pub(crate) fn driver(&self, driver: StageDriver) -> StageDriver {
        match driver {
            StageDriver::Source(s) => StageDriver::Source(s),
            StageDriver::Buffer(mut d) => {
                d.output_res *= self.drive;
                StageDriver::Buffer(d)
            }
        }
    }

    /// `tree` with its resistances and capacitances scaled.
    pub(crate) fn tree(&self, tree: &RcTree) -> RcTree {
        let mut out = RcTree::new();
        tree.scaled_into(self.res, self.cap, &mut out);
        out
    }

    /// Whether the RC-tree factors are both exactly one.
    fn keeps_tree(&self) -> bool {
        self.res == 1.0 && self.cap == 1.0
    }
}

/// The supply voltages of the two corners an evaluation solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Supply {
    /// Nominal (high) supply, V; the reference of every derate.
    pub(crate) nominal: f64,
    /// Low supply, V.
    pub(crate) low: f64,
}

impl Supply {
    /// The technology's own two corners.
    pub(crate) fn of(tech: &Technology) -> Self {
        Self {
            nominal: tech.nominal_corner.vdd,
            low: tech.low_corner.vdd,
        }
    }
}

/// One output transition of a stage to solve: the corner's supply and
/// derate, the direction, and the slew of the causing input edge.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Transition {
    pub(crate) vdd: f64,
    /// Supply derate of the stage's buffer at `vdd` (unused for the clock
    /// source).
    pub(crate) derate: f64,
    pub(crate) rising: bool,
    pub(crate) input_slew: f64,
}

/// Reusable scratch of [`Evaluator::walk`] over one netlist. Its size is
/// bounded by the stage count plus the largest stage's node count, however
/// many walks reuse it.
#[derive(Debug)]
pub(crate) struct WalkScratch {
    /// Stage indices in topological order.
    order: Vec<usize>,
    /// Input edges of every stage at both corners, written by the parent
    /// stage before the topological order reaches the child.
    inputs: Vec<[NodeState; 2]>,
    stage: StageScratch,
    /// The stage's tap timings, transition by transition.
    timings: Vec<RelTiming>,
}

impl WalkScratch {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        Self {
            order: netlist.topological_order(),
            inputs: vec![[NodeState::default(); 2]; netlist.len()],
            stage: StageScratch::default(),
            timings: Vec::new(),
        }
    }
}

/// One stage loaded under its scale, ready for any number of transition
/// solves: the driver-independent sweeps for the analytic models, a scaled
/// copy of the tree for the transient model (unless the scale keeps it),
/// and the solvers' scratch.
#[derive(Debug, Default)]
pub(crate) struct StageScratch {
    scale: StageScale,
    down: Vec<f64>,
    rd: Vec<f64>,
    m1: Vec<f64>,
    m2: Vec<f64>,
    weighted: Vec<f64>,
    scaled: RcTree,
    kernel: TransientKernel,
}

impl StageScratch {
    fn load(&mut self, model: DelayModel, tree: &RcTree, scale: StageScale) {
        self.scale = scale;
        if model.is_analytic() {
            tree.downstream_caps_into(scale.cap, &mut self.down);
            tree.wire_delays_into(scale.res, &self.down, &mut self.rd);
        } else if !scale.keeps_tree() {
            tree.scaled_into(scale.res, scale.cap, &mut self.scaled);
        }
    }
}

/// The clock-network evaluator ("circuit simulation tool" of the paper).
///
/// The evaluator counts how many times [`Evaluator::evaluate`] has been
/// called; the flow reports this as the number of SPICE runs (Table V of the
/// paper counts the same quantity).
#[derive(Debug, Clone)]
pub struct Evaluator {
    tech: Technology,
    options: EvalOptions,
    runs: Cell<usize>,
}

impl Evaluator {
    /// Creates an evaluator with the default (transient) delay model.
    pub fn new(tech: Technology) -> Self {
        Self::with_options(tech, EvalOptions::default())
    }

    /// Creates an evaluator with explicit options.
    pub fn with_options(tech: Technology, options: EvalOptions) -> Self {
        Self {
            tech,
            options,
            runs: Cell::new(0),
        }
    }

    /// Creates an evaluator using a specific delay model.
    pub fn with_model(tech: Technology, model: DelayModel) -> Self {
        Self::with_options(tech, EvalOptions { model })
    }

    /// The technology this evaluator uses.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The delay model in use.
    pub fn model(&self) -> DelayModel {
        self.options.model
    }

    /// Number of evaluations performed so far (the "SPICE run" count).
    pub fn runs(&self) -> usize {
        self.runs.get()
    }

    /// Resets the evaluation counter.
    pub fn reset_runs(&self) {
        self.runs.set(0);
    }

    /// Counts one "SPICE run" (used by the incremental evaluator, whose
    /// evaluations must share this counter).
    pub(crate) fn count_run(&self) {
        self.runs.set(self.runs.get() + 1);
    }

    /// Evaluates the netlist at both supply corners.
    pub fn evaluate(&self, netlist: &Netlist) -> EvalReport {
        self.count_run();
        let supply = Supply::of(&self.tech);
        let mut sinks: [Vec<SinkTiming>; 2] = [Vec::new(), Vec::new()];
        let max_slew = self.walk(
            netlist,
            &mut WalkScratch::new(netlist),
            |_| StageScale::UNIT,
            supply,
            |corner, timing| sinks[corner].push(timing),
        );
        let [nominal, low] = sinks;
        let corner = |vdd: f64, mut sinks: Vec<SinkTiming>, max_slew: f64| {
            sinks.sort_by_key(|s| s.sink_id);
            CornerReport {
                vdd,
                sinks,
                max_slew,
            }
        };
        EvalReport {
            nominal: corner(supply.nominal, nominal, max_slew[0]),
            low: corner(supply.low, low, max_slew[1]),
            total_cap: netlist.total_cap(),
            slew_limit: self.tech.slew_limit,
            buffer_count: netlist.buffer_count(),
        }
    }

    /// The stage walk behind every full evaluation: propagates both
    /// transitions from the clock source through every stage at the
    /// `supply` corners, with stage `si` scaled by `scale(si)`, hands every
    /// sink's timing to `visit` with its corner (0 nominal, 1 low) and
    /// returns the worst slew of each corner, internal stage inputs
    /// included.
    ///
    /// Each stage is loaded once for both corners: its downstream
    /// capacitances and wire terms (analytic models) or its scaled tree copy
    /// (transient) go into `scratch`, and its four transitions are solved
    /// in one call, so the walk allocates nothing once `scratch` is warm.
    pub(crate) fn walk(
        &self,
        netlist: &Netlist,
        scratch: &mut WalkScratch,
        scale: impl Fn(usize) -> StageScale,
        supply: Supply,
        mut visit: impl FnMut(usize, SinkTiming),
    ) -> [f64; 2] {
        let vdd = [supply.nominal, supply.low];
        // Derated only once a buffer stage needs it: the source never
        // derates.
        let mut derate: [Option<f64>; 2] = [None; 2];
        let mut max_slew = [0.0_f64; 2];
        let WalkScratch {
            order,
            inputs,
            stage: loaded,
            timings,
        } = scratch;
        let source = EdgeState {
            arrival: 0.0,
            slew: source_slew(netlist),
        };
        inputs[netlist.root] = [NodeState {
            rise: source,
            fall: source,
        }; 2];

        for &si in order.iter() {
            let stage = &netlist.stages[si];
            let stage_scale = scale(si);
            let driver = stage_scale.driver(stage.driver);
            let is_source = driver.is_source();
            loaded.load(self.options.model, &stage.tree, stage_scale);

            // Transition 2c is corner c's rising output, 2c + 1 its falling
            // one.
            let mut edges = [EdgeState::default(); 4];
            let mut transitions = [Transition::default(); 4];
            for c in 0..2 {
                let input = inputs[si][c];
                // Output rising edge is caused by the input falling edge for
                // an inverter, by the input rising edge otherwise; and vice
                // versa.
                let (in_rise, in_fall) = if driver.inverting() {
                    (input.fall, input.rise)
                } else {
                    (input.rise, input.fall)
                };
                let derate_c = if is_source {
                    1.0
                } else {
                    *derate[c]
                        .get_or_insert_with(|| self.tech.derate_against(vdd[c], supply.nominal))
                };
                for (k, edge, rising) in [(2 * c, in_rise, true), (2 * c + 1, in_fall, false)] {
                    edges[k] = edge;
                    transitions[k] = Transition {
                        vdd: vdd[c],
                        derate: derate_c,
                        rising,
                        input_slew: edge.slew,
                    };
                }
            }
            let taps = stage.taps.iter().map(|t| t.node);
            self.solve_transitions(
                &stage.tree,
                loaded,
                taps,
                &driver.spec(),
                is_source,
                &transitions,
                timings,
            );

            let n_taps = stage.taps.len();
            for c in 0..2 {
                let rise = &timings[2 * c * n_taps..];
                let fall = &timings[(2 * c + 1) * n_taps..];
                for (k, tap) in stage.taps.iter().enumerate() {
                    let r = EdgeState {
                        arrival: edges[2 * c].arrival + rise[k].delay,
                        slew: rise[k].slew,
                    };
                    let f = EdgeState {
                        arrival: edges[2 * c + 1].arrival + fall[k].delay,
                        slew: fall[k].slew,
                    };
                    max_slew[c] = max_slew[c].max(r.slew).max(f.slew);
                    match tap.kind {
                        TapKind::Sink(id) => visit(
                            c,
                            SinkTiming {
                                sink_id: id,
                                rise: TransitionTiming {
                                    latency: r.arrival,
                                    slew: r.slew,
                                },
                                fall: TransitionTiming {
                                    latency: f.arrival,
                                    slew: f.slew,
                                },
                            },
                        ),
                        TapKind::Stage(child) => inputs[child][c] = NodeState { rise: r, fall: f },
                    }
                }
            }
        }
        max_slew
    }

    /// Solves `transitions` of an unscaled stage — the stage-solving
    /// primitive of [`crate::incremental::IncrementalEvaluator`]'s cached
    /// path. It runs the kernel [`Evaluator::walk`] runs, which guarantees
    /// the two produce bit-identical timing for identical inputs. `out`
    /// receives one entry per tap, transition by transition.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_stage(
        &self,
        tree: &RcTree,
        scratch: &mut StageScratch,
        taps: impl Iterator<Item = usize> + Clone,
        driver: &DriverSpec,
        is_source: bool,
        transitions: &[Transition],
        out: &mut Vec<RelTiming>,
    ) {
        scratch.load(self.options.model, tree, StageScale::UNIT);
        self.solve_transitions(tree, scratch, taps, driver, is_source, transitions, out);
    }

    /// Solves `transitions` (at most [`MAX_LANES`]) of `tree`, which
    /// `loaded` holds under its scale, into `out`: one entry per tap,
    /// transition by transition. `driver` is the (scaled) driver.
    #[allow(clippy::too_many_arguments)]
    fn solve_transitions(
        &self,
        tree: &RcTree,
        loaded: &mut StageScratch,
        taps: impl Iterator<Item = usize> + Clone,
        driver: &DriverSpec,
        is_source: bool,
        transitions: &[Transition],
        out: &mut Vec<RelTiming>,
    ) {
        // The clock source sits off-chip: it does not derate with the
        // on-chip supply and has no rise/fall asymmetry.
        let drive = |t: &Transition| {
            if is_source {
                (driver.output_res, 0.0)
            } else {
                (
                    driver.derated_res(t.derate, t.rising),
                    driver.intrinsic_delay * t.derate,
                )
            }
        };
        let scale = loaded.scale;
        out.clear();

        match self.options.model {
            DelayModel::Elmore | DelayModel::TwoPole => {
                let two_pole = self.options.model == DelayModel::TwoPole;
                for t in transitions {
                    let (res, intrinsic) = drive(t);
                    tree.elmore_into(res, &loaded.down, &loaded.rd, &mut loaded.m1);
                    if two_pole {
                        tree.second_moments_into(
                            res,
                            scale.res,
                            scale.cap,
                            &loaded.m1,
                            &mut loaded.weighted,
                            &mut loaded.m2,
                        );
                    }
                    out.extend(taps.clone().map(|node| {
                        // Elmore never reads the second moment.
                        let m2 = if two_pole { loaded.m2[node] } else { 0.0 };
                        let timing = analytic_tap_timing(
                            loaded.m1[node],
                            m2,
                            intrinsic,
                            t.input_slew,
                            two_pole,
                        );
                        RelTiming {
                            delay: timing.delay,
                            slew: timing.slew,
                        }
                    }));
                }
            }
            DelayModel::Transient => {
                let tree = if scale.keeps_tree() {
                    tree
                } else {
                    &loaded.scaled
                };
                let mut lanes = [Lane::default(); MAX_LANES];
                for (lane, t) in lanes.iter_mut().zip(transitions) {
                    let (res, _) = drive(t);
                    // The gate output ramp steepens with a stronger driver
                    // and degrades with a slow input edge.
                    let intrinsic_ramp =
                        2.0 * contango_tech::units::rc_ps(res, driver.output_cap.max(1.0));
                    *lane = Lane {
                        driver_res: res,
                        vdd: t.vdd,
                        ramp: (intrinsic_ramp + 0.4 * t.input_slew).max(2.0),
                    };
                }
                let kernel = &mut loaded.kernel;
                kernel.solve(tree, &lanes[..transitions.len()]);
                for (l, t) in transitions.iter().enumerate() {
                    let (_, intrinsic) = drive(t);
                    let gate_delay =
                        intrinsic + crate::driver::SLEW_DELAY_SENSITIVITY * t.input_slew;
                    out.extend(taps.clone().map(|node| RelTiming {
                        delay: gate_delay + kernel.delay50(l, node),
                        slew: kernel.slew(l, node),
                    }));
                }
            }
        }
    }
}

/// Slew of the clock source waveform.
fn source_slew(netlist: &Netlist) -> f64 {
    match netlist.stages[netlist.root].driver {
        StageDriver::Source(s) => s.slew,
        StageDriver::Buffer(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SourceSpec;
    use crate::netlist::{Stage, Tap};
    use crate::RcTree;

    /// Source → trunk wire → inverter → two symmetric sink branches, with an
    /// optional extra wire on sink 1 to create skew.
    fn two_sink_netlist(extra_len_res: f64, extra_cap: f64) -> Netlist {
        let tech = Technology::ispd09();
        let buf = tech.composite(tech.small_inverter(), 8);
        let d = DriverSpec::from_composite(&buf);

        let mut t0 = RcTree::new();
        let r0 = t0.add_root(1.0);
        let trunk = t0.add_node(r0, 120.0, 60.0 + d.input_cap);
        let stage0 = Stage {
            driver: StageDriver::Source(SourceSpec::ispd09()),
            tree: t0,
            taps: vec![Tap {
                node: trunk,
                kind: TapKind::Stage(1),
            }],
        };

        let mut t1 = RcTree::new();
        let r1 = t1.add_root(d.output_cap);
        let a = t1.add_node(r1, 60.0, 35.0);
        let b = t1.add_node(r1, 60.0 + extra_len_res, 35.0 + extra_cap);
        let stage1 = Stage {
            driver: StageDriver::Buffer(d),
            tree: t1,
            taps: vec![
                Tap {
                    node: a,
                    kind: TapKind::Sink(0),
                },
                Tap {
                    node: b,
                    kind: TapKind::Sink(1),
                },
            ],
        };
        Netlist::new(vec![stage0, stage1], 0).expect("valid netlist")
    }

    #[test]
    fn symmetric_netlist_has_negligible_skew() {
        let netlist = two_sink_netlist(0.0, 0.0);
        for model in [
            DelayModel::Elmore,
            DelayModel::TwoPole,
            DelayModel::Transient,
        ] {
            let eval = Evaluator::with_model(Technology::ispd09(), model);
            let report = eval.evaluate(&netlist);
            assert!(
                report.skew() < 1e-6,
                "model {model:?} skew {}",
                report.skew()
            );
            assert!(report.clr() > 0.0, "CLR must be positive");
        }
    }

    #[test]
    fn asymmetric_load_creates_skew_in_every_model() {
        let netlist = two_sink_netlist(300.0, 40.0);
        for model in [
            DelayModel::Elmore,
            DelayModel::TwoPole,
            DelayModel::Transient,
        ] {
            let eval = Evaluator::with_model(Technology::ispd09(), model);
            let report = eval.evaluate(&netlist);
            assert!(
                report.skew() > 1.0,
                "model {model:?} skew {}",
                report.skew()
            );
            // Sink 1 carries the extra wire, so it must be the slow one.
            let nominal = &report.nominal;
            let s0 = nominal.sink(0).expect("sink 0");
            let s1 = nominal.sink(1).expect("sink 1");
            assert!(s1.rise.latency > s0.rise.latency);
        }
    }

    #[test]
    fn low_corner_latencies_exceed_nominal() {
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        let report = eval.evaluate(&netlist);
        assert!(report.low.max_latency() > report.nominal.max_latency());
    }

    #[test]
    fn run_counter_increments() {
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        assert_eq!(eval.runs(), 0);
        let _ = eval.evaluate(&netlist);
        let _ = eval.evaluate(&netlist);
        assert_eq!(eval.runs(), 2);
        eval.reset_runs();
        assert_eq!(eval.runs(), 0);
    }

    #[test]
    fn transient_and_two_pole_agree_on_ordering() {
        let netlist = two_sink_netlist(500.0, 80.0);
        let spice =
            Evaluator::with_model(Technology::ispd09(), DelayModel::Transient).evaluate(&netlist);
        let awe =
            Evaluator::with_model(Technology::ispd09(), DelayModel::TwoPole).evaluate(&netlist);
        let slow_spice = spice.nominal.sink(1).expect("sink").rise.latency
            > spice.nominal.sink(0).expect("sink").rise.latency;
        let slow_awe = awe.nominal.sink(1).expect("sink").rise.latency
            > awe.nominal.sink(0).expect("sink").rise.latency;
        assert_eq!(slow_spice, slow_awe);
    }

    #[test]
    fn inverter_stage_swaps_rise_and_fall_paths() {
        // With an odd number of inversions, the rise latency at the sink is
        // driven by the pull-up of the last inverter; asymmetry makes rise
        // and fall latencies differ slightly.
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        let report = eval.evaluate(&netlist);
        let s0 = report.nominal.sink(0).expect("sink 0");
        assert!((s0.rise.latency - s0.fall.latency).abs() > 1e-6);
    }

    #[test]
    fn slew_is_reported_and_bounded_for_reasonable_stages() {
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        let report = eval.evaluate(&netlist);
        assert!(report.worst_slew() > 0.0);
        assert!(!report.has_slew_violation(), "slew {}", report.worst_slew());
    }
}

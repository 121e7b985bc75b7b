//! Backward-Euler transient simulation of one buffered stage.
//!
//! Every buffered stage of a clock network is an RC tree driven by a
//! Thevenin source (the stage driver's output resistance in series with a
//! saturated-ramp voltage source). Because the conductance matrix of a tree
//! is, after a leaf-first elimination order, triangular with exactly one
//! off-diagonal entry per node, each backward-Euler step is solved exactly
//! in `O(n)` without any general sparse-matrix machinery. The elimination
//! coefficients depend only on the time step, so they are factored once per
//! lane — one solve of the stage under one driver resistance, supply and
//! ramp.
//!
//! [`TransientKernel`] advances up to [`MAX_LANES`] lanes of the same tree
//! in lock step: an evaluation solves each stage for both transitions at
//! both supply corners. Every lane keeps its own time step, horizon and
//! stop step and does exactly the arithmetic of a one-lane solve, in the
//! same order, so each lane's results are bit-identical to solving it
//! alone.
//!
//! Threshold crossings stay off the per-step path. Each node keeps, per
//! lane, the lowest of the 10/50/90% thresholds it has not crossed yet
//! (`Node::pend`); a step whose new voltages all stay below it cannot
//! record anything, so one comparison per lane replaces the three
//! crossing tests, and only a lane that reaches its pending threshold
//! takes the recording path. The guard is exact: a skipped step would
//! have recorded nothing, and a NaN voltage fails it as it fails every
//! threshold test. The recorded times live in a cold per-node array that
//! is touched only when recording and when a lane stops, so a step streams
//! only the factorization, voltages and right-hand sides. What is left of
//! a step is the per-node chain of dependent divisions, whose latency
//! bounds a solve; interleaving the lanes overlaps their chains.

use crate::RcTree;
use serde::{Deserialize, Serialize};

/// Most lanes one kernel call advances together: {nominal, low} supply ×
/// {rise, fall}.
pub(crate) const MAX_LANES: usize = 4;

/// Waveform measurements of a transient run: for every node of the stage's
/// RC tree, the 50% crossing time relative to the 50% crossing of the source
/// ramp, and the 10%–90% transition time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientResult {
    /// Per-node network delay (50% source crossing to 50% node crossing), ps.
    pub delay50: Vec<f64>,
    /// Per-node 10%–90% output transition time, ps.
    pub slew: Vec<f64>,
    /// Number of time steps the solver used.
    pub steps: usize,
}

/// Backward-Euler solver for a single stage: the one-lane call of
/// `TransientKernel`.
#[derive(Debug, Clone)]
pub struct TransientSolver {
    tree: RcTree,
    lane: Lane,
}

impl TransientSolver {
    /// Prepares a solver for `tree` driven through `driver_res` ohms by a
    /// source ramping from 0 to `vdd` volts over `ramp_ps` picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty, the driver resistance is not finite and
    /// positive, or the supply or the ramp time is not finite.
    pub fn new(tree: &RcTree, driver_res: f64, vdd: f64, ramp_ps: f64) -> Self {
        assert!(!tree.is_empty(), "cannot simulate an empty stage");
        let lane = Lane {
            driver_res,
            vdd,
            ramp: ramp_ps,
        };
        lane.check();
        Self {
            tree: tree.clone(),
            lane,
        }
    }

    /// Runs the simulation and extracts delays and slews for every node.
    pub fn solve(&self) -> TransientResult {
        let mut kernel = TransientKernel::default();
        kernel.solve(&self.tree, &[self.lane]);
        let n = self.tree.len();
        TransientResult {
            delay50: (0..n).map(|i| kernel.delay50(0, i)).collect(),
            slew: (0..n).map(|i| kernel.slew(0, i)).collect(),
            steps: kernel.steps(0),
        }
    }
}

/// The source of one lane: the driver's output resistance and a ramp from 0
/// to `vdd` volts over `ramp` picoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lane {
    /// Driver output resistance, Ω.
    pub(crate) driver_res: f64,
    /// Supply voltage of the lane's corner, V.
    pub(crate) vdd: f64,
    /// 0%–100% ramp time of the source, ps (at least 1 ps is simulated).
    pub(crate) ramp: f64,
}

impl Lane {
    /// Rejects sources the solver cannot simulate: an infinite ramp or
    /// time constant makes the horizon, hence the step count, unbounded,
    /// and a NaN would silently simulate something else.
    fn check(&self) {
        assert!(
            self.driver_res.is_finite() && self.driver_res > 0.0,
            "driver resistance must be finite and positive"
        );
        assert!(self.vdd.is_finite(), "supply voltage must be finite");
        assert!(self.ramp.is_finite(), "ramp time must be finite");
    }
}

/// Per-node values of every lane.
type Lanes = [f64; MAX_LANES];

/// What a step reads and writes of one node under every lane, kept
/// together so that a step touches one record per node.
#[derive(Debug, Clone, Copy)]
struct Node {
    parent: usize,
    /// Conductance to the parent, S (node 0's, the driver's, is per lane).
    g: f64,
    /// `C/dt` in siemens (C/dt in fF/ps is 10⁻³ S).
    cdt: Lanes,
    /// Diagonal of `(C/dt + G)` after leaf-first elimination.
    diag: Lanes,
    v: Lanes,
    rhs: Lanes,
    /// Lowest threshold not yet crossed: −∞ before the first step, so that
    /// it is checked, and +∞ once all three are recorded.
    pend: Lanes,
}

/// Recorded 10%, 50% and 90% crossing times of one node, NaN until crossed.
type Crossings = [Lanes; 3];

/// The lane-interleaved backward-Euler kernel. It owns all of a solve's
/// scratch, so once it has seen the largest stage, solving allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct TransientKernel {
    nodes: Vec<Node>,
    /// Driver-independent Elmore sweeps, for each lane's time constant.
    down: Vec<f64>,
    rd: Vec<f64>,
    m1: Vec<f64>,
    /// Per-node crossing times, touched only when recording and when a
    /// lane stops.
    crossings: Vec<Crossings>,
    /// Per-node delay and slew of every lane, written when the lane stops.
    results: Vec<(Lanes, Lanes)>,
    steps: [usize; MAX_LANES],
}

impl TransientKernel {
    /// Solves `tree` for every lane; read the results back with
    /// [`Self::delay50`], [`Self::slew`] and [`Self::steps`].
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty, if there are no lanes or more than
    /// [`MAX_LANES`], if a driver resistance is not finite and positive, or
    /// if a supply or a ramp time is not finite.
    pub(crate) fn solve(&mut self, tree: &RcTree, lanes: &[Lane]) {
        assert!(!tree.is_empty(), "cannot simulate an empty stage");
        for lane in lanes {
            lane.check();
        }
        match lanes.len() {
            1 => self.run::<1>(tree, lanes),
            2 => self.run::<2>(tree, lanes),
            3 => self.run::<3>(tree, lanes),
            4 => self.run::<4>(tree, lanes),
            k => panic!("a kernel call takes 1 to {MAX_LANES} lanes, not {k}"),
        }
    }

    /// Network delay of `node` in `lane` (50% source crossing to 50% node
    /// crossing), ps; infinite when the node never crossed.
    pub(crate) fn delay50(&self, lane: usize, node: usize) -> f64 {
        self.results[node].0[lane]
    }

    /// 10%–90% transition time of `node` in `lane`, ps; infinite when the
    /// node did not cross both thresholds.
    pub(crate) fn slew(&self, lane: usize, node: usize) -> f64 {
        self.results[node].1[lane]
    }

    /// Number of time steps `lane` used.
    pub(crate) fn steps(&self, lane: usize) -> usize {
        self.steps[lane]
    }

    fn run<const L: usize>(&mut self, tree: &RcTree, lanes: &[Lane]) {
        let n = tree.len();
        let Self {
            nodes,
            down,
            rd,
            m1,
            crossings,
            results,
            steps,
        } = self;
        nodes.clear();
        nodes.extend(tree.iter().enumerate().map(|(i, (parent, res, _))| Node {
            parent,
            // Zero-length wires still need a finite conductance.
            g: if i == 0 { 0.0 } else { 1.0 / res.max(1e-3) },
            cdt: [0.0; MAX_LANES],
            diag: [0.0; MAX_LANES],
            v: [0.0; MAX_LANES],
            rhs: [0.0; MAX_LANES],
            pend: [f64::NEG_INFINITY; MAX_LANES],
        }));
        crossings.clear();
        crossings.resize(n, [[f64::NAN; MAX_LANES]; 3]);
        results.clear();
        results.resize(n, ([0.0; MAX_LANES], [0.0; MAX_LANES]));
        tree.downstream_caps_into(1.0, down);
        tree.wire_delays_into(1.0, down, rd);

        // Per-lane step size, horizon, source and thresholds.
        let (mut dt, mut inv_dt) = ([0.0; L], [0.0; L]);
        let mut max_steps = [0usize; L];
        let mut g0 = [0.0; L];
        let mut ramp = [0.0; L];
        let mut vdd = [0.0; L];
        let mut thresholds = [[0.0; MAX_LANES]; 3];
        for (l, lane) in lanes.iter().enumerate() {
            tree.elmore_into(lane.driver_res, down, rd, m1);
            let tau_max = m1.iter().copied().fold(0.0_f64, f64::max).max(1.0);
            ramp[l] = lane.ramp.max(1.0);
            vdd[l] = lane.vdd;
            // Step size: resolve the ramp and the dominant time constant.
            dt[l] = (tau_max / 60.0).min(ramp[l] / 20.0).clamp(0.02, 5.0);
            let horizon = ramp[l] + 12.0 * tau_max + 50.0;
            max_steps[l] = ((horizon / dt[l]).ceil() as usize).max(16);
            inv_dt[l] = 1.0 / dt[l];
            g0[l] = 1.0 / lane.driver_res;
            thresholds[0][l] = 0.1 * lane.vdd;
            thresholds[1][l] = 0.5 * lane.vdd;
            thresholds[2][l] = 0.9 * lane.vdd;
        }

        // Pre-factor the (C/dt + G) tree matrix with leaf-first elimination:
        // diag[i] = C_i/dt + Σ adjacent conductances, then (children have
        // larger indices than parents, so reverse order is leaf-first) the
        // off-diagonal entries are eliminated.
        for (i, (_, _, cap)) in tree.iter().enumerate() {
            let cap = cap.max(1e-6); // avoid singular steps on zero-cap nodes
            let node = &mut nodes[i];
            for l in 0..L {
                node.cdt[l] = cap * inv_dt[l] * 1e-3;
                node.diag[l] = node.cdt[l] + if i == 0 { g0[l] } else { node.g };
            }
        }
        for i in 1..n {
            let Node { parent, g, .. } = nodes[i];
            for d in &mut nodes[parent].diag[..L] {
                *d += g;
            }
        }
        for i in (1..n).rev() {
            let Node {
                parent, g, diag, ..
            } = nodes[i];
            for (p, d) in nodes[parent].diag[..L].iter_mut().zip(diag) {
                *p -= g * g / d;
            }
        }

        let mut below90 = [n; L];
        let mut done = [false; L];
        let mut running = L;
        let mut step = 0usize;
        while running > 0 {
            step += 1;
            let mut t = [0.0; L];
            for l in 0..L {
                t[l] = step as f64 * dt[l];
                nodes[0].rhs[l] += g0[l] * source_voltage(t[l], vdd[l], ramp[l]);
            }
            // Eliminate leaf-first.
            for i in (1..n).rev() {
                let Node {
                    parent,
                    g,
                    diag,
                    rhs,
                    ..
                } = nodes[i];
                let target = &mut nodes[parent].rhs;
                for l in 0..L {
                    target[l] += g * rhs[l] / diag[l];
                }
            }
            // Substitute root-first, recording threshold crossings from each
            // node's old and new voltage, and load the next step's
            // right-hand side C/dt·v.
            for i in 0..n {
                let mut next = [0.0; L];
                if i == 0 {
                    let node = &nodes[0];
                    for ((next, r), d) in next.iter_mut().zip(node.rhs).zip(node.diag) {
                        *next = r / d;
                    }
                } else {
                    let vp = nodes[nodes[i].parent].v;
                    let node = &nodes[i];
                    for l in 0..L {
                        next[l] = (node.rhs[l] + node.g * vp[l]) / node.diag[l];
                    }
                }
                let node = &mut nodes[i];
                // Below every pending threshold no crossing can be recorded.
                let reached = (0..L).fold(false, |any, l| any | (next[l] >= node.pend[l]));
                if reached {
                    let marks = &mut crossings[i];
                    let [v10, v50, v90] = &thresholds;
                    for l in 0..L {
                        if next[l] >= node.pend[l] {
                            let (old, new) = (node.v[l], next[l]);
                            record_crossing(&mut marks[0][l], old, new, v10[l], t[l], dt[l]);
                            record_crossing(&mut marks[1][l], old, new, v50[l], t[l], dt[l]);
                            if record_crossing(&mut marks[2][l], old, new, v90[l], t[l], dt[l]) {
                                below90[l] -= 1;
                            }
                            node.pend[l] = pending(marks, &thresholds, l);
                        }
                    }
                }
                for (l, &new) in next.iter().enumerate() {
                    node.v[l] = new;
                    node.rhs[l] = node.cdt[l] * new;
                }
            }
            // A stopped lane's results are taken now: its crossing slots may
            // keep changing while other lanes run on.
            for l in 0..L {
                if done[l] || !((below90[l] == 0 && t[l] > ramp[l]) || step == max_steps[l]) {
                    continue;
                }
                done[l] = true;
                running -= 1;
                steps[l] = step;
                // The source crosses 50% at ramp/2.
                let source_t50 = 0.5 * ramp[l];
                for (marks, (delay50, slew)) in crossings.iter().zip(results.iter_mut()) {
                    let [t10, t50, t90] = marks.map(|m| m[l]);
                    delay50[l] = if t50.is_nan() {
                        f64::INFINITY
                    } else {
                        t50 - source_t50
                    };
                    slew[l] = if t10.is_nan() || t90.is_nan() {
                        f64::INFINITY
                    } else {
                        t90 - t10
                    };
                }
            }
        }
    }
}

/// Saturated-ramp source voltage at time `t`.
fn source_voltage(t: f64, vdd: f64, ramp: f64) -> f64 {
    if t <= 0.0 {
        0.0
    } else if t >= ramp {
        vdd
    } else {
        vdd * t / ramp
    }
}

/// The lowest of `lane`'s thresholds whose crossing is not recorded yet;
/// +∞ once all are.
fn pending(marks: &Crossings, thresholds: &[Lanes; 3], lane: usize) -> f64 {
    (0..3)
        .filter(|&k| marks[k][lane].is_nan())
        .map(|k| thresholds[k][lane])
        .fold(f64::INFINITY, f64::min)
}

/// Records the interpolated time of an upward threshold crossing; returns
/// whether it did.
fn record_crossing(
    slot: &mut f64,
    v_prev: f64,
    v_new: f64,
    threshold: f64,
    t: f64,
    dt: f64,
) -> bool {
    if v_prev < threshold && v_new >= threshold && slot.is_nan() {
        let frac = if (v_new - v_prev).abs() > 1e-15 {
            (threshold - v_prev) / (v_new - v_prev)
        } else {
            1.0
        };
        *slot = t - dt + frac * dt;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contango_tech::units;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The step loop as it was before crossings were guarded, one lane at a
    /// time: the oracle the kernel must match bit for bit.
    fn reference(tree: &RcTree, lane: Lane) -> TransientResult {
        let n = tree.len();
        let (mut down, mut rd, mut m1) = (Vec::new(), Vec::new(), Vec::new());
        tree.downstream_caps_into(1.0, &mut down);
        tree.wire_delays_into(1.0, &down, &mut rd);
        tree.elmore_into(lane.driver_res, &down, &rd, &mut m1);
        let tau_max = m1.iter().copied().fold(0.0_f64, f64::max).max(1.0);
        let ramp = lane.ramp.max(1.0);
        let dt = (tau_max / 60.0).min(ramp / 20.0).clamp(0.02, 5.0);
        let horizon = ramp + 12.0 * tau_max + 50.0;
        let max_steps = ((horizon / dt).ceil() as usize).max(16);
        let inv_dt = 1.0 / dt;
        let g0 = 1.0 / lane.driver_res;
        let (v10, v50, v90) = (0.1 * lane.vdd, 0.5 * lane.vdd, 0.9 * lane.vdd);

        let parent: Vec<usize> = tree.iter().map(|(p, _, _)| p).collect();
        let g: Vec<f64> = tree
            .iter()
            .enumerate()
            .map(|(i, (_, res, _))| if i == 0 { 0.0 } else { 1.0 / res.max(1e-3) })
            .collect();
        let cdt: Vec<f64> = tree
            .iter()
            .map(|(_, _, cap)| cap.max(1e-6) * inv_dt * 1e-3)
            .collect();
        let mut diag: Vec<f64> = (0..n)
            .map(|i| cdt[i] + if i == 0 { g0 } else { g[i] })
            .collect();
        for i in 1..n {
            diag[parent[i]] += g[i];
        }
        for i in (1..n).rev() {
            diag[parent[i]] -= g[i] * g[i] / diag[i];
        }

        let (mut v, mut rhs) = (vec![0.0; n], vec![0.0; n]);
        let mut t10 = vec![f64::NAN; n];
        let mut t50 = vec![f64::NAN; n];
        let mut t90 = vec![f64::NAN; n];
        let mut below90 = n;
        let mut step = 0usize;
        loop {
            step += 1;
            let t = step as f64 * dt;
            rhs[0] += g0 * source_voltage(t, lane.vdd, ramp);
            for i in (1..n).rev() {
                rhs[parent[i]] += g[i] * rhs[i] / diag[i];
            }
            for i in 0..n {
                let new = if i == 0 {
                    rhs[0] / diag[0]
                } else {
                    (rhs[i] + g[i] * v[parent[i]]) / diag[i]
                };
                record_crossing(&mut t10[i], v[i], new, v10, t, dt);
                record_crossing(&mut t50[i], v[i], new, v50, t, dt);
                if record_crossing(&mut t90[i], v[i], new, v90, t, dt) {
                    below90 -= 1;
                }
                v[i] = new;
                rhs[i] = cdt[i] * new;
            }
            if (below90 == 0 && t > ramp) || step == max_steps {
                break;
            }
        }
        let source_t50 = 0.5 * ramp;
        TransientResult {
            delay50: t50
                .iter()
                .map(|&t| {
                    if t.is_nan() {
                        f64::INFINITY
                    } else {
                        t - source_t50
                    }
                })
                .collect(),
            slew: t10
                .iter()
                .zip(&t90)
                .map(|(&a, &b)| {
                    if a.is_nan() || b.is_nan() {
                        f64::INFINITY
                    } else {
                        b - a
                    }
                })
                .collect(),
            steps: step,
        }
    }

    /// Lumped RC: 100 Ω driver into a single 500 fF capacitor.
    fn lumped() -> RcTree {
        let mut t = RcTree::new();
        t.add_root(500.0);
        t
    }

    #[test]
    fn single_pole_delay_matches_theory_within_tolerance() {
        let tree = lumped();
        let solver = TransientSolver::new(&tree, 100.0, 1.2, 2.0);
        let res = solver.solve();
        // Theory: tau = 50 ps, t50 = ln2 * tau = 34.66 ps, slew = ln9*tau = 109.9 ps.
        let tau = units::rc_ps(100.0, 500.0);
        let expect_delay = units::DELAY_LN2 * tau;
        let expect_slew = units::SLEW_LN9 * tau;
        assert!(
            (res.delay50[0] - expect_delay).abs() < 0.1 * expect_delay,
            "delay {} vs {}",
            res.delay50[0],
            expect_delay
        );
        assert!(
            (res.slew[0] - expect_slew).abs() < 0.1 * expect_slew,
            "slew {} vs {}",
            res.slew[0],
            expect_slew
        );
    }

    #[test]
    fn downstream_nodes_are_later_and_slower() {
        let mut tree = RcTree::new();
        let r = tree.add_root(10.0);
        let a = tree.add_node(r, 200.0, 100.0);
        let b = tree.add_node(a, 200.0, 100.0);
        let c = tree.add_node(b, 200.0, 100.0);
        let solver = TransientSolver::new(&tree, 50.0, 1.2, 10.0);
        let res = solver.solve();
        assert!(res.delay50[a] < res.delay50[b]);
        assert!(res.delay50[b] < res.delay50[c]);
        assert!(res.slew[c] > res.slew[a]);
    }

    #[test]
    fn stronger_driver_is_faster() {
        let tree = lumped();
        let strong = TransientSolver::new(&tree, 55.0, 1.2, 2.0).solve();
        let weak = TransientSolver::new(&tree, 440.0, 1.2, 2.0).solve();
        assert!(strong.delay50[0] < weak.delay50[0]);
        assert!(strong.slew[0] < weak.slew[0]);
    }

    #[test]
    fn lower_vdd_changes_thresholds_not_network_delay_much() {
        // With a pure ramp source and linear RC network, delays measured at
        // proportional thresholds are supply-independent; the supply
        // dependence of stage delay enters through the derated driver
        // resistance, which the evaluator applies. Here we just confirm the
        // solver is well-behaved at both corners.
        let tree = lumped();
        let hi = TransientSolver::new(&tree, 100.0, 1.2, 2.0).solve();
        let lo = TransientSolver::new(&tree, 100.0, 1.0, 2.0).solve();
        assert!((hi.delay50[0] - lo.delay50[0]).abs() < 1.0);
    }

    #[test]
    fn branchy_tree_balances_equal_legs() {
        let mut tree = RcTree::new();
        let r = tree.add_root(5.0);
        let m = tree.add_node(r, 100.0, 50.0);
        let a = tree.add_node(m, 80.0, 60.0);
        let b = tree.add_node(m, 80.0, 60.0);
        let res = TransientSolver::new(&tree, 60.0, 1.2, 5.0).solve();
        assert!((res.delay50[a] - res.delay50[b]).abs() < 1e-6);
        assert!((res.slew[a] - res.slew[b]).abs() < 1e-6);
    }

    #[test]
    fn all_nodes_eventually_cross_ninety_percent() {
        let mut tree = RcTree::new();
        let r = tree.add_root(20.0);
        let mut prev = r;
        for _ in 0..20 {
            prev = tree.add_node(prev, 150.0, 30.0);
        }
        let res = TransientSolver::new(&tree, 80.0, 1.0, 40.0).solve();
        assert!(res.delay50.iter().all(|d| d.is_finite()));
        assert!(res.slew.iter().all(|s| s.is_finite()));
    }

    /// A branchy stage with a zero-length wire and a zero-cap node.
    fn awkward() -> RcTree {
        let mut tree = RcTree::new();
        let r = tree.add_root(5.0);
        let a = tree.add_node(r, 120.0, 40.0);
        tree.add_node(a, 0.0, 25.0);
        let c = tree.add_node(a, 300.0, 0.0);
        tree.add_node(c, 80.0, 60.0);
        tree
    }

    #[test]
    fn one_lane_solve_bits_are_pinned() {
        // Recorded from the solver before it became the one-lane call of
        // the lane-interleaved kernel.
        let pinned: [(u64, u64); 5] = [
            (0x4021061db4a33e62, 0x4052139aa303a5a1),
            (0x40335da407d3450c, 0x40579abd3cc99c1c),
            (0x40335da5aba37862, 0x40579abd3dc8a448),
            (0x404356cf736a6533, 0x405c0e3d51accac8),
            (0x4045dd120590edc9, 0x405c4bfa5867a16e),
        ];
        let lane = Lane {
            driver_res: 150.0,
            vdd: 1.2,
            ramp: 30.0,
        };
        let solved = TransientSolver::new(&awkward(), lane.driver_res, lane.vdd, lane.ramp).solve();
        for res in [solved, reference(&awkward(), lane)] {
            assert_eq!(res.steps, 145);
            for (i, &(delay, slew)) in pinned.iter().enumerate() {
                assert_eq!(res.delay50[i].to_bits(), delay, "node {i} delay");
                assert_eq!(res.slew[i].to_bits(), slew, "node {i} slew");
            }
        }
    }

    #[test]
    fn interleaved_lanes_match_one_lane_solves_bit_for_bit() {
        let tree = awkward();
        let lanes = [
            Lane {
                driver_res: 40.0,
                vdd: 1.2,
                ramp: 3.0,
            },
            Lane {
                driver_res: 400.0,
                vdd: 1.0,
                ramp: 90.0,
            },
            // No node ever reaches a threshold of a dead supply, so this
            // lane runs to its horizon's step cap.
            Lane {
                driver_res: 120.0,
                vdd: 0.0,
                ramp: 10.0,
            },
            Lane {
                driver_res: 900.0,
                vdd: 1.1,
                ramp: 250.0,
            },
        ];
        let alone: Vec<TransientResult> = lanes
            .iter()
            .map(|l| TransientSolver::new(&tree, l.driver_res, l.vdd, l.ramp).solve())
            .collect();
        let steps: Vec<usize> = alone.iter().map(|r| r.steps).collect();
        for (i, a) in steps.iter().enumerate() {
            assert!(
                !steps[i + 1..].contains(a),
                "lanes must stop apart: {steps:?}"
            );
        }
        assert_eq!(steps.iter().max(), Some(&steps[2]));
        assert!(alone[2].delay50.iter().all(|d| *d == f64::INFINITY));

        let mut kernel = TransientKernel::default();
        for width in 1..=MAX_LANES {
            for first in 0..lanes.len() {
                let picked: Vec<usize> = (0..width).map(|k| (first + k) % lanes.len()).collect();
                let batch: Vec<Lane> = picked.iter().map(|&p| lanes[p]).collect();
                kernel.solve(&tree, &batch);
                for (l, &p) in picked.iter().enumerate() {
                    assert_eq!(kernel.steps(l), alone[p].steps, "lane {p} of {picked:?}");
                    for node in 0..tree.len() {
                        assert_eq!(
                            kernel.delay50(l, node).to_bits(),
                            alone[p].delay50[node].to_bits(),
                            "lane {p} of {picked:?}, node {node} delay"
                        );
                        assert_eq!(
                            kernel.slew(l, node).to_bits(),
                            alone[p].slew[node].to_bits(),
                            "lane {p} of {picked:?}, node {node} slew"
                        );
                    }
                }
            }
        }
    }

    /// A random stage of `n` nodes; about one wire in eight has zero length
    /// and about one node in eight has no capacitance.
    fn random_tree(rng: &mut StdRng, n: usize) -> RcTree {
        let mut tree = RcTree::new();
        tree.add_root(rng.gen_range(0.0..40.0));
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            let res = if rng.gen_range(0..8) == 0 {
                0.0
            } else {
                rng.gen_range(1.0..200.0)
            };
            let cap = if rng.gen_range(0..8) == 0 {
                0.0
            } else {
                rng.gen_range(0.5..15.0)
            };
            tree.add_node(parent, res, cap);
        }
        tree
    }

    /// A random source; about one lane in six has a dead supply, and about
    /// one in ten a ramp under the simulated 1 ps minimum.
    fn random_lane(rng: &mut StdRng) -> Lane {
        Lane {
            driver_res: rng.gen_range(20.0..300.0),
            vdd: if rng.gen_range(0..6) == 0 {
                0.0
            } else {
                rng.gen_range(0.8..1.3)
            },
            ramp: if rng.gen_range(0..10) == 0 {
                rng.gen_range(0.0..2.0)
            } else {
                rng.gen_range(2.0..150.0)
            },
        }
    }

    #[test]
    fn kernel_matches_the_reference_step_loop_on_random_stages() {
        let mut rng = StdRng::seed_from_u64(0x7e57);
        let mut kernel = TransientKernel::default();
        let mut widths = [false; MAX_LANES + 1];
        let (mut zero_wire, mut zero_cap, mut dead, mut staggered) = (0, 0, 0, 0);
        for case in 0..120 {
            let n = match case {
                0 => 1,
                1 => 64,
                _ => rng.gen_range(1..65),
            };
            let tree = random_tree(&mut rng, n);
            let width = rng.gen_range(1..MAX_LANES + 1);
            let lanes: Vec<Lane> = (0..width).map(|_| random_lane(&mut rng)).collect();
            kernel.solve(&tree, &lanes);
            let mut steps = Vec::new();
            for (l, &lane) in lanes.iter().enumerate() {
                let want = reference(&tree, lane);
                assert_eq!(kernel.steps(l), want.steps, "case {case}, lane {l}");
                for node in 0..tree.len() {
                    assert_eq!(
                        kernel.delay50(l, node).to_bits(),
                        want.delay50[node].to_bits(),
                        "case {case}, lane {l}, node {node} delay"
                    );
                    assert_eq!(
                        kernel.slew(l, node).to_bits(),
                        want.slew[node].to_bits(),
                        "case {case}, lane {l}, node {node} slew"
                    );
                }
                steps.push(want.steps);
            }
            widths[width] = true;
            zero_wire += usize::from(tree.iter().skip(1).any(|(_, res, _)| res == 0.0));
            zero_cap += usize::from(tree.iter().any(|(_, _, cap)| cap == 0.0));
            dead += usize::from(lanes.iter().any(|l| l.vdd == 0.0));
            steps.sort_unstable();
            steps.dedup();
            staggered += usize::from(steps.len() > 1);
        }
        assert!(
            widths[1..].iter().all(|&w| w),
            "every lane width must be drawn"
        );
        for (what, count) in [
            ("zero-length wires", zero_wire),
            ("zero-cap nodes", zero_cap),
            ("dead-supply lanes", dead),
            ("lanes stopping apart", staggered),
        ] {
            assert!(count >= 20, "only {count} cases with {what}");
        }
    }

    #[test]
    #[should_panic(expected = "ramp time must be finite")]
    fn infinite_ramp_rejected() {
        let _ = TransientSolver::new(&lumped(), 100.0, 1.2, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "ramp time must be finite")]
    fn nan_ramp_rejected() {
        let _ = TransientSolver::new(&lumped(), 100.0, 1.2, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "supply voltage must be finite")]
    fn nan_supply_rejected() {
        let _ = TransientSolver::new(&lumped(), 100.0, f64::NAN, 2.0);
    }

    #[test]
    #[should_panic(expected = "driver resistance must be finite and positive")]
    fn infinite_driver_resistance_rejected() {
        let _ = TransientSolver::new(&lumped(), f64::INFINITY, 1.2, 2.0);
    }

    #[test]
    #[should_panic(expected = "supply voltage must be finite")]
    fn kernel_rejects_a_non_finite_lane() {
        let good = Lane {
            driver_res: 100.0,
            vdd: 1.2,
            ramp: 2.0,
        };
        let bad = Lane {
            vdd: f64::INFINITY,
            ..good
        };
        TransientKernel::default().solve(&lumped(), &[good, bad]);
    }

    #[test]
    #[should_panic(expected = "cannot simulate an empty stage")]
    fn empty_stage_rejected() {
        let tree = RcTree::new();
        let _ = TransientSolver::new(&tree, 100.0, 1.2, 2.0);
    }
}

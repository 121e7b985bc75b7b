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
//! alone. Interleaving the lanes overlaps their independent division
//! chains, which bound the speed of a single solve.

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
/// [`TransientKernel`].
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
    /// Panics if the tree is empty or the driver resistance is not positive.
    pub fn new(tree: &RcTree, driver_res: f64, vdd: f64, ramp_ps: f64) -> Self {
        assert!(!tree.is_empty(), "cannot simulate an empty stage");
        assert!(driver_res > 0.0, "driver resistance must be positive");
        Self {
            tree: tree.clone(),
            lane: Lane {
                driver_res,
                vdd,
                ramp: ramp_ps,
            },
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

/// Per-node values of every lane.
type Lanes = [f64; MAX_LANES];

/// One node of the tree under every lane, kept together so that a step
/// touches one record per node.
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
    t10: Lanes,
    t50: Lanes,
    t90: Lanes,
}

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
    /// [`MAX_LANES`], or if a driver resistance is not positive.
    pub(crate) fn solve(&mut self, tree: &RcTree, lanes: &[Lane]) {
        assert!(!tree.is_empty(), "cannot simulate an empty stage");
        assert!(
            lanes.iter().all(|l| l.driver_res > 0.0),
            "driver resistance must be positive"
        );
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
            t10: [f64::NAN; MAX_LANES],
            t50: [f64::NAN; MAX_LANES],
            t90: [f64::NAN; MAX_LANES],
        }));
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
        let (mut v10, mut v50, mut v90) = ([0.0; L], [0.0; L], [0.0; L]);
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
            v10[l] = 0.1 * lane.vdd;
            v50[l] = 0.5 * lane.vdd;
            v90[l] = 0.9 * lane.vdd;
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
                for l in 0..L {
                    let (old, new) = (node.v[l], next[l]);
                    record_crossing(&mut node.t10[l], old, new, v10[l], t[l], dt[l]);
                    record_crossing(&mut node.t50[l], old, new, v50[l], t[l], dt[l]);
                    if record_crossing(&mut node.t90[l], old, new, v90[l], t[l], dt[l]) {
                        below90[l] -= 1;
                    }
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
                for (node, (delay50, slew)) in nodes.iter().zip(results.iter_mut()) {
                    let (t10, t50, t90) = (node.t10[l], node.t50[l], node.t90[l]);
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
        let res = TransientSolver::new(&awkward(), 150.0, 1.2, 30.0).solve();
        assert_eq!(res.steps, 145);
        for (i, &(delay, slew)) in pinned.iter().enumerate() {
            assert_eq!(res.delay50[i].to_bits(), delay, "node {i} delay");
            assert_eq!(res.slew[i].to_bits(), slew, "node {i} slew");
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

    #[test]
    #[should_panic(expected = "cannot simulate an empty stage")]
    fn empty_stage_rejected() {
        let tree = RcTree::new();
        let _ = TransientSolver::new(&tree, 100.0, 1.2, 2.0);
    }
}

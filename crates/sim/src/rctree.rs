//! RC-tree representation and moment computation.

use serde::{Deserialize, Serialize};

/// One node of an [`RcTree`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct RcNode {
    /// Parent node index; `usize::MAX` for the root.
    parent: usize,
    /// Resistance of the wire from the parent to this node, in Ω.
    res: f64,
    /// Capacitance to ground at this node, in fF.
    cap: f64,
}

/// A grounded-capacitor RC tree, the electrical model of one buffered stage
/// of a clock network.
///
/// Node `0` is the *driving point* (the output of the stage's driver); every
/// other node is connected to its parent through a resistor and carries a
/// grounded capacitance (wire capacitance, sink capacitance and/or the input
/// capacitance of downstream buffers).
///
/// Nodes are created in topological order: a node's parent always has a
/// smaller index. All traversals exploit this to run in a single pass.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RcTree {
    nodes: Vec<RcNode>,
}

impl RcTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the root (driving-point) node with the given grounded
    /// capacitance and returns its index (always `0`).
    ///
    /// # Panics
    ///
    /// Panics if the tree already has a root.
    pub fn add_root(&mut self, cap: f64) -> usize {
        assert!(self.nodes.is_empty(), "RcTree already has a root");
        self.nodes.push(RcNode {
            parent: usize::MAX,
            res: 0.0,
            cap,
        });
        0
    }

    /// Adds a node connected to `parent` through `res` ohms, carrying `cap`
    /// femtofarads, and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an existing node index.
    pub fn add_node(&mut self, parent: usize, res: f64, cap: f64) -> usize {
        assert!(parent < self.nodes.len(), "parent node does not exist");
        self.nodes.push(RcNode { parent, res, cap });
        self.nodes.len() - 1
    }

    /// Adds `extra` femtofarads of grounded capacitance to node `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn add_cap(&mut self, idx: usize, extra: f64) {
        self.nodes[idx].cap += extra;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Parent of node `idx`, or `None` for the root.
    pub fn parent(&self, idx: usize) -> Option<usize> {
        let p = self.nodes[idx].parent;
        (p != usize::MAX).then_some(p)
    }

    /// Resistance from the parent to node `idx`, in Ω (zero for the root).
    pub fn resistance(&self, idx: usize) -> f64 {
        self.nodes[idx].res
    }

    /// Grounded capacitance at node `idx`, in fF.
    pub fn capacitance(&self, idx: usize) -> f64 {
        self.nodes[idx].cap
    }

    /// Total grounded capacitance of the tree, in fF.
    pub fn total_cap(&self) -> f64 {
        self.nodes.iter().map(|n| n.cap).sum()
    }

    /// Capacitance of the subtree rooted at each node (the node's own cap
    /// plus all descendants), in fF.
    pub fn downstream_caps(&self) -> Vec<f64> {
        let mut down = Vec::new();
        self.downstream_caps_into(1.0, &mut down);
        down
    }

    /// First delay moments (Elmore delays) of every node for a step applied
    /// through `driver_res` ohms at the driving point, in ps.
    ///
    /// `m1[i] = Σ_k R(path ∩ path_k) · C_k`, the classic Elmore expression,
    /// including the driver resistance which is common to all paths.
    pub fn elmore_from(&self, driver_res: f64) -> Vec<f64> {
        let (mut down, mut rd, mut m1) = (Vec::new(), Vec::new(), Vec::new());
        self.downstream_caps_into(1.0, &mut down);
        self.wire_delays_into(1.0, &down, &mut rd);
        self.elmore_into(driver_res, &down, &rd, &mut m1);
        m1
    }

    /// First and second delay moments of every node (in ps and ps²) for a
    /// step applied through `driver_res` ohms at the driving point.
    ///
    /// The second moment is computed with the standard recursive formula
    /// `m2[i] = Σ_k R(path ∩ path_k) · C_k · m1[k]`, evaluated with the same
    /// bottom-up/top-down sweeps as the Elmore delay.
    pub fn moments_from(&self, driver_res: f64) -> (Vec<f64>, Vec<f64>) {
        let m1 = self.elmore_from(driver_res);
        let (mut weighted, mut m2) = (Vec::new(), Vec::new());
        self.second_moments_into(driver_res, 1.0, 1.0, &m1, &mut weighted, &mut m2);
        (m1, m2)
    }

    /// [`RcTree::downstream_caps`] of this tree with every node capacitance
    /// scaled by `cap_factor`, written into `down`.
    pub(crate) fn downstream_caps_into(&self, cap_factor: f64, down: &mut Vec<f64>) {
        down.clear();
        down.extend(self.nodes.iter().map(|n| n.cap * cap_factor));
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent;
            down[p] += down[i];
        }
    }

    /// Each node's own wire term of the Elmore sum, `R_i · C_down(i)` in
    /// ps, with every wire resistance scaled by `res_factor`. It does not
    /// depend on the driver, so one computation serves every corner and
    /// transition direction of a stage.
    pub(crate) fn wire_delays_into(&self, res_factor: f64, down: &[f64], rd: &mut Vec<f64>) {
        rd.clear();
        rd.extend(
            self.nodes
                .iter()
                .zip(down)
                .map(|(n, &d)| n.res * res_factor * d * contango_tech::units::RC_TO_PS),
        );
    }

    /// Elmore delays for `driver_res` from the driver-independent sweeps
    /// [`RcTree::downstream_caps_into`] and [`RcTree::wire_delays_into`].
    pub(crate) fn elmore_into(&self, driver_res: f64, down: &[f64], rd: &[f64], m1: &mut Vec<f64>) {
        m1.clear();
        if self.nodes.is_empty() {
            return;
        }
        m1.push(driver_res * down[0] * contango_tech::units::RC_TO_PS);
        for (n, &r) in self.nodes.iter().zip(rd).skip(1) {
            let m = m1[n.parent] + r;
            m1.push(m);
        }
    }

    /// Second delay moments for `driver_res` given the first moments `m1`
    /// of the same tree, with wire resistances and node capacitances scaled
    /// by `res_factor` and `cap_factor`. `weighted` is scratch.
    pub(crate) fn second_moments_into(
        &self,
        driver_res: f64,
        res_factor: f64,
        cap_factor: f64,
        m1: &[f64],
        weighted: &mut Vec<f64>,
        m2: &mut Vec<f64>,
    ) {
        m2.clear();
        if self.nodes.is_empty() {
            return;
        }
        // "Capacitance-weighted Elmore" per subtree: Σ_{k ∈ subtree(i)} C_k · m1[k].
        weighted.clear();
        weighted.extend(
            self.nodes
                .iter()
                .zip(m1)
                .map(|(n, &m)| n.cap * cap_factor * m),
        );
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent;
            weighted[p] += weighted[i];
        }
        m2.push(driver_res * weighted[0] * contango_tech::units::RC_TO_PS);
        for (n, &w) in self.nodes.iter().zip(weighted.iter()).skip(1) {
            let m = m2[n.parent] + n.res * res_factor * w * contango_tech::units::RC_TO_PS;
            m2.push(m);
        }
    }

    /// Releases unused node storage.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    /// This tree with every wire resistance scaled by `res_factor` and every
    /// node capacitance by `cap_factor`, written into `out` (whose node
    /// storage is reused).
    pub(crate) fn scaled_into(&self, res_factor: f64, cap_factor: f64, out: &mut RcTree) {
        out.nodes.clear();
        out.nodes.extend(self.nodes.iter().map(|n| RcNode {
            parent: n.parent,
            res: n.res * res_factor,
            cap: n.cap * cap_factor,
        }));
    }

    /// Iterator over `(parent, res, cap)` triples in node order; the root
    /// reports `parent == usize::MAX`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.nodes.iter().map(|n| (n.parent, n.res, n.cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Driver -> 100 Ω/50 fF wire -> branch into two 50 Ω/20 fF legs.
    fn branchy() -> RcTree {
        let mut t = RcTree::new();
        let root = t.add_root(5.0);
        let mid = t.add_node(root, 100.0, 50.0);
        let a = t.add_node(mid, 50.0, 20.0);
        let b = t.add_node(mid, 50.0, 30.0);
        assert_eq!((root, mid, a, b), (0, 1, 2, 3));
        t
    }

    #[test]
    fn downstream_caps_accumulate() {
        let t = branchy();
        let d = t.downstream_caps();
        assert_eq!(d[0], 105.0);
        assert_eq!(d[1], 100.0);
        assert_eq!(d[2], 20.0);
        assert_eq!(d[3], 30.0);
        assert_eq!(t.total_cap(), 105.0);
    }

    #[test]
    fn elmore_is_monotonic_along_paths() {
        let t = branchy();
        let m1 = t.elmore_from(200.0);
        assert!(m1[1] > m1[0]);
        assert!(m1[2] > m1[1]);
        assert!(m1[3] > m1[1]);
    }

    #[test]
    fn elmore_matches_hand_computation() {
        // Single chain: Rd=100 into 10 fF, then 50 Ω into 40 fF.
        let mut t = RcTree::new();
        let r = t.add_root(10.0);
        let n = t.add_node(r, 50.0, 40.0);
        let m1 = t.elmore_from(100.0);
        // m1[root] = 100 * (10+40) fF = 5000 Ω·fF = 5 ps
        assert!((m1[r] - 5.0).abs() < 1e-12);
        // m1[n] = 5 ps + 50 * 40 fF = 5 + 2 = 7 ps
        assert!((m1[n] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn second_moment_exceeds_first_squared_over_two_for_chains() {
        // For RC chains m2 >= m1^2 / 2 (response is "wider" than a single
        // pole); just check positivity and monotonicity here.
        let t = branchy();
        let (m1, m2) = t.moments_from(100.0);
        for &m2_i in &m2 {
            assert!(m2_i > 0.0);
        }
        assert!(m2[2] > m2[1]);
        assert!(m1[2] > m1[1]);
    }

    #[test]
    fn single_node_tree_has_driver_dominated_delay() {
        let mut t = RcTree::new();
        let r = t.add_root(100.0);
        let m1 = t.elmore_from(55.0);
        assert!((m1[r] - 5.5).abs() < 1e-12);
    }

    #[test]
    fn add_cap_increases_total() {
        let mut t = branchy();
        let before = t.total_cap();
        t.add_cap(2, 15.0);
        assert_eq!(t.total_cap(), before + 15.0);
        assert_eq!(t.capacitance(2), 35.0);
    }

    #[test]
    #[should_panic(expected = "parent node does not exist")]
    fn invalid_parent_rejected() {
        let mut t = RcTree::new();
        t.add_root(1.0);
        t.add_node(7, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn double_root_rejected() {
        let mut t = RcTree::new();
        t.add_root(1.0);
        t.add_root(1.0);
    }

    #[test]
    fn parent_accessor() {
        let t = branchy();
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(2), Some(1));
        assert_eq!(t.resistance(2), 50.0);
    }
}

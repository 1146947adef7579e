//! The lower-bound family of Theorem 27 (Appendix B, Figures 2–3).
//!
//! Consistency and stability alone do **not** yield optimal preservers:
//! there are graphs and consistent-stable-symmetric schemes whose overlaid
//! preservers have `Ω(n^{2−1/2^f} σ^{1/2^f})` edges. The witness:
//!
//! * `G_f(d)` — a recursive tree: a spine path `u^f_1 … u^f_d`, with each
//!   `u^f_j` hanging a length-`(d−j+1)` path `Q^f_j` down to (for `f = 1`)
//!   a terminal leaf `z_j`, or (for `f ≥ 2`) the root of a disjoint copy
//!   of `G_{f−1}(√d)`. All root-to-leaf distances are equal, and each leaf
//!   `z` carries a fault set `Label_f(z)` of `≤ f` spine edges whose
//!   removal kills the root paths of exactly the leaves to its right;
//! * `G*_f(V, E, W)` — `G_f(d)` plus a vertex set `X` joined to every leaf
//!   by a complete bipartite graph `B`, with a *bad* weight function `W`
//!   that prices the `(z_j, x)` edges in strictly decreasing order of `j`.
//!   Under fault set `Label(z_j)` every `x ∈ X` is forced to route through
//!   `z_j` (the cheapest surviving leaf), so the `{s} × V` preserver must
//!   contain essentially all of `B` — `Ω(n^{2−1/2^f})` edges.
//!
//! The counterpart measurement (the paper's Section 4.1 remark): replace
//! `W` by a *random perturbation* scheme on the same graph and the forced
//! bipartite edges collapse to `O(|X| log λ)`-ish — random tiebreaking
//! escapes this lower bound. Experiment E6 plots both.

use rsp_core::{ExactScheme, RandomGridAtw, Rpts};
use rsp_graph::{EdgeId, FaultSet, Graph, GraphBuilder, Vertex};

use crate::ft_bfs::{overlay_paths, Preserver};

/// The recursive tree `G_f(d)` plus bookkeeping.
#[derive(Clone, Debug)]
struct GfParts {
    root: Vertex,
    /// Spine vertices `u^f_1 … u^f_d` of the outermost level.
    spine: Vec<Vertex>,
    /// Terminal leaves, left to right.
    leaves: Vec<Vertex>,
    /// Per leaf, `Label_f(z)` as vertex pairs (translated to edge ids once
    /// the full graph is built).
    labels: Vec<Vec<(Vertex, Vertex)>>,
}

fn gf_rec(f: usize, d: usize, next_id: &mut usize, edges: &mut Vec<(Vertex, Vertex)>) -> GfParts {
    assert!(f >= 1 && d >= 2, "G_f(d) needs f >= 1, d >= 2");
    // Spine u_1 … u_d.
    let spine: Vec<Vertex> = (0..d).map(|i| *next_id + i).collect();
    *next_id += d;
    for w in spine.windows(2) {
        edges.push((w[0], w[1]));
    }
    let mut leaves = Vec::new();
    let mut labels = Vec::new();
    for j0 in 0..d {
        // Q_j: path of d − j edges (paper's d − j + 1 with 1-based j)
        // hanging from u_j.
        let q_len = d - j0;
        let mut prev = spine[j0];
        for _ in 0..q_len.saturating_sub(1) {
            let v = *next_id;
            *next_id += 1;
            edges.push((prev, v));
            prev = v;
        }
        let attach = prev;
        // The spine edge this column's label contributes (none for the
        // last column).
        let spine_edge = (j0 + 1 < d).then(|| (spine[j0], spine[j0 + 1]));
        if f == 1 {
            let z = *next_id;
            *next_id += 1;
            edges.push((attach, z));
            leaves.push(z);
            labels.push(spine_edge.into_iter().collect());
        } else {
            let sub_d = (d as f64).sqrt().floor() as usize;
            let sub = gf_rec(f - 1, sub_d.max(2), next_id, edges);
            edges.push((attach, sub.root));
            for (leaf, sub_label) in sub.leaves.iter().zip(&sub.labels) {
                leaves.push(*leaf);
                let mut label: Vec<(Vertex, Vertex)> = spine_edge.into_iter().collect();
                label.extend(sub_label.iter().copied());
                labels.push(label);
            }
        }
    }
    GfParts { root: spine[0], spine, leaves, labels }
}

/// The assembled lower-bound graph `G*_f(V, E, W)` with its query family.
#[derive(Clone, Debug)]
pub struct LowerBoundGraph {
    /// The full graph: `G_f(d)` + `X` + the complete bipartite `B`.
    pub graph: Graph,
    /// The single source `s = u^f_1`.
    pub source: Vertex,
    /// Terminal leaves `z_1 … z_λ`, left to right.
    pub leaves: Vec<Vertex>,
    /// `Label_f(z_j)` per leaf, as edge ids (size `≤ f`).
    pub labels: Vec<FaultSet>,
    /// The `X` side of the bipartite gadget.
    pub xs: Vec<Vertex>,
    /// Edge ids of the bipartite graph `B` (the edges the bad scheme is
    /// forced to include).
    pub bipartite: Vec<EdgeId>,
    /// The fault parameter `f`.
    pub f: usize,
    /// The spine length `d`.
    pub d: usize,
}

/// Builds `G*_f(V, E, W)`'s graph with spine length `d` and `|X| =
/// x_count` (the paper sizes `X` to make `|V| = n`; parameterizing
/// directly is more convenient for sweeps).
///
/// # Panics
///
/// Panics if `f == 0`, `d < 2`, or `x_count == 0`.
pub fn build_lower_bound_graph(f: usize, d: usize, x_count: usize) -> LowerBoundGraph {
    assert!(f >= 1, "the construction starts at one fault");
    assert!(d >= 2 && x_count > 0, "need a spine and a nonempty X");
    let mut next_id = 0;
    let mut edges = Vec::new();
    let parts = gf_rec(f, d, &mut next_id, &mut edges);
    let last_spine = *parts.spine.last().expect("nonempty spine");
    let xs: Vec<Vertex> = (0..x_count).map(|i| next_id + i).collect();
    next_id += x_count;
    // u^f_d is connected to all of X (keeps X at distance d−1+1 in the
    // fault-free graph, strictly closer than any leaf route).
    for &x in &xs {
        edges.push((last_spine, x));
    }
    // The complete bipartite graph B between leaves and X. Edge ids of B
    // are recorded for the forced-edge count.
    let bipartite_start = edges.len();
    for &z in &parts.leaves {
        for &x in &xs {
            edges.push((z, x));
        }
    }
    let bipartite: Vec<EdgeId> = (bipartite_start..edges.len()).collect();

    let mut b = GraphBuilder::new(next_id);
    for (u, v) in &edges {
        b.add_edge(*u, *v).expect("construction yields a simple graph");
    }
    let graph = b.build();
    let labels = parts
        .labels
        .iter()
        .map(|pairs| {
            pairs
                .iter()
                .map(|&(u, v)| graph.edge_between(u, v).expect("label edges exist"))
                .collect()
        })
        .collect();
    LowerBoundGraph { graph, source: parts.root, leaves: parts.leaves, labels, xs, bipartite, f, d }
}

impl LowerBoundGraph {
    /// The "bad" consistent-stable-symmetric scheme of Theorem 27: unit
    /// weights everywhere except the bipartite edges, whose weights
    /// strictly decrease with the leaf index (`W(z_j, x) = 1 + (λ−j)/n⁴`
    /// in the paper; here scaled to exact integers).
    pub fn bad_scheme(&self) -> ExactScheme<u128> {
        let g = &self.graph;
        let lambda = self.leaves.len() as u128;
        // Scale chosen so the summed perturbations along any simple path
        // stay below one hop: n · λ < scale.
        let scale = (g.n() as u128) * (lambda + 1) + 1;
        let mut leaf_index = vec![None; g.n()];
        for (j, &z) in self.leaves.iter().enumerate() {
            leaf_index[z] = Some(j as u128);
        }
        let mut fwd = vec![scale; g.m()];
        for &e in &self.bipartite {
            let (a, b) = g.endpoints(e);
            let j = leaf_index[a].or(leaf_index[b]).expect("bipartite edge touches a leaf");
            fwd[e] = scale + (lambda - j); // decreasing in the leaf index
        }
        let bwd = fwd.clone(); // symmetric — the point of Theorem 27
        let bits = (128 - lambda.leading_zeros()) as usize;
        ExactScheme::from_costs(g.clone(), fwd, bwd, scale, bits)
    }

    /// The fault-set family of the experiment: `∅` plus every leaf label.
    pub fn fault_family(&self) -> Vec<FaultSet> {
        let mut fam = vec![FaultSet::empty()];
        fam.extend(self.labels.iter().cloned());
        fam
    }

    /// Counts how many bipartite edges a preserver was forced to include.
    pub fn bipartite_edges_in(&self, p: &Preserver) -> usize {
        self.bipartite.iter().filter(|&&e| p.contains(e)).count()
    }
}

/// Outcome of one lower-bound run (one row of the Figure 2/3 experiment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LowerBoundOutcome {
    /// Vertices of `G*_f`.
    pub n: usize,
    /// Edges of `G*_f`.
    pub m: usize,
    /// Edges of the resulting `{s} × V` preserver.
    pub preserver_edges: usize,
    /// Bipartite edges of `B` forced into the preserver.
    pub bipartite_forced: usize,
}

/// Runs the **bad scheme** over the label fault family and overlays the
/// selected trees: the preserver is forced to contain `Ω(λ · |X|)`
/// bipartite edges (Theorem 27).
pub fn run_bad_scheme(lb: &LowerBoundGraph) -> LowerBoundOutcome {
    let scheme = lb.bad_scheme();
    run_with(lb, &scheme)
}

/// Runs a **random-perturbation scheme** (the restorable kind) over the
/// same fault family: the forced bipartite edges collapse to roughly
/// `O(|X| log λ)` — the paper's remark that perturbation tiebreaking
/// escapes the lower bound.
pub fn run_perturbed_scheme(lb: &LowerBoundGraph, seed: u64) -> LowerBoundOutcome {
    let scheme = RandomGridAtw::theorem20(&lb.graph, seed).into_scheme();
    run_with(lb, &scheme)
}

fn run_with<S: Rpts>(lb: &LowerBoundGraph, scheme: &S) -> LowerBoundOutcome {
    let queries = lb.fault_family().into_iter().map(|f| (lb.source, f));
    let p = overlay_paths(scheme, queries);
    LowerBoundOutcome {
        n: lb.graph.n(),
        m: lb.graph.m(),
        preserver_edges: p.edge_count(),
        bipartite_forced: lb.bipartite_edges_in(&p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::{bfs, is_connected};

    #[test]
    fn g1_shape() {
        // G_1(3): spine 3, Q lengths 3,2,1 → 9 vertices, 8 edges (a tree),
        // all leaves at distance 3 from the root.
        let lb = build_lower_bound_graph(1, 3, 4);
        assert_eq!(lb.leaves.len(), 3);
        assert_eq!(lb.labels.len(), 3);
        assert!(is_connected(&lb.graph));
        let tree = bfs(&lb.graph, lb.source, &FaultSet::empty());
        for &z in &lb.leaves {
            assert_eq!(tree.dist(z), Some(3), "all leaves equidistant");
        }
        // X sits strictly closer via the spine shortcut.
        for &x in &lb.xs {
            assert_eq!(tree.dist(x), Some(3), "d−1 spine hops + 1");
        }
    }

    #[test]
    fn labels_kill_right_leaves_in_the_tree_part() {
        // Remove the bipartite rescue edges: under Label(z_j) exactly the
        // leaves strictly right of j lose their root path.
        let lb = build_lower_bound_graph(1, 4, 1);
        let tree_only = lb.graph.edge_subgraph(lb.graph.edges().map(|(e, _, _)| e).filter(|e| {
            !lb.bipartite.contains(e) && {
                // also drop the spine→X shortcut edges
                let (u, v) = lb.graph.endpoints(*e);
                !lb.xs.contains(&u) && !lb.xs.contains(&v)
            }
        }));
        for (j, label) in lb.labels.iter().enumerate() {
            if label.is_empty() {
                continue;
            }
            let faults: FaultSet = label
                .iter()
                .map(|e| {
                    let (u, v) = lb.graph.endpoints(e);
                    tree_only.edge_between(u, v).expect("tree edges survive")
                })
                .collect();
            let t = bfs(&tree_only, lb.source, &faults);
            for (k, &z) in lb.leaves.iter().enumerate() {
                if k <= j {
                    assert!(t.dist(z).is_some(), "leaf {k} should survive label {j}");
                } else {
                    assert!(t.dist(z).is_none(), "leaf {k} should die under label {j}");
                }
            }
        }
    }

    #[test]
    fn bad_scheme_forces_the_bipartite_graph() {
        let lb = build_lower_bound_graph(1, 5, 6);
        let out = run_bad_scheme(&lb);
        // Each of the d−1 labeled leaves must capture all |X| bipartite
        // edges (plus whatever the rescue paths add).
        let floor = (lb.d - 1) * lb.xs.len();
        assert!(out.bipartite_forced >= floor, "forced {} < floor {floor}", out.bipartite_forced);
    }

    #[test]
    fn perturbed_scheme_is_sparser() {
        let lb = build_lower_bound_graph(1, 8, 24);
        let bad = run_bad_scheme(&lb);
        let good = run_perturbed_scheme(&lb, 3);
        assert!(
            good.bipartite_forced < bad.bipartite_forced,
            "perturbation should beat the bad scheme: {good:?} vs {bad:?}"
        );
    }

    #[test]
    fn f2_construction_builds_and_runs() {
        let lb = build_lower_bound_graph(2, 4, 4);
        assert!(is_connected(&lb.graph));
        assert_eq!(lb.leaves.len(), 4 * 2, "d copies × √d leaves each");
        for label in &lb.labels {
            assert!(label.len() <= 2, "labels carry at most f edges");
        }
        let out = run_bad_scheme(&lb);
        assert!(out.bipartite_forced > 0);
    }

    #[test]
    fn all_leaves_equidistant_f2() {
        let lb = build_lower_bound_graph(2, 6, 2);
        let tree = bfs(&lb.graph, lb.source, &FaultSet::empty());
        let dists: Vec<_> = lb.leaves.iter().map(|&z| tree.dist(z).unwrap()).collect();
        assert!(dists.windows(2).all(|w| w[0] == w[1]), "Lemma 38(4): {dists:?}");
    }

    #[test]
    fn bad_scheme_is_hop_dominant_at_every_shape() {
        // `ExactScheme::from_costs` asserts hop dominance; the bad scheme
        // keeps its perturbations below one hop (`scale > n·λ`), so it
        // builds for every lower-bound shape the experiments use.
        for (f, d, x) in [(1, 3, 2), (1, 5, 6), (1, 8, 24), (2, 4, 4), (2, 6, 2)] {
            let lb = build_lower_bound_graph(f, d, x);
            let bad = lb.bad_scheme();
            let tree = bad.tree_from(lb.source, &FaultSet::empty());
            let truth = bfs(&lb.graph, lb.source, &FaultSet::empty());
            for v in lb.graph.vertices() {
                assert_eq!(tree.dist(v), truth.dist(v), "f={f} d={d} vertex {v}");
            }
        }
    }

    #[test]
    fn bad_scheme_is_antisymmetric_trivially() {
        // Symmetric weights: fwd = bwd, so fwd + bwd = 2·unit fails unless
        // the perturbation is zero — bipartite edges break it, which is
        // fine: the bad scheme is *symmetric*, not antisymmetric. Spot
        // check that the two differ.
        let lb = build_lower_bound_graph(1, 3, 2);
        let bad = lb.bad_scheme();
        assert!(!bad.is_antisymmetric(), "Theorem 27's scheme is symmetric, not ATW");
    }
}

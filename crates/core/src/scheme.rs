//! Replacement-path tiebreaking schemes (Definition 15) and the
//! weight-induced scheme of Theorem 19.

use std::any::Any;
use std::fmt;
use std::ops::ControlFlow;

use rsp_arith::PathCost;
use rsp_graph::{
    BfsTree, DirectedCosts, EdgeId, FaultSet, Graph, Path, SearchScratch, Vertex, WeightedSpt,
};

/// Opaque reusable search state for repeated scheme queries.
///
/// Obtained from [`Rpts::new_scratch`] and threaded through the `_with`
/// query methods ([`Rpts::tree_from_with`], [`Rpts::dist_with`],
/// [`Rpts::path_with`]); hot loops allocate one and reuse it across
/// thousands of `(source, fault set)` queries. The payload is
/// scheme-specific (the exact schemes store a
/// [`rsp_graph::SearchScratch`] over their cost type), hence the type
/// erasure: callers generic over [`Rpts`] need not know the cost type.
///
/// A scratch from one scheme may be handed to another; a payload type
/// mismatch is not an error — the query simply falls back to the
/// allocating path.
pub struct RptsScratch {
    payload: Option<Box<dyn Any>>,
    /// Unweighted ground-truth BFS state, shared by every consumer
    /// (restoration needs `dist_{G\F}` alongside the scheme's own trees).
    bfs: rsp_graph::SearchScratch<u32>,
}

impl RptsScratch {
    /// A scratch for schemes without buffer reuse (the trait default).
    pub fn unsupported() -> Self {
        RptsScratch { payload: None, bfs: rsp_graph::SearchScratch::new() }
    }

    /// Wraps a concrete scratch payload.
    pub fn from_value<T: Any>(value: T) -> Self {
        RptsScratch { payload: Some(Box::new(value)), bfs: rsp_graph::SearchScratch::new() }
    }

    /// The payload, if it has type `T`.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.payload.as_mut()?.downcast_mut()
    }

    /// Reusable state for ground-truth (unweighted) BFS queries issued
    /// next to the scheme's own trees — e.g. the `dist_{G\F}(s, t)` target
    /// every restoration attempt starts from.
    pub fn bfs_scratch(&mut self) -> &mut rsp_graph::SearchScratch<u32> {
        &mut self.bfs
    }
}

impl fmt::Debug for RptsScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Some(_) => write!(f, "RptsScratch(..)"),
            None => write!(f, "RptsScratch(unsupported)"),
        }
    }
}

/// An `f`-replacement-path tiebreaking scheme (Definition 15): a function
/// `π(s, t | F)` selecting one shortest `s ⇝ t` path in `G \ F` per ordered
/// pair and fault set.
///
/// Implementations in this workspace are all *tree-structured*: for a fixed
/// source and fault set the selected paths to all targets form a tree, so
/// the primary operation is [`Rpts::tree_from`] and `π(s, t | F)` is the
/// tree path. (This holds automatically for weight-induced schemes, whose
/// selected paths are unique shortest paths in `G* \ F`, and for the
/// BFS-order baseline.)
///
/// Note that `π(s, · | F)` and `π(t, · | F)` are **independent selections**
/// — the asymmetry that Theorem 2 shows is essential for restorability.
pub trait Rpts {
    /// The underlying fault-free graph `G`.
    fn graph(&self) -> &Graph;

    /// The selected shortest-path tree `π(s, · | F)` in `G \ F`.
    fn tree_from(&self, s: Vertex, faults: &FaultSet) -> BfsTree;

    /// The selected path `π(s, t | F)`, or `None` if `t` is unreachable
    /// in `G \ F`.
    ///
    /// The default computes a full tree; callers iterating over many targets
    /// for one `(s, F)` should call [`Rpts::tree_from`] once instead.
    fn path(&self, s: Vertex, t: Vertex, faults: &FaultSet) -> Option<Path> {
        self.tree_from(s, faults).path_to(t)
    }

    /// Unweighted distance of the selected path (equals `dist_{G\F}(s, t)`
    /// for a valid scheme).
    fn dist(&self, s: Vertex, t: Vertex, faults: &FaultSet) -> Option<u32> {
        self.tree_from(s, faults).dist(t)
    }

    /// Allocates reusable search state for this scheme's `_with` queries.
    ///
    /// The default supports no reuse; schemes backed by the scratch-based
    /// query engine override it. One scratch serves any number of
    /// consecutive queries against the same scheme.
    fn new_scratch(&self) -> RptsScratch {
        RptsScratch::unsupported()
    }

    /// [`Rpts::tree_from`], reusing `scratch`'s buffers across calls.
    ///
    /// Behavior is identical to `tree_from`; only the allocation profile
    /// differs. The default ignores the scratch.
    fn tree_from_with(&self, s: Vertex, faults: &FaultSet, scratch: &mut RptsScratch) -> BfsTree {
        let _ = scratch;
        self.tree_from(s, faults)
    }

    /// [`Rpts::dist`], reusing `scratch`'s buffers across calls.
    fn dist_with(
        &self,
        s: Vertex,
        t: Vertex,
        faults: &FaultSet,
        scratch: &mut RptsScratch,
    ) -> Option<u32> {
        self.tree_from_with(s, faults, scratch).dist(t)
    }

    /// [`Rpts::path`], reusing `scratch`'s buffers across calls.
    fn path_with(
        &self,
        s: Vertex,
        t: Vertex,
        faults: &FaultSet,
        scratch: &mut RptsScratch,
    ) -> Option<Path> {
        self.tree_from_with(s, faults, scratch).path_to(t)
    }

    /// Computes the selected tree for every query in `sources ×
    /// fault_sets`, invoking `visitor` once per query in source-major
    /// order (`(0, 0), (0, 1), …, (1, 0), …`). A visitor returning
    /// [`ControlFlow::Break`] stops the sweep immediately; remaining
    /// queries are never computed (how the verifiers and restoration
    /// searches exit early).
    ///
    /// The sweep entry point behind the verifiers, restoration sweeps,
    /// and preserver builds. It loops over [`Rpts::tree_from_with`] with
    /// one scratch, so the trees visited are identical to per-query
    /// [`Rpts::tree_from`] calls; for [`ExactScheme`] every tree is one
    /// run of the heap-free layered kernel ([`ExactScheme::spt_into`]).
    fn for_each_tree(
        &self,
        sources: &[Vertex],
        fault_sets: &[FaultSet],
        scratch: &mut RptsScratch,
        visitor: &mut dyn FnMut(usize, usize, BfsTree) -> ControlFlow<()>,
    ) {
        for (si, &s) in sources.iter().enumerate() {
            for (fi, faults) in fault_sets.iter().enumerate() {
                let tree = self.tree_from_with(s, faults, scratch);
                if visitor(si, fi, tree).is_break() {
                    return;
                }
            }
        }
    }
}

/// The scheme induced by exact per-direction edge costs in `G*` — the
/// weight-generated RPTS of Theorem 19.
///
/// Holds the graph plus, for every edge `e = (u, v)` (canonical `u < v`),
/// the exact scaled costs of traversing `u → v` (`fwd`) and `v → u`
/// (`bwd`). For an antisymmetric tiebreaking weight function these satisfy
/// `fwd[e] + bwd[e] = 2·unit` where `unit` is the scaled weight of an
/// unperturbed edge.
///
/// Constructed by [`crate::RandomGridAtw`] and [`crate::GeometricAtw`], or
/// directly via [`ExactScheme::from_costs`] (used by the lower-bound
/// machinery, which needs a specific *bad* weight function).
#[derive(Clone, Debug)]
pub struct ExactScheme<C> {
    graph: Graph,
    fwd: Vec<C>,
    bwd: Vec<C>,
    unit: C,
    bits_per_weight: usize,
    /// The minimum directed edge cost (`None` on an edgeless graph):
    /// the divisor [`ExactScheme::hops_of`] reads hop counts with.
    min_cost: Option<C>,
}

impl<C: PathCost + 'static> ExactScheme<C> {
    /// Builds a scheme from explicit per-direction edge costs.
    ///
    /// `unit` is the scaled cost of an unperturbed unit edge and
    /// `bits_per_weight` the storage the perturbations need (reported by
    /// experiment E10).
    ///
    /// The costs must be *hop-dominant*: `n·min > (n−1)·max` over every
    /// directed cost, checked once here with [`PathCost`] arithmetic. It
    /// makes every path with fewer hops strictly cheaper than every path
    /// with more, so the scheme's minimum-cost paths are shortest paths of
    /// `G \ F` (the Lemma 34 layering [`ExactScheme::spt_into`] relies
    /// on). Every tiebreaking weight function satisfies it: perturbations
    /// summed along a simple path stay below one unit.
    ///
    /// # Panics
    ///
    /// Panics if the cost vectors are not of length `g.m()`, if the costs
    /// are not hop-dominant, or if `n·min` or `(n−1)·max` overflows the
    /// cost type.
    pub fn from_costs(
        graph: Graph,
        fwd: Vec<C>,
        bwd: Vec<C>,
        unit: C,
        bits_per_weight: usize,
    ) -> Self {
        assert_eq!(fwd.len(), graph.m(), "one forward cost per edge");
        assert_eq!(bwd.len(), graph.m(), "one backward cost per edge");
        let range = cost_range(&fwd, &bwd);
        assert!(
            range.is_none_or(|(min, max)| is_hop_dominant(graph.n(), min, max)),
            "costs are not hop-dominant (n·min > (n−1)·max fails): \
             a cheaper path could take more hops than a shortest one"
        );
        let min_cost = range.map(|(min, _)| min.clone());
        ExactScheme { graph, fwd, bwd, unit, bits_per_weight, min_cost }
    }

    /// The hop count of a simple path of exact cost `cost`:
    /// `⌊cost / min⌋` over the minimum directed edge cost, `0` on an
    /// edgeless graph.
    ///
    /// Exact because of hop dominance: a path of `h ≤ n−1` hops costs
    /// between `h·min` and `h·max`, and `h·max < (h+1)·min` follows
    /// from `n·min > (n−1)·max`. So a tree cell's cost determines its
    /// hop count, and snapshot rows store only the cost.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultSet};
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let spt = scheme.spt(0, &FaultSet::empty());
    /// for v in g.vertices() {
    ///     assert_eq!(Some(scheme.hops_of(spt.cost(v).unwrap())), spt.hops(v));
    /// }
    /// ```
    pub fn hops_of(&self, cost: &C) -> u32 {
        self.min_cost.as_ref().map_or(0, |min| cost.floor_div(min))
    }

    /// The minimum directed edge cost, `None` on an edgeless graph. A
    /// cost shifted up by it reads exactly one hop more through
    /// [`ExactScheme::hops_of`].
    pub fn min_cost(&self) -> Option<&C> {
        self.min_cost.as_ref()
    }

    /// The exact cost of traversing edge `e` from `from` to its other
    /// endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `e`.
    pub fn edge_cost(&self, e: EdgeId, from: Vertex, to: Vertex) -> C {
        let (u, v) = self.graph.endpoints(e);
        if (from, to) == (u, v) {
            self.fwd[e].clone()
        } else {
            assert_eq!((from, to), (v, u), "({from}, {to}) does not match edge {e}");
            self.bwd[e].clone()
        }
    }

    /// The scaled cost of one unperturbed unit edge.
    pub fn unit(&self) -> &C {
        &self.unit
    }

    /// Bits needed to store one perturbation value (experiment E10).
    pub fn bits_per_weight(&self) -> usize {
        self.bits_per_weight
    }

    /// Checks the antisymmetry invariant `fwd[e] + bwd[e] = 2·unit` on
    /// every edge.
    pub fn is_antisymmetric(&self) -> bool {
        let two_units = self.unit.plus(&self.unit);
        (0..self.graph.m()).all(|e| self.fwd[e].plus(&self.bwd[e]) == two_units)
    }

    /// The full weighted shortest-path tree from `s` in `G* \ F`.
    ///
    /// For a valid tiebreaking weight function
    /// [`WeightedSpt::ties_detected`] is `false` and the tree's paths are
    /// the unique minimum-cost — hence canonical — shortest paths.
    ///
    /// Allocates a fresh scratch per call; loops should use
    /// [`ExactScheme::spt_into`].
    pub fn spt(&self, s: Vertex, faults: &FaultSet) -> WeightedSpt<C> {
        let mut scratch = SearchScratch::with_capacity(self.graph.n());
        self.spt_into(s, faults, &mut scratch);
        scratch.to_weighted_spt()
    }

    /// Runs the SPT query from `s` in `G* \ F` into a reusable scratch.
    ///
    /// The clone-free hot path: stored per-direction costs are borrowed
    /// straight into the relaxation (no [`ExactScheme::edge_cost`] clone),
    /// and results — costs, hops, parents, paths, tree edges — are read
    /// directly from the scratch without materializing a tree.
    ///
    /// The search is [`rsp_graph::layered_into`], a heap-free BFS that
    /// carries exact costs: the hop dominance [`ExactScheme::from_costs`]
    /// checks makes the tree layered exactly like a BFS tree (Lemma 34).
    /// Costs, hops and parents are those [`rsp_graph::dijkstra_into`]
    /// computes on the same costs, ties included; the tie flag reports
    /// genuine ties (two minimum-cost routes into one vertex).
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::{GeometricAtw, Rpts};
    /// use rsp_graph::{generators, FaultSet, SearchScratch};
    /// use rsp_arith::BigInt;
    ///
    /// let g = generators::grid(3, 3);
    /// let scheme = GeometricAtw::new(&g).into_scheme();
    /// let mut scratch = SearchScratch::<BigInt>::with_capacity(g.n());
    /// for e in 0..g.m() {
    ///     scheme.spt_into(0, &FaultSet::single(e), &mut scratch);
    ///     assert!(!scratch.ties_detected(), "Theorem 23 weights are tie-free");
    /// }
    /// ```
    pub fn spt_into(&self, s: Vertex, faults: &FaultSet, scratch: &mut SearchScratch<C>) {
        rsp_graph::layered_into(&self.graph, s, faults, self.directed_costs(), scratch);
    }

    /// The scheme's stored per-direction costs as a borrowing
    /// [`rsp_graph::EdgeCostSource`], ready to hand to the raw query
    /// engines ([`rsp_graph::dijkstra_into`], [`rsp_graph::layered_into`]).
    /// The heap engine is the independent cross-check of the layered
    /// kernel behind [`ExactScheme::spt_into`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::{RandomGridAtw, Rpts};
    /// use rsp_graph::{dijkstra_into, generators, FaultSet, SearchScratch};
    ///
    /// let g = generators::grid(3, 3);
    /// let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
    /// let mut heap = SearchScratch::<u128>::with_capacity(g.n());
    /// let mut layered = SearchScratch::<u128>::with_capacity(g.n());
    /// for e in 0..g.m() {
    ///     let faults = FaultSet::single(e);
    ///     dijkstra_into(scheme.graph(), 0, &faults, scheme.directed_costs(), &mut heap);
    ///     scheme.spt_into(0, &faults, &mut layered);
    ///     for v in g.vertices() {
    ///         assert_eq!(heap.parent(v), layered.parent(v), "same tree either way");
    ///     }
    /// }
    /// ```
    pub fn directed_costs(&self) -> DirectedCosts<'_, C> {
        DirectedCosts::new(&self.fwd, &self.bwd)
    }

    /// The exact cost of an explicit path under this scheme's weights.
    ///
    /// Returns `None` if the path is not valid in the graph.
    pub fn cost_of_path(&self, p: &Path) -> Option<C> {
        let mut total = C::zero();
        for (u, v) in p.steps() {
            let e = self.graph.edge_between(u, v)?;
            total = total.plus(&self.edge_cost(e, u, v));
        }
        Some(total)
    }

    /// The reverse-table path `π̄(s, t | F) := reverse(π(t, s | F))`.
    ///
    /// The MPLS deployment sketched in Section 1 carries two routing
    /// tables: one for `π` and one for its reverse. This accessor is the
    /// second table.
    pub fn reverse_path(&self, s: Vertex, t: Vertex, faults: &FaultSet) -> Option<Path> {
        self.path(t, s, faults).map(|p| p.reversed())
    }
}

/// The `(min, max)` over every directed cost in `fwd` and `bwd`, `None`
/// for an edgeless graph.
fn cost_range<'a, C: PathCost>(fwd: &'a [C], bwd: &'a [C]) -> Option<(&'a C, &'a C)> {
    let mut costs = fwd.iter().chain(bwd);
    let first = costs.next()?;
    Some(costs.fold((first, first), |(min, max), c| (min.min(c), max.max(c))))
}

/// `true` iff `n·min > (n−1)·max`.
fn is_hop_dominant<C: PathCost>(n: usize, min: &C, max: &C) -> bool {
    times(min, n) > times(max, n - 1)
}

/// `k·c` by double-and-add over [`PathCost::plus`].
fn times<C: PathCost>(c: &C, mut k: usize) -> C {
    let mut sum = C::zero();
    let mut power = c.clone();
    while k > 0 {
        if k & 1 == 1 {
            sum = sum.plus(&power);
        }
        k >>= 1;
        if k > 0 {
            power = power.plus(&power);
        }
    }
    sum
}

impl<C: PathCost + 'static> Rpts for ExactScheme<C> {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn tree_from(&self, s: Vertex, faults: &FaultSet) -> BfsTree {
        let mut scratch = SearchScratch::with_capacity(self.graph.n());
        self.spt_into(s, faults, &mut scratch);
        scratch.to_bfs_tree()
    }

    fn new_scratch(&self) -> RptsScratch {
        RptsScratch::from_value(SearchScratch::<C>::with_capacity(self.graph.n()))
    }

    fn tree_from_with(&self, s: Vertex, faults: &FaultSet, scratch: &mut RptsScratch) -> BfsTree {
        match scratch.downcast_mut::<SearchScratch<C>>() {
            Some(p) => {
                self.spt_into(s, faults, p);
                p.to_bfs_tree()
            }
            None => self.tree_from(s, faults),
        }
    }

    fn dist_with(
        &self,
        s: Vertex,
        t: Vertex,
        faults: &FaultSet,
        scratch: &mut RptsScratch,
    ) -> Option<u32> {
        match scratch.downcast_mut::<SearchScratch<C>>() {
            Some(p) => {
                self.spt_into(s, faults, p);
                p.hops(t)
            }
            None => self.dist(s, t, faults),
        }
    }

    fn path_with(
        &self,
        s: Vertex,
        t: Vertex,
        faults: &FaultSet,
        scratch: &mut RptsScratch,
    ) -> Option<Path> {
        match scratch.downcast_mut::<SearchScratch<C>>() {
            Some(p) => {
                self.spt_into(s, faults, p);
                p.path_to(t)
            }
            None => self.path(s, t, faults),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::generators;

    /// A hand-built antisymmetric scheme on the 4-cycle: unit 1000, scaled
    /// perturbations +1/-1 alternating so paths are unique.
    fn tiny_scheme() -> ExactScheme<u128> {
        let g = generators::cycle(4);
        let m = g.m();
        let fwd: Vec<u128> = (0..m).map(|e| 1000 + (e as u128 % 3) + 1).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 2000 - f).collect();
        ExactScheme::from_costs(g, fwd, bwd, 1000, 2)
    }

    #[test]
    fn antisymmetry_invariant() {
        assert!(tiny_scheme().is_antisymmetric());
    }

    #[test]
    fn antisymmetry_violation_detected() {
        let g = generators::cycle(3);
        let s = ExactScheme::from_costs(g, vec![10u64, 10, 10], vec![10u64, 10, 11], 10u64, 1);
        assert!(!s.is_antisymmetric());
    }

    #[test]
    #[should_panic(expected = "not hop-dominant")]
    fn costs_with_a_cheaper_longer_path_are_rejected() {
        // Triangle 0-1-2 whose two-hop route 0 → 1 → 2 (20) undercuts the
        // direct edge 0 → 2 (25): the minimum-cost path is not a shortest
        // one, so hops read off an SPT would not be distances.
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let costs = |(_, u, v): (EdgeId, Vertex, Vertex)| if (u, v) == (0, 2) { 25u64 } else { 10 };
        let fwd: Vec<u64> = g.edges().map(costs).collect();
        let _ = ExactScheme::from_costs(g, fwd.clone(), fwd, 10, 1);
    }

    #[test]
    fn hop_dominance_is_strict_at_the_boundary() {
        // n = 3: `3·min > 2·max` holds for costs in [10, 14]; at [10, 15]
        // both sides are 30 and the strict check fails.
        assert_eq!(cost_range(&[10u64, 14, 14], &[14, 10, 12]), Some((&10, &14)));
        assert!(is_hop_dominant(3, &10u64, &14));
        assert_eq!(cost_range(&[10u64, 15, 10], &[10, 10, 10]), Some((&10, &15)));
        assert!(!is_hop_dominant(3, &10u64, &15));
        assert_eq!(cost_range::<u64>(&[], &[]), None, "edgeless graphs pass vacuously");
        assert_eq!(times(&7u128, 0), 0);
        assert_eq!(times(&7u128, 13), 91);
    }

    #[test]
    fn hops_of_is_exact_at_the_hop_dominance_edge() {
        // Path graph on n vertices, every edge n + 1 forward and n
        // backward: n·min = n² = (n−1)·max + 1, the tightest costs
        // `from_costs` accepts. Both the all-max and the all-min h-hop
        // paths must read back exactly h.
        for n in [2usize, 3, 10, 64] {
            let (min, max) = (n as u64, n as u64 + 1);
            let g = generators::path_graph(n);
            let scheme = ExactScheme::from_costs(g, vec![max; n - 1], vec![min; n - 1], min, 1);
            assert_eq!(scheme.min_cost(), Some(&min));
            for h in 0..n as u64 {
                assert_eq!(scheme.hops_of(&(h * max)), h as u32, "n = {n}, {h} max hops");
                assert_eq!(scheme.hops_of(&(h * min)), h as u32, "n = {n}, {h} min hops");
            }
            for s in [0, n - 1] {
                let spt = scheme.spt(s, &FaultSet::empty());
                for v in scheme.graph().vertices() {
                    assert_eq!(Some(scheme.hops_of(spt.cost(v).unwrap())), spt.hops(v));
                }
            }
        }
    }

    #[test]
    fn hops_of_is_zero_on_an_edgeless_graph() {
        let g = Graph::from_edges(3, []).unwrap();
        let scheme = ExactScheme::<u128>::from_costs(g, vec![], vec![], 1, 1);
        assert_eq!(scheme.min_cost(), None);
        assert_eq!(scheme.hops_of(&0), 0);
        assert_eq!(scheme.hops_of(&12_345), 0);
    }

    #[test]
    fn in_repo_weight_constructions_are_hop_dominant() {
        // `from_costs` asserts hop dominance, so building is the check:
        // Theorem 20, Corollary 22 (coarsest grids of the experiments) and
        // Theorem 23 on tie-rich and Internet-shaped graphs.
        use crate::{GeometricAtw, RandomGridAtw};
        use rsp_graph::gen;
        let graphs = [
            generators::grid(4, 5),
            generators::cycle(7),
            generators::hypercube(4),
            gen::preferential_attachment(60, 3, 1),
            gen::watts_strogatz(60, 4, 0.2, 2),
            gen::isp_hierarchy(10, 50, 3),
        ];
        for g in &graphs {
            let _ = RandomGridAtw::theorem20(g, 5).into_scheme();
            for f in 0..3 {
                let _ = RandomGridAtw::corollary22(g, f, 1, 7).into_scheme();
            }
            for k in [1, 2, 4] {
                let _ = RandomGridAtw::with_half_width(g, k, 9).into_scheme();
            }
            let _ = GeometricAtw::new(g).into_scheme();
        }
        let _ = tiny_scheme();
    }

    #[test]
    fn edge_cost_orientation() {
        let s = tiny_scheme();
        let (u, v) = s.graph().endpoints(0);
        let f = s.edge_cost(0, u, v);
        let b = s.edge_cost(0, v, u);
        assert_eq!(f + b, 2000);
    }

    #[test]
    fn cost_of_path_matches_spt() {
        let s = tiny_scheme();
        let spt = s.spt(0, &FaultSet::empty());
        for t in s.graph().vertices() {
            let p = spt.path_to(t).unwrap();
            assert_eq!(s.cost_of_path(&p).as_ref(), spt.cost(t));
        }
    }

    #[test]
    fn cost_of_invalid_path_is_none() {
        let s = tiny_scheme();
        assert!(s.cost_of_path(&Path::new(vec![0, 2])).is_none());
    }

    #[test]
    fn reverse_path_reverses() {
        let s = tiny_scheme();
        let p = s.path(0, 2, &FaultSet::empty()).unwrap();
        let q = s.reverse_path(2, 0, &FaultSet::empty()).unwrap();
        assert_eq!(p.reversed(), q);
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let s = tiny_scheme();
        let g = s.graph().clone();
        let mut scratch = s.new_scratch();
        let fault_sets = [FaultSet::empty(), FaultSet::single(0), FaultSet::from_edges([1, 2])];
        for faults in &fault_sets {
            for src in g.vertices() {
                let with = s.tree_from_with(src, faults, &mut scratch);
                let plain = s.tree_from(src, faults);
                for t in g.vertices() {
                    assert_eq!(with.dist(t), plain.dist(t));
                    assert_eq!(with.parent(t), plain.parent(t));
                    assert_eq!(s.dist_with(src, t, faults, &mut scratch), s.dist(src, t, faults));
                    assert_eq!(s.path_with(src, t, faults, &mut scratch), s.path(src, t, faults));
                }
            }
        }
    }

    #[test]
    fn spt_into_matches_spt() {
        let s = tiny_scheme();
        let mut scratch = rsp_graph::SearchScratch::<u128>::new();
        for src in s.graph().vertices() {
            s.spt_into(src, &FaultSet::single(1), &mut scratch);
            let fresh = s.spt(src, &FaultSet::single(1));
            for t in s.graph().vertices() {
                assert_eq!(scratch.cost(t), fresh.cost(t));
                assert_eq!(scratch.hops(t), fresh.hops(t));
            }
            assert_eq!(scratch.ties_detected(), fresh.ties_detected());
        }
    }

    #[test]
    fn for_each_tree_matches_per_query_trees() {
        let s = tiny_scheme();
        let g = s.graph().clone();
        let sources: Vec<Vertex> = g.vertices().collect();
        let fault_sets: Vec<FaultSet> = std::iter::once(FaultSet::empty())
            .chain((0..g.m()).map(FaultSet::single))
            .chain([FaultSet::from_edges([0, 2])])
            .collect();
        let mut scratch = s.new_scratch();
        let mut visited = 0usize;
        s.for_each_tree(&sources, &fault_sets, &mut scratch, &mut |si, fi, tree| {
            visited += 1;
            let plain = s.tree_from(sources[si], &fault_sets[fi]);
            for t in g.vertices() {
                assert_eq!(tree.dist(t), plain.dist(t), "s{si} f{fi} dist({t})");
                assert_eq!(tree.parent(t), plain.parent(t), "s{si} f{fi} parent({t})");
            }
            ControlFlow::Continue(())
        });
        assert_eq!(visited, sources.len() * fault_sets.len());

        // The unsupported-scratch fallback visits the same trees.
        let mut none = RptsScratch::unsupported();
        let mut fallback = 0usize;
        s.for_each_tree(&sources, &fault_sets, &mut none, &mut |si, fi, tree| {
            fallback += 1;
            assert_eq!(tree.dist(sources[si]), Some(0), "f{fi} roots at its source");
            ControlFlow::Continue(())
        });
        assert_eq!(fallback, visited);
    }

    #[test]
    fn foreign_scratch_falls_back_to_allocating_path() {
        let s = tiny_scheme();
        // A payload of the wrong type: queries must still answer correctly.
        let mut wrong = RptsScratch::from_value(42u8);
        assert_eq!(
            s.dist_with(0, 2, &FaultSet::empty(), &mut wrong),
            s.dist(0, 2, &FaultSet::empty())
        );
        let mut none = RptsScratch::unsupported();
        let tree = s.tree_from_with(0, &FaultSet::empty(), &mut none);
        assert_eq!(tree.dist(2), s.dist(0, 2, &FaultSet::empty()));
    }

    #[test]
    fn tree_from_is_bfs_consistent() {
        let s = tiny_scheme();
        let tree = s.tree_from(1, &FaultSet::empty());
        for t in s.graph().vertices() {
            assert_eq!(
                tree.dist(t),
                rsp_graph::bfs(s.graph(), 1, &FaultSet::empty()).dist(t),
                "perturbed shortest paths must stay shortest"
            );
        }
    }
}

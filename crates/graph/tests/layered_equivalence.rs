//! Layered-kernel differential suite: the heap-free weighted BFS
//! [`layered_into`] (the sequential form of the paper's Lemma 34) must be
//! cell-identical — reached set, hop counts, exact costs, parents and tie
//! flags — to both the preserved reference engine
//! [`rsp_graph::reference::ref_dijkstra`] and the production heap engine
//! [`dijkstra_into`], on hop-dominant costs.
//!
//! Costs follow the repository's weight constructions (rebuilt here, since
//! this crate sits below `rsp_core`): Theorem 20's random grid on `u128`
//! and Theorem 23's geometric weights on `BigInt`. Graphs come from the
//! `gen` families (preferential attachment, Watts–Strogatz, ISP
//! hierarchy) plus grids and cycles; fault sets have 0 to 3 edges and
//! include ones that cut a vertex off. Two further properties pin the
//! tie semantics: coarse grids that force equal costs, and a hand-built
//! equal-cost grid scheme on which the `(key, id)` tie-parent rule and
//! BFS discovery order pick different parents.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_arith::{BigInt, PathCost};
use rsp_graph::reference::{ref_dijkstra, RefGraph, RefTree};
use rsp_graph::{
    dijkstra_into, gen, generators, layered_into, DirectedCosts, FaultSet, Graph, SearchScratch,
    Vertex,
};

/// One graph per family: the three `gen` families, a grid and a cycle.
fn family_graph() -> impl Strategy<Value = Graph> {
    (0u8..5, 10usize..=28, any::<u64>()).prop_map(|(fam, n, seed)| match fam {
        0 => gen::preferential_attachment(n, 2, seed),
        1 => gen::watts_strogatz(n, 4, 0.2, seed),
        2 => gen::isp_hierarchy(5 + n / 4, n, seed),
        3 => generators::grid(3, n / 3),
        _ => generators::cycle(n),
    })
}

/// A `(source, fault set)` plan with `|F|` from 0 to 3. Every fifth set
/// holds up to three edges around one vertex, which cuts off every vertex
/// of degree at most 3 (all of a cycle, a grid's rim, PA's late joiners).
fn queries(
    g: &Graph,
    picks: &[(prop::sample::Index, prop::sample::Index)],
) -> Vec<(Vertex, FaultSet)> {
    picks
        .iter()
        .enumerate()
        .map(|(i, (sv, ev))| {
            let s = sv.index(g.n());
            let e = ev.index(g.m());
            let faults = match i % 5 {
                0 => FaultSet::empty(),
                1 => FaultSet::single(e),
                2 => FaultSet::from_edges([e, (e + g.m() / 2) % g.m()]),
                3 => FaultSet::from_edges([e, (e + g.m() / 3) % g.m(), (e + g.m() / 2) % g.m()]),
                _ => {
                    let t = ev.index(g.n());
                    FaultSet::from_edges(g.neighbors(t).map(|(_, e)| e).take(3))
                }
            };
            (s, faults)
        })
        .collect()
}

/// Theorem 20's random grid, as `rsp_core::RandomGridAtw` builds it:
/// unit `2nK`, one numerator `i ∈ [−K, K]` per edge, `unit + i` forward
/// and `unit − i` backward.
fn grid_costs(g: &Graph, half_width: u128, seed: u64) -> (Vec<u128>, Vec<u128>) {
    let unit = 2 * g.n() as u128 * half_width;
    let k = half_width as i64;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..g.m())
        .map(|_| {
            let i = rng.random_range(-k..=k) as i128;
            ((unit as i128 + i) as u128, (unit as i128 - i) as u128)
        })
        .unzip()
}

/// Theorem 23's geometric weights, as `rsp_core::GeometricAtw` builds
/// them: unit `2n·4^m`, edge `i` (1-based) perturbed by `∓4^{m−i}`.
fn geometric_costs(g: &Graph) -> (Vec<BigInt>, Vec<BigInt>) {
    let m = g.m() as u32;
    let unit = BigInt::pow2(2 * m + 1) * g.n() as u64;
    (0..m)
        .map(|idx| {
            let perturb = BigInt::pow2(2 * (m - idx - 1));
            (&unit + &(-perturb.clone()), &unit + &perturb)
        })
        .unzip()
}

/// The reference tree over per-direction cost tables.
fn reference<C: PathCost>(
    r: &RefGraph,
    s: Vertex,
    faults: &FaultSet,
    fwd: &[C],
    bwd: &[C],
) -> RefTree<C> {
    ref_dijkstra(
        r,
        s,
        faults,
        |e, from, to| if from < to { fwd[e].clone() } else { bwd[e].clone() },
    )
}

/// Reached set, hops, costs and parents of the kernel against the
/// reference and the heap engine, cell by cell.
fn assert_cells<C: PathCost>(
    g: &Graph,
    layered: &SearchScratch<C>,
    heap: &SearchScratch<C>,
    spec: &RefTree<C>,
) {
    for v in g.vertices() {
        assert_eq!(layered.reached(v), spec.reached(v), "reached({v})");
        assert_eq!(layered.hops(v), spec.reached(v).then_some(spec.hops[v]), "hops({v})");
        assert_eq!(layered.cost(v), spec.cost[v].as_ref(), "cost({v})");
        assert_eq!(layered.parent(v), spec.parent[v], "parent({v})");
        assert_eq!(layered.hops(v), heap.hops(v), "heap hops({v})");
        assert_eq!(layered.cost(v), heap.cost(v), "heap cost({v})");
        assert_eq!(layered.parent(v), heap.parent(v), "heap parent({v})");
    }
    assert_eq!(layered.reachable_count(), spec.reachable_count(), "reachable count");
    assert_eq!(layered.reachable_count(), heap.reachable_count(), "heap reachable count");
}

/// `true` iff some reached vertex has two minimum-cost routes in the
/// reference tree: two unfaulted in-edges `u → v` with
/// `cost[u] + w(u → v) = cost[v]`.
fn genuine_tie<C: PathCost>(
    g: &Graph,
    faults: &FaultSet,
    spec: &RefTree<C>,
    fwd: &[C],
    bwd: &[C],
) -> bool {
    for v in g.vertices() {
        let Some(cv) = &spec.cost[v] else { continue };
        let mut tight = 0;
        for (u, e) in g.neighbors(v) {
            let w = if u < v { &fwd[e] } else { &bwd[e] };
            if !faults.contains(e) && spec.cost[u].as_ref().is_some_and(|cu| cu.plus(w) == *cv) {
                tight += 1;
            }
        }
        if tight >= 2 {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 20 weights (`u128`, `K = 2^60`): the kernel equals the
    /// reference and the heap engine on every cell, tie flags included,
    /// with one scratch reused across the whole plan.
    #[test]
    fn layered_equals_reference_on_theorem20_costs(
        g in family_graph(),
        wseed in any::<u64>(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..8),
    ) {
        let (fwd, bwd) = grid_costs(&g, 1 << 60, wseed);
        let r = RefGraph::from_graph(&g);
        let mut layered = SearchScratch::<u128>::new();
        let mut heap = SearchScratch::<u128>::new();
        for (s, faults) in queries(&g, &picks) {
            layered_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut layered);
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut heap);
            let spec = reference(&r, s, &faults, &fwd, &bwd);
            assert_cells(&g, &layered, &heap, &spec);
            prop_assert_eq!(layered.ties_detected(), spec.ties, "ties s{} {}", s, &faults);
            prop_assert_eq!(layered.ties_detected(), heap.ties_detected(), "heap ties");
        }
    }

    /// Theorem 23's geometric weights (`BigInt`, the in-place
    /// accumulate path): the same cell-for-cell equality.
    #[test]
    fn layered_equals_reference_on_geometric_bigint_costs(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..6),
    ) {
        let (fwd, bwd) = geometric_costs(&g);
        let r = RefGraph::from_graph(&g);
        let mut layered = SearchScratch::<BigInt>::new();
        let mut heap = SearchScratch::<BigInt>::new();
        for (s, faults) in queries(&g, &picks) {
            layered_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut layered);
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut heap);
            let spec = reference(&r, s, &faults, &fwd, &bwd);
            assert_cells(&g, &layered, &heap, &spec);
            prop_assert!(!spec.ties, "Theorem 23 weights are tie-free");
            prop_assert_eq!(layered.ties_detected(), spec.ties, "ties s{} {}", s, &faults);
            prop_assert_eq!(layered.ties_detected(), heap.ties_detected(), "heap ties");
        }
    }

    /// Coarse grids (`K ≤ 3`) force equal costs everywhere. Trees stay
    /// cell-identical; the kernel's flag is exactly the genuine tie (two
    /// minimum-cost routes into one vertex) read off the reference tree,
    /// and it implies Dijkstra's order-dependent flag.
    #[test]
    fn layered_tie_flag_is_the_genuine_tie_on_tie_rich_costs(
        g in family_graph(),
        half_width in 1u128..=3,
        wseed in any::<u64>(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..8),
    ) {
        let (fwd, bwd) = grid_costs(&g, half_width, wseed);
        let r = RefGraph::from_graph(&g);
        let mut layered = SearchScratch::<u128>::new();
        let mut heap = SearchScratch::<u128>::new();
        for (s, faults) in queries(&g, &picks) {
            layered_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut layered);
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut heap);
            let spec = reference(&r, s, &faults, &fwd, &bwd);
            assert_cells(&g, &layered, &heap, &spec);
            let genuine = genuine_tie(&g, &faults, &spec, &fwd, &bwd);
            prop_assert_eq!(layered.ties_detected(), genuine, "genuine tie s{} {}", s, &faults);
            prop_assert!(!genuine || spec.ties, "Dijkstra flags every genuine tie");
            prop_assert_eq!(heap.ties_detected(), spec.ties, "heap engine vs reference");
        }
    }

    /// A hand-built equal-cost scheme on a grid: vertical edges cost 100,
    /// horizontal ones 101, so both routes into an interior vertex tie.
    /// The parent with the smaller `(key, id)` — the left neighbour,
    /// cheaper but with the larger id, and discovered second by BFS —
    /// must win, exactly as in Dijkstra's settle order. The uniform grid
    /// (equal keys, so the id decides) rides along.
    #[test]
    fn forced_ties_pin_the_key_id_parent_rule(
        rows in 3usize..=6,
        cols in 3usize..=6,
        uniform in any::<bool>(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..8),
    ) {
        let g = generators::grid(rows, cols);
        let fwd: Vec<u64> = g
            .edges()
            .map(|(_, u, v)| if uniform || v == u + cols { 100 } else { 101 })
            .collect();
        let bwd = fwd.clone();
        let r = RefGraph::from_graph(&g);
        let mut layered = SearchScratch::<u64>::new();
        let mut heap = SearchScratch::<u64>::new();

        layered_into(&g, 0, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut layered);
        let corner = cols + 1;
        let expected = if uniform { 1 } else { cols };
        prop_assert_eq!(layered.parent(corner).map(|(p, _)| p), Some(expected));
        prop_assert!(layered.ties_detected(), "both routes into {} cost 201", corner);

        for (s, faults) in queries(&g, &picks) {
            layered_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut layered);
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut heap);
            let spec = reference(&r, s, &faults, &fwd, &bwd);
            assert_cells(&g, &layered, &heap, &spec);
            prop_assert_eq!(layered.ties_detected(), spec.ties, "ties s{} {}", s, &faults);
            prop_assert_eq!(layered.ties_detected(), heap.ties_detected(), "heap ties");
        }
    }
}

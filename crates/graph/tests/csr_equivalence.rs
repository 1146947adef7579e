//! CSR-core differential suite: the production heap engines — `bfs_into`
//! and `dijkstra_into` under both heap policies — must be cell-identical (costs, hop counts, parents, tie flags, reachable
//! counts) to the pre-migration Vec-of-Vec reference engine preserved in
//! [`rsp_graph::reference`], on every generator family the workloads use:
//! `G(n,m)`, grids, hypercubes, preferential attachment, Watts–Strogatz,
//! and the ISP core/edge hierarchy.

use proptest::prelude::*;
use rsp_arith::{BigInt, PathCost};
use rsp_graph::reference::{ref_bfs, ref_dijkstra, RefGraph, RefTree};
use rsp_graph::{
    bfs_into, dijkstra_into, gen, generators, DirectedCosts, FaultSet, Graph, HeapKind,
    SearchScratch, Vertex,
};

/// One graph drawn from the six generator families the differential suite
/// covers. `n` and `seed` steer every family; the structured families
/// (grid, hypercube) use `n` for shape only, keeping their tie-rich
/// symmetry intact.
fn family_graph() -> impl Strategy<Value = Graph> {
    (0u8..6, 10usize..=28, any::<u64>()).prop_map(|(fam, n, seed)| match fam {
        0 => {
            let m = (2 * n - 1).min(n * (n - 1) / 2);
            generators::connected_gnm(n, m, seed)
        }
        1 => generators::grid(3, n / 3),
        2 => generators::hypercube(4),
        3 => gen::preferential_attachment(n, 2, seed),
        4 => gen::watts_strogatz(n, 4, 0.2, seed),
        _ => gen::isp_hierarchy(5 + n / 4, n, seed),
    })
}

/// A `(source, fault set)` query plan: empty, single, and double fault
/// sets interleaved, shared by the CSR engine and the reference.
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
            let faults = match i % 3 {
                0 => FaultSet::empty(),
                1 => FaultSet::single(e),
                _ => FaultSet::from_edges([e, (e + g.m() / 2) % g.m()]),
            };
            (s, faults)
        })
        .collect()
}

fn assert_bfs_matches(g: &Graph, got: &SearchScratch<u32>, spec: &RefTree<u32>) {
    for v in g.vertices() {
        assert_eq!(got.dist(v), spec.reached(v).then_some(spec.hops[v]), "dist({v})");
        assert_eq!(got.parent(v), spec.parent[v], "parent({v})");
    }
    assert_eq!(got.reachable_count(), spec.reachable_count(), "reachable count");
}

fn assert_dijkstra_matches<C: PathCost>(g: &Graph, got: &SearchScratch<C>, spec: &RefTree<C>) {
    for v in g.vertices() {
        assert_eq!(got.cost(v), spec.cost[v].as_ref(), "cost({v})");
        assert_eq!(got.hops(v), spec.reached(v).then_some(spec.hops[v]), "hops({v})");
        assert_eq!(got.parent(v), spec.parent[v], "parent({v})");
    }
    assert_eq!(got.ties_detected(), spec.ties, "ties flag");
    assert_eq!(got.reachable_count(), spec.reachable_count(), "reachable count");
}

/// u64 costs with per-edge and per-direction variation: the inline-key
/// heap workload.
fn u64_cost(e: usize, from: Vertex, to: Vertex) -> u64 {
    1_000_000 + (e as u64 * 17) % 1000 + u64::from(from < to) * 3
}

proptest! {
    /// `bfs_into` equals the reference BFS on every family, with the
    /// scratch reused across the whole query plan.
    #[test]
    fn bfs_equals_reference_on_every_family(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..7),
    ) {
        let r = RefGraph::from_graph(&g);
        let mut scratch = SearchScratch::<u32>::new();
        for (s, faults) in queries(&g, &picks) {
            bfs_into(&g, s, &faults, &mut scratch);
            assert_bfs_matches(&g, &scratch, &ref_bfs(&r, s, &faults));
        }
    }

    /// The inline-key engine (u64 costs) equals the reference lazy heap.
    #[test]
    fn dijkstra_inline_key_equals_reference(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..7),
    ) {
        prop_assert_eq!(u64::HEAP, HeapKind::InlineKey);
        let r = RefGraph::from_graph(&g);
        let mut scratch = SearchScratch::<u64>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, u64_cost, &mut scratch);
            assert_dijkstra_matches(&g, &scratch, &ref_dijkstra(&r, s, &faults, u64_cost));
        }
    }

    /// The indexed decrease-key engine (`BigInt` costs) equals the same
    /// reference — both heap policies pin to one specification.
    #[test]
    fn dijkstra_indexed_equals_reference(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..5),
    ) {
        prop_assert_eq!(BigInt::HEAP, HeapKind::Indexed);
        let r = RefGraph::from_graph(&g);
        let cost = |e: usize, from: Vertex, to: Vertex| {
            BigInt::from(1_000_000i64 + (e as i64 * 17) % 1000 + i64::from(from < to) * 3)
        };
        let mut scratch = SearchScratch::<BigInt>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, cost, &mut scratch);
            assert_dijkstra_matches(&g, &scratch, &ref_dijkstra(&r, s, &faults, cost));
        }
    }

    /// The borrowed-slice `DirectedCosts` source (the exact-scheme u128
    /// path) equals a closure reading the same tables in the reference.
    #[test]
    fn dijkstra_directed_costs_equals_reference(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..5),
    ) {
        let r = RefGraph::from_graph(&g);
        let unit = 1u128 << 40;
        let fwd: Vec<u128> = (0..g.m()).map(|e| unit + (e as u128 * 7919) % 1024).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 2 * unit - f).collect();
        let mut scratch = SearchScratch::<u128>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut scratch);
            let spec = ref_dijkstra(&r, s, &faults, |e, from, to| {
                if from < to { fwd[e] } else { bwd[e] }
            });
            assert_dijkstra_matches(&g, &scratch, &spec);
        }
    }
}

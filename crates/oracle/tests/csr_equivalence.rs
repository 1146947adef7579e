//! Serving-layer CSR differential suite: oracle snapshots built over the
//! CSR core — directly, and through churn-pipeline commits folding a
//! fault-event trace — must answer every query cell-identically to the
//! pre-migration Vec-of-Vec reference engine reading the scheme's weight
//! tables, on the Internet-shaped generator families. This closes the
//! differential loop through every layer above the graph crate.
//!
//! Snapshot rows come from the layered kernel behind
//! `ExactScheme::spt_into`; one property pins every row of a build with
//! base faults against `dijkstra_into`, the heap engine the churn
//! cross-check and the scrubber audit with. Three forced-tie tests run
//! those audits and the serving paths on a uniform-cost scheme, where
//! every equal-length route ties, and pin what they publish and answer
//! to the reference.

use proptest::prelude::*;
use rsp_core::{RandomGridAtw, Rpts};
use rsp_graph::reference::{ref_dijkstra, RefGraph, RefTree};
use rsp_graph::{dijkstra_into, gen, generators, EdgeCostSource, FaultSet, Graph, SearchScratch};
use rsp_oracle::churn::inject::{
    corrupt_published_row, random_trace, verify_converged, CellCorruption,
};
use rsp_oracle::churn::ChurnPipeline;
use rsp_oracle::scrub::{ScrubConfig, Scrubber};
use rsp_oracle::{Oracle, OracleSnapshot};

type Scheme = rsp_core::ExactScheme<u128>;

/// One graph per Internet-shaped family, plus the `G(n, m)` control.
fn family_graph() -> impl Strategy<Value = Graph> {
    (0u8..4, 10usize..=20, any::<u64>()).prop_map(|(fam, n, seed)| match fam {
        0 => generators::connected_gnm(n, (2 * n - 1).min(n * (n - 1) / 2), seed),
        1 => gen::preferential_attachment(n, 2, seed),
        2 => gen::watts_strogatz(n, 4, 0.2, seed),
        _ => gen::isp_hierarchy(5 + n / 4, n, seed),
    })
}

/// The reference answer for `(source, faults)` under the scheme's own
/// directed cost tables.
fn reference_tree(scheme: &Scheme, r: &RefGraph, s: usize, faults: &FaultSet) -> RefTree<u128> {
    let mut dc = scheme.directed_costs();
    ref_dijkstra(r, s, faults, |e, from, to| dc.compute(&0u128, e, from, to))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Direct snapshot queries — fast path and engine path alike — equal
    /// the reference engine on every gen-family graph.
    #[test]
    fn snapshot_query_equals_reference(
        g in family_graph(),
        wseed in any::<u64>(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..5),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let snap = OracleSnapshot::builder(&scheme).build();
        let r = RefGraph::from_graph(&g);
        let mut scratch = SearchScratch::with_capacity(g.n());
        for (i, pick) in fault_picks.iter().enumerate() {
            let e = pick.index(g.m());
            let faults = match i % 3 {
                0 => FaultSet::empty(),
                1 => FaultSet::single(e),
                _ => FaultSet::from_edges([e, (e + g.m() / 2) % g.m()]),
            };
            for spick in &source_picks {
                let s = spick.index(g.n());
                let view = snap.query(s, &faults, &mut scratch);
                let spec = reference_tree(&scheme, &r, s, &faults);
                for v in g.vertices() {
                    prop_assert_eq!(
                        view.dist(v),
                        spec.reached(v).then_some(spec.hops[v]),
                        "dist s{} v{}", s, v
                    );
                    prop_assert_eq!(view.parent(v), spec.parent[v], "parent s{} v{}", s, v);
                    prop_assert_eq!(view.cost(v), spec.cost[v].as_ref(), "cost s{} v{}", s, v);
                }
            }
        }
    }

    /// Every row `try_build` fills on an ISP graph with base faults baked
    /// in equals `dijkstra_into` on `G \ base` cell for cell: hops,
    /// parents and exact costs, unreached vertices included.
    #[test]
    fn try_build_rows_equal_dijkstra_into_under_base_faults(
        n in 12usize..=40,
        gseed in any::<u64>(),
        wseed in any::<u64>(),
        base_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let g = gen::isp_hierarchy(5 + n / 4, n, gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let base = FaultSet::from_edges(base_picks.iter().map(|p| p.index(g.m())));
        let snap = OracleSnapshot::builder(&scheme).base_faults(base.clone()).try_build().unwrap();
        prop_assert_eq!(snap.sources().len(), g.n());
        let mut engine = SearchScratch::with_capacity(g.n());
        for s in g.vertices() {
            dijkstra_into(&g, s, &base, scheme.directed_costs(), &mut engine);
            let row = snap.baseline(s).expect("every vertex is served");
            for v in g.vertices() {
                prop_assert_eq!(row.dist(v), engine.hops(v), "hops s{} v{}", s, v);
                prop_assert_eq!(row.parent(v), engine.parent(v), "parent s{} v{}", s, v);
                prop_assert_eq!(row.cost(v), engine.cost(v), "cost s{} v{}", s, v);
            }
        }
    }

    /// A committed churn trace: the published snapshot's base fault state
    /// folds the accepted events, and every query against it — with and
    /// without an extra query-time fault — equals the reference engine on
    /// the combined fault set.
    #[test]
    fn churn_commit_equals_reference(
        g in family_graph(),
        wseed in any::<u64>(),
        trace_seed in any::<u64>(),
        extra_pick in any::<prop::sample::Index>(),
    ) {
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
        let mut reader = pipeline.reader();
        for ev in random_trace(&g, 24, trace_seed) {
            let _ = pipeline.ingest(ev); // invalid transitions quarantine; that's fine
        }
        let report = pipeline.commit().unwrap();
        prop_assert!(report.published || pipeline.journal().is_empty());
        verify_converged(&pipeline).unwrap();
        prop_assert!(reader.refresh() || pipeline.journal().is_empty());

        let base = pipeline.published_snapshot().base_faults().clone();
        let r = RefGraph::from_graph(&g);
        let extra = extra_pick.index(g.m());
        for faults in [FaultSet::empty(), FaultSet::single(extra)] {
            let mut combined = base.clone();
            for e in faults.iter() {
                combined.insert(e);
            }
            for s in g.vertices() {
                let view = reader.query(s, &faults);
                let spec = reference_tree(&scheme, &r, s, &combined);
                for v in g.vertices() {
                    prop_assert_eq!(
                        view.dist(v),
                        spec.reached(v).then_some(spec.hops[v]),
                        "dist s{} v{}", s, v
                    );
                    prop_assert_eq!(view.parent(v), spec.parent[v], "parent s{} v{}", s, v);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Forced ties
// ---------------------------------------------------------------------

/// Every directed edge costs one unit: hop-dominant, so `from_costs`
/// accepts the scheme, and every pair of equal-length routes ties — the
/// opposite of a tie-free tiebreaking weight function.
fn uniform_grid_scheme(rows: usize, cols: usize) -> Scheme {
    let g = generators::grid(rows, cols);
    let m = g.m();
    Scheme::from_costs(g, vec![1000; m], vec![1000; m], 1000, 0)
}

/// Every row of `snap` equals the reference tree on the snapshot's base
/// faults, cell for cell: hops, parents and exact costs.
fn assert_rows_equal_reference(snap: &OracleSnapshot<u128>, scheme: &Scheme, r: &RefGraph) {
    let g = scheme.graph();
    for s in g.vertices() {
        let row = snap.baseline(s).expect("every vertex is served");
        let spec = reference_tree(scheme, r, s, snap.base_faults());
        for v in g.vertices() {
            assert_eq!(row.dist(v), spec.reached(v).then_some(spec.hops[v]), "dist s{s} v{v}");
            assert_eq!(row.parent(v), spec.parent[v], "parent s{s} v{v}");
            assert_eq!(row.cost(v), spec.cost[v].as_ref(), "cost s{s} v{v}");
        }
    }
}

/// `try_query` on a tie-everywhere scheme answers every `(s, {e})` cell
/// for cell like the reference: the fast path for `F = ∅` and every
/// off-tree fault, the engine path for every on-tree fault. Every cost
/// is a multiple of one unit, so this also pins the hop counts the fast
/// path derives from costs under ties.
#[test]
fn forced_ties_serving_equals_reference() {
    let scheme = uniform_grid_scheme(4, 5);
    let g = scheme.graph().clone();
    let r = RefGraph::from_graph(&g);
    let snap = OracleSnapshot::builder(&scheme).build();
    let mut scratch = SearchScratch::with_capacity(g.n());
    let (mut fast, mut engine) = (0, 0);
    for s in g.vertices() {
        let base = reference_tree(&scheme, &r, s, &FaultSet::empty());
        let fault_sets = std::iter::once(FaultSet::empty()).chain((0..g.m()).map(FaultSet::single));
        for faults in fault_sets {
            let on_tree = faults.iter().any(|e| {
                let (a, b) = g.endpoints(e);
                base.parent[a] == Some((b, e)) || base.parent[b] == Some((a, e))
            });
            let view = snap.try_query(s, &faults, &mut scratch).unwrap();
            assert_eq!(view.from_baseline(), !on_tree, "s{s} F={faults:?}");
            if on_tree {
                engine += 1;
            } else {
                fast += 1;
            }
            let spec = reference_tree(&scheme, &r, s, &faults);
            for v in g.vertices() {
                let hops = spec.reached(v).then_some(spec.hops[v]);
                assert_eq!(view.dist(v), hops, "dist s{s} v{v} F={faults:?}");
                assert_eq!(view.parent(v), spec.parent[v], "parent s{s} v{v} F={faults:?}");
                assert_eq!(view.cost(v), spec.cost[v].as_ref(), "cost s{s} v{v} F={faults:?}");
            }
        }
    }
    // Each source's tree has n − 1 of the m edges.
    assert_eq!(engine, g.n() * (g.n() - 1));
    assert_eq!(fast, g.n() * (g.m() - g.n() + 2));
}

/// Churn commits on a tie-everywhere scheme publish rows equal to the
/// reference: the commit cross-check, a heap-engine `dijkstra_into` per
/// sampled source, accepts them, and the delta builder reports the ties
/// it refuses to patch through.
#[test]
fn forced_ties_churn_commits_equal_reference() {
    let scheme = uniform_grid_scheme(4, 5);
    let g = scheme.graph().clone();
    let r = RefGraph::from_graph(&g);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    assert_rows_equal_reference(&pipeline.published_snapshot(), &scheme, &r);
    for ev in random_trace(&g, 12, 0x7135) {
        if pipeline.ingest(ev).is_err() {
            continue; // quarantined transition; nothing to commit
        }
        let report = pipeline.commit().unwrap();
        assert!(report.published);
        assert_rows_equal_reference(&pipeline.published_snapshot(), &scheme, &r);
    }
    let health = pipeline.health();
    assert!(health.commits > 0);
    assert_eq!(health.consecutive_failures, 0);
    assert!(
        health.last_delta_fallback.as_deref().is_some_and(|why| why.contains("cost tie")),
        "delta reports the tie: {:?}",
        health.last_delta_fallback
    );
    verify_converged(&pipeline).unwrap();
}

/// A corrupted row of a tie-everywhere scheme is caught by the scrubber
/// (a heap-engine `dijkstra_into` per audited row) and healed to the
/// reference tree, for every corruption kind.
#[test]
fn forced_ties_scrubber_heals_to_reference() {
    let scheme = uniform_grid_scheme(4, 5);
    let g = scheme.graph().clone();
    let r = RefGraph::from_graph(&g);
    for kind in [CellCorruption::Hop, CellCorruption::Parent, CellCorruption::Cost] {
        let oracle = Oracle::build(&scheme);
        corrupt_published_row(&oracle, 7, kind).expect("row 7 has a corruptible cell");
        let mut scrubber = Scrubber::new(oracle.clone(), ScrubConfig { rows_per_tick: g.n() });
        let tick = scrubber.tick();
        assert_eq!(tick.corrupt_rows, 1, "{kind:?}: the damaged row is found");
        assert_eq!(tick.healed_rows, 1, "{kind:?}: and healed");
        let snap = oracle.snapshot();
        assert!(!snap.is_quarantined(7), "{kind:?}");
        assert_rows_equal_reference(&snap, &scheme, &r);
        assert_eq!(scrubber.tick().corrupt_rows, 0, "{kind:?}: the healed snapshot audits clean");
    }
}

//! Serving-layer CSR differential suite: oracle snapshots built over the
//! CSR core — directly, and through churn-pipeline commits folding a
//! fault-event trace — must answer every query cell-identically to the
//! pre-migration Vec-of-Vec reference engine reading the scheme's weight
//! tables, on the Internet-shaped generator families. This closes the
//! differential loop through every layer above the graph crate.
//!
//! Snapshot rows come from the layered kernel behind
//! `ExactScheme::spt_into`; one property pins every row of a build with
//! base faults against `dijkstra_batch`, the heap engine the churn
//! cross-check and the scrubber audit with.

use std::ops::ControlFlow;

use proptest::prelude::*;
use rsp_core::RandomGridAtw;
use rsp_graph::reference::{ref_dijkstra, RefGraph, RefTree};
use rsp_graph::{
    dijkstra_batch, gen, generators, BatchScratch, EdgeCostSource, FaultSet, Graph, SearchScratch,
    Vertex,
};
use rsp_oracle::churn::inject::{random_trace, verify_converged};
use rsp_oracle::churn::ChurnPipeline;
use rsp_oracle::OracleSnapshot;

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
    /// in equals `dijkstra_batch` on `G \ base` cell for cell: hops,
    /// parents and exact costs, unreached vertices included.
    #[test]
    fn try_build_rows_equal_dijkstra_batch_under_base_faults(
        n in 12usize..=40,
        gseed in any::<u64>(),
        wseed in any::<u64>(),
        base_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let g = gen::isp_hierarchy(5 + n / 4, n, gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let base = FaultSet::from_edges(base_picks.iter().map(|p| p.index(g.m())));
        let snap = OracleSnapshot::builder(&scheme).base_faults(base.clone()).try_build().unwrap();
        let sources: Vec<Vertex> = g.vertices().collect();
        let mut batch = BatchScratch::with_capacity(g.n());
        let mut rows = 0;
        dijkstra_batch(
            &g,
            &sources,
            std::slice::from_ref(&base),
            scheme.directed_costs(),
            &mut batch,
            |si, _, engine| {
                let s = sources[si];
                let row = snap.baseline(s).expect("every vertex is served");
                for v in g.vertices() {
                    assert_eq!(row.dist(v), engine.hops(v), "hops s{s} v{v}");
                    assert_eq!(row.parent(v), engine.parent(v), "parent s{s} v{v}");
                    assert_eq!(row.cost(v), engine.cost(v), "cost s{s} v{v}");
                }
                rows += 1;
                ControlFlow::Continue(())
            },
        );
        prop_assert_eq!(rows, g.n());
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

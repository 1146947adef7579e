//! Multi-fault query sweeps: `sources × (∅ + fault sets)` on tie-rich
//! grids and a dense G(n, m) under Theorem 20 perturbed `u128` costs,
//! plus the unweighted BFS layer — the restorability/preserver access
//! pattern behind `Rpts::for_each_tree`.
//!
//! Fault-set families cover both regimes:
//!
//! * **singles** spread across the edge set (`8x33` groups), diffable
//!   against `BENCH_3.json`;
//! * **clustered `f = 2, 3` sets** (`f2`/`f3` groups) — the Bodwin–Wang
//!   (arXiv:2309.07964) multi-fault trade-off regime: each set's edges sit
//!   in one small neighborhood around a center spread across the graph.
//!
//! `per_query` is the heap engine (`dijkstra_into` on the scheme's cost
//! tables, one reused scratch); `scheme_spt` is what every scheme sweep
//! runs, `ExactScheme::spt_into` (the heap-free layered kernel) in the
//! same loop. Both compute cell-identical trees. The BFS group times
//! `bfs_into` per query.
//!
//! Append results to the repo's `BENCH_<n>.json` trajectory with:
//!
//! ```sh
//! CRITERION_JSON_PATH="$PWD/BENCH_<n>.json" \
//!   cargo bench -p rsp_bench --bench query_batch
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use rsp_core::RandomGridAtw;
use rsp_graph::{bfs_into, dijkstra_into, generators, FaultSet, Graph, SearchScratch, Vertex};

/// `∅` plus `queries` single faults spread across the edge set.
fn fault_batch(g: &Graph, queries: usize) -> Vec<FaultSet> {
    std::iter::once(FaultSet::empty())
        .chain((0..queries).map(|i| FaultSet::single(i * g.m() / queries)))
        .collect()
}

/// `∅` plus `count` clustered `f`-edge fault sets, each clustered around a
/// center vertex spread across the graph: a correlated failure (a router
/// and its uplinks) rather than `f` independent ones. Deterministic so
/// runs are diffable.
fn clustered_fault_batch(g: &Graph, f: usize, count: usize) -> Vec<FaultSet> {
    std::iter::once(FaultSet::empty())
        .chain((0..count).map(|i| {
            let center = i * g.n() / count;
            // Grow the cluster outward from the center in discovery
            // order until it holds f distinct edges.
            let mut edges: Vec<usize> = Vec::with_capacity(f);
            let mut cluster = vec![center];
            let mut next = 0;
            while edges.len() < f && next < cluster.len() {
                let u = cluster[next];
                next += 1;
                for (v, e) in g.neighbors(u) {
                    if edges.len() >= f {
                        break;
                    }
                    if !edges.contains(&e) {
                        edges.push(e);
                        cluster.push(v);
                    }
                }
            }
            FaultSet::from_edges(edges)
        }))
        .collect()
}

/// One weighted group: the heap engine per query (`per_query`) vs the
/// scheme's layered kernel per query (`scheme_spt`).
fn bench_weighted_family(
    c: &mut Criterion,
    label: &str,
    g: &Graph,
    sources: &[Vertex],
    faults: &[FaultSet],
) {
    let scheme = RandomGridAtw::theorem20(g, 42).into_scheme();

    let mut group = c.benchmark_group(label);
    let mut heap = SearchScratch::<u128>::with_capacity(g.n());
    group.bench_function("per_query", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for &s in sources {
                for f in faults {
                    dijkstra_into(g, s, f, scheme.directed_costs(), &mut heap);
                    reached += heap.reachable_count();
                }
            }
            reached
        })
    });
    let mut layered = SearchScratch::<u128>::with_capacity(g.n());
    group.bench_function("scheme_spt", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for &s in sources {
                for f in faults {
                    scheme.spt_into(s, f, &mut layered);
                    reached += layered.reachable_count();
                }
            }
            reached
        })
    });
    group.finish();
}

fn bench_weighted(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let sources: Vec<Vertex> = (0..8).map(|i| i * g.n() / 8).collect();
    let faults = fault_batch(&g, 32);
    bench_weighted_family(c, "query_batch/u128_grid16x16_8x33", &g, &sources, &faults);
}

/// The dense workload: `G(n, m ≈ n^1.5)`, average degree 24, where each
/// layered-kernel step compares many same-layer candidates.
fn bench_weighted_dense(c: &mut Criterion) {
    // n = 144, m = 144^1.5 = 1728: average degree 24 on as many vertices
    // as the bench budget allows at sample_size 20.
    let g = generators::connected_gnm(144, 1728, 7);
    let sources: Vec<Vertex> = (0..8).map(|i| i * g.n() / 8).collect();
    let faults = fault_batch(&g, 32);
    bench_weighted_family(c, "query_batch/u128_gnm144_1728_8x33", &g, &sources, &faults);
}

/// The Bodwin–Wang multi-fault regime: clustered `f = 2, 3` fault sets.
fn bench_weighted_multifault(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let sources: Vec<Vertex> = (0..8).map(|i| i * g.n() / 8).collect();
    for f in [2usize, 3] {
        let faults = clustered_fault_batch(&g, f, 16);
        let label = format!("query_batch/u128_grid16x16_f{f}_8x17");
        bench_weighted_family(c, &label, &g, &sources, &faults);
    }
}

fn bench_bfs(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let sources: Vec<Vertex> = (0..8).map(|i| i * g.n() / 8).collect();
    let faults = fault_batch(&g, 32);

    let mut group = c.benchmark_group("query_batch/bfs_grid16x16_8x33");
    let mut single = SearchScratch::<u32>::with_capacity(g.n());
    group.bench_function("per_query", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for &s in &sources {
                for f in &faults {
                    bfs_into(&g, s, f, &mut single);
                    reached += single.reachable_count();
                }
            }
            reached
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_weighted, bench_weighted_dense, bench_weighted_multifault, bench_bfs
}
criterion_main!(benches);

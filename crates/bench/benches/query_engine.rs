//! Query-engine microbenchmarks: the seed's allocating lazy-deletion
//! Dijkstra versus the indexed decrease-key engine, fresh-scratch and
//! reused-scratch, across the three cost types the tiebreaking schemes use
//! (`u64`, `u128`, `BigInt`) plus the unweighted BFS layer.
//!
//! Each iteration replays a fixed batch of `(source, single-fault)` queries
//! — the access pattern of the restorability, preserver, and replacement
//! experiments. Three engines are compared per workload:
//!
//! * `lazy_alloc` — the pre-scratch engine, reimplemented verbatim: fresh
//!   `O(n)` vectors per query and a `BinaryHeap<Reverse<(C, Vertex)>>` that
//!   clones every relaxed cost into the heap;
//! * `indexed_fresh` — the scratch engine through the allocating wrappers
//!   (one fresh `SearchScratch` per query);
//! * `indexed_reuse` — the scratch engine with one `SearchScratch` reused
//!   across the whole batch (the intended hot-loop shape).
//!
//! Since PR 4 the engine picks its heap per cost type
//! ([`rsp_arith::PathCost::HEAP`]): register-copy costs run a flat
//! inline-key lazy heap, `BigInt` keeps the indexed decrease-key heap. To
//! keep the trajectory diffable *and* the policy split an observed number:
//!
//! * `indexed_reuse` rows are pinned to the indexed engine via
//!   [`rsp_graph::SearchScratch::set_heap_kind`] — the engine PR 2
//!   shipped, directly comparable with `BENCH_2.json`;
//! * `inline_reuse` rows (Copy-cost groups only) run the inline-key
//!   engine the policy now selects for those types — this is the
//!   "policy-selected engine" row;
//! * `indexed_fresh` keeps its historical name but runs whatever the
//!   policy picks (it measures fresh-scratch allocation overhead, which
//!   is engine-independent);
//! * a `u64_gnm20k_80k` group measures both engines on a graph whose
//!   cost array outgrows cache, where the policy gap is widest (the
//!   indexed heap's sift comparisons become random out-of-cache loads).
//!
//! Since `ExactScheme::spt_into` runs the heap-free layered kernel
//! (`rsp_graph::layered_into`, Lemma 34), the scheme groups call
//! `dijkstra_into` on the scheme's own cost tables for their heap rows
//! and add a `scheme_spt` row for `spt_into`, so the kernel-vs-heap ratio
//! is read within one run on identical costs. The scaling groups do the
//! same on a Theorem 20 scheme over each family graph: `scheme_spt`
//! beside `scheme_dijkstra` (the inline-key heap on those `u128` costs),
//! next to the historical `u64` rows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use rsp_arith::PathCost;
use rsp_core::{ExactScheme, GeometricAtw, RandomGridAtw, Rpts};
use rsp_graph::{
    bfs, bfs_into, dijkstra, dijkstra_into, gen, generators, EdgeId, FaultSet, Graph, HeapKind,
    SearchScratch, Vertex,
};

/// Single-fault queries spread across the edge set, all from source 0.
fn fault_batch(g: &Graph, queries: usize) -> Vec<FaultSet> {
    (0..queries).map(|i| FaultSet::single(i * g.m() / queries)).collect()
}

/// The seed engine, kept verbatim as the benchmark baseline: lazy-deletion
/// binary heap, freshly allocated per-query state, costs cloned into the
/// heap on every improving relaxation.
fn lazy_dijkstra<C, F>(g: &Graph, source: Vertex, faults: &FaultSet, mut edge_cost: F) -> usize
where
    C: PathCost,
    F: FnMut(EdgeId, Vertex, Vertex) -> C,
{
    let n = g.n();
    let mut best: Vec<Option<C>> = vec![None; n];
    let mut parent: Vec<Option<(Vertex, EdgeId)>> = vec![None; n];
    let mut hops = vec![0u32; n];
    let mut settled = vec![false; n];
    let mut ties = false;
    let mut heap: BinaryHeap<Reverse<(C, Vertex)>> = BinaryHeap::new();
    best[source] = Some(C::zero());
    heap.push(Reverse((C::zero(), source)));
    while let Some(Reverse((cost_u, u))) = heap.pop() {
        if settled[u] || best[u].as_ref() != Some(&cost_u) {
            continue;
        }
        settled[u] = true;
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) {
                continue;
            }
            let cand = cost_u.plus(&edge_cost(e, u, v));
            match &best[v] {
                Some(cur) if *cur < cand => {}
                Some(cur) if *cur == cand => ties = true,
                _ => {
                    best[v] = Some(cand.clone());
                    parent[v] = Some((u, e));
                    hops[v] = hops[u] + 1;
                    heap.push(Reverse((cand, v)));
                }
            }
        }
    }
    std::hint::black_box(ties);
    best.iter().filter(|c| c.is_some()).count()
}

/// Benchmarks the three engines over a scheme's exact costs.
fn bench_scheme_engines<C: PathCost + 'static>(
    c: &mut Criterion,
    label: &str,
    scheme: &ExactScheme<C>,
    queries: usize,
) {
    let g = scheme.graph().clone();
    let faults = fault_batch(&g, queries);

    let mut group = c.benchmark_group(label);
    group.bench_function("lazy_alloc", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += lazy_dijkstra(&g, 0, f, |e, u, v| scheme.edge_cost(e, u, v));
            }
            reached
        })
    });
    group.bench_function("indexed_fresh", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += scheme.spt(0, f).reachable_count();
            }
            reached
        })
    });
    let mut scratch = SearchScratch::<C>::with_capacity(g.n()).with_heap_kind(HeapKind::Indexed);
    group.bench_function("indexed_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                dijkstra_into(&g, 0, f, scheme.directed_costs(), &mut scratch);
                reached += scratch.reachable_count();
            }
            reached
        })
    });
    if C::HEAP == HeapKind::InlineKey {
        let mut inline =
            SearchScratch::<C>::with_capacity(g.n()).with_heap_kind(HeapKind::InlineKey);
        group.bench_function("inline_reuse", |b| {
            b.iter(|| {
                let mut reached = 0usize;
                for f in &faults {
                    dijkstra_into(&g, 0, f, scheme.directed_costs(), &mut inline);
                    reached += inline.reachable_count();
                }
                reached
            })
        });
    }
    bench_scheme_spt(&mut group, scheme, &faults);
    group.finish();
}

/// The `scheme_spt` row: `ExactScheme::spt_into`, the layered kernel,
/// with one scratch reused across the batch.
fn bench_scheme_spt<C: PathCost + 'static>(
    group: &mut BenchmarkGroup<'_>,
    scheme: &ExactScheme<C>,
    faults: &[FaultSet],
) {
    let mut scratch = SearchScratch::<C>::with_capacity(scheme.graph().n());
    group.bench_function("scheme_spt", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in faults {
                scheme.spt_into(0, f, &mut scratch);
                reached += scratch.reachable_count();
            }
            reached
        })
    });
}

/// u64 costs on a grid: closure-supplied weights, no scheme overhead.
fn bench_u64_grid(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let faults = fault_batch(&g, 8);
    let cost = |e: EdgeId, from: Vertex, to: Vertex| {
        1_000_000u64 + (e as u64 % 251) + u64::from(from < to)
    };

    let mut group = c.benchmark_group("query_engine/u64_grid16x16");
    group.bench_function("lazy_alloc", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += lazy_dijkstra(&g, 0, f, cost);
            }
            reached
        })
    });
    group.bench_function("indexed_fresh", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += dijkstra(&g, 0, f, cost).reachable_count();
            }
            reached
        })
    });
    let mut scratch = SearchScratch::<u64>::with_capacity(g.n()).with_heap_kind(HeapKind::Indexed);
    group.bench_function("indexed_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                dijkstra_into(&g, 0, f, cost, &mut scratch);
                reached += scratch.reachable_count();
            }
            reached
        })
    });
    let mut inline = SearchScratch::<u64>::with_capacity(g.n()).with_heap_kind(HeapKind::InlineKey);
    group.bench_function("inline_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                dijkstra_into(&g, 0, f, cost, &mut inline);
                reached += inline.reachable_count();
            }
            reached
        })
    });
    group.finish();
}

/// u64 costs on a 20k-vertex G(n,m): the cost and stamp arrays outgrow
/// cache, which is where the heap-policy gap is widest (the indexed
/// heap's sift comparisons become random out-of-cache loads).
fn bench_u64_large(c: &mut Criterion) {
    let g = generators::connected_gnm(20_000, 80_000, 11);
    let faults = fault_batch(&g, 4);
    let cost = |e: EdgeId, from: Vertex, to: Vertex| {
        1_000_000u64 + (e as u64 % 251) + u64::from(from < to)
    };

    let mut group = c.benchmark_group("query_engine/u64_gnm20k_80k");
    group.bench_function("lazy_alloc", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += lazy_dijkstra(&g, 0, f, cost);
            }
            reached
        })
    });
    let mut indexed = SearchScratch::<u64>::with_capacity(g.n()).with_heap_kind(HeapKind::Indexed);
    group.bench_function("indexed_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                dijkstra_into(&g, 0, f, cost, &mut indexed);
                reached += indexed.reachable_count();
            }
            reached
        })
    });
    // Forced for symmetry with the indexed row; this is also what the
    // u64 policy selects.
    let mut inline = SearchScratch::<u64>::with_capacity(g.n()).with_heap_kind(HeapKind::InlineKey);
    group.bench_function("inline_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                dijkstra_into(&g, 0, f, cost, &mut inline);
                reached += inline.reachable_count();
            }
            reached
        })
    });
    group.finish();
}

/// u128 costs: the Theorem 20 randomized scheme on a random graph.
fn bench_u128_random(c: &mut Criterion) {
    let g = generators::connected_gnm(300, 1200, 7);
    let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
    bench_scheme_engines(c, "query_engine/u128_gnm300", &scheme, 8);
}

/// BigInt costs: the Theorem 23 deterministic geometric scheme — the
/// workload where heap clones and per-edge allocations hurt most.
fn bench_bigint_grid(c: &mut Criterion) {
    let g = generators::grid(10, 10);
    let scheme = GeometricAtw::new(&g).into_scheme();
    bench_scheme_engines(c, "query_engine/bigint_grid10x10", &scheme, 8);
}

/// The vertex count for the scaling group: `RSP_SCALING_N` if set (CI
/// smoke pins `10_000`), else the BENCH_10 default of `100_000`. Go to
/// `1_000_000` for the full scaling sweep — the group names embed `n`,
/// so trajectory rows at different scales never collide.
fn scaling_n() -> usize {
    std::env::var("RSP_SCALING_N").ok().and_then(|s| s.parse().ok()).unwrap_or(100_000)
}

/// The CSR scaling group: the query engine at `n = 10^5`–`10^6` on the
/// three Internet-shaped families (`rsp_graph::gen`), u64 costs — the
/// workload the flat `u32` CSR layout exists for. Per family: reused-
/// scratch BFS plus both heap engines, two single-fault queries per
/// iteration from source 0. Each family prints an `n`/`m`/CSR-footprint
/// provenance line so recorded JSON rows can cite the memory story.
/// A Theorem 20 scheme over the same graph adds the `scheme_spt`
/// (layered kernel) and `scheme_dijkstra` (inline-key heap) rows on
/// identical `u128` costs.
fn bench_scaling(c: &mut Criterion) {
    let n = scaling_n();
    let cost = |e: EdgeId, from: Vertex, to: Vertex| {
        1_000_000u64 + (e as u64 % 251) + u64::from(from < to)
    };
    let families: [(&str, Graph); 3] = [
        ("pa", gen::preferential_attachment(n, 3, 42)),
        ("ws", gen::watts_strogatz(n, 6, 0.05, 42)),
        ("isp", gen::isp_hierarchy(n / 10, n - n / 10, 42)),
    ];
    for (family, g) in families {
        println!(
            "scaling/{family}: n={} m={} csr_bytes={} ({:.1} B/edge-slot)",
            g.n(),
            g.m(),
            g.memory_bytes(),
            g.memory_bytes() as f64 / (2 * g.m()) as f64,
        );
        let faults = fault_batch(&g, 2);
        let mut group = c.benchmark_group(format!("query_engine/scaling_{family}_n{n}"));
        let mut bfs_scratch = SearchScratch::<u32>::with_capacity(g.n());
        group.bench_function("bfs_scratch", |b| {
            b.iter(|| {
                let mut reached = 0usize;
                for f in &faults {
                    bfs_into(&g, 0, f, &mut bfs_scratch);
                    reached += bfs_scratch.reachable_count();
                }
                reached
            })
        });
        let mut inline =
            SearchScratch::<u64>::with_capacity(g.n()).with_heap_kind(HeapKind::InlineKey);
        group.bench_function("inline_reuse", |b| {
            b.iter(|| {
                let mut reached = 0usize;
                for f in &faults {
                    dijkstra_into(&g, 0, f, cost, &mut inline);
                    reached += inline.reachable_count();
                }
                reached
            })
        });
        let mut indexed =
            SearchScratch::<u64>::with_capacity(g.n()).with_heap_kind(HeapKind::Indexed);
        group.bench_function("indexed_reuse", |b| {
            b.iter(|| {
                let mut reached = 0usize;
                for f in &faults {
                    dijkstra_into(&g, 0, f, cost, &mut indexed);
                    reached += indexed.reachable_count();
                }
                reached
            })
        });
        let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
        let mut heap = SearchScratch::<u128>::with_capacity(g.n());
        group.bench_function("scheme_dijkstra", |b| {
            b.iter(|| {
                let mut reached = 0usize;
                for f in &faults {
                    dijkstra_into(&g, 0, f, scheme.directed_costs(), &mut heap);
                    reached += heap.reachable_count();
                }
                reached
            })
        });
        bench_scheme_spt(&mut group, &scheme, &faults);
        group.finish();
    }
}

/// The unweighted layer: allocating BFS versus reused-scratch BFS.
fn bench_bfs(c: &mut Criterion) {
    let g = generators::connected_gnm(400, 1600, 3);
    let faults = fault_batch(&g, 16);

    let mut group = c.benchmark_group("query_engine/bfs_gnm400");
    group.bench_function("alloc", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += bfs(&g, 0, f).reachable_count();
            }
            reached
        })
    });
    let mut scratch = SearchScratch::<u32>::with_capacity(g.n());
    group.bench_function("scratch_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                bfs_into(&g, 0, f, &mut scratch);
                reached += scratch.reachable_count();
            }
            reached
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_u64_grid, bench_u64_large, bench_u128_random, bench_bigint_grid, bench_bfs,
        bench_scaling
}
criterion_main!(benches);

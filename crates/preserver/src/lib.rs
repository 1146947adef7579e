//! Fault-tolerant distance preservers (Section 4.1 of Bodwin & Parter).
//!
//! An `S × T` `f`-FT preserver (Definition 4) is a subgraph `H ⊆ G` with
//! `dist_{H\F}(s, t) = dist_{G\F}(s, t)` for all `s ∈ S`, `t ∈ T`, and
//! `|F| ≤ f`. This crate builds them the paper's way:
//!
//! * [`ft_sv_preserver`] — overlay all `S × V` replacement paths selected
//!   by a consistent stable RPTS under `≤ f` faults (Theorem 26; the
//!   relevant fault sets are enumerated through stability, growing each
//!   fault set only by edges of the current tree). The enumeration also
//!   runs on a work-stealing frontier of fault sets
//!   ([`ft_sv_preserver_frontier`] / [`ft_bfs_structure_frontier`], with
//!   [`EnumerationStats`] observability) — identical output, parallel
//!   inside a single source;
//! * [`ft_subset_preserver`] — the `(f+1)`-FT `S × S` preserver of
//!   Theorem 31: the union of `f`-FT `{s} × V` preservers under a
//!   *restorable* scheme. Restorability is what upgrades `f` to `f + 1`
//!   for subset pairs. For `f + 1 = 1` this degenerates to a union of
//!   SPTs — the paper's "simply take the union of BFS trees" remark;
//! * [`verify_preserver`] — ground-truth verification under exhaustive or
//!   sampled fault sets;
//! * [`lower_bound`] — the `G_f(d)` / `G*_f(V, E, W)` family of Theorem 27
//!   (Appendix B, Figures 2–3): a *bad* consistent stable scheme forcing
//!   `Ω(n^{2−1/2^f} σ^{1/2^f})` preserver edges, together with the
//!   perturbation-based comparison showing random tiebreaking escapes the
//!   bound on the same graph.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the guide-level
//! workspace architecture: the crate layering, the two-level query
//! engine (scratch kernels -> pool/frontier), the preserver
//! enumeration pipeline, and the serving layer (its "Serving layer"
//! chapter — `rsp_oracle` snapshots can carry a [`Preserver`] edge set
//! as a shippable artifact alongside the compiled trees).
//!
//! # Paper cross-reference
//!
//! | Module / item | Paper (PAPER.md) |
//! |---|---|
//! | [`Preserver`] | Definition 4: `S × T` `f`-FT distance preserver |
//! | [`overlay_paths`], [`overlay_paths_par`] | the raw overlay primitive behind every Section 4.1 construction |
//! | [`ft_bfs_structure`], [`ft_bfs_structure_frontier`] | Theorem 26 with `\|S\| = 1` (FT-BFS structure, stability-driven enumeration — sequential or work-stealing) |
//! | [`ft_sv_preserver`], [`ft_sv_preserver_par`], [`ft_sv_preserver_frontier`] | Theorem 26 `S × V` preserver (sources and fault sets share one frontier) |
//! | [`ft_subset_preserver`] | Theorem 31: restorability upgrades `f` to `f + 1` for `S × S` |
//! | [`verify_preserver`] | Definition 4 checked against ground-truth BFS |
//! | [`lower_bound`] | Theorem 27 / Appendix B `G_f(d)` family (Figures 2–3) |
//!
//! # Examples
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_preserver::{ft_subset_preserver, verify_preserver, PairSet};
//! use rsp_graph::generators;
//!
//! let g = generators::petersen();
//! let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
//! // 1-FT S×S preserver: union of two restorable-scheme SPTs.
//! let h = ft_subset_preserver(&scheme, &[0, 5], 1);
//! assert!(h.edge_count() <= 2 * (g.n() - 1));
//! let faults: Vec<_> = g.edges().map(|(e, _, _)| rsp_graph::FaultSet::single(e)).collect();
//! verify_preserver(&g, &h, &PairSet::subset(vec![0, 5]), &faults).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ft_bfs;
pub mod lower_bound;
mod verify;

pub use ft_bfs::{
    ft_bfs_structure, ft_bfs_structure_frontier, ft_bfs_structure_with, ft_subset_preserver,
    ft_sv_preserver, ft_sv_preserver_frontier, ft_sv_preserver_par, overlay_paths,
    overlay_paths_par, EnumerationStats, Preserver,
};
pub use verify::{
    translate_faults, verify_preserver, verify_preserver_counting, PairSet, PreserverViolation,
};

//! Replacement path algorithms (Section 4.2 of Bodwin & Parter).
//!
//! The **subset-rp** problem: given `G` and sources `S`, report
//! `dist_{G\{e}}(s, t)` for every pair `s, t ∈ S` and every failing edge
//! `e`. This crate provides:
//!
//! * [`single_pair_replacement_paths`] — the near-linear single-pair
//!   algorithm the paper cites as Theorem 28 (Hershberger–Suri / Malik et
//!   al. style): two shortest-path trees under unique perturbed weights,
//!   one candidate per non-path edge covering a contiguous interval of
//!   failing path edges, and a union-find sweep; `O(m log m)` after the
//!   trees (sorting dominates the inverse-Ackermann sweep);
//! * [`subset_replacement_paths`] — **Algorithm 1** (Theorem 29): compute
//!   one restorable-scheme SPT per source (`O(σ·m log n)`), then solve each
//!   pair on the `O(n)`-edge *union of two trees*, for `O(σm) + Õ(σ²n)`
//!   total — restorability of the tiebreaking scheme is exactly what makes
//!   the union of two trees distance-preserving under any single fault;
//! * [`naive_subset_rp`] / [`per_pair_subset_rp`] — the baselines the
//!   benches compare against (BFS-per-fault recompute, and the single-pair
//!   algorithm run on the full graph per pair).
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the guide-level
//! workspace architecture: the crate layering, the two-level query
//! engine (scratch kernels -> pool/frontier), and the
//! preserver enumeration pipeline.
//!
//! # Paper cross-reference
//!
//! | Module / item | Paper (PAPER.md) |
//! |---|---|
//! | [`single_pair_replacement_paths`] | Theorem 28 single-pair algorithm (trees + interval sweep) |
//! | [`ReplacementScratch`] | hot-loop state for Algorithm 1's inner loop: two Dijkstra scratches + the perturbed cost buffers |
//! | [`subset_replacement_paths`] | **Algorithm 1** (Theorem 29): union-of-two-trees sub-instances |
//! | [`subset_replacement_paths_par`] | Algorithm 1 with SPT builds and pair sub-instances fanned out over workers |
//! | [`weighted_single_pair`], [`verify_weighted_restoration_lemma`] | Theorem 11, the weighted restoration lemma |
//! | [`SourcewiseReplacementPaths`] | Section 1.1 sourcewise setting (`{s} × V`) |
//! | [`SingleFaultOracle`] | Section 4.3's distance-sensitivity-oracle connection |
//! | [`NextFree`] | the union-find sweep inside Theorem 28 |
//! | [`naive_subset_rp`], [`per_pair_subset_rp`] | baselines the benches compare against |
//!
//! # Examples
//!
//! ```
//! use rsp_replacement::subset_replacement_paths;
//! use rsp_graph::generators;
//!
//! let g = generators::petersen();
//! let result = subset_replacement_paths(&g, &[0, 5, 7], 42);
//! // Failing any edge on the selected 0⇝5 path reroutes around girth 5.
//! let pair = result.pair(0, 5).unwrap();
//! assert_eq!(pair.base_dist(), 1);
//! for entry in pair.entries() {
//!     assert_eq!(entry.dist, Some(4));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod oracle;
mod single_pair;
mod sourcewise;
mod subset_rp;
mod unionfind;
mod weighted;

pub use baseline::{
    naive_single_pair, naive_single_pair_with, naive_subset_rp, per_pair_subset_rp,
};
pub use oracle::SingleFaultOracle;
pub use single_pair::{
    single_pair_replacement_paths, single_pair_replacement_paths_with, ReplacementEntry,
    ReplacementScratch, SinglePairResult,
};
pub use sourcewise::SourcewiseReplacementPaths;
pub use subset_rp::{
    subset_replacement_paths, subset_replacement_paths_par, PairReplacements, SubsetRpResult,
};
pub use unionfind::NextFree;
pub use weighted::{
    verify_weighted_restoration_lemma, weighted_single_pair, RestorationLemmaStats, WeightedEntry,
    WeightedSinglePair,
};

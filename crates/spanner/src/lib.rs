//! Fault-tolerant +4 additive spanners (Section 4.4 of Bodwin & Parter).
//!
//! An `f`-FT +4 additive spanner (Definition 6) is a subgraph `H` with
//! `dist_{H\F}(s, t) ≤ dist_{G\F}(s, t) + 4` for **all** vertex pairs and
//! all `|F| ≤ f`. The paper's construction (Lemma 32):
//!
//! 1. sample `σ` random *cluster centers* `C`;
//! 2. every vertex with `≥ f + 1` neighbors in `C` keeps `f + 1` of those
//!    edges (after `f` faults one surviving adjacency remains — this is
//!    where the fault budget enters); every other vertex keeps **all** its
//!    edges;
//! 3. add an `f`-FT `C × C` subset distance preserver (Theorem 31, built
//!    from the restorable tiebreaking scheme).
//!
//! Balancing `σ` per Theorem 33 gives the `O_f(n^{1+2^{f'}/(2^{f'}+1)})`
//! sizes (the theorem's `f'` is our tolerated-fault count minus one). The
//! stretch analysis routes any replacement path through the first and last
//! clustered vertices' centers, paying `+2` at each end.
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
//! | [`Spanner`], [`ft_additive_spanner`] | Definition 6 / Lemma 32: clustering + `C × C` subset preserver |
//! | [`theorem33_sigma`] | Theorem 33's center-count balance (Theorem 7 sizes) |
//! | [`verify_spanner_stretch`] | the `+4` stretch guarantee, checked against ground truth |
//!
//! # Examples
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_spanner::{ft_additive_spanner, verify_spanner_stretch};
//! use rsp_graph::{generators, FaultSet};
//!
//! let g = generators::connected_gnm(40, 140, 1);
//! let scheme = RandomGridAtw::theorem20(&g, 9).into_scheme();
//! let spanner = ft_additive_spanner(&scheme, 6, 1, 7);
//! let faults: Vec<FaultSet> = (0..5).map(FaultSet::single).collect();
//! verify_spanner_stretch(&g, &spanner, 4, &faults).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clustering;
mod verify;

pub use clustering::{ft_additive_spanner, theorem33_sigma, Spanner};
pub use verify::{verify_spanner_stretch, StretchViolation};

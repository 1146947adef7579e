//! Directed acyclic graphs and the empirical DAG extension of restorable
//! tiebreaking.
//!
//! Section 1.2 of Bodwin & Parter notes that both restoration lemmas
//! extend to DAGs, and leaves as **future work** whether the main result
//! (a single selected path per pair whose concatenations restore all
//! replacement paths) admits a DAG analogue: *"It seems very plausible
//! that our main result admits some kind of extension to unweighted
//! DAGs, but we leave the appropriate formulation and proof as a
//! direction for future work."*
//!
//! This crate supplies the substrate and the experiment:
//!
//! * [`Digraph`] — a directed CSR graph with arc identifiers, in/out
//!   adjacency, topological sorting, and directed BFS under arc faults;
//! * [`generators`] — random DAGs, layered DAGs, and the directed grid
//!   (the canonical tie-rich DAG);
//! * [`DagScheme`] — canonical unique shortest paths by random integer
//!   perturbation (the Theorem 20 recipe; in a DAG every arc has a single
//!   orientation, so antisymmetry is vacuous);
//! * [`dag_restoration_stats`] — the open question, measured: for each
//!   `(s, t, failing arc)`, can the replacement path be written as
//!   `π(s, x) ∘ π(x, t)` for *selected* paths? Compared against
//!   [`existential_restoration_stats`], the known-true existential DAG
//!   restoration lemma.
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
//! | [`Digraph`], [`generators`] | Section 1.2's unweighted-DAG setting |
//! | [`DagScheme`] | the Theorem 20 recipe transplanted (antisymmetry vacuous on arcs) |
//! | [`dag_restoration_stats`] | the open question, measured: selected-path concatenation on DAGs |
//! | [`existential_restoration_stats`] | the known-true existential DAG restoration lemma (control) |
//!
//! # Examples
//!
//! ```
//! use rsp_dag::{generators, DagScheme, dag_restoration_stats};
//!
//! let d = generators::grid_dag(3, 3); // all arcs point right/down
//! let scheme = DagScheme::new(&d, 42);
//! let stats = dag_restoration_stats(&scheme);
//! // The conjecture holds on every instance we have ever measured:
//! assert_eq!(stats.failed, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digraph;
pub mod generators;
mod restore;
mod scheme;

pub use digraph::{ArcFaults, ArcId, DagError, Digraph, DirectedBfs};
pub use restore::{dag_restoration_stats, existential_restoration_stats, DagRestorationStats};
pub use scheme::DagScheme;

//! MPLS-style path restoration — the application that motivated the
//! restoration lemma (Section 1 of Bodwin & Parter, after Afek et al.).
//!
//! An MPLS network forwards packets along pre-established label-switched
//! paths and can efficiently **concatenate** existing paths. When a link
//! fails, the ideal recovery does not recompute shortest paths: it splices
//! a replacement out of paths the routing tables already store.
//!
//! The paper's deployment sketch carries **two** routing tables for a
//! restorable scheme `π`:
//!
//! * the *forward* table routes `s → x` along `π(s, x)`;
//! * the *reverse* table routes `x → t` along `reverse(π(t, x))` — i.e.
//!   by walking **up** the tree of selected paths rooted at `t`.
//!
//! On failure, the control plane scans midpoints `x` and splices
//! `π(s, x) ∘ reverse(π(t, x))`. Theorem 2 guarantees a splice of exactly
//! replacement-shortest length always exists; with a non-restorable scheme
//! (the arbitrary BFS tables of a textbook router) the same procedure can
//! come up empty — that is Figure 1 as an operations incident.
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
//! | [`MplsNetwork`] | Section 1's deployment sketch (after Afek et al.) |
//! | [`DualTables`] | the forward + reverse routing tables of a restorable `π` |
//! | [`MplsNetwork::restore`] | Theorem 2 as a failover operation: splice `π(s, x) ∘ reverse(π(t, x))` |
//! | [`forward_packet`] | data-plane walk of the two tables |
//!
//! # Examples
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_mpls::MplsNetwork;
//! use rsp_graph::generators;
//!
//! let g = generators::petersen();
//! let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
//! let mut net = MplsNetwork::new(&scheme);
//! let lsp = net.establish(0, 6).unwrap();
//! let first_hop = net.lsp(lsp).unwrap().path().vertices()[1];
//! let failed = net.graph().edge_between(0, first_hop).unwrap();
//! net.fail_edge(failed);
//! let report = net.restore(lsp).unwrap();
//! assert_eq!(report.restored_path.hops() as u32, report.optimal_hops);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataplane;
mod failover;
mod table;

pub use dataplane::{forward_packet, ForwardOutcome};
pub use failover::{LspId, MplsError, MplsNetwork, RestorationReport};
pub use table::DualTables;

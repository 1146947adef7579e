//! CONGEST model simulator and the distributed constructions of Section
//! 4.5 of Bodwin & Parter.
//!
//! In the CONGEST model the network **is** the graph: one processor per
//! vertex, synchronous rounds, and `O(log n)` bits per edge per direction
//! per round. The quantities the paper's distributed theorems bound —
//! round complexity and per-edge congestion — are exactly what the
//! simulator in [`sim`] counts (and its bandwidth quota *enforces*).
//!
//! On top of the simulator:
//!
//! * [`distributed_spt`] — **Lemma 34**: a shortest-path tree under a
//!   tiebreaking weight function `ω` in `O(D)` rounds with `O(1)` messages
//!   per edge (the SPT under `ω` is layered exactly like a BFS tree, so
//!   BFS waves carrying perturbed distances suffice);
//! * [`scheduled_multi_spt`] — **Theorem 35**'s random-delay composition:
//!   `σ` SPT constructions run simultaneously, each edge forwarding at
//!   most one message per round and queueing the rest; total rounds
//!   `Õ(D + σ)`;
//! * [`distributed_1ft_subset_preserver`] — **Lemma 36 / Theorem 8(1)**:
//!   sample the restorable weight function locally (one exchange round),
//!   run the `σ` scheduled SPTs, and union the tree edges: a 1-FT `S × S`
//!   preserver with `O(|S|·n)` edges in `Õ(D + |S|)` rounds;
//! * [`distributed_ft_spanner`] — **Corollary 9(1)**: local clustering
//!   plus the distributed `C × C` preserver gives the first distributed
//!   1-FT +4 additive spanner;
//! * [`theorem8_round_bound`] — the paper's round formulas for the 2- and
//!   3-fault sourcewise constructions of \[30\], which the paper (and this
//!   reproduction — see DESIGN.md substitution 5) uses as black boxes; the
//!   corresponding edge sets are built centrally by `rsp-preserver`.
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
//! | [`sim`] | the CONGEST model itself: rounds, `O(log n)`-bit messages, congestion counting |
//! | [`distributed_spt`] | Lemma 34: SPT under `ω` in `O(D)` rounds, `O(1)` messages/edge |
//! | [`scheduled_multi_spt`] | Theorem 35: random-delay composition of `σ` SPTs, `Õ(D + σ)` rounds |
//! | [`distributed_1ft_subset_preserver`] | Lemma 36 / Theorem 8(1): distributed 1-FT `S × S` preserver |
//! | [`distributed_ft_spanner`] | Corollary 9(1): first distributed 1-FT +4 spanner |
//! | [`theorem8_round_bound`] | Theorem 8(2–3) round formulas (black-box edge sets, DESIGN.md substitution 5) |
//! | [`broadcast`], [`convergecast_sum`] | the standard primitives the constructions compose |
//!
//! # Examples
//!
//! ```
//! use rsp_congest::distributed_spt;
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::{diameter, generators};
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
//! let run = distributed_spt(&g, &scheme, 0).unwrap();
//! // Lemma 34: O(D) rounds, O(1) messages per edge.
//! assert!(run.stats.rounds as u32 <= diameter(&g) + 3);
//! assert!(run.stats.max_messages_per_edge <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs_spt;
mod broadcast;
mod preserver_dist;
mod scheduler;
pub mod sim;

pub use bfs_spt::{distributed_spt, DistributedSptResult, SptMsg};
pub use broadcast::{
    broadcast, convergecast_sum, AggregateMsg, BroadcastMsg, BroadcastResult, ConvergecastResult,
};
pub use preserver_dist::{
    distributed_1ft_preserver_full_protocol, distributed_1ft_subset_preserver,
    distributed_ft_spanner, theorem8_round_bound, DistributedEdgeSet,
};
pub use scheduler::{scheduled_multi_spt, MultiSptResult, TaggedMsg};
pub use sim::{CongestionError, MsgSize, Network, NodeCtx, Outbox, Program, RunStats};

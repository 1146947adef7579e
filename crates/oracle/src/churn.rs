//! The churn-hardened control plane: fault-event ingestion, validated
//! folding, panic-isolated recompilation, and degraded serving.
//!
//! A [`ChurnPipeline`] consumes the `fault arrives / fault repairs`
//! stream of a live network and keeps an [`Oracle`] serving through it.
//! The robustness contract — what this module exists for — is:
//!
//! * **Validation & quarantine.** Every event is validated against the
//!   graph and the stream's own state ([`rsp_graph::FaultState`]):
//!   out-of-range ids, duplicate arrivals, repairs of never-faulted
//!   edges, and undecodable wire frames are **quarantined with a typed
//!   reason** ([`QuarantineReason`]) — never applied, never a panic.
//! * **Panic-isolated publish.** Snapshot recompilation runs under
//!   [`std::panic::catch_unwind`]; a build that panics, fails
//!   validation, or is **rejected by the cross-check** (sampled sources
//!   compared against [`rsp_graph::dijkstra_into`] ground truth) never
//!   reaches readers.
//! * **Last-good-snapshot degraded serving.** While builds fail,
//!   readers keep answering from the last good snapshot; staleness is
//!   *exposed*, not hidden — [`ChurnHealth`] reports the pending-event
//!   count and the published epoch/sequence lag.
//! * **Delta-first commits.** With [`ChurnConfig::delta_enabled`] the
//!   first build attempt patches the published snapshot through
//!   [`crate::delta::DeltaBuilder`] — per-epoch work proportional to
//!   the detached subtree, untouched rows shared copy-on-write — and
//!   still passes the same cross-check gate; any delta refusal or
//!   failure falls back to the full rebuild with the reason recorded in
//!   [`ChurnHealth::last_delta_fallback`].
//! * **Retry, backoff, escalation.** Failed builds retry with
//!   exponential backoff up to [`ChurnConfig::retry_budget`], then
//!   escalate to a from-scratch full rebuild that re-derives the fault
//!   state from the journal.
//! * **Deterministic recovery.** The accepted-event journal is
//!   append-only; [`ChurnPipeline::replay`] reconstructs an identical
//!   pipeline from it after a crash, folding the journal first and
//!   compiling a single snapshot at the folded state.
//! * **Durable, bounded journal state.** Journal streams serialize
//!   through the CRC-framed codec in [`rsp_graph::journal`]
//!   ([`ChurnPipeline::export_journal`]); [`ChurnPipeline::checkpoint`]
//!   folds the accepted prefix into a [`rsp_graph::journal::JournalCheckpoint`]
//!   frame and [`ChurnPipeline::compact`] truncates the in-memory tail
//!   behind it, so journal memory stays proportional to the events
//!   since the last checkpoint, not the stream's lifetime.
//!   [`ChurnPipeline::recover`] rebuilds a pipeline from serialized
//!   bytes — [`ChurnPipeline::replay_from`] from the last checkpoint
//!   when one is present, genesis [`ChurnPipeline::replay`] otherwise —
//!   tolerating a torn final frame (truncated mid-append = clean
//!   recovery point) and refusing interior corruption with a typed
//!   [`rsp_graph::journal::JournalDecodeError`], never a panic.
//! * **Admission control.** [`ChurnConfig::max_pending_events`] caps
//!   journaled-but-uncommitted events: past it, ingestion sheds with a
//!   typed [`Backpressure`] error instead of growing state without
//!   bound behind a stalled builder ([`ChurnHealth::shed_events`]
//!   counts the sheds; replayed/recovered journals are never shed).
//!
//! The seeded fault-injection harness in [`inject`] drives all of this
//! in `crates/oracle/tests/churn_robustness.rs`: dropped, duplicated,
//! reordered, and corrupted wire streams plus builder panics at chosen
//! steps, asserting the oracle never serves an answer inconsistent with
//! its published snapshot and always converges once injection stops.
//! `crates/oracle/tests/journal_recovery.rs` drives the durability
//! layer the same way: bit-flipped and truncated journal streams,
//! recovery-equivalence proptests at every compaction point, and the
//! bounded-memory soak. See the "Durability, compaction & scrubbing"
//! chapter of `docs/ARCHITECTURE.md` for the frame format and the
//! checkpoint lifecycle.
//!
//! # Examples
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::{generators, FaultEvent, FaultSet};
//! use rsp_oracle::churn::ChurnPipeline;
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//! let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
//! let mut reader = pipeline.reader();
//!
//! // An edge fails on the wire: validate, fold, recompile, publish.
//! let e = g.edge_between(0, 1).unwrap();
//! pipeline.ingest(FaultEvent::Arrive(e)).unwrap();
//! let report = pipeline.commit().unwrap();
//! assert!(report.published);
//!
//! // Readers need no new API: a fault-free wire query now routes
//! // around the failed edge baked into the published snapshot.
//! assert_eq!(reader.query(0, &FaultSet::empty()).dist(1), Some(3));
//!
//! // A duplicate arrival is quarantined, not applied and not a panic.
//! assert!(pipeline.ingest(FaultEvent::Arrive(e)).is_err());
//! assert_eq!(pipeline.quarantined().len(), 1);
//! assert_eq!(pipeline.health().pending_events, 0);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};
use rsp_arith::PathCost;
use rsp_core::{ExactScheme, Rpts};
use rsp_graph::journal::{
    decode_journal, JournalCheckpoint, JournalDecodeError, JournalFrame, JournalTail,
};
use rsp_graph::{
    dijkstra_into, FaultEvent, FaultEventError, FaultSet, FaultState, SearchScratch, Vertex,
    WireEventError,
};

use crate::delta::{DeltaBuilder, DeltaError, DeltaUnsupported};
use crate::serve::{Oracle, OracleReader};
use crate::snapshot::{BuildError, OracleSnapshot};

#[path = "inject.rs"]
pub mod inject;

/// Tuning knobs for a [`ChurnPipeline`].
///
/// The defaults suit tests and small deployments; production control
/// planes will want a larger backoff base and more cross-check sources.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Incremental build attempts per [`ChurnPipeline::commit`] before
    /// escalating to a from-scratch full rebuild (default 3).
    pub retry_budget: u32,
    /// Backoff before retry `k` is `backoff_base × 2^k` (default 5ms).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay (default 500ms).
    pub backoff_cap: Duration,
    /// Number of sources sampled for the cross-check of every built
    /// snapshot, one heap-engine `dijkstra_into` per sampled source;
    /// `0` disables the gate (default 4).
    pub cross_check_sources: usize,
    /// Seed for the deterministic cross-check source sample (mixed with
    /// the target sequence number, so every build checks fresh rows).
    pub cross_check_seed: u64,
    /// Attempt a [`crate::delta::DeltaBuilder`] patch of the published
    /// snapshot before falling back to a full rebuild (default `true`).
    /// Disable to force every commit through the from-scratch builder —
    /// the rebuild-only arm of the differential test battery and the
    /// `commit_rebuild` bench rows run this way.
    pub delta_enabled: bool,
    /// Admission-control cap on journaled-but-uncommitted events
    /// (default 65 536). When [`ChurnPipeline::pending_events`] reaches
    /// this cap, further events are **shed** with a typed
    /// [`IngestError::Backpressure`] — not journaled, not quarantined —
    /// so a stalled builder cannot grow pipeline state without bound.
    pub max_pending_events: usize,
    /// Upper bound on the retained quarantine log (default 1 024).
    /// Older [`QuarantinedEvent`]s are dropped once the log is full;
    /// [`ChurnHealth::quarantined_total`] keeps counting every
    /// quarantine regardless.
    pub max_quarantine_log: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            retry_budget: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            cross_check_sources: 4,
            cross_check_seed: 0x5eed_cafe,
            delta_enabled: true,
            max_pending_events: 65_536,
            max_quarantine_log: 1_024,
        }
    }
}

impl ChurnConfig {
    /// The exponential-backoff delay before retrying after failed
    /// attempt `attempt` (0-based): `backoff_base × 2^attempt`, capped
    /// at [`ChurnConfig::backoff_cap`].
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use rsp_oracle::churn::ChurnConfig;
    ///
    /// let cfg = ChurnConfig {
    ///     backoff_base: Duration::from_millis(10),
    ///     backoff_cap: Duration::from_millis(35),
    ///     ..ChurnConfig::default()
    /// };
    /// assert_eq!(cfg.backoff(0), Duration::from_millis(10));
    /// assert_eq!(cfg.backoff(1), Duration::from_millis(20));
    /// assert_eq!(cfg.backoff(2), Duration::from_millis(35)); // capped
    /// ```
    pub fn backoff(&self, attempt: u32) -> Duration {
        let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.backoff_base.checked_mul(mult).map_or(self.backoff_cap, |d| d.min(self.backoff_cap))
    }
}

/// Why an offered event was quarantined instead of applied.
///
/// [`QuarantineReason::code`] gives the stable short form for
/// operational counters and logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The wire frame failed to decode at all.
    Wire(WireEventError),
    /// The decoded event failed graph/state validation.
    Event(FaultEventError),
}

impl QuarantineReason {
    /// A stable short reason code (`"bad-length"`, `"bad-tag"`,
    /// `"edge-overflow"`, `"edge-out-of-range"`, `"duplicate-arrival"`,
    /// `"repair-without-fault"`).
    pub fn code(&self) -> &'static str {
        match self {
            QuarantineReason::Wire(WireEventError::BadLength { .. }) => "bad-length",
            QuarantineReason::Wire(WireEventError::BadTag { .. }) => "bad-tag",
            QuarantineReason::Wire(WireEventError::EdgeOverflow { .. }) => "edge-overflow",
            QuarantineReason::Event(FaultEventError::EdgeOutOfRange { .. }) => "edge-out-of-range",
            QuarantineReason::Event(FaultEventError::AlreadyFaulted { .. }) => "duplicate-arrival",
            QuarantineReason::Event(FaultEventError::NotFaulted { .. }) => "repair-without-fault",
        }
    }
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Wire(e) => write!(f, "quarantined ({}): {e}", self.code()),
            QuarantineReason::Event(e) => write!(f, "quarantined ({}): {e}", self.code()),
        }
    }
}

impl std::error::Error for QuarantineReason {}

/// Admission-control shedding: the pipeline's pending-event cap
/// ([`ChurnConfig::max_pending_events`]) is reached, so the offered
/// event was refused outright — not journaled, not quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Journaled-but-uncommitted events at the time of the refusal.
    pub pending: u64,
    /// The configured cap that was hit.
    pub cap: usize,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backpressure: {} pending events at cap {}", self.pending, self.cap)
    }
}

impl std::error::Error for Backpressure {}

/// Why [`ChurnPipeline::ingest`] / [`ChurnPipeline::ingest_wire`]
/// refused an offered event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The event failed decode or validation and was quarantined with a
    /// typed reason.
    Quarantined(QuarantineReason),
    /// The pending-event cap was hit; the event was shed (see
    /// [`Backpressure`]).
    Backpressure(Backpressure),
}

impl IngestError {
    /// A stable short reason code: the quarantine code
    /// ([`QuarantineReason::code`]) or `"backpressure"`.
    pub fn code(&self) -> &'static str {
        match self {
            IngestError::Quarantined(reason) => reason.code(),
            IngestError::Backpressure(_) => "backpressure",
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Quarantined(reason) => reason.fmt(f),
            IngestError::Backpressure(bp) => bp.fmt(f),
        }
    }
}

impl std::error::Error for IngestError {}

/// One quarantined event: what arrived, where in the offered stream,
/// and why it was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedEvent {
    /// 0-based position in the *offered* stream (accepted + quarantined).
    pub index: u64,
    /// The decoded event, or `None` when the frame never decoded.
    pub event: Option<FaultEvent>,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
}

/// Why one snapshot build attempt failed.
#[derive(Clone, Debug)]
pub enum BuildFailure {
    /// The builder panicked; the payload message is preserved.
    Panicked(String),
    /// The builder rejected the configuration.
    Rejected(BuildError),
    /// The built snapshot disagreed with the heap engine
    /// ([`rsp_graph::dijkstra_into`]) on a sampled cell — it was
    /// discarded before publication.
    CrossCheckMismatch {
        /// The sampled source whose tree row disagreed.
        source: Vertex,
        /// The vertex at which the disagreement was detected.
        target: Vertex,
    },
    /// Replaying the journal during a full rebuild rejected an event —
    /// the journal itself is corrupt (this indicates an internal bug or
    /// external tampering, and is surfaced rather than panicking).
    JournalCorrupt(FaultEventError),
}

impl std::fmt::Display for BuildFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildFailure::Panicked(msg) => write!(f, "builder panicked: {msg}"),
            BuildFailure::Rejected(e) => write!(f, "builder rejected configuration: {e}"),
            BuildFailure::CrossCheckMismatch { source, target } => {
                write!(f, "cross-check mismatch at source {source}, target {target}")
            }
            BuildFailure::JournalCorrupt(e) => write!(f, "journal replay rejected event: {e}"),
        }
    }
}

impl std::error::Error for BuildFailure {}

/// A [`ChurnPipeline::commit`] call that exhausted its retry budget
/// *and* the full-rebuild escalation. The oracle keeps serving the last
/// good snapshot; the next `commit` starts a fresh attempt cycle.
#[derive(Clone, Debug)]
pub struct ChurnStalled {
    /// Build attempts made by this commit call (incremental + full).
    pub attempts: u32,
    /// The failure that ended the last attempt.
    pub last_failure: BuildFailure,
}

impl std::fmt::Display for ChurnStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "churn commit stalled after {} attempts (serving last good snapshot): {}",
            self.attempts, self.last_failure
        )
    }
}

impl std::error::Error for ChurnStalled {}

/// What a successful [`ChurnPipeline::commit`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitReport {
    /// The oracle epoch now serving.
    pub epoch: u64,
    /// The journal sequence the published snapshot folds in.
    pub seq: u64,
    /// Build attempts made (0 when the pipeline was already current).
    pub attempts: u32,
    /// `true` iff the publish came from the full-rebuild escalation.
    pub full_rebuild: bool,
    /// `true` iff the published snapshot was produced by the delta
    /// builder patching the predecessor (rather than a from-scratch
    /// rebuild).
    pub delta: bool,
    /// `false` iff the commit was a no-op (nothing pending, not
    /// degraded), in which case no new epoch was published.
    pub published: bool,
}

/// A point-in-time health report: how fresh the serving snapshot is and
/// how the control plane has been behaving.
///
/// `degraded == true` means the last build cycle failed and readers are
/// on the **last good snapshot**; `pending_events` is the staleness —
/// how many accepted events the served snapshot does not yet fold in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnHealth {
    /// The oracle epoch readers currently refresh onto.
    pub published_epoch: u64,
    /// Journal sequence folded into the published snapshot.
    pub published_seq: u64,
    /// Journal sequence of the last accepted event.
    pub accepted_seq: u64,
    /// Journal sequence of the last event compacted out of memory (0
    /// before any [`ChurnPipeline::compact`]).
    pub compacted_seq: u64,
    /// Events currently held in the in-memory journal tail — the
    /// bounded-memory number the compaction loop keeps small.
    pub journal_tail_len: usize,
    /// `accepted_seq - published_seq`: the served snapshot's staleness
    /// in events.
    pub pending_events: u64,
    /// Events shed by admission control
    /// ([`ChurnConfig::max_pending_events`]) since construction.
    pub shed_events: u64,
    /// `true` iff the pipeline is serving a stale last-good snapshot
    /// because builds are failing.
    pub degraded: bool,
    /// Build failures since the last successful publish.
    pub consecutive_failures: u32,
    /// Total events quarantined since construction.
    pub quarantined_total: u64,
    /// Successful publishes since construction (excluding the initial).
    pub commits: u64,
    /// Full-rebuild escalations attempted since construction.
    pub full_rebuilds: u64,
    /// Publishes served by a delta patch of the predecessor snapshot.
    pub delta_commits: u64,
    /// Delta attempts that fell back to the from-scratch builder
    /// (unsupported shape, tie refusal, panic, or cross-check reject).
    pub delta_fallbacks: u64,
    /// Why the most recent delta fallback happened. **Sticky**: kept
    /// across later successful commits so operators can see why deltas
    /// degrade to rebuilds even after the pipeline recovers.
    pub last_delta_fallback: Option<String>,
    /// Human-readable description of the most recent build failure, if
    /// the pipeline is degraded.
    pub last_failure: Option<String>,
}

/// The injection point a [`ChurnPipeline`] probe observes: which build
/// attempt is about to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildContext {
    /// 0-based attempt number within the current commit call.
    pub attempt: u32,
    /// `true` for the full-rebuild escalation attempt.
    pub full_rebuild: bool,
    /// `true` when this attempt will try the delta builder first (see
    /// [`ChurnConfig::delta_enabled`]; only attempt 0 tries deltas).
    pub delta: bool,
    /// The journal sequence the build is trying to fold in.
    pub target_seq: u64,
}

/// What an injection probe does to a build attempt (see
/// [`ChurnPipeline::set_build_probe`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildFault {
    /// Let the build run normally.
    None,
    /// Panic inside the (isolated) build step.
    Panic,
    /// Let the build succeed, then corrupt one tree cell so the
    /// cross-check **must** reject the snapshot — this is how the test
    /// harness proves the cross-check gate actually gates.
    Corrupt,
}

/// A boxed fault-injection probe consulted before each build attempt
/// (see [`ChurnPipeline::set_build_probe`] and [`inject::flaky_builder`]).
pub type BuildProbe = Box<dyn FnMut(&BuildContext) -> BuildFault + Send>;

/// The churn-hardened control plane around an [`Oracle`]: ingests fault
/// events, quarantines invalid ones, recompiles snapshots
/// panic-isolated, and publishes through the epoch swap — falling back
/// to last-good-snapshot serving when builds fail.
///
/// See the [module docs](self) for the robustness contract and an
/// end-to-end example.
pub struct ChurnPipeline<C: PathCost + 'static> {
    oracle: Oracle<C>,
    scheme: ExactScheme<C>,
    state: FaultState,
    /// The in-memory journal **tail**: accepted events *after* the last
    /// compaction point. `journal[k]` has sequence `base_seq + k + 1`.
    journal: Vec<FaultEvent>,
    /// Sequence of the last event folded into `base_state` (0 before
    /// any compaction: the tail is the whole journal).
    base_seq: u64,
    /// The fold of the compacted prefix `1..=base_seq` — what a full
    /// rebuild re-derives the fault state from, together with the tail.
    base_state: FaultState,
    /// Oracle epoch recorded by the compaction checkpoint (exported in
    /// [`ChurnPipeline::export_journal`]'s checkpoint frame).
    base_epoch: u64,
    /// The most recent [`ChurnPipeline::checkpoint`], if any — the
    /// point [`ChurnPipeline::compact`] truncates to.
    last_checkpoint: Option<JournalCheckpoint>,
    quarantine: Vec<QuarantinedEvent>,
    quarantined_total: u64,
    shed: u64,
    offered: u64,
    published_seq: u64,
    consecutive_failures: u32,
    commits: u64,
    full_rebuilds: u64,
    delta_commits: u64,
    delta_fallbacks: u64,
    last_delta_fallback: Option<String>,
    last_failure: Option<BuildFailure>,
    config: ChurnConfig,
    sleeper: Box<dyn FnMut(Duration) + Send>,
    probe: Option<BuildProbe>,
}

impl<C: PathCost + 'static> std::fmt::Debug for ChurnPipeline<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnPipeline")
            .field("state", &self.state)
            .field("journal_len", &self.journal.len())
            .field("base_seq", &self.base_seq)
            .field("quarantined", &self.quarantine.len())
            .field("published_seq", &self.published_seq)
            .field("consecutive_failures", &self.consecutive_failures)
            .finish_non_exhaustive()
    }
}

impl<C: PathCost + 'static> ChurnPipeline<C> {
    /// Builds the initial (fault-free) snapshot from `scheme`,
    /// publishes it as epoch 1, and returns the pipeline, with the
    /// default [`ChurnConfig`].
    pub fn new(scheme: &ExactScheme<C>) -> Result<Self, BuildError> {
        Self::with_config(scheme, ChurnConfig::default())
    }

    /// [`ChurnPipeline::new`] with an explicit configuration.
    pub fn with_config(scheme: &ExactScheme<C>, config: ChurnConfig) -> Result<Self, BuildError> {
        let snapshot = OracleSnapshot::builder(scheme).version(0).try_build()?;
        let state = FaultState::new(scheme.graph().m());
        Ok(Self::assemble(scheme, config, snapshot, genesis(state.clone()), state, Vec::new()))
    }

    /// Wraps a compiled snapshot in a pipeline whose accepted history is
    /// `base` (the compacted prefix) plus `journal` (the tail), with
    /// `state` their fold. The snapshot must fold in exactly that state:
    /// it is published as epoch 1 with nothing pending.
    fn assemble(
        scheme: &ExactScheme<C>,
        config: ChurnConfig,
        snapshot: OracleSnapshot<C>,
        base: JournalCheckpoint,
        state: FaultState,
        journal: Vec<FaultEvent>,
    ) -> Self {
        let accepted_seq = base.seq + journal.len() as u64;
        ChurnPipeline {
            oracle: Oracle::new(snapshot),
            scheme: scheme.clone(),
            state,
            // Replayed events count as offered: quarantine indices
            // number every event this pipeline has seen.
            offered: journal.len() as u64,
            journal,
            base_seq: base.seq,
            base_state: base.state,
            base_epoch: base.epoch,
            last_checkpoint: None,
            quarantine: Vec::new(),
            quarantined_total: 0,
            shed: 0,
            published_seq: accepted_seq,
            consecutive_failures: 0,
            commits: 0,
            full_rebuilds: 0,
            delta_commits: 0,
            delta_fallbacks: 0,
            last_delta_fallback: None,
            last_failure: None,
            config,
            sleeper: Box::new(std::thread::sleep),
            probe: None,
        }
    }

    /// Reconstructs a pipeline from an accepted-event journal — the
    /// deterministic crash-recovery path. Every journal event is
    /// re-validated and folded in order into a fault state first; then
    /// exactly one snapshot is compiled at that state (panic-isolated
    /// and cross-checked, under the commit retry ladder) and published
    /// as epoch 1 with nothing pending. No fault-free genesis snapshot
    /// is built on the way. The result is state-identical to the
    /// pipeline that wrote the journal (same fault state, same
    /// published sequence, same snapshot cells).
    ///
    /// A journal event that fails validation is
    /// [`ReplayError::Rejected`] with its 1-based sequence; a build
    /// that never passes is [`ReplayError::Stalled`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultEvent};
    /// use rsp_oracle::churn::{ChurnConfig, ChurnPipeline};
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let mut a = ChurnPipeline::new(&scheme).unwrap();
    /// a.ingest(FaultEvent::Arrive(0)).unwrap();
    /// a.ingest(FaultEvent::Arrive(5)).unwrap();
    /// a.ingest(FaultEvent::Repair(0)).unwrap();
    /// a.commit().unwrap();
    ///
    /// // Crash. Recover from the journal alone:
    /// let b = ChurnPipeline::replay(&scheme, a.journal(), ChurnConfig::default()).unwrap();
    /// assert_eq!(b.fault_state(), a.fault_state());
    /// assert_eq!(b.health().published_seq, a.health().published_seq);
    /// assert_eq!(b.oracle().epoch(), 1, "one snapshot built, no commit");
    /// ```
    pub fn replay(
        scheme: &ExactScheme<C>,
        journal: &[FaultEvent],
        config: ChurnConfig,
    ) -> Result<Self, ReplayError> {
        Self::fold_and_build(scheme, genesis(FaultState::new(scheme.graph().m())), journal, config)
    }

    /// Reconstructs a pipeline from a compaction checkpoint plus the
    /// journal tail recorded after it — recovery that skips replaying
    /// the compacted prefix event by event. The tail is folded onto the
    /// checkpoint state first, then one snapshot is compiled at the
    /// folded state, exactly as in [`ChurnPipeline::replay`]. The result is
    /// **state-identical to genesis replay** of the full journal (same
    /// fault state, same accepted sequence, same snapshot cells); the
    /// recovery-equivalence proptests pin this at every compaction
    /// point.
    ///
    /// The checkpoint is validated against the scheme's graph before
    /// anything is applied: a wrong edge count or an impossible
    /// `seq == 0` non-empty state is a typed [`ReplayError`], never a
    /// panic.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultEvent};
    /// use rsp_oracle::churn::{ChurnConfig, ChurnPipeline};
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let mut a = ChurnPipeline::new(&scheme).unwrap();
    /// a.ingest(FaultEvent::Arrive(0)).unwrap();
    /// a.commit().unwrap();
    ///
    /// // Checkpoint, compact, keep churning: memory holds only the tail.
    /// let ckpt = a.checkpoint();
    /// a.compact();
    /// a.ingest(FaultEvent::Arrive(5)).unwrap();
    /// a.commit().unwrap();
    /// assert_eq!(a.journal().len(), 1, "the compacted prefix left memory");
    ///
    /// // Crash. Recover from the checkpoint + tail alone:
    /// let b = ChurnPipeline::replay_from(&scheme, &ckpt, a.journal(), ChurnConfig::default())
    ///     .unwrap();
    /// assert_eq!(b.fault_state(), a.fault_state());
    /// assert_eq!(b.accepted_seq(), a.accepted_seq());
    /// ```
    pub fn replay_from(
        scheme: &ExactScheme<C>,
        checkpoint: &JournalCheckpoint,
        tail: &[FaultEvent],
        config: ChurnConfig,
    ) -> Result<Self, ReplayError> {
        let graph_m = scheme.graph().m();
        if checkpoint.state.edge_count() != graph_m {
            return Err(ReplayError::CheckpointMismatch {
                checkpoint_m: checkpoint.state.edge_count(),
                graph_m,
            });
        }
        if checkpoint.seq == 0 && !checkpoint.state.is_empty() {
            return Err(ReplayError::CheckpointInconsistent { faults: checkpoint.state.len() });
        }
        Self::fold_and_build(scheme, checkpoint.clone(), tail, config)
    }

    /// The one recovery path behind [`ChurnPipeline::replay`] and
    /// [`ChurnPipeline::replay_from`]: re-validate and fold `tail` onto
    /// `base`, then compile a single snapshot at the folded state.
    ///
    /// Canonical trees are a fixed function of `(G, F_base)`, so the
    /// snapshot is built directly at the recovered fault state — no
    /// genesis snapshot, no commit — and published as epoch 1 at
    /// version `accepted_seq` with nothing pending. Events bypass
    /// admission control: re-validating an accepted journal must never
    /// be shed by the live cap.
    fn fold_and_build(
        scheme: &ExactScheme<C>,
        base: JournalCheckpoint,
        tail: &[FaultEvent],
        config: ChurnConfig,
    ) -> Result<Self, ReplayError> {
        let mut state = base.state.clone();
        for (seq, &ev) in (base.seq + 1..).zip(tail) {
            state
                .apply(ev)
                .map_err(|e| ReplayError::Rejected { seq, reason: QuarantineReason::Event(e) })?;
        }
        let accepted_seq = base.seq + tail.len() as u64;
        let snapshot = recovery_build(scheme, state.faults(), accepted_seq, &config)
            .map_err(ReplayError::Stalled)?;
        Ok(Self::assemble(scheme, config, snapshot, base, state, tail.to_vec()))
    }

    /// Recovers a pipeline from a durable journal **byte stream** (the
    /// [`ChurnPipeline::export_journal`] format): decode every CRC-framed
    /// entry, then fold from the *last* checkpoint frame (genesis when
    /// there is none) through the events after it and build one
    /// snapshot at the folded state ([`ChurnPipeline::replay_from`] /
    /// [`ChurnPipeline::replay`]).
    ///
    /// A **torn tail** — the stream's final frame cut short by a crash
    /// mid-write — is tolerated as a clean recovery point and reported
    /// in [`RecoveryReport::torn_tail_at`]. Interior corruption (a
    /// checksum-failing, unknown-kind, or undecodable frame with more
    /// frames after it) is a typed [`RecoverError`], never a panic and
    /// never a silently wrong state.
    pub fn recover(
        scheme: &ExactScheme<C>,
        bytes: &[u8],
        config: ChurnConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let decoded = decode_journal(bytes).map_err(RecoverError::Decode)?;
        let torn_tail_at = match decoded.tail {
            JournalTail::Torn { offset } => Some(offset),
            JournalTail::Clean => None,
        };
        let frames = decoded.frames.len();
        let mut checkpoint: Option<JournalCheckpoint> = None;
        let mut tail: Vec<FaultEvent> = Vec::new();
        for frame in decoded.frames {
            match frame {
                JournalFrame::Checkpoint(c) => {
                    checkpoint = Some(c);
                    tail.clear();
                }
                JournalFrame::Event(ev) => tail.push(ev),
            }
        }
        let report = RecoveryReport {
            frames,
            events: tail.len(),
            checkpoint_seq: checkpoint.as_ref().map_or(0, |c| c.seq),
            torn_tail_at,
        };
        let pipeline = match &checkpoint {
            Some(c) => Self::replay_from(scheme, c, &tail, config),
            None => Self::replay(scheme, &tail, config),
        }
        .map_err(RecoverError::Replay)?;
        Ok((pipeline, report))
    }

    /// Records a compaction checkpoint: the fold of every accepted
    /// event so far, at the current accepted sequence and serving
    /// epoch. The checkpoint is retained as the pipeline's latest (the
    /// point [`ChurnPipeline::compact`] truncates to) and returned for
    /// durable storage.
    ///
    /// Checkpointing captures the **accepted** state, which may be
    /// ahead of the published snapshot; recovery builds its snapshot at
    /// the folded accepted state, so the distinction cannot leak into
    /// serving.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultEvent};
    /// use rsp_oracle::churn::ChurnPipeline;
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    /// pipeline.ingest(FaultEvent::Arrive(3)).unwrap();
    /// pipeline.commit().unwrap();
    ///
    /// let ckpt = pipeline.checkpoint();
    /// assert_eq!(ckpt.seq, 1);
    /// assert_eq!(ckpt.state.faults().as_slice(), &[3]);
    ///
    /// // Compaction drops the checkpointed prefix from memory.
    /// assert_eq!(pipeline.compact(), 1);
    /// assert!(pipeline.journal().is_empty());
    /// assert_eq!(pipeline.journal_base_seq(), 1);
    /// ```
    pub fn checkpoint(&mut self) -> JournalCheckpoint {
        let ckpt = JournalCheckpoint {
            seq: self.accepted_seq(),
            epoch: self.oracle.epoch(),
            state: self.state.clone(),
        };
        self.last_checkpoint = Some(ckpt.clone());
        ckpt
    }

    /// Truncates the in-memory journal prefix covered by the latest
    /// [`ChurnPipeline::checkpoint`], re-basing the tail on the
    /// checkpoint's folded state. Returns the number of events dropped
    /// from memory (0 when no checkpoint is newer than the last
    /// compaction).
    ///
    /// This is what keeps journal memory `O(events since checkpoint)`
    /// under unbounded churn: a `checkpoint(); compact();` loop bounds
    /// the tail at the checkpoint cadence, and
    /// [`ChurnHealth::journal_tail_len`] exposes the bound holding.
    pub fn compact(&mut self) -> u64 {
        let Some(ckpt) = self.last_checkpoint.clone() else { return 0 };
        if ckpt.seq <= self.base_seq {
            return 0;
        }
        let dropped = (ckpt.seq - self.base_seq) as usize;
        self.journal.drain(..dropped);
        self.base_seq = ckpt.seq;
        self.base_state = ckpt.state;
        self.base_epoch = ckpt.epoch;
        dropped as u64
    }

    /// Serializes the journal as a durable CRC-framed byte stream: a
    /// checkpoint frame for the compacted prefix (when one exists),
    /// then one event frame per tail event. Feed the bytes to
    /// [`ChurnPipeline::recover`] after a crash; a stream torn mid-write
    /// still recovers everything before the tear.
    pub fn export_journal(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if self.base_seq > 0 {
            JournalFrame::Checkpoint(JournalCheckpoint {
                seq: self.base_seq,
                epoch: self.base_epoch,
                state: self.base_state.clone(),
            })
            .encode_into(&mut out);
        }
        for &ev in &self.journal {
            JournalFrame::Event(ev).encode_into(&mut out);
        }
        out
    }

    /// The serving handle. Clone it for control-plane sharing; call
    /// [`Oracle::reader`] (or [`ChurnPipeline::reader`]) per data-plane
    /// thread.
    pub fn oracle(&self) -> &Oracle<C> {
        &self.oracle
    }

    /// A new per-thread data-plane reader on the pipeline's oracle.
    pub fn reader(&self) -> OracleReader<C> {
        self.oracle.reader()
    }

    /// The compiled scheme snapshots are built from.
    pub fn scheme(&self) -> &ExactScheme<C> {
        &self.scheme
    }

    /// The current accepted fault state (may be ahead of what the
    /// published snapshot folds in — see [`ChurnHealth::pending_events`]).
    pub fn fault_state(&self) -> &FaultState {
        &self.state
    }

    /// The in-memory accepted-event journal **tail**: events after the
    /// last compaction point. `journal()[k]` is the event with sequence
    /// number [`ChurnPipeline::journal_base_seq`]` + k + 1`. Before any
    /// [`ChurnPipeline::compact`] the tail is the whole journal and can
    /// be fed to [`ChurnPipeline::replay`]; after one, recover with
    /// [`ChurnPipeline::replay_from`] or the byte-stream
    /// [`ChurnPipeline::recover`].
    pub fn journal(&self) -> &[FaultEvent] {
        &self.journal
    }

    /// Sequence of the last event compacted out of the in-memory
    /// journal (0 before any compaction).
    pub fn journal_base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Sequence of the last accepted event (compacted prefix + tail).
    pub fn accepted_seq(&self) -> u64 {
        self.base_seq + self.journal.len() as u64
    }

    /// The retained quarantine log, in offered order — the most recent
    /// [`ChurnConfig::max_quarantine_log`] entries
    /// ([`ChurnHealth::quarantined_total`] counts every quarantine,
    /// including dropped ones).
    pub fn quarantined(&self) -> &[QuarantinedEvent] {
        &self.quarantine
    }

    /// An owned handle to the currently published (last good) snapshot.
    pub fn published_snapshot(&self) -> Arc<OracleSnapshot<C>> {
        self.oracle.snapshot()
    }

    /// Accepted events not yet folded into the published snapshot.
    pub fn pending_events(&self) -> u64 {
        self.accepted_seq() - self.published_seq
    }

    /// Offers one event to the pipeline. Valid events are journaled and
    /// folded into the pending fault state (returning their journal
    /// sequence number); invalid ones are quarantined with a reason and
    /// change nothing; events past the pending cap are shed with
    /// [`IngestError::Backpressure`]. **Never panics**, whatever the
    /// event.
    ///
    /// Ingestion does not rebuild; call [`ChurnPipeline::commit`] to
    /// publish the pending state (batching many events per commit is
    /// the intended usage under heavy churn).
    pub fn ingest(&mut self, ev: FaultEvent) -> Result<u64, IngestError> {
        self.admit().map_err(IngestError::Backpressure)?;
        self.ingest_validated(ev).map_err(IngestError::Quarantined)
    }

    /// [`ChurnPipeline::ingest`] from a raw wire frame
    /// ([`FaultEvent::decode`]): undecodable bytes are quarantined with
    /// a [`QuarantineReason::Wire`] reason, and the backpressure check
    /// runs *before* the decode so a stalled pipeline does no per-frame
    /// work. **Never panics**, whatever the bytes — the robustness
    /// suite feeds this arbitrary garbage.
    pub fn ingest_wire(&mut self, frame: &[u8]) -> Result<u64, IngestError> {
        self.admit().map_err(IngestError::Backpressure)?;
        match FaultEvent::decode(frame) {
            Ok(ev) => self.ingest_validated(ev).map_err(IngestError::Quarantined),
            Err(e) => {
                let index = self.offered;
                self.offered += 1;
                let reason = QuarantineReason::Wire(e);
                self.push_quarantined(QuarantinedEvent { index, event: None, reason });
                Err(IngestError::Quarantined(reason))
            }
        }
    }

    /// The admission-control gate: sheds the offered event when the
    /// pending-event cap is reached.
    fn admit(&mut self) -> Result<(), Backpressure> {
        let pending = self.pending_events();
        if pending >= self.config.max_pending_events as u64 {
            self.offered += 1;
            self.shed += 1;
            return Err(Backpressure { pending, cap: self.config.max_pending_events });
        }
        Ok(())
    }

    /// Validation + journal/quarantine, with admission control already
    /// passed.
    fn ingest_validated(&mut self, ev: FaultEvent) -> Result<u64, QuarantineReason> {
        let index = self.offered;
        self.offered += 1;
        match self.state.apply(ev) {
            Ok(()) => {
                self.journal.push(ev);
                Ok(self.accepted_seq())
            }
            Err(e) => {
                let reason = QuarantineReason::Event(e);
                self.push_quarantined(QuarantinedEvent { index, event: Some(ev), reason });
                Err(reason)
            }
        }
    }

    /// Appends to the bounded quarantine log, dropping the oldest entry
    /// once [`ChurnConfig::max_quarantine_log`] is reached. The total
    /// counter keeps every quarantine.
    fn push_quarantined(&mut self, q: QuarantinedEvent) {
        self.quarantined_total += 1;
        if self.config.max_quarantine_log == 0 {
            return;
        }
        while self.quarantine.len() >= self.config.max_quarantine_log {
            self.quarantine.remove(0);
        }
        self.quarantine.push(q);
    }

    /// Recompiles a snapshot folding every accepted event and publishes
    /// it through the epoch swap. No-op when already current.
    ///
    /// The first attempt patches the published snapshot with the
    /// **delta builder** when [`ChurnConfig::delta_enabled`]: a
    /// structural delta refusal runs the from-scratch builder
    /// immediately in the same attempt, a hard delta failure burns the
    /// attempt like any build failure, and either reason lands in
    /// [`ChurnHealth::last_delta_fallback`]. Rebuild-only behavior is
    /// one config flag away and cell-for-cell equivalent.
    /// Each build attempt is **panic-isolated** and **cross-checked**
    /// against the heap engine on sampled sources; a failed attempt
    /// leaves the last good snapshot serving, backs off exponentially
    /// ([`ChurnConfig::backoff`]), and retries. After
    /// [`ChurnConfig::retry_budget`] incremental failures the pipeline
    /// escalates to a from-scratch **full rebuild** (fault state
    /// re-derived from the journal). If that also fails, `commit`
    /// returns [`ChurnStalled`] — readers are still serving the last
    /// good snapshot, [`ChurnPipeline::health`] reports the staleness,
    /// and the next `commit` starts a fresh cycle.
    pub fn commit(&mut self) -> Result<CommitReport, ChurnStalled> {
        let target_seq = self.accepted_seq();
        if target_seq == self.published_seq && self.consecutive_failures == 0 {
            return Ok(CommitReport {
                epoch: self.oracle.epoch(),
                seq: target_seq,
                attempts: 0,
                full_rebuild: false,
                delta: false,
                published: false,
            });
        }

        let mut attempts = 0;
        for attempt in 0..self.config.retry_budget {
            attempts += 1;
            match self.attempt(attempt, false, target_seq) {
                Ok((snapshot, delta)) => {
                    return Ok(self.publish_built(snapshot, target_seq, attempts, false, delta))
                }
                Err(failure) => {
                    self.note_failure(failure);
                    let delay = self.config.backoff(attempt);
                    (self.sleeper)(delay);
                }
            }
        }

        // Escalation: re-derive the fault state from the journal and
        // build from scratch.
        attempts += 1;
        self.full_rebuilds += 1;
        match self.attempt(self.config.retry_budget, true, target_seq) {
            Ok((snapshot, _)) => {
                Ok(self.publish_built(snapshot, target_seq, attempts, true, false))
            }
            Err(failure) => {
                self.note_failure(failure.clone());
                Err(ChurnStalled { attempts, last_failure: failure })
            }
        }
    }

    /// How fresh the serving snapshot is and how the control plane has
    /// been behaving. Cheap; call it from monitoring loops.
    pub fn health(&self) -> ChurnHealth {
        let accepted_seq = self.accepted_seq();
        ChurnHealth {
            published_epoch: self.oracle.epoch(),
            published_seq: self.published_seq,
            accepted_seq,
            compacted_seq: self.base_seq,
            journal_tail_len: self.journal.len(),
            pending_events: accepted_seq - self.published_seq,
            shed_events: self.shed,
            degraded: self.consecutive_failures > 0,
            consecutive_failures: self.consecutive_failures,
            quarantined_total: self.quarantined_total,
            commits: self.commits,
            full_rebuilds: self.full_rebuilds,
            delta_commits: self.delta_commits,
            delta_fallbacks: self.delta_fallbacks,
            last_delta_fallback: self.last_delta_fallback.clone(),
            last_failure: self.last_failure.as_ref().map(|f| f.to_string()),
        }
    }

    /// Replaces the between-retry sleeper (default:
    /// [`std::thread::sleep`]). The deterministic test harness installs
    /// a recording no-op so backoff schedules are asserted, not waited
    /// for.
    pub fn set_sleeper(&mut self, sleeper: impl FnMut(Duration) + Send + 'static) {
        self.sleeper = Box::new(sleeper);
    }

    /// Installs a fault-injection probe consulted before every build
    /// attempt (see [`BuildFault`]); `None` clears it. This is the
    /// harness seam [`inject`] uses to panic the builder at chosen
    /// steps and to prove the cross-check rejects corrupted snapshots.
    pub fn set_build_probe(&mut self, probe: Option<BuildProbe>) {
        self.probe = probe;
    }

    /// One panic-isolated build + cross-check attempt. Returns the
    /// built snapshot and whether the delta builder produced it.
    ///
    /// The fallback ladder: attempt 0 (with [`ChurnConfig::delta_enabled`])
    /// tries a delta patch of the published snapshot first. A
    /// **structural refusal** ([`crate::delta::DeltaUnsupported`]) runs
    /// the from-scratch builder immediately, in the same attempt — no
    /// backoff is owed for a configuration deltas were never going to
    /// handle. A **hard delta failure** (panic, rejected configuration,
    /// cross-check mismatch) fails the attempt like any build failure:
    /// backoff, then retry — and every later attempt is a full build.
    /// Either way the reason lands in [`ChurnHealth::last_delta_fallback`].
    fn attempt(
        &mut self,
        attempt: u32,
        full_rebuild: bool,
        target_seq: u64,
    ) -> Result<(OracleSnapshot<C>, bool), BuildFailure> {
        let try_delta = attempt == 0 && !full_rebuild && self.config.delta_enabled;
        let ctx = BuildContext { attempt, full_rebuild, delta: try_delta, target_seq };
        let fault = self.probe.as_mut().map_or(BuildFault::None, |p| p(&ctx));

        let faults: FaultSet = if full_rebuild {
            // From scratch: trust nothing but the journal — the
            // compacted prefix's fold plus the in-memory tail.
            let mut st = self.base_state.clone();
            for &ev in &self.journal {
                st.apply(ev).map_err(BuildFailure::JournalCorrupt)?;
            }
            st.faults().clone()
        } else {
            self.state.faults().clone()
        };

        if try_delta {
            let prev = self.oracle.snapshot();
            match delta_build_and_check(
                &prev,
                &self.scheme,
                faults.clone(),
                target_seq,
                fault,
                &self.config,
            ) {
                Ok(snapshot) => return Ok((snapshot, true)),
                Err(DeltaAttemptError::Unsupported(u)) => {
                    self.delta_fallbacks += 1;
                    self.last_delta_fallback = Some(format!("delta unsupported: {u}"));
                }
                Err(DeltaAttemptError::Failed(failure)) => {
                    self.delta_fallbacks += 1;
                    self.last_delta_fallback = Some(failure.to_string());
                    return Err(failure);
                }
            }
        }

        build_and_check(&self.scheme, faults, target_seq, fault, &self.config).map(|s| (s, false))
    }

    fn publish_built(
        &mut self,
        snapshot: OracleSnapshot<C>,
        target_seq: u64,
        attempts: u32,
        full_rebuild: bool,
        delta: bool,
    ) -> CommitReport {
        let epoch = self.oracle.publish(snapshot);
        self.published_seq = target_seq;
        self.consecutive_failures = 0;
        self.last_failure = None;
        self.commits += 1;
        if delta {
            self.delta_commits += 1;
        }
        CommitReport { epoch, seq: target_seq, attempts, full_rebuild, delta, published: true }
    }

    fn note_failure(&mut self, failure: BuildFailure) {
        self.consecutive_failures += 1;
        self.last_failure = Some(failure);
    }
}

/// Errors from [`ChurnPipeline::replay`] / [`ChurnPipeline::replay_from`].
#[derive(Clone, Debug)]
pub enum ReplayError {
    /// A journal event failed validation — the journal is not an
    /// accepted-event journal of this scheme's graph.
    Rejected {
        /// 1-based sequence of the rejected event.
        seq: u64,
        /// Why it was rejected.
        reason: QuarantineReason,
    },
    /// The checkpoint was folded over a different graph: its edge count
    /// disagrees with the scheme's.
    CheckpointMismatch {
        /// The checkpoint state's edge count.
        checkpoint_m: usize,
        /// The scheme graph's edge count.
        graph_m: usize,
    },
    /// The checkpoint claims a non-empty fault state at sequence 0 — no
    /// accepted-event journal can produce that.
    CheckpointInconsistent {
        /// The impossible fault count.
        faults: usize,
    },
    /// The recovery build never passed validation and the cross-check
    /// within the retry ladder (the pipeline is returned to a serving
    /// state only on success, so this aborts recovery).
    Stalled(ChurnStalled),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Rejected { seq, reason } => {
                write!(f, "replay: journal event {seq} rejected: {reason}")
            }
            ReplayError::CheckpointMismatch { checkpoint_m, graph_m } => {
                write!(
                    f,
                    "replay: checkpoint folded over {checkpoint_m} edges, graph has {graph_m}"
                )
            }
            ReplayError::CheckpointInconsistent { faults } => {
                write!(f, "replay: checkpoint claims {faults} faults at sequence 0")
            }
            ReplayError::Stalled(e) => write!(
                f,
                "replay: recovery build failed after {} attempts: {}",
                e.attempts, e.last_failure
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Errors from [`ChurnPipeline::recover`].
#[derive(Clone, Debug)]
pub enum RecoverError {
    /// The byte stream has interior corruption (a fully-present frame
    /// that fails its checksum or does not decode).
    Decode(JournalDecodeError),
    /// The decoded frames did not replay into a serving pipeline.
    Replay(ReplayError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Decode(e) => write!(f, "recover: {e}"),
            RecoverError::Replay(e) => write!(f, "recover: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// What [`ChurnPipeline::recover`] found in the byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames decoded cleanly (checkpoints + events).
    pub frames: usize,
    /// Events replayed after the effective checkpoint.
    pub events: usize,
    /// Sequence of the checkpoint recovery started from (0 = genesis).
    pub checkpoint_seq: u64,
    /// Byte offset of a torn final frame, when the stream was cut
    /// mid-write (`None` for a clean tail).
    pub torn_tail_at: Option<usize>,
}

/// The empty compacted prefix a fresh pipeline starts from.
fn genesis(state: FaultState) -> JournalCheckpoint {
    JournalCheckpoint { seq: 0, epoch: 0, state }
}

/// The recovery build: [`build_and_check`] at the recovered fault state
/// under a commit's retry ladder — [`ChurnConfig::retry_budget`]
/// attempts plus the escalation, with [`ChurnConfig::backoff`] between
/// failures. There is no published predecessor to patch, so every
/// attempt is a from-scratch build.
fn recovery_build<C: PathCost + 'static>(
    scheme: &ExactScheme<C>,
    faults: &FaultSet,
    version: u64,
    config: &ChurnConfig,
) -> Result<OracleSnapshot<C>, ChurnStalled> {
    let build = || build_and_check(scheme, faults.clone(), version, BuildFault::None, config);
    for attempt in 0..config.retry_budget {
        match build() {
            Ok(snapshot) => return Ok(snapshot),
            Err(_) => std::thread::sleep(config.backoff(attempt)),
        }
    }
    build().map_err(|last_failure| ChurnStalled { attempts: config.retry_budget + 1, last_failure })
}

/// The panic-isolated build-validate-cross-check step shared by
/// incremental, full-rebuild and recovery attempts.
fn build_and_check<C: PathCost + 'static>(
    scheme: &ExactScheme<C>,
    faults: FaultSet,
    version: u64,
    injected: BuildFault,
    config: &ChurnConfig,
) -> Result<OracleSnapshot<C>, BuildFailure> {
    // AssertUnwindSafe: the closure only reads `scheme` and constructs
    // owned data (builder clones the scheme; the search scratch is local
    // to the closure), so a panic at any point leaves nothing observable
    // half-mutated.
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<OracleSnapshot<C>, BuildFailure> {
        if injected == BuildFault::Panic {
            panic!("injected builder panic (target seq {version})");
        }
        let mut snapshot = OracleSnapshot::builder(scheme)
            .base_faults(faults)
            .version(version)
            .try_build()
            .map_err(BuildFailure::Rejected)?;
        let samples = cross_check_sample(scheme.graph().n(), config, version);
        if injected == BuildFault::Corrupt {
            // Corrupt a row the cross-check will visit, so the gate is
            // exercised, not bypassed.
            let s = samples.first().copied().unwrap_or(0);
            snapshot.corrupt_row_for_injection(s);
        }
        cross_check(&snapshot, scheme, &samples)?;
        Ok(snapshot)
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => Err(BuildFailure::Panicked(panic_message(payload.as_ref()))),
    }
}

/// How a delta attempt failed: a structural refusal (run the full
/// builder now, same attempt) vs. a hard failure (fail the attempt,
/// back off, retry with full builds).
enum DeltaAttemptError {
    Unsupported(DeltaUnsupported),
    Failed(BuildFailure),
}

/// The panic-isolated delta-patch + cross-check step: the delta twin of
/// [`build_and_check`], gated by the **same** sampled heap-engine
/// cross-check, so a wrong patch can never out-publish a rebuild.
fn delta_build_and_check<C: PathCost + 'static>(
    prev: &OracleSnapshot<C>,
    scheme: &ExactScheme<C>,
    faults: FaultSet,
    version: u64,
    injected: BuildFault,
    config: &ChurnConfig,
) -> Result<OracleSnapshot<C>, DeltaAttemptError> {
    // AssertUnwindSafe: reads `prev`/`scheme`, constructs owned data.
    let result =
        catch_unwind(AssertUnwindSafe(|| -> Result<OracleSnapshot<C>, DeltaAttemptError> {
            if injected == BuildFault::Panic {
                panic!("injected delta builder panic (target seq {version})");
            }
            let mut snapshot = match DeltaBuilder::new(prev).version(version).build(&faults) {
                Ok((snapshot, _stats)) => snapshot,
                Err(DeltaError::Unsupported(u)) => return Err(DeltaAttemptError::Unsupported(u)),
                Err(DeltaError::Build(e)) => {
                    return Err(DeltaAttemptError::Failed(BuildFailure::Rejected(e)))
                }
            };
            let samples = cross_check_sample(scheme.graph().n(), config, version);
            if injected == BuildFault::Corrupt {
                let s = samples.first().copied().unwrap_or(0);
                snapshot.corrupt_row_for_injection(s);
            }
            cross_check(&snapshot, scheme, &samples).map_err(DeltaAttemptError::Failed)?;
            Ok(snapshot)
        }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => Err(DeltaAttemptError::Failed(BuildFailure::Panicked(format!(
            "delta: {}",
            panic_message(payload.as_ref())
        )))),
    }
}

/// The deterministic cross-check source sample for a build targeting
/// `version`: distinct vertices drawn from a seeded generator, fresh
/// per version so successive builds audit different rows.
fn cross_check_sample(n: usize, config: &ChurnConfig, version: u64) -> Vec<Vertex> {
    let k = config.cross_check_sources.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(
        config.cross_check_seed ^ version.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let mut picked: Vec<Vertex> = Vec::with_capacity(k);
    while picked.len() < k {
        let v = rng.random_range(0..n);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

/// Compares the snapshot's precomputed rows for `samples` against a
/// fresh `dijkstra_into` run per sample on the same base fault state,
/// cell by cell (derived hop counts, parents, exact costs). The heap engine is
/// deliberate: it audits the layered kernel the snapshot was built with
/// independently.
fn cross_check<C: PathCost + 'static>(
    snapshot: &OracleSnapshot<C>,
    scheme: &ExactScheme<C>,
    samples: &[Vertex],
) -> Result<(), BuildFailure> {
    let g = scheme.graph();
    let mut run = SearchScratch::<C>::new();
    for &source in samples {
        dijkstra_into(g, source, snapshot.base_faults(), scheme.directed_costs(), &mut run);
        let row = snapshot.baseline(source).expect("default snapshots serve every vertex");
        let mismatch = g.vertices().find(|&v| {
            row.dist(v) != run.hops(v)
                || row.parent(v) != run.parent(v)
                || row.cost(v) != run.cost(v)
        });
        if let Some(target) = mismatch {
            return Err(BuildFailure::CrossCheckMismatch { source, target });
        }
    }
    Ok(())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

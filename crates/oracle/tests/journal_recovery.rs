//! Journal durability: CRC-framed export/recover round trips,
//! checkpointed compaction, torn-tail tolerance, corruption detection,
//! bounded memory under bursty churn, and admission control.
//!
//! The contract under test (ISSUE 9, tentpole layers 1 and 3): recovery
//! from a checkpoint plus tail is **state-identical to genesis replay**
//! at every compaction point; a journal stream truncated at *any* byte
//! recovers cleanly to the surviving prefix; interior corruption is a
//! typed error, never a panic and never a silently wrong state; journal
//! memory stays `O(events since checkpoint)` under the bursty soak; and
//! ingestion past the pending cap sheds with typed backpressure.

use proptest::prelude::*;
use rsp_core::RandomGridAtw;
use rsp_graph::journal::{JournalCheckpoint, JournalFrame};
use rsp_graph::{generators, FaultEvent, FaultState, Graph};
use rsp_oracle::churn::inject::{
    flip_random_bit, random_trace, random_trace_with, truncate_random, verify_converged,
    TraceOptions,
};
use rsp_oracle::churn::{ChurnConfig, ChurnPipeline, IngestError};

type Scheme = rsp_core::ExactScheme<u128>;

fn scheme_for(g: &Graph, wseed: u64) -> Scheme {
    RandomGridAtw::theorem20(g, wseed).into_scheme()
}

fn config() -> ChurnConfig {
    ChurnConfig::default()
}

/// Two pipelines are "state-identical" for the recovery contract:
/// same fault state, same accepted sequence, and both publish
/// snapshots the exact engines agree with cell-for-cell.
fn assert_state_identical(a: &ChurnPipeline<u128>, b: &ChurnPipeline<u128>) {
    assert_eq!(a.fault_state(), b.fault_state(), "fault states diverge");
    assert_eq!(a.accepted_seq(), b.accepted_seq(), "accepted sequences diverge");
    assert_eq!(
        a.published_snapshot().base_faults(),
        b.published_snapshot().base_faults(),
        "published base faults diverge"
    );
    verify_converged(a).unwrap();
    verify_converged(b).unwrap();
}

/// The recovered pipeline publishes the live writer's snapshot cell for
/// cell: the same served sources and, for each, the same `dist`,
/// `parent` and `cost` at every vertex. `live` must be fully committed.
fn assert_snapshots_equal(live: &ChurnPipeline<u128>, recovered: &ChurnPipeline<u128>) {
    let (a, b) = (live.published_snapshot(), recovered.published_snapshot());
    assert_eq!(a.sources(), b.sources(), "served sources diverge");
    for &s in a.sources() {
        let (ra, rb) = (a.baseline(s).unwrap(), b.baseline(s).unwrap());
        for v in a.graph().vertices() {
            assert_eq!(ra.dist(v), rb.dist(v), "dist({s} -> {v})");
            assert_eq!(ra.parent(v), rb.parent(v), "parent({s} -> {v})");
            assert_eq!(ra.cost(v), rb.cost(v), "cost({s} -> {v})");
        }
    }
}

/// Recovery compiles exactly one snapshot: the fresh oracle is still on
/// its first epoch, that snapshot folds in every accepted event, and no
/// commit ran on the way.
fn assert_single_build(p: &ChurnPipeline<u128>) {
    assert_eq!(p.oracle().epoch(), 1, "recovery publishes one snapshot");
    assert_eq!(p.published_snapshot().version(), p.accepted_seq());
    let health = p.health();
    assert_eq!(health.pending_events, 0);
    assert_eq!(health.commits, 0, "recovery runs no commit");
    assert_eq!(health.delta_commits, 0);
    assert_eq!(health.full_rebuilds, 0);
}

// ---------------------------------------------------------------------
// Deterministic scenarios
// ---------------------------------------------------------------------

/// The basic durability loop: churn, checkpoint, compact, churn more,
/// export, crash, recover from bytes — identical to the writer, and
/// identical to a genesis replay of the full trace.
#[test]
fn export_recover_round_trip_with_compaction() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let trace = random_trace(&g, 40, 0xd00d);

    let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
    for (i, &ev) in trace.iter().enumerate() {
        live.ingest(ev).unwrap();
        if i == 24 {
            live.commit().unwrap();
            live.checkpoint();
            assert_eq!(live.compact(), 25);
            assert_eq!(live.journal().len(), 0, "compaction empties the tail");
            assert_eq!(live.journal_base_seq(), 25);
        }
    }
    live.commit().unwrap();
    assert_eq!(live.journal().len(), 15, "memory holds only the tail");
    assert_eq!(live.accepted_seq(), 40);

    let bytes = live.export_journal();
    let (recovered, report) = ChurnPipeline::recover(&scheme, &bytes, config()).unwrap();
    assert_eq!(report.checkpoint_seq, 25);
    assert_eq!(report.events, 15);
    assert_eq!(report.torn_tail_at, None);
    assert_state_identical(&live, &recovered);
    assert_snapshots_equal(&live, &recovered);

    let genesis = ChurnPipeline::replay(&scheme, &trace, config()).unwrap();
    assert_state_identical(&genesis, &recovered);
    assert_snapshots_equal(&live, &genesis);
}

/// The recovered snapshot is built from scratch at the folded state,
/// while the writer reached the same state through delta commits: both
/// must publish the same cells, whether recovery starts at genesis or
/// at a checkpoint.
#[test]
fn recovered_snapshot_equals_live_cell_for_cell() {
    let g = generators::grid(5, 5);
    let scheme = scheme_for(&g, 77);
    let opts = TraceOptions { burst: 0.3, max_faults: Some(5), ..TraceOptions::default() };
    let trace = random_trace_with(&g, 48, 0x5ca1e, opts);

    let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
    for (i, chunk) in trace.chunks(6).enumerate() {
        for &ev in chunk {
            live.ingest(ev).unwrap();
        }
        live.commit().unwrap();
        if i == 5 {
            live.checkpoint();
            live.compact();
        }
    }
    assert!(live.health().delta_commits > 0, "the writer must take the delta path");
    assert_eq!(live.journal().len(), 12, "a tail follows the checkpoint");

    let genesis = ChurnPipeline::replay(&scheme, &trace, config()).unwrap();
    assert_state_identical(&live, &genesis);
    assert_snapshots_equal(&live, &genesis);

    let (recovered, report) =
        ChurnPipeline::recover(&scheme, &live.export_journal(), config()).unwrap();
    assert_eq!(report.checkpoint_seq, 36);
    assert_state_identical(&live, &recovered);
    assert_snapshots_equal(&live, &recovered);
}

/// Recovery folds the journal first and builds once: right after
/// `replay`, `replay_from` and `recover` — from genesis, from a
/// checkpoint with a tail, and from a bare checkpoint — the oracle is on
/// epoch 1, its snapshot's version is the accepted sequence, and
/// nothing is pending.
#[test]
fn recovery_builds_exactly_one_snapshot() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let trace = random_trace(&g, 30, 0x0e1e);

    let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
    for &ev in &trace[..18] {
        live.ingest(ev).unwrap();
    }
    live.commit().unwrap();
    let ckpt = live.checkpoint();
    live.compact();
    let bare_checkpoint = live.export_journal();
    for &ev in &trace[18..] {
        live.ingest(ev).unwrap();
    }
    live.commit().unwrap();

    let genesis = ChurnPipeline::replay(&scheme, &trace, config()).unwrap();
    assert_eq!(genesis.accepted_seq(), 30);
    assert_single_build(&genesis);

    let empty = ChurnPipeline::replay(&scheme, &[], config()).unwrap();
    assert_eq!(empty.accepted_seq(), 0);
    assert_single_build(&empty);

    let from_ckpt = ChurnPipeline::replay_from(&scheme, &ckpt, live.journal(), config()).unwrap();
    assert_eq!(from_ckpt.accepted_seq(), 30);
    assert_eq!(from_ckpt.journal_base_seq(), 18);
    assert_single_build(&from_ckpt);

    for (bytes, accepted) in [(live.export_journal(), 30), (bare_checkpoint, 18)] {
        let (recovered, _) = ChurnPipeline::recover(&scheme, &bytes, config()).unwrap();
        assert_eq!(recovered.accepted_seq(), accepted);
        assert_single_build(&recovered);
        verify_converged(&recovered).unwrap();
    }
}

/// A journal truncated at **every** byte offset recovers cleanly: the
/// torn tail is a recovery point, never an error and never a panic, and
/// the recovered state is exactly the fold of the frames that survived.
#[test]
fn every_truncation_point_recovers_the_surviving_prefix() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 7);
    let trace = random_trace(&g, 6, 0xbeef);

    let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
    // Frame boundaries: [0] after the checkpoint frame, then one per
    // tail event — recovered state at a boundary cut must equal the
    // writer's state at that point in the stream.
    live.ingest(trace[0]).unwrap();
    live.ingest(trace[1]).unwrap();
    live.commit().unwrap();
    live.checkpoint();
    live.compact();
    let mut boundaries = vec![(live.export_journal().len(), live.fault_state().clone())];
    for &ev in &trace[2..] {
        live.ingest(ev).unwrap();
        boundaries.push((live.export_journal().len(), live.fault_state().clone()));
    }
    let bytes = live.export_journal();

    for cut in 0..=bytes.len() {
        let (recovered, report) = ChurnPipeline::recover(&scheme, &bytes[..cut], config())
            .unwrap_or_else(|e| panic!("truncation at byte {cut} must recover cleanly, got {e}"));
        // The recovered fold equals the deepest boundary at or below
        // the cut (the empty genesis state when the cut is inside the
        // checkpoint frame itself).
        let expected: Option<&FaultState> =
            boundaries.iter().rev().find(|(at, _)| *at <= cut).map(|(_, state)| state);
        match expected {
            Some(state) => assert_eq!(recovered.fault_state(), state, "cut at byte {cut}"),
            None => assert!(recovered.fault_state().is_empty(), "cut at byte {cut}"),
        }
        if cut > 0 && cut < bytes.len() && !boundaries.iter().any(|(at, _)| *at == cut) {
            assert!(report.torn_tail_at.is_some(), "mid-frame cut at {cut} reports torn");
        }
        verify_converged(&recovered).unwrap();
    }
}

/// Seeded single-bit flips across the stream are **always detected**:
/// either a typed decode error (the CRC catches the damage — detection,
/// not luck) or — when the flip hits a length prefix and inflates it
/// past end-of-stream, the codec's documented masquerade — a torn-tail
/// recovery of a strict, *correct* prefix of the history. Never a
/// panic, never a silently wrong state, never an invented event.
#[test]
fn bit_flips_are_always_detected_never_served() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 11);
    let trace = random_trace(&g, 8, 0xfeed);

    let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
    for &ev in &trace[..4] {
        live.ingest(ev).unwrap();
    }
    live.commit().unwrap();
    live.checkpoint();
    live.compact();
    let last_frame_start = live.export_journal().len();
    for &ev in &trace[4..] {
        live.ingest(ev).unwrap();
    }
    let pristine = live.export_journal();
    let last_frame_start = {
        // Start of the final event frame: total minus one event frame
        // (all event frames have equal length).
        let event_len = (pristine.len() - last_frame_start) / (trace.len() - 4);
        pristine.len() - event_len
    };

    let genesis = ChurnPipeline::replay(&scheme, &trace, config()).unwrap();
    let mut interior_rejections = 0;
    for seed in 0..128u64 {
        let mut bytes = pristine.clone();
        let at = flip_random_bit(&mut bytes, seed).unwrap();
        match ChurnPipeline::recover(&scheme, &bytes, config()) {
            Ok((recovered, report)) => {
                assert!(
                    report.torn_tail_at.is_some(),
                    "flip at byte {at} (seed {seed}): Ok recovery must report a torn tail"
                );
                // The recovered state is a strict, correct prefix of
                // the real history — nothing invented, nothing served
                // from the damaged frames.
                let k = recovered.accepted_seq() as usize;
                assert!(
                    k < genesis.accepted_seq() as usize,
                    "flip at byte {at} (seed {seed}): a flip must cost at least one frame"
                );
                let mut prefix = FaultState::for_graph(&g);
                for &ev in &trace[..k] {
                    prefix.apply(ev).unwrap();
                }
                assert_eq!(recovered.fault_state(), &prefix, "seed {seed}");
                verify_converged(&recovered).unwrap();
            }
            Err(_) => {
                if at < last_frame_start {
                    interior_rejections += 1;
                }
            }
        }
    }
    assert!(interior_rejections > 0, "the seeds must exercise interior CRC rejections");
}

/// Seeded truncation probe (the injector helper, as used by the CI
/// suite): whatever survives, recovery is clean and convergent.
#[test]
fn random_truncation_recovers_cleanly() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 5);
    let trace = random_trace(&g, 10, 0xcafe);
    let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
    for &ev in &trace {
        live.ingest(ev).unwrap();
    }
    live.commit().unwrap();
    let pristine = live.export_journal();

    for seed in 0..32u64 {
        let mut bytes = pristine.clone();
        let kept = truncate_random(&mut bytes, seed);
        assert!(kept < pristine.len(), "truncate_random always drops bytes");
        let (recovered, _) = ChurnPipeline::recover(&scheme, &bytes, config()).unwrap();
        verify_converged(&recovered).unwrap();
    }
}

/// The bounded-memory soak: a long bursty trace processed in
/// checkpoint/compact windows never holds more than one window of
/// events in memory, and the final state still round-trips through
/// export/recover.
#[test]
fn bursty_soak_keeps_journal_memory_bounded() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let opts = TraceOptions { burst: 0.5, max_faults: Some(6), ..TraceOptions::default() };
    let trace = random_trace_with(&g, 384, 0xabad, opts);
    const WINDOW: usize = 16;

    let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
    for chunk in trace.chunks(WINDOW) {
        for &ev in chunk {
            live.ingest(ev).unwrap();
            assert!(live.journal().len() <= WINDOW, "tail bounded by the window");
        }
        live.commit().unwrap();
        live.checkpoint();
        live.compact();
        let health = live.health();
        assert_eq!(health.journal_tail_len, 0, "compaction empties the tail");
        assert_eq!(health.compacted_seq, health.accepted_seq);
    }
    assert_eq!(live.accepted_seq(), trace.len() as u64);
    verify_converged(&live).unwrap();

    let bytes = live.export_journal();
    let (recovered, report) = ChurnPipeline::recover(&scheme, &bytes, config()).unwrap();
    assert_eq!(report.checkpoint_seq, trace.len() as u64);
    assert_state_identical(&live, &recovered);
}

/// Admission control: past [`ChurnConfig::max_pending_events`] pending
/// (journaled-but-uncommitted) events, ingestion sheds with typed
/// backpressure — bounded state behind a stalled builder — and resumes
/// once a commit drains the backlog. Recovery replays are exempt.
#[test]
fn backpressure_sheds_past_the_pending_cap() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 3);
    let trace = random_trace(&g, 8, 0x5eed);
    let cfg = ChurnConfig { max_pending_events: 4, ..ChurnConfig::default() };

    let mut pipeline = ChurnPipeline::with_config(&scheme, cfg.clone()).unwrap();
    for &ev in &trace[..4] {
        pipeline.ingest(ev).unwrap();
    }
    // The 5th is shed — typed, counted, and not journaled.
    let err = pipeline.ingest(trace[4]).unwrap_err();
    assert_eq!(err.code(), "backpressure");
    match &err {
        IngestError::Backpressure(bp) => {
            assert_eq!(bp.pending, 4);
            assert_eq!(bp.cap, 4);
        }
        other => panic!("expected backpressure, got {other}"),
    }
    assert_eq!(pipeline.journal().len(), 4);
    let health = pipeline.health();
    assert_eq!(health.shed_events, 1);
    assert_eq!(health.pending_events, 4);

    // Draining the backlog reopens admission.
    pipeline.commit().unwrap();
    pipeline.ingest(trace[4]).unwrap();
    pipeline.commit().unwrap();
    verify_converged(&pipeline).unwrap();

    // A recovery replay of a journal *longer* than the cap is never
    // shed: the cap guards live traffic, not accepted history.
    let long = random_trace(&g, 12, 0x1dea);
    let replayed = ChurnPipeline::replay(&scheme, &long, cfg).unwrap();
    assert_eq!(replayed.accepted_seq(), 12);
    assert_eq!(replayed.health().shed_events, 0);
}

/// The quarantine log is bounded: only the most recent
/// [`ChurnConfig::max_quarantine_log`] entries are retained, while the
/// total count keeps the full tally.
#[test]
fn quarantine_log_is_bounded() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 9);
    let cfg = ChurnConfig { max_quarantine_log: 2, ..ChurnConfig::default() };
    let mut pipeline = ChurnPipeline::with_config(&scheme, cfg).unwrap();
    for _ in 0..5 {
        // Repairing a never-faulted edge is always quarantined.
        assert!(pipeline.ingest(FaultEvent::Repair(0)).is_err());
    }
    assert_eq!(pipeline.quarantined().len(), 2, "log keeps only the cap");
    assert_eq!(pipeline.health().quarantined_total, 5, "the tally keeps everything");
}

/// Checkpoint frames themselves are validated on decode: a checkpoint
/// for the wrong graph is a typed replay error, never a panic.
#[test]
fn checkpoint_for_the_wrong_graph_is_refused() {
    let g_small = generators::grid(3, 3);
    let g_big = generators::grid(4, 4);
    let scheme_small = scheme_for(&g_small, 1);
    let scheme_big = scheme_for(&g_big, 1);

    let mut writer = ChurnPipeline::with_config(&scheme_big, config()).unwrap();
    writer.ingest(FaultEvent::Arrive(0)).unwrap();
    writer.commit().unwrap();
    writer.checkpoint();
    writer.compact();
    let bytes = writer.export_journal();

    let err = ChurnPipeline::recover(&scheme_small, &bytes, config());
    assert!(err.is_err(), "a 4x4 checkpoint must not fold into a 3x3 pipeline");
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole equivalence: at **every compaction point** of a
    /// random bursty trace, recovery from the exported checkpoint+tail
    /// bytes is state-identical to a genesis replay of the full prefix.
    #[test]
    fn checkpoint_recovery_equals_genesis_replay(
        wseed in any::<u64>(),
        tseed in any::<u64>(),
        compact_every in 3usize..9,
    ) {
        let g = generators::grid(3, 3);
        let scheme = scheme_for(&g, wseed);
        let opts = TraceOptions { burst: 0.4, ..TraceOptions::default() };
        let trace = random_trace_with(&g, 24, tseed, opts);

        let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
        for (i, &ev) in trace.iter().enumerate() {
            live.ingest(ev).unwrap();
            if (i + 1) % compact_every == 0 {
                live.commit().unwrap();
                live.checkpoint();
                live.compact();
                prop_assert_eq!(live.journal().len(), 0);

                let bytes = live.export_journal();
                let (recovered, report) =
                    ChurnPipeline::recover(&scheme, &bytes, config()).unwrap();
                prop_assert_eq!(report.torn_tail_at, None);
                prop_assert_eq!(report.checkpoint_seq, i as u64 + 1);
                let genesis =
                    ChurnPipeline::replay(&scheme, &trace[..=i], config()).unwrap();
                prop_assert_eq!(recovered.fault_state(), genesis.fault_state());
                prop_assert_eq!(recovered.accepted_seq(), genesis.accepted_seq());
                verify_converged(&recovered).unwrap();
                assert_snapshots_equal(&live, &recovered);
                assert_snapshots_equal(&live, &genesis);
            }
        }
    }

    /// Arbitrary byte garbage spliced into (or appended to) a valid
    /// journal stream never panics: recovery is a clean torn-tail
    /// prefix or a typed error, nothing else.
    #[test]
    fn garbage_injection_never_panics(
        wseed in any::<u64>(),
        tseed in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 1..48),
        at_permille in 0usize..=1000,
    ) {
        let g = generators::grid(3, 3);
        let scheme = scheme_for(&g, wseed);
        let trace = random_trace(&g, 10, tseed);
        let mut live = ChurnPipeline::with_config(&scheme, config()).unwrap();
        for &ev in &trace[..5] {
            live.ingest(ev).unwrap();
        }
        live.commit().unwrap();
        live.checkpoint();
        live.compact();
        for &ev in &trace[5..] {
            live.ingest(ev).unwrap();
        }

        let mut bytes = live.export_journal();
        let at = (bytes.len() * at_permille / 1000).min(bytes.len());
        let _ = bytes.splice(at..at, garbage.iter().copied()).count();

        // A typed refusal (`Err`) is the other allowed outcome.
        if let Ok((recovered, _report)) = ChurnPipeline::recover(&scheme, &bytes, config()) {
            // Whatever prefix survived, it is internally consistent
            // and the published snapshot matches the engines on it.
            verify_converged(&recovered).unwrap();
            prop_assert!(recovered.accepted_seq() <= live.accepted_seq());
        }
    }

    /// Hand-built checkpoint frames round-trip through the codec and
    /// the pipeline: encode, decode, replay_from with an empty tail.
    #[test]
    fn checkpoint_frames_round_trip(
        wseed in any::<u64>(),
        seq in 1u64..1000,
        epoch in 1u64..1000,
        edges in prop::collection::vec(0usize..12, 0..6),
    ) {
        let g = generators::grid(3, 3); // 12 edges
        let scheme = scheme_for(&g, wseed);
        let mut state = FaultState::for_graph(&g);
        for &e in &edges {
            if !state.faults().contains(e) {
                state.apply(FaultEvent::Arrive(e)).unwrap();
            }
        }
        let ckpt = JournalCheckpoint { seq, epoch, state };
        let mut bytes = Vec::new();
        JournalFrame::Checkpoint(ckpt.clone()).encode_into(&mut bytes);
        let (recovered, report) = ChurnPipeline::recover(&scheme, &bytes, config()).unwrap();
        prop_assert_eq!(report.checkpoint_seq, seq);
        prop_assert_eq!(recovered.accepted_seq(), seq);
        prop_assert_eq!(recovered.fault_state(), &ckpt.state);
        verify_converged(&recovered).unwrap();
    }
}

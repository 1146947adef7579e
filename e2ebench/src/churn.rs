//! The `churn` workload: a hostile wire-event stream through the churn
//! pipeline on the control thread — ingest, commit, scrub, checkpoint —
//! while an open-loop reader queries the published snapshots on a second
//! thread; then recovery from the run's own journal and the convergence
//! checks.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rsp_core::Rpts;
use rsp_graph::journal::decode_journal;
use rsp_graph::{gen, FaultEvent, FaultState, Graph};
use rsp_oracle::churn::inject::{
    random_trace_with, verify_converged, InjectionPlan, StreamInjector, TraceOptions,
};
use rsp_oracle::churn::{ChurnConfig, ChurnPipeline, IngestError};
use rsp_oracle::scrub::{ScrubConfig, Scrubber};

use crate::common::{self, Report, Summary};
use crate::layers::{self, ChurnStats};
use crate::loadgen::{Clock, Schedule, WallClock};
use crate::reader::{self, Request, Server};
use crate::stats;
use crate::trace::{Layer, Recorder};
use crate::Args;

/// Preferential-attachment vertices; every one is a serving source.
const PA_N: usize = 2_000;
/// Edges each new vertex attaches with.
const PA_M: usize = 3;
/// Wire frames offered per second.
const FRAMES_PER_S: f64 = 50.0;
/// Reader queries offered per second.
const READER_QPS: f64 = 2_000.0;
/// Share of reader queries with one random fault edge (the rest use
/// `F = ∅`).
const ONE_FAULT_SHARE: f64 = 0.05;
/// Control-loop period, ns. Each round ingests the frames that fell due
/// since the last and commits them as one batch, so a commit's fixed
/// cost (the cross-check) is paid at most 20 times a second and the
/// control thread keeps headroom on a 2-vCPU host.
const ROUND_NS: u64 = 50_000_000;
/// Rounds between `Scrubber::tick` calls (every 100 ms).
const SCRUB_EVERY: u64 = 2;
/// Accepted events between `checkpoint` + `compact` calls.
const CHECKPOINT_EVERY: u64 = 256;
/// Reader answers kept for the output check.
const CHECKS: usize = 512;
/// `recover` repetitions; `recover_s` is their median.
const RECOVER_REPS: usize = 3;
/// Traced-run reader windows: one second of requests, every second
/// window traced.
const TRACE_WINDOWS: (usize, usize) = (2_000, 2);
/// Time the control loop may run past the last frame before the
/// pipeline counts as not converging, ns.
const DRAIN_NS: u64 = 30_000_000_000;

/// For each accepted event sequence (ascending), the index of the first
/// commit whose `CommitReport.seq` folds it in (`commit_seqs` is
/// non-decreasing, as successive reports are); `None` if no commit did.
pub fn attribute(event_seqs: &[u64], commit_seqs: &[u64]) -> Vec<Option<usize>> {
    let mut c = 0;
    event_seqs
        .iter()
        .map(|&e| {
            while c < commit_seqs.len() && commit_seqs[c] < e {
                c += 1;
            }
            (c < commit_seqs.len()).then_some(c)
        })
        .collect()
}

/// The hostile wire stream: a bursty fault trace (at most 8 concurrent
/// faults) perturbed by the default hostile injection mix, cut to
/// `count` frames.
fn wire_frames(g: &Graph, seed: u64, count: usize) -> Vec<Vec<u8>> {
    let opts = TraceOptions { burst: 0.25, max_faults: Some(8), ..TraceOptions::default() };
    let mut len = count;
    loop {
        let trace = random_trace_with(g, len, seed ^ 0x7ace, opts);
        let mut frames = StreamInjector::new(InjectionPlan::hostile(seed ^ 0x1f3c)).perturb(&trace);
        if frames.len() >= count {
            frames.truncate(count);
            return frames;
        }
        len *= 2;
    }
}

/// Reader queries: source Zipf(1.0) over a seeded ranking of every
/// vertex (skewed like `lookup`'s, so hot rows stay cached and the median
/// is not a DRAM-latency reading that moves with the neighbours' memory
/// traffic), target uniform, `F = ∅` or one random edge.
fn requests(g: &Graph, seed: u64, count: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4ead);
    let mut ranked: Vec<u32> = (0..g.n() as u32).collect();
    ranked.shuffle(&mut rng);
    let cdf = common::zipf_cdf(ranked.len());
    let mut pool: Vec<Request> = (0..count)
        .map(|_| {
            let mut r = Request {
                s: ranked[common::zipf_draw(&cdf, &mut rng)],
                t: rng.random_range(0..g.n()) as u32,
                ..Request::default()
            };
            if common::unit_f64(&mut rng) < ONE_FAULT_SHARE {
                r.nf = 1;
                r.faults[0] = rng.random_range(0..g.m()) as u32;
            }
            r
        })
        .collect();
    for _ in 0..CHECKS.min(count) {
        pool[rng.random_range(0..count)].check = true;
    }
    pool
}

/// One `commit` call that returned a report.
struct CommitRec {
    seq: u64,
    start: u64,
    end: u64,
}

/// What the control loop saw.
#[derive(Default)]
struct Control {
    /// `(journal seq, due time)` of every accepted event.
    accepted: Vec<(u64, u64)>,
    commits: Vec<CommitRec>,
    stalls: u64,
    calls: u64,
    stats: ChurnStats,
    problems: Vec<String>,
}

/// Feeds `frames` (frame `i` due at `sched.due(i)`) through the pipeline
/// in rounds of [`ROUND_NS`]: ingest every due frame, commit the batch,
/// checkpoint every [`CHECKPOINT_EVERY`] accepted events, and tick the
/// scrubber every [`SCRUB_EVERY`] rounds. A round that overruns starts
/// the next one at once, with a larger batch.
fn control_loop(
    clock: &WallClock,
    pipeline: &mut ChurnPipeline<u128>,
    scrubber: &mut Scrubber<u128>,
    frames: &[Vec<u8>],
    sched: &Schedule,
    rec: &mut Recorder,
) -> Control {
    let mut c = Control::default();
    let root = rec.open(Layer::Control, 0, clock.now());
    let deadline = sched.due(frames.len()) + DRAIN_NS;
    let mut next = 0;
    let mut since_checkpoint = 0;
    for round in 1.. {
        let mut ingested = false;
        while next < frames.len() && sched.due(next) <= clock.now() {
            let start = clock.now();
            let result = pipeline.ingest_wire(&frames[next]);
            let end = clock.now();
            let req = match result {
                Ok(seq) => {
                    c.accepted.push((seq, sched.due(next)));
                    since_checkpoint += 1;
                    seq
                }
                Err(IngestError::Quarantined(_)) => {
                    c.stats.quarantined += 1;
                    0
                }
                Err(IngestError::Backpressure(_)) => {
                    c.stats.shed += 1;
                    0
                }
            };
            rec.leaf(Layer::Ingest, req, start, end);
            next += 1;
            ingested = true;
        }
        if ingested || pipeline.pending_events() > 0 {
            let start = clock.now();
            let result = pipeline.commit();
            let end = clock.now();
            c.calls += 1;
            match result {
                Ok(report) => {
                    rec.leaf(Layer::Commit, report.seq, start, end);
                    c.commits.push(CommitRec { seq: report.seq, start, end });
                    if report.published {
                        c.stats.published += 1;
                        c.stats.delta_commits += u64::from(report.delta);
                    }
                    c.stats.retries += u64::from(report.attempts.saturating_sub(1));
                }
                Err(stalled) => {
                    rec.leaf(Layer::Commit, 0, start, end);
                    c.stalls += 1;
                    if c.stalls <= 3 {
                        c.problems.push(format!("commit stalled: {stalled}"));
                    }
                }
            }
            if since_checkpoint >= CHECKPOINT_EVERY {
                rec.time(
                    Layer::Checkpoint,
                    pipeline.accepted_seq(),
                    || clock.now(),
                    || {
                        pipeline.checkpoint();
                        pipeline.compact()
                    },
                );
                since_checkpoint = 0;
            }
        }
        if round % SCRUB_EVERY == 0 {
            rec.time(Layer::ScrubTick, 0, || clock.now(), || scrubber.tick());
        }
        if next == frames.len() && pipeline.pending_events() == 0 {
            break;
        }
        if clock.now() > deadline {
            c.problems.push(format!(
                "control plane did not converge: {} events pending {}s after the last frame",
                pipeline.pending_events(),
                DRAIN_NS / 1_000_000_000
            ));
            break;
        }
        // The control plane sleeps between rounds (only the reader spins).
        let wake = sched.start + round * ROUND_NS;
        let before = clock.now();
        if wake > before {
            std::thread::sleep(Duration::from_nanos(wake - before));
            rec.idle_ns += clock.now() - before;
        }
    }
    rec.close(root, clock.now());
    c
}

/// Runs `churn`.
pub fn run(args: &Args) -> Report {
    let clock = WallClock::new();
    let mut report = Report::default();
    let mut rec = Recorder::new("control", 1 << 16);
    let seed = args.seed;
    let config = ChurnConfig::default();
    let (mut pipeline, setup) = common::set_up(
        &clock,
        &mut rec,
        || gen::preferential_attachment(PA_N, PA_M, seed),
        seed ^ 0xa7a7,
        |scheme| {
            ChurnPipeline::with_config(scheme, config.clone()).expect("the initial snapshot builds")
        },
    );
    report.e2e(
        "setup_s",
        stats::median(&setup),
        "s",
        format!("median of {}, thread CPU time", setup.len()),
    );
    let g = pipeline.scheme().graph().clone();
    let frame_sched_len = (FRAMES_PER_S * args.seconds).round() as usize;
    let frames = wire_frames(&g, seed, frame_sched_len.max(1));
    let queries = (READER_QPS * args.seconds).round() as usize;
    let pool = requests(&g, seed, queries.max(1));
    let mut scrubber = Scrubber::new(pipeline.oracle().clone(), ScrubConfig::default());
    let reader_handle = pipeline.reader();

    let start = clock.now() + 20_000_000;
    let frame_sched = Schedule { start, rate: FRAMES_PER_S };
    let query_sched = Schedule { start, rate: READER_QPS };
    let trace = args.trace.then_some(TRACE_WINDOWS);
    let (control, (stretch, mut reader_stats, mut server_out, reader_rec)) =
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut rec = Recorder::new("reader", if args.trace { pool.len() + 64 } else { 0 });
                let mut server = Server::new(reader_handle, &pool);
                let (stretch, stats) =
                    reader::drive(&clock, &mut server, &query_sched, pool.len(), trace, &mut rec);
                let out =
                    (server.fast, server.engine, server.errors, server.kept, server.adoptions);
                (stretch, stats, out, rec)
            });
            let control =
                control_loop(&clock, &mut pipeline, &mut scrubber, &frames, &frame_sched, &mut rec);
            (control, reader.join().expect("the reader thread does not panic"))
        });
    report.problems.extend(control.problems.iter().cloned());

    // Staleness: each accepted event, from its due time to the end of
    // the commit that folds it in.
    let event_seqs: Vec<u64> = control.accepted.iter().map(|&(seq, _)| seq).collect();
    let commit_seqs: Vec<u64> = control.commits.iter().map(|c| c.seq).collect();
    let mut cs = control.stats;
    let mut unfolded = 0;
    for (&(_, due), at) in control.accepted.iter().zip(attribute(&event_seqs, &commit_seqs)) {
        match at {
            Some(i) => {
                let commit = &control.commits[i];
                cs.wait.push(commit.start.saturating_sub(due));
                cs.staleness.push(commit.end - due);
            }
            None => unfolded += 1,
        }
    }
    if unfolded > 0 {
        report.problem(format!("{unfolded} accepted events never folded in by a commit"));
    }
    cs.accepted = control.accepted.len() as u64;

    // After the run: journal export, recovery, convergence checks.
    let finish = rec.open(Layer::Finish, 0, clock.now());
    let bytes = rec.time(Layer::Export, 0, || clock.now(), || pipeline.export_journal());
    cs.journal_bytes = bytes.len() as u64;
    if args.trace {
        let decoded = rec.time(Layer::Decode, 0, || clock.now(), || decode_journal(&bytes));
        if let Err(e) = decoded {
            report.problem(format!("exported journal does not decode: {e}"));
        }
    }
    for rep in 0..RECOVER_REPS {
        let t0 = clock.now();
        let recovered = ChurnPipeline::recover(pipeline.scheme(), &bytes, config.clone());
        let t1 = clock.now();
        rec.leaf(Layer::Recover, rep as u64, t0, t1);
        cs.recover.push(t1 - t0);
        match recovered {
            Ok((r, _)) => {
                if r.fault_state() != pipeline.fault_state()
                    || r.accepted_seq() != pipeline.accepted_seq()
                {
                    report.problem(format!(
                        "recovered pipeline differs: accepted seq {} vs live {}",
                        r.accepted_seq(),
                        pipeline.accepted_seq()
                    ));
                }
            }
            Err(e) => report.problem(format!("recover failed: {e}")),
        }
    }
    let converged = rec.time(Layer::Check, 0, || clock.now(), || verify_converged(&pipeline));
    if let Err(e) = &converged {
        report.problem(format!("not converged: {e}"));
    }
    // The quarantine count must match an untimed replay of the frames.
    let mut replay = FaultState::for_graph(&g);
    let replay_quarantined = frames
        .iter()
        .filter(|f| FaultEvent::decode(f).map_or(true, |ev| replay.apply(ev).is_err()))
        .count() as u64;
    let health = pipeline.health();
    if cs.shed == 0
        && (replay_quarantined != cs.quarantined || health.quarantined_total != cs.quarantined)
    {
        report.problem(format!(
            "quarantined {} (pipeline reports {}), untimed replay quarantines {replay_quarantined}",
            cs.quarantined, health.quarantined_total
        ));
    }
    if cs.shed == 0 && &replay != pipeline.fault_state() {
        report.problem("replayed fault state differs from the pipeline's".into());
    }
    let scrub = scrubber.health();
    cs.rows_audited = scrub.rows_audited;
    cs.corruptions = scrub.corruptions_found;
    cs.delta_fallbacks = health.delta_fallbacks;
    cs.full_rebuilds = health.full_rebuilds;
    if cs.corruptions > 0 {
        report.problem(format!("scrubber found {} corrupt rows", cs.corruptions));
    }
    let (fast, engine, errors, ref mut kept, ref mut adoptions) = server_out;
    let (checked, wrong, first) =
        rec.time(Layer::Check, 1, || clock.now(), || reader::check(kept, &pool, pipeline.scheme()));
    rec.close(finish, clock.now());
    report.problems.extend(first);
    if checked == 0 {
        report.problem("no sampled reader answers to check".into());
    }
    if errors > 0 {
        report.problem(format!("{errors} reader queries returned Err"));
    }

    let staleness = Summary::new(cs.staleness.clone());
    let recover = stats::median(&cs.recover.iter().map(|&ns| ns as f64 * 1e-9).collect::<Vec<_>>());
    let mut lag: Vec<u32> = stretch.timings.iter().map(|t| t.lag).collect();
    lag.sort_unstable();
    report.notes.push(format!(
        "wire: {} frames at {FRAMES_PER_S}/s: {} accepted, {} quarantined (replay {replay_quarantined}), {} shed",
        frames.len(),
        cs.accepted,
        cs.quarantined,
        cs.shed
    ));
    report.notes.push(format!(
        "commits: {} calls, {} published ({} delta), {} stalled, {} retries, {} delta fallbacks, {} full rebuilds; journal {} B",
        control.calls, cs.published, cs.delta_commits, control.stalls, cs.retries, cs.delta_fallbacks, cs.full_rebuilds, cs.journal_bytes
    ));
    report.notes.push(format!(
        "scrub: {} rows audited, {} corruptions; reader: {} queries at {READER_QPS}/s, lag p50 {:.1}us p99 {:.1}us, fast-path share {:.4}",
        cs.rows_audited,
        cs.corruptions,
        stretch.timings.len(),
        stats::median_sorted(&lag) as f64 * 1e-3,
        stats::tail(&lag, 0.99).map_or(0, |t| t.value) as f64 * 1e-3,
        fast as f64 / (fast + engine).max(1) as f64
    ));
    report.notes.push(format!(
        "output check: {checked} sampled reader answers vs reference engine on F ∪ base faults, {wrong} wrong; \
         verify_converged {}; recovered == live on fault state and accepted seq",
        if converged.is_ok() { "ok" } else { "FAILED" }
    ));
    if !args.trace {
        common::report_latency(&mut report, &stretch.timings);
    }
    report.e2e("staleness_p50_ms", staleness.p50() as f64 * 1e-6, "ms", staleness.detail(0.5));
    report.e2e(
        "staleness_p99_ms",
        staleness.tail_value(0.99) as f64 * 1e-6,
        "ms",
        staleness.detail(0.99),
    );
    report.e2e(
        "recover_s",
        recover,
        "s",
        format!("median of {RECOVER_REPS}, {} B journal", cs.journal_bytes),
    );
    report.attempted = stretch.timings.len() as u64 + frames.len() as u64 + control.calls;
    report.failed = wrong + errors + cs.shed + control.stalls;
    report.e2e("peak_rss_mb", common::peak_rss_mb(), "MB", "VmHWM");
    report.e2e(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        format!("{} of {}", report.failed, report.attempted),
    );
    reader_stats.fast = fast;
    reader_stats.engine = engine;
    reader_stats.adoptions = std::mem::take(adoptions);
    report.recorders = vec![rec, reader_rec];
    if args.trace {
        layers::per_layer(&mut report, &reader_stats, &cs);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_go_to_the_first_commit_folding_them_in() {
        // Commit reports: seq 2, a no-op at 2, then 5.
        assert_eq!(
            attribute(&[1, 2, 3, 4, 5], &[2, 2, 5]),
            vec![Some(0), Some(0), Some(2), Some(2), Some(2)]
        );
        // Events past the last commit are unattributed.
        assert_eq!(attribute(&[3, 6], &[4]), vec![Some(0), None]);
        assert_eq!(attribute(&[1], &[]), vec![None]);
        // A commit that folded nothing new does not take later events.
        assert_eq!(attribute(&[4], &[0, 3, 7]), vec![Some(2)]);
    }
}

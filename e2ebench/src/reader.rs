//! The reader side shared by every workload: pre-generated queries, the
//! per-query call into `OracleReader`, and the sampled output check.

use std::hint::black_box;

use rsp_core::{ExactScheme, Rpts};
use rsp_graph::reference::RefGraph;
use rsp_graph::{FaultSet, Vertex};
use rsp_oracle::OracleReader;

use crate::common::Answer;
use crate::layers::ReaderStats;
use crate::loadgen::{self, Clock, Schedule, Stretch, WallClock};
use crate::trace::{Layer, Recorder};

/// One pre-generated query: `(s, t, F)` with `|F| <= 3`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Request {
    /// Source.
    pub s: u32,
    /// Target whose cells are read.
    pub t: u32,
    /// `|F|`.
    pub nf: u8,
    /// Whether the answer is kept for the output check.
    pub check: bool,
    /// `F` (first `nf` entries).
    pub faults: [u32; 3],
}

impl Request {
    /// The fault edges.
    pub fn faults(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults[..self.nf as usize].iter().map(|&e| e as usize)
    }
}

/// A kept answer: the pool index, what was served, and the base faults
/// of the snapshot that served it.
pub type Kept = (usize, Answer, FaultSet);

/// One reader thread serving a request pool.
pub struct Server<'p> {
    reader: OracleReader<u128>,
    buf: FaultSet,
    pool: &'p [Request],
    /// Queries answered from the stored tree.
    pub fast: u64,
    /// Queries answered by the engine.
    pub engine: u64,
    /// Queries that returned `Err`.
    pub errors: u64,
    /// Answers kept for the output check.
    pub kept: Vec<Kept>,
    /// Durations of traced `refresh` calls that adopted a new snapshot.
    pub adoptions: Vec<u64>,
}

impl<'p> Server<'p> {
    /// A server answering `pool[i % pool.len()]` for request `i`.
    pub fn new(reader: OracleReader<u128>, pool: &'p [Request]) -> Self {
        Server {
            reader,
            buf: FaultSet::empty(),
            pool,
            fast: 0,
            engine: 0,
            errors: 0,
            kept: Vec::new(),
            adoptions: Vec::new(),
        }
    }

    /// Serves request `i`, sent at `sent`; returns its completion time.
    /// With a recorder, `refresh` is called and timed explicitly first,
    /// and the query is recorded as a fast-path or engine span.
    pub fn serve(
        &mut self,
        clock: &WallClock,
        i: usize,
        sent: u64,
        mut rec: Option<&mut Recorder>,
    ) -> u64 {
        let idx = i % self.pool.len();
        let r = self.pool[idx];
        let mut t = sent;
        if let Some(rec) = rec.as_deref_mut() {
            let adopted = self.reader.refresh();
            t = clock.now();
            rec.leaf(Layer::Refresh, i as u64, sent, t);
            if adopted {
                self.adoptions.push(t - sent);
            }
        }
        self.buf.set_from(r.faults());
        let mut answer = None;
        let fast = match self.reader.try_query(r.s as Vertex, &self.buf) {
            Ok(view) => {
                answer = Some(Answer::read(&view, r.t as Vertex));
                view.from_baseline()
            }
            Err(_) => {
                self.errors += 1;
                false
            }
        };
        let end = clock.now();
        if fast {
            self.fast += 1;
        } else {
            self.engine += 1;
        }
        if let Some(rec) = rec {
            rec.leaf(if fast { Layer::Fast } else { Layer::Engine }, i as u64, t, end);
        }
        match answer {
            Some(a) if r.check => {
                self.kept.push((idx, a, self.reader.snapshot().base_faults().clone()))
            }
            a => {
                black_box(a);
            }
        }
        end
    }
}

/// Serves requests `0..count` of `sched` open-loop. With `trace =
/// Some((per_window, every))` the run is cut into windows of
/// `per_window` requests and every `every`-th one is traced: recorded on
/// `rec` under a window root span, with `refresh` timed explicitly. One
/// run thus gives both the per-layer spans and, from the untraced
/// windows around them, the tracing overhead. Returns the whole run as
/// one stretch plus the reader statistics (whose per-request vectors
/// only traced runs fill).
pub fn drive(
    clock: &WallClock,
    server: &mut Server<'_>,
    sched: &Schedule,
    count: usize,
    trace: Option<(usize, usize)>,
    rec: &mut Recorder,
) -> (Stretch, ReaderStats) {
    let (per_window, every) = trace.unwrap_or((count, 0));
    let per_window = per_window.max(1);
    let mut all = Stretch::default();
    let mut stats = ReaderStats { offered: sched.rate, ..ReaderStats::default() };
    for (w, lo) in (0..count).step_by(per_window).enumerate() {
        let traced = every > 0 && w % every == every - 1;
        let root = traced.then(|| rec.open(Layer::Window, w as u64, clock.now()));
        let stretch =
            loadgen::run(clock, sched, lo..(lo + per_window).min(count), u64::MAX, |i, sent| {
                server.serve(clock, i, sent, if traced { Some(&mut *rec) } else { None })
            });
        if let Some(root) = root {
            rec.idle_ns += stretch.idle_ns;
            rec.close(root, clock.now());
        }
        if trace.is_some() {
            let lat = stretch.timings.iter().map(|t| t.latency as u64);
            if traced {
                stats.traced.extend(lat);
            } else {
                stats.untraced.extend(lat);
            }
            stats.lag.extend(stretch.timings.iter().map(|t| t.lag as u64));
        }
        if all.timings.is_empty() {
            // Move, not copy: an untraced run is one window, and a copy
            // would hold its timings twice at the peak RSS.
            all.timings = stretch.timings;
            all.timings.reserve_exact(count - all.timings.len());
        } else {
            all.timings.extend(stretch.timings);
        }
        all.idle_ns += stretch.idle_ns;
        all.last_end = stretch.last_end;
    }
    let elapsed = all.last_end.saturating_sub(sched.start).max(1);
    stats.achieved = all.timings.len() as f64 * 1e9 / elapsed as f64;
    (all, stats)
}

/// Compares every kept answer with the reference engine on `G \ (F ∪
/// base)`. Returns `(queries checked, wrong answers, first failures)`.
pub fn check(
    kept: &mut [Kept],
    pool: &[Request],
    scheme: &ExactScheme<u128>,
) -> (usize, u64, Vec<String>) {
    let rg = RefGraph::from_graph(scheme.graph());
    kept.sort_by(|a, b| (a.0, a.2.as_slice()).cmp(&(b.0, b.2.as_slice())));
    let (mut checked, mut wrong, mut first) = (0, 0u64, Vec::new());
    for group in kept.chunk_by(|a, b| a.0 == b.0 && a.2 == b.2) {
        let r = pool[group[0].0];
        let mut faults = group[0].2.clone();
        for e in r.faults() {
            faults.insert(e);
        }
        let expected = Answer::expected(&rg, scheme, r.s as Vertex, r.t as Vertex, &faults);
        checked += 1;
        for (_, got, _) in group {
            if *got != expected {
                wrong += 1;
                if first.len() < 3 {
                    first.push(format!(
                        "wrong answer for s={} t={} F={:?} base={:?}: got {got:?}, expected {expected:?}",
                        r.s,
                        r.t,
                        r.faults().collect::<Vec<_>>(),
                        group[0].2.as_slice()
                    ));
                }
            }
        }
    }
    (checked, wrong, first)
}

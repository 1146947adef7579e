//! The `lookup` and `reroute` workloads: one reader thread, open loop,
//! over a 512-source snapshot of a 10 000-router ISP hierarchy.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rsp_graph::{gen, Graph, Vertex};
use rsp_oracle::{Oracle, OracleSnapshot, TreeView};

use crate::common::{self, Report};
use crate::layers::{self, ChurnStats};
use crate::loadgen::{self, Clock, Schedule, WallClock};
use crate::reader::{self, Request, Server};
use crate::stats;
use crate::trace::{Layer, Recorder};
use crate::Args;

/// Core routers of the ISP hierarchy.
const CORE_N: usize = 1_000;
/// Access routers (each dual-homed to the core).
const EDGE_N: usize = 9_000;
/// Serving sources, spread evenly over the vertex ids.
const SERVED: usize = 512;
/// Sampled answers compared against the reference engine per run.
const CHECKS: usize = 256;
/// Samples a latency stretch needs for a p99 with ten beyond it.
const MIN_SAMPLES: f64 = 1_100.0;
/// Untimed open-loop warm-up before the measured phases, seconds.
const WARMUP_S: f64 = 0.25;
/// Most `sustained_qps` probes per run.
const MAX_PROBES: usize = 8;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 100% fast path: faults chosen off the source's tree.
    Lookup,
    /// 100% engine path: a fault on the selected s→t path.
    Reroute,
}

impl Kind {
    /// Fixed offered rate, queries per second.
    fn rate(self) -> f64 {
        match self {
            Kind::Lookup => 200_000.0,
            Kind::Reroute => 100.0,
        }
    }

    /// p99 latency limit for `sustained_qps`, ns.
    fn limit_ns(self) -> u64 {
        match self {
            Kind::Lookup => 1_000_000,
            Kind::Reroute => 25_000_000,
        }
    }

    /// Distinct pre-generated requests, served cyclically. Large enough
    /// that a `lookup` cell is not revisited while still in cache.
    fn pool(self) -> usize {
        match self {
            Kind::Lookup => 1 << 20,
            Kind::Reroute => 1 << 13,
        }
    }

    /// Traced-run window length in seconds, and how often a window is
    /// traced (every `n`-th). `lookup` traces one window in eight so its
    /// 200k spans a second stay a few tens of MB.
    fn trace_windows(self) -> (f64, usize) {
        match self {
            Kind::Lookup => (0.25, 8),
            Kind::Reroute => (1.0, 2),
        }
    }

    /// Share of the run spent searching for `sustained_qps`; the rest
    /// runs at the fixed rate.
    fn search_share(self) -> f64 {
        match self {
            Kind::Lookup => 0.2,
            Kind::Reroute => 0.45,
        }
    }

    /// The fast-path share the workload is built to have.
    fn fast_share(self) -> f64 {
        match self {
            Kind::Lookup => 1.0,
            Kind::Reroute => 0.0,
        }
    }
}

fn on_tree(g: &Graph, tree: &TreeView<'_, u128>, e: usize) -> bool {
    let (u, v) = g.endpoints(e);
    tree.parent(v) == Some((u, e)) || tree.parent(u) == Some((v, e))
}

/// Generates the request pool from the seed. `checked_prefix` bounds the
/// indices flagged for the output check to those the fixed phase serves.
fn requests(
    kind: Kind,
    snap: &OracleSnapshot<u128>,
    ranked: &[Vertex],
    seed: u64,
    checked_prefix: usize,
) -> Vec<Request> {
    let g = snap.graph();
    let cdf = common::zipf_cdf(ranked.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_c0de);
    let mut pool = Vec::with_capacity(kind.pool());
    while pool.len() < kind.pool() {
        let s = ranked[common::zipf_draw(&cdf, &mut rng)];
        let t = rng.random_range(0..g.n());
        let tree = snap.baseline(s).expect("requests draw from served sources");
        let mut faults = [0u32; 3];
        let nf = match kind {
            Kind::Lookup => {
                let nf = rng.random_range(0..=2usize);
                let mut k = 0;
                while k < nf {
                    let e = rng.random_range(0..g.m());
                    if !on_tree(g, &tree, e) && !faults[..k].contains(&(e as u32)) {
                        faults[k] = e as u32;
                        k += 1;
                    }
                }
                nf
            }
            Kind::Reroute => {
                if t == s {
                    continue;
                }
                let mut path = Vec::new();
                let mut v = t;
                while let Some((p, e)) = tree.parent(v) {
                    path.push(e);
                    v = p;
                }
                faults[0] = path[rng.random_range(0..path.len())] as u32;
                let nf = rng.random_range(1..=3usize);
                let mut k = 1;
                while k < nf {
                    let e = rng.random_range(0..g.m()) as u32;
                    if !faults[..k].contains(&e) {
                        faults[k] = e;
                        k += 1;
                    }
                }
                nf
            }
        };
        pool.push(Request { s: s as u32, t: t as u32, nf: nf as u8, check: false, faults });
    }
    let prefix = checked_prefix.min(pool.len());
    for _ in 0..CHECKS.min(prefix) {
        pool[rng.random_range(0..prefix)].check = true;
    }
    pool
}

/// Runs `lookup` or `reroute`.
pub fn run(kind: Kind, args: &Args) -> Report {
    let clock = WallClock::new();
    let mut report = Report::default();
    let mut main = Recorder::new("main", 64);
    let seed = args.seed;
    let n = CORE_N + EDGE_N;
    let served: Vec<Vertex> = (0..SERVED).map(|i| i * n / SERVED).collect();
    let (oracle, setup) = common::set_up(
        &clock,
        &mut main,
        || gen::isp_hierarchy(CORE_N, EDGE_N, seed),
        seed ^ 0xa7a7,
        |scheme| {
            let snapshot = OracleSnapshot::builder(scheme)
                .sources(served.iter().copied())
                .try_build()
                .expect("the initial snapshot builds");
            Oracle::new(snapshot)
        },
    );
    let snap = oracle.snapshot();
    let mut ranked = served.clone();
    ranked.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x2a2a));
    let rate = kind.rate();
    let fixed_s = (args.seconds * (1.0 - kind.search_share())).max(MIN_SAMPLES / rate);
    let fixed_count = (fixed_s * rate).round() as usize;
    let pool = requests(kind, &snap, &ranked, seed, fixed_count);
    let mut server = Server::new(oracle.reader(), &pool);

    // Warm-up: fill caches at the fixed rate; nothing recorded.
    let warm = Schedule { start: clock.now() + 1_000_000, rate };
    loadgen::run(&clock, &warm, 0..warm.count_in(WARMUP_S), u64::MAX, |i, sent| {
        server.serve(&clock, i, sent, None)
    });
    let (fast0, engine0) = (server.fast, server.engine);
    server.kept.clear();
    report.e2e(
        "setup_s",
        stats::median(&setup),
        "s",
        format!("median of {}, thread CPU time", setup.len()),
    );

    let mut reader_rec = Recorder::new("reader", 0);
    let sched = Schedule { start: clock.now() + 1_000_000, rate };
    let (count, trace) = if args.trace {
        let (window_s, every) = kind.trace_windows();
        let per_window = (window_s * rate).round() as usize;
        let windows = ((args.seconds / window_s).round() as usize).max(every);
        reader_rec = Recorder::new("reader", windows / every * (2 * per_window + 1));
        (windows * per_window, Some((per_window, every)))
    } else {
        (fixed_count, None)
    };
    let (stretch, mut reader_stats) =
        reader::drive(&clock, &mut server, &sched, count, trace, &mut reader_rec);
    let mut attempted = stretch.timings.len() as u64;
    if !args.trace {
        let verdict = loadgen::judge(&sched, count, &stretch, kind.limit_ns());
        // Dropped before report_latency sorts its own copy, so that the
        // two never raise the peak RSS together.
        let (lag_p50, lag_p99) = {
            let mut lag: Vec<u32> = stretch.timings.iter().map(|t| t.lag).collect();
            lag.sort_unstable();
            (stats::median_sorted(&lag), stats::tail(&lag, 0.99).map_or(0, |t| t.value))
        };
        let service = stretch.timings.iter().map(|t| (t.latency - t.lag) as u64).sum::<u64>()
            / stretch.timings.len().max(1) as u64;
        report.notes.push(format!(
            "fixed rate {rate:.0}/s for {fixed_s:.2}s: achieved {:.0}/s, lag p50 {:.2}us p99 {:.2}us, \
             mean service {:.3}us, {}",
            verdict.achieved,
            lag_p50 as f64 * 1e-3,
            lag_p99 as f64 * 1e-3,
            service as f64 * 1e-3,
            if verdict.pass { "within limit" } else { "OVER LIMIT" }
        ));
        common::report_latency(&mut report, &stretch.timings);

        // sustained_qps: bisect around the capacity the fixed phase
        // implies, within the rest of the run's time budget. The fixed
        // rate itself counts when it met the limit.
        let cap = 1e9 / service.max(1) as f64;
        let budget = (args.seconds - fixed_s).max(0.0);
        let min_probe_s = (MIN_SAMPLES / (0.8 * cap)).max(0.25);
        let probes = ((budget / (min_probe_s * 1.05)).floor() as usize).min(MAX_PROBES);
        let probe_s = if probes == 0 { 0.0 } else { budget / probes as f64 / 1.05 };
        let abort_lag = (20 * kind.limit_ns()).max(50_000_000);
        let mut log = Vec::new();
        let found = loadgen::bisect(0.8 * cap, 1.05 * cap, probes, |r| {
            let sched = Schedule { start: clock.now() + 1_000_000, rate: r };
            let count = sched.count_in(probe_s.max(MIN_SAMPLES / r));
            let stretch = loadgen::run(&clock, &sched, 0..count, abort_lag, |i, sent| {
                server.serve(&clock, i, sent, None)
            });
            attempted += stretch.timings.len() as u64;
            let v = loadgen::judge(&sched, count, &stretch, kind.limit_ns());
            log.push(format!(
                "{r:.0}:{}(p99 {:.0}us)",
                if v.pass { "ok" } else { "over" },
                v.p99_ns as f64 * 1e-3
            ));
            v.pass
        });
        let sustained = found.unwrap_or(0.0).max(if verdict.pass { rate } else { 0.0 });
        report.e2e(
            "sustained_qps",
            sustained,
            "1/s",
            format!(
                "p99 limit {}us; {probes} probes of {probe_s:.2}s: {}",
                kind.limit_ns() / 1000,
                log.join(" ")
            ),
        );
    }

    // Output check: sampled answers against the reference engine, and
    // the workload's fast-path share.
    let finish = main.open(Layer::Finish, 0, clock.now());
    let (checked, wrong, first) = main.time(
        Layer::Check,
        0,
        || clock.now(),
        || reader::check(&mut server.kept, &pool, snap.scheme()),
    );
    main.close(finish, clock.now());
    report.problems.extend(first);
    if checked == 0 {
        report.problem("no sampled answers to check".into());
    }
    let fast = server.fast - fast0;
    let engine = server.engine - engine0;
    let share = fast as f64 / (fast + engine).max(1) as f64;
    if share != kind.fast_share() {
        report.problem(format!(
            "workload drifted: fast-path share {share} (fast {fast}, engine {engine}), expected {}",
            kind.fast_share()
        ));
    }
    report.notes.push(format!(
        "output check: {checked} sampled queries ({} answers) vs reference engine, {wrong} wrong; \
         fast-path share {share}",
        server.kept.len()
    ));
    if server.errors > 0 {
        report.problem(format!("{} queries returned Err", server.errors));
    }
    report.attempted = attempted;
    report.failed = wrong + server.errors;
    report.e2e("peak_rss_mb", common::peak_rss_mb(), "MB", "VmHWM");
    report.e2e(
        "failed_frac",
        report.failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{} of {attempted}", report.failed),
    );
    reader_stats.fast = fast;
    reader_stats.engine = engine;
    reader_stats.adoptions = std::mem::take(&mut server.adoptions);
    report.recorders = vec![main, reader_rec];
    if args.trace {
        layers::per_layer(&mut report, &reader_stats, &ChurnStats::default());
    }
    report
}

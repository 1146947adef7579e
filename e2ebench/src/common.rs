//! What every workload shares: set-up timing, answer checking, metrics.

use rsp_core::{ExactScheme, RandomGridAtw};
use rsp_graph::reference::{ref_dijkstra, RefGraph};
use rsp_graph::{FaultSet, Graph, Vertex};
use rsp_oracle::TreeView;

use crate::loadgen::{Clock, Timing};
use crate::stats;
use crate::trace::{Layer, Recorder};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One named number in the output.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` and `METRICS.md` spell it.
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and percentile actually reported, where relevant.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: queries, wire frames and commits.
    pub attempted: u64,
    /// Failed operations (wrong or `Err` answers, sheds, stalled commits).
    pub failed: u64,
    /// Output-check failures, described.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// Every thread's spans.
    pub recorders: Vec<Recorder>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, detail: impl Into<String>) {
        self.e2e.push(Metric { name: name.into(), value, unit, detail: detail.into() });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name: name.into(), value, unit, detail: String::new() });
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// A latency sample in nanoseconds, summarized as median and a tail.
pub struct Summary {
    /// Sorted samples.
    pub sorted: Vec<u64>,
}

impl Summary {
    /// Sorts `samples`.
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Summary { sorted: samples }
    }

    /// Median, ns.
    pub fn p50(&self) -> u64 {
        stats::median_sorted(&self.sorted)
    }

    /// `want` percentile under the reporting rule.
    pub fn tail(&self, want: f64) -> Option<stats::Tail> {
        stats::tail(&self.sorted, want)
    }

    /// `"n=… p99 (k beyond)"` for the output.
    pub fn detail(&self, want: f64) -> String {
        match self.tail(want) {
            Some(t) => format!("n={} {} ({} beyond)", t.n, t.label(), t.beyond),
            None => format!("n={} (too few for a tail)", self.sorted.len()),
        }
    }

    /// The tail value at `want` (the supported percentile when the
    /// sample is small; 0 when there is none).
    pub fn tail_value(&self, want: f64) -> u64 {
        self.tail(want).map_or(0, |t| t.value)
    }
}

/// Adds `query_p50_us` and `query_p99_us` over every latency in
/// `timings`, each with its sample count.
pub fn report_latency(report: &mut Report, timings: &[Timing]) {
    let mut all: Vec<u32> = timings.iter().map(|t| t.latency).collect();
    all.sort_unstable();
    let us = |ns: u64| ns as f64 * 1e-3;
    report.e2e("query_p50_us", us(stats::median_sorted(&all)), "us", format!("n={}", all.len()));
    match stats::tail(&all, 0.99) {
        Some(t) if t.is(0.99) => report.e2e(
            "query_p99_us",
            us(t.value),
            "us",
            format!("n={} p99 ({} beyond)", t.n, t.beyond),
        ),
        _ => report.problem(format!("too few samples for p99: n={}", all.len())),
    }
}

/// Nanoseconds this thread has run on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`). A kernel that accounts paravirtual
/// steal time (it shows in the `steal` column of `/proc/stat`) leaves
/// out the time the hypervisor ran other guests on this vCPU. It still
/// counts the slowdown a busy hyperthread sibling or memory bus causes.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), and the call only writes it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Builds the workload's initial state [`SETUP_REPS`] times — graph,
/// Theorem 20 scheme, then `build` — timing each stage as a (wall-clock)
/// span on `rec` — and returns the last repetition's state with every
/// repetition's time in seconds. The times are read on the thread's CPU
/// clock ([`thread_cpu_ns`]): set-up is single-threaded, and that clock
/// leaves out time the host gave to other guests.
pub fn set_up<C: Clock, T>(
    clock: &C,
    rec: &mut Recorder,
    graph: impl Fn() -> Graph,
    scheme_seed: u64,
    build: impl Fn(&ExactScheme<u128>) -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let cpu0 = thread_cpu_ns();
        let root = rec.open(Layer::Setup, rep as u64, clock.now());
        let g = rec.time(Layer::GenGraph, 0, || clock.now(), &graph);
        let scheme = rec.time(
            Layer::CoreScheme,
            0,
            || clock.now(),
            || RandomGridAtw::theorem20(&g, scheme_seed).into_scheme(),
        );
        state = Some(rec.time(Layer::SnapshotBuild, 0, || clock.now(), || build(&scheme)));
        let end = clock.now();
        times.push((thread_cpu_ns() - cpu0) as f64 * 1e-9);
        rec.close(root, end);
    }
    (state.expect("at least one set-up repetition"), times)
}

/// What a query answered for one target: the cells the output check
/// compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Hop count of the selected path.
    pub hops: Option<u32>,
    /// Parent vertex and edge of the target.
    pub parent: Option<(Vertex, usize)>,
    /// Exact cost of the selected path.
    pub cost: Option<u128>,
}

impl Answer {
    /// Reads target `t`'s cells off a served tree.
    pub fn read(view: &TreeView<'_, u128>, t: Vertex) -> Self {
        Answer { hops: view.dist(t), parent: view.parent(t), cost: view.cost(t).copied() }
    }

    /// The reference engine's answer for `(s, t, faults)`.
    pub fn expected(
        rg: &RefGraph,
        scheme: &ExactScheme<u128>,
        s: Vertex,
        t: Vertex,
        faults: &FaultSet,
    ) -> Self {
        let tree = ref_dijkstra(rg, s, faults, |e, u, v| scheme.edge_cost(e, u, v));
        if tree.reached(t) {
            Answer { hops: Some(tree.hops[t]), parent: tree.parent[t], cost: tree.cost[t] }
        } else {
            Answer { hops: None, parent: None, cost: None }
        }
    }
}

/// A seeded uniform float in `[0, 1)`.
pub fn unit_f64(rng: &mut impl rand::RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(1.0) over `k` ranks: the cumulative weights to search.
pub fn zipf_cdf(k: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=k)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Draws a rank from a [`zipf_cdf`].
pub fn zipf_draw(cdf: &[f64], rng: &mut impl rand::RngCore) -> usize {
    let u = unit_f64(rng);
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// `VmHWM` of this process, MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

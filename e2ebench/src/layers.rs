//! The traced run's per-layer table and metrics.

use std::collections::BTreeMap;

use crate::common::{Report, Summary};
use crate::trace::{layer_table, reconcile, Layer, LayerRow};

/// Reader-side numbers measured outside spans.
#[derive(Debug, Default)]
pub struct ReaderStats {
    /// Offered query rate.
    pub offered: f64,
    /// Completed queries per second.
    pub achieved: f64,
    /// Due-to-send lag of every query, ns.
    pub lag: Vec<u64>,
    /// Latencies in traced windows, ns.
    pub traced: Vec<u64>,
    /// Latencies in untraced windows, ns.
    pub untraced: Vec<u64>,
    /// Queries answered from the stored tree.
    pub fast: u64,
    /// Queries answered by the engine.
    pub engine: u64,
    /// Durations of `refresh` calls that adopted a new snapshot, ns.
    pub adoptions: Vec<u64>,
}

/// Control-plane numbers measured outside spans (zero on serving-only
/// workloads).
#[derive(Debug, Default)]
pub struct ChurnStats {
    /// Events accepted by `ingest_wire`.
    pub accepted: u64,
    /// Frames quarantined.
    pub quarantined: u64,
    /// Frames shed by backpressure.
    pub shed: u64,
    /// Event due time to the start of the commit that folds it, ns.
    pub wait: Vec<u64>,
    /// Event due time to the end of the commit that folds it, ns.
    pub staleness: Vec<u64>,
    /// Commits that published a new epoch.
    pub published: u64,
    /// Build attempts beyond the first, summed over commits.
    pub retries: u64,
    /// Commits published by the delta builder.
    pub delta_commits: u64,
    /// `ChurnHealth::delta_fallbacks`.
    pub delta_fallbacks: u64,
    /// `ChurnHealth::full_rebuilds`.
    pub full_rebuilds: u64,
    /// `ScrubHealth::rows_audited`.
    pub rows_audited: u64,
    /// `ScrubHealth::corruptions_found`.
    pub corruptions: u64,
    /// Size of the exported journal.
    pub journal_bytes: u64,
    /// `ChurnPipeline::recover` durations, ns.
    pub recover: Vec<u64>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

fn us(ns: u64) -> f64 {
    ns as f64 * 1e-3
}

fn s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Fills `report.layers` (the per-layer metrics, every name on every
/// workload) and appends the printed table to `report.notes`.
pub fn per_layer(report: &mut Report, reader: &ReaderStats, churn: &ChurnStats) {
    let recorders: Vec<_> = report.recorders.iter().collect();
    let table = layer_table(&recorders);
    let empty = LayerRow::default();
    let row = |l: Layer| table.get(&l).unwrap_or(&empty);
    let p50 = |l: Layer| crate::stats::median_sorted(&row(l).durations);
    let p99 = |l: Layer| Summary { sorted: row(l).durations.clone() }.tail_value(0.99);
    let unaccounted =
        report.recorders.iter().map(|r| 1.0 - reconcile(r).ratio()).fold(0.0f64, f64::max);
    let traced = Summary::new(reader.traced.clone());
    let untraced = Summary::new(reader.untraced.clone());
    let lag = Summary::new(reader.lag.clone());
    let adoptions = Summary::new(reader.adoptions.clone());
    let wait = Summary::new(churn.wait.clone());
    let staleness = Summary::new(churn.staleness.clone());
    let recover = Summary::new(churn.recover.clone());
    let queries = reader.fast + reader.engine;
    let commits = row(Layer::Commit).count as u64;
    let decode = p50(Layer::Decode);

    let r = report;
    r.layer("gen.graph_s", s(p50(Layer::GenGraph)), "s");
    r.layer("core.scheme_s", s(p50(Layer::CoreScheme)), "s");
    r.layer("snapshot.build_s", s(p50(Layer::SnapshotBuild)), "s");
    r.layer("snapshot.fast.count", row(Layer::Fast).count as f64, "count");
    r.layer("snapshot.fast.p50_ns", p50(Layer::Fast) as f64, "ns");
    r.layer("snapshot.fast.p99_ns", p99(Layer::Fast) as f64, "ns");
    r.layer("snapshot.fast.busy_s", s(row(Layer::Fast).busy_ns), "s");
    r.layer("snapshot.engine.count", row(Layer::Engine).count as f64, "count");
    r.layer("snapshot.engine.p50_us", us(p50(Layer::Engine)), "us");
    r.layer("snapshot.engine.p99_us", us(p99(Layer::Engine)), "us");
    r.layer("snapshot.engine.busy_s", s(row(Layer::Engine).busy_ns), "s");
    r.layer("snapshot.fast_share", ratio(reader.fast, queries), "ratio");
    r.layer("serve.refresh.count", adoptions.sorted.len() as f64, "count");
    r.layer("serve.refresh.p99_us", us(adoptions.tail_value(0.99)), "us");
    r.layer("serve.refresh.busy_ms", ms(row(Layer::Refresh).busy_ns), "ms");
    r.layer("loadgen.offered_qps", reader.offered, "1/s");
    r.layer("loadgen.achieved_qps", reader.achieved, "1/s");
    r.layer("loadgen.lag_p50_us", us(lag.p50()), "us");
    r.layer("loadgen.lag_p99_us", us(lag.tail_value(0.99)), "us");
    r.layer("churn.ingest.count", row(Layer::Ingest).count as f64, "count");
    r.layer("churn.ingest.busy_ms", ms(row(Layer::Ingest).busy_ns), "ms");
    r.layer("churn.ingest.accepted", churn.accepted as f64, "count");
    r.layer("churn.ingest.quarantined", churn.quarantined as f64, "count");
    r.layer("churn.ingest.shed", churn.shed as f64, "count");
    r.layer("churn.wait.p50_ms", ms(wait.p50()), "ms");
    r.layer("churn.wait.p99_ms", ms(wait.tail_value(0.99)), "ms");
    r.layer("churn.commit.count", commits as f64, "count");
    r.layer("churn.commit.p50_ms", ms(p50(Layer::Commit)), "ms");
    r.layer("churn.commit.p99_ms", ms(p99(Layer::Commit)), "ms");
    r.layer("churn.commit.busy_s", s(row(Layer::Commit).busy_ns), "s");
    r.layer("churn.commit.events_per_commit", ratio(churn.accepted, churn.published), "count");
    r.layer("churn.commit.retries", churn.retries as f64, "count");
    r.layer("delta.share", ratio(churn.delta_commits, churn.published), "ratio");
    r.layer("delta.fallbacks", churn.delta_fallbacks as f64, "count");
    r.layer("churn.full_rebuilds", churn.full_rebuilds as f64, "count");
    r.layer("scrub.tick.count", row(Layer::ScrubTick).count as f64, "count");
    r.layer("scrub.tick.p50_ms", ms(p50(Layer::ScrubTick)), "ms");
    r.layer("scrub.tick.busy_s", s(row(Layer::ScrubTick).busy_ns), "s");
    r.layer("scrub.rows_audited", churn.rows_audited as f64, "count");
    r.layer("scrub.corruptions", churn.corruptions as f64, "count");
    r.layer("journal.checkpoint.busy_ms", ms(row(Layer::Checkpoint).busy_ns), "ms");
    r.layer("journal.bytes", churn.journal_bytes as f64, "B");
    r.layer("journal.decode_ms", ms(decode), "ms");
    r.layer("journal.recover_other_ms", ms(recover.p50().saturating_sub(decode)), "ms");
    r.layer("journal.recover_s", s(recover.p50()), "s");
    r.layer("churn.staleness_p50_ms", ms(staleness.p50()), "ms");
    r.layer("churn.staleness_p99_ms", ms(staleness.tail_value(0.99)), "ms");
    let overhead = if untraced.sorted.is_empty() {
        0.0
    } else {
        traced.p50() as f64 / untraced.p50() as f64 - 1.0
    };
    r.layer("trace.overhead_frac", overhead, "ratio");
    r.layer("trace.unaccounted_frac", unaccounted, "ratio");

    print_table(r, &table);
    r.notes.push(format!(
        "  {:<22} {:>9} {:>12} {:>12}   (from due time, not a span)",
        "loadgen.lag",
        lag.sorted.len(),
        format!("{:.1}us", us(lag.p50())),
        format!("{:.1}us", us(lag.tail_value(0.99)))
    ));
    if !wait.sorted.is_empty() {
        r.notes.push(format!(
            "  {:<22} {:>9} {:>12} {:>12}   (event due → its commit starts)",
            "churn.wait",
            wait.sorted.len(),
            format!("{:.2}ms", ms(wait.p50())),
            format!("{:.2}ms", ms(wait.tail_value(0.99)))
        ));
    }
    r.notes.push(format!(
        "trace overhead: traced query p50 {:.3}us vs untraced {:.3}us ({:+.1}%)",
        us(traced.p50()),
        us(untraced.p50()),
        overhead * 100.0
    ));
    for rec in &r.recorders {
        let rc = reconcile(rec);
        let verdict = if rc.ratio() >= 0.9 { "ok" } else { "WARN: outside 10%" };
        r.notes.push(format!(
            "reconcile thread {:<8} wall {:>10.3}ms  layers+wait {:>10.3}ms  ({:.1}%) {verdict}",
            rec.thread,
            ms(rc.wall_ns),
            ms(rc.accounted_ns),
            rc.ratio() * 100.0
        ));
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", us(ns)),
        _ => format!("{:.2}ms", ms(ns)),
    }
}

fn print_table(r: &mut Report, table: &BTreeMap<Layer, LayerRow>) {
    r.notes.push(format!(
        "  {:<22} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "layer", "count", "p50", "p99", "busy", "self"
    ));
    for (layer, row) in table {
        let sorted = Summary { sorted: row.durations.clone() };
        let tail = sorted.tail(0.99).map_or("-".to_string(), |t| {
            if t.is(0.99) {
                fmt_ns(t.value)
            } else {
                format!("{}@{}", fmt_ns(t.value), t.label())
            }
        });
        r.notes.push(format!(
            "  {:<22} {:>9} {:>12} {:>12} {:>12} {:>12}",
            layer.name(),
            row.count,
            fmt_ns(sorted.p50()),
            tail,
            fmt_ns(row.busy_ns),
            fmt_ns(row.self_ns)
        ));
    }
}

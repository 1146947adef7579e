//! In-memory spans recorded by the benchmark around calls into the
//! library, and the per-layer table computed from them.
//!
//! Each thread owns one [`Recorder`]. A span has a layer, a start and
//! end time, the span that encloses it on the same thread, and a
//! request id: a query's index for serving spans, an accepted event's
//! journal sequence for `churn.ingest`, and the `CommitReport.seq` a
//! commit published for `churn.commit` — so an event's ingest span links
//! to the first commit span whose id is at least its own. Spans stay in
//! memory until the run ends and are then written out by [`write_spans`].

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// The layer a span times, named after the module whose public call it
/// wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Layer {
    /// Root: one set-up repetition (main thread).
    Setup,
    /// `rsp_graph::gen` graph generation.
    GenGraph,
    /// `RandomGridAtw::theorem20` + `into_scheme`.
    CoreScheme,
    /// `SnapshotBuilder::try_build` / `ChurnPipeline::with_config`.
    SnapshotBuild,
    /// Root: one traced load-generator window (reader thread).
    Window,
    /// `OracleReader::refresh`.
    Refresh,
    /// `OracleReader::try_query` answered from the stored tree.
    Fast,
    /// `OracleReader::try_query` answered by the engine.
    Engine,
    /// Root: the churn control loop (control thread).
    Control,
    /// `ChurnPipeline::ingest_wire`.
    Ingest,
    /// `ChurnPipeline::commit`.
    Commit,
    /// `Scrubber::tick`.
    ScrubTick,
    /// `ChurnPipeline::checkpoint` + `compact`.
    Checkpoint,
    /// Root: the after-run phase (main thread).
    Finish,
    /// `ChurnPipeline::export_journal`.
    Export,
    /// `rsp_graph::journal::decode_journal`.
    Decode,
    /// `ChurnPipeline::recover`.
    Recover,
    /// The benchmark's own output check.
    Check,
}

impl Layer {
    /// The layer's name in the table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::GenGraph => "gen.graph",
            Layer::CoreScheme => "core.scheme",
            Layer::SnapshotBuild => "snapshot.build",
            Layer::Window => "loadgen.window",
            Layer::Refresh => "serve.refresh",
            Layer::Fast => "snapshot.fast",
            Layer::Engine => "snapshot.engine",
            Layer::Control => "churn.control",
            Layer::Ingest => "churn.ingest",
            Layer::Commit => "churn.commit",
            Layer::ScrubTick => "scrub.tick",
            Layer::Checkpoint => "journal.checkpoint",
            Layer::Finish => "finish",
            Layer::Export => "journal.export",
            Layer::Decode => "journal.decode",
            Layer::Recover => "journal.recover",
            Layer::Check => "check",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Request id (see the module docs).
    pub req: u64,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// The layer timed.
    pub layer: Layer,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's spans plus the time it spent waiting for work.
#[derive(Debug)]
pub struct Recorder {
    /// Thread name in the table.
    pub thread: &'static str,
    /// Spans in the order they were opened or recorded.
    pub spans: Vec<Span>,
    /// Time spent waiting for the next request or event (no span).
    pub idle_ns: u64,
    stack: Vec<u32>,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans.
    pub fn new(thread: &'static str, capacity: usize) -> Self {
        Recorder { thread, spans: Vec::with_capacity(capacity), idle_ns: 0, stack: Vec::new() }
    }

    fn top(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span enclosing the spans recorded until [`Recorder::close`].
    pub fn open(&mut self, layer: Layer, req: u64, start: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { start, end: start, req, parent: self.top(), layer });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, end: u64) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end = end;
    }

    /// Records a finished span inside the innermost open one.
    pub fn leaf(&mut self, layer: Layer, req: u64, start: u64, end: u64) {
        let parent = self.top();
        self.spans.push(Span { start, end, req, parent, layer });
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        layer: Layer,
        req: u64,
        now: impl Fn() -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = now();
        let out = f();
        self.leaf(layer, req, start, now());
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut children: Vec<u32> =
        (0..spans.len() as u32).filter(|&i| spans[i as usize].parent != NO_PARENT).collect();
    children.sort_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start));
    for group in children.chunk_by(|&a, &b| spans[a as usize].parent == spans[b as usize].parent) {
        let p = spans[spans[group[0] as usize].parent as usize];
        let mut reach = p.start;
        for &c in group {
            let c = spans[c as usize];
            let (lo, hi) = (c.start.max(reach), c.end.min(p.end));
            if hi > lo {
                covered[c.parent as usize] += hi - lo;
                reach = hi;
            }
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur().saturating_sub(c)).collect()
}

/// A layer's row in the table.
#[derive(Clone, Debug, Default)]
pub struct LayerRow {
    /// Spans recorded.
    pub count: usize,
    /// Summed durations.
    pub busy_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Sorted durations.
    pub durations: Vec<u64>,
}

/// Aggregates every recorder's spans by layer.
pub fn layer_table(recorders: &[&Recorder]) -> BTreeMap<Layer, LayerRow> {
    let mut table: BTreeMap<Layer, LayerRow> = BTreeMap::new();
    for rec in recorders {
        for (span, own) in rec.spans.iter().zip(self_times(&rec.spans)) {
            let row = table.entry(span.layer).or_default();
            row.count += 1;
            row.busy_ns += span.dur();
            row.self_ns += own;
            row.durations.push(span.dur());
        }
    }
    for row in table.values_mut() {
        row.durations.sort_unstable();
    }
    table
}

/// How much of a thread's wall time its spans and waits account for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reconciliation {
    /// Summed durations of the thread's root spans.
    pub wall_ns: u64,
    /// Self time of every non-root span, plus waiting time.
    pub accounted_ns: u64,
}

impl Reconciliation {
    /// `accounted / wall` (1.0 for a thread with no spans).
    pub fn ratio(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.accounted_ns as f64 / self.wall_ns as f64
        }
    }
}

/// Reconciles one thread: the part of its roots' wall time not covered
/// by a layer or by waiting is the benchmark's own bookkeeping.
pub fn reconcile(rec: &Recorder) -> Reconciliation {
    let own = self_times(&rec.spans);
    let mut r = Reconciliation { wall_ns: 0, accounted_ns: rec.idle_ns };
    for (span, own) in rec.spans.iter().zip(own) {
        if span.parent == NO_PARENT {
            r.wall_ns += span.dur();
        } else {
            r.accounted_ns += own;
        }
    }
    r
}

/// Writes every span to `path` in the [`encode_spans`] format.
pub fn write_spans(path: &Path, recorders: &[&Recorder]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    encode_spans(&mut out, recorders)?;
    out.flush()
}

/// Encodes every span as a fixed-width little-endian record: thread
/// index `u8`, layer `u8`, parent `u32`, request id `u64`, start `u64`,
/// end `u64` (30 bytes), after a one-line text header naming the threads.
pub fn encode_spans(out: &mut impl Write, recorders: &[&Recorder]) -> io::Result<()> {
    let threads: Vec<&str> = recorders.iter().map(|r| r.thread).collect();
    writeln!(out, "e2ebench-spans v1 threads={}", threads.join(","))?;
    for (t, rec) in recorders.iter().enumerate() {
        for s in &rec.spans {
            out.write_all(&[t as u8, s.layer as u8])?;
            out.write_all(&s.parent.to_le_bytes())?;
            out.write_all(&s.req.to_le_bytes())?;
            out.write_all(&s.start.to_le_bytes())?;
            out.write_all(&s.end.to_le_bytes())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut rec = Recorder::new("t", 8);
        let root = rec.open(Layer::Window, 0, 0);
        let a = rec.open(Layer::Refresh, 1, 10);
        rec.leaf(Layer::Fast, 1, 15, 20);
        rec.close(a, 40);
        // Overlaps A (30..40) and runs past the root's end (clipped).
        rec.leaf(Layer::Engine, 2, 30, 60);
        rec.leaf(Layer::Engine, 3, 90, 130);
        rec.close(root, 100);
        let own = self_times(&rec.spans);
        // Root 0..100 minus the union 10..60 and 90..100.
        assert_eq!(own[root as usize], 100 - 50 - 10);
        // A 10..40 minus its child 15..20.
        assert_eq!(own[a as usize], 25);
        assert_eq!(own[2], 5);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 40);
    }

    #[test]
    fn table_and_reconciliation() {
        let mut rec = Recorder::new("t", 8);
        let root = rec.open(Layer::Window, 0, 0);
        rec.leaf(Layer::Fast, 1, 0, 10);
        rec.leaf(Layer::Fast, 2, 20, 50);
        rec.idle_ns += 40;
        rec.close(root, 100);
        let table = layer_table(&[&rec]);
        let fast = &table[&Layer::Fast];
        assert_eq!((fast.count, fast.busy_ns, fast.self_ns), (2, 40, 40));
        assert_eq!(fast.durations, vec![10, 30]);
        assert_eq!(table[&Layer::Window].self_ns, 60);
        let r = reconcile(&rec);
        assert_eq!((r.wall_ns, r.accounted_ns), (100, 80));
        assert!((r.ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn span_records_are_fixed_width() {
        let mut rec = Recorder::new("main", 2);
        rec.leaf(Layer::Commit, 7, 1, 2);
        let mut bytes = Vec::new();
        encode_spans(&mut bytes, &[&rec]).unwrap();
        let header = b"e2ebench-spans v1 threads=main\n";
        assert_eq!(&bytes[..header.len()], header);
        assert_eq!(bytes.len(), header.len() + 30);
        assert_eq!(bytes[header.len() + 1], Layer::Commit as u8);
        assert_eq!(bytes[header.len() + 6], 7, "request id follows the parent");
    }
}

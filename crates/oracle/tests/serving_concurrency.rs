//! Concurrency suite for the serving layer: reader threads hammer
//! `(s, t, F)` queries while a writer publishes successive snapshot
//! epochs.
//!
//! Torn reads are made *observable* by construction: epoch `k`'s
//! snapshot is compiled from the base costs scaled by `k`, which keeps
//! every selected tree and hop distance identical but multiplies every
//! path cost by exactly `k` (pinned single-threadedly in
//! `oracle_properties::scaled_costs_keep_trees_and_scale_costs`). So an
//! answer is internally consistent with exactly one epoch iff all its
//! per-target costs are the base costs times the *same* `k` — and that
//! `k` must be the version of the snapshot the reader reports serving
//! from. Any cross-epoch mixing breaks the multiplier.
//!
//! Epoch retirement is pinned with `Weak` handles: once the last holder
//! of a replaced snapshot refreshes (or drops), the `Weak` no longer
//! upgrades.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use rsp_core::ExactScheme;
use rsp_graph::{generators, FaultSet, Graph, SearchScratch, Vertex};
use rsp_oracle::{Oracle, OracleSnapshot};

const UNIT: u128 = 1 << 40;

/// Base per-direction exact costs: distinct per edge and direction, the
/// same construction the CSR differential suite uses.
fn base_costs(g: &Graph) -> (Vec<u128>, Vec<u128>) {
    let fwd: Vec<u128> = (0..g.m()).map(|e| UNIT + (e as u128 * 7919) % 1024).collect();
    let bwd: Vec<u128> = fwd.iter().map(|f| 2 * UNIT - f).collect();
    (fwd, bwd)
}

/// The epoch-`k` scheme: base costs scaled by `k`.
fn scheme_at(g: &Graph, k: u128) -> ExactScheme<u128> {
    let (fwd, bwd) = base_costs(g);
    ExactScheme::from_costs(
        g.clone(),
        fwd.into_iter().map(|c| c * k).collect(),
        bwd.into_iter().map(|c| c * k).collect(),
        UNIT * k,
        10,
    )
}

fn snapshot_at(g: &Graph, k: u64) -> OracleSnapshot<u128> {
    OracleSnapshot::builder(&scheme_at(g, k as u128)).version(k).build()
}

/// One query's expected shape at scale 1: per-vertex `(hops, cost)`.
type Expected = Vec<Option<(u32, u128)>>;

fn query_pool(g: &Graph) -> Vec<(Vertex, FaultSet)> {
    let n = g.n();
    let m = g.m();
    let sources = [0, n / 3, n / 2, n - 1];
    let faults = [
        FaultSet::empty(),
        FaultSet::single(0),
        FaultSet::single(m / 2),
        FaultSet::from_edges([1, m / 3, m - 1]),
    ];
    sources.iter().flat_map(|&s| faults.iter().map(move |f| (s, f.clone()))).collect()
}

fn expected_at_base(g: &Graph, pool: &[(Vertex, FaultSet)]) -> Vec<Expected> {
    let base = scheme_at(g, 1);
    let mut scratch = SearchScratch::with_capacity(g.n());
    pool.iter()
        .map(|(s, f)| {
            base.spt_into(*s, f, &mut scratch);
            g.vertices()
                .map(|v| scratch.hops(v).map(|h| (h, *scratch.cost(v).expect("reached"))))
                .collect()
        })
        .collect()
}

/// N reader threads hammer the pool while the writer publishes epochs
/// 2..=LAST; every answer must be the base answer scaled by exactly the
/// epoch the reader reports, and every reader must observe the final
/// epoch once publishing stops.
#[test]
fn no_torn_reads_under_publish_storm() {
    const READERS: usize = 4;
    const LAST_EPOCH: u64 = 6;

    let g = generators::grid(8, 6);
    let pool = query_pool(&g);
    let expected = expected_at_base(&g, &pool);

    // Compile every epoch's snapshot up front: publishing is then pure
    // swap, maximizing swap pressure on the readers.
    let mut pending: Vec<OracleSnapshot<u128>> =
        (2..=LAST_EPOCH).map(|k| snapshot_at(&g, k)).collect();
    let oracle = Oracle::new(snapshot_at(&g, 1));
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for tid in 0..READERS {
            let mut reader = oracle.reader();
            let (pool, expected, done) = (&pool, &expected, &done);
            scope.spawn(move || {
                let mut versions_seen = Vec::new();
                let mut i = tid; // desynchronize the threads' pool walks
                loop {
                    let stop = done.load(Ordering::Acquire);
                    let (s, f) = &pool[i % pool.len()];
                    let answer: Vec<Option<(u32, u128)>> = {
                        let view = reader.query(*s, f);
                        (0..expected[0].len())
                            .map(|v| view.dist(v).map(|h| (h, *view.cost(v).expect("reached"))))
                            .collect()
                    };
                    // The view borrow has ended; without an intervening
                    // refresh the reader still holds the snapshot that
                    // answered, so this is the answer's epoch.
                    let k = reader.snapshot().version();
                    assert!((1..=LAST_EPOCH).contains(&k), "impossible epoch {k}");
                    for (v, base) in expected[i % pool.len()].iter().enumerate() {
                        let want = base.map(|(h, c)| (h, c * k as u128));
                        assert_eq!(answer[v], want, "reader {tid} epoch {k} s{s} {f} v{v}");
                    }
                    if versions_seen.last() != Some(&k) {
                        versions_seen.push(k);
                    }
                    i += 1;
                    if stop {
                        break;
                    }
                }
                // Epochs can only move forward under a reader.
                assert!(versions_seen.windows(2).all(|w| w[0] < w[1]), "{versions_seen:?}");
                // The post-stop query (auto-refresh) saw the last epoch.
                assert_eq!(versions_seen.last(), Some(&LAST_EPOCH), "reader {tid}");
            });
        }

        // Writer: storm of publishes, then signal the readers to finish.
        scope.spawn(|| {
            for snap in pending.drain(..) {
                std::thread::sleep(std::time::Duration::from_millis(2));
                oracle.publish(snap);
            }
            done.store(true, Ordering::Release);
        });
    });

    assert_eq!(oracle.epoch(), LAST_EPOCH, "one epoch bump per publish");
}

/// A replaced epoch stays alive exactly as long as its last holder: a
/// reader pinned to the old snapshot keeps answering from it, and the
/// moment the last holder refreshes, the old snapshot's memory drops.
#[test]
fn old_epochs_drop_once_last_reader_releases() {
    let g = generators::grid(4, 4);
    let oracle = Oracle::new(snapshot_at(&g, 1));
    let mut reader = oracle.reader();

    let old: Weak<OracleSnapshot<u128>> = Arc::downgrade(&oracle.snapshot());
    assert!(old.upgrade().is_some());

    oracle.publish(snapshot_at(&g, 2));
    assert_eq!(oracle.epoch(), 2);

    // The pinned reader still holds — and serves — epoch 1.
    assert_eq!(reader.epoch(), 1);
    assert_eq!(reader.snapshot().version(), 1);
    assert!(old.upgrade().is_some(), "pinned reader keeps the old epoch alive");

    // New readers are born on the current epoch; the old one survives.
    let fresh = oracle.reader();
    assert_eq!(fresh.snapshot().version(), 2);
    drop(fresh);
    assert!(old.upgrade().is_some());

    // The last holder releases: the old epoch drops.
    assert!(reader.refresh(), "epoch moved, refresh adopts it");
    assert_eq!(reader.epoch(), 2);
    assert!(old.upgrade().is_none(), "no holders left — epoch 1 retired");
    assert!(!reader.refresh(), "no further epoch movement");

    // Dropping a pinned reader also releases its epoch.
    let pinned = oracle.reader();
    let current: Weak<OracleSnapshot<u128>> = Arc::downgrade(&oracle.snapshot());
    oracle.publish(snapshot_at(&g, 3));
    reader.refresh();
    assert!(current.upgrade().is_some(), "`pinned` still holds epoch 2");
    drop(pinned);
    assert!(current.upgrade().is_none(), "dropping the last holder retires it");
}

/// An in-flight consumer holding a snapshot `Arc` across a publish keeps
/// a fully working, consistent snapshot — publish never invalidates.
#[test]
fn inflight_snapshot_survives_publish() {
    let g = generators::grid(4, 4);
    let oracle = Oracle::new(snapshot_at(&g, 1));

    let pinned = oracle.snapshot();
    oracle.publish(snapshot_at(&g, 5));

    // The pinned snapshot still answers, entirely at epoch-1 costs.
    let pool = query_pool(&g);
    let expected = expected_at_base(&g, &pool);
    let mut scratch = SearchScratch::with_capacity(g.n());
    for ((s, f), want) in pool.iter().zip(&expected) {
        let view = pinned.query(*s, f, &mut scratch);
        for (v, base) in want.iter().enumerate() {
            assert_eq!(view.dist(v).map(|h| (h, *view.cost(v).unwrap())), *base, "s{s} v{v}");
        }
    }
    assert_eq!(pinned.version(), 1);
    assert_eq!(oracle.snapshot().version(), 5);
}

//! The open-loop load generator.
//!
//! Request `i` is due at `start + i / rate`, whether or not earlier
//! requests have finished. Its latency is measured from that intended
//! send time, so a stall delays — and is charged to — every request that
//! queued behind it; the lag between due and actual send time is
//! reported as how late the generator ran.

use std::time::Instant;

/// A source of nanosecond timestamps that can wait.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now(&self) -> u64;
    /// Returns once `now() >= t`.
    fn wait_until(&self, t: u64);
}

/// The monotonic wall clock. It waits by spinning: a reader that slept
/// between requests would hand its vCPU back to the host and meet cold
/// caches on waking, and on a shared host that made query latency
/// depend on the neighbours (sleeping readers measured ~30% slower
/// medians, with wider spread, than spinning ones).
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock { epoch: Instant::now() }
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t: u64) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// A test clock: time moves only when told to.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct FakeClock {
    t: std::cell::Cell<u64>,
}

#[cfg(test)]
impl FakeClock {
    /// Moves time forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.t.set(self.t.get() + ns);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now(&self) -> u64 {
        self.t.get()
    }

    fn wait_until(&self, t: u64) {
        self.t.set(self.t.get().max(t));
    }
}

/// A fixed-rate arrival schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Due time of request 0.
    pub start: u64,
    /// Offered rate, requests per second.
    pub rate: f64,
}

impl Schedule {
    /// Due time of request `i`.
    pub fn due(&self, i: usize) -> u64 {
        self.start + (i as f64 * 1e9 / self.rate) as u64
    }

    /// Requests due in the first `seconds` of the schedule.
    pub fn count_in(&self, seconds: f64) -> usize {
        (seconds * self.rate).round() as usize
    }
}

/// One request's timing, in nanoseconds, saturating at `u32::MAX`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timing {
    /// Due time to actual send time.
    pub lag: u32,
    /// Due time to completion.
    pub latency: u32,
}

fn sat(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

/// What one stretch of the open loop did.
#[derive(Clone, Debug, Default)]
pub struct Stretch {
    /// Per-request timings, in request order.
    pub timings: Vec<Timing>,
    /// Time spent waiting for requests to fall due.
    pub idle_ns: u64,
    /// Completion time of the last request served.
    pub last_end: u64,
    /// `true` iff the stretch stopped early because the generator fell
    /// more than its abort lag behind.
    pub aborted: bool,
}

/// Serves requests `range` of `schedule` open-loop. `serve(i, sent)`
/// handles request `i` sent at `sent` and returns its completion time.
/// Stops early (marking the stretch aborted) once a request is sent more
/// than `abort_lag_ns` after it fell due.
pub fn run<C: Clock>(
    clock: &C,
    schedule: &Schedule,
    range: std::ops::Range<usize>,
    abort_lag_ns: u64,
    mut serve: impl FnMut(usize, u64) -> u64,
) -> Stretch {
    let mut out = Stretch { timings: Vec::with_capacity(range.len()), ..Stretch::default() };
    for i in range {
        let due = schedule.due(i);
        let mut sent = clock.now();
        if sent < due {
            clock.wait_until(due);
            let woke = clock.now();
            out.idle_ns += woke - sent;
            sent = woke;
        }
        if sent - due > abort_lag_ns {
            out.aborted = true;
            break;
        }
        let end = serve(i, sent);
        out.last_end = end;
        out.timings.push(Timing { lag: sat(sent - due), latency: sat(end - due) });
    }
    out
}

/// Latency and throughput summary of one fixed-rate stretch.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Completed requests per second, first due time to last completion.
    pub achieved: f64,
    /// p99 latency, ns (`u64::MAX` when the stretch is too short for one).
    pub p99_ns: u64,
    /// Whether the stretch met the latency limit with no growing
    /// backlog: p99 within the limit, achieved ≥ 99% of offered, the
    /// final tenth not queued longer than the limit, not aborted.
    pub pass: bool,
}

/// Judges `stretch` (requests `0..planned` of `schedule`) against a p99
/// latency limit.
pub fn judge(schedule: &Schedule, planned: usize, stretch: &Stretch, limit_ns: u64) -> Verdict {
    let done = stretch.timings.len();
    let elapsed = stretch.last_end.saturating_sub(schedule.start).max(1);
    let achieved = done as f64 * 1e9 / elapsed as f64;
    let mut lat: Vec<u32> = stretch.timings.iter().map(|t| t.latency).collect();
    lat.sort_unstable();
    let p99_ns = crate::stats::tail(&lat, 0.99).map_or(u64::MAX, |t| t.value);
    let mut end_lag: Vec<u32> = stretch.timings[done - done / 10..].iter().map(|t| t.lag).collect();
    end_lag.sort_unstable();
    let pass = !stretch.aborted
        && done == planned
        && p99_ns <= limit_ns
        && achieved >= 0.99 * schedule.rate
        && crate::stats::median_sorted(&end_lag) <= limit_ns;
    Verdict { achieved, p99_ns, pass }
}

/// Bisects (geometrically) for the highest rate in `(lo, hi)` that
/// passes, running `probes` probes. Returns the highest rate seen to
/// pass, or `None` if every probe failed.
pub fn bisect(lo: f64, hi: f64, probes: usize, mut passes: impl FnMut(f64) -> bool) -> Option<f64> {
    let (mut lo, mut hi) = (lo, hi);
    let mut best = None;
    for _ in 0..probes {
        let mid = (lo * hi).sqrt();
        if passes(mid) {
            best = Some(mid);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// A 10 ms stall in request 5 of a 1 ms-spaced stream: requests
    /// queued behind it are charged their wait, which timing from the
    /// actual send would hide.
    #[test]
    fn latency_counts_from_the_intended_send_time() {
        let clock = FakeClock::default();
        let schedule = Schedule { start: 0, rate: 1000.0 };
        let stretch = run(&clock, &schedule, 0..20, u64::MAX, |i, _sent| {
            clock.advance(if i == 5 { 10 * MS } else { 1_000 });
            clock.now()
        });
        let t = &stretch.timings;
        assert_eq!(t.len(), 20);
        assert_eq!(t[4], Timing { lag: 0, latency: 1_000 });
        assert_eq!(t[5].latency as u64, 10 * MS);
        // Request 6 was due at 6 ms but sent at 15 ms: 9 ms of queueing.
        assert_eq!(t[6].lag as u64, 9 * MS);
        assert_eq!(t[6].latency as u64, 9 * MS + 1_000);
        // The backlog drains 1 µs per request at a time.
        assert_eq!(t[14].lag as u64, MS + 8_000);
        assert_eq!(t[15], Timing { lag: 9_000, latency: 10_000 });
        assert_eq!(t[19], Timing { lag: 0, latency: 1_000 });
        // Waiting for due times: 5 requests × (1 ms − 1 µs) before the
        // stall, and the slack left once the backlog drained.
        assert!(stretch.idle_ns > 4 * MS);
    }

    #[test]
    fn falling_too_far_behind_aborts() {
        let clock = FakeClock::default();
        let schedule = Schedule { start: 0, rate: 1000.0 };
        let stretch = run(&clock, &schedule, 0..100, 5 * MS, |_, _| {
            clock.advance(2 * MS);
            clock.now()
        });
        assert!(stretch.aborted);
        // Request k is sent at 2k ms, due at k ms: lag k ms > 5 ms at k = 6.
        assert_eq!(stretch.timings.len(), 6);
        let v = judge(&schedule, 100, &stretch, 100 * MS);
        assert!(!v.pass);
    }

    #[test]
    fn judge_passes_a_stream_that_keeps_up() {
        let clock = FakeClock::default();
        let schedule = Schedule { start: 0, rate: 1000.0 };
        let stretch = run(&clock, &schedule, 0..2000, u64::MAX, |_, _| {
            clock.advance(500_000);
            clock.now()
        });
        let v = judge(&schedule, 2000, &stretch, MS);
        assert!(v.pass, "{v:?}");
        assert_eq!(v.p99_ns, 500_000);
        assert!((v.achieved - 1000.0).abs() < 1.0);
        // The same service time at twice the rate saturates.
        let fast = Schedule { start: clock.now() + 1, rate: 2500.0 };
        let stretch = run(&clock, &fast, 0..2000, u64::MAX, |_, _| {
            clock.advance(500_000);
            clock.now()
        });
        assert!(!judge(&fast, 2000, &stretch, MS).pass);
    }

    #[test]
    fn bisect_finds_the_threshold_within_its_resolution() {
        let mut probes = 0;
        let best = bisect(100.0, 10_000.0, 12, |r| {
            probes += 1;
            r <= 1234.0
        })
        .unwrap();
        assert_eq!(probes, 12);
        assert!(best <= 1234.0 && best > 1234.0 / 1.01, "{best}");
        assert_eq!(bisect(100.0, 200.0, 4, |_| false), None);
    }
}

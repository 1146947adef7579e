//! `e2ebench` — one open-loop benchmark for the serving + churn loop.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload lookup --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `lookup` (fast path), `reroute` (engine path), `churn`
//! (wire events, commits, scrub and journal beside a reader), or `all`
//! (each in its own child process). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs traced and reports the per-layer table.
//! The last line of standard output is one JSON object; the exit code
//! is non-zero when any answer or check is wrong. `METRICS.md` defines
//! every metric and which layer should move which.

mod churn;
mod common;
mod layers;
mod loadgen;
mod reader;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::{Metric, Report};

/// End-to-end metrics in the JSON line of an untraced run: those every
/// workload measures and that repeat from run to run on a shared host.
/// The latency metrics are printed by name but left out: `METRICS.md`
/// gives the spreads that kept them out.
pub const E2E_JSON: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// Per-layer metrics in the JSON line of a traced run.
pub const PER_LAYER_JSON: [&str; 49] = [
    "gen.graph_s",
    "core.scheme_s",
    "snapshot.build_s",
    "snapshot.fast.count",
    "snapshot.fast.p50_ns",
    "snapshot.fast.p99_ns",
    "snapshot.fast.busy_s",
    "snapshot.engine.count",
    "snapshot.engine.p50_us",
    "snapshot.engine.p99_us",
    "snapshot.engine.busy_s",
    "snapshot.fast_share",
    "serve.refresh.count",
    "serve.refresh.p99_us",
    "serve.refresh.busy_ms",
    "loadgen.offered_qps",
    "loadgen.achieved_qps",
    "loadgen.lag_p50_us",
    "loadgen.lag_p99_us",
    "churn.ingest.count",
    "churn.ingest.busy_ms",
    "churn.ingest.accepted",
    "churn.ingest.quarantined",
    "churn.ingest.shed",
    "churn.wait.p50_ms",
    "churn.wait.p99_ms",
    "churn.commit.count",
    "churn.commit.p50_ms",
    "churn.commit.p99_ms",
    "churn.commit.busy_s",
    "churn.commit.events_per_commit",
    "churn.commit.retries",
    "delta.share",
    "delta.fallbacks",
    "churn.full_rebuilds",
    "scrub.tick.count",
    "scrub.tick.p50_ms",
    "scrub.tick.busy_s",
    "scrub.rows_audited",
    "scrub.corruptions",
    "journal.checkpoint.busy_ms",
    "journal.bytes",
    "journal.decode_ms",
    "journal.recover_other_ms",
    "journal.recover_s",
    "churn.staleness_p50_ms",
    "churn.staleness_p99_ms",
    "trace.overhead_frac",
    "trace.unaccounted_frac",
];

const WORKLOADS: [&str; 3] = ["lookup", "reroute", "churn"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// `lookup`, `reroute`, `churn` or `all`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer table) instead of the end-to-end run.
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: "all".into(), seed: 1, seconds: 30.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (expected {} or all)",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// `model name` from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of CPU 0's L3 cache.
fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_metrics(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Prints a workload's report; returns whether it passed.
fn emit(args: &Args, report: &Report) -> bool {
    println!(
        "# provenance: workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" l3={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        cpu_model(),
        l3_size(),
        git_commit()
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!("end-to-end metrics ({}):", if args.trace { "traced run" } else { "untraced run" });
    for m in &report.e2e {
        println!("  {:<18} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.detail);
    }
    if args.trace {
        println!("per-layer metrics:");
        for m in &report.layers {
            println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let names: &[&str] = if args.trace { &PER_LAYER_JSON } else { &E2E_JSON };
    let pool = if args.trace { &report.layers } else { &report.e2e };
    let mut chosen = Vec::new();
    let mut missing = Vec::new();
    for name in names {
        match pool.iter().find(|m| m.name == *name) {
            Some(m) => chosen.push(m),
            None => missing.push(*name),
        }
    }
    let correct = report.problems.is_empty() && missing.is_empty();
    if !missing.is_empty() {
        println!("CHECK FAILED: metrics not measured: {}", missing.join(", "));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json_metrics(&chosen)
    );
    correct && report.failed == 0
}

/// Runs every workload in its own child process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2ebench: workload {w} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("e2ebench: cannot run workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <lookup|reroute|churn|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "all" => return run_all(&args),
        "lookup" => serving::run(serving::Kind::Lookup, &args),
        "reroute" => serving::run(serving::Kind::Reroute, &args),
        _ => churn::run(&args),
    };
    if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from);
        let path = dir.join("e2ebench-spans").join(format!("{}.bin", args.workload));
        let recorders: Vec<_> = report.recorders.iter().collect();
        match trace::write_spans(&path, &recorders) {
            Ok(()) => report.notes.push(format!("spans written to {}", path.display())),
            Err(e) => report.problem(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    if emit(&args, &report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metric
    /// names the JSON line carries.
    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\": \"").count();
        for name in E2E_JSON.iter().chain(&PER_LAYER_JSON) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w} missing");
        }
        assert_eq!(listed, E2E_JSON.len() + PER_LAYER_JSON.len() + WORKLOADS.len());
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let argv: Vec<String> =
            ["--workload", "churn", "--seed", "7", "--seconds", "10", "--trace", "1"]
                .map(String::from)
                .to_vec();
        let args = parse(&argv).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("churn", 7, 10.0, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--trace".into(), "2".into()]).is_err());
    }
}

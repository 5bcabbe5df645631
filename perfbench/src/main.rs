//! The serving-path benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-hot|serve-ingest|engine-topk|batch-zipf> \
//!     --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]
//! ```
//!
//! One run builds the shared corpus and index ([`setup`]), runs one
//! workload for `--seconds`, checks every answer against an oracle,
//! prints every metric with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload and then
//! times each layer's public entry point on its own ([`layers`]),
//! reporting the per-layer metrics instead. `--repeat N` runs the
//! workload N times as child processes (seeds `seed..seed+N`) and prints
//! each metric's median, quartiles and relative spread.
//!
//! The program is driven only from outside, through public functions,
//! and receives only the inputs generated from the seed.
//!
//! Workloads:
//! * `serve-hot` — open loop over loopback TCP at a fixed rate,
//!   two-word queries Zipf over the hottest words, result cache on: the
//!   interactive steady state, where wire, queue, single-flight and the
//!   result cache do most of the work.
//! * `serve-ingest` — the same, with every 10th operation a wire ingest
//!   and queries applying the delta: writes beside reads, so epoch churn
//!   defeats the cache and queries pay for the delta overlay.
//! * `engine-topk` — in process, cache off, each query through NRA and
//!   TA on the memory, disk and block backends: cursor walks, block
//!   decode, random probes and the buffer pool do the work.
//! * `batch-zipf` — in process, cache off, back-to-back 64-query SMJ
//!   batches alternating memory and block: the fused shared-scan path.

mod gen;
mod inproc;
mod layers;
mod report;
mod serve;
mod setup;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use report::Report;

/// `BENCHMARK.json` is the one list of metrics: a run emits exactly the
/// end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics it
/// declares, each with its declared unit.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let v: serde_json::Value = serde_json::from_str(DECLARED).expect("BENCHMARK.json parses");
    v[key]
        .as_array()
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("metric name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

const WORKLOADS: &[&str] = &["serve-hot", "serve-ingest", "engine-topk", "batch-zipf"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_owned(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join("|")
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match map.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let repeat = map
        .get("repeat")
        .map(|v| v.parse::<usize>().map_err(|e| format!("--repeat: {e}")))
        .transpose()?;
    for key in map.keys() {
        if !["workload", "seed", "seconds", "trace", "repeat"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repeat,
    })
}

fn run_once(args: &Args) -> Report {
    let mut report = Report::default();
    let serving = args.workload.starts_with("serve-");
    let setup = setup::build(serving, serving);
    println!(
        "workload {} seed {} seconds {} trace {}: {} docs, {} phrases, {} threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        setup.engine.miner().corpus().num_docs(),
        setup.engine.miner().index().dict.len(),
        setup::parallelism()
    );
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let queries = match args.workload.as_str() {
        "serve-hot" => serve::run(&setup, false, seed, secs, trace, &mut report),
        "serve-ingest" => serve::run(&setup, true, seed, secs, trace, &mut report),
        "engine-topk" => inproc::engine_topk(&setup, seed, secs, trace, &mut report),
        "batch-zipf" => inproc::batch_zipf(&setup, seed, secs, trace, &mut report),
        other => unreachable!("workload {other} validated by parse_args"),
    };
    if report.attempted == 0 {
        report.invalid("no operation was attempted");
    }
    if trace {
        layers::run(&setup, &queries, &mut report);
        // A layer this workload does not exercise reports 0.
        let emitted = report.names();
        for (name, unit) in declared("per_layer") {
            if !emitted.contains(&name) {
                report.metric(name, 0.0, unit);
            }
        }
    } else {
        report.metric("setup_s", setup.setup_s, "s");
        report.metric("peak_rss_mb", setup::peak_rss_mb(), "MB");
    }
    drop(setup);
    report
}

/// Runs the workload `n` times in child processes and prints each
/// metric's median, quartiles and interquartile spread.
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..n as u64 {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &(args.seed + i).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let v: serde_json::Value =
            serde_json::from_str(last).map_err(|e| format!("run {i}: no result line ({e})"))?;
        let correct = v["correct"].as_bool() == Some(true);
        all_correct &= correct;
        let mut line = format!(
            "run {i} seed {}: correct {correct} failed {}",
            args.seed + i,
            v["failed"].as_u64().unwrap_or(0)
        );
        for (name, m) in v["metrics"].as_object().ok_or("result has no metrics")? {
            let slot = values
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), m["unit"].as_str().unwrap_or("").to_owned()));
            slot.0.push(m["value"].as_f64().unwrap_or(f64::NAN));
            // The end-to-end metrics are few enough to list per run.
            if !args.trace {
                line.push_str(&format!(
                    " {name}={:.4}",
                    m["value"].as_f64().unwrap_or(f64::NAN)
                ));
            }
        }
        println!("{line}");
    }
    println!(
        "{:<44} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, (vals, unit)) in &values {
        match stats::quartiles(vals) {
            Some((q1, q2, q3)) => println!(
                "{name:<44} {q1:>14.3} {q2:>14.3} {q3:>14.3} {:>7.1}% {unit}",
                stats::relative_spread(vals).map_or(f64::NAN, |s| s * 100.0)
            ),
            None => println!("{name:<44} {vals:?} {unit}"),
        }
    }
    println!("all runs correct: {all_correct}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = run_once(&args);
    report.print(&declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_these_workloads() {
        let v: serde_json::Value = serde_json::from_str(DECLARED).expect("parses");
        let names: Vec<&str> = v["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        assert!(declared("end_to_end").contains(&("setup_s".to_owned(), "s".to_owned())));
    }
}

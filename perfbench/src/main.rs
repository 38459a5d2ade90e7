//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_wide_inproc|train_socket_5p|serve_mixed_open|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a human-readable report, then as
//! its last line one JSON object with the results. Writes the full record
//! (with provenance) under `perfbench/out/`, and with `--trace 1` the span
//! log as Chrome Trace Event JSON next to it. Exits non-zero when an output
//! check fails.

use gtv_perfbench::report::{num, Outcome};
use gtv_perfbench::trace::{json_str, Recorder};
use gtv_perfbench::{clock, serve, train};
use std::fmt::Write as _;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["train_wide_inproc", "train_socket_5p", serve::NAME];
const OUT_DIR: &str = "perfbench/out";
/// Spans written to the trace file; the metrics use every span.
const TRACE_FILE_SPANS: usize = 50_000;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn run_one(name: &str, seed: u64, seconds: f64, trace: Option<&Recorder>) -> Outcome {
    match name {
        "train_wide_inproc" => train::run(&train::wide_inproc(), seed, seconds, trace),
        "train_socket_5p" => train::run(&train::socket_5p(), seed, seconds, trace),
        _ => serve::run(seed, seconds, trace),
    }
}

/// The workload-specific name each end-to-end metric stands for, e.g.
/// `round_ms_p50` for training and `serve_small_p50_ms` for serving.
fn specific_name(workload: &str, metric: &str) -> &'static str {
    let serving = workload == serve::NAME;
    match (metric, serving) {
        ("latency_p50_ms", false) => "round_ms_p50",
        ("latency_p50_ms", true) => "serve_small_p50_ms",
        ("latency_tail_ms", false) => "round_ms_tail",
        ("latency_tail_ms", true) => "serve_small_tail_ms",
        ("bulk_p50_ms", false) => "synthesize_4096_ms_p50",
        ("bulk_p50_ms", true) => "serve_bulk_p50_ms",
        ("bytes_per_op", false) => "bytes_per_round",
        ("bytes_per_op", true) => "serve_reply_bytes",
        ("goodput_per_s", false) => "rounds_per_s",
        ("goodput_per_s", true) => "serve_goodput_rps",
        ("setup_s", _) => "setup_s",
        ("avg_jsd", _) => "avg_jsd",
        _ => "avg_wd",
    }
}

fn print_report(o: &Outcome, traced: bool) {
    println!("== {} ==", o.workload);
    for (key, value) in &o.notes {
        println!("  {key}: {value}");
    }
    for c in &o.checks {
        println!("  check {:<34} {}  ({})", c.name, if c.pass { "ok" } else { "FAILED" }, c.detail);
    }
    for (name, unit, value) in &o.metrics {
        let basis = o
            .tails
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| match t.groups {
                1 => format!("  [p{} of {} samples]", t.pct, t.samples),
                g => format!("  [p{} of {} samples, median over {g} episodes]", t.pct, t.samples),
            })
            .unwrap_or_default();
        println!(
            "  {:<24} {:<30} {:>14.4} {unit}{basis}",
            name,
            specific_name(o.workload, name),
            value
        );
    }
    let frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "  {:<24} {:<30} {:>14.4} ratio  ({} of {})",
        "failed_frac", "failed_frac", frac, o.failed, o.attempted
    );
    if traced {
        for (name, unit, value) in o.result_metrics(true) {
            println!("  {name:<55} {value:>14.4} {unit}");
        }
    }
}

/// The first line `rustc --version` prints.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit, read from `.git` in the working directory when it is a
/// checkout with history.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// (all, steal) CPU ticks since boot, from the first line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// `cpu_ticks` readings: a noisy-neighbour gauge for reading the timings.
fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((a0, s0)), Some((a1, s1))) if a1 > a0 => (s1 - s0) as f64 / (a1 - a0) as f64,
        _ => 0.0,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The full record: provenance, checks, notes and every metric.
fn record(args: &Args, outcomes: &[Outcome], steal: f64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", num(args.seconds));
    let _ = writeln!(s, "  \"trace\": {},", args.trace);
    let _ = writeln!(s, "  \"nproc\": {},", train::host_cores());
    let _ = writeln!(s, "  \"host_steal_frac\": {},", num(steal));
    let _ = writeln!(s, "  \"cpu_model\": {},", json_str(&cpu_model()));
    let _ = writeln!(s, "  \"tensor_threads\": {},", gtv_tensor::pool::threads());
    let _ = writeln!(s, "  \"rustc\": {},", json_str(&rustc_version()));
    let _ = writeln!(s, "  \"commit\": {},", json_str(&commit()));
    s.push_str("  \"workloads\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"name\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},",
            if i == 0 { "" } else { "," },
            json_str(o.workload),
            o.correct(),
            o.attempted,
            o.failed
        );
        s.push_str("\n     \"metrics\": {");
        for (j, (name, unit, value)) in o.metrics.iter().chain(&o.layers).enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if j == 0 { "" } else { ", " },
                json_str(name),
                num(*value),
                json_str(unit)
            );
        }
        s.push_str("},\n     \"tails\": {");
        for (j, (name, t)) in o.tails.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"percentile\": {}, \"samples\": {}, \"median_over\": {}}}",
                if j == 0 { "" } else { ", " },
                json_str(name),
                num(t.pct),
                t.samples,
                t.groups
            );
        }
        s.push_str("},\n     \"checks\": {");
        for (j, c) in o.checks.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"pass\": {}, \"detail\": {}}}",
                if j == 0 { "" } else { ", " },
                json_str(c.name),
                c.pass,
                json_str(&c.detail)
            );
        }
        s.push_str("},\n     \"notes\": [");
        for (j, (k, v)) in o.notes.iter().enumerate() {
            let _ =
                write!(s, "{}[{}, {}]", if j == 0 { "" } else { ", " }, json_str(k), json_str(v));
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn main() -> ExitCode {
    clock::epoch();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let recorder = args.trace.then(Recorder::new);
    let ticks = cpu_ticks();
    let outcomes: Vec<Outcome> =
        names.iter().map(|n| run_one(n, args.seed, args.seconds, recorder.as_ref())).collect();
    let steal = steal_frac(ticks, cpu_ticks());
    for o in &outcomes {
        print_report(o, args.trace);
    }
    println!("host CPU time stolen during the run: {:.1} %", steal * 100.0);

    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(format!("{OUT_DIR}/results-{tag}.json"), record(&args, &outcomes, steal))
    }) {
        eprintln!("perfbench: cannot write results: {e}");
    }
    if let Some(rec) = &recorder {
        let path = format!("{OUT_DIR}/trace-{tag}.json");
        match std::fs::write(
            &path,
            rec.chrome_json(&format!("perfbench {}", args.workload), TRACE_FILE_SPANS),
        ) {
            Ok(()) => println!(
                "trace: {path} ({} of {} spans; open it in the Perfetto UI)",
                rec.len().min(TRACE_FILE_SPANS),
                rec.len()
            ),
            Err(e) => eprintln!("perfbench: cannot write trace: {e}"),
        }
    }

    let all_correct = outcomes.iter().all(Outcome::correct);
    match outcomes.as_slice() {
        [one] => println!("{}", one.result_line(args.trace)),
        many => {
            // `all`: one line per workload, then a combined line.
            for o in many {
                println!("{}", o.result_line(args.trace));
            }
            let attempted: u64 = many.iter().map(|o| o.attempted).sum();
            let failed: u64 = many.iter().map(|o| o.failed).sum();
            println!(
                "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {}}}",
                many.len()
            );
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The repository's benchmark: four workloads over the detector's serving
//! path, end-to-end metrics measured with tracing off, and a separate
//! traced run for the per-layer numbers. See README.md for the workloads,
//! the metrics and how to run, trace and compare.
//!
//! ```text
//! hmd_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hmd_benchmark run [--seed <n>] [--seconds <s>] [--trace] [--out <dir>]
//! hmd_benchmark compare <runs-a> <runs-b>
//! hmd_benchmark summary <runs>
//! ```

mod batch;
mod bursts;
mod compare;
mod drift;
mod hist;
mod measure;
mod model;
mod probes;
mod socket;
mod sys;
mod trace;

use hmd_codec::Json;
use measure::{median, Metric, Outcome, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "dvfs_socket_stream",
    "hpc_offline_batch",
    "dvfs_fleet_bursts",
    "dvfs_drift_retrain",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Measured seconds when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// The benchmark package's directory.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where results and traces go (git-ignored).
fn out_dir() -> PathBuf {
    package_dir().join("target")
}

/// The results file of one workload run.
fn run_file(workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join("runs").join(format!(
        "{workload}.seed{seed}.trace{}.json",
        u8::from(trace)
    ))
}

/// Options of one workload run.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 2021,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// What one workload run reports.
struct Report {
    outcome: Outcome,
    /// Gated end-to-end metrics (untraced run) or per-layer metrics
    /// (traced run), in `BENCHMARK.json` order.
    metrics: Vec<Metric>,
    setup_s: Vec<f64>,
    tracer: Option<Tracer>,
}

fn drive<W: Workload>(args: &RunArgs) -> Report {
    if args.trace {
        // A traced run: the untraced half gives the baseline the tracing
        // overhead is measured against.
        let mut workload = W::setup(args.seed);
        let half = args.seconds / 2.0;
        let plain = workload.measure(half, None);
        let mut tracer = Tracer::new(Instant::now());
        let mut outcome = workload.measure(half, Some(&mut tracer));
        let mut metrics = probes::run(workload.model());
        metrics.push(Metric::new(
            "trace.overhead_pct",
            (plain.rows_per_s / outcome.rows_per_s - 1.0) * 100.0,
            "%",
        ));
        outcome.attempted += plain.attempted;
        outcome.failed += plain.failed;
        return Report {
            outcome,
            metrics,
            setup_s: Vec::new(),
            tracer: Some(tracer),
        };
    }
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::setup(args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    let outcome = workload.measure(args.seconds, None);
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("rows_per_s", outcome.rows_per_s, "rows/s"),
        Metric::new("p50_us", outcome.p50_us, "us"),
        Metric::new("cpu_us_per_row", outcome.cpu_us_per_row, "us"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
    ];
    Report {
        outcome,
        metrics,
        setup_s,
        tracer: None,
    }
}

fn metric_map(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn count(value: u64) -> Json {
    Json::Int(i64::try_from(value).unwrap_or(i64::MAX))
}

/// The results file of one workload run: everything measured, with
/// provenance and per-phase validity.
fn results_json(args: &RunArgs, report: &Report, self_us: &[Metric]) -> Json {
    let outcome = &report.outcome;
    let phases = outcome
        .phases
        .iter()
        .map(|phase| {
            let mut fields = vec![
                ("name", Json::Str(phase.name.to_string())),
                ("seconds", Json::Float(phase.seconds)),
                ("sent", count(phase.sent)),
                ("ok", count(phase.ok)),
                ("failed", count(phase.failed)),
                ("rows_per_request", count(phase.rows_per_request)),
                ("valid", Json::Bool(phase.valid())),
                (
                    "window_rows_per_s",
                    Json::Array(phase.window_rates.iter().map(|&r| Json::Float(r)).collect()),
                ),
            ];
            if let Some(open) = &phase.open_loop {
                fields.push(("interval_us", Json::Float(open.interval_us)));
                fields.push((
                    "generator_late_p99_us",
                    Json::Float(open.late.quantile_us(0.99)),
                ));
            }
            Json::object(fields)
        })
        .collect();
    Json::object(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", count(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("cores", count(sys::cores() as u64)),
        ("rev", Json::Str(sys::git_rev(&package_dir().join("..")))),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", count(outcome.attempted)),
        ("failed", count(outcome.failed)),
        (
            "setup_s",
            Json::Array(report.setup_s.iter().map(|&s| Json::Float(s)).collect()),
        ),
        ("metrics", metric_map(&report.metrics)),
        ("reported", metric_map(&outcome.reported)),
        ("trace_self_us", metric_map(self_us)),
        ("phases", Json::Array(phases)),
    ])
}

/// Runs one workload, prints every metric and the final result line, and
/// writes the results file (plus the span file of a traced run).
fn one_workload(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: hmd_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                 hmd_benchmark run|compare|summary ... (see README.md)"
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "dvfs_socket_stream" => drive::<socket::SocketStream>(&args),
        "hpc_offline_batch" => drive::<batch::OfflineBatch>(&args),
        "dvfs_fleet_bursts" => drive::<bursts::FleetBursts>(&args),
        _ => drive::<drift::DriftRetrain>(&args),
    };
    let name = &args.workload;
    let mut self_us = Vec::new();
    if let Some(tracer) = &report.tracer {
        let (layers, requests) = tracer.self_time_us();
        for (layer, value) in layers {
            self_us.push(Metric::new(format!("trace.self_us.{layer}"), value, "us"));
        }
        self_us.push(Metric::new("trace.requests", requests as f64, "count"));
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        if let Err(error) = tracer.write_jsonl(&path) {
            eprintln!("warning: could not write {}: {error}", path.display());
        }
    }
    for metric in report
        .metrics
        .iter()
        .chain(&report.outcome.reported)
        .chain(&self_us)
    {
        println!("{name} {} {} {}", metric.name, metric.value, metric.unit);
    }
    for phase in &report.outcome.phases {
        println!(
            "{name} phase.{} sent={} ok={} failed={} seconds={} valid={}",
            phase.name,
            phase.sent,
            phase.ok,
            phase.failed,
            phase.seconds,
            phase.valid()
        );
    }
    let results = results_json(&args, &report, &self_us);
    let path = run_file(name, args.seed, args.trace);
    let written = std::fs::create_dir_all(out_dir().join("runs"))
        .and_then(|()| std::fs::write(&path, format!("{results}\n")));
    if let Err(error) = written {
        eprintln!("warning: could not write {}: {error}", path.display());
    }
    let correct = report.outcome.failed == 0;
    let line = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", count(report.outcome.attempted.max(1))),
        ("failed", count(report.outcome.failed)),
        ("metrics", metric_map(&report.metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {name}: {} requests failed their output check",
            report.outcome.failed
        );
        ExitCode::FAILURE
    }
}

/// `run`: every workload in its own child process, results gathered into
/// one file per seed.
fn run_all(args: &[String]) -> ExitCode {
    let mut seed = 2021u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = out_dir().join("results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            trace = true;
            continue;
        }
        let value = it.next().map(String::as_str).unwrap_or_default();
        let parsed = match flag.as_str() {
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--out" => {
                out = PathBuf::from(value);
                !value.is_empty()
            }
            _ => false,
        };
        if !parsed {
            eprintln!("error: bad argument {flag} {value}");
            return ExitCode::from(2);
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("error: cannot find the benchmark executable: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    let modes: &[bool] = if trace { &[false, true] } else { &[false] };
    for workload in WORKLOADS {
        for &traced in modes {
            let child = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .stderr(std::process::Stdio::inherit())
                .output();
            let child = match child {
                Ok(child) => child,
                Err(error) => {
                    eprintln!("error: could not start {workload}: {error}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop();
            for line in lines {
                println!("{line}");
            }
            ok &= child.status.success();
            let parsed = std::fs::read_to_string(run_file(workload, seed, traced))
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            if let Some(json) = parsed {
                let key = if traced {
                    format!("{workload}.trace")
                } else {
                    workload.to_string()
                };
                results.push((key, json));
            }
        }
    }
    let summary = Json::object(vec![
        ("seed", count(seed)),
        ("seconds", Json::Float(seconds)),
        ("cores", count(sys::cores() as u64)),
        ("rev", Json::Str(sys::git_rev(&package_dir().join("..")))),
        ("workloads", Json::Object(results)),
    ]);
    let path = out.join(format!("seed{seed}.json"));
    let written =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, format!("{summary}\n")));
    match written {
        Ok(()) => println!("results: {}", path.display()),
        Err(error) => {
            eprintln!("error: could not write {}: {error}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::compare_main(&args[1..]),
        Some("summary") => compare::summary_main(&args[1..]),
        _ => one_workload(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workload_arguments_parse() {
        let args = parse_run_args(&strings(&[
            "--workload",
            "hpc_offline_batch",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(
            args,
            RunArgs {
                workload: "hpc_offline_batch".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&[
            "--workload",
            "hpc_offline_batch",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    /// The metric names the program prints must be the ones `BENCHMARK.json`
    /// declares, in order.
    #[test]
    fn metric_names_match_the_benchmark_declaration() {
        let declared = Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let names = |key: &str| -> Vec<String> {
            declared
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("end_to_end"),
            [
                "setup_s",
                "rows_per_s",
                "p50_us",
                "cpu_us_per_row",
                "peak_rss_mb"
            ]
        );
        let workloads: Vec<String> = declared
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let model = model::Model::build(model::Family::Dvfs, 1);
        let probed: Vec<String> = probes::run(&model)
            .into_iter()
            .map(|m| m.name)
            .chain(["trace.overhead_pct".to_string()])
            .collect();
        assert_eq!(probed, names("per_layer"));
    }
}

//! Experiment driver: regenerates every table and figure of the paper, and
//! the threat suite's committed quality record.
//!
//! ```text
//! cargo run -p hmd_bench --release --bin experiments -- [experiment] [--scale smoke|bench|paper] [--seed N] [--dump DIR]
//! cargo run -p hmd_bench --release --bin experiments -- robustness
//! ```
//!
//! `experiment` is one of `table1`, `fig4`, `fig5`, `fig7a`, `fig7b`, `fig8`,
//! `fig9a`, `fig9b`, `headline`, `ablations` or `all` (default). All of them
//! read one [`Study`] of the seed. Any other argument, a flag without its
//! value or an unparsable seed prints the usage line to stderr and exits with
//! code 2 before anything runs.
//!
//! `--dump DIR` writes every figure's raw data as a
//! pretty-printed Rust `Debug` dump, since the offline toolchain has no
//! `serde_json`.
//!
//! `robustness` (not part of `all`) runs [`robustness::evaluate`] on
//! [`RobustnessConfig::full`]: every attack corpus (mimicry, gradual drift,
//! sensor dropout/saturation/stuck-at) against the trusted, untrusted and
//! Platt pipelines, a perturbation-bounded evasion search, and the closed
//! loop's detection/recovery under gradual drift. It prints the paper-style
//! figure, writes every number, typed, to `BENCH_robustness.json` at the
//! repository root (one row per line, so a diff names the row that moved),
//! then checks the evaluation's acceptance bars. The record is defined for
//! that one configuration, so `robustness` takes no flag. The evaluation is
//! seeded and deterministic: a second run rewrites the committed record
//! byte for byte, and CI fails when it does not.

use hmd_bench::robustness::{
    self, AttackReport, DriftLoopReport, EvasionReport, RobustnessConfig, RobustnessReport,
};
use hmd_bench::{
    ablations, ensemble_size, entropy_boxplots, f1_curves, rejection_curves, table1, tsne_overlap,
    ExperimentScale, Study,
};
use hmd_codec::{Json, JsonCodec};
use std::path::PathBuf;

const USAGE: &str = "usage: experiments [table1|fig4|fig5|fig7a|fig7b|fig8|fig9a|fig9b|headline|ablations|all] [--scale smoke|bench|paper] [--seed N] [--dump DIR]
       experiments robustness";

const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_robustness.json");

const EXPERIMENTS: [&str; 12] = [
    "table1",
    "fig4",
    "fig5",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9a",
    "fig9b",
    "headline",
    "ablations",
    "all",
    "robustness",
];

#[derive(Debug, PartialEq)]
struct Options {
    experiment: String,
    scale: ExperimentScale,
    seed: u64,
    dump_dir: Option<PathBuf>,
}

/// Parses the command line (without the program name). Every input is
/// either understood or rejected: a mistyped seed must not silently rerun
/// the default one.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut experiment: Option<String> = None;
    let mut scale = ExperimentScale::Bench;
    let mut seed = 2021;
    let mut dump_dir = None;
    let mut first_flag = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            first_flag.get_or_insert_with(|| arg.clone());
        }
        let mut value = || {
            args.next()
                .filter(|value| !value.starts_with("--"))
                .ok_or_else(|| format!("`{arg}` needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let name = value()?;
                scale = ExperimentScale::parse(&name)
                    .ok_or_else(|| format!("unknown scale `{name}`"))?;
            }
            "--seed" => {
                let text = value()?;
                seed = text
                    .parse()
                    .map_err(|_| format!("`{text}` is not a seed (an unsigned integer)"))?;
            }
            "--dump" => dump_dir = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name if !EXPERIMENTS.contains(&name) => {
                return Err(format!("unknown experiment `{name}`"))
            }
            name => {
                if let Some(first) = experiment.replace(name.to_string()) {
                    return Err(format!("two experiments given: `{first}` and `{name}`"));
                }
            }
        }
    }
    let experiment = experiment.unwrap_or_else(|| "all".to_string());
    if let (Some(flag), "robustness") = (first_flag, experiment.as_str()) {
        return Err(format!(
            "`robustness` runs one fixed configuration and takes no `{flag}`"
        ));
    }
    Ok(Options {
        experiment,
        scale,
        seed,
        dump_dir,
    })
}

fn write_dump<T: std::fmt::Debug>(dir: &Option<PathBuf>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {err}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.txt"));
    if let Err(err) = std::fs::write(&path, format!("{value:#?}\n")) {
        eprintln!("cannot write {}: {err}", path.display());
    } else {
        println!("[dump] wrote {}", path.display());
    }
}

fn attack_row(row: &AttackReport) -> Json {
    Json::object(vec![
        ("attack", row.attack.to_json()),
        ("pipeline", row.pipeline.to_json()),
        ("rows", row.rows.to_json()),
        ("raw_accuracy", row.raw_accuracy.to_json()),
        ("accepted_accuracy", row.accepted_accuracy.to_json()),
        ("escalation_rate", row.escalation_rate.to_json()),
        ("caught_fraction", row.caught_fraction.to_json()),
    ])
}

fn evasion_row(row: &EvasionReport) -> Json {
    Json::object(vec![
        ("pipeline", row.pipeline.to_json()),
        ("attacked", row.attacked.to_json()),
        ("flipped_predictions", row.flipped_predictions.to_json()),
        ("escalated_evasions", row.escalated_evasions.to_json()),
        ("accepted_evasions", row.accepted_evasions.to_json()),
        ("flip_rate", row.flip_rate.to_json()),
        ("caught_fraction", row.caught_fraction.to_json()),
        ("accepted_rate", row.accepted_rate.to_json()),
    ])
}

fn drift_loop_row(dl: &DriftLoopReport) -> Json {
    Json::object(vec![
        ("batch_rows", dl.batch_rows.to_json()),
        ("drift_detected", dl.drift_detected.to_json()),
        ("rows_to_detection", dl.rows_to_detection.to_json()),
        ("promoted", dl.promoted.to_json()),
        ("recovered", dl.recovered.to_json()),
        ("pre_drift_escalation", dl.pre_drift_escalation.to_json()),
        ("drifted_escalation", dl.drifted_escalation.to_json()),
        ("recovered_escalation", dl.recovered_escalation.to_json()),
    ])
}

/// A JSON array with one row per line.
fn lines(rows: impl Iterator<Item = Json>) -> String {
    let rows: Vec<String> = rows.map(|row| format!("    {row}")).collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn record(config: &RobustnessConfig, report: &RobustnessReport) -> String {
    let fields = [
        ("scale", report.scale.to_json().to_string()),
        ("rows_per_attack", config.rows_per_attack.to_string()),
        ("attacks", lines(report.attacks.iter().map(attack_row))),
        ("evasion", lines(report.evasion.iter().map(evasion_row))),
        ("drift_loop", drift_loop_row(&report.drift_loop).to_string()),
    ];
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Runs the threat suite's full configuration, rewrites the committed
/// record and checks the evaluation's acceptance bars.
fn run_robustness() {
    let config = RobustnessConfig::full();
    let report = robustness::evaluate(&config);
    println!("\n{}", robustness::render(&report));

    let text = record(&config, &report);
    Json::parse(&text).expect("the record is valid JSON");
    std::fs::write(RECORD, text).expect("writes BENCH_robustness.json");
    println!("record written to {RECORD}");

    // The acceptance bars of the experiment: drift must be caught and
    // recovered from, and the rejection option must escalate a measurable
    // fraction of the evasions that fool raw accuracy.
    let dl = &report.drift_loop;
    assert!(dl.drift_detected, "gradual drift never flagged");
    assert!(dl.recovered, "closed loop never recovered");
    let trusted = report
        .evasion
        .iter()
        .find(|r| r.pipeline == "trusted")
        .expect("trusted evasion row");
    assert!(
        trusted.flipped_predictions == 0 || trusted.escalated_evasions > 0,
        "rejection option caught none of {} successful evasions",
        trusted.flipped_predictions
    );
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("experiments: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if options.experiment == "robustness" {
        return run_robustness();
    }
    let study = Study::new(options.scale, options.seed);
    let run_all = options.experiment == "all";
    println!(
        "HMD uncertainty experiments — scale: {}, seed: {}\n",
        study.scale().name(),
        study.seed()
    );

    if run_all || options.experiment == "table1" {
        let table = table1::run(&study);
        println!("{}", table1::render(&table));
        write_dump(&options.dump_dir, "table1", &table);
    }
    if run_all || options.experiment == "fig4" {
        let figure = entropy_boxplots::fig4(&study);
        println!("{}", entropy_boxplots::render(&figure));
        write_dump(&options.dump_dir, "fig4", &figure);
    }
    if run_all || options.experiment == "fig5" {
        let figure = entropy_boxplots::fig5(&study);
        println!("{}", entropy_boxplots::render(&figure));
        write_dump(&options.dump_dir, "fig5", &figure);
    }
    if run_all || options.experiment == "fig7a" {
        let figure = rejection_curves::fig7a(&study);
        println!("{}", rejection_curves::render(&figure));
        write_dump(&options.dump_dir, "fig7a", &figure);
    }
    if run_all || options.experiment == "fig7b" {
        let figure = f1_curves::fig7b(&study);
        println!("{}", f1_curves::render(&figure));
        write_dump(&options.dump_dir, "fig7b", &figure);
    }
    if run_all || options.experiment == "fig8" {
        let figure = tsne_overlap::fig8(&study);
        println!("{}", tsne_overlap::render(&figure));
        write_dump(&options.dump_dir, "fig8", &figure);
    }
    if run_all || options.experiment == "fig9a" {
        let figure = ensemble_size::fig9a(&study, &ensemble_size::SIZES);
        println!("{}", ensemble_size::render(&figure));
        write_dump(&options.dump_dir, "fig9a", &figure);
    }
    if run_all || options.experiment == "fig9b" {
        let figure = rejection_curves::fig9b(&study);
        println!("{}", rejection_curves::render(&figure));
        write_dump(&options.dump_dir, "fig9b", &figure);
    }
    if run_all || options.experiment == "headline" {
        match rejection_curves::dvfs_operating_points(&study) {
            Some(op) => println!(
                "Headline (§V.A): DVFS RF operating point\n\
                 threshold {:.2} rejects {:.1}% of unknown workloads at {:.1}% known rejection\n\
                 (paper: threshold {:.2} rejects ~{:.0}% of unknown workloads at <5% known rejection)\n",
                op.threshold,
                op.unknown_rejected_pct,
                op.known_rejected_pct,
                op.paper_reference.0,
                op.paper_reference.1
            ),
            None => println!("Headline: no operating point with <5% known rejection found\n"),
        }
    }
    if run_all || options.experiment == "ablations" {
        let diversity = ablations::bootstrap_diversity(&study);
        let platt = ablations::platt_vs_entropy(&study);
        println!("{}", ablations::render(&diversity, &platt));
        write_dump(&options.dump_dir, "ablation_diversity", &diversity);
        write_dump(&options.dump_dir, "ablation_platt", &platt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn a_full_command_line_is_accepted() {
        assert_eq!(
            parse("fig7a --scale smoke --seed 7 --dump out"),
            Ok(Options {
                experiment: "fig7a".to_string(),
                scale: ExperimentScale::Smoke,
                seed: 7,
                dump_dir: Some(PathBuf::from("out")),
            })
        );
        assert_eq!(
            parse(""),
            Ok(Options {
                experiment: "all".to_string(),
                scale: ExperimentScale::Bench,
                seed: 2021,
                dump_dir: None,
            })
        );
    }

    #[test]
    fn an_unknown_experiment_is_rejected() {
        assert_eq!(
            parse("fig7 --scale smoke"),
            Err("unknown experiment `fig7`".to_string())
        );
    }

    #[test]
    fn a_second_experiment_is_rejected() {
        assert_eq!(
            parse("fig4 fig5"),
            Err("two experiments given: `fig4` and `fig5`".to_string())
        );
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        assert_eq!(
            parse("fig4 --fast"),
            Err("unknown flag `--fast`".to_string())
        );
    }

    #[test]
    fn an_unknown_scale_is_rejected() {
        assert_eq!(
            parse("--scale smol"),
            Err("unknown scale `smol`".to_string())
        );
    }

    #[test]
    fn a_missing_seed_is_rejected() {
        let missing = Err("`--seed` needs a value".to_string());
        assert_eq!(parse("fig4 --seed"), missing);
        assert_eq!(parse("--seed --scale smoke"), missing);
    }

    #[test]
    fn an_unparsable_seed_is_rejected() {
        assert_eq!(
            parse("--seed x"),
            Err("`x` is not a seed (an unsigned integer)".to_string())
        );
        assert_eq!(
            parse("--seed -1"),
            Err("`-1` is not a seed (an unsigned integer)".to_string())
        );
    }

    #[test]
    fn robustness_takes_no_scale() {
        assert_eq!(
            parse("robustness"),
            Ok(Options {
                experiment: "robustness".to_string(),
                scale: ExperimentScale::Bench,
                seed: 2021,
                dump_dir: None,
            })
        );
        assert_eq!(
            parse("robustness --scale smoke"),
            Err("`robustness` runs one fixed configuration and takes no `--scale`".to_string())
        );
    }

    #[test]
    fn robustness_takes_no_seed() {
        assert_eq!(
            parse("--seed 2021 robustness"),
            Err("`robustness` runs one fixed configuration and takes no `--seed`".to_string())
        );
    }

    #[test]
    fn robustness_takes_no_dump_directory() {
        assert_eq!(
            parse("robustness --dump out"),
            Err("`robustness` runs one fixed configuration and takes no `--dump`".to_string())
        );
    }

    #[test]
    fn a_missing_dump_directory_is_rejected() {
        assert_eq!(
            parse("fig4 --dump"),
            Err("`--dump` needs a value".to_string())
        );
    }
}

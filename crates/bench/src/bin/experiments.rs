//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p hmd_bench --release --bin experiments -- [experiment] [--scale smoke|bench|paper] [--seed N] [--dump DIR]
//! ```
//!
//! `experiment` is one of `table1`, `fig4`, `fig5`, `fig7a`, `fig7b`, `fig8`,
//! `fig9a`, `fig9b`, `headline`, `ablations` or `all` (default). Any other
//! argument, a flag without its value or an unparsable seed prints the usage
//! line to stderr and exits with code 2 before anything runs.
//!
//! `--dump DIR` writes every figure's raw data as a
//! pretty-printed Rust `Debug` dump, since the offline toolchain has no
//! `serde_json`.

use hmd_bench::{
    ablations, ensemble_size, entropy_boxplots, f1_curves, rejection_curves, table1, tsne_overlap,
    ExperimentScale,
};
use std::path::PathBuf;

const USAGE: &str = "usage: experiments [table1|fig4|fig5|fig7a|fig7b|fig8|fig9a|fig9b|headline|ablations|all] [--scale smoke|bench|paper] [--seed N] [--dump DIR]";

const EXPERIMENTS: [&str; 11] = [
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
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
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
    Ok(Options {
        experiment: experiment.unwrap_or_else(|| "all".to_string()),
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

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("experiments: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scale = options.scale;
    let seed = options.seed;
    let run_all = options.experiment == "all";
    println!(
        "HMD uncertainty experiments — scale: {}, seed: {seed}\n",
        scale.name()
    );

    if run_all || options.experiment == "table1" {
        let table = table1::run(scale, seed);
        println!("{}", table1::render(&table));
        write_dump(&options.dump_dir, "table1", &table);
    }
    if run_all || options.experiment == "fig4" {
        let figure = entropy_boxplots::fig4(scale, seed);
        println!("{}", entropy_boxplots::render(&figure));
        write_dump(&options.dump_dir, "fig4", &figure);
    }
    if run_all || options.experiment == "fig5" {
        let figure = entropy_boxplots::fig5(scale, seed);
        println!("{}", entropy_boxplots::render(&figure));
        write_dump(&options.dump_dir, "fig5", &figure);
    }
    if run_all || options.experiment == "fig7a" {
        let figure = rejection_curves::fig7a(scale, seed);
        println!("{}", rejection_curves::render(&figure));
        write_dump(&options.dump_dir, "fig7a", &figure);
    }
    if run_all || options.experiment == "fig7b" {
        let figure = f1_curves::fig7b(scale, seed);
        println!("{}", f1_curves::render(&figure));
        write_dump(&options.dump_dir, "fig7b", &figure);
    }
    if run_all || options.experiment == "fig8" {
        let figure = tsne_overlap::fig8(scale, seed);
        println!("{}", tsne_overlap::render(&figure));
        write_dump(&options.dump_dir, "fig8", &figure);
    }
    if run_all || options.experiment == "fig9a" {
        let sizes = [1, 2, 5, 10, 20, 30, 40, 50, 75, 100];
        let figure = ensemble_size::fig9a(scale, &sizes, seed);
        println!("{}", ensemble_size::render(&figure));
        write_dump(&options.dump_dir, "fig9a", &figure);
    }
    if run_all || options.experiment == "fig9b" {
        let figure = rejection_curves::fig9b(scale, seed);
        println!("{}", rejection_curves::render(&figure));
        write_dump(&options.dump_dir, "fig9b", &figure);
    }
    if run_all || options.experiment == "headline" {
        match rejection_curves::dvfs_operating_points(scale, seed) {
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
        let diversity = ablations::bootstrap_diversity(scale, seed);
        let platt = ablations::platt_vs_entropy(scale, seed);
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
    fn a_missing_dump_directory_is_rejected() {
        assert_eq!(
            parse("fig4 --dump"),
            Err("`--dump` needs a value".to_string())
        );
    }
}

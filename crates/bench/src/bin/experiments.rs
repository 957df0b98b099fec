//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p hmd_bench --release --bin experiments -- [experiment] [--scale smoke|bench|paper] [--seed N] [--dump DIR]
//! ```
//!
//! `experiment` is one of `table1`, `fig4`, `fig5`, `fig7a`, `fig7b`, `fig8`,
//! `fig9a`, `fig9b`, `headline`, `ablations` or `all` (default).
//!
//! `--dump DIR` writes every figure's raw data as a
//! pretty-printed Rust `Debug` dump, since the offline toolchain has no
//! `serde_json`.

use hmd_bench::{
    ablations, ensemble_size, entropy_boxplots, f1_curves, rejection_curves, table1, tsne_overlap,
    ExperimentScale,
};
use std::path::PathBuf;

struct Options {
    experiment: String,
    scale: ExperimentScale,
    seed: u64,
    dump_dir: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut experiment = "all".to_string();
    let mut scale = ExperimentScale::Bench;
    let mut seed = 2021;
    let mut dump_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_default();
                scale = ExperimentScale::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale `{value}`, using bench");
                    ExperimentScale::Bench
                });
            }
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or(seed);
            }
            "--dump" => dump_dir = args.next().map(PathBuf::from),
            other if !other.starts_with("--") => experiment = other.to_string(),
            other => eprintln!("ignoring unknown flag `{other}`"),
        }
    }
    Options {
        experiment,
        scale,
        seed,
        dump_dir,
    }
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
    let options = parse_args();
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

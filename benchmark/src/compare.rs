//! `compare` and `summary`: judge two sets of runs against the bounds in
//! `BENCHMARK.json`, and summarise one set.
//!
//! A run set is a directory of the per-seed files `run` writes. The rule is
//! the choosing-metrics one: a metric is *better* when the second set wins
//! at least 9 of 10 paired runs and the medians are further apart than the
//! first set's interquartile range; *unresolved* when the first set's own
//! spread exceeds the bound (unless every run of the second set beats every
//! run of the first); otherwise *worse* when the second median is worse by
//! more than the bound, and *unchanged* when it is not.

use crate::measure::{median, quartiles};
use crate::WORKLOADS;
use hmd_codec::Json;
use std::path::Path;
use std::process::ExitCode;

/// One gated metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the first set's median.
    pub bound: f64,
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second set is better, by the 9-of-10 rule.
    Better,
    /// The second set is worse by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The first set's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against set `a`; runs are paired by position.
pub fn verdict(a: &[f64], b: &[f64], gate: &Gate) -> Verdict {
    let (Some([q1, base, q3]), Some(_)) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| {
        if gate.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let candidate = median(b);
    let iqr = q3 - q1;
    if wins * 10 >= pairs * 9 && (candidate - base).abs() > iqr {
        return Verdict::Better;
    }
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if iqr / base.abs() > gate.bound && !all_better {
        return Verdict::Unresolved;
    }
    let worsening = if gate.lower_is_better {
        (candidate - base) / base.abs()
    } else {
        (base - candidate) / base.abs()
    };
    if worsening > gate.bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// The gated metrics of `BENCHMARK.json` at the repository root.
pub fn gates() -> Result<Vec<Gate>, String> {
    let path = crate::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parse = || -> Result<Vec<Gate>, hmd_codec::CodecError> {
        let json = Json::parse(&text)?;
        json.get("end_to_end")?
            .as_array()?
            .iter()
            .map(|m| {
                Ok(Gate {
                    name: m.get("name")?.as_str()?.to_string(),
                    unit: m.get("unit")?.as_str()?.to_string(),
                    lower_is_better: m.get("better")?.as_str()? == "lower",
                    bound: m.get("bound")?.as_f64()?,
                })
            })
            .collect()
    };
    parse().map_err(|e| format!("{}: {e}", path.display()))
}

/// Every run file of a set, in file-name order (so two sets run with the
/// same seeds pair up).
fn load_set(dir: &Path) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The values of one (workload, metric) across a set's runs.
fn values(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|run| {
            run.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok()
        })
        .collect()
}

/// `compare <runs-a> <runs-b>`: one row per (workload, metric). Exits
/// non-zero when any metric got worse.
pub fn compare_main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: hmd_benchmark compare <runs-a> <runs-b>");
        return ExitCode::from(2);
    };
    let loaded = gates().and_then(|g| Ok((g, load_set(Path::new(a))?, load_set(Path::new(b))?)));
    let (gates, set_a, set_b) = match loaded {
        Ok(loaded) => loaded,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<20} {:<15} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "iqr A"
    );
    let mut worse = false;
    for workload in WORKLOADS {
        for gate in &gates {
            let (va, vb) = (
                values(&set_a, workload, &gate.name),
                values(&set_b, workload, &gate.name),
            );
            let verdict = verdict(&va, &vb, gate);
            worse |= verdict == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            let iqr = quartiles(&va).map_or(f64::NAN, |[q1, _, q3]| (q3 - q1) / ma.abs());
            println!(
                "{workload:<20} {:<15} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>6.2}%  {}",
                gate.name,
                (mb - ma) / ma.abs() * 100.0,
                iqr * 100.0,
                verdict.as_str()
            );
        }
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `summary <runs>`: median and quartiles of every gated metric, with the
/// set's provenance, as JSON.
pub fn summary_main(args: &[String]) -> ExitCode {
    let [dir] = args else {
        eprintln!("usage: hmd_benchmark summary <runs>");
        return ExitCode::from(2);
    };
    let loaded = gates().and_then(|g| Ok((g, load_set(Path::new(dir))?)));
    let (gates, set) = match loaded {
        Ok(loaded) => loaded,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // Each distinct value of a provenance field, in run order.
    let field = |key: &str| -> Json {
        let mut seen: Vec<Json> = Vec::new();
        for value in set.iter().filter_map(|run| run.get(key).ok()) {
            if !seen.contains(value) {
                seen.push(value.clone());
            }
        }
        Json::Array(seen)
    };
    let workloads = WORKLOADS
        .iter()
        .map(|&workload| {
            let metrics = gates
                .iter()
                .filter_map(|gate| {
                    let values = values(&set, workload, &gate.name);
                    let [q1, median, q3] = quartiles(&values)?;
                    Some((
                        gate.name.clone(),
                        Json::object(vec![
                            ("unit", Json::Str(gate.unit.clone())),
                            ("median", Json::Float(median)),
                            ("q1", Json::Float(q1)),
                            ("q3", Json::Float(q3)),
                            ("runs", Json::Int(values.len() as i64)),
                        ]),
                    ))
                })
                .collect();
            (workload.to_string(), Json::Object(metrics))
        })
        .collect();
    let summary = Json::object(vec![
        ("runs", Json::Int(set.len() as i64)),
        ("cores", field("cores")),
        ("rev", field("rev")),
        ("seeds", field("seed")),
        ("seconds", field("seconds")),
        ("workloads", Json::Object(workloads)),
    ]);
    println!("{summary}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower_is_better: bool, bound: f64) -> Gate {
        Gate {
            name: "m".into(),
            unit: "us".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ];
        let same = [
            100.2, 100.9, 99.1, 100.4, 99.6, 100.0, 99.7, 100.2, 99.8, 100.4,
        ];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let lower = gate(true, 0.1);
        assert_eq!(verdict(&base, &same, &lower), Verdict::Unchanged);
        assert_eq!(verdict(&base, &faster, &lower), Verdict::Better);
        assert_eq!(verdict(&base, &slower, &lower), Verdict::Worse);
        // For a higher-is-better metric the same shift reads the other way.
        assert_eq!(verdict(&base, &slower, &gate(false, 0.1)), Verdict::Better);
        assert_eq!(verdict(&base, &faster, &gate(false, 0.05)), Verdict::Worse);
        // A spread wider than the bound cannot be resolved.
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, &lower), Verdict::Unresolved);
    }
}

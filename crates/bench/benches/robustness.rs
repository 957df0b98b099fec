//! The threat suite's quality record.
//!
//! Runs [`hmd_bench::robustness::evaluate`] on [`RobustnessConfig::full`]:
//! every attack corpus (mimicry, gradual drift, sensor
//! dropout/saturation/stuck-at) against the trusted, untrusted and Platt
//! pipelines, a perturbation-bounded evasion search, and the closed loop's
//! detection/recovery under gradual drift. Prints the paper-style figure,
//! writes every number, typed, to `BENCH_robustness.json` at the
//! repository root (one row per line, so a diff names the row that moved),
//! then checks the evaluation's acceptance bars.
//!
//! The evaluation is seeded and deterministic: a second run rewrites the
//! committed record byte for byte, and CI fails when it does not.
//!
//! ```text
//! cargo bench -p hmd_bench --bench robustness
//! ```

use hmd_bench::robustness::{
    evaluate, render, AttackReport, DriftLoopReport, EvasionReport, RobustnessConfig,
    RobustnessReport,
};
use hmd_codec::{Json, JsonCodec};

const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_robustness.json");

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

fn main() {
    let config = RobustnessConfig::full();
    let report = evaluate(&config);
    println!("\n{}", render(&report));

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

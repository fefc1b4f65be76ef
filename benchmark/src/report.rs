//! What the benchmark prints and writes: the one-line result of a
//! workload run, result files with their provenance, and `compare`.

use crate::inputs::{SPECS, WAVE};
use crate::json::Json;
use crate::measure::{Outcome, CONNECTIONS, END_TO_END};
use std::collections::BTreeSet;
use std::process::Command;

/// The result line of one workload run: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn result_line(out: &Outcome) -> Json {
    let metrics = out.metrics.iter().map(|m| {
        let entry = Json::obj([
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(m.unit.to_string())),
        ]);
        (m.name.to_string(), entry)
    });
    Json::obj([
        ("correct", Json::Bool(out.violations.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
}

/// Every metric by name with its unit, for people.
pub fn print_table(workload: &str, out: &Outcome) {
    println!("# workload={workload} reps={}", out.reps);
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for v in &out.violations {
        println!("VIOLATION: {v}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a reader needs to judge whether two result files are comparable.
pub fn provenance(seed: u64, seconds: f64) -> Json {
    let txns = SPECS
        .iter()
        .map(|s| (s.name.to_string(), Json::Num(s.txns as f64)));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("txns_per_rep", Json::Obj(txns.collect())),
        ("wave", Json::Num(WAVE as f64)),
        ("connections", Json::Num(CONNECTIONS as f64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ])
}

fn metric_value(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Per workload × end-to-end metric: both values, the relative difference
/// and the bound. Returns the printed rows and how many pairs differ by
/// more than their bound (a pair missing from either file counts).
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, usize) {
    let mut rows = vec![format!(
        "{:<11} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "diff", "bound"
    )];
    let mut beyond = 0;
    let workloads: BTreeSet<&str> = [a, b]
        .iter()
        .filter_map(|f| f.get("workloads")?.as_obj())
        .flat_map(|m| m.keys().map(String::as_str))
        .collect();
    for workload in workloads {
        for m in &END_TO_END {
            let pair = (
                metric_value(a, workload, m.name),
                metric_value(b, workload, m.name),
            );
            let (flag, line) = match pair {
                (Some(x), Some(y)) if x != 0.0 => {
                    let diff = (y - x) / x;
                    (
                        diff.abs() > m.bound,
                        format!("{x:>14.4} {y:>14.4} {:>+7.1}%", diff * 100.0),
                    )
                }
                _ => (true, format!("{:>14} {:>14} {:>8}", "-", "-", "missing")),
            };
            beyond += usize::from(flag);
            rows.push(format!(
                "{workload:<11} {:<22} {line} {:>5.0}%{}",
                m.name,
                m.bound * 100.0,
                if flag { "  BEYOND" } else { "" }
            ));
        }
    }
    (rows, beyond)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Metric;

    fn file(txn_per_s: f64) -> Json {
        let mut out = Outcome {
            attempted: 10,
            reps: 3,
            ..Outcome::default()
        };
        out.metrics = END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: 2.0,
            })
            .collect();
        out.metrics[0].value = txn_per_s;
        Json::obj([
            ("provenance", provenance(1, 1.0)),
            ("workloads", Json::obj([("booking", result_line(&out))])),
        ])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&Outcome {
            attempted: 5,
            violations: vec!["x".to_string()],
            ..Outcome::default()
        });
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn compare_flags_pairs_beyond_their_bound_in_either_direction() {
        let bound = 1000.0 * END_TO_END[0].bound;
        let (rows, beyond) = compare(&file(1000.0), &file(1000.0 + bound - 1.0));
        assert_eq!(beyond, 0, "{rows:#?}");
        assert_eq!(rows.len(), 1 + END_TO_END.len());
        assert_eq!(compare(&file(1000.0), &file(1000.0 + bound + 1.0)).1, 1);
        assert_eq!(compare(&file(1000.0), &file(1000.0 - bound - 1.0)).1, 1);
        // A workload present on one side only is a disagreement.
        let empty = Json::obj([("workloads", Json::obj([]))]);
        assert_eq!(compare(&file(1000.0), &empty).1, END_TO_END.len());
    }

    #[test]
    fn provenance_records_what_the_issue_lists() {
        let p = provenance(7, 12.0);
        for key in [
            "nproc",
            "rustc",
            "commit",
            "seed",
            "seconds",
            "txns_per_rep",
            "wave",
            "connections",
            "profile",
        ] {
            assert!(p.get(key).is_some(), "{key}");
        }
        assert_eq!(p.get("seed").and_then(Json::as_f64), Some(7.0));
    }
}

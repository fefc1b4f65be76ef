//! End-to-end tests of the benchmark itself, at a scale the audited debug
//! build gets through in seconds.

use crate::inputs::{Scale, Spec, SPECS, WAVE};
use crate::json::Json;
use crate::measure::END_TO_END;
use crate::{layers, measure};

fn two_waves(mut spec: Spec) -> Spec {
    spec.txns = 2 * WAVE;
    spec
}

#[test]
fn every_workload_passes_every_correctness_check() {
    for spec in SPECS.map(two_waves) {
        let out = measure::measure(spec, Scale::SMOKE, 5, 0.0);
        assert_eq!(out.violations, Vec::<String>::new(), "{}", spec.name);
        assert_eq!(out.reps, measure::MIN_REPS);
        assert_eq!((out.attempted, out.failed), (out.reps * spec.txns, 0));
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{}", spec.name);
        // End-to-end metrics are never 0: the driver compares ratios.
        for m in &out.metrics {
            assert!(m.value > 0.0, "{} {} = {}", spec.name, m.name, m.value);
        }
    }
}

/// `trace` reports a violation when the phases pass and the real
/// `Scheduler` disagree on the committed count or the canonical database.
#[test]
fn phases_pass_agrees_with_the_scheduler_and_spans_cover_the_waves() {
    for spec in SPECS.map(two_waves) {
        let (out, spans) = layers::trace(spec, Scale::SMOKE, 5);
        assert_eq!(out.violations, Vec::<String>::new(), "{}", spec.name);
        assert_eq!((out.attempted, out.failed), (spec.txns, 0));
        for pass in ["pass.coarse", "pass.phases", "pass.probes"] {
            assert_eq!(spans.iter().filter(|s| s.name == pass).count(), 1);
        }
        let coverage = out
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage_frac")
            .expect("reported");
        assert!(coverage.value > 0.9, "{} {}", spec.name, coverage.value);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    }
}

/// `BENCHMARK.json` is the driver's copy of tables that live in the code.
#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
    let names = |key: &str| -> Vec<String> {
        let Some(Json::Arr(items)) = file.get(key) else {
            panic!("{key} is not a list");
        };
        let name = |i: &Json| i.get("name").and_then(Json::as_str).map(str::to_string);
        items.iter().filter_map(name).collect()
    };
    assert_eq!(names("workloads"), SPECS.map(|s| s.name));

    let Some(Json::Arr(end_to_end)) = file.get("end_to_end") else {
        panic!("end_to_end is not a list");
    };
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, m) in end_to_end.iter().zip(&END_TO_END) {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(listed.get("better").and_then(Json::as_str), Some(better));
        assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(m.bound));
    }

    let (out, _) = layers::trace(two_waves(SPECS[0]), Scale::SMOKE, 5);
    let reported: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names("per_layer"), reported);
    let Some(Json::Arr(per_layer)) = file.get("per_layer") else {
        panic!("per_layer is not a list");
    };
    for (listed, m) in per_layer.iter().zip(&out.metrics) {
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
    }
}

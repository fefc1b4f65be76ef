//! The measured run: end-to-end metrics with tracing off.

use crate::checks::{verify_durability, verify_isolation, verify_outputs};
use crate::driver::{build_engine, drive, Real};
use crate::host::Speed;
use crate::inputs::{generate, Scale, Spec};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;

/// The box has two cores; never more worker threads than cores.
pub const CONNECTIONS: usize = 2;
/// Fewest reps a run reports medians over, however long they take.
pub const MIN_REPS: usize = 3;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// An end-to-end metric: what a user of the system would see, and the
/// share of the parent's median by which it may get worse before a change
/// counts as a regression. `BENCHMARK.json` carries the same table (a unit
/// test keeps them equal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn end_to_end(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// In report order; `measure` fills them in this order.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        higher_is_better: true,
        ..end_to_end("txn_per_s", "txn/s", 0.20)
    },
    end_to_end("wave_ms_p50", "ms", 0.25),
    end_to_end("wave_ms_p95", "ms", 0.25),
    end_to_end("slowdown_x", "x", 0.25),
    end_to_end("recover_ms", "ms", 0.25),
    end_to_end("log_bytes_per_commit", "bytes", 0.02),
    end_to_end("setup_s", "s", 0.25),
    end_to_end("peak_rss_mib", "MiB", 0.20),
];

/// What a run reports, in either mode.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Violated correctness checks; empty means correct.
    pub violations: Vec<String>,
    pub reps: usize,
    /// Lines for people: what each rep measured before the medians.
    pub notes: Vec<String>,
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wave time of the last fifth of waves ÷ that of the first fifth.
pub fn slowdown(wave_ms: &[f64]) -> f64 {
    let fifth = (wave_ms.len() / 5).max(1);
    ratio(
        median(&wave_ms[wave_ms.len() - fifth..]),
        median(&wave_ms[..fifth]),
    )
}

/// Run reps of `spec` on fresh engines until `seconds` of measured time
/// have passed (at least [`MIN_REPS`]), check every rep's outputs, and
/// report each end-to-end metric as a median over the reps. Every time is
/// scaled to the nominal host (see [`crate::host`]).
pub fn measure(spec: Spec, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let inputs = generate(spec, scale, seed);
    let mut out = Outcome::default();
    // One entry per rep, except the restart times, which are pooled.
    let (mut txn_per_s, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let (mut log_bytes, mut setup_s, mut recover_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut waves: Vec<Vec<f64>> = Vec::new();
    let mut peak_rss = 0.0;
    let mut measured_ms = 0.0;
    while out.reps < MIN_REPS || measured_ms < seconds * 1e3 {
        let ((engine, setup), setup_to_nominal) =
            Speed::around(2, || build_engine(spec, &inputs, false));
        let mut pool = Real::new(engine.clone(), CONNECTIONS);
        let rep = drive(spec, &inputs, &mut pool, &mut Tracer::off(), |_, _| {});
        measured_ms += rep.busy_ms();
        if out.reps == 0 {
            // The high-water mark of set-up plus one rep, read before any
            // check has copied the database.
            peak_rss = peak_rss_mib();
        }
        out.violations
            .extend(verify_outputs(spec, &inputs, &engine, &rep));
        out.violations
            .extend(verify_durability(&engine, &mut recover_ms));
        out.attempted += rep.submitted;
        out.failed += rep.failed;
        out.reps += 1;
        out.notes.push(format!(
            "rep {}: {:.0} txn/s and wave p50 {:.2} ms as measured; host reference {:.0} us",
            out.reps,
            ratio(rep.committed as f64, rep.busy_ms() / 1e3),
            median(&rep.wave_ms),
            rep.speed.reference_us()
        ));
        let nominal = rep.nominal_wave_ms();
        txn_per_s.push(ratio(rep.committed as f64, rep.nominal_busy_ms() / 1e3));
        p50.push(median(&nominal));
        p95.push(percentile(&nominal, 95.0));
        log_bytes.push(ratio(rep.log_bytes as f64, rep.committed as f64));
        setup_s.push(setup.as_secs_f64() * setup_to_nominal);
        waves.push(nominal);
    }
    out.violations
        .extend(verify_isolation(spec, scale, seed, CONNECTIONS).violations);
    // Wave `i` does the same work in every rep, so its median across reps
    // drops whatever the host did to one of them: the trend over a rep is
    // read off that profile, not off any single rep.
    let profile: Vec<f64> = (0..inputs.waves.len())
        .map(|i| median(&waves.iter().map(|w| w[i]).collect::<Vec<f64>>()))
        .collect();
    let values = [
        median(&txn_per_s),
        median(&p50),
        median(&p95),
        slowdown(&profile),
        median(&recover_ms),
        median(&log_bytes),
        median(&setup_s),
        peak_rss,
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_compares_last_fifth_to_first_fifth() {
        let flat = vec![2.0; 10];
        assert_eq!(slowdown(&flat), 1.0);
        let growing: Vec<f64> = (1..=10).map(f64::from).collect();
        // median(9, 10) / median(1, 2)
        assert_eq!(slowdown(&growing), 9.5 / 1.5);
        assert_eq!(slowdown(&[3.0]), 1.0);
    }

    #[test]
    fn peak_rss_reads_a_positive_high_water_mark() {
        assert!(peak_rss_mib() > 0.0);
    }
}

//! Regenerate the paper's evaluation figures (§5.2, Figure 6a/b/c) plus the
//! ablations as text tables.
//!
//! ```text
//! repro [fig6a|fig6b|fig6c|ablations|all] [--full]
//! ```
//!
//! `--full` uses a larger transaction count per point (slower, smoother
//! curves). Output mirrors the paper's series: x-value then one column per
//! curve, in seconds.

use std::io::Write;
use youtopia_bench::{run_ablated, run_fig6a, run_fig6b, run_fig6c, Ablation, Scale};
use youtopia_workload::{Family, Structure, WorkloadMode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let scale = if full { Scale::full() } else { Scale::quick() };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match what.as_str() {
        "fig6a" => fig6a(&mut out, &scale),
        "fig6b" => fig6b(&mut out, &scale),
        "fig6c" => fig6c(&mut out, &scale),
        "ablations" => ablations(&mut out, &scale),
        "all" => {
            fig6a(&mut out, &scale);
            fig6b(&mut out, &scale);
            fig6c(&mut out, &scale);
            ablations(&mut out, &scale);
        }
        other => {
            eprintln!("unknown experiment `{other}`; expected fig6a|fig6b|fig6c|ablations|all");
            std::process::exit(2);
        }
    }
}

/// Figure 6(a): six workloads × connection counts.
fn fig6a(out: &mut impl Write, scale: &Scale) {
    writeln!(out, "# Figure 6(a) — Concurrent transactions").unwrap();
    writeln!(
        out,
        "# {} transactions per point; time in seconds (paper: 10000 txns, 20-160s band)",
        scale.txns
    )
    .unwrap();
    let connections = [10usize, 25, 50, 75, 100];
    let series: Vec<(Family, WorkloadMode)> = vec![
        (Family::NoSocial, WorkloadMode::Transactional),
        (Family::Social, WorkloadMode::Transactional),
        (Family::Entangled, WorkloadMode::Transactional),
        (Family::NoSocial, WorkloadMode::QueryOnly),
        (Family::Social, WorkloadMode::QueryOnly),
        (Family::Entangled, WorkloadMode::QueryOnly),
    ];
    write!(out, "{:>12}", "connections").unwrap();
    for (f, m) in &series {
        let suffix = if *m == WorkloadMode::Transactional {
            "T"
        } else {
            "Q"
        };
        write!(out, " {:>12}", format!("{}-{}", f.label(), suffix)).unwrap();
    }
    writeln!(out).unwrap();
    for c in connections {
        write!(out, "{c:>12}").unwrap();
        for (f, m) in &series {
            let p = run_fig6a(scale, *f, *m, c);
            write!(out, " {:>12.3}", p.seconds).unwrap();
            if p.failed > scale.txns / 10 {
                eprintln!("warning: {}-{:?} c={c}: {} failed", f.label(), m, p.failed);
            }
        }
        writeln!(out).unwrap();
        out.flush().unwrap();
    }
    writeln!(out).unwrap();
}

/// Figure 6(b): pending transactions × run frequency.
fn fig6b(out: &mut impl Write, scale: &Scale) {
    writeln!(out, "# Figure 6(b) — Pending transactions").unwrap();
    writeln!(
        out,
        "# {} paired transactions; p pending; f arrivals per run; seconds",
        scale.txns
    )
    .unwrap();
    let ps = [0usize, 10, 25, 50, 75, 100];
    let fs = [1usize, 10, 50];
    write!(out, "{:>8}", "p").unwrap();
    for f in fs {
        write!(out, " {:>10}", format!("f={f}")).unwrap();
    }
    writeln!(out).unwrap();
    for p in ps {
        write!(out, "{p:>8}").unwrap();
        for f in fs {
            let point = run_fig6b(scale, p, f, 50);
            write!(out, " {:>10.3}", point.seconds).unwrap();
        }
        writeln!(out).unwrap();
        out.flush().unwrap();
    }
    writeln!(out).unwrap();
}

/// Figure 6(c): coordinating-set size × structure × run frequency.
fn fig6c(out: &mut impl Write, scale: &Scale) {
    writeln!(out, "# Figure 6(c) — Entangled queries per transaction").unwrap();
    let groups = (scale.txns / 20).max(4);
    writeln!(out, "# {groups} coordination groups per point; seconds").unwrap();
    let ks = [2usize, 3, 4, 5, 6, 7, 8, 9, 10];
    let series = [
        (Structure::SpokeHub, 10usize),
        (Structure::SpokeHub, 50),
        (Structure::Cyclic, 10),
        (Structure::Cyclic, 50),
    ];
    write!(out, "{:>6}", "k").unwrap();
    for (s, f) in &series {
        write!(out, " {:>18}", format!("{}, f={f}", s.label())).unwrap();
    }
    writeln!(out).unwrap();
    for k in ks {
        write!(out, "{k:>6}").unwrap();
        for (s, f) in &series {
            let p = run_fig6c(scale, *s, k, groups, *f, 50);
            write!(out, " {:>18.3}", p.seconds).unwrap();
        }
        writeln!(out).unwrap();
        out.flush().unwrap();
    }
    writeln!(out).unwrap();
}

/// Ablations Ab1–Ab4 (DESIGN.md).
fn ablations(out: &mut impl Write, scale: &Scale) {
    writeln!(
        out,
        "# Ablations (Entangled-T unless noted; seconds; committed/total)"
    )
    .unwrap();
    let total = scale.txns;
    let mut row = |label: &str, p: youtopia_bench::Point, total: usize, note: &str| {
        writeln!(
            out,
            "{label:>32}: {:>8.3}s  {}/{total}{note}",
            p.seconds, p.committed
        )
        .unwrap();
        out.flush().unwrap();
    };
    // Ab1: run trigger — f=1 vs f=50 at a fixed pending load.
    for f in [1usize, 50] {
        let label = format!("run trigger f={f}, p=10 (Ab1)");
        row(&label, run_fig6b(scale, 10, f, 50), total, "");
    }
    let rows: [(&str, Option<Ablation>, Family); 5] = [
        ("baseline (Entangled-T)", None, Family::Entangled),
        (
            "group commit OFF (Ab2)",
            Some(Ablation::GroupCommitOff),
            Family::Entangled,
        ),
        (
            "general solver only (Ab3)",
            Some(Ablation::SolverGeneralOnly),
            Family::Entangled,
        ),
        (
            "table locks, NoSocial (Ab4)",
            Some(Ablation::TableGranularity),
            Family::NoSocial,
        ),
        ("row locks, NoSocial (Ab4 ref)", None, Family::NoSocial),
    ];
    for (label, ab, fam) in rows {
        row(label, run_ablated(scale, ab, fam, 50), total, "");
    }
    // The structural negative result: table locks + entangled pairs.
    let mut tiny = *scale;
    tiny.txns = 4;
    let p = run_ablated(
        &tiny,
        Some(Ablation::TableGranularity),
        Family::Entangled,
        8,
    );
    row(
        "table locks, Entangled (Ab4)",
        p,
        4,
        "  (livelock by design — see DESIGN.md \"Ablations\")",
    );
    writeln!(out).unwrap();
}

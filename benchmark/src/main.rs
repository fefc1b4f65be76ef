//! The repo benchmark: transaction throughput and latency at
//! `CostModel::ZERO` on five workloads, with an outside-in per-layer trace.
//! See README.md in this directory.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run   [--seed <n>] [--seconds <s>] [--out <file>]
//! benchmark trace [--seed <n>] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! ```

mod checks;
mod driver;
mod host;
mod inputs;
mod json;
mod layers;
mod measure;
mod report;
mod rng;
mod stats;
mod trace;

#[cfg(test)]
mod smoke;

use inputs::{Scale, Spec, SPECS};
use json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run   [--seed <n>] [--seconds <s>] [--out <file>]
  benchmark trace [--seed <n>] [--out <file>]
  benchmark compare <a.json> <b.json>
workloads: booking entangled dashboard crossshard hotrows";

const DEFAULT_SECONDS: f64 = 16.0;

/// `--flag value` pairs after the optional sub-command.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{name}: `{v}`")),
        None => default.ok_or_else(|| format!("missing --{name}")),
    }
}

/// Where build outputs go: span files are written beside them.
fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("benchmark")
}

/// A debug build, or an engine with the lock-protocol auditor installed,
/// times something other than the engine: refuse to measure either.
fn refuse_unmeasurable() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    let engine = entangled_txn::Engine::new(driver::engine_config(SPECS[0], false));
    if engine.auditor().is_some() {
        return Err("refusing to measure with the lock-protocol auditor installed".to_string());
    }
    Ok(())
}

/// One workload, one process: the contract the driver runs.
fn run_workload(spec: Spec, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    refuse_unmeasurable()?;
    let out = if traced {
        let (out, spans) = layers::trace(spec, Scale::FULL, seed);
        let dir = target_dir();
        let path = dir.join(format!("trace-{}.jsonl", spec.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                trace::write_jsonl(&spans, &mut w)?;
                std::io::Write::flush(&mut w)
            })
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans={} file={}", spans.len(), path.display());
        out
    } else {
        measure::measure(spec, Scale::FULL, seed, seconds)
    };
    report::print_table(spec.name, &out);
    println!("{}", report::result_line(&out));
    Ok(out.violations.is_empty())
}

/// All five workloads, each in a process of its own (so that `VmHWM` is
/// that workload's), into one result file with its provenance.
fn run_all(traced: bool, flags: &BTreeMap<&str, &str>) -> Result<bool, String> {
    refuse_unmeasurable()?;
    let seed: u64 = parsed(flags, "seed", Some(1))?;
    let seconds: f64 = parsed(flags, "seconds", Some(DEFAULT_SECONDS))?;
    let default_out = target_dir().join(if traced { "trace.json" } else { "run.json" });
    let out_path: PathBuf = parsed(flags, "out", Some(default_out))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = BTreeMap::new();
    let mut all_correct = true;
    for spec in SPECS {
        let child = Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        all_correct &= child.status.success();
        let Some(mut result) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
            return Err(format!("{} printed no result", spec.name));
        };
        let reps = stdout.lines().find_map(|l| {
            l.strip_prefix("# workload=")?
                .split_once("reps=")?
                .1
                .parse()
                .ok()
        });
        if let (Json::Obj(m), Some(reps)) = (&mut result, reps) {
            m.insert("reps".to_string(), Json::Num(reps));
        }
        workloads.insert(spec.name.to_string(), result);
    }
    let file = Json::obj([
        (
            "kind",
            Json::Str(if traced { "trace" } else { "run" }.to_string()),
        ),
        ("provenance", report::provenance(seed, seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, format!("{file}\n"))
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    println!("# results={}", out_path.display());
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("parsing {path}: {e}")))
    };
    let (rows, beyond) = report::compare(&read(a)?, &read(b)?);
    for row in rows {
        println!("{row}");
    }
    println!("{beyond} pair(s) differ by more than their bound");
    Ok(beyond == 0)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(false, &flags(&args[1..])?),
        Some("trace") => run_all(true, &flags(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some(_) => {
            let flags = flags(args)?;
            let name: String = parsed(&flags, "workload", None)?;
            let spec = inputs::spec(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let traced = match parsed::<u8>(&flags, "trace", Some(0))? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            run_workload(
                spec,
                parsed(&flags, "seed", None)?,
                parsed(&flags, "seconds", Some(DEFAULT_SECONDS))?,
                traced,
            )
        }
        None => Err("no arguments".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

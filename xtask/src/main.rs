//! `cargo xtask lint` — the repo's custom source gate.
//!
//! Dependency-free (plain `std`) lexical checks that `rustc`/`clippy`
//! cannot express, enforcing the architectural rules DESIGN.md documents:
//!
//! 1. **Layering DAG** — each workspace crate's `[dependencies]` /
//!    `[dev-dependencies]` may only name the workspace crates below it
//!    (storage never depends on core, the lock manager depends on
//!    nothing, …). Shim crates (`shims/`) are leaf stand-ins for
//!    crates.io packages and are always allowed.
//! 2. **Shim boundary** — `std::sync` blocking primitives (`Mutex`,
//!    `RwLock`, `Condvar`, `Barrier`, `Once`, `OnceLock`, `mpsc`) are
//!    banned in `crates/`; the workspace standardizes on the
//!    `parking_lot` shim so lock behaviour (no poisoning, fairness) is
//!    uniform. `Arc` and the atomics are fine.
//! 3. **WAL call sites** — `Wal::append*`/`publish` may only be called
//!    from the WAL crate itself and the engine's commit/checkpoint paths
//!    (`crates/core/src/engine.rs`). Everything else must go through the
//!    engine, or recovery replays records nobody logged coherently.
//! 4. **Unwrap ratchet** — `.unwrap()`/`.expect(` counts in the
//!    commit/recovery paths (`engine.rs`, `wal/recover.rs`) and the
//!    statement hot path (`executor.rs`, `storage/query.rs`,
//!    `storage/table.rs`, `storage/concurrent.rs`), production code above
//!    the `#[cfg(test)]` line, are capped by `xtask/lint-baseline.txt`;
//!    the baseline may only go down.
//!
//! Exit status is non-zero on any violation, with one line per finding.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        other => {
            eprintln!(
                "usage: cargo xtask lint\n  (got {:?})",
                other.unwrap_or("<nothing>")
            );
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut findings: Vec<String> = Vec::new();
    check_layering(&root, &mut findings);
    check_std_sync(&root, &mut findings);
    check_wal_call_sites(&root, &mut findings);
    check_unwrap_ratchet(&root, &mut findings);
    if findings.is_empty() {
        println!("xtask lint: ok (layering DAG, shim boundary, WAL call sites, unwrap ratchet)");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("lint: {f}");
        }
        eprintln!("xtask lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// `cargo xtask` runs with the workspace root as cwd; fall back to
/// `CARGO_MANIFEST_DIR/..` when invoked directly.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    if cwd.join("crates").is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent")
        .to_path_buf()
}

// ---- rule 1: layering DAG -------------------------------------------------

/// The allowed workspace-internal dependencies, per crate. This *is* the
/// layering DAG from DESIGN.md — edit deliberately.
fn allowed_deps() -> BTreeMap<&'static str, Vec<&'static str>> {
    let mut m = BTreeMap::new();
    // Leaves: no workspace dependencies at all.
    m.insert("youtopia-storage", vec![]);
    m.insert("youtopia-lock", vec![]);
    m.insert("youtopia-isolation", vec![]);
    // Mid layers.
    m.insert("youtopia-sql", vec!["youtopia-storage"]);
    m.insert("youtopia-wal", vec!["youtopia-storage"]);
    m.insert(
        "youtopia-entangle",
        vec!["youtopia-sql", "youtopia-storage"],
    );
    m.insert("youtopia-audit", vec!["youtopia-lock"]);
    // The engine sits on everything below it.
    m.insert(
        "entangled-txn",
        vec![
            "youtopia-audit",
            "youtopia-entangle",
            "youtopia-isolation",
            "youtopia-lock",
            "youtopia-sql",
            "youtopia-storage",
            "youtopia-wal",
        ],
    );
    m.insert("youtopia-workload", vec!["entangled-txn"]);
    m.insert(
        "youtopia-bench",
        vec![
            "entangled-txn",
            "youtopia-entangle",
            "youtopia-lock",
            "youtopia-sql",
            "youtopia-storage",
            "youtopia-wal",
            "youtopia-workload",
        ],
    );
    // The umbrella re-exports every layer by design; xtask depends on
    // nothing.
    m.insert("entangled-transactions", all_workspace_crates());
    m.insert("xtask", vec![]);
    m
}

fn all_workspace_crates() -> Vec<&'static str> {
    vec![
        "youtopia-storage",
        "youtopia-lock",
        "youtopia-audit",
        "youtopia-wal",
        "youtopia-sql",
        "youtopia-entangle",
        "youtopia-isolation",
        "entangled-txn",
        "youtopia-workload",
        "youtopia-bench",
    ]
}

fn check_layering(root: &Path, findings: &mut Vec<String>) {
    let allowed = allowed_deps();
    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
    for entry in list_dir(&root.join("crates")) {
        let m = entry.join("Cargo.toml");
        if m.is_file() {
            manifests.push(m);
        }
    }
    for manifest in manifests {
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            findings.push(format!("{}: unreadable manifest", manifest.display()));
            continue;
        };
        let Some(name) = package_name(&text) else {
            findings.push(format!("{}: no [package] name", manifest.display()));
            continue;
        };
        let Some(allow) = allowed.get(name.as_str()) else {
            findings.push(format!(
                "{}: crate '{name}' is not in the layering DAG (xtask/src/main.rs allowed_deps) — add it deliberately",
                manifest.display()
            ));
            continue;
        };
        for dep in workspace_deps(&text) {
            if !allow.contains(&dep.as_str()) {
                findings.push(format!(
                    "{}: layering violation — '{name}' must not depend on '{dep}'",
                    manifest.display()
                ));
            }
        }
    }
}

fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Workspace-internal crates named in `[dependencies]`/`[dev-dependencies]`
/// (dotted `dependencies.foo` tables included).
fn workspace_deps(manifest: &str) -> Vec<String> {
    let workspace: Vec<&str> = all_workspace_crates();
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]"
                || line == "[dev-dependencies]"
                || line == "[build-dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        if workspace.contains(&key) {
            out.push(key.to_string());
        }
    }
    out
}

// ---- rule 2: std::sync primitive ban --------------------------------------

const BANNED_SYNC: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "OnceCell", "mpsc",
];

fn line_uses_banned_sync(line: &str) -> Option<&'static str> {
    let code = line.split("//").next().unwrap_or(line);
    for (i, _) in code.match_indices("std::sync::") {
        let after = &code[i + "std::sync::".len()..];
        for b in BANNED_SYNC {
            if let Some(tail) = after.strip_prefix(b) {
                // `Once` must not match `OnceLock`-style longer names it
                // doesn't own (the list has them separately).
                if tail.starts_with(char::is_alphanumeric) || tail.starts_with('_') {
                    continue;
                }
                return Some(b);
            }
        }
        // Brace imports: `use std::sync::{Arc, Mutex}`.
        if let Some(group) = after.strip_prefix('{').and_then(|g| g.split('}').next()) {
            for item in group.split(',') {
                let item = item.split_whitespace().next().unwrap_or("");
                let item = item.rsplit("::").next().unwrap_or(item);
                if let Some(b) = BANNED_SYNC.iter().find(|b| item == **b) {
                    return Some(b);
                }
            }
        }
    }
    None
}

fn check_std_sync(root: &Path, findings: &mut Vec<String>) {
    for file in rust_sources(&root.join("crates")) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            if let Some(b) = line_uses_banned_sync(line) {
                findings.push(format!(
                    "{}:{}: std::sync::{b} is banned outside shims/ — use the parking_lot/crossbeam shims",
                    file.strip_prefix(root).unwrap_or(&file).display(),
                    i + 1
                ));
            }
        }
    }
}

// ---- rule 3: WAL call sites -----------------------------------------------

/// Files allowed to call `Wal::append*`/`publish`: the WAL crate itself
/// and the engine's commit/checkpoint paths. (Benches under `benches/`
/// construct private WALs and are outside the `src/` scan by
/// construction.)
fn wal_call_allowed(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    p.starts_with("crates/wal/") || p == "crates/core/src/engine.rs"
}

fn line_calls_wal(line: &str) -> Option<&'static str> {
    let code = line.split("//").next().unwrap_or(line);
    if code.contains(".publish(") {
        return Some("publish");
    }
    if code.contains(".append_sync(") {
        return Some("append_sync");
    }
    // `.append(` alone would catch `Vec::append`; require a wal-ish
    // receiver.
    for pat in [
        "wal.append(",
        "wal().append(",
        "shard(s).append(",
        ".wal.append(",
    ] {
        if code.contains(pat) {
            return Some("append");
        }
    }
    None
}

fn check_wal_call_sites(root: &Path, findings: &mut Vec<String>) {
    for file in rust_sources(&root.join("crates")) {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        if wal_call_allowed(&rel) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            if let Some(which) = line_calls_wal(line) {
                findings.push(format!(
                    "{}:{}: Wal::{which} outside the engine commit/checkpoint paths — route durability through the engine",
                    rel.display(),
                    i + 1
                ));
            }
        }
    }
}

// ---- rule 4: unwrap ratchet -----------------------------------------------

/// `.unwrap()`/`.expect(` occurrences in production code: everything above
/// the file's `#[cfg(test)]` line (the tests module is idiomatic unwrap
/// territory).
fn count_unwraps(text: &str) -> usize {
    let mut n = 0;
    for line in text.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let code = line.split("//").next().unwrap_or(line);
        n += code.matches(".unwrap()").count() + code.matches(".expect(").count();
    }
    n
}

fn check_unwrap_ratchet(root: &Path, findings: &mut Vec<String>) {
    let baseline_path = root.join("xtask/lint-baseline.txt");
    let Ok(baseline) = std::fs::read_to_string(&baseline_path) else {
        findings.push(format!(
            "{}: missing ratchet baseline",
            baseline_path.display()
        ));
        return;
    };
    for line in baseline.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rel), Some(cap)) = (parts.next(), parts.next()) else {
            findings.push(format!("lint-baseline.txt: malformed line '{line}'"));
            continue;
        };
        let Ok(cap): Result<usize, _> = cap.parse() else {
            findings.push(format!("lint-baseline.txt: bad count in '{line}'"));
            continue;
        };
        let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
            findings.push(format!("lint-baseline.txt: '{rel}' not found"));
            continue;
        };
        let actual = count_unwraps(&text);
        if actual > cap {
            findings.push(format!(
                "{rel}: unwrap ratchet regressed — {actual} production `.unwrap()`/`.expect(` sites vs baseline {cap}; propagate errors instead"
            ));
        } else if actual < cap {
            println!(
                "xtask lint: note — {rel} is below its ratchet baseline ({actual} < {cap}); tighten xtask/lint-baseline.txt"
            );
        }
    }
}

// ---- fs helpers -----------------------------------------------------------

fn list_dir(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    out.sort();
    out
}

/// Every `.rs` file under `crates/*/src`, recursively (tests/ and
/// benches/ trees are intentionally out of scope: they exercise internals
/// directly by design).
fn rust_sources(crates_dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for krate in list_dir(crates_dir) {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out);
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for p in list_dir(dir) {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banned_sync_detection() {
        assert_eq!(
            line_uses_banned_sync("use std::sync::Mutex;"),
            Some("Mutex")
        );
        assert_eq!(
            line_uses_banned_sync("use std::sync::{Arc, RwLock};"),
            Some("RwLock")
        );
        assert_eq!(
            line_uses_banned_sync("let (tx, rx) = std::sync::mpsc::channel();"),
            Some("mpsc")
        );
        assert_eq!(line_uses_banned_sync("use std::sync::Arc;"), None);
        assert_eq!(
            line_uses_banned_sync("use std::sync::atomic::{AtomicU64, Ordering};"),
            None
        );
        // `OnceLock` is banned as itself, not via the `Once` prefix.
        assert_eq!(
            line_uses_banned_sync("static X: std::sync::OnceLock<u8> = ..."),
            Some("OnceLock")
        );
        assert_eq!(
            line_uses_banned_sync("// std::sync::Mutex in a comment"),
            None
        );
    }

    #[test]
    fn wal_call_detection() {
        assert_eq!(line_calls_wal("self.wal.publish(&batch);"), Some("publish"));
        assert_eq!(
            line_calls_wal("wal.append_sync(rec)?;"),
            Some("append_sync")
        );
        assert_eq!(line_calls_wal("self.wal.append(rec);"), Some("append"));
        assert_eq!(line_calls_wal("buckets[s].append(&mut t.redo);"), None);
        assert_eq!(line_calls_wal("out.append(&mut other);"), None);
    }

    #[test]
    fn unwrap_counting_stops_at_tests() {
        let text = "a.unwrap();\nb.expect(\"x\");\n#[cfg(test)]\nmod tests { c.unwrap(); }\n";
        assert_eq!(count_unwraps(text), 2);
        assert_eq!(count_unwraps("x.unwrap() // y.unwrap()\n"), 1);
    }

    #[test]
    fn manifest_parsing() {
        let m = "[package]\nname = \"youtopia-wal\"\n\n[dependencies]\nbytes.workspace = true\nyoutopia-storage.workspace = true\n\n[dev-dependencies]\nentangled-txn = { path = \"x\" }\n";
        assert_eq!(package_name(m).as_deref(), Some("youtopia-wal"));
        assert_eq!(
            workspace_deps(m),
            vec!["youtopia-storage".to_string(), "entangled-txn".to_string()]
        );
    }

    #[test]
    fn layering_dag_is_acyclic() {
        // The allowlist itself must be a DAG — otherwise the lint would
        // bless a cycle.
        let allowed = allowed_deps();
        fn visit(
            n: &str,
            allowed: &BTreeMap<&'static str, Vec<&'static str>>,
            path: &mut Vec<String>,
        ) {
            assert!(
                !path.iter().any(|p| p == n),
                "cycle in layering DAG: {path:?} -> {n}"
            );
            // The umbrella legitimately closes over everything; skip it
            // as a dependency target (nothing depends on it).
            path.push(n.to_string());
            for d in allowed.get(n).map(|v| v.as_slice()).unwrap_or(&[]) {
                visit(d, allowed, path);
            }
            path.pop();
        }
        for k in allowed.keys() {
            if *k == "entangled-transactions" {
                continue;
            }
            visit(k, &allowed, &mut Vec::new());
        }
    }
}

//! `cargo xtask reach` — report the `pub fn`s under `crates/*/src` that no
//! binary reaches (DESIGN.md §4j).
//!
//! It builds the audit's call graph ([`crate::audit`]'s parser and its
//! name-based resolution, unchanged) over three kinds of source:
//!
//! - *library*: exactly what the audit scans (non-exempt `crates/*/src`
//!   minus binaries). Only these functions are classified.
//! - *roots*: every binary target — `src/bin/*`, `crates/*/src/bin/*`,
//!   `crates/xtask/src/main.rs`, and the benchmark's `benchmark/src`
//!   (read, never written). Every function in them is a root.
//! - *tests*: `tests/`, `examples/`, `crates/*/{tests,examples,benches}`,
//!   and the `#[cfg(test)]` items of the two sets above.
//!
//! A library `pub fn` no root reaches is listed as *reached only from
//! tests/examples* when a test reaches it, else as *reached by nothing*.
//! Two kinds are never listed, because the graph cannot see their callers:
//! methods of `impl Trait for Type` blocks (called through dispatch; they
//! also count as roots), and functions named in the graph's
//! [`NO_RESOLVE`] list (`len`, `is_empty`, `get`, ..., whose unqualified
//! calls it never resolves). The audit's other false-negative classes
//! turn into false findings here: a call through a module path
//! (`analyze::f(..)`) or a function passed by name (`map(Self::f)`) adds
//! no edge. Read a finding before deleting it. The report never fails the
//! run.

use std::path::{Path, PathBuf};

use crate::audit::graph::{Graph, NO_RESOLVE};
use crate::audit::parse::{parse_file, FnDef};
use crate::lexer;

/// Classify the `pub fn`s of `library`; every file is a
/// `(workspace-relative path, text)` pair.
pub fn report(
    library: &[(String, String)],
    roots: &[(String, String)],
    tests: &[(String, String)],
) -> String {
    // Marker syntax is the audit's to report; reach reads only the graph.
    let mut errs = Vec::new();
    let mut fns: Vec<FnDef> = Vec::new();
    for (rel, text) in library {
        fns.extend(parse_file(rel, text, &mut errs));
    }
    let n_lib = fns.len();
    for (rel, text) in roots {
        fns.extend(parse_file(rel, text, &mut errs));
    }
    let n_shipped = fns.len();
    for (rel, text) in tests {
        fns.extend(parse_file(rel, text, &mut errs));
    }
    for (rel, text) in library.iter().chain(roots) {
        fns.extend(parse_file(rel, &cfg_test_view(text), &mut errs));
    }

    let is_root = |i: &usize| *i >= n_lib || fns[*i].trait_impl;
    let shipped = Graph::build(&fns[..n_shipped]).reachable((0..n_shipped).filter(is_root));
    let any = Graph::build(&fns).reachable((0..fns.len()).filter(is_root));

    let (mut dead, mut test_only) = (String::new(), String::new());
    let (mut n_dead, mut n_test_only, mut n_pub) = (0, 0, 0);
    for (i, f) in fns[..n_lib].iter().enumerate() {
        if !f.public || f.trait_impl || NO_RESOLVE.contains(&f.name.as_str()) {
            continue;
        }
        n_pub += 1;
        if shipped[i] {
            continue;
        }
        let row = format!("  {}:{}  {}\n", f.file, f.line, f.short());
        if any[i] {
            n_test_only += 1;
            test_only.push_str(&row);
        } else {
            n_dead += 1;
            dead.push_str(&row);
        }
    }
    format!(
        "reached by nothing ({n_dead}):\n{dead}\
         reached only from tests/examples ({n_test_only}):\n{test_only}\
         xtask reach: {n_pub} pub fns, {} reached from a binary (report only)\n",
        n_pub - n_dead - n_test_only
    )
}

/// `text` with everything outside its `#[cfg(test)]` items blanked and the
/// attributes themselves dropped, so the parser (which skips test items)
/// reads the test code as ordinary code. Line numbers are kept.
fn cfg_test_view(text: &str) -> String {
    lexer::preprocess(text)
        .iter()
        .map(|l| {
            let attr = l.code.trim_start().starts_with("#[cfg(");
            if l.in_test_cfg && !attr {
                l.raw.as_str()
            } else {
                ""
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every `.rs` file under `entries` (directories or single files), read
/// and sorted by workspace-relative path.
fn load(root: &Path, entries: &[PathBuf]) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    for e in entries {
        if e.is_file() {
            paths.push(e.clone());
        } else {
            crate::collect_rs_files(e, &mut paths);
        }
    }
    let mut files: Vec<(String, String)> = paths
        .iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .ok()?
                .to_string_lossy()
                .replace('\\', "/");
            Some((rel, std::fs::read_to_string(p).ok()?))
        })
        .collect();
    files.sort();
    files
}

/// Entry point for `cargo xtask reach`.
pub fn run(args: &[String], root: &Path) -> i32 {
    if let Some(arg) = args.first() {
        eprintln!("usage: cargo xtask reach (takes no flags; got `{arg}`)");
        return 2;
    }
    let crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    let mut bins = vec![
        root.join("src/bin"),
        root.join("crates/xtask/src/main.rs"),
        root.join("benchmark/src"),
    ];
    let mut tests = vec![root.join("tests"), root.join("examples")];
    for c in &crates {
        bins.push(c.join("src/bin"));
        tests.extend(["tests", "examples", "benches"].map(|d| c.join(d)));
    }
    print!(
        "{}",
        report(
            &crate::audit::load_workspace(root),
            &load(root, &bins),
            &load(root, &tests)
        )
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str, text: &str) -> Vec<(String, String)> {
        vec![(format!("fixtures/reach/{name}"), text.to_string())]
    }

    #[test]
    fn fixture_report_matches_golden_output() {
        let out = report(
            &fixture("lib.rs", include_str!("../fixtures/reach/lib.rs")),
            &fixture("bin.rs", include_str!("../fixtures/reach/bin.rs")),
            &fixture("test.rs", include_str!("../fixtures/reach/test.rs")),
        );
        let expected = include_str!("../fixtures/reach/expected.txt");
        assert_eq!(out, expected, "\n--- actual ---\n{out}");
    }
}

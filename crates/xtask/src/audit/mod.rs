//! `cargo xtask audit` — call-graph static analyzer that proves annotated
//! hot-path roots transitively satisfy `no_alloc` / `no_panic` / `no_block`
//! invariants (DESIGN.md §4j).
//!
//! Pipeline: [`parse`] every non-exempt source file into function
//! definitions (markers, calls, sinks) → assemble the [`graph`] → BFS from
//! each root, collecting reachable sinks for its declared [`invariants`] →
//! filter through the reviewed [`allowlist`] (`audit-allowlist.toml`) →
//! [`render`] surviving violations as root → site call chains. Allowlist
//! entries that match no reachable site are *stale* and fail the run.
//!
//! `--self-check` seeds violations into the committed tree (an `unwrap()`
//! into a `no_panic` root, a `Vec::push` into a `no_alloc` root, a bogus
//! allowlist entry) and asserts each one fails — proving the analyzer
//! still has teeth before CI trusts its OK.

mod allowlist;
pub(crate) mod graph;
mod invariants;
pub(crate) mod parse;
mod render;

use std::path::Path;

use graph::Graph;
use parse::FnDef;

/// Result of auditing one set of sources against one allowlist.
pub struct Outcome {
    /// Rendered failure text; empty when the audit is clean.
    pub report: String,
    /// Summary counters for the OK line.
    pub fns: usize,
    pub roots: usize,
    pub violations: usize,
    pub suppressed: usize,
}

/// Audit in-memory sources. `files` are `(workspace-relative path, text)`.
pub fn audit_sources(files: &[(String, String)], allowlist_text: &str) -> Outcome {
    let mut report = String::new();

    let mut marker_errors = Vec::new();
    let mut fns: Vec<FnDef> = Vec::new();
    for (rel, text) in files {
        fns.extend(parse::parse_file(rel, text, &mut marker_errors));
    }
    for e in &marker_errors {
        report.push_str(&format!("audit: {}:{}: {}\n", e.file, e.line, e.msg));
    }

    let entries = match allowlist::parse(allowlist_text) {
        Ok(es) => es,
        Err(msg) => {
            report.push_str(&format!("audit: {msg}\n"));
            Vec::new()
        }
    };

    let g = Graph::build(&fns);
    let raw = g.check_all();
    let mut matcher = allowlist::Matcher::new(&entries);
    let mut surviving = Vec::new();
    let mut suppressed = 0usize;
    for v in raw {
        let sink_fn = &fns[*v.chain.last().unwrap()];
        let site = &sink_fn.sites[v.site];
        if matcher.allows(&sink_fn.id(), v.invariant, site.pattern) {
            suppressed += 1;
        } else {
            surviving.push(v);
        }
    }
    report.push_str(&render::report(&g, &surviving));
    for e in matcher.stale() {
        report.push_str(&format!(
            "audit: stale allowlist entry (line {}): `{}` / {} (\"{}\") matches no \
             reachable site — remove it or fix the function id\n",
            e.line, e.function, e.invariant, e.reason
        ));
    }

    let roots = g.roots().len();
    Outcome {
        report,
        fns: fns.len(),
        roots,
        violations: surviving.len(),
        suppressed,
    }
}

/// Load every auditable source file, sorted by path for determinism.
pub(crate) fn load_workspace(root: &Path) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    crate::collect_rs_files(&root.join("crates"), &mut paths);
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if crate::is_exempt_path(&rel) {
            continue;
        }
        // CLI frontends are not hot paths and their helper names (`row`,
        // `main`, ...) would otherwise become bogus resolution targets for
        // library method calls.
        if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
            continue;
        }
        if let Ok(text) = std::fs::read_to_string(&path) {
            files.push((rel, text));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

fn load_allowlist(root: &Path) -> String {
    std::fs::read_to_string(root.join("audit-allowlist.toml")).unwrap_or_default()
}

/// Entry point for `cargo xtask audit [--self-check]`.
pub fn run(args: &[String], root: &Path) -> i32 {
    if args.iter().any(|a| a == "--self-check") {
        return self_check(root);
    }
    if let Some(unknown) = args.iter().find(|a| a.as_str() != "--self-check") {
        eprintln!("usage: cargo xtask audit [--self-check] (got `{unknown}`)");
        return 2;
    }
    let files = load_workspace(root);
    let out = audit_sources(&files, &load_allowlist(root));
    if out.report.is_empty() {
        println!(
            "xtask audit: OK — {} roots clean ({} fns scanned, {} allowlisted site(s))",
            out.roots, out.fns, out.suppressed
        );
        0
    } else {
        eprint!("{}", out.report);
        eprintln!("xtask audit: {} violation(s)", out.violations.max(1));
        1
    }
}

/// Insert `stmt` right after the body-opening brace of the function
/// declared at 1-based `fn_line`. Returns the modified text, or `None` if
/// no opening brace is found within the signature.
fn inject_into_fn(text: &str, fn_line: usize, stmt: &str) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut i = fn_line.checked_sub(1)?;
    // Walk forward from the `fn` line to the first line with a `{`
    // (handles multi-line signatures). Signature lines don't contain
    // braces in strings/comments in this tree.
    while i < lines.len() && !lines[i].contains('{') {
        i += 1;
    }
    let brace = lines.get(i)?.find('{')?;
    let mut out = String::new();
    for (j, l) in lines.iter().enumerate() {
        if j == i {
            out.push_str(&l[..=brace]);
            out.push_str(stmt);
            out.push_str(&l[brace + 1..]);
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    Some(out)
}

/// Find a root declaring `inv` in the parsed workspace; returns
/// `(file index, fn line, short name)` of the first match in path order.
/// Roots the allowlist `allow` names are passed over: one of their own
/// entries could suppress the very sink the self-check seeds.
fn find_root_declaring(
    files: &[(String, String)],
    inv: invariants::Invariant,
    allow: &str,
) -> Option<(usize, usize, String)> {
    let mut errs = Vec::new();
    for (fi, (rel, text)) in files.iter().enumerate() {
        for f in parse::parse_file(rel, text, &mut errs) {
            let id = format!("\"{rel}::{}\"", f.short());
            if f.markers.contains(&inv) && !allow.contains(&id) {
                return Some((fi, f.line, f.short()));
            }
        }
    }
    None
}

/// Negative tests on the *real* tree: seeded violations must fail.
fn self_check(root: &Path) -> i32 {
    let files = load_workspace(root);
    let allow = load_allowlist(root);
    let mut failed = false;

    // 0. The committed tree must be clean (same check CI runs, but the
    //    seeded cases below are only meaningful against a clean baseline).
    let base = audit_sources(&files, &allow);
    if base.report.is_empty() {
        println!(
            "self-check: committed tree audits clean ({} roots) ... ok",
            base.roots
        );
    } else {
        eprint!("{}", base.report);
        eprintln!("self-check: committed tree is NOT clean");
        failed = true;
    }

    // 1 + 2. Seed an `unwrap()` into a no_panic root and a `Vec::push`
    //        into a no_alloc root; the audit must fail with a chain that
    //        names the root.
    let seeds = [
        (
            invariants::Invariant::NoPanic,
            " let __seed: Option<u32> = None; __seed.unwrap();",
            "unwrap",
        ),
        (
            invariants::Invariant::NoAlloc,
            " __seed_buf.push(0f32);",
            "push",
        ),
    ];
    for (inv, stmt, pattern) in seeds {
        let Some((fi, line, name)) = find_root_declaring(&files, inv, &allow) else {
            eprintln!("self-check: no root declares {inv} — annotate one");
            failed = true;
            continue;
        };
        let Some(mutated) = inject_into_fn(&files[fi].1, line, stmt) else {
            eprintln!("self-check: could not inject into {name}");
            failed = true;
            continue;
        };
        let mut seeded = files.clone();
        seeded[fi].1 = mutated;
        let out = audit_sources(&seeded, &allow);
        if out.report.contains(pattern) && out.report.contains(&name) {
            println!("self-check: seeded `{pattern}` in {name} ({inv}) is caught ... ok");
        } else {
            eprintln!(
                "self-check: seeded `{pattern}` in {name} was NOT caught; report:\n{}",
                out.report
            );
            failed = true;
        }
    }

    // 3. A stale allowlist entry must fail the run.
    let stale = format!(
        "{allow}\n[[allow]]\nfunction = \"crates/none/src/lib.rs::nonexistent\"\n\
         invariant = \"no_panic\"\nreason = \"self-check: deliberately stale entry\"\n"
    );
    let out = audit_sources(&files, &stale);
    if out.report.contains("stale allowlist entry") {
        println!("self-check: stale allowlist entry is rejected ... ok");
    } else {
        eprintln!("self-check: stale allowlist entry was NOT rejected");
        failed = true;
    }

    if failed {
        1
    } else {
        println!("xtask audit --self-check: OK");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_files() -> Vec<(String, String)> {
        vec![
            (
                "fixtures/audit/engine.rs".to_string(),
                include_str!("../../fixtures/audit/engine.rs").to_string(),
            ),
            (
                "fixtures/audit/model.rs".to_string(),
                include_str!("../../fixtures/audit/model.rs").to_string(),
            ),
        ]
    }

    const FIXTURE_ALLOW: &str = include_str!("../../fixtures/audit/allowlist.toml");

    #[test]
    fn fixture_report_matches_golden_output() {
        let out = audit_sources(&fixture_files(), FIXTURE_ALLOW);
        let expected = include_str!("../../fixtures/audit/expected.txt");
        assert_eq!(out.report, expected, "\n--- actual ---\n{}", out.report);
        assert_eq!(out.suppressed, 1, "the assert! exception should be used");
    }

    #[test]
    fn fixture_allowlist_staleness_fails() {
        let stale = format!(
            "{FIXTURE_ALLOW}\n[[allow]]\nfunction = \"fixtures/audit/model.rs::Model::gone\"\n\
             invariant = \"no_alloc\"\nreason = \"no longer matches anything here\"\n"
        );
        let out = audit_sources(&fixture_files(), &stale);
        assert!(out.report.contains("stale allowlist entry"));
        assert!(out.report.contains("Model::gone"));
    }

    #[test]
    fn marker_syntax_errors_are_reported() {
        let files = vec![(
            "crates/demo/src/lib.rs".to_string(),
            "// audit: no_allocs\nfn f() {}\n".to_string(),
        )];
        let out = audit_sources(&files, "");
        assert!(out.report.contains("unknown invariant `no_allocs`"));
    }

    #[test]
    fn allowlist_parse_errors_are_reported() {
        let out = audit_sources(&[], "[[allow]]\nfunction = \"f\"\n");
        assert!(out.report.contains("missing `invariant`"));
    }

    #[test]
    fn injection_lands_inside_the_body() {
        let src = "fn long(\n    a: usize,\n) -> usize {\n    a\n}\n";
        let got = inject_into_fn(src, 1, " seeded.unwrap();").unwrap();
        assert!(got.contains(") -> usize { seeded.unwrap();"));
    }

    #[test]
    fn workspace_audits_clean() {
        let root = crate::workspace_root();
        let files = load_workspace(&root);
        let out = audit_sources(&files, &load_allowlist(&root));
        assert!(
            out.report.is_empty(),
            "workspace audit violations:\n{}",
            out.report
        );
        assert!(out.roots > 0, "expected annotated roots in the workspace");
    }
}

//! `cargo xtask lint` — workspace concurrency-hygiene lint.
//!
//! A deliberately simple, dependency-free text scanner (no `syn` in this
//! offline workspace) that enforces the rules DESIGN.md §4e commits to:
//!
//! 1. **SAFETY comments** — every `unsafe` keyword (block, fn, impl) must
//!    have a `// SAFETY:` comment on the same line or in the contiguous
//!    comment/attribute run above it.
//! 2. **Ordering allowlist** — `Ordering::{Relaxed,Acquire,Release,AcqRel,
//!    SeqCst}` may appear only in the audited concurrency modules
//!    ([`ORDERING_ALLOWLIST`]), and every use site must have a nearby
//!    comment justifying the chosen ordering (within
//!    [`ORDERING_COMMENT_WINDOW`] lines — one comment may cover a short
//!    cluster of sites, e.g. a CAS loop).
//! 3. **Supervised spawning** — `thread::spawn` / `thread::Builder` only in
//!    the supervision layer (`crates/core/src/engine_threads.rs`); workers
//!    must be started (and joined, panic-watched) there.
//! 4. **No unwrap on channel results** — `.send()/.recv()/...` results in
//!    non-test code must be handled, not `.unwrap()`/`.expect()`ed: a dead
//!    peer is an expected event the fault-tolerance layer handles.
//! 5. **SIMD target-feature** — any function whose body calls an x86 SIMD
//!    intrinsic (`_mm…`/`_mm256…`) must be annotated `#[target_feature]`:
//!    combined with rule 1 this means every unsafe SIMD block carries both
//!    a SAFETY comment *and* sits under an explicit feature gate, so a
//!    refactor can never silently move AVX2 code onto an unguarded path.
//!
//! Test code (`tests/`, `benches/`, `examples/`, `#[cfg(test)]` modules),
//! the vendored shims, and xtask itself are exempt. Run `cargo xtask lint
//! --self-check` to verify every rule still fires on seeded violations.

use std::fmt;
use std::path::{Path, PathBuf};

mod audit;
mod lexer;
mod reach;

use lexer::{has_word, preprocess, Line};

/// Files (workspace-relative, `/`-separated) whose *paths* are allowed to
/// contain atomic `Ordering::` uses. Everything else must use higher-level
/// primitives from these modules.
const ORDERING_ALLOWLIST: &[&str] = &[
    "crates/mq/src/",            // lock-free queue + channels (loom-checked)
    "crates/nn/src/shared.rs",   // Hogwild shared model (loom-checked)
    "crates/nn/src/sync.rs",     // atomic facade for the above
    "crates/trace/src/",         // monitoring counters/gauges (relaxed-only)
    "crates/gpu/src/device.rs",  // batch-lineage slot (relaxed-only)
    "crates/tensor/src/simd.rs", // write-once dispatch memo (relaxed-only)
    "crates/metrics/src/",       // histogram tallies (relaxed-only)
    "crates/flight/src/",        // health watchdog counters/peaks (relaxed-only)
];

/// The one place allowed to start OS threads: the worker supervision layer.
const SPAWN_ALLOWLIST: &[&str] = &["crates/core/src/engine_threads.rs"];

/// How many lines above an `Ordering::` use a justification comment may
/// sit. Generous on purpose: one comment may justify a small cluster
/// (load + CAS-loop retry sites).
const ORDERING_COMMENT_WINDOW: usize = 10;

/// Keywords that mark a comment as an ordering justification.
const ORDERING_KEYWORDS: &[&str] = &[
    "Relaxed", "Acquire", "Release", "AcqRel", "SeqCst", "ordering", "Ordering",
];

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.iter().any(|a| a == "--self-check") => self_check(),
        Some("lint") => run_lint(),
        Some("audit") => {
            std::process::exit(audit::run(&args[1..], &workspace_root()));
        }
        Some("reach") => {
            std::process::exit(reach::run(&args[1..], &workspace_root()));
        }
        _ => {
            eprintln!("usage: cargo xtask <lint [--self-check] | audit [--self-check] | reach>");
            std::process::exit(2);
        }
    }
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask manifest has a workspace root two levels up")
        .to_path_buf()
}

fn run_lint() {
    let root = workspace_root();
    let violations = lint_workspace(&root);
    if violations.is_empty() {
        println!("xtask lint: OK");
        return;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("xtask lint: {} violation(s)", violations.len());
    std::process::exit(1);
}

/// Lint every non-exempt `.rs` file under `crates/*/src`.
fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    let mut violations = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if is_exempt_path(&rel) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        violations.extend(lint_source(&rel, &text));
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    violations
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whole-path exemptions: only library/binary sources are linted.
fn is_exempt_path(rel: &str) -> bool {
    !rel.contains("/src/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("shims/")
        || rel.starts_with("crates/xtask/")
}

/// Lint a single file's contents. `rel` is the workspace-relative path used
/// both for reporting and for the allowlists.
fn lint_source(rel: &str, text: &str) -> Vec<Violation> {
    let lines = preprocess(text);
    let mut out = Vec::new();

    let ordering_allowed = ORDERING_ALLOWLIST.iter().any(|p| rel.starts_with(p));
    let spawn_allowed = SPAWN_ALLOWLIST.contains(&rel);

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if line.in_test_cfg {
            continue;
        }
        let code = line.code.as_str();

        // Rule 1: SAFETY comment on every `unsafe`.
        if has_word(code, "unsafe") && !safety_comment_nearby(&lines, i) {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: "safety-comment",
                msg: "`unsafe` without a `// SAFETY:` comment on the line or in the comment run above".into(),
            });
        }

        // Rule 2: Ordering allowlist + justification comment.
        if code.contains("Ordering::") {
            if !ordering_allowed {
                out.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "ordering-allowlist",
                    msg: "atomic Ordering used outside the audited concurrency modules".into(),
                });
            } else if !ordering_comment_nearby(&lines, i) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "ordering-justified",
                    msg: format!(
                        "Ordering use without a justification comment within {ORDERING_COMMENT_WINDOW} lines"
                    ),
                });
            }
        }

        // Rule 3: spawning only in the supervision layer.
        if !spawn_allowed && (code.contains("thread::spawn") || code.contains("thread::Builder")) {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: "supervised-spawn",
                msg:
                    "thread spawn outside the supervision layer (crates/core/src/engine_threads.rs)"
                        .into(),
            });
        }

        // Rule 5: SIMD intrinsics only inside `#[target_feature]` fns.
        if uses_simd_intrinsic(code) && !enclosing_fn_has_target_feature(&lines, i) {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: "simd-target-feature",
                msg: "SIMD intrinsic used in a function without a `#[target_feature]` attribute"
                    .into(),
            });
        }

        // Rule 4: no unwrap/expect on channel operation results.
        if let Some(op) = channel_unwrap(code) {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: "channel-unwrap",
                msg: format!(
                    "`.{op}(..)` result unwrapped; handle disconnects explicitly in worker code"
                ),
            });
        }
    }
    out
}

/// True when the (comment-stripped) code calls an x86 SIMD intrinsic:
/// an identifier starting with `_mm` at a word boundary (`_mm_add_ps`,
/// `_mm256_fmadd_ps`, …).
fn uses_simd_intrinsic(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("_mm") {
        let at = start + pos;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .last()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        start = at + 3;
    }
    false
}

/// Walk up from line `i` to the nearest `fn` declaration and check the
/// contiguous attribute/comment run above it for `#[target_feature`.
/// (Closures cannot carry the attribute, so an intrinsic inside a closure
/// is attributed to — and must be inside — a `#[target_feature]` fn.)
fn enclosing_fn_has_target_feature(lines: &[Line], i: usize) -> bool {
    let mut j = i + 1;
    while j > 0 {
        j -= 1;
        if !has_word(&lines[j].code, "fn") {
            continue;
        }
        // Found the declaration; scan its attribute run.
        let mut k = j;
        while k > 0 {
            k -= 1;
            let code = lines[k].code.trim();
            if code.starts_with("#[") {
                if code.contains("target_feature") {
                    return true;
                }
            } else if !code.is_empty() {
                return false;
            }
        }
        return false;
    }
    false
}

/// A `// SAFETY:` comment counts if it is on the same line or anywhere in
/// the contiguous run of comment/attribute/empty lines directly above.
fn safety_comment_nearby(lines: &[Line], i: usize) -> bool {
    if lines[i].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        let code = line.code.trim();
        let is_pure_annotation = code.is_empty() || code.starts_with("#[");
        if line.comment.contains("SAFETY:") {
            return true;
        }
        if !is_pure_annotation {
            return false;
        }
    }
    false
}

/// An ordering justification comment within the window above (or on the
/// same line): any comment mentioning an ordering keyword.
fn ordering_comment_nearby(lines: &[Line], i: usize) -> bool {
    let lo = i.saturating_sub(ORDERING_COMMENT_WINDOW);
    lines[lo..=i]
        .iter()
        .any(|l| ORDERING_KEYWORDS.iter().any(|k| l.comment.contains(k)))
}

/// Detects `.send(..).unwrap()` style patterns on a single line; returns
/// the channel operation name.
fn channel_unwrap(code: &str) -> Option<&'static str> {
    const OPS: &[&str] = &["try_send", "send", "try_recv", "recv_timeout", "recv"];
    for op in OPS {
        let needle = format!(".{op}(");
        let mut start = 0;
        while let Some(pos) = code[start..].find(&needle) {
            let at = start + pos + needle.len();
            // Skip to the matching close paren of the call.
            let mut depth = 1;
            let mut k = at;
            let bytes: Vec<char> = code[at..].chars().collect();
            let mut idx = 0;
            while idx < bytes.len() && depth > 0 {
                match bytes[idx] {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                idx += 1;
            }
            k += idx;
            let rest = code[k..].trim_start();
            if rest.starts_with(".unwrap()") || rest.starts_with(".expect(") {
                return Some(op);
            }
            start = at;
        }
    }
    None
}

/// Seeded violations: every rule must fire on its snippet, and a clean
/// snippet must produce nothing.
fn self_check() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "safety-comment",
            "crates/demo/src/lib.rs",
            "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
        ),
        (
            "ordering-allowlist",
            "crates/demo/src/lib.rs",
            "// Relaxed: because.\nfn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n",
        ),
        (
            "ordering-justified",
            "crates/mq/src/demo.rs",
            "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n",
        ),
        (
            "supervised-spawn",
            "crates/demo/src/lib.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        ),
        (
            "channel-unwrap",
            "crates/demo/src/lib.rs",
            "fn f(tx: &Sender<u8>) { tx.send(1).unwrap(); }\n",
        ),
        (
            "simd-target-feature",
            "crates/demo/src/lib.rs",
            "// SAFETY: covered.\nunsafe fn f(p: *const f32) { _mm256_loadu_ps(p); }\n",
        ),
    ];
    let mut failed = false;
    for (rule, path, src) in cases {
        let hits = lint_source(path, src);
        if hits.iter().any(|v| v.rule == *rule) {
            println!("self-check: {rule} fires on seeded violation ... ok");
        } else {
            eprintln!("self-check: {rule} did NOT fire on: {src}");
            failed = true;
        }
    }
    // Clean code must not trip anything.
    let clean = "\
// SAFETY: p is valid by contract.\n\
fn f(p: *mut u8) { unsafe { *p = 0 }; }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn g(tx: &Sender<u8>) { tx.send(1).unwrap(); }\n\
}\n";
    let hits = lint_source("crates/demo/src/lib.rs", clean);
    if hits.is_empty() {
        println!("self-check: clean snippet produces no violations ... ok");
    } else {
        for v in &hits {
            eprintln!("self-check: false positive: {v}");
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("xtask lint --self-check: OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_is_clean() {
        let violations = lint_workspace(&workspace_root());
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn strings_and_comments_are_ignored() {
        let src = "fn f() { let _ = \"thread::spawn Ordering::Relaxed unsafe\"; }\n";
        assert!(lint_source("crates/demo/src/lib.rs", src).is_empty());
        let src = "// thread::spawn in a comment is fine\nfn f() {}\n";
        assert!(lint_source("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_source("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_violations_fire() {
        let src = "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n";
        let hits = lint_source("crates/demo/src/lib.rs", src);
        assert!(hits.iter().any(|v| v.rule == "safety-comment"));
    }

    #[test]
    fn target_feature_gates_simd_intrinsics() {
        // Ungated intrinsic fires, even inside a closure.
        let src = "// SAFETY: ok.\nunsafe fn f(p: *const f32) {\n    let g = || _mm_loadu_ps(p);\n    g();\n}\n";
        let hits = lint_source("crates/demo/src/lib.rs", src);
        assert!(hits.iter().any(|v| v.rule == "simd-target-feature"));
        // The attribute (anywhere in the attribute run) silences it.
        let src = "#[cfg(target_arch = \"x86_64\")]\n#[target_feature(enable = \"avx2,fma\")]\n// SAFETY: ok.\nunsafe fn f(p: *const f32) { _mm256_loadu_ps(p); }\n";
        assert!(lint_source("crates/demo/src/lib.rs", src)
            .iter()
            .all(|v| v.rule != "simd-target-feature"));
        // `_mm` as part of a longer identifier is not an intrinsic.
        let src = "fn f(elem_mm: f32) -> f32 { elem_mm }\n";
        assert!(lint_source("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn expect_on_recv_is_flagged() {
        let src = "fn f(rx: &Receiver<u8>) { rx.recv().expect(\"alive\"); }\n";
        let hits = lint_source("crates/demo/src/lib.rs", src);
        assert!(hits.iter().any(|v| v.rule == "channel-unwrap"));
    }
}

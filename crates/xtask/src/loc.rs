//! `cargo xtask loc` — lines outside `#[cfg(test)]` items, for each
//! `crates/*/src` crate and each `crates/core/src` file.
//!
//! One yardstick for "non-test lines": the lexer `lint` and `reach` use
//! marks every line of a `#[cfg(test)]` item, wherever in the file it sits
//! (a test-only `impl` above library code included), and every other line
//! counts — code, comments and blank lines alike. The report never fails
//! the run.

use std::collections::BTreeMap;
use std::path::Path;

use crate::lexer;

/// Lines of `text` outside its `#[cfg(test)]` items.
pub fn non_test_lines(text: &str) -> usize {
    lexer::preprocess(text)
        .iter()
        .filter(|l| !l.in_test_cfg)
        .count()
}

/// The report over `files`, each a `(workspace-relative path, text)` pair;
/// files outside `crates/*/src` are ignored.
pub fn report(files: &[(String, String)]) -> String {
    let mut crates: BTreeMap<&str, usize> = BTreeMap::new();
    let mut core = String::new();
    for (rel, text) in files {
        let Some((name, file)) = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once("/src/"))
        else {
            continue;
        };
        let n = non_test_lines(text);
        *crates.entry(name).or_default() += n;
        if name == "core" {
            core.push_str(&format!("  {file:<24}{n:>7}\n"));
        }
    }
    let mut out = String::from("non-test lines per crate (crates/<name>/src):\n");
    for (name, n) in &crates {
        out.push_str(&format!("  {name:<24}{n:>7}\n"));
    }
    let total: usize = crates.values().sum();
    out.push_str(&format!("  {:<24}{total:>7}\n", "total"));
    out.push_str("non-test lines per file (crates/core/src):\n");
    out.push_str(&core);
    out.push_str("xtask loc: report only\n");
    out
}

/// Entry point for `cargo xtask loc`.
pub fn run(args: &[String], root: &Path) -> i32 {
    if let Some(arg) = args.first() {
        eprintln!("usage: cargo xtask loc (takes no flags; got `{arg}`)");
        return 2;
    }
    let mut paths = Vec::new();
    crate::collect_rs_files(&root.join("crates"), &mut paths);
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
    print!("{}", report(&files));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_test_item_anywhere_in_the_file_is_left_out() {
        let text = "fn a() {}\n#[cfg(test)]\nimpl A {\n    fn t() {}\n}\n\n// b\nfn b() {}\n\
                    #[cfg(test)]\nmod tests {\n}\n";
        assert_eq!(non_test_lines(text), 4);
    }

    #[test]
    fn report_sums_crates_and_lists_core_files() {
        let file = |rel: &str, text: &str| (rel.to_string(), text.to_string());
        let out = report(&[
            file("crates/core/src/a.rs", "fn a() {}\n"),
            file("crates/core/src/b.rs", "fn b() {}\nfn c() {}\n"),
            file("crates/core/tests/t.rs", "fn t() {}\n"),
            file("crates/nn/src/lib.rs", "fn n() {}\n"),
        ]);
        let expected = "non-test lines per crate (crates/<name>/src):\n\
                        \x20 core                          3\n\
                        \x20 nn                            1\n\
                        \x20 total                         4\n\
                        non-test lines per file (crates/core/src):\n\
                        \x20 a.rs                          1\n\
                        \x20 b.rs                          2\n\
                        xtask loc: report only\n";
        assert_eq!(out, expected, "\n{out}");
    }
}

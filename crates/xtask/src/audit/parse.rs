//! Function-level parsing: split each source file into [`FnDef`]s with
//! their `// audit:` markers, outgoing call sites, and invariant sinks.
//!
//! Built on the shared [`crate::lexer`]: comments and string contents are
//! already blanked, `#[cfg(test)]` items marked. Function bodies are found
//! by brace tracking; a closure's body is attributed to the function that
//! lexically contains it, which matches execution for every closure the hot
//! paths use (iterator adapters, rayon scopes, `track(|ws| ..)`-style
//! callbacks run by the callee while the caller is on the stack).

use crate::lexer::{self, Line};

use super::invariants::{scan_line, Invariant, SinkHit};

/// One outgoing call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called identifier (`foo` in `foo(..)`, `bar` in `x.bar(..)`).
    pub name: String,
    /// Immediate path qualifier (`Matrix` in `Matrix::zeros(..)`,
    /// `Self` in `Self::new(..)`), if any.
    pub qualifier: Option<String>,
    /// Method call whose receiver is literally `self`.
    pub self_recv: bool,
}

/// One invariant-sink occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    pub invariant: Invariant,
    /// Stable pattern label (see `invariants::SINKS`).
    pub pattern: &'static str,
    /// 1-based source line.
    pub line: usize,
    /// Trimmed raw source of the line, for reports.
    pub snippet: String,
}

/// A parsed function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Workspace-relative file path.
    pub file: String,
    pub name: String,
    /// Enclosing `impl` type (or trait, for default methods), if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Invariants declared by an `// audit:` marker above the signature.
    pub markers: Vec<Invariant>,
    pub calls: Vec<Call>,
    pub sites: Vec<Site>,
}

impl FnDef {
    /// Stable identity used in reports and `audit-allowlist.toml`:
    /// `file.rs::Type::name` or `file.rs::name`.
    pub fn id(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.file, t, self.name),
            None => format!("{}::{}", self.file, self.name),
        }
    }

    /// Short display form without the file path.
    pub fn short(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// A marker-syntax error (unknown invariant, empty list).
#[derive(Debug)]
pub struct MarkerError {
    pub file: String,
    pub line: usize,
    pub msg: String,
}

/// Parse one file into its function definitions.
pub fn parse_file(rel: &str, text: &str, errors: &mut Vec<MarkerError>) -> Vec<FnDef> {
    let lines = lexer::preprocess(text);
    let mut out: Vec<FnDef> = Vec::new();

    // Brace-tracked parser state.
    let mut depth: i64 = 0;
    // (type name, depth *inside* the impl block).
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    // Innermost-first stack of open function bodies: (index into `out`,
    // depth inside the body).
    let mut fn_stack: Vec<(usize, i64)> = Vec::new();
    // A `fn` signature seen, body brace not yet opened. `(out index, paren
    // depth inside the signature)`.
    let mut pending_fn: Option<usize> = None;
    // An `impl` header seen, block brace not yet opened.
    let mut pending_impl: Option<String> = None;

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if line.in_test_cfg {
            continue;
        }
        let code = line.code.as_str();

        // New `impl` header? (Only at the start of an item: the `impl` of
        // an `impl Trait` argument or return type opens no block.)
        let item = code.trim_start();
        let item = item.strip_prefix("unsafe ").unwrap_or(item);
        if pending_fn.is_none() && pending_impl.is_none() && item.starts_with("impl") {
            if let Some(pos) = lexer::find_word(code, "impl", 0) {
                pending_impl = impl_type_name(&code[pos + 4..]);
            }
        }

        // New `fn` signature? (May coexist with an opening impl on one
        // line only in degenerate formatting; rustfmt-clean code never
        // does, so handle impl first, fn second.)
        if pending_fn.is_none() {
            if let Some(name_at) = fn_decl_name(code) {
                let markers = collect_markers(&lines, i, rel, errors);
                let impl_type = match (&pending_impl, impl_stack.last()) {
                    (Some(t), _) | (None, Some((t, _))) => Some(t.clone()),
                    (None, None) => None,
                };
                out.push(FnDef {
                    file: rel.to_string(),
                    name: name_at,
                    impl_type,
                    line: lineno,
                    markers,
                    calls: Vec::new(),
                    sites: Vec::new(),
                });
                pending_fn = Some(out.len() - 1);
            }
        }

        // Body scanning for the innermost open fn (before brace tracking,
        // so a body-closing `}` line still belongs to the fn — harmless,
        // since `}` lines carry no calls or sinks).
        if let Some(&(fi, _)) = fn_stack.last() {
            if pending_fn.is_none() {
                extract_calls(code, &mut out[fi].calls);
                for SinkHit {
                    invariant, pattern, ..
                } in scan_line(code)
                {
                    out[fi].sites.push(Site {
                        invariant,
                        pattern,
                        line: lineno,
                        snippet: line.raw.trim().to_string(),
                    });
                }
            }
        }

        // Brace tracking; transitions open pending fn/impl bodies. When a
        // pending fn's body opens mid-line (one-line functions), the rest
        // of the line is scanned as its body after the loop.
        let mut opened_fn_scan: Option<(usize, usize)> = None;
        // `[T; N]` in a signature: that `;` ends nothing.
        let mut brackets = 0usize;
        for (pos, c) in code.char_indices() {
            match c {
                '[' => brackets += 1,
                ']' => brackets = brackets.saturating_sub(1),
                '{' => {
                    depth += 1;
                    // A pending impl's block brace comes lexically before
                    // any pending fn's body brace (`impl A { fn go() .. }`).
                    if let Some(ty) = pending_impl.take() {
                        impl_stack.push((ty, depth));
                    } else if let Some(fi) = pending_fn.take() {
                        fn_stack.push((fi, depth));
                        opened_fn_scan = Some((fi, pos + 1));
                    }
                }
                '}' => {
                    if let Some(&(_, d)) = fn_stack.last() {
                        if depth == d {
                            fn_stack.pop();
                        }
                    }
                    if let Some((_, d)) = impl_stack.last() {
                        if depth == *d {
                            impl_stack.pop();
                        }
                    }
                    depth -= 1;
                }
                ';' if brackets == 0 => {
                    // Trait method declaration / extern fn without a body.
                    if let Some(fi) = pending_fn {
                        if !code.contains('{') {
                            pending_fn = None;
                            // Keep the def (it may still be a resolution
                            // target via a default impl elsewhere) but it
                            // has no body to scan.
                            let _ = fi;
                        }
                    }
                }
                _ => {}
            }
        }
        // One-line body: scan everything after the opening brace.
        if let Some((fi, from)) = opened_fn_scan {
            let tail = &code[from..];
            extract_calls(tail, &mut out[fi].calls);
            for SinkHit {
                invariant, pattern, ..
            } in scan_line(tail)
            {
                out[fi].sites.push(Site {
                    invariant,
                    pattern,
                    line: lineno,
                    snippet: line.raw.trim().to_string(),
                });
            }
        }
    }
    out
}

/// If `code` declares a function, return its name.
fn fn_decl_name(code: &str) -> Option<String> {
    let at = lexer::find_word(code, "fn", 0)?;
    let rest = code[at + 2..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    Some(name)
}

/// Extract the self-type name from the text after an `impl` keyword:
/// `<T: Send> BoundedSender<T> {` → `BoundedSender`,
/// `std::fmt::Debug for SharedModel {` → `SharedModel`.
fn impl_type_name(after: &str) -> Option<String> {
    let mut s = after.trim_start();
    // Skip the generic parameter list, if any.
    if s.starts_with('<') {
        let mut depth = 0usize;
        let mut end = 0;
        for (i, c) in s.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        s = s[end..].trim_start();
    }
    // `impl Trait for Type` → the part after ` for `.
    if let Some(pos) = lexer::find_word(s, "for", 0) {
        s = s[pos + 3..].trim_start();
    }
    // Up to `{`, `<`, `where`, or whitespace; take the last `::` segment.
    let end = s
        .find(['{', '<'])
        .or_else(|| lexer::find_word(s, "where", 0))
        .unwrap_or(s.len());
    let path = s[..end].trim().trim_start_matches('&');
    let seg = path.rsplit("::").next().unwrap_or(path).trim();
    let name: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_lowercase()) {
        None
    } else {
        Some(name)
    }
}

/// Collect `// audit:` markers from the contiguous comment/attribute run
/// directly above line `i` (the `fn` line itself included).
fn collect_markers(
    lines: &[Line],
    i: usize,
    file: &str,
    errors: &mut Vec<MarkerError>,
) -> Vec<Invariant> {
    let mut found = Vec::new();
    let mut j = i + 1;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        if j < i {
            let code = line.code.trim();
            let is_annotation = code.is_empty() || code.starts_with("#[") || code.ends_with(']');
            if !is_annotation {
                break;
            }
        }
        // Comment text for `// audit: a,b`; doc comments (`/// audit:`)
        // appear with a leading `/`.
        let t = line.comment.trim_start_matches('/').trim();
        if let Some(list) = t.strip_prefix("audit:") {
            for tok in list.split(',') {
                let tok = tok.trim();
                if tok.is_empty() {
                    continue;
                }
                match Invariant::parse(tok) {
                    Some(inv) => {
                        if !found.contains(&inv) {
                            found.push(inv);
                        }
                    }
                    None => errors.push(MarkerError {
                        file: file.to_string(),
                        line: j + 1,
                        msg: format!(
                            "unknown invariant `{tok}` in audit marker \
                             (expected no_alloc, no_panic, no_block)"
                        ),
                    }),
                }
            }
            if list.trim().is_empty() {
                errors.push(MarkerError {
                    file: file.to_string(),
                    line: j + 1,
                    msg: "empty audit marker".to_string(),
                });
            }
        }
    }
    found.sort();
    found
}

/// Rust keywords and call-like forms that are not function calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "where", "impl", "dyn", "use", "mod", "pub", "crate",
    "super", "self", "Self", "unsafe", "const", "static", "type", "struct", "enum", "trait",
    "async", "await", "box",
];

/// Extract call sites from one stripped code line.
fn extract_calls(code: &str, out: &mut Vec<Call>) {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if !(c.is_ascii_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        // Read the identifier.
        let start = i;
        while i < bytes.len() && {
            let c = bytes[i] as char;
            c.is_ascii_alphanumeric() || c == '_'
        } {
            i += 1;
        }
        let ident = &code[start..i];
        // Skip whitespace and an optional turbofish.
        let mut k = i;
        while k < bytes.len() && (bytes[k] as char).is_whitespace() {
            k += 1;
        }
        if code[k..].starts_with("::<") {
            let mut depth = 0usize;
            let mut m = k + 2;
            while m < bytes.len() {
                match bytes[m] as char {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            m += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m;
            while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                k += 1;
            }
        }
        if k >= bytes.len() || bytes[k] != b'(' {
            continue;
        }
        // `ident (` — a call, unless it is a declaration or keyword form.
        if NON_CALL_WORDS.contains(&ident) {
            continue;
        }
        // Preceded by `fn `? Then it's this function's own declaration.
        let before = code[..start].trim_end();
        if before.ends_with("fn") {
            continue;
        }
        // Macro? (`ident!(` never reaches here because `!` intervenes.)
        let (qualifier, self_recv) = if let Some(rest) = before.strip_suffix("::") {
            let q = rest
                .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
                .to_string();
            (if q.is_empty() { None } else { Some(q) }, false)
        } else if let Some(rest) = before.strip_suffix('.') {
            (None, rest.trim_end().ends_with("self"))
        } else {
            (None, false)
        };
        out.push(Call {
            name: ident.to_string(),
            qualifier,
            self_recv,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnDef> {
        let mut errs = Vec::new();
        let defs = parse_file("crates/demo/src/lib.rs", src, &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
        defs
    }

    #[test]
    fn functions_and_impl_types_are_identified() {
        let defs = parse(
            "impl<T: Send> Foo<T> {\n    pub fn bar(&self) {}\n}\n\
             impl std::fmt::Debug for Baz {\n    fn fmt(&self) {}\n}\n\
             fn free() {}\n",
        );
        let ids: Vec<String> = defs.iter().map(FnDef::id).collect();
        assert_eq!(
            ids,
            vec![
                "crates/demo/src/lib.rs::Foo::bar",
                "crates/demo/src/lib.rs::Baz::fmt",
                "crates/demo/src/lib.rs::free",
            ]
        );
    }

    #[test]
    fn markers_parse_above_attributes_and_docs() {
        let src = "\
/// Docs here.
// audit: no_alloc, no_panic
#[inline]
pub fn hot() {}
";
        let defs = parse(src);
        assert_eq!(
            defs[0].markers,
            vec![Invariant::NoAlloc, Invariant::NoPanic]
        );
    }

    #[test]
    fn unknown_marker_is_an_error() {
        let mut errs = Vec::new();
        parse_file(
            "crates/demo/src/lib.rs",
            "// audit: no_allocs\nfn f() {}\n",
            &mut errs,
        );
        assert_eq!(errs.len(), 1);
        assert!(errs[0].msg.contains("no_allocs"));
    }

    #[test]
    fn marker_must_be_adjacent() {
        let src = "// audit: no_alloc\n\nlet x = 1;\nfn f() {}\n";
        let defs = parse(src);
        assert!(defs[0].markers.is_empty());
    }

    #[test]
    fn calls_are_attributed_to_the_enclosing_fn() {
        let src = "\
fn outer() {
    helper(1);
    let c = || inner_in_closure();
    c();
    x.method(2);
    self.own_method();
    Matrix::zeros(3, 3);
    Self::assoc();
}
fn tail() { after(); }
";
        let defs = parse(src);
        let outer = &defs[0];
        let names: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "helper",
                "inner_in_closure",
                "c",
                "method",
                "own_method",
                "zeros",
                "assoc"
            ]
        );
        let zeros = outer.calls.iter().find(|c| c.name == "zeros").unwrap();
        assert_eq!(zeros.qualifier.as_deref(), Some("Matrix"));
        let own = outer.calls.iter().find(|c| c.name == "own_method").unwrap();
        assert!(own.self_recv);
        assert_eq!(defs[1].calls.len(), 1);
        assert_eq!(defs[1].calls[0].name, "after");
    }

    #[test]
    fn sites_are_recorded_with_snippets() {
        let src = "fn f(xs: &mut Vec<u32>) {\n    xs.push(7); // grow\n}\n";
        let defs = parse(src);
        assert_eq!(defs[0].sites.len(), 1);
        assert_eq!(defs[0].sites[0].pattern, "push");
        assert_eq!(defs[0].sites[0].line, 2);
        assert_eq!(defs[0].sites[0].snippet, "xs.push(7); // grow");
    }

    #[test]
    fn cfg_test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap() }\n}\nfn real() {}\n";
        let defs = parse(src);
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "real");
    }

    #[test]
    fn multiline_signatures_attach_the_body() {
        let src = "\
fn long(
    a: usize,
    b: usize,
) -> usize {
    helper(a, b)
}
";
        let defs = parse(src);
        assert_eq!(defs[0].calls.len(), 1);
        assert_eq!(defs[0].calls[0].name, "helper");
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_it() {
        // The `;` of `[T; N]` is not a body-less declaration's.
        let src = "\
fn generic<const N: usize>(
    src: [&Model; N],
) -> usize {
    helper(src)
}
";
        let defs = parse(src);
        assert_eq!(defs[0].calls.len(), 1);
        assert_eq!(defs[0].calls[0].name, "helper");
    }

    #[test]
    fn impl_trait_in_a_signature_opens_no_impl_block() {
        let src = "\
impl Matrix {
    pub fn from_fn(f: impl FnMut(usize) -> f32) -> Self {
        helper(f)
    }
}
impl std::fmt::Debug for Matrix {
    fn fmt(&self) {}
}
";
        let defs = parse(src);
        assert_eq!(defs[0].id(), "crates/demo/src/lib.rs::Matrix::from_fn");
        assert_eq!(defs[0].calls[0].name, "helper");
        assert_eq!(defs[1].id(), "crates/demo/src/lib.rs::Matrix::fmt");
    }

    #[test]
    fn trait_declarations_without_bodies_are_inert() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) { used(); }\n}\n";
        let defs = parse(src);
        assert_eq!(defs.len(), 2);
        assert!(defs[0].calls.is_empty());
        assert_eq!(defs[1].calls[0].name, "used");
    }
}

//! Call-graph construction and transitive invariant checking.
//!
//! Resolution is name-based (no type inference). Calls are resolved in
//! narrowing order:
//!
//! 1. `Type::method(..)` / `Self::method(..)` — the `(type, name)` index
//!    only; unresolved means the type is external (std, rayon) and the
//!    call is ignored.
//! 2. `self.method(..)` — candidates on the caller's impl type first; if
//!    none, fall back to every workspace function with that name (the
//!    receiver may be a field whose method we also define).
//! 3. Bare / module-qualified `name(..)` — every workspace function with
//!    that name (over-approximate: a violation in *any* same-named
//!    function is reported; precision is recovered case-by-case via the
//!    allowlist).
//!
//! Unresolved names (std/external) are ignored — the documented
//! false-negative class (DESIGN.md §4j).
//!
//! Exception to rule 3: unqualified calls whose name is in [`NO_RESOLVE`]
//! skip the name-wide fallback. These are std method names that are either
//! themselves sink patterns (`.collect(`, `.to_vec(`, `.lock(`, ... — the
//! textual sink at the call site already reports the behavior) or
//! ubiquitous accessors (`.len()`, `.get(`, atomic `.store(`) — a
//! name-wide edge would bind, say, every atomic `.store(x, Relaxed)` to an
//! unrelated `SharedModel::store`. Qualified `Type::method(..)` calls and
//! `self.method(..)` calls with a matching method on the caller's own impl
//! type still resolve precisely.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use super::invariants::Invariant;
use super::parse::FnDef;

/// Unqualified call names excluded from the name-wide fallback: std method
/// names that already match a sink pattern textually, plus ubiquitous
/// container/atomic accessors that would otherwise alias every workspace
/// `len`/`get`/`store`/... impl. `drop` is here because explicit `drop(x)`
/// would bind to every workspace `Drop::drop` (and implicit
/// drop-at-scope-end is invisible to the scanner anyway — documented false
/// negative, DESIGN.md §4j).
pub const NO_RESOLVE: &[&str] = &[
    // Sink-pattern method names (the call-site pattern already fires).
    "clone",
    "collect",
    "expect",
    "extend",
    "flush",
    "insert",
    "lock",
    "push",
    "push_back",
    "push_front",
    "read_exact",
    "reserve",
    "resize",
    "resize_with",
    "sync_all",
    "to_owned",
    "to_string",
    "to_vec",
    "unwrap",
    "wait",
    "wait_timeout",
    "wait_until",
    "write_all",
    // Ubiquitous std accessors / atomics.
    "clear",
    "contains",
    "contains_key",
    "drop",
    "get",
    "get_mut",
    "is_empty",
    "len",
    "load",
    "store",
    "swap",
    "take",
];

/// A confirmed transitive violation: `root` declared `invariant`, and the
/// chain of calls `root → .. → sink_fn` reaches a sink site.
#[derive(Debug)]
pub struct Violation {
    pub invariant: Invariant,
    /// Indices into the function table, root first, sink-owning fn last.
    pub chain: Vec<usize>,
    /// Index into `fns[chain.last()].sites`.
    pub site: usize,
}

/// The assembled workspace call graph.
pub struct Graph<'a> {
    pub fns: &'a [FnDef],
    /// Resolved adjacency: caller index → callee indices (deduped, sorted).
    callees: Vec<Vec<usize>>,
}

impl<'a> Graph<'a> {
    pub fn build(fns: &'a [FnDef]) -> Graph<'a> {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_type_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
            if let Some(t) = &f.impl_type {
                by_type_name
                    .entry((t.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
            }
        }
        let mut callees: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        for f in fns {
            let mut out: Vec<usize> = Vec::new();
            for call in &f.calls {
                let name = call.name.as_str();
                if let Some(q) = &call.qualifier {
                    let ty: &str = if q == "Self" {
                        match &f.impl_type {
                            Some(t) => t.as_str(),
                            None => continue,
                        }
                    } else {
                        q.as_str()
                    };
                    if let Some(v) = by_type_name.get(&(ty, name)) {
                        out.extend(v.iter().copied());
                    }
                    // Unknown type ⇒ external; ignore.
                    continue;
                }
                if call.self_recv {
                    if let Some(t) = &f.impl_type {
                        if let Some(v) = by_type_name.get(&(t.as_str(), name)) {
                            out.extend(v.iter().copied());
                            continue;
                        }
                    }
                }
                if NO_RESOLVE.contains(&name) {
                    continue;
                }
                if let Some(v) = by_name.get(name) {
                    out.extend(v.iter().copied());
                }
            }
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }
        Graph { fns, callees }
    }

    /// All root functions (any `// audit:` marker).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| !self.fns[i].markers.is_empty())
            .collect()
    }

    /// Check one root's invariants; push violations (deduped per
    /// `(invariant, sink fn, line, pattern)` across this root).
    pub fn check_root(&self, root: usize, out: &mut Vec<Violation>) {
        for &inv in &self.fns[root].markers {
            // BFS with parent links: the first path found to each function
            // is a shortest chain, which keeps reports compact.
            let mut parent: HashMap<usize, usize> = HashMap::new();
            let mut seen: HashSet<usize> = HashSet::new();
            let mut order: Vec<usize> = Vec::new();
            let mut q: VecDeque<usize> = VecDeque::new();
            seen.insert(root);
            q.push_back(root);
            while let Some(u) = q.pop_front() {
                order.push(u);
                for &v in &self.callees[u] {
                    if seen.insert(v) {
                        parent.insert(v, u);
                        q.push_back(v);
                    }
                }
            }
            let mut reported: HashSet<(usize, usize, &'static str)> = HashSet::new();
            for &u in &order {
                for (si, site) in self.fns[u].sites.iter().enumerate() {
                    if site.invariant != inv {
                        continue;
                    }
                    if !reported.insert((u, site.line, site.pattern)) {
                        continue;
                    }
                    let mut chain = vec![u];
                    let mut cur = u;
                    while let Some(&p) = parent.get(&cur) {
                        chain.push(p);
                        cur = p;
                    }
                    chain.reverse();
                    out.push(Violation {
                        invariant: inv,
                        chain,
                        site: si,
                    });
                }
            }
        }
    }

    /// Run every root; violations ordered by (root file, root line,
    /// invariant, sink file, sink line).
    pub fn check_all(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for root in self.roots() {
            self.check_root(root, &mut out);
        }
        out.sort_by(|a, b| {
            let (ra, rb) = (a.chain[0], b.chain[0]);
            let (sa, sb) = (*a.chain.last().unwrap(), *b.chain.last().unwrap());
            (
                &self.fns[ra].file,
                self.fns[ra].line,
                a.invariant,
                &self.fns[sa].file,
                self.fns[sa].sites[a.site].line,
                self.fns[sa].sites[a.site].pattern,
            )
                .cmp(&(
                    &self.fns[rb].file,
                    self.fns[rb].line,
                    b.invariant,
                    &self.fns[sb].file,
                    self.fns[sb].sites[b.site].line,
                    self.fns[sb].sites[b.site].pattern,
                ))
        });
        out
    }

    /// Which functions some call chain from `roots` reaches (roots
    /// included), indexed like `fns`.
    pub fn reachable(&self, roots: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = roots.into_iter().collect();
        while let Some(u) = stack.pop() {
            if !std::mem::replace(&mut seen[u], true) {
                stack.extend(&self.callees[u]);
            }
        }
        seen
    }

    /// Resolved callee indices of `i` (for tests).
    #[cfg(test)]
    pub fn callees_of(&self, i: usize) -> &[usize] {
        &self.callees[i]
    }
}

/// Group violations by root for rendering: root index → violations.
pub fn by_root(violations: &[Violation]) -> BTreeMap<usize, Vec<&Violation>> {
    let mut m: BTreeMap<usize, Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        m.entry(v.chain[0]).or_default().push(v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::parse::parse_file;

    fn defs(src: &str) -> Vec<FnDef> {
        let mut errs = Vec::new();
        let d = parse_file("crates/demo/src/lib.rs", src, &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
        d
    }

    fn idx(fns: &[FnDef], name: &str) -> usize {
        fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn transitive_violation_reports_shortest_chain() {
        let fns = defs(
            "// audit: no_alloc\n\
             fn root() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf(xs: &mut Vec<u32>) { xs.push(1); }\n",
        );
        let g = Graph::build(&fns);
        let vs = g.check_all();
        assert_eq!(vs.len(), 1);
        let names: Vec<&str> = vs[0].chain.iter().map(|&i| fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["root", "mid", "leaf"]);
        assert_eq!(vs[0].invariant, Invariant::NoAlloc);
    }

    #[test]
    fn undeclared_invariants_are_not_checked() {
        let fns = defs(
            "// audit: no_panic\n\
             fn root() { leaf(); }\n\
             fn leaf(xs: &mut Vec<u32>) { xs.push(1); }\n",
        );
        let g = Graph::build(&fns);
        assert!(g.check_all().is_empty());
    }

    #[test]
    fn typed_resolution_narrows_same_named_methods() {
        let fns = defs(
            "struct A; struct B;\n\
             impl A { fn go(&self) {} }\n\
             impl B { fn go(&self) { panic!() } }\n\
             // audit: no_panic\n\
             fn root(a: &A) { A::go(a); }\n",
        );
        let g = Graph::build(&fns);
        assert!(g.check_all().is_empty());
        let root = idx(&fns, "root");
        assert_eq!(g.callees_of(root).len(), 1);
    }

    #[test]
    fn self_method_prefers_own_impl() {
        let fns = defs(
            "struct A;\n\
             impl A {\n\
                 // audit: no_panic\n\
                 fn root(&self) { self.go(); }\n\
                 fn go(&self) {}\n\
             }\n\
             struct B;\n\
             impl B { fn go(&self) { panic!() } }\n",
        );
        let g = Graph::build(&fns);
        assert!(g.check_all().is_empty());
    }

    #[test]
    fn bare_name_is_overapproximate() {
        // Receiver is a field, not self — falls back to name-wide and
        // still catches the violation.
        let fns = defs(
            "struct Inner; impl Inner { fn emit(&self) { panic!() } }\n\
             struct Outer { inner: Inner }\n\
             impl Outer {\n\
                 // audit: no_panic\n\
                 fn root(&self) { self.inner.emit(); }\n\
             }\n",
        );
        let g = Graph::build(&fns);
        assert_eq!(g.check_all().len(), 1);
    }

    #[test]
    fn recursion_terminates() {
        let fns = defs(
            "// audit: no_alloc\n\
             fn root(n: u32) { if n > 0 { root(n - 1); } other(); }\n\
             fn other() { root(0); }\n",
        );
        let g = Graph::build(&fns);
        assert!(g.check_all().is_empty());
    }

    #[test]
    fn direct_site_in_root_has_chain_of_one() {
        let fns = defs("// audit: no_panic\nfn root(x: Option<u32>) { x.unwrap(); }\n");
        let g = Graph::build(&fns);
        let vs = g.check_all();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].chain.len(), 1);
    }
}

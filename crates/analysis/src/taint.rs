//! The graph-aware determinism and panic passes.
//!
//! **Determinism taint.** Nondeterminism *sources* — wall-clock reads,
//! ambient RNG, environment reads, hash-iteration containers, thread
//! identity — are detected token-wise inside fn bodies, but a source
//! only becomes a finding when its function is transitively reachable
//! from a hot-path root (`Automaton::step`, `Simulation` stepping,
//! fingerprinting, `LinkFaultPlan` application). Because reachability is
//! closed under calls, a source laundered through any chain of helper
//! fns is caught at the source site itself, with the witness chain in
//! the message. Sources in *module-level* code (struct fields, consts,
//! statics — anything outside fn bodies except `use` declarations) are
//! always findings: a `HashMap` field is nondeterministic wherever the
//! struct is used.
//!
//! **Panic reachability.** `.unwrap()`, `.expect(…)` without an
//! `"invariant: …"` message, and the `panic!`-family macros are findings
//! when reachable from the hot path. `assert!`/`assert_eq!`/
//! `assert_ne!`/`debug_assert*` are sanctioned invariant checks and
//! exempt, as are `expect`/`panic!` calls whose message documents the
//! invariant. Indexing sites (`xs[i]`) are reported per function as one
//! aggregated `index-reachable` finding, since hot containers index
//! pervasively and are justified per module with a pragma.

use crate::graph::{is_keyword, CallGraph, FileSource};
use crate::lexer::{Tok, Token};
use crate::parse::PragmaTable;
use crate::report::Finding;
use crate::scan::{path_is, path_tail};

/// The graph-aware determinism rule ids, in report order.
pub const TAINT_RULES: [&str; 5] = [
    "taint-hash-container",
    "taint-wall-clock",
    "taint-ambient-rng",
    "taint-env-read",
    "taint-thread-id",
];

/// The panic/indexing reachability rule ids.
pub const PANIC_RULES: [&str; 2] = ["panic-reachable", "index-reachable"];

/// One detected nondeterminism source.
struct SourceHit {
    rule: &'static str,
    line: u32,
    what: String,
}

/// Detects a nondeterminism source at token `i`, if any.
fn source_at(toks: &[Token], i: usize) -> Option<SourceHit> {
    let Tok::Ident(name) = &toks[i].tok else { return None };
    let line = toks[i].line;
    let hit =
        |rule: &'static str, what: &str| Some(SourceHit { rule, line, what: what.to_string() });
    match name.as_str() {
        "HashMap" | "HashSet" => hit(
            "taint-hash-container",
            &format!("{name} iteration order varies per process (RandomState)"),
        ),
        "Instant" | "SystemTime" => {
            hit("taint-wall-clock", &format!("{name} reads the wall clock"))
        }
        "thread_rng" | "ThreadRng" => {
            hit("taint-ambient-rng", &format!("{name} is OS-seeded randomness"))
        }
        "rand" if path_is(toks, i, &["rand", "random"]) => {
            hit("taint-ambient-rng", "rand::random is OS-seeded randomness")
        }
        "std" if path_is(toks, i, &["std", "env"]) => {
            hit("taint-env-read", "std::env reads ambient configuration")
        }
        "env"
            if matches!(
                path_tail(toks, i).as_deref(),
                Some("var" | "vars" | "var_os" | "vars_os" | "args" | "args_os")
            ) =>
        {
            hit("taint-env-read", "environment reads are ambient configuration")
        }
        "ThreadId" => hit("taint-thread-id", "ThreadId varies per scheduling"),
        "thread" if matches!(path_tail(toks, i).as_deref(), Some("current")) => {
            hit("taint-thread-id", "thread::current is scheduling-dependent")
        }
        _ => None,
    }
}

/// One detected panic site.
struct PanicHit {
    line: u32,
    what: String,
}

/// Whether the token is a string literal starting with `invariant:` —
/// the sanctioned message prefix for impossible-by-construction panics.
fn invariant_msg(tok: Option<&Token>) -> bool {
    matches!(tok.map(|t| &t.tok), Some(Tok::Str(s)) if s.starts_with("invariant:"))
}

/// Detects a panic site at token `i`, if any.
fn panic_at(toks: &[Token], i: usize) -> Option<PanicHit> {
    let Tok::Ident(name) = &toks[i].tok else { return None };
    let line = toks[i].line;
    let prev_dot = i >= 1 && toks[i - 1].tok == Tok::Punct('.');
    let next_bang = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')));
    match name.as_str() {
        "unwrap"
            if prev_dot && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) =>
        {
            Some(PanicHit { line, what: ".unwrap()".to_string() })
        }
        "expect"
            if prev_dot && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) =>
        {
            if invariant_msg(toks.get(i + 2)) {
                None
            } else {
                Some(PanicHit {
                    line,
                    what: ".expect(…) without an \"invariant: …\" message".to_string(),
                })
            }
        }
        "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
            // `name!(…)` — exempt when the first argument documents the
            // invariant.
            if invariant_msg(toks.get(i + 3)) {
                None
            } else {
                Some(PanicHit { line, what: format!("{name}!(…)") })
            }
        }
        _ => None,
    }
}

/// An indexing base at `i` means the *next* token opens `[…]` and `i`
/// is an expression tail: a non-keyword identifier, `)`, or `]`.
fn index_base(toks: &[Token], i: usize) -> bool {
    if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) {
        return false;
    }
    match &toks[i].tok {
        Tok::Ident(name) => !is_keyword(name),
        Tok::Punct(')') | Tok::Punct(']') => true,
        _ => false,
    }
}

/// Output of one pass: findings plus the pragma-suppressed count.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Findings, in deterministic order.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by pragmas.
    pub suppressed: usize,
}

impl PassOut {
    fn emit(&mut self, pragmas: &mut PragmaTable, finding: Finding) {
        if pragmas.suppress(finding.rule, &finding.file, finding.line) {
            self.suppressed += 1;
        } else {
            self.findings.push(finding);
        }
    }
}

/// The determinism-taint pass (see module docs).
pub fn taint_pass(graph: &CallGraph, files: &[FileSource], pragmas: &mut PragmaTable) -> PassOut {
    let mut out = PassOut::default();
    // Module-level surface: every uncovered token (outside fn bodies,
    // use-decls, and cfg(test) scopes).
    for file in files {
        let toks = &file.lexed.tokens;
        for i in 0..toks.len() {
            if file.items.covered.get(i).copied().unwrap_or(false) {
                continue;
            }
            if let Some(hit) = source_at(toks, i) {
                out.emit(
                    pragmas,
                    Finding {
                        rule: hit.rule,
                        file: file.display.clone(),
                        line: hit.line,
                        message: format!(
                            "{} — in module-level code (field/const/static)",
                            hit.what
                        ),
                    },
                );
            }
        }
    }
    // Fn bodies: sources count only when the fn is hot-path reachable.
    for (id, node) in graph.nodes.iter().enumerate() {
        if !graph.reachable[id] {
            continue;
        }
        let file = &files[node.file];
        let f = &file.items.fns[node.item];
        let toks = &file.lexed.tokens;
        for i in f.body.clone() {
            if let Some(hit) = source_at(toks, i) {
                out.emit(
                    pragmas,
                    Finding {
                        rule: hit.rule,
                        file: file.display.clone(),
                        line: hit.line,
                        message: format!(
                            "{} — reachable from the hot path via {}",
                            hit.what,
                            graph.chain(id)
                        ),
                    },
                );
            }
        }
    }
    out
}

/// The panic- and indexing-reachability pass (see module docs).
pub fn panic_pass(graph: &CallGraph, files: &[FileSource], pragmas: &mut PragmaTable) -> PassOut {
    let mut out = PassOut::default();
    for (id, node) in graph.nodes.iter().enumerate() {
        if !graph.reachable[id] {
            continue;
        }
        let file = &files[node.file];
        let f = &file.items.fns[node.item];
        let toks = &file.lexed.tokens;
        let mut index_lines: Vec<u32> = Vec::new();
        for i in f.body.clone() {
            if let Some(hit) = panic_at(toks, i) {
                out.emit(
                    pragmas,
                    Finding {
                        rule: "panic-reachable",
                        file: file.display.clone(),
                        line: hit.line,
                        message: format!(
                            "{} — reachable from the hot path via {}; return a typed error or \
                             document the invariant with expect(\"invariant: …\")",
                            hit.what,
                            graph.chain(id)
                        ),
                    },
                );
            }
            if index_base(toks, i) {
                let line = toks[i].line;
                if index_lines.last() != Some(&line) {
                    index_lines.push(line);
                }
            }
        }
        if !index_lines.is_empty() {
            let shown: Vec<String> = index_lines.iter().take(6).map(u32::to_string).collect();
            let more = if index_lines.len() > 6 {
                format!(" (+{} more)", index_lines.len() - 6)
            } else {
                String::new()
            };
            out.emit(
                pragmas,
                Finding {
                    rule: "index-reachable",
                    file: file.display.clone(),
                    line: index_lines[0],
                    message: format!(
                        "{} indexing site(s) in {} (lines {}{more}) — reachable via {}; indexing \
                         panics out-of-bounds, use get() or justify the bounds invariant with a \
                         pragma",
                        index_lines.len(),
                        graph.nodes[id].qualified,
                        shown.join(", "),
                        graph.chain(id)
                    ),
                },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn file(display: &str, src: &str) -> FileSource {
        let lexed = lex(src);
        let items = parse_items(&lexed);
        FileSource { display: display.to_string(), lexed, items }
    }

    fn run_taint(src: &str) -> PassOut {
        let files = [file("x.rs", src)];
        let graph = CallGraph::build(&files);
        let mut pragmas = PragmaTable::default();
        pragmas.add_file("x.rs", &files[0].lexed, &files[0].items);
        taint_pass(&graph, &files, &mut pragmas)
    }

    fn run_panic(src: &str) -> PassOut {
        let files = [file("x.rs", src)];
        let graph = CallGraph::build(&files);
        let mut pragmas = PragmaTable::default();
        pragmas.add_file("x.rs", &files[0].lexed, &files[0].items);
        panic_pass(&graph, &files, &mut pragmas)
    }

    #[test]
    fn laundered_sources_are_caught_with_a_chain() {
        let src = r#"
            impl Automaton for P {
                fn step(&mut self) { helper(); }
            }
            fn helper() { deeper(); }
            fn deeper() { let r = thread_rng(); }
        "#;
        let out = run_taint(src);
        assert_eq!(out.findings.len(), 1);
        let f = &out.findings[0];
        assert_eq!(f.rule, "taint-ambient-rng");
        assert!(f.message.contains("P::step → helper → deeper"), "{}", f.message);
    }

    #[test]
    fn unreachable_sources_are_not_findings() {
        let src = r#"
            impl Automaton for P { fn step(&mut self) {} }
            fn tooling() { let t = Instant::now(); }
        "#;
        assert!(run_taint(src).findings.is_empty());
    }

    #[test]
    fn module_level_sources_always_fire_but_use_decls_do_not() {
        let src = r#"
            use std::collections::HashMap;
            struct S { cache: HashMap<u32, u32> }
        "#;
        let out = run_taint(src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "taint-hash-container");
        assert_eq!(out.findings[0].line, 3);
    }

    #[test]
    fn every_source_kind_is_detected() {
        let src = r#"
            fn fingerprint() {
                let a = SystemTime::now();
                let b = std::env::var("X");
                let c = thread::current();
                let d: ThreadId = c.id();
                let e: u8 = rand::random();
                let f = HashSet::new();
            }
        "#;
        let rules: Vec<&str> = run_taint(src).findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec![
                "taint-wall-clock",
                "taint-env-read",
                "taint-env-read", // std::env + env::var both match — same construct
                "taint-thread-id",
                "taint-thread-id",
                "taint-ambient-rng",
                "taint-hash-container",
            ]
        );
    }

    #[test]
    fn pragma_scoped_to_the_item_suppresses_taint() {
        let src = r#"
            impl Automaton for P { fn step(&mut self) { helper(); } }
            // sih-analysis: allow(taint-wall-clock) — measured, not branched on
            fn helper() { let t = Instant::now(); }
            fn also_hot() {}
        "#;
        let out = run_taint(src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn panic_sites_distinguish_sanctioned_invariants() {
        let src = r#"
            fn fingerprint() {
                a.unwrap();
                b.expect("queue drained early");
                c.expect("invariant: fingerprint never truncates");
                assert!(x > 0);
                assert_eq!(a, b);
                debug_assert!(ok);
                panic!("boom");
                unreachable!("invariant: guarded above");
            }
        "#;
        let out = run_panic(src);
        let whats: Vec<&str> =
            out.findings.iter().map(|f| f.message.split(" — ").next().unwrap_or("")).collect();
        assert_eq!(
            whats,
            vec![".unwrap()", ".expect(…) without an \"invariant: …\" message", "panic!(…)"]
        );
    }

    #[test]
    fn indexing_is_aggregated_per_fn_and_keyword_safe() {
        let src = r#"
            fn fingerprint(xs: &[u32]) {
                let [a, b] = split();
                let arr = [1, 2, 3];
                let x = xs[0] + xs[1];
                let y = self.queues[i].front();
            }
            fn cold(xs: &[u32]) { let z = xs[9]; }
        "#;
        let out = run_panic(src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        let f = &out.findings[0];
        assert_eq!(f.rule, "index-reachable");
        assert!(f.message.starts_with("2 indexing site(s)"), "{}", f.message);
    }

    #[test]
    fn file_header_pragma_covers_every_index_site() {
        let src = r#"
            // sih-analysis: allow(index-reachable) — bounds held by construction
            fn fingerprint(xs: &[u32]) { let x = xs[0]; }
            fn fingerprint_into(xs: &[u32]) { let y = xs[1]; }
        "#;
        let out = run_panic(src);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed, 2);
    }
}

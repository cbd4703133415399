//! The panic- and indexing-reachability pass: panic sites *tainted* by
//! reachability from a hot-path root (`Automaton::step`, `Simulation`
//! stepping, fingerprinting, `LinkFaultPlan` application). Because
//! reachability is closed under calls, a panic laundered through any
//! chain of helper fns is caught at the panic site itself, with the
//! witness chain in the message.
//!
//! The determinism bans (hash containers, wall clock, environment reads,
//! thread identity) are clippy's `disallowed-types`/`disallowed-methods`
//! in the root `clippy.toml`, and bare `.unwrap()` is
//! `clippy::unwrap_used` everywhere; this pass covers what no compiler
//! lint can: which panics the hot path can reach.
//!
//! `.unwrap()`, `.expect(…)` without an `"invariant: …"` message, and
//! the `panic!`-family macros are findings when reachable from the hot
//! path. `assert!`/`assert_eq!`/`assert_ne!`/`debug_assert*` are
//! sanctioned invariant checks and exempt, as are `expect`/`panic!` calls
//! whose message documents the invariant. Indexing sites (`xs[i]`) are
//! reported per function as one aggregated `index-reachable` finding,
//! since hot containers index pervasively and are justified per module
//! with a pragma.

use crate::graph::{is_keyword, CallGraph, FileSource};
use crate::lexer::{Tok, Token};
use crate::parse::PragmaTable;
use crate::report::Finding;

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
            fn deeper() { slot.take().unwrap(); }
        "#;
        let out = run_panic(src);
        assert_eq!(out.findings.len(), 1);
        let f = &out.findings[0];
        assert_eq!(f.rule, "panic-reachable");
        assert!(f.message.contains("P::step → helper → deeper"), "{}", f.message);
    }

    #[test]
    fn unreachable_sources_are_not_findings() {
        let src = r#"
            impl Automaton for P { fn step(&mut self) {} }
            fn tooling(xs: &[u32]) { let t = xs[0]; panic!("offline"); }
        "#;
        assert!(run_panic(src).findings.is_empty());
    }

    #[test]
    fn every_source_kind_is_detected() {
        let src = r#"
            fn fingerprint() {
                a.unwrap();
                b.expect("no reason given");
                panic!("boom");
                unreachable!("no reason given");
                todo!();
                unimplemented!();
            }
        "#;
        let whats: Vec<String> = run_panic(src)
            .findings
            .iter()
            .map(|f| f.message.split(" — ").next().unwrap_or("").to_string())
            .collect();
        assert_eq!(
            whats,
            vec![
                ".unwrap()",
                ".expect(…) without an \"invariant: …\" message",
                "panic!(…)",
                "unreachable!(…)",
                "todo!(…)",
                "unimplemented!(…)",
            ]
        );
    }

    #[test]
    fn pragma_scoped_to_the_item_suppresses_taint() {
        let src = r#"
            impl Automaton for P { fn step(&mut self) { helper(); also_hot(); } }
            // sih-analysis: allow(panic-reachable) — slot filled by new()
            fn helper() { slot.unwrap(); }
            fn also_hot() { other.unwrap(); }
        "#;
        let out = run_panic(src);
        assert_eq!(out.suppressed, 1);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].line, 5);
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

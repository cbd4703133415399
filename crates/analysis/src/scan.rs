//! The token-level lint rules over the simulation crates: constructs
//! that are wrong wherever they appear, reachable or not, and that no
//! clippy lint matches as precisely.
//!
//! | rule | flags | why |
//! |---|---|---|
//! | `float` | `f32` / `f64` tokens, float literals | accumulation order changes results; floats need a justification |
//! | `btree-procset` | `BTreeSet<ProcessId>` / `BTreeMap<ProcessId, …>` | O(log n) per probe on per-message paths; use the `ProcSet` word-array bitset (hot-path modules only) |
//!
//! A `// sih-analysis: allow(<rule>)` pragma suppresses a rule — file-wide
//! from the header, item-scoped elsewhere (see [`crate::parse::PragmaTable`]).
//! `#[cfg(test)]`-gated items ([`crate::parse::FileItems::in_test`]) and
//! `*_tests.rs` / `proptests.rs` files are exempt: test code may use richer
//! std machinery, and the proptest/seeded harnesses are already
//! deterministic.

use crate::graph::FileSource;
use crate::lexer::{Tok, Token};
use crate::parse::PragmaTable;
use crate::report::Finding;

/// The tree-of-processes rule name (hot-path modules only): quorum /
/// participant / ack bookkeeping keyed by `ProcessId` must use the
/// `ProcSet` word-array bitset, not `BTreeSet` / `BTreeMap` — the
/// large-`n` scale tier depends on O(1) membership on per-message paths,
/// and this rule keeps the migration from silently regressing.
pub const BTREE_PROCSET_RULE: &str = "btree-procset";

/// The outcome of scanning one file.
#[derive(Clone, Debug, Default)]
pub struct FileScan {
    /// Findings against the file (pragma-suppressed ones excluded).
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by `allow` pragmas.
    pub suppressed: usize,
}

/// Scans one parsed file with the token rules. When `include_btree_rule`
/// is set, `BTreeSet<ProcessId>` / `BTreeMap<ProcessId, …>` are flagged
/// too (reserved for the hot-path modules that migrated to `ProcSet`).
pub fn scan_tokens(
    source: &FileSource,
    include_btree_rule: bool,
    pragmas: &mut PragmaTable,
) -> FileScan {
    let file = source.display.as_str();
    let mut scan = FileScan::default();
    let mut emit = |rule: &'static str, line: u32, message: String, pragmas: &mut PragmaTable| {
        if pragmas.suppress(rule, file, line) {
            scan.suppressed += 1;
        } else {
            scan.findings.push(Finding { rule, file: file.to_string(), line, message });
        }
    };

    let toks = &source.lexed.tokens;
    for (i, token) in toks.iter().enumerate() {
        if source.items.in_test[i] {
            continue;
        }
        match &token.tok {
            Tok::Ident(name) => match name.as_str() {
                "f32" | "f64" => emit(
                    "float",
                    token.line,
                    format!("{name} in simulation code: float accumulation is order-sensitive; justify with an allow pragma or use integers"),
                    pragmas,
                ),
                "BTreeSet" | "BTreeMap"
                    if include_btree_rule && generic_head_is(toks, i, "ProcessId") =>
                {
                    emit(
                        BTREE_PROCSET_RULE,
                        token.line,
                        format!(
                            "{name}<ProcessId, …> on a hot path: O(log n) per probe; use the ProcSet word-array bitset (or justify with an allow pragma)"
                        ),
                        pragmas,
                    )
                }
                _ => {}
            },
            Tok::Float => emit(
                "float",
                token.line,
                "float literal in simulation code: float arithmetic is order-sensitive; justify with an allow pragma or use integers".to_string(),
                pragmas,
            ),
            _ => {}
        }
    }
    scan
}

/// Whether the tokens at `i` open a generic argument list whose first
/// parameter is the identifier `first` — matches both `BTreeSet<P>` and
/// the turbofish `BTreeSet::<P>` spelling.
fn generic_head_is(toks: &[Token], i: usize, first: &str) -> bool {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.tok == Tok::PathSep) {
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.tok == Tok::Punct('<'))
        && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Ident(name)) if name == first)
}

/// Whether a source file is test-only by naming convention (scanned files
/// ending in `_tests.rs`, or named `tests.rs` / `proptests.rs`).
pub fn is_test_file(file_name: &str) -> bool {
    file_name.ends_with("_tests.rs") || file_name == "tests.rs" || file_name == "proptests.rs"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn scan(src: &str, include_btree: bool) -> FileScan {
        let lexed = lex(src);
        let items = parse_items(&lexed);
        let mut pragmas = PragmaTable::default();
        pragmas.add_file("x.rs", &lexed, &items);
        let source = FileSource { display: "x.rs".to_string(), lexed, items };
        scan_tokens(&source, include_btree, &mut pragmas)
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        scan(src, true).findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_floats_both_ways() {
        assert_eq!(rules_of("let p: f64 = 0.5;").len(), 2); // type + literal
        assert_eq!(rules_of("let p = 1e-3;"), vec!["float"]);
        assert!(rules_of("let n = 0x2f;").is_empty());
    }

    #[test]
    fn btree_procset_rule_is_opt_in_and_key_sensitive() {
        let set = "let acks: BTreeSet<ProcessId> = BTreeSet::new();";
        // One finding: the typed binding. The bare `BTreeSet::new()` has
        // no `<ProcessId` head and is fine.
        assert_eq!(rules_of(set), vec![BTREE_PROCSET_RULE]);
        let map = "let t: BTreeMap<ProcessId, Value> = BTreeMap::new();";
        assert_eq!(rules_of(map), vec![BTREE_PROCSET_RULE]);
        // Turbofish spelling is caught too.
        assert_eq!(rules_of("let s = BTreeSet::<ProcessId>::new();"), vec![BTREE_PROCSET_RULE]);
        // Off the hot path the rule does not run at all.
        assert!(scan(set, false).findings.is_empty());
        // Trees keyed by anything else are allowed everywhere.
        assert!(rules_of("let m: BTreeMap<OpId, OpRecord> = BTreeMap::new();").is_empty());
        // The escape hatch works and is counted.
        let allowed = "// sih-analysis: allow(btree-procset)\nlet acks: BTreeSet<ProcessId> = BTreeSet::new();";
        let scanned = scan(allowed, true);
        assert!(scanned.findings.is_empty());
        assert_eq!(scanned.suppressed, 1);
    }

    #[test]
    fn strings_comments_and_test_items_are_exempt() {
        assert!(rules_of("// f64\nlet s = \"0.5 f32\";").is_empty());
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f() { let p: f64 = 0.5; let s: BTreeSet<ProcessId> = s(); }
            }
            fn live() {}
        "#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn cfg_test_gated_fn_is_exempt_but_following_code_is_not() {
        let src = r#"
            #[cfg(test)]
            fn helper() { let p: f32 = 0.5; }
            fn live() { let q: f32 = 1.5; }
        "#;
        assert_eq!(rules_of(src), vec!["float", "float"]);
    }

    #[test]
    fn allow_pragma_suppresses_and_counts() {
        let src = "// sih-analysis: allow(float)\nlet p: f64 = 0.5;";
        let scanned = scan(src, false);
        assert!(scanned.findings.is_empty());
        assert_eq!(scanned.suppressed, 2);
        // Other rules still fire.
        let src = "// sih-analysis: allow(float)\nfn f() { let s: BTreeSet<ProcessId> = s(); }";
        assert_eq!(rules_of(src), vec![BTREE_PROCSET_RULE]);
    }

    #[test]
    fn item_scoped_pragma_does_not_leak_to_siblings() {
        let src = r#"
            fn first() {}
            // sih-analysis: allow(float) — this item only
            fn second() { let p: f32 = 0.5; }
            fn third() { let q: f32 = 1.5; }
        "#;
        let scanned = scan(src, false);
        assert_eq!(scanned.suppressed, 2);
        assert_eq!(scanned.findings.len(), 2);
        assert!(scanned.findings.iter().all(|f| f.line == 5));
    }

    #[test]
    fn findings_carry_file_and_line() {
        let scanned = scan("\n\nlet p: f32 = 0.5;", false);
        assert_eq!(scanned.findings.len(), 2);
        assert_eq!(scanned.findings[0].file, "x.rs");
        assert_eq!(scanned.findings[0].line, 3);
    }

    #[test]
    fn test_file_naming_convention() {
        assert!(is_test_file("fairness_tests.rs"));
        assert!(is_test_file("proptests.rs"));
        assert!(!is_test_file("network.rs"));
    }
}

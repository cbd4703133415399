//! Tier-1 replay of the committed counterexample corpus.
//!
//! Every `tests/corpus/*.schedule` file is a minimized negative witness
//! recorded from an intentionally weakened detector (or the sound
//! anti-Ω finiteness witness). This test strict-replays each one and
//! fails if any entry is stale — different verdict, or a script that no
//! longer executes verbatim — and additionally proves the whole
//! record → shrink → replay pipeline still works from scratch.

use sih::runtime::ShrinkReport;
use sih_lab::repro::{
    record_first_violation, replay, shrink, verify_corpus_dir, CorpusEntry, ReplayMode,
};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_committed_schedule_reproduces_exactly() {
    let entries = verify_corpus_dir(&corpus_dir(), 1).expect("reading tests/corpus");
    assert!(!entries.is_empty(), "tests/corpus is empty");
    let failures: Vec<&CorpusEntry> = entries.iter().filter(|e| !e.ok).collect();
    assert!(
        failures.is_empty(),
        "stale corpus entries:\n{}",
        failures.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn corpus_covers_every_planted_violation_class() {
    let entries = verify_corpus_dir(&corpus_dir(), 1).expect("reading tests/corpus");
    let all = entries.iter().map(|e| e.detail.clone()).collect::<Vec<_>>().join("\n");
    for verdict in
        ["violation:agreement", "violation:not-linearizable", "violation:finiteness", "panic"]
    {
        assert!(all.contains(&format!("`{verdict}`")), "no corpus entry reproduces `{verdict}`");
    }
}

#[test]
fn corpus_report_is_identical_across_thread_counts() {
    let dir = corpus_dir();
    let one = verify_corpus_dir(&dir, 1).expect("threads=1");
    for threads in [2, 8] {
        let other = verify_corpus_dir(&dir, threads).expect("threaded run");
        assert_eq!(one, other, "corpus report differs at threads={threads}");
    }
}

/// The acceptance pipeline of the harness, from scratch: capture the
/// planted weakened-Σ_S quorum violation, shrink it to ≤ 25 % of the
/// recorded length, and replay the minimized schedule to the identical
/// verdict — with the shrink itself independent of thread count (it is
/// serial by construction; we re-run it to prove determinism).
#[test]
fn fresh_abd_quorum_violation_records_shrinks_and_replays() {
    let recorded = record_first_violation("abd-weak-quorum", 1, 64)
        .expect("workload is registered")
        .expect("the planted quorum violation must be capturable within 64 seeds");
    assert_eq!(recorded.verdict, "violation:not-linearizable");

    let (small, report) = shrink(&recorded).expect("shrink runs");
    assert_eq!(report.original_len, recorded.choices.len());
    assert!(
        report.final_len * 4 <= report.original_len,
        "shrunk to {} of {} choices — more than 25 %",
        report.final_len,
        report.original_len
    );
    assert_eq!(small.verdict, recorded.verdict, "shrinking changed the verdict");

    let rep = replay(&small, ReplayMode::Strict).expect("replay runs");
    assert!(rep.matches, "minimized schedule is not strict-reproducible: {}", rep.verdict);

    let (again, report_again) = shrink(&recorded).expect("second shrink runs");
    assert_eq!(small, again, "shrinking is not deterministic");
    assert_eq!(report, report_again);

    // Round-trip through the text format, as the corpus stores it.
    let parsed = sih::runtime::Schedule::parse(&small.to_text()).expect("roundtrip parses");
    assert_eq!(parsed, small);
}

/// Every committed witness is already minimal: shrinking it returns the
/// same text after one round whose only accepted candidate is the input.
/// The candidate counts pin each pass's proposals on real plans — six
/// entries carry windows (two `link:`, four `adversary:`), so a change in
/// how the window pass walks either plan moves them.
#[test]
fn committed_witnesses_are_shrink_fixpoints() {
    let expected: [(&str, usize, u64); 12] = [
        ("abd-byz-forge-ack", 52, 88),
        ("abd-byz-perturb", 115, 189),
        ("abd-byz-split-ack", 52, 87),
        ("abd-weak-quorum-fuzz", 10, 20),
        ("abd-weak-quorum", 10, 20),
        ("fig2-byz-equivocate", 6, 10),
        ("fig2-byz-perturb", 6, 11),
        ("fig2-weak-sigma-fuzz", 3, 6),
        ("fig2-weak-sigma", 3, 6),
        ("fig4-byz-perturb", 4, 9),
        ("fig4-weak-sigma-k", 6, 9),
        ("fig6-without-change", 7, 18),
    ];
    for (name, len, tried) in expected {
        let path = corpus_dir().join(format!("{name}.schedule"));
        let text = std::fs::read_to_string(&path).expect("reading a corpus entry");
        let s = sih::runtime::Schedule::parse(&text).expect("corpus entry parses");
        let (small, report) = shrink(&s).expect("shrink runs");
        assert_eq!(small.to_text(), s.to_text(), "{name}: shrinking changed the witness");
        let want = ShrinkReport {
            original_len: len,
            final_len: len,
            candidates_tried: tried,
            candidates_accepted: 1,
            rounds: 1,
        };
        assert_eq!(report, want, "{name}");
    }
}

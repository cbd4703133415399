//! `Schedule::digest` streams the canonical text into FNV-1a/64 without
//! building it, through the writer `Schedule::to_text` shares. This pins
//! the streamed value to the definition, `fnv1a_64(to_text())`, on every
//! committed corpus schedule, on hand-made schedules that reach the
//! corners of the grammar (v1 and v2 headers, crash and link lines,
//! unbounded `inf` windows, multi-digit process ids and delivery
//! indices, `u64::MAX` fields), and on schedules bred from both with the
//! fuzzer's own `mutate` and `crossover`. Corpus dedup, the corpus
//! digest and the witness digests in BENCH_fuzz.json all rest on it.

use sih::model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailurePattern, LinkFaultPlan, Mutation,
    MutationKind, MutationWindow, ProcessId, Time,
};
use sih::runtime::{crossover, fnv1a_64, mutate, Choice, FuzzRng, MutOp, MutatorConfig, Schedule};
use std::path::PathBuf;

fn corpus() -> Vec<Schedule> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("reading tests/corpus")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("reading a corpus file");
            let s = Schedule::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            // The committed bytes, minus comments and blank lines, are
            // the canonical text: the writer still writes them exactly.
            let canonical: String = text
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(s.to_text(), canonical, "{} is not written back exactly", p.display());
            s
        })
        .collect()
}

/// A 12-process schedule with two-digit process ids and delivery
/// indices, every crash and link-line shape, and `inf` windows; with
/// `adversary`, also armor, unbounded mutation windows and an attack
/// line (the v2 grammar).
fn wide(adversary: bool) -> Schedule {
    let n = 12;
    let pattern = FailurePattern::builder(n)
        .crash_from_start(ProcessId(10))
        .crash_at(ProcessId(3), Time(40))
        .crash_at(ProcessId(11), Time(1_000_007))
        .build_unchecked();
    let faults = LinkFaultPlan::builder(n)
        .drop_every(ProcessId(10), ProcessId(2), 1, 0, Time(0), None)
        .duplicate_every(ProcessId(1), ProcessId(11), 10, 9, Time(100), Some(Time(1_000)))
        .build();
    let mut s = Schedule {
        checker: "fig2-weak-sigma".to_string(),
        n,
        k: 10,
        seed: u64::MAX,
        max_steps: 10_000,
        pattern,
        faults,
        adversary: AdversaryPlan::honest(n),
        attack: None,
        armor: Armor::NONE,
        choices: (0..40)
            .map(|i| Choice {
                p: ProcessId(i % 12),
                deliver: (i % 3 != 0).then_some(i as usize * 7),
            })
            .collect(),
        verdict: "violation:agreement".to_string(),
    };
    if adversary {
        s.checker = "abd-byz-perturb".to_string();
        s.armor = Armor::level(2);
        s.attack = Some(AttackSpec { kind: AttackKind::SplitAck, x: 0 });
        s.adversary = AdversaryPlan::builder(n)
            .window(window(MutationKind::Perturb, 11, 10, 0, None, 99))
            .window(window(MutationKind::ForgeSender, 0, 1, 1_000, Some(2_000), u64::MAX))
            .build();
    }
    s
}

fn window(
    kind: MutationKind,
    src: u32,
    dst: u32,
    from: u64,
    until: Option<u64>,
    x: u64,
) -> MutationWindow {
    MutationWindow {
        src: ProcessId(src),
        dst: ProcessId(dst),
        action: Mutation { kind, x },
        stride: 10,
        offset: 3,
        from: Time(from),
        until: until.map(Time),
    }
}

/// Which corners of the grammar one schedule's text reaches.
#[derive(Default, Debug)]
struct Reach {
    v1: u32,
    v2: u32,
    crash: u32,
    crash_from_start: u32,
    link: u32,
    adversary: u32,
    attack: u32,
    inf: u32,
    wide_pid: u32,
    wide_index: u32,
}

impl Reach {
    fn note(&mut self, text: &str) {
        self.v1 += u32::from(text.starts_with("sih-schedule v1\n"));
        self.v2 += u32::from(text.starts_with("sih-schedule v2\n"));
        for line in text.lines() {
            self.crash += u32::from(line.starts_with("crash: "));
            self.crash_from_start += u32::from(line.starts_with("crash-from-start: "));
            self.link += u32::from(line.starts_with("link: "));
            self.adversary += u32::from(line.starts_with("adversary: "));
            self.attack += u32::from(line.starts_with("attack: "));
            self.inf += u32::from(line.contains(", inf)"));
            self.wide_pid += u32::from(
                line.split(['p', '>'])
                    .skip(1)
                    .any(|t| t.bytes().take_while(u8::is_ascii_digit).count() >= 2),
            );
            if let Some(rest) = line.strip_prefix("choice: ") {
                let index = rest.split_whitespace().nth(1).unwrap_or(".");
                self.wide_index += u32::from(index.len() >= 2 && index != ".");
            }
        }
    }

    fn assert_complete(&self) {
        let counts = [
            self.v1,
            self.v2,
            self.crash,
            self.crash_from_start,
            self.link,
            self.adversary,
            self.attack,
            self.inf,
            self.wide_pid,
            self.wide_index,
        ];
        assert!(counts.iter().all(|&c| c > 0), "a grammar corner went untested: {self:?}");
    }
}

fn assert_digest_is_fnv_of_text(s: &Schedule, reach: &mut Reach) {
    let text = s.to_text();
    assert_eq!(s.digest(), fnv1a_64(text.as_bytes()), "streamed digest differs for:\n{text}");
    assert_eq!(Schedule::parse(&text).as_ref(), Ok(s), "the text does not round-trip:\n{text}");
    reach.note(&text);
}

#[test]
fn digest_is_the_fnv_of_the_text_on_the_corpus_and_its_offspring() {
    let mut parents = corpus();
    assert!(parents.len() >= 10, "tests/corpus shrank to {} files", parents.len());
    parents.extend([wide(false), wide(true)]);
    let mut reach = Reach::default();
    for s in &parents {
        assert_digest_is_fnv_of_text(s, &mut reach);
    }

    // Breed: each round mutates one parent with one operator (adversary
    // operators allowed), or crosses two parents of the same shape.
    // Every kept child joins the pool, so later rounds stack operators.
    let mut rng = FuzzRng::new(0x5EED);
    let mut pool = parents;
    let mut bred = 0;
    for round in 0..4_000u64 {
        if bred >= 800 {
            break;
        }
        let a = &pool[rng.below(pool.len() as u64) as usize];
        let cfg = MutatorConfig::for_schedule(a, true);
        let child = if round % 5 == 4 {
            let b = &pool[rng.below(pool.len() as u64) as usize];
            crossover(a, b, &cfg, &mut rng)
        } else {
            let op = MutOp::ALL[rng.below(MutOp::ALL.len() as u64) as usize];
            mutate(a, op, &cfg, &mut rng)
        };
        if let Some(child) = child {
            assert_digest_is_fnv_of_text(&child, &mut reach);
            pool.push(child);
            bred += 1;
        }
    }
    assert!(bred >= 500, "only {bred} schedules bred");
    reach.assert_complete();
}

#[test]
fn digits_are_written_exactly_at_every_width() {
    // Every power of ten and its neighbours, through the seed field.
    let mut s = wide(false);
    let mut reach = Reach::default();
    let mut v = 1u64;
    loop {
        for seed in [v - 1, v, v + 1] {
            s.seed = seed;
            assert_digest_is_fnv_of_text(&s, &mut reach);
            assert!(s.to_text().contains(&format!("\nseed: {seed}\n")));
        }
        match v.checked_mul(10) {
            Some(next) => v = next,
            None => break,
        }
    }
    s.seed = u64::MAX;
    assert_digest_is_fnv_of_text(&s, &mut reach);
    assert!(s.to_text().contains("\nseed: 18446744073709551615\n"));
}

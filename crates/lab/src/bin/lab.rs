//! `lab` — the experiment CLI.
//!
//! ```text
//! lab <e1..e16 | figure1 | all> [--n N] [--k K] [--seeds S] [--steps M] [--threads T] [--json PATH]
//! lab explore [--n N] [--depth D] [--frontier-depth K] [--strict-frontier] [--threads T] [--json PATH]
//! lab <faults | byzantine> [--n N] [--seeds S] [--steps M] [--threads T] [--json PATH]
//! lab scale [--max-n N] [--sample D] [--huge] [--threads T] [--json PATH]
//! lab fuzz [--seed S] [--budget-schedules N] [--budget-ms MS] [--batch B] [--corpus DIR]
//!          [--witness-dir DIR] [--threads T] [--json PATH]
//! lab repro <record --workload W | shrink FILE | replay FILE | corpus DIR> …
//! lab gate FILE | lab gate BASELINE FRESH
//! ```
//!
//! Each verb reads only its own flags (`sih_lab::cli`): a malformed or
//! missing value, or a flag the verb does not read, prints `error: …`
//! and exits 1 before anything runs. `--threads 0` (the default) uses
//! one worker per core; every thread count gives identical results, so
//! `--threads` only changes wall clock.
//!
//! The bench verbs write, with `--json`, a record that also carries the
//! canonical argv that produced it as `"command"` (`lab all` writes
//! `{command, reports}`):
//! - `explore`: the reduced-state-space explorer against unreduced
//!   enumeration (`BENCH_explore.json`). It exits 1 unless the verdicts
//!   agree, the reduced leg is safe and source-DPOR explores no more
//!   states than the sleep-set leg; `--strict-frontier` also fails it
//!   when the parallel frontier leg is slower than unreduced enumeration
//!   (a wall-clock check, meant for release builds).
//! - `faults`: Figures 2/4 and ABD over lossy, duplicating and healed
//!   links, plus the permanent-partition witness (`BENCH_faults.json`).
//! - `byzantine`: the same workloads under message mutation and scripted
//!   attacks, swept over the armor ladder (`BENCH_byzantine.json`).
//! - `scale`: ABD and sampled Figure 2/4 decisions at `n ∈ {10³, 10⁴,
//!   10⁵}` (`--huge` adds `10⁶`, `--max-n` lowers it; `BENCH_scale.json`).
//! - `fuzz`: the coverage-guided schedule fuzzer over the weakened and
//!   byzantine repro workloads (`BENCH_fuzz.json`); `--corpus DIR` adds
//!   seed schedules, `--witness-dir DIR` writes each shrunk witness.
//!
//! `lab repro` records, shrinks and replays counterexample schedules;
//! `corpus DIR` strict-replays every `*.schedule` (`--fresh DIR` also
//! re-records each planted violation).
//!
//! `lab gate FILE` reruns a record's own `"command"` in-process at
//! `--threads 1` and again at 4, and exits 1 naming the first JSON path
//! (and thread count) at which a rerun differs. It refuses a command
//! capped by `--budget-ms`, which no rerun reproduces. `lab gate
//! BASELINE FRESH` compares two records the same way. Both ignore wall
//! clock, rates, speedups, `peak_rss_kb`, `workers` and `threads`.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tooling: argv is the CLI's input, and `lab gate` ignores the wall-clock fields it times"
)]

use sih_lab::cli::{parse_args, ReproArgs, Verb};
use sih_lab::json::{self, Value};
use sih_lab::{
    gate_file, render_figure1, repro, run_experiment, Bench, BenchReport, ExperimentReport,
    FuzzBenchReport, EXPERIMENT_IDS, GATE_THREADS,
};
use sih_runtime::Schedule;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// `print!` through stdout's one writer: when the reader has gone away
/// (`lab … | head`), the program ends quietly instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`out!`]'s writer.
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Writes to stdout. A closed pipe exits with the status a shell reports
/// for a writer that `SIGPIPE` ended (128 + 13), printing nothing; any
/// other write error is reported and exits 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let written = std::io::stdout().lock().write_fmt(args);
    if let Err(e) = written {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
        std::process::exit(141);
    }
}

const USAGE: &str = "\
usage: lab <e1..e16 | figure1 | all> [--n N] [--k K] [--seeds S] [--steps M] [--threads T] [--json PATH]
       lab explore [--n N] [--depth D] [--frontier-depth K] [--strict-frontier] [--threads T] [--json PATH]
       lab <faults | byzantine> [--n N] [--seeds S] [--steps M] [--threads T] [--json PATH]
       lab scale [--max-n N] [--sample D] [--huge] [--threads T] [--json PATH]
       lab fuzz [--seed S] [--budget-schedules N] [--budget-ms MS] [--batch B] [--corpus DIR] [--witness-dir DIR] [--threads T] [--json PATH]
       lab repro record --workload W [--n N] [--k K] [--seed S] [--scan T] [--steps M] [--shrink] [--out FILE]
       lab repro shrink FILE [--out FILE]
       lab repro replay FILE [--lenient]
       lab repro corpus DIR [--threads T] [--fresh DIR]
       lab gate FILE
       lab gate BASELINE FRESH";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        // `lab faults` (`byzantine`, `fuzz`) runs the bench of that name,
        // so those experiments can only run inside `lab all`.
        let (alone, in_all): (Vec<&str>, Vec<&str>) = EXPERIMENT_IDS.iter().partition(|id| {
            matches!(parse_args(&[id.to_string()]).map(|inv| inv.verb), Ok(Verb::Experiment(..)))
        });
        eprintln!("experiments: {}", alone.join(", "));
        eprintln!(
            "experiments run only inside `lab all`: {} (`lab <name>` runs that bench)",
            in_all.join(", ")
        );
        let workloads: Vec<&str> = repro::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("repro workloads: {}", workloads.join(", "));
        return ExitCode::FAILURE;
    }
    let inv = match parse_args(&args) {
        Ok(inv) => inv,
        Err(e) => return fail(&e),
    };
    let outcome = match inv.verb {
        Verb::Experiment(id, cfg) => {
            let t0 = Instant::now();
            let report = run_experiment(&id, &cfg);
            let wall = t0.elapsed();
            out!("{report}");
            let ok = report.ok;
            let json = ExperimentReport::batch_to_json(&[(report, wall)]);
            write_json(&id, &json, inv.json.as_deref()).map(|()| ok)
        }
        Verb::Figure1(cfg) => {
            out!("{}", render_figure1(&cfg));
            Ok(true)
        }
        Verb::Bench(bench) => run_bench(&bench, &inv.json, &inv.witness_dir, inv.strict_frontier),
        Verb::Gate(baseline, None) => match gate_file(Path::new(&baseline)) {
            Ok(()) => {
                let threads: Vec<String> = GATE_THREADS.iter().map(usize::to_string).collect();
                outln!("gate: {baseline} regenerates at --threads {}", threads.join(" and "));
                Ok(true)
            }
            Err(e) => Err(format!("gate: {baseline}: {e}")),
        },
        Verb::Gate(baseline, Some(fresh)) => gate_two(&baseline, &fresh),
        Verb::Repro(r) => repro_cli(r),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => fail("UNEXPECTED outcome"),
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// Runs a bench verb (or `all`), prints its report, writes its
/// self-describing record, and returns its verdict.
fn run_bench(
    bench: &Bench,
    json_path: &Option<String>,
    witness_dir: &Option<String>,
    strict_frontier: bool,
) -> Result<bool, String> {
    let report = bench.run()?;
    out!("{report}");
    let mut ok = report.ok();
    match &report {
        BenchReport::Explore(r) => match r.gate(strict_frontier) {
            Err(e) => {
                eprintln!("error: {e}");
                ok = false;
            }
            Ok(()) if r.frontier_regressed() => eprintln!(
                "warning: frontier_speedup {:.2} < 1.0 — the parallel frontier leg is slower \
                 than the unreduced baseline (fatal with --strict-frontier)",
                r.frontier_speedup()
            ),
            Ok(()) => {}
        },
        BenchReport::Fuzz(r) => {
            if let Some(dir) = witness_dir {
                write_witnesses(dir, r)?;
            }
        }
        _ => {}
    }
    write_json(bench.name(), &bench.record(&report), json_path.as_deref())?;
    Ok(ok)
}

/// Writes one file per workload into `dir`: the first (deterministically
/// ordered) witness class the fuzzer found against it.
fn write_witnesses(dir: &str, report: &FuzzBenchReport) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let mut written: Vec<&str> = Vec::new();
    for w in &report.witnesses {
        if written.contains(&w.workload.as_str()) {
            continue;
        }
        written.push(&w.workload);
        let path = format!("{dir}/{}-fuzz.schedule", w.workload);
        let text = format!(
            "# Fuzzer-found negative witness for {} (`{}`).\n\
             # Recorded by: lab fuzz --seed {} --budget-schedules {} (auto-shrunk \
             {} -> {} choices)\n{}",
            w.workload,
            w.verdict,
            report.cfg.seed,
            report.cfg.budget_schedules,
            w.shrink.original_len,
            w.shrink.final_len,
            w.schedule.to_text()
        );
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote witness {path} (`{}`)", w.verdict);
    }
    Ok(())
}

/// Writes `json` to `path` (if given).
fn write_json(what: &str, json: &Value, path: Option<&str>) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, json.to_string_pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote {what} record to {path}");
    }
    Ok(())
}

/// `lab gate BASELINE FRESH`: the first JSON path at which the fresh
/// record differs from the baseline (see [`json::first_difference`] for
/// the ignored fields).
fn gate_two(baseline: &str, fresh: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match json::first_difference(&load(baseline)?, &load(fresh)?) {
        None => {
            outln!("gate: {fresh} matches {baseline}");
            Ok(true)
        }
        Some(path) => Err(format!("gate: {fresh} differs from {baseline} at {path}")),
    }
}

/// The `lab repro` verb: record, shrink, replay and verify counterexample
/// schedules (see `sih_lab::repro`).
fn repro_cli(r: ReproArgs) -> Result<bool, String> {
    let load = |path: &str| -> Result<Schedule, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Schedule::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let captured = match r.sub.as_str() {
        "record" => {
            let captured = match r.scan {
                Some(tries) => repro::record_first_violation(&r.req.workload, r.req.k, tries),
                None => repro::record(&r.req),
            };
            let Some(s) = captured.map_err(|e| e.to_string())? else {
                return Err(format!("{}: no violation captured (run was clean)", r.req.workload));
            };
            s
        }
        "shrink" => load(&r.path)?,
        "replay" => {
            let s = load(&r.path)?;
            let mode =
                if r.lenient { repro::ReplayMode::Lenient } else { repro::ReplayMode::Strict };
            let rep = repro::replay(&s, mode).map_err(|e| e.to_string())?;
            outln!(
                "{}: recorded `{}`, replayed `{}` in {} step(s) — {}",
                r.path,
                s.verdict,
                rep.verdict,
                rep.executed.len(),
                if rep.matches { "reproduced" } else { "STALE" }
            );
            return Ok(rep.matches);
        }
        _ => {
            let entries = repro::verify_corpus_dir(Path::new(&r.path), r.threads)
                .map_err(|e| format!("reading {}: {e}", r.path))?;
            if entries.is_empty() {
                return Err(format!("{}: no *.schedule files", r.path));
            }
            for entry in &entries {
                outln!("{entry}");
            }
            if let Some(fresh_dir) = &r.fresh {
                record_fresh_corpus(fresh_dir)?;
            }
            if entries.iter().any(|e| !e.ok) {
                return Err("STALE corpus entries present".into());
            }
            return Ok(true);
        }
    };
    let schedule = if r.shrink || r.sub == "shrink" {
        let (small, report) = repro::shrink(&captured).map_err(|e| format!("shrink: {e}"))?;
        eprintln!(
            "shrunk {} -> {} choices ({} candidates tried, {} accepted, {} rounds)",
            report.original_len,
            report.final_len,
            report.candidates_tried,
            report.candidates_accepted,
            report.rounds
        );
        small
    } else {
        captured
    };
    match &r.out {
        Some(path) => {
            std::fs::write(path, schedule.to_text()).map_err(|e| format!("writing {path}: {e}"))?;
            let (len, verdict) = (schedule.choices.len(), &schedule.verdict);
            outln!("wrote {path} ({len} choices, verdict `{verdict}`)");
        }
        None => out!("{}", schedule.to_text()),
    }
    Ok(true)
}

/// Records and shrinks a fresh counterexample for every weakened workload
/// into `dir` — the CI artifact proving the pipeline still captures each
/// planted violation from scratch.
fn record_fresh_corpus(dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    for w in repro::WORKLOADS.iter().filter(|w| !w.expect_ok) {
        let captured =
            repro::record_first_violation(w.name, 1, 64).map_err(|e| format!("{}: {e}", w.name))?;
        let Some(s) = captured else {
            return Err(format!("{}: planted violation NOT captured in 64 seeds", w.name));
        };
        let (small, report) = repro::shrink(&s).map_err(|e| format!("{}: shrink: {e}", w.name))?;
        let path = format!("{dir}/{}.schedule", w.name);
        std::fs::write(&path, small.to_text()).map_err(|e| format!("writing {path}: {e}"))?;
        outln!(
            "fresh {}: `{}` shrunk {} -> {} choices",
            path,
            small.verdict,
            report.original_len,
            report.final_len
        );
    }
    Ok(())
}

//! `lab` — the experiment CLI.
//!
//! ```text
//! lab <e1..e15 | figure1 | explore | faults | byzantine | fuzz | repro | all> [--n N] [--k K]
//!     [--seeds S] [--steps M] [--depth D] [--threads T] [--json PATH]
//! ```
//!
//! `--threads 0` (the default) uses one worker per available core; every
//! thread count produces identical results, so `--threads` only changes
//! wall clock. JSON records include `wall_ms` and `runs_per_sec` so perf
//! trajectories can be tracked across revisions.
//!
//! `lab explore` benchmarks the reduced-state-space explorer against
//! unreduced enumeration (`--depth` bounds the schedules) and, with
//! `--json`, writes the `BENCH_explore.json` artifact.
//!
//! `lab faults` runs the robustness matrix (Figures 2/4 and the ABD
//! register over lossy, duplicating and partitioned-then-healed links,
//! plus the permanent-partition starvation witness) and, with `--json`,
//! writes the `BENCH_faults.json` artifact.
//!
//! `lab byzantine` runs the graceful-degradation matrix (Figures 2/4 and
//! the ABD register under deterministic message mutation and scripted
//! protocol attacks, swept over the minimum-armor ladder) and, with
//! `--json`, writes the `BENCH_byzantine.json` artifact.
//!
//! `lab scale` runs the large-`n` scaling tier (the majority-quorum ABD
//! register plus sampled Figure 2/Figure 4 decisions at
//! `n ∈ {10³, 10⁴, 10⁵}`; add `--huge` for `10⁶`, or lower the ladder
//! with `--max-n`) and, with `--json`, writes the `BENCH_scale.json`
//! artifact.
//!
//! `lab fuzz` runs the coverage-guided schedule fuzzer over the weakened
//! and byzantine repro workloads (`--budget-schedules`/`--budget-ms`
//! bound the run, `--seed` picks the mutation stream, `--corpus DIR`
//! adds extra seed schedules, `--witness-dir DIR` writes each shrunk
//! violation witness in corpus format) and, with `--json`, writes the
//! `BENCH_fuzz.json` artifact. Everything but wall clock is identical
//! for every `--threads` value.
//!
//! `lab repro` is the counterexample harness: `record` captures a failing
//! schedule from a registered workload, `shrink` minimizes it with the
//! delta-debugging engine, `replay` re-runs one schedule file, and
//! `corpus DIR` strict-replays every committed `*.schedule` (add
//! `--fresh DIR` to also re-record each planted violation from scratch).
//!
//! `lab gate BASELINE FRESH` compares a fresh bench JSON record with a
//! committed baseline and exits 1 naming the first differing JSON path
//! (wall clock, rates, speedups, `peak_rss_kb`, `workers` and `threads`
//! are ignored).

use sih_lab::json::{self, Value};
use sih_lab::{
    load_seed_schedules, render_figure1, repro, run_byzantine_bench, run_experiment,
    run_explore_bench, run_faults_bench, run_fuzz_bench, run_scale_bench, ByzantineLabConfig,
    ExperimentReport, ExploreLabConfig, FaultsLabConfig, FuzzLabConfig, LabConfig, ScaleLabConfig,
    EXPERIMENT_IDS,
};
use sih_runtime::Schedule;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: lab <e1..e15 | figure1 | explore | faults | byzantine | scale | fuzz | repro | gate | all> [--n N] [--k K] [--seeds S] [--steps M] [--depth D] [--threads T] [--frontier-depth K] [--max-n N] [--sample D] [--huge] [--seed S] [--budget-schedules N] [--budget-ms MS] [--batch B] [--corpus DIR] [--witness-dir DIR] [--json PATH]"
        );
        eprintln!("experiments: {}", EXPERIMENT_IDS.join(", "));
        eprintln!(
            "repro: lab repro <record --workload W | shrink FILE | replay FILE | corpus DIR> …"
        );
        eprintln!("gate: lab gate BASELINE FRESH");
        return ExitCode::FAILURE;
    }
    if args[0] == "repro" {
        return repro_cli(&args[1..]);
    }
    if args[0] == "gate" {
        return gate_cli(&args[1..]);
    }
    let command = args[0].clone();
    let mut cfg = LabConfig::default();
    let mut explore_cfg = ExploreLabConfig::default();
    let mut faults_cfg = FaultsLabConfig::default();
    let mut byz_cfg = ByzantineLabConfig::default();
    let mut scale_cfg = ScaleLabConfig::default();
    let mut fuzz_cfg = FuzzLabConfig::default();
    let mut fuzz_corpus_dir: Option<String> = None;
    let mut witness_dir: Option<String> = None;
    let mut json_path: Option<String> = None;

    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> String {
            it.next().unwrap_or_else(|| panic!("missing value for {flag}")).clone()
        };
        match flag.as_str() {
            "--n" => {
                cfg.n = value(&mut it).parse().expect("--n takes an integer");
                explore_cfg.n = cfg.n;
                faults_cfg.n = cfg.n;
                byz_cfg.n = cfg.n;
            }
            "--k" => cfg.k = value(&mut it).parse().expect("--k takes an integer"),
            "--seeds" => {
                cfg.seeds = value(&mut it).parse().expect("--seeds takes an integer");
                faults_cfg.seeds = cfg.seeds;
                byz_cfg.seeds = cfg.seeds;
            }
            "--steps" => {
                cfg.max_steps = value(&mut it).parse().expect("--steps takes an integer");
                faults_cfg.max_steps = cfg.max_steps;
                byz_cfg.max_steps = cfg.max_steps;
            }
            "--depth" => {
                explore_cfg.depth = value(&mut it).parse().expect("--depth takes an integer")
            }
            "--frontier-depth" => {
                explore_cfg.frontier_depth =
                    value(&mut it).parse().expect("--frontier-depth takes an integer (0 = auto)")
            }
            "--threads" => {
                cfg.threads = value(&mut it).parse().expect("--threads takes an integer");
                explore_cfg.threads = cfg.threads;
                faults_cfg.threads = cfg.threads;
                byz_cfg.threads = cfg.threads;
                scale_cfg.threads = cfg.threads;
                fuzz_cfg.threads = cfg.threads;
            }
            "--seed" => fuzz_cfg.seed = value(&mut it).parse().expect("--seed takes an integer"),
            "--budget-schedules" => {
                fuzz_cfg.budget_schedules =
                    value(&mut it).parse().expect("--budget-schedules takes an integer")
            }
            "--budget-ms" => {
                fuzz_cfg.budget_ms = value(&mut it).parse().expect("--budget-ms takes an integer")
            }
            "--batch" => fuzz_cfg.batch = value(&mut it).parse().expect("--batch takes an integer"),
            "--corpus" => fuzz_corpus_dir = Some(value(&mut it)),
            "--witness-dir" => witness_dir = Some(value(&mut it)),
            "--max-n" => {
                scale_cfg.max_n = value(&mut it).parse().expect("--max-n takes an integer")
            }
            "--sample" => {
                scale_cfg.sample = value(&mut it).parse().expect("--sample takes an integer")
            }
            "--huge" => scale_cfg.huge = true,
            "--json" => json_path = Some(value(&mut it)),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    if command == "scale" {
        let report = run_scale_bench(&scale_cfg);
        print!("{report}");
        return finish_bench("scale", report.ok(), report.to_json(), json_path);
    }

    if command == "fuzz" {
        let extra = match &fuzz_corpus_dir {
            Some(dir) => match load_seed_schedules(std::path::Path::new(dir)) {
                Ok(seeds) => seeds,
                Err(e) => {
                    eprintln!("reading {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => Vec::new(),
        };
        let report = run_fuzz_bench(&fuzz_cfg, &extra);
        println!("{report}");
        if let Some(dir) = witness_dir {
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
            // One file per workload: the first (deterministically
            // ordered) witness class found against it.
            let mut written: Vec<String> = Vec::new();
            for w in &report.witnesses {
                if written.contains(&w.workload) {
                    continue;
                }
                written.push(w.workload.clone());
                let path = format!("{dir}/{}-fuzz.schedule", w.workload);
                let text = format!(
                    "# Fuzzer-found negative witness for {} (`{}`).\n\
                     # Recorded by: lab fuzz --seed {} --budget-schedules {} (auto-shrunk \
                     {} -> {} choices)\n{}",
                    w.workload,
                    w.verdict,
                    fuzz_cfg.seed,
                    fuzz_cfg.budget_schedules,
                    w.shrink.original_len,
                    w.shrink.final_len,
                    w.schedule.to_text()
                );
                std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("wrote witness {path} (`{}`)", w.verdict);
            }
        }
        return finish_bench("fuzz", report.ok(), report.to_json(), json_path);
    }

    if command == "byzantine" {
        let report = run_byzantine_bench(&byz_cfg);
        print!("{report}");
        return finish_bench("byzantine", report.ok(), report.to_json(), json_path);
    }

    if command == "faults" {
        let report = run_faults_bench(&faults_cfg);
        print!("{report}");
        return finish_bench("faults", report.ok(), report.to_json(), json_path);
    }

    if command == "explore" {
        let report = run_explore_bench(&explore_cfg);
        print!("{report}");
        if report.frontier_regressed() {
            eprintln!(
                "error: frontier_speedup {:.2} < 1.0 — the parallel frontier leg is slower than \
                 the unreduced baseline; CI fails the explore job on this (release artifact only)",
                report.frontier_speedup()
            );
        }
        let ok = report.verdicts_agree() && report.reduced.ok();
        return finish_bench("explore", ok, report.to_json(), json_path);
    }

    let timed_run = |id: &str| -> (ExperimentReport, Duration) {
        let t0 = Instant::now();
        let r = run_experiment(id, &cfg);
        let wall = t0.elapsed();
        print!("{r}");
        (r, wall)
    };

    let reports: Vec<(ExperimentReport, Duration)> = match command.as_str() {
        "figure1" => {
            print!("{}", render_figure1(&cfg));
            return ExitCode::SUCCESS;
        }
        "all" => EXPERIMENT_IDS.iter().map(|id| timed_run(id)).collect(),
        id if EXPERIMENT_IDS.contains(&id) => vec![timed_run(id)],
        other => {
            eprintln!(
                "unknown command {other}; expected e1..e15, explore, faults, byzantine, scale, fuzz, repro, gate, figure1 or all"
            );
            return ExitCode::FAILURE;
        }
    };

    let all_ok = reports.iter().all(|(r, _)| r.ok);
    if let Some(path) = json_path {
        let json = ExperimentReport::batch_to_json_pretty(&reports);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {} report(s) to {path}", reports.len());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("UNEXPECTED outcomes present");
        ExitCode::FAILURE
    }
}

/// The tail every bench verb shares once its report is printed: writes
/// the JSON record to `json_path` (if given) and maps `ok` to the exit
/// code.
fn finish_bench(bench: &str, ok: bool, json: Value, json_path: Option<String>) -> ExitCode {
    if let Some(path) = json_path {
        let text = json.to_string_pretty();
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {bench} bench to {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("UNEXPECTED {bench} outcome");
        ExitCode::FAILURE
    }
}

/// The `lab gate BASELINE FRESH` verb: exits 1 naming the first JSON path
/// at which the fresh bench record differs from the committed baseline
/// (see [`json::first_difference`] for the ignored fields).
fn gate_cli(args: &[String]) -> ExitCode {
    let [baseline, fresh] = args else {
        eprintln!("usage: lab gate BASELINE FRESH");
        return ExitCode::FAILURE;
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match load(baseline).and_then(|a| Ok(json::first_difference(&a, &load(fresh)?))) {
        Ok(None) => {
            println!("gate: {fresh} matches {baseline}");
            ExitCode::SUCCESS
        }
        Ok(Some(path)) => {
            eprintln!("gate: {fresh} differs from {baseline} at {path}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("gate: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `lab repro` verb: record, shrink, replay and verify counterexample
/// schedules (see `sih_lab::repro`).
///
/// ```text
/// lab repro record --workload W [--n N] [--k K] [--seed S] [--scan T]
///                  [--steps M] [--shrink] [--out FILE]
/// lab repro shrink FILE [--out FILE]
/// lab repro replay FILE [--lenient]
/// lab repro corpus DIR [--threads T] [--fresh DIR]
/// ```
fn repro_cli(args: &[String]) -> ExitCode {
    let usage = || -> ExitCode {
        eprintln!("usage: lab repro record --workload W [--n N] [--k K] [--seed S] [--scan T] [--steps M] [--shrink] [--out FILE]");
        eprintln!("       lab repro shrink FILE [--out FILE]");
        eprintln!("       lab repro replay FILE [--lenient]");
        eprintln!("       lab repro corpus DIR [--threads T] [--fresh DIR]");
        eprintln!(
            "workloads: {}",
            repro::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
        );
        ExitCode::FAILURE
    };
    let Some(sub) = args.first() else { return usage() };

    // Flag parsing shared by all subcommands; positional args collected.
    let mut workload_name: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut k: usize = 1;
    let mut seed: u64 = 0;
    let mut scan: Option<u64> = None;
    let mut steps: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut threads: usize = 0;
    let mut fresh: Option<String> = None;
    let mut lenient = false;
    let mut do_shrink = false;
    let mut positional: Vec<String> = Vec::new();

    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> String {
            it.next().unwrap_or_else(|| panic!("missing value for {flag}")).clone()
        };
        match flag.as_str() {
            "--workload" => workload_name = Some(value(&mut it)),
            "--n" => n = Some(value(&mut it).parse().expect("--n takes an integer")),
            "--k" => k = value(&mut it).parse().expect("--k takes an integer"),
            "--seed" => seed = value(&mut it).parse().expect("--seed takes an integer"),
            "--scan" => scan = Some(value(&mut it).parse().expect("--scan takes an integer")),
            "--steps" => steps = Some(value(&mut it).parse().expect("--steps takes an integer")),
            "--out" => out = Some(value(&mut it)),
            "--threads" => threads = value(&mut it).parse().expect("--threads takes an integer"),
            "--fresh" => fresh = Some(value(&mut it)),
            "--lenient" => lenient = true,
            "--shrink" => do_shrink = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => positional.push(other.to_string()),
        }
    }

    let write_or_print = |schedule: &Schedule, out: &Option<String>| {
        let text = schedule.to_text();
        match out {
            Some(path) => {
                std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!(
                    "wrote {path} ({} choices, verdict `{}`)",
                    schedule.choices.len(),
                    schedule.verdict
                );
            }
            None => print!("{text}"),
        }
    };
    let shrink_and_write = |s: &Schedule| match repro::shrink(s) {
        Ok((small, report)) => {
            eprintln!(
                "shrunk {} -> {} choices ({} candidates tried, {} accepted, {} rounds)",
                report.original_len,
                report.final_len,
                report.candidates_tried,
                report.candidates_accepted,
                report.rounds
            );
            write_or_print(&small, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shrink: {e}");
            ExitCode::FAILURE
        }
    };
    let load = |path: &str| -> Result<Schedule, ExitCode> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("reading {path}: {e}");
            ExitCode::FAILURE
        })?;
        Schedule::parse(&text).map_err(|e| {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        })
    };

    match sub.as_str() {
        "record" => {
            let Some(name) = workload_name else {
                eprintln!("record needs --workload");
                return usage();
            };
            let captured = match scan {
                Some(tries) => repro::record_first_violation(&name, k, tries),
                None => {
                    let mut req = repro::RecordRequest::new(&name);
                    req.n = n;
                    req.k = k;
                    req.seed = seed;
                    req.max_steps = steps;
                    repro::record(&req)
                }
            };
            match captured {
                Ok(Some(s)) if do_shrink => shrink_and_write(&s),
                Ok(Some(s)) => {
                    write_or_print(&s, &out);
                    ExitCode::SUCCESS
                }
                Ok(None) => {
                    eprintln!("{name}: no violation captured (run was clean)");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "shrink" => {
            let Some(path) = positional.first() else {
                eprintln!("shrink needs a schedule file");
                return usage();
            };
            let s = match load(path) {
                Ok(s) => s,
                Err(code) => return code,
            };
            shrink_and_write(&s)
        }
        "replay" => {
            let Some(path) = positional.first() else {
                eprintln!("replay needs a schedule file");
                return usage();
            };
            let s = match load(path) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let mode = if lenient { repro::ReplayMode::Lenient } else { repro::ReplayMode::Strict };
            match repro::replay(&s, mode) {
                Ok(rep) => {
                    println!(
                        "{}: recorded `{}`, replayed `{}` in {} step(s) — {}",
                        path,
                        s.verdict,
                        rep.verdict,
                        rep.executed.len(),
                        if rep.matches { "reproduced" } else { "STALE" }
                    );
                    if rep.matches {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "corpus" => {
            let Some(dir) = positional.first() else {
                eprintln!("corpus needs a directory");
                return usage();
            };
            let entries = match repro::verify_corpus_dir(std::path::Path::new(dir), threads) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("reading {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if entries.is_empty() {
                eprintln!("{dir}: no *.schedule files");
                return ExitCode::FAILURE;
            }
            let mut ok = true;
            for entry in &entries {
                println!("{entry}");
                ok &= entry.ok;
            }
            if let Some(fresh_dir) = fresh {
                if let Err(code) = record_fresh_corpus(&fresh_dir) {
                    return code;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("STALE corpus entries present");
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// Records and shrinks a fresh counterexample for every weakened workload
/// into `dir` — the CI artifact proving the pipeline still captures each
/// planted violation from scratch.
fn record_fresh_corpus(dir: &str) -> Result<(), ExitCode> {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    for w in repro::WORKLOADS.iter().filter(|w| !w.expect_ok) {
        let captured = repro::record_first_violation(w.name, 1, 64).map_err(|e| {
            eprintln!("{}: {e}", w.name);
            ExitCode::FAILURE
        })?;
        let Some(s) = captured else {
            eprintln!("{}: planted violation NOT captured in 64 seeds", w.name);
            return Err(ExitCode::FAILURE);
        };
        let (small, report) = repro::shrink(&s).map_err(|e| {
            eprintln!("{}: shrink: {e}", w.name);
            ExitCode::FAILURE
        })?;
        let path = format!("{dir}/{}.schedule", w.name);
        std::fs::write(&path, small.to_text()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "fresh {}: `{}` shrunk {} -> {} choices",
            path, small.verdict, report.original_len, report.final_len
        );
    }
    Ok(())
}

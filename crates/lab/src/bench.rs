//! Self-describing bench records and the one regenerate-and-gate path.
//!
//! Every bench verb and `all` writes a JSON record carrying its own
//! canonical argv as `"command"` ([`Bench::command`]). [`gate_baseline`]
//! parses that argv back, reruns it in-process at each of
//! [`GATE_THREADS`], and compares each run with the record exactly as
//! the two-file `lab gate` does ([`json::first_difference`]). `lab gate
//! FILE`, CI and `tests/baselines.rs` all gate the committed baselines
//! this way, so a new bench needs no gate code of its own.

use crate::cli::{claim_flags, flags, parse_args, Flags, Verb};
use crate::json::{self, ObjectBuilder, Value};
use crate::{
    load_seed_schedules, run_byzantine_bench, run_experiment, run_explore_bench, run_faults_bench,
    run_fuzz_bench, run_scale_bench, ByzantineBenchReport, ByzantineLabConfig, ClaimConfig,
    ExperimentReport, ExploreBenchReport, ExploreLabConfig, FaultsBenchReport, FaultsLabConfig,
    FuzzBenchReport, FuzzLabConfig, ScaleBenchReport, ScaleLabConfig, EXPERIMENT_IDS,
};
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// A verb that writes a self-describing JSON record, with its config.
#[derive(Clone, Debug)]
pub enum Bench {
    /// `lab all`: every experiment report.
    All(ClaimConfig),
    /// `lab explore`.
    Explore(ExploreLabConfig),
    /// `lab faults`.
    Faults(FaultsLabConfig),
    /// `lab byzantine`.
    Byzantine(ByzantineLabConfig),
    /// `lab scale`.
    Scale(ScaleLabConfig),
    /// `lab fuzz`, with its `--corpus` directory of extra seed schedules.
    Fuzz(FuzzLabConfig, Option<String>),
}

impl Bench {
    /// The bench `verb` names, at its default config.
    pub(crate) fn new(verb: &str) -> Option<Bench> {
        Some(match verb {
            "all" => Bench::All(ClaimConfig::default()),
            "explore" => Bench::Explore(ExploreLabConfig::default()),
            "faults" => Bench::Faults(FaultsLabConfig::default()),
            "byzantine" => Bench::Byzantine(ByzantineLabConfig::default()),
            "scale" => Bench::Scale(ScaleLabConfig::default()),
            "fuzz" => Bench::Fuzz(FuzzLabConfig::default(), None),
            _ => return None,
        })
    }

    /// The verb's name on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Bench::All(_) => "all",
            Bench::Explore(_) => "explore",
            Bench::Faults(_) => "faults",
            Bench::Byzantine(_) => "byzantine",
            Bench::Scale(_) => "scale",
            Bench::Fuzz(..) => "fuzz",
        }
    }

    /// The config flags the verb reads, in canonical order, each with
    /// the field it sets.
    pub(crate) fn flags(&mut self) -> Flags<'_> {
        match self {
            Bench::All(c) => claim_flags(c),
            Bench::Explore(c) => flags![
                "--n" => &mut c.n,
                "--depth" => &mut c.depth,
                "--frontier-depth" => &mut c.frontier_depth,
                "--threads" => &mut c.threads,
            ],
            Bench::Faults(FaultsLabConfig { n, seeds, max_steps, threads })
            | Bench::Byzantine(ByzantineLabConfig { n, seeds, max_steps, threads }) => flags![
                "--n" => n,
                "--seeds" => seeds,
                "--steps" => max_steps,
                "--threads" => threads,
            ],
            Bench::Scale(c) => flags![
                "--max-n" => &mut c.max_n,
                "--sample" => &mut c.sample,
                "--huge" => &mut c.huge,
                "--threads" => &mut c.threads,
            ],
            Bench::Fuzz(c, corpus) => flags![
                "--seed" => &mut c.seed,
                "--budget-schedules" => &mut c.budget_schedules,
                "--budget-ms" => &mut c.budget_ms,
                "--batch" => &mut c.batch,
                "--corpus" => corpus,
                "--threads" => &mut c.threads,
            ],
        }
    }

    /// The canonical argv of this run, its record's `"command"`: every
    /// config field spelled out, so a later change of a default cannot
    /// silently re-point a baseline, and none of the flags that change
    /// no counter (`--threads`, `--json`, `--witness-dir`,
    /// `--strict-frontier`). A switch appears only when set.
    pub fn command(&self) -> Vec<String> {
        let mut argv = vec![self.name().to_string()];
        for (flag, field) in self.clone().flags() {
            if flag != "--threads" {
                argv.extend(field.show(flag));
            }
        }
        argv
    }

    /// Sets the worker count, which changes only wall clock.
    fn set_threads(&mut self, threads: usize) {
        match self {
            Bench::All(ClaimConfig { threads: t, .. })
            | Bench::Explore(ExploreLabConfig { threads: t, .. })
            | Bench::Faults(FaultsLabConfig { threads: t, .. })
            | Bench::Byzantine(ByzantineLabConfig { threads: t, .. })
            | Bench::Scale(ScaleLabConfig { threads: t, .. })
            | Bench::Fuzz(FuzzLabConfig { threads: t, .. }, _) => *t = threads,
        }
    }

    /// Runs the bench in-process.
    ///
    /// # Errors
    ///
    /// Names the `--corpus` directory if its schedules cannot be read.
    pub fn run(&self) -> Result<BenchReport, String> {
        Ok(match self {
            Bench::All(cfg) => BenchReport::All(
                EXPERIMENT_IDS
                    .iter()
                    .map(|id| {
                        let t0 = Instant::now();
                        (run_experiment(id, cfg), t0.elapsed())
                    })
                    .collect(),
            ),
            Bench::Explore(cfg) => BenchReport::Explore(Box::new(run_explore_bench(cfg))),
            Bench::Faults(cfg) => BenchReport::Faults(run_faults_bench(cfg)),
            Bench::Byzantine(cfg) => BenchReport::Byzantine(run_byzantine_bench(cfg)),
            Bench::Scale(cfg) => BenchReport::Scale(run_scale_bench(cfg)),
            Bench::Fuzz(cfg, corpus) => {
                let extra = match corpus {
                    Some(dir) => load_seed_schedules(Path::new(dir))
                        .map_err(|e| format!("reading {dir}: {e}"))?,
                    None => Vec::new(),
                };
                BenchReport::Fuzz(run_fuzz_bench(cfg, &extra))
            }
        })
    }

    /// The JSON record `--json` writes for `report`: the report's own
    /// fields plus `"command"` (for `all`, `{"command", "reports"}`).
    pub fn record(&self, report: &BenchReport) -> Value {
        let mut record = match report {
            BenchReport::All(timed) => ObjectBuilder::new()
                .field("reports", ExperimentReport::batch_to_json(timed))
                .build(),
            BenchReport::Explore(r) => r.to_json(),
            BenchReport::Faults(r) => r.to_json(),
            BenchReport::Byzantine(r) => r.to_json(),
            BenchReport::Scale(r) => r.to_json(),
            BenchReport::Fuzz(r) => r.to_json(),
        };
        if let Value::Object(fields) = &mut record {
            fields.insert("command".to_string(), Value::from(self.command()));
        }
        record
    }
}

/// The outcome of [`Bench::run`].
#[derive(Clone, Debug)]
pub enum BenchReport {
    /// Every experiment report with the wall clock it took.
    All(Vec<(ExperimentReport, Duration)>),
    /// The explorer bench.
    Explore(Box<ExploreBenchReport>),
    /// The fault-injection matrix.
    Faults(FaultsBenchReport),
    /// The byzantine matrix.
    Byzantine(ByzantineBenchReport),
    /// The scale tier.
    Scale(ScaleBenchReport),
    /// The fuzz campaign.
    Fuzz(FuzzBenchReport),
}

impl BenchReport {
    /// The record's verdict (for `explore`, without the wall-clock
    /// frontier check).
    pub fn ok(&self) -> bool {
        match self {
            BenchReport::All(timed) => timed.iter().all(|(r, _)| r.ok),
            BenchReport::Explore(r) => r.ok(),
            BenchReport::Faults(r) => r.ok(),
            BenchReport::Byzantine(r) => r.ok(),
            BenchReport::Scale(r) => r.ok(),
            BenchReport::Fuzz(r) => r.ok(),
        }
    }
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchReport::All(timed) => timed.iter().try_for_each(|(r, _)| write!(f, "{r}")),
            BenchReport::Explore(r) => write!(f, "{r}"),
            BenchReport::Faults(r) => write!(f, "{r}"),
            BenchReport::Byzantine(r) => write!(f, "{r}"),
            BenchReport::Scale(r) => write!(f, "{r}"),
            BenchReport::Fuzz(r) => writeln!(f, "{r}"),
        }
    }
}

/// The worker counts [`gate_file`] reruns a record at.
pub const GATE_THREADS: [usize; 2] = [1, 4];

/// Why a record failed [`gate_file`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateError {
    /// The file cannot be read or is not JSON.
    Unreadable(String),
    /// The record has no `command` array of strings.
    NoCommand,
    /// The command does not parse, or its verb writes no bench record.
    BadCommand(String),
    /// The command caps a fuzz run by wall clock (`--budget-ms` > 0),
    /// which no rerun reproduces.
    WallClockCapped,
    /// The bench could not start.
    Run(String),
    /// The rerun at `threads` workers differs from the record at the
    /// JSON path `path`.
    Differs {
        /// The first differing JSON path (`$.cells[3].live`).
        path: String,
        /// The worker count of the differing rerun.
        threads: usize,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Unreadable(e) | GateError::Run(e) => f.write_str(e),
            GateError::NoCommand => f.write_str("no `command` array of strings to rerun"),
            GateError::BadCommand(e) => write!(f, "bad `command`: {e}"),
            GateError::WallClockCapped => f.write_str("`command` is capped by --budget-ms"),
            GateError::Differs { path, threads } => {
                write!(f, "the rerun at --threads {threads} differs at {path}")
            }
        }
    }
}

/// Reruns `record`'s `"command"` in-process at each of [`GATE_THREADS`]
/// and compares each run with `record`, on the written JSON text,
/// exactly as `lab gate BASELINE FRESH` does.
///
/// # Errors
///
/// The first [`GateError`]: a missing, unknown or wall-clock-capped
/// command, a bench that cannot start, or a differing rerun.
fn gate_baseline(record: &Value) -> Result<(), GateError> {
    let Value::Array(items) = record.get("command") else { return Err(GateError::NoCommand) };
    let argv: Vec<String> = items
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<_>>()
        .ok_or(GateError::NoCommand)?;
    let mut bench = match parse_args(&argv).map_err(GateError::BadCommand)?.verb {
        Verb::Bench(Bench::Fuzz(cfg, _)) if cfg.budget_ms > 0 => {
            return Err(GateError::WallClockCapped)
        }
        Verb::Bench(bench) => bench,
        _ => {
            return Err(GateError::BadCommand(format!(
                "`lab {}` writes no bench record",
                argv.join(" ")
            )))
        }
    };
    for threads in GATE_THREADS {
        bench.set_threads(threads);
        let report = bench.run().map_err(GateError::Run)?;
        let fresh =
            json::parse(&bench.record(&report).to_string_pretty()).map_err(GateError::Run)?;
        if let Some(path) = json::first_difference(record, &fresh) {
            return Err(GateError::Differs { path, threads });
        }
    }
    Ok(())
}

/// Reruns the record in file `path`'s `"command"` in-process at each of
/// [`GATE_THREADS`] and compares each run with the record, on the written
/// JSON text, exactly as `lab gate BASELINE FRESH` does (`lab gate FILE`).
///
/// # Errors
///
/// [`GateError::Unreadable`] if the file cannot be read or parsed, else
/// the first other [`GateError`]: a missing, unknown or wall-clock-capped
/// command, a bench that cannot start, or a differing rerun.
pub fn gate_file(path: &Path) -> Result<(), GateError> {
    let unreadable = |e: String| GateError::Unreadable(format!("{}: {e}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| unreadable(e.to_string()))?;
    gate_baseline(&json::parse(&text).map_err(unreadable)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rejects_a_missing_unknown_or_capped_command_without_running() {
        let gate = |command: &str| {
            gate_baseline(&json::parse(&format!(r#"{{"command": {command}}}"#)).unwrap())
        };
        assert_eq!(gate_baseline(&json::parse("{}").unwrap()), Err(GateError::NoCommand));
        assert_eq!(gate(r#""faults""#), Err(GateError::NoCommand));
        assert_eq!(gate(r#"["faults", 3]"#), Err(GateError::NoCommand));
        assert!(matches!(gate(r#"["e99"]"#), Err(GateError::BadCommand(e)) if e.contains("e99")));
        assert!(matches!(gate(r#"["e3"]"#), Err(GateError::BadCommand(_))));
        assert!(matches!(gate(r#"["faults", "--n", "x"]"#), Err(GateError::BadCommand(_))));
        let capped = gate(r#"["fuzz", "--budget-schedules", "8", "--budget-ms", "5"]"#);
        assert_eq!(capped, Err(GateError::WallClockCapped));
        let missing = gate_file(Path::new("no/such/BENCH.json"));
        assert!(matches!(missing, Err(GateError::Unreadable(e)) if e.contains("no/such")));
    }

    #[test]
    fn gate_names_the_first_differing_path_and_thread_count() {
        let bench = Bench::Scale(ScaleLabConfig { max_n: 8, sample: 2, ..Default::default() });
        let mut record = bench.record(&bench.run().unwrap());
        assert_eq!(gate_baseline(&record), Ok(()));
        if let Value::Object(fields) = &mut record {
            fields.insert("max_n".to_string(), Value::from(9u64));
        }
        let path = "$.max_n".to_string();
        assert_eq!(gate_baseline(&record), Err(GateError::Differs { path, threads: 1 }));
    }
}

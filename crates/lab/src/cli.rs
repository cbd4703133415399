//! The `lab` command line, parsed into typed configs.
//!
//! [`parse_args`] serves the `lab` binary and [`crate::gate_file`],
//! which reads a record's `"command"` back through it. Each verb has one
//! table of the flags it reads, each bound to the config field it sets
//! (`Bench::flags`); the same table writes a bench's canonical command.
//! A value that does not parse, a missing value, a flag the verb does
//! not read or a stray argument is an `Err` naming it, returned before
//! anything runs. Repeating a flag keeps its last value.

use crate::bench::Bench;
use crate::repro::RecordRequest;
use crate::{ClaimConfig, EXPERIMENT_IDS};

/// A parsed `lab` command line.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// What to run.
    pub verb: Verb,
    /// `--json PATH`: where to write the JSON record.
    pub json: Option<String>,
    /// `fuzz --witness-dir DIR`: where to write each shrunk witness.
    pub witness_dir: Option<String>,
    /// `explore --strict-frontier`: also fail when the parallel frontier
    /// leg is slower than unreduced enumeration.
    pub strict_frontier: bool,
}

/// The verb of an [`Invocation`], with its config.
#[derive(Clone, Debug)]
pub enum Verb {
    /// `e1`…`e16`: one experiment.
    Experiment(String, ClaimConfig),
    /// `figure1`: the results matrix.
    Figure1(ClaimConfig),
    /// A verb that writes a self-describing record (a bench or `all`).
    Bench(Bench),
    /// `gate BASELINE [FRESH]`; without `FRESH` the baseline is
    /// regenerated from its own `command`.
    Gate(String, Option<String>),
    /// `repro …`.
    Repro(ReproArgs),
}

/// The arguments of `lab repro`; each subcommand reads its own.
#[derive(Clone, Debug)]
pub struct ReproArgs {
    /// `record`, `shrink`, `replay` or `corpus`.
    pub sub: String,
    /// The schedule file (`shrink`, `replay`) or directory (`corpus`).
    pub path: String,
    /// `record --workload W [--n N] [--k K] [--seed S] [--steps M]`.
    pub req: RecordRequest,
    /// `record --scan T`: scan seeds `0..T` instead of `--seed`.
    pub scan: Option<u64>,
    /// `record --shrink`: minimize before writing.
    pub shrink: bool,
    /// `record`/`shrink --out FILE` (stdout if `None`).
    pub out: Option<String>,
    /// `replay --lenient`.
    pub lenient: bool,
    /// `corpus --threads T`.
    pub threads: usize,
    /// `corpus --fresh DIR`: also re-record every planted violation.
    pub fresh: Option<String>,
}

/// A config field that one flag sets.
pub(crate) trait Field {
    /// Sets the field from the flag's value (ignored for a switch).
    fn set(&mut self, value: &str) -> Result<(), String>;
    /// The field as argv after `flag` (nothing for an unset switch or
    /// option).
    fn show(&self, flag: &str) -> Vec<String>;
    /// Whether the flag is a switch, which takes no value.
    fn is_switch(&self) -> bool {
        false
    }
}

macro_rules! value_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn set(&mut self, value: &str) -> Result<(), String> {
                *self = value.parse().map_err(|_| format!("takes an integer, got `{value}`"))?;
                Ok(())
            }
            fn show(&self, flag: &str) -> Vec<String> {
                vec![flag.to_string(), self.to_string()]
            }
        }
        impl Field for Option<$t> {
            fn set(&mut self, value: &str) -> Result<(), String> {
                self.get_or_insert_with(Default::default).set(value)
            }
            fn show(&self, flag: &str) -> Vec<String> {
                self.iter().flat_map(|v| v.show(flag)).collect()
            }
        }
    )*};
}
value_fields!(usize, u64, String);

impl Field for bool {
    fn set(&mut self, _: &str) -> Result<(), String> {
        *self = true;
        Ok(())
    }
    fn show(&self, flag: &str) -> Vec<String> {
        if *self {
            vec![flag.to_string()]
        } else {
            Vec::new()
        }
    }
    fn is_switch(&self) -> bool {
        true
    }
}

/// A flag table: each flag a verb reads with the field it sets.
pub(crate) type Flags<'a> = Vec<(&'static str, &'a mut dyn Field)>;

/// Builds a [`Flags`] table from `"--flag" => &mut field` pairs.
macro_rules! flags {
    ($($flag:literal => $field:expr),* $(,)?) => {
        vec![$(($flag, $field as &mut dyn $crate::cli::Field)),*]
    };
}
pub(crate) use flags;

/// The flags of the experiment verbs, in canonical order.
pub(crate) fn claim_flags(c: &mut ClaimConfig) -> Flags<'_> {
    flags![
        "--n" => &mut c.n,
        "--k" => &mut c.k,
        "--seeds" => &mut c.seeds,
        "--steps" => &mut c.max_steps,
        "--threads" => &mut c.threads,
    ]
}

/// Sets each flag in `args` through `table` and returns the positional
/// arguments, of which the verb takes at most `max`.
fn apply<'a>(
    verb: &str,
    args: &'a [String],
    table: &mut Flags<'_>,
    max: usize,
) -> Result<Vec<&'a str>, String> {
    let mut positional = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if positional.len() == max {
                return Err(format!("`lab {verb}` takes no argument `{arg}`"));
            }
            positional.push(arg);
            continue;
        }
        let Some((_, field)) = table.iter_mut().find(|(flag, _)| *flag == arg) else {
            return Err(format!("`lab {verb}` does not take {arg}"));
        };
        let value = if field.is_switch() {
            ""
        } else {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("missing value for {arg}"))?
        };
        field.set(value).map_err(|e| format!("{arg} {e}"))?;
    }
    Ok(positional)
}

/// Parses a `lab` command line (without the program name).
///
/// # Errors
///
/// A one-line description of the first unknown verb, unread flag,
/// missing or malformed value, stray or missing argument, or
/// out-of-range experiment size.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let Some((verb, rest)) = args.split_first() else { return Err("no command given".into()) };
    if verb == "repro" {
        return parse_repro(rest);
    }
    let (mut json, mut witness_dir, mut strict_frontier) = (None, None, false);
    let mut claims = ClaimConfig::default();
    let mut bench = Bench::new(verb);
    let mut table = match &mut bench {
        Some(bench) => bench.flags(),
        None if verb == "gate" => Vec::new(),
        None if verb == "figure1" || EXPERIMENT_IDS.contains(&verb.as_str()) => {
            claim_flags(&mut claims)
        }
        None => {
            return Err(format!(
                "unknown command {verb}; expected e1..e16, figure1, explore, faults, byzantine, \
                 scale, fuzz, repro, gate or all"
            ))
        }
    };
    if !matches!(verb.as_str(), "gate" | "figure1") {
        table.push(("--json", &mut json));
    }
    if verb == "explore" {
        table.push(("--strict-frontier", &mut strict_frontier));
    }
    if verb == "fuzz" {
        table.push(("--witness-dir", &mut witness_dir));
    }
    let positional = apply(verb, rest, &mut table, if verb == "gate" { 2 } else { 0 })?;
    let verb = match (bench, &positional[..]) {
        (Some(bench), _) => Verb::Bench(bench),
        (None, [baseline, fresh @ ..]) => {
            Verb::Gate(baseline.to_string(), fresh.first().map(|f| f.to_string()))
        }
        (None, []) if verb == "gate" => return Err("`lab gate` needs a baseline file".into()),
        (None, _) if verb == "figure1" => Verb::Figure1(claims),
        (None, _) => Verb::Experiment(verb.clone(), claims),
    };
    if let Verb::Figure1(c) | Verb::Experiment(_, c) | Verb::Bench(Bench::All(c)) = &verb {
        c.validate().map_err(|e| e.to_string())?;
    }
    Ok(Invocation { verb, json, witness_dir, strict_frontier })
}

/// Parses the arguments after `lab repro`.
fn parse_repro(args: &[String]) -> Result<Invocation, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("`lab repro` needs record, shrink, replay or corpus".into());
    };
    let mut r = ReproArgs {
        sub: sub.clone(),
        path: String::new(),
        req: RecordRequest::new(""),
        scan: None,
        shrink: false,
        out: None,
        lenient: false,
        threads: 0,
        fresh: None,
    };
    let (mut table, needs): (Flags<'_>, &str) = match sub.as_str() {
        "record" => (
            flags![
                "--workload" => &mut r.req.workload,
                "--n" => &mut r.req.n,
                "--k" => &mut r.req.k,
                "--seed" => &mut r.req.seed,
                "--scan" => &mut r.scan,
                "--steps" => &mut r.req.max_steps,
                "--shrink" => &mut r.shrink,
                "--out" => &mut r.out,
            ],
            "",
        ),
        "shrink" => (flags!["--out" => &mut r.out], "a schedule file"),
        "replay" => (flags!["--lenient" => &mut r.lenient], "a schedule file"),
        "corpus" => {
            (flags!["--threads" => &mut r.threads, "--fresh" => &mut r.fresh], "a corpus directory")
        }
        other => {
            return Err(format!(
                "unknown repro command {other}; expected record, shrink, replay or corpus"
            ))
        }
    };
    let verb = format!("repro {sub}");
    let positional = apply(&verb, rest, &mut table, usize::from(!needs.is_empty()))?;
    match positional.first() {
        Some(p) => r.path = p.to_string(),
        None if !needs.is_empty() => return Err(format!("`lab {verb}` needs {needs}")),
        None if sub == "record" && r.req.workload.is_empty() => {
            return Err("`lab repro record` needs --workload".into())
        }
        None => {}
    }
    Ok(Invocation { verb: Verb::Repro(r), json: None, witness_dir: None, strict_frontier: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExploreLabConfig, FuzzLabConfig, ScaleLabConfig};

    fn parse(line: &str) -> Result<Invocation, String> {
        parse_args(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    fn bench(line: &str) -> Bench {
        match parse(line).unwrap().verb {
            Verb::Bench(bench) => bench,
            other => panic!("{line}: {other:?}"),
        }
    }

    #[test]
    fn every_bench_default_round_trips_through_its_canonical_command() {
        let scale = ScaleLabConfig { huge: true, ..ScaleLabConfig::default() };
        let fuzz = Bench::Fuzz(FuzzLabConfig::default(), Some("tests/corpus".into()));
        let mut benches: Vec<Bench> = ["all", "explore", "faults", "byzantine", "scale", "fuzz"]
            .iter()
            .map(|verb| Bench::new(verb).unwrap())
            .collect();
        benches.extend([Bench::Scale(scale), fuzz]);
        for b in benches {
            let command = b.command();
            let back = bench(&command.join(" "));
            assert_eq!(format!("{back:?}"), format!("{b:?}"), "{command:?}");
            assert_eq!(back.command(), command);
        }
        assert_eq!(
            bench("fuzz --batch 8 --threads 3 --json x --witness-dir w").command().join(" "),
            "fuzz --seed 0 --budget-schedules 512 --budget-ms 0 --batch 8",
            "every counter field is named, no runner flag is"
        );
        let Bench::Explore(ExploreLabConfig { n: 3, depth: 9, frontier_depth: 3, threads: 2 }) =
            bench("explore --strict-frontier --threads 2")
        else {
            panic!("explore defaults moved")
        };
    }

    #[test]
    fn flags_parse_into_the_verbs_config() {
        let inv = parse("faults --n 5 --seeds 2 --steps 9 --threads 2 --json out.json").unwrap();
        assert_eq!(inv.json.as_deref(), Some("out.json"));
        let cmd = match inv.verb {
            Verb::Bench(b) => b.command().join(" "),
            other => panic!("{other:?}"),
        };
        assert_eq!(cmd, "faults --n 5 --seeds 2 --steps 9");
        let Verb::Experiment(id, c) = parse("e7 --n 4 --k 1 --n 5").unwrap().verb else { panic!() };
        assert_eq!((id.as_str(), c.n, c.k), ("e7", 5, 1), "the last repeat wins");
        let Verb::Gate(baseline, None) = parse("gate a.json").unwrap().verb else { panic!() };
        assert_eq!(baseline, "a.json");
        let line = "repro record --workload fig2-weak-sigma --seed 3 --shrink";
        let Verb::Repro(r) = parse(line).unwrap().verb else { panic!() };
        let got = (r.req.workload.as_str(), r.req.seed, r.req.n, r.shrink);
        assert_eq!(got, ("fig2-weak-sigma", 3, None, true));
    }

    #[test]
    fn malformed_missing_and_unread_flags_are_errors() {
        for (line, error) in [
            ("faults --n x", "--n takes an integer, got `x`"),
            ("fuzz --seed -1", "--seed takes an integer, got `-1`"),
            ("faults --n", "missing value for --n"),
            ("explore --json --threads 2", "missing value for --json"),
            ("scale --n 5 --depth 3", "`lab scale` does not take --n"),
            ("figure1 --json f", "`lab figure1` does not take --json"),
            ("repro replay f --threads 2", "`lab repro replay` does not take --threads"),
            ("faults extra", "`lab faults` takes no argument `extra`"),
            ("gate a b c", "`lab gate` takes no argument `c`"),
            ("gate", "`lab gate` needs a baseline file"),
            ("gate --threads 1 a", "`lab gate` does not take --threads"),
            ("repro record", "`lab repro record` needs --workload"),
            ("repro corpus", "`lab repro corpus` needs a corpus directory"),
            ("e5 --n 6 --k 4", "need n ≥ 3, 1 ≤ k ≤ n/2 (got n = 6, k = 4)"),
            ("all --n 2", "need n ≥ 3, 1 ≤ k ≤ n/2 (got n = 2, k = 2)"),
        ] {
            assert_eq!(parse(line).expect_err(line), error, "{line}");
        }
        assert!(parse("e99").unwrap_err().starts_with("unknown command e99"));
        assert!(parse("repro play").unwrap_err().starts_with("unknown repro command play"));
    }
}

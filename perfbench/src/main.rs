//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds, one unit (one pass
//! over the seed's fixed input) after another, checks every unit, and
//! prints one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run spends the first half of its time on
//! untraced units (the base of `trace.overhead_ratio`) and writes its
//! spans to `perfbench/out/`. Exits 1 when a gate fails, 2 on bad usage.

use perfbench::metrics::{self, Phase, END_TO_END, PER_LAYER};
use perfbench::probe::Spans;
use perfbench::reference::Reference;
use perfbench::workloads::{run_unit, Size, Unit, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fewest untraced units a `--trace 0` run measures, so its medians have
/// enough samples even when `--seconds` is short.
const MIN_PLAIN_UNITS: usize = 5;
/// Fewest traced units a `--trace 1` run measures.
const MIN_TRACED_UNITS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs units until `until` has passed since `start` and at least `min`
/// units ran; never past twice `until` once one unit ran. The reference
/// kernel runs before the first unit and after every unit.
fn measure(
    start: Instant,
    until: Duration,
    min: usize,
    reference: &mut Reference,
    mut unit: impl FnMut() -> Unit,
) -> Phase {
    let mut phase = Phase { units: Vec::new(), reference_s: vec![reference.measure()] };
    loop {
        let elapsed = start.elapsed();
        let enough = elapsed >= until && phase.units.len() >= min;
        if !phase.units.is_empty() && (enough || elapsed >= 2 * until) {
            return phase;
        }
        phase.units.push(unit());
        phase.reference_s.push(reference.measure());
    }
}

/// The determinism gate: every unit's counters must equal the first
/// untraced unit's. Returns one message per differing unit.
fn determinism_failures(plain: &[Unit], traced: &[Unit]) -> Vec<String> {
    let reference = &plain[0].counters;
    let mut out = Vec::new();
    for (kind, units) in [("untraced", plain), ("traced", traced)] {
        for (i, u) in units.iter().enumerate() {
            if &u.counters != reference {
                let diff: Vec<String> = u
                    .counters
                    .iter()
                    .zip(reference)
                    .filter(|(a, b)| a != b)
                    .map(|((n, a), (_, b))| format!("{n} {a} != {b}"))
                    .collect();
                out.push(format!("{kind} unit {i} counters differ: {}", diff.join(", ")));
            }
        }
    }
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

fn write_spans(spans: &Spans, args: &Args) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans.write_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match result {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let size = Size::FULL;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (w, seed) = (args.workload, args.seed);

    let (plain_until, min_plain) =
        if args.trace { (budget / 2, 1) } else { (budget, MIN_PLAIN_UNITS) };
    let mut reference = Reference::default();
    let plain =
        measure(start, plain_until, min_plain, &mut reference, || run_unit(w, seed, &size, None));
    let mut spans = Spans::default();
    let traced = if args.trace {
        measure(start, budget, MIN_TRACED_UNITS, &mut reference, || {
            spans.next_unit();
            spans.span(w.name(), |sp| run_unit(w, seed, &size, Some(sp)))
        })
    } else {
        Phase::default()
    };

    let all = || plain.units.iter().chain(&traced.units);
    let mut failures: Vec<String> = all().flat_map(|u| u.failures.iter().cloned()).collect();
    let attempted: u64 = all().map(|u| u.attempted).sum();
    let nondeterministic = determinism_failures(&plain.units, &traced.units);
    let failed = (failures.len() + nondeterministic.len()) as u64;
    failures.extend(nondeterministic);
    let correct = failures.is_empty();

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        write_spans(&spans, &args);
        let values = metrics::per_layer(&plain, &traced);
        PER_LAYER.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    } else {
        let rss = metrics::peak_rss_mib().unwrap_or(0.0);
        let values = metrics::end_to_end(&plain, rss);
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    };

    eprintln!(
        "{} seed {}: {} untraced + {} traced units, {} attempted, {} failed",
        w.name(),
        seed,
        plain.units.len(),
        traced.units.len(),
        attempted,
        failed
    );
    let show = |xs: &mut dyn Iterator<Item = f64>| {
        xs.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
    };
    eprintln!(
        "  untraced unit wall_s as measured: {}",
        show(&mut plain.units.iter().map(|u| u.wall_s))
    );
    eprintln!("  reference_s: {}", show(&mut plain.reference_s.iter().copied()));
    for f in failures.iter().take(10) {
        eprintln!("  FAILED: {f}");
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

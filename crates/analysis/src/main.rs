//! CLI entry point for the static-analysis pass.
//!
//! ```text
//! sih-analysis [--root <dir>] [--format text|json] [--out <file>] [--graph-out <file>]
//! ```
//!
//! Exits 0 when the analysis passes, 1 on findings, 2 on usage errors.
//! `--out` writes the report to a file (CI uploads it as an artifact) in
//! addition to printing it. `--graph-out` dumps the workspace call graph
//! — Graphviz DOT when the path ends in `.dot`, JSON otherwise.

#![expect(clippy::disallowed_methods, reason = "a tooling binary: its arguments are its input")]

use sih_analysis::{analyze_with_graph, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut out: Option<PathBuf> = None;
    let mut graph_out: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root requires a directory"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some(v @ ("text" | "json")) => format = v.to_string(),
                _ => return usage("--format requires `text` or `json`"),
            },
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage("--out requires a file path"),
            },
            "--graph-out" => match it.next() {
                Some(v) => graph_out = Some(PathBuf::from(v)),
                None => return usage("--graph-out requires a file path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = root.unwrap_or_else(|| {
        // Default to the workspace this binary was built from, so plain
        // `cargo run -p sih-analysis` works from any subdirectory.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    });

    let (report, graph, files) = analyze_with_graph(&Config { root });
    let rendered = match format.as_str() {
        "json" => report.to_json(),
        _ => report.render_text(),
    };
    print!("{rendered}");
    if let Some(path) = out {
        if let Err(err) = std::fs::write(&path, &rendered) {
            eprintln!("sih-analysis: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = graph_out {
        let dump = if path.extension().is_some_and(|e| e == "dot") {
            graph.to_dot(&files)
        } else {
            graph.to_json(&files)
        };
        if let Err(err) = std::fs::write(&path, &dump) {
            eprintln!("sih-analysis: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("sih-analysis: {problem}");
    eprintln!(
        "usage: sih-analysis [--root <dir>] [--format text|json] [--out <file>] [--graph-out <file>]"
    );
    ExitCode::from(2)
}

//! `sih-analysis` — the workspace's self-contained static-analysis pass.
//!
//! Run as `cargo run -p sih-analysis` (CI runs it with `--format json`
//! and fails the build on findings). The checks:
//!
//! 1. **Token lint** ([`scan`]) — lexical rules over the simulation
//!    crates (unjustified floats, `BTreeSet<ProcessId>` on hot paths).
//! 2. **Call-graph passes** ([`graph`], [`taint`]) — an intra-workspace
//!    call graph rooted at the simulator's hot path drives the
//!    panic-reachability and handler-exhaustiveness checks;
//!    `// sih-analysis: allow(…)` pragmas are honored at item
//!    granularity, and a pragma that suppresses nothing is itself a
//!    finding (`unused-allow`).
//! 3. **Lint hygiene** ([`hygiene`]) — every member inherits the
//!    workspace lint table.
//!
//! These are the checks no compiler lint can express. Everything rustc
//! and clippy can enforce with name resolution lives with them: the
//! root `Cargo.toml`'s `[workspace.lints]` (`unsafe_code`,
//! `missing_docs`, `clippy::unwrap_used`) and the root `clippy.toml`'s
//! determinism bans (hash containers, wall clock, environment reads,
//! thread identity). Registries that exist as
//! typed code — the paper's claims, the repro workloads, the schedule
//! grammar — are checked by the code that owns them and by tier-1 tests
//! that read the real registry, not by text search here.
//!
//! The crate is dependency-free by design: it must build and run even
//! when the rest of the workspace is broken, and it must never drag a
//! proc-macro or syntax-tree dependency into the vendored build.

pub mod graph;
pub mod hygiene;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod scan;
pub mod taint;

use graph::{CallGraph, FileSource};
use report::Report;
use std::path::{Path, PathBuf};

/// The simulation crates the token rules and the call graph cover.
/// Tooling crates (`lab`, `analysis`) orchestrate runs and never sit on
/// the simulated path.
pub const SIM_CRATES: [&str; 8] =
    ["model", "runtime", "detectors", "core", "reductions", "registers", "sharedmem", "agreement"];

/// The hot-path modules where `BTreeSet<ProcessId>` / `BTreeMap<ProcessId,
/// …>` bookkeeping is banned in favor of the `ProcSet` word-array bitset:
/// the per-message and per-step paths the large-`n` scale tier made O(1).
/// All of `detectors` (quorum/trust sets) plus the runtime engine files
/// and the ABD quorum accumulator. A file justifies an exception with
/// `// sih-analysis: allow(btree-procset)`.
pub const BTREE_RULE_FILES: [&str; 4] = [
    "crates/runtime/src/network.rs",
    "crates/runtime/src/sim.rs",
    "crates/runtime/src/automaton.rs",
    "crates/registers/src/abd.rs",
];

/// Analysis configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
}

/// Runs all checks against the workspace at `config.root`.
pub fn analyze(config: &Config) -> Report {
    analyze_with_graph(config).0
}

/// Like [`analyze`], also returning the call graph and the analyzed
/// sources (for `--graph-out` dumps and programmatic inspection).
pub fn analyze_with_graph(config: &Config) -> (Report, CallGraph, Vec<FileSource>) {
    let root = &config.root;
    let mut report = Report::default();

    // Phase 1: load, lex, and parse every non-test source of the
    // simulation crates once; all passes share the result.
    let mut files: Vec<FileSource> = Vec::new();
    let mut include_btree: Vec<bool> = Vec::new();
    for krate in SIM_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        for path in rust_sources(&src_dir) {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref().is_some_and(scan::is_test_file) {
                continue;
            }
            let Ok(src) = std::fs::read_to_string(&path) else {
                report.findings.push(report::Finding {
                    rule: "unreadable-source",
                    file: display_path(root, &path),
                    line: 0,
                    message: "cannot read source file".to_string(),
                });
                continue;
            };
            let display = display_path(root, &path);
            include_btree
                .push(krate == "detectors" || BTREE_RULE_FILES.contains(&display.as_str()));
            let lexed = lexer::lex(&src);
            let items = parse::parse_items(&lexed);
            files.push(FileSource { display, lexed, items });
            report.files_scanned += 1;
        }
    }

    let mut pragmas = parse::PragmaTable::default();
    for file in &files {
        pragmas.add_file(&file.display, &file.lexed, &file.items);
    }

    // Phase 2: token rules.
    for (file, include_btree) in files.iter().zip(&include_btree) {
        let scanned = scan::scan_tokens(file, *include_btree, &mut pragmas);
        report.suppressed += scanned.suppressed;
        report.findings.extend(scanned.findings);
    }

    // Phase 3: call graph + reachability passes.
    let call_graph = CallGraph::build(&files);
    let panics = taint::panic_pass(&call_graph, &files, &mut pragmas);
    report.suppressed += panics.suppressed;
    report.findings.extend(panics.findings);
    let (handler_findings, handler_suppressed) =
        graph::check_handlers(&call_graph, &files, &mut pragmas);
    report.suppressed += handler_suppressed;
    report.findings.extend(handler_findings);

    // Phase 4: a pragma that suppressed nothing is dead weight — after
    // every suppressing pass has run, what is left unused is a finding.
    report.findings.extend(pragmas.unused_findings());

    report.graph_fns = call_graph.nodes.len();
    report.graph_edges = call_graph.edge_count();
    report.graph_roots = call_graph.roots.len();
    report.graph_reachable = call_graph.reachable_count();

    // Phase 5: workspace-structure hygiene.
    report.findings.extend(hygiene::check_hygiene(root));
    (report, call_graph, files)
}

/// All `.rs` files under `dir`, recursively, in sorted (deterministic)
/// order. Missing directories yield an empty list — `analyze` surfaces
/// structural problems through the hygiene check instead.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// `path` relative to `root` where possible, with `/` separators.
pub(crate) fn display_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_real_workspace_passes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (report, graph, files) = analyze_with_graph(&Config { root });
        assert!(report.ok(), "analysis failed:\n{}", report.render_text());
        assert!(report.files_scanned > 20, "scanned only {} files", report.files_scanned);
        // The graph must actually cover the workspace: hundreds of fns,
        // multiple hot-path roots (Automaton impls, Simulation stepping,
        // fingerprints, LinkFaultPlan), and a non-trivial reachable set.
        assert!(graph.nodes.len() > 300, "only {} fns in the graph", graph.nodes.len());
        assert!(graph.roots.len() > 10, "only {} roots", graph.roots.len());
        assert!(
            graph.reachable_count() > graph.roots.len(),
            "reachability did not propagate past the roots"
        );
        assert_eq!(files.len(), report.files_scanned);
    }

    #[test]
    fn the_simulation_step_reaches_the_detectors_and_network() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (_, graph, files) = analyze_with_graph(&Config { root });
        let reachable_files: std::collections::BTreeSet<&str> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(id, _)| graph.reachable[*id])
            .map(|(_, n)| files[n.file].display.as_str())
            .collect();
        for expected in [
            "crates/runtime/src/sim.rs",
            "crates/runtime/src/network.rs",
            "crates/model/src/linkfault.rs",
            "crates/detectors/src/omega.rs",
            "crates/agreement/src/fig2.rs",
        ] {
            assert!(
                reachable_files.contains(expected),
                "{expected} has no hot-path-reachable fn; reachable files: {reachable_files:#?}"
            );
        }
    }

    #[test]
    fn sources_are_listed_deterministically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let a = rust_sources(&dir);
        let b = rust_sources(&dir);
        assert_eq!(a, b);
        assert!(a.iter().any(|p| p.ends_with("lib.rs")));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }
}

//! The intra-workspace call graph and the graph-aware passes that need
//! symbol structure: hot-path reachability and handler exhaustiveness.
//!
//! Resolution is a deliberate **over-approximation**: a method call
//! `.name(…)` links to *every* associated fn named `name`, a qualified
//! call `Qual::name(…)` to every fn owned by `Qual` (falling back to free
//! fns when the qualifier is a module path), and a bare `name(…)` to
//! every free fn named `name`. Extra edges can only make more functions
//! reachable, so the taint and panic passes stay *sound* — they may ask
//! for a pragma on a site that a precise analysis would clear, but they
//! cannot miss a site an actual execution reaches. Calls that leave the
//! workspace (std, external crates) have no node and simply drop out.

use crate::lexer::{Lexed, Tok};
use crate::parse::{skip_angles, FileItems};
use crate::report::Finding;

/// One analyzed source file: the inputs every graph pass shares.
#[derive(Clone, Debug)]
pub struct FileSource {
    /// Workspace-relative display path recorded in findings.
    pub display: String,
    /// The token stream.
    pub lexed: Lexed,
    /// The parsed item skeleton.
    pub items: FileItems,
}

/// Hot-path roots: methods of these traits/types (and these free-fn
/// names) are where the determinism contract bites, so reachability
/// starts from them. See DESIGN.md §6.
const ROOT_TRAIT_METHODS: [(&str, &str); 1] = [("Automaton", "step")];
const ROOT_OWNER_METHODS: [(&str, &[&str]); 4] = [
    ("Simulation", &["step", "run", "run_until", "drive"]),
    ("LinkFaultPlan", &["fate", "active_at"]),
    // The DPOR explorer's happens-before shadow: every explored edge
    // runs these, and a nondeterminism bug here silently unsounds the
    // source-set reduction.
    ("VClock", &["tick", "merge", "leq"]),
    ("HbState", &["apply", "send_races"]),
];
const ROOT_FN_NAMES: [&str; 3] = ["fingerprint", "fingerprint_into", "wake_races"];

/// Rust keywords that can precede `(` or `[` without being a call or an
/// indexing base.
pub(crate) fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "union"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// One call-graph node: a non-test fn somewhere in the workspace.
#[derive(Clone, Debug)]
pub struct Node {
    /// Index into the `FileSource` slice the graph was built from.
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
    /// `Owner::name` or plain `name`.
    pub qualified: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// The workspace call graph plus hot-path reachability.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// All non-test fns, in (file, declaration) order.
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[n]` are the node ids `n` may call (sorted,
    /// deduped).
    pub edges: Vec<Vec<usize>>,
    /// Hot-path root node ids.
    pub roots: Vec<usize>,
    /// Whether each node is transitively reachable from a root.
    pub reachable: Vec<bool>,
    /// BFS witness parent of each reachable non-root node.
    pub parent: Vec<Option<usize>>,
}

impl CallGraph {
    /// Builds the graph over `files` and computes reachability.
    pub fn build(files: &[FileSource]) -> CallGraph {
        let mut graph = CallGraph::default();
        // Node table + name indexes. BTreeMap keeps resolution and
        // output order deterministic across runs.
        let mut free: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
        let mut assoc: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
        let mut owned: std::collections::BTreeMap<(&str, &str), Vec<usize>> = Default::default();
        let mut enum_names: std::collections::BTreeSet<&str> = Default::default();
        let mut enum_variants: std::collections::BTreeMap<&str, Vec<&str>> = Default::default();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.items.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                graph.nodes.push(Node {
                    file: fi,
                    item: ii,
                    qualified: f.qualified(),
                    line: f.line,
                });
            }
            for e in &file.items.enums {
                if !e.is_test {
                    enum_names.insert(e.name.as_str());
                    enum_variants
                        .entry(e.name.as_str())
                        .or_default()
                        .extend(e.variants.iter().map(String::as_str));
                }
            }
        }
        for (id, node) in graph.nodes.iter().enumerate() {
            let f = &files[node.file].items.fns[node.item];
            match &f.owner {
                None => free.entry(f.name.as_str()).or_default().push(id),
                Some(owner) => {
                    assoc.entry(f.name.as_str()).or_default().push(id);
                    owned.entry((owner.as_str(), f.name.as_str())).or_default().push(id);
                }
            }
        }

        // Edges: resolve every call-shaped token pattern in each body.
        graph.edges = vec![Vec::new(); graph.nodes.len()];
        for (id, node) in graph.nodes.iter().enumerate() {
            let file = &files[node.file];
            let f = &file.items.fns[node.item];
            let toks = &file.lexed.tokens;
            let mut targets: std::collections::BTreeSet<usize> = Default::default();
            for i in f.body.clone() {
                let Some(Tok::Ident(name)) = toks.get(i).map(|t| &t.tok) else { continue };
                if is_keyword(name) {
                    continue;
                }
                // Macro invocation `name!(…)` is not a fn call.
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    continue;
                }
                // Find the argument paren, skipping a turbofish.
                let mut j = i + 1;
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::PathSep))
                    && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('<')))
                {
                    j = skip_angles(toks, j + 1);
                }
                if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    continue;
                }
                let is_method =
                    i >= 1 && matches!(toks.get(i - 1).map(|t| &t.tok), Some(Tok::Punct('.')));
                let qualifier =
                    if i >= 2 && matches!(toks.get(i - 1).map(|t| &t.tok), Some(Tok::PathSep)) {
                        match toks.get(i - 2).map(|t| &t.tok) {
                            Some(Tok::Ident(q)) => Some(q.as_str()),
                            // `Type::<T>::name(…)` — qualifier behind a
                            // turbofish; rare, treat as unknown.
                            _ => None,
                        }
                    } else {
                        None
                    };
                let resolved: &[usize] = if is_method {
                    assoc.get(name.as_str()).map_or(&[], Vec::as_slice)
                } else if let Some(q) = qualifier {
                    if q == "Self" {
                        match &f.owner {
                            Some(owner) => owned
                                .get(&(owner.as_str(), name.as_str()))
                                .map_or(&[], Vec::as_slice),
                            None => &[],
                        }
                    } else if enum_names.contains(q)
                        && enum_variants.get(q).is_some_and(|vs| vs.iter().any(|v| v == name))
                    {
                        // `Enum::Variant(…)` is a constructor, not a call.
                        &[]
                    } else if let Some(ids) = owned.get(&(q, name.as_str())) {
                        ids.as_slice()
                    } else {
                        // Module-qualified free fn (`pipeline::run(…)`),
                        // or an external path we can't see — the free-fn
                        // fallback keeps workspace calls linked.
                        free.get(name.as_str()).map_or(&[], Vec::as_slice)
                    }
                } else {
                    free.get(name.as_str()).map_or(&[], Vec::as_slice)
                };
                targets.extend(resolved.iter().copied().filter(|t| *t != id));
            }
            graph.edges[id] = targets.into_iter().collect();
        }

        // Roots.
        for (id, node) in graph.nodes.iter().enumerate() {
            let f = &files[node.file].items.fns[node.item];
            let is_root = ROOT_TRAIT_METHODS
                .iter()
                .any(|(tr, m)| f.trait_name.as_deref() == Some(tr) && f.name == *m)
                || ROOT_OWNER_METHODS.iter().any(|(owner, methods)| {
                    f.owner.as_deref() == Some(owner) && methods.contains(&f.name.as_str())
                })
                || ROOT_FN_NAMES.contains(&f.name.as_str());
            if is_root {
                graph.roots.push(id);
            }
        }

        // BFS reachability with witness parents.
        graph.reachable = vec![false; graph.nodes.len()];
        graph.parent = vec![None; graph.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &r in &graph.roots {
            graph.reachable[r] = true;
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            for &m in &graph.edges[n] {
                if !graph.reachable[m] {
                    graph.reachable[m] = true;
                    graph.parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        graph
    }

    /// The witness chain `Root::fn → … → node`, for finding messages.
    pub fn chain(&self, id: usize) -> String {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.iter().map(|n| self.nodes[*n].qualified.as_str()).collect::<Vec<_>>().join(" → ")
    }

    /// Node ids transitively callable from `start` (inclusive).
    pub fn closure_from(&self, start: usize) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start] = true;
        let mut out = Vec::new();
        while let Some(n) = queue.pop_front() {
            out.push(n);
            for &m in &self.edges[n] {
                if !seen[m] {
                    seen[m] = true;
                    queue.push_back(m);
                }
            }
        }
        out
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Number of hot-path-reachable nodes.
    pub fn reachable_count(&self) -> usize {
        self.reachable.iter().filter(|r| **r).count()
    }

    /// Graphviz DOT dump (reachable nodes filled, roots double-circled).
    pub fn to_dot(&self, files: &[FileSource]) -> String {
        let mut out =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for (id, node) in self.nodes.iter().enumerate() {
            let mut attrs = format!(
                "label=\"{}\\n{}:{}\"",
                node.qualified, files[node.file].display, node.line
            );
            if self.roots.contains(&id) {
                attrs.push_str(", peripheries=2");
            }
            if self.reachable[id] {
                attrs.push_str(", style=filled, fillcolor=lightyellow");
            }
            out.push_str(&format!("  n{id} [{attrs}];\n"));
        }
        for (id, targets) in self.edges.iter().enumerate() {
            for t in targets {
                out.push_str(&format!("  n{id} -> n{t};\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// JSON dump with the same information as the DOT form.
    pub fn to_json(&self, files: &[FileSource]) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"nodes\": [\n");
        for (id, node) in self.nodes.iter().enumerate() {
            let comma = if id + 1 == self.nodes.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {id}, \"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \"root\": {}, \"reachable\": {}}}{comma}",
                node.qualified,
                files[node.file].display,
                node.line,
                self.roots.contains(&id),
                self.reachable[id],
            );
        }
        out.push_str("  ],\n  \"edges\": [\n");
        let total = self.edge_count();
        let mut k = 0usize;
        for (id, targets) in self.edges.iter().enumerate() {
            for t in targets {
                k += 1;
                let comma = if k == total { "" } else { "," };
                let _ = writeln!(out, "    [{id}, {t}]{comma}");
            }
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The handler-exhaustiveness pass: every workload `Msg` enum variant
/// must be matched (as a qualified `Enum::Variant` mention) somewhere in
/// the token closure of its automaton's `step`; a qualified mention of a
/// variant the enum no longer declares is stale. Enums the parser cannot
/// resolve (generic `type Msg = A::Msg`, scalars, tuples) are skipped —
/// those automatons forward rather than match.
pub fn check_handlers(
    graph: &CallGraph,
    files: &[FileSource],
    pragmas: &mut crate::parse::PragmaTable,
) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    // Enum lookup by name across the workspace.
    let mut enums: std::collections::BTreeMap<&str, &crate::parse::EnumItem> = Default::default();
    for file in files {
        for e in &file.items.enums {
            if !e.is_test {
                enums.entry(e.name.as_str()).or_insert(e);
            }
        }
    }
    // Node id lookup by (file, item).
    let mut node_of: std::collections::BTreeMap<(usize, usize), usize> = Default::default();
    for (id, node) in graph.nodes.iter().enumerate() {
        node_of.insert((node.file, node.item), id);
    }

    for (fi, file) in files.iter().enumerate() {
        for im in &file.items.impls {
            if im.is_test || im.trait_name.as_deref() != Some("Automaton") {
                continue;
            }
            let Some(alias) = im.msg_alias.as_deref() else { continue };
            let Some(enum_item) = enums.get(alias) else { continue };
            if enum_item.variants.is_empty() {
                continue;
            }
            let Some(step_item) =
                im.fn_indices.iter().copied().find(|ii| file.items.fns[*ii].name == "step")
            else {
                continue;
            };
            let Some(&step_node) = node_of.get(&(fi, step_item)) else { continue };
            let closure = graph.closure_from(step_node);
            // Every qualified `alias::X` mention in the closure bodies.
            let mut mentioned: std::collections::BTreeMap<String, u32> = Default::default();
            for &n in &closure {
                let nf = &files[graph.nodes[n].file];
                let body = nf.items.fns[graph.nodes[n].item].body.clone();
                let toks = &nf.lexed.tokens;
                for i in body {
                    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Ident(q)) if q == alias)
                        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
                    {
                        if let Some(Tok::Ident(v)) = toks.get(i + 2).map(|t| &t.tok) {
                            mentioned.entry(v.clone()).or_insert(toks[i].line);
                        }
                    }
                }
            }
            let step_fn = &file.items.fns[step_item];
            for variant in &enum_item.variants {
                if !mentioned.contains_key(variant) {
                    let finding = Finding {
                        rule: "unhandled-variant",
                        file: file.display.clone(),
                        line: step_fn.line,
                        message: format!(
                            "{alias}::{variant} has no handler: the variant is never matched in \
                             {}::step or the {} fn(s) it reaches",
                            im.type_name,
                            closure.len() - 1,
                        ),
                    };
                    if pragmas.suppress(finding.rule, &finding.file, finding.line) {
                        suppressed += 1;
                    } else {
                        findings.push(finding);
                    }
                }
            }
            for (name, line) in &mentioned {
                let is_variant_like = name.chars().next().is_some_and(char::is_uppercase)
                    && !name.chars().all(|c| c.is_uppercase() || c == '_');
                if is_variant_like && !enum_item.variants.iter().any(|v| v == name) {
                    // The mention may live in a called fn's file; anchor
                    // the finding where the enum's workload is declared
                    // (the mention line is from the closure body's file —
                    // rare; the step file covers the common case).
                    let finding = Finding {
                        rule: "stale-variant",
                        file: file.display.clone(),
                        line: *line,
                        message: format!(
                            "{alias}::{name} is matched in {}::step's call closure but {alias} \
                             declares no such variant — stale handler",
                            im.type_name,
                        ),
                    };
                    if pragmas.suppress(finding.rule, &finding.file, finding.line) {
                        suppressed += 1;
                    } else {
                        findings.push(finding);
                    }
                }
            }
        }
    }
    (findings, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::{parse_items, PragmaTable};

    fn file(display: &str, src: &str) -> FileSource {
        let lexed = lex(src);
        let items = parse_items(&lexed);
        FileSource { display: display.to_string(), lexed, items }
    }

    fn node_id(graph: &CallGraph, qualified: &str) -> usize {
        graph
            .nodes
            .iter()
            .position(|n| n.qualified == qualified)
            .unwrap_or_else(|| panic!("node {qualified} not in graph"))
    }

    #[test]
    fn calls_resolve_free_assoc_and_qualified() {
        let files = [file(
            "a.rs",
            r#"
            fn helper() {}
            struct Foo;
            impl Foo {
                fn method(&self) { helper(); }
                fn entry(&self) { self.method(); Self::assoc(); }
                fn assoc() {}
            }
            fn qualified() { Foo::assoc(); }
            "#,
        )];
        let graph = CallGraph::build(&files);
        let entry = node_id(&graph, "Foo::entry");
        let method = node_id(&graph, "Foo::method");
        let assoc = node_id(&graph, "Foo::assoc");
        let helper = node_id(&graph, "helper");
        assert!(graph.edges[entry].contains(&method));
        assert!(graph.edges[entry].contains(&assoc));
        assert!(graph.edges[method].contains(&helper));
        assert!(graph.edges[node_id(&graph, "qualified")].contains(&assoc));
    }

    #[test]
    fn enum_constructors_and_macros_are_not_calls() {
        let files = [file(
            "a.rs",
            r#"
            enum E { Variant(u32) }
            fn Variant() {} // a decoy free fn with the variant's name
            fn f() { let e = E::Variant(1); println!("x"); }
            "#,
        )];
        let graph = CallGraph::build(&files);
        let f = node_id(&graph, "f");
        assert!(graph.edges[f].is_empty(), "{:?}", graph.edges[f]);
    }

    #[test]
    fn reachability_spans_files_with_witness_chains() {
        let files = [
            file(
                "sim.rs",
                r#"
                impl Automaton for Proto {
                    fn step(&mut self) { self.helper(); }
                }
                impl Proto {
                    fn helper(&self) { leaf(); }
                }
                "#,
            ),
            file("util.rs", "pub fn leaf() {}\npub fn unrelated() {}"),
        ];
        let graph = CallGraph::build(&files);
        let step = node_id(&graph, "Proto::step");
        let leaf = node_id(&graph, "leaf");
        assert_eq!(graph.roots, vec![step]);
        assert!(graph.reachable[leaf]);
        assert!(!graph.reachable[node_id(&graph, "unrelated")]);
        assert_eq!(graph.chain(leaf), "Proto::step → Proto::helper → leaf");
    }

    #[test]
    fn all_root_kinds_are_recognized() {
        let files = [file(
            "a.rs",
            r#"
            impl Simulation { fn run_until(&mut self) {} fn other(&self) {} }
            impl LinkFaultPlan { fn fate(&self) {} }
            fn fingerprint() {}
            impl Net { fn fingerprint_into(&self) {} }
            "#,
        )];
        let graph = CallGraph::build(&files);
        let roots: Vec<&str> =
            graph.roots.iter().map(|r| graph.nodes[*r].qualified.as_str()).collect();
        assert_eq!(
            roots,
            vec![
                "Simulation::run_until",
                "LinkFaultPlan::fate",
                "fingerprint",
                "Net::fingerprint_into"
            ]
        );
    }

    #[test]
    fn method_calls_over_approximate_across_owners() {
        // `.output(…)` must link to every assoc fn named output — that is
        // what makes detector taint visible from Simulation::step.
        let files = [file(
            "a.rs",
            r#"
            impl Simulation { fn step(&mut self) { self.fd.output(1); } }
            impl OmegaDetector { fn output(&self, t: u32) {} }
            "#,
        )];
        let graph = CallGraph::build(&files);
        assert!(graph.reachable[node_id(&graph, "OmegaDetector::output")]);
    }

    #[test]
    fn unhandled_and_stale_variants_are_found() {
        let files = [file(
            "w.rs",
            r#"
            enum Msg2 { Ping(u32), Pong(u32), Gone }
            struct P;
            impl Automaton for P {
                type Msg = Msg2;
                fn step(&mut self) {
                    match m {
                        Msg2::Ping(x) => self.on(x),
                        Msg2::Dead => {}
                    }
                }
            }
            impl P { fn on(&mut self, x: u32) { let r = Msg2::Pong(x); } }
            "#,
        )];
        let graph = CallGraph::build(&files);
        let mut pragmas = PragmaTable::default();
        let (findings, suppressed) = check_handlers(&graph, &files, &mut pragmas);
        assert_eq!(suppressed, 0);
        let rules: Vec<(&str, &str)> = findings
            .iter()
            .map(|f| (f.rule, f.message.split_whitespace().next().unwrap_or("")))
            .collect();
        // Pong is handled via the helper fn `on`; Gone is unhandled;
        // Dead is stale.
        assert_eq!(
            rules,
            vec![("unhandled-variant", "Msg2::Gone"), ("stale-variant", "Msg2::Dead")]
        );
    }

    #[test]
    fn unresolvable_msg_aliases_are_skipped() {
        let files = [file(
            "w.rs",
            r#"
            impl Automaton for Wrap {
                type Msg = A::Msg;
                fn step(&mut self) {}
            }
            impl Automaton for Unit {
                fn step(&mut self) {}
            }
            "#,
        )];
        let graph = CallGraph::build(&files);
        let mut pragmas = PragmaTable::default();
        let (findings, _) = check_handlers(&graph, &files, &mut pragmas);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn handler_pragma_suppresses_the_ablation() {
        let files = [file(
            "w.rs",
            r#"
            enum M { A, B }
            struct P;
            impl Automaton for P {
                type Msg = M;
                // sih-analysis: allow(unhandled-variant) — deliberate ablation
                fn step(&mut self) { match m { M::A => {} } }
            }
            "#,
        )];
        let graph = CallGraph::build(&files);
        let mut pragmas = PragmaTable::default();
        pragmas.add_file("w.rs", &files[0].lexed, &files[0].items);
        let (findings, suppressed) = check_handlers(&graph, &files, &mut pragmas);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
        assert!(pragmas.unused_findings().is_empty());
    }

    #[test]
    fn dot_and_json_dumps_render() {
        let files = [file("a.rs", "fn fingerprint() { leaf(); }\nfn leaf() {}")];
        let graph = CallGraph::build(&files);
        let dot = graph.to_dot(&files);
        assert!(dot.contains("digraph callgraph"));
        assert!(dot.contains("peripheries=2"));
        assert!(dot.contains("->"));
        let json = graph.to_json(&files);
        assert!(json.contains("\"fn\": \"fingerprint\""));
        assert!(json.contains("\"root\": true"));
        assert!(json.contains("[0, 1]"));
    }
}

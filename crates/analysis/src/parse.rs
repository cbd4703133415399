//! A lightweight item parser on top of the token stream.
//!
//! The graph passes need *structure* the lexer cannot give: which tokens
//! belong to which `fn`, which `impl` block a method lives in, which
//! trait that block implements, what variants an `enum` declares, and
//! where each item begins and ends (for item-granular pragma scoping).
//! This is deliberately **not** a Rust parser — it recognizes just the
//! item skeleton (modules, `impl` blocks, free/assoc `fn` boundaries,
//! enums and their variants, `type Msg = …;` aliases) and treats
//! everything inside a function body as an opaque token range for the
//! later passes to scan. Constructs it does not model (nested items
//! inside bodies, exotic const generics) degrade gracefully: their
//! tokens stay attributed to the enclosing item.

use crate::lexer::{Lexed, Tok, Token};

/// One function item (free, associated, or a trait's default method).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The self type's head identifier for associated fns (`impl Foo` or
    /// `impl Trait for Foo` → `Foo`); the trait's name for default
    /// methods declared in a `trait` block; `None` for free fns.
    pub owner: Option<String>,
    /// For fns inside `impl Trait for Type` blocks, the trait's name.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// First line of the item (used for pragma scoping).
    pub start_line: u32,
    /// Last line of the item (the closing brace).
    pub end_line: u32,
    /// Token index range of the body, braces excluded. Empty for
    /// body-less trait method declarations.
    pub body: std::ops::Range<usize>,
    /// Whether the item is `#[cfg(test)]`-gated (directly or via an
    /// enclosing module).
    pub is_test: bool,
}

impl FnItem {
    /// `Owner::name` or plain `name` — the label used in finding
    /// messages and graph dumps.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One enum item and its variant names.
#[derive(Clone, Debug)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Item span for pragma scoping.
    pub start_line: u32,
    /// Last line of the item.
    pub end_line: u32,
    /// Whether the enum is `#[cfg(test)]`-gated.
    pub is_test: bool,
}

/// One `impl` block header (the parser also emits its fns as [`FnItem`]s).
#[derive(Clone, Debug)]
pub struct ImplItem {
    /// The self type's head identifier.
    pub type_name: String,
    /// The implemented trait's name, for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// The head identifier of the `type Msg = …;` alias inside the
    /// block, if any (generic arguments stripped: `StubbornMsg<A::Msg>`
    /// → `StubbornMsg`). `None` when absent or not a named type.
    pub msg_alias: Option<String>,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Item span for pragma scoping.
    pub start_line: u32,
    /// Last line of the block.
    pub end_line: u32,
    /// Whether the block is `#[cfg(test)]`-gated.
    pub is_test: bool,
    /// Indices (into [`FileItems::fns`]) of the block's fns.
    pub fn_indices: Vec<usize>,
}

/// Everything the parser extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
    /// All enum items, in source order.
    pub enums: Vec<EnumItem>,
    /// All impl blocks, in source order.
    pub impls: Vec<ImplItem>,
    /// First line of the first top-level item (`u32::MAX` when the file
    /// has none) — pragmas above this line are file-scoped.
    pub first_item_line: u32,
    /// Per-token flag: true inside a `#[cfg(test)]`-gated item, the
    /// attribute included. Fn bodies are opaque, so the flag is per item.
    pub in_test: Vec<bool>,
}

/// Parses the item skeleton out of a lexed file.
pub fn parse_items(lexed: &Lexed) -> FileItems {
    let mut out = FileItems { in_test: vec![false; lexed.tokens.len()], ..Default::default() };
    let toks = &lexed.tokens;
    parse_block(toks, 0, toks.len(), Ctx::default(), &mut out);
    out.first_item_line = out
        .fns
        .iter()
        .map(|f| f.start_line)
        .chain(out.enums.iter().map(|e| e.start_line))
        .chain(out.impls.iter().map(|i| i.start_line))
        .min()
        .unwrap_or(u32::MAX);
    out
}

/// Parser context carried into nested blocks.
#[derive(Clone, Debug, Default)]
struct Ctx {
    owner: Option<String>,
    trait_name: Option<String>,
    is_test: bool,
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(name)) => Some(name.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

fn line_at(toks: &[Token], i: usize) -> u32 {
    toks.get(i).map_or_else(|| toks.last().map_or(0, |t| t.line), |t| t.line)
}

/// Skips a balanced `{ … }` or `[ … ]` group starting at its opening
/// token; returns the index one past the matching close.
fn skip_group(toks: &[Token], open: usize) -> usize {
    let (opener, closer) = if punct_at(toks, open) == Some('[') { ('[', ']') } else { ('{', '}') };
    debug_assert_eq!(punct_at(toks, open), Some(opener));
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some(c) if c == opener => depth += 1,
            Some(c) if c == closer => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Skips a balanced `< … >` generic-argument list starting at the `<`;
/// returns the index one past the matching `>`. `->` and `=>` arrows
/// inside (`Fn(…) -> T` bounds) do not count as closers.
pub(crate) fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some('<') => depth += 1,
            Some('>') if !matches!(punct_at(toks, i.wrapping_sub(1)), Some('-' | '=')) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Reads a type path (`a::b::C<…>`), returning the head identifier of
/// its **last** segment and the index one past the path (generic
/// arguments skipped).
fn read_type_path(toks: &[Token], mut i: usize) -> (Option<String>, usize) {
    // Leading `&`, `&mut`, `dyn` etc. are not expected where we call
    // this, but tolerate references for robustness.
    while matches!(punct_at(toks, i), Some('&')) || ident_at(toks, i) == Some("mut") {
        i += 1;
    }
    while matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Lifetime)) {
        i += 1;
    }
    let mut last = None;
    while let Some(name) = ident_at(toks, i) {
        last = Some(name.to_string());
        i += 1;
        if punct_at(toks, i) == Some('<') {
            i = skip_angles(toks, i);
        }
        if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::PathSep)) {
            i += 1;
        } else {
            break;
        }
    }
    (last, i)
}

/// Parses the items of `toks[start..end]` (one module body, impl body,
/// trait body, or the whole file) into `out`.
fn parse_block(toks: &[Token], start: usize, end: usize, ctx: Ctx, out: &mut FileItems) {
    let mut i = start;
    let mut item_start_line: Option<u32> = None;
    let mut pending_test = false;
    // The `#` of the pending `#[cfg(test)]`: once the gated item ends,
    // every token from here to its end is marked `in_test`.
    let mut test_from: Option<usize> = None;
    while i < end {
        if !pending_test {
            if let Some(from) = test_from.take() {
                mark_test(out, from, i);
            }
        }
        // Attributes: remember cfg(test), skip, and keep the item start
        // anchored at the first attribute.
        if punct_at(toks, i) == Some('#') && punct_at(toks, i + 1) == Some('[') {
            item_start_line.get_or_insert(line_at(toks, i));
            if ident_at(toks, i + 2) == Some("cfg") && ident_at(toks, i + 4) == Some("test") {
                pending_test = true;
                test_from.get_or_insert(i);
            }
            i = skip_group(toks, i + 1);
            continue;
        }

        let Some(word) = ident_at(toks, i) else {
            // Stray punctuation at item level (e.g. a module's closing
            // brace handled by the caller's range): just advance.
            i += 1;
            item_start_line = None;
            pending_test = false;
            continue;
        };

        match word {
            // Visibility and qualifiers before the item keyword.
            "pub" => {
                item_start_line.get_or_insert(line_at(toks, i));
                i += 1;
                if punct_at(toks, i) == Some('(') {
                    // pub(crate) / pub(super)
                    while i < end && punct_at(toks, i) != Some(')') {
                        i += 1;
                    }
                    i += 1;
                }
            }
            "unsafe" | "async" | "extern" | "default" => {
                item_start_line.get_or_insert(line_at(toks, i));
                i += 1;
                if word == "extern" && matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Str(_))) {
                    i += 1;
                }
            }
            "const" | "static" => {
                // `const fn` is a qualifier; `const NAME: … = …;` is an
                // item we skip to the `;`.
                item_start_line.get_or_insert(line_at(toks, i));
                if ident_at(toks, i + 1) == Some("fn") {
                    i += 1;
                } else {
                    while i < end && punct_at(toks, i) != Some(';') {
                        if punct_at(toks, i) == Some('{') {
                            i = skip_group(toks, i);
                            continue;
                        }
                        i += 1;
                    }
                    i += 1;
                    item_start_line = None;
                    pending_test = false;
                }
            }
            "use" => {
                while i < end && punct_at(toks, i) != Some(';') {
                    i += 1;
                }
                i += 1;
                item_start_line = None;
                pending_test = false;
            }
            "mod" => {
                item_start_line = None;
                i += 1; // name
                i += 1;
                if punct_at(toks, i) == Some('{') {
                    let close = skip_group(toks, i);
                    let inner =
                        Ctx { owner: None, trait_name: None, is_test: ctx.is_test || pending_test };
                    parse_block(toks, i + 1, close - 1, inner, out);
                    i = close;
                } else {
                    i += 1; // `;`
                }
                pending_test = false;
            }
            "fn" => {
                let start_line = item_start_line.take().unwrap_or_else(|| line_at(toks, i));
                let fn_line = line_at(toks, i);
                let name = ident_at(toks, i + 1).unwrap_or("?").to_string();
                i += 2;
                if punct_at(toks, i) == Some('<') {
                    i = skip_angles(toks, i);
                }
                // Signature: skip to the body `{` or declaration `;`.
                // Parens/brackets are balanced implicitly; `{` cannot
                // occur in a signature we care about.
                let mut body = 0..0;
                let mut end_line = fn_line;
                while i < end {
                    match punct_at(toks, i) {
                        Some('{') => {
                            let close = skip_group(toks, i);
                            body = i + 1..close - 1;
                            end_line = line_at(toks, close - 1);
                            i = close;
                            break;
                        }
                        Some(';') => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.fns.push(FnItem {
                    name,
                    owner: ctx.owner.clone(),
                    trait_name: ctx.trait_name.clone(),
                    line: fn_line,
                    start_line,
                    end_line,
                    body,
                    is_test: ctx.is_test || pending_test,
                });
                pending_test = false;
            }
            "enum" => {
                let start_line = item_start_line.take().unwrap_or_else(|| line_at(toks, i));
                let enum_line = line_at(toks, i);
                let name = ident_at(toks, i + 1).unwrap_or("?").to_string();
                i += 2;
                if punct_at(toks, i) == Some('<') {
                    i = skip_angles(toks, i);
                }
                while i < end && !matches!(punct_at(toks, i), Some('{' | ';')) {
                    i += 1;
                }
                let mut variants = Vec::new();
                let mut end_line = enum_line;
                if punct_at(toks, i) == Some('{') {
                    let close = skip_group(toks, i);
                    end_line = line_at(toks, close - 1);
                    let mut j = i + 1;
                    while j < close - 1 {
                        // Skip variant attributes.
                        while punct_at(toks, j) == Some('#') && punct_at(toks, j + 1) == Some('[') {
                            j = skip_group(toks, j + 1);
                        }
                        if let Some(v) = ident_at(toks, j) {
                            variants.push(v.to_string());
                            j += 1;
                        } else {
                            break;
                        }
                        // Skip payload / discriminant to the next `,` at
                        // this nesting level.
                        let mut depth = 0usize;
                        while j < close - 1 {
                            match punct_at(toks, j) {
                                Some('(' | '[' | '{') => depth += 1,
                                Some(')' | ']' | '}') => depth = depth.saturating_sub(1),
                                Some(',') if depth == 0 => {
                                    j += 1;
                                    break;
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    i = close;
                } else {
                    i += 1;
                }
                out.enums.push(EnumItem {
                    name,
                    variants,
                    line: enum_line,
                    start_line,
                    end_line,
                    is_test: ctx.is_test || pending_test,
                });
                pending_test = false;
            }
            "impl" => {
                let start_line = item_start_line.take().unwrap_or_else(|| line_at(toks, i));
                let impl_line = line_at(toks, i);
                i += 1;
                if punct_at(toks, i) == Some('<') {
                    i = skip_angles(toks, i);
                }
                let (first, after_first) = read_type_path(toks, i);
                i = after_first;
                let (trait_name, type_name) = if ident_at(toks, i) == Some("for") {
                    let (second, after_second) = read_type_path(toks, i + 1);
                    i = after_second;
                    (first, second.unwrap_or_else(|| "?".to_string()))
                } else {
                    (None, first.unwrap_or_else(|| "?".to_string()))
                };
                // Skip any where clause to the block.
                while i < end && punct_at(toks, i) != Some('{') {
                    i += 1;
                }
                let close = if i < end { skip_group(toks, i) } else { end };
                let body_start = i + 1;
                let body_end = close.saturating_sub(1);
                let is_test = ctx.is_test || pending_test;
                // Find a `type Msg = …;` alias at the block's top level.
                let msg_alias = find_msg_alias(toks, body_start, body_end);
                let fns_before = out.fns.len();
                let inner =
                    Ctx { owner: Some(type_name.clone()), trait_name: trait_name.clone(), is_test };
                parse_block(toks, body_start, body_end, inner, out);
                out.impls.push(ImplItem {
                    type_name,
                    trait_name,
                    msg_alias,
                    line: impl_line,
                    start_line,
                    end_line: line_at(toks, close.saturating_sub(1)),
                    is_test,
                    fn_indices: (fns_before..out.fns.len()).collect(),
                });
                i = close;
                pending_test = false;
            }
            "trait" => {
                item_start_line = None;
                let name = ident_at(toks, i + 1).unwrap_or("?").to_string();
                i += 2;
                while i < end && punct_at(toks, i) != Some('{') {
                    if punct_at(toks, i) == Some('<') {
                        i = skip_angles(toks, i);
                    } else {
                        i += 1;
                    }
                }
                let close = if i < end { skip_group(toks, i) } else { end };
                let inner = Ctx {
                    owner: Some(name),
                    trait_name: None,
                    is_test: ctx.is_test || pending_test,
                };
                parse_block(toks, i + 1, close.saturating_sub(1), inner, out);
                i = close;
                pending_test = false;
            }
            "struct" | "union" | "type" | "macro_rules" => {
                item_start_line = None;
                // Skip to `;` or over the braced body, whichever ends
                // this item (tuple structs end in `;` after parens).
                i += 1;
                while i < end {
                    match punct_at(toks, i) {
                        Some(';') => {
                            i += 1;
                            break;
                        }
                        Some('{') => {
                            i = skip_group(toks, i);
                            break;
                        }
                        Some('<') => i = skip_angles(toks, i),
                        _ => i += 1,
                    }
                }
                pending_test = false;
            }
            _ => {
                i += 1;
                item_start_line = None;
                pending_test = false;
            }
        }
    }
    if let Some(from) = test_from {
        mark_test(out, from, i);
    }
}

/// Marks tokens `from..to` as inside a `#[cfg(test)]`-gated item.
fn mark_test(out: &mut FileItems, from: usize, to: usize) {
    let hi = to.min(out.in_test.len());
    for slot in &mut out.in_test[from..hi] {
        *slot = true;
    }
}

/// Finds `type Msg = <Path>;` at the top level of an impl block and
/// returns the path's **first** head identifier (`StubbornMsg<A::Msg>` →
/// `StubbornMsg`; `A::Msg` → `A`; `u8`/`()` → the ident or `None`).
fn find_msg_alias(toks: &[Token], start: usize, end: usize) -> Option<String> {
    let mut i = start;
    let mut depth = 0usize;
    while i < end {
        match punct_at(toks, i) {
            Some('{') => depth += 1,
            Some('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth == 0
            && ident_at(toks, i) == Some("type")
            && ident_at(toks, i + 1) == Some("Msg")
            && punct_at(toks, i + 2) == Some('=')
        {
            return ident_at(toks, i + 3).map(str::to_string);
        }
        i += 1;
    }
    None
}

/// How one `allow` pragma is scoped.
#[derive(Clone, Debug, PartialEq, Eq)]
enum PragmaScope {
    /// Suppresses everywhere in the file (header pragmas).
    File,
    /// Suppresses within `[start, end]` lines (item pragmas).
    Lines(u32, u32),
    /// Inside `#[cfg(test)]` code: inert, and exempt from unused-allow.
    Test,
}

/// One scoped pragma with per-rule use counts.
#[derive(Clone, Debug)]
struct ScopedPragma {
    file: String,
    line: u32,
    rules: Vec<String>,
    scope: PragmaScope,
    used: Vec<usize>,
}

/// All pragmas of the analyzed files, scoped to items, with suppression
/// accounting for the `unused-allow` lint.
///
/// Scoping rules (documented in DESIGN.md §6): a pragma **above the
/// first item** of a file suppresses file-wide; a pragma **inside** an
/// item (fn, enum, or impl block) or in the comment block directly above
/// one suppresses only findings within that item's line span. A pragma
/// that suppresses nothing is itself a finding.
#[derive(Clone, Debug, Default)]
pub struct PragmaTable {
    pragmas: Vec<ScopedPragma>,
}

impl PragmaTable {
    /// Scopes `lexed`'s pragmas against `items` and adds them to the
    /// table under the (display) path `file`.
    pub fn add_file(&mut self, file: &str, lexed: &Lexed, items: &FileItems) {
        // Innermost-containing item wins; otherwise the next item below.
        #[derive(Clone, Copy)]
        struct Span {
            start: u32,
            end: u32,
            is_test: bool,
        }
        let spans: Vec<Span> = items
            .fns
            .iter()
            .map(|f| Span { start: f.start_line, end: f.end_line, is_test: f.is_test })
            .chain(items.enums.iter().map(|e| Span {
                start: e.start_line,
                end: e.end_line,
                is_test: e.is_test,
            }))
            .chain(items.impls.iter().map(|i| Span {
                start: i.start_line,
                end: i.end_line,
                is_test: i.is_test,
            }))
            .collect();
        for pragma in &lexed.pragmas {
            let line = pragma.line;
            let scope = if line < items.first_item_line {
                PragmaScope::File
            } else {
                let containing = spans
                    .iter()
                    .filter(|s| s.start <= line && line <= s.end)
                    .min_by_key(|s| s.end - s.start);
                let chosen = containing.copied().or_else(|| {
                    spans.iter().filter(|s| s.start > line).min_by_key(|s| s.start).copied()
                });
                match chosen {
                    Some(s) if s.is_test => PragmaScope::Test,
                    Some(s) => PragmaScope::Lines(s.start, s.end),
                    None => PragmaScope::Lines(line, line), // trailing: inert
                }
            };
            self.pragmas.push(ScopedPragma {
                file: file.to_string(),
                line,
                rules: pragma.rules.clone(),
                used: vec![0; pragma.rules.len()],
                scope,
            });
        }
    }

    /// Whether a finding `(rule, file, line)` is suppressed by some
    /// pragma; records the use so the pragma counts as live.
    pub fn suppress(&mut self, rule: &str, file: &str, line: u32) -> bool {
        for p in &mut self.pragmas {
            if p.file != file {
                continue;
            }
            let in_scope = match p.scope {
                PragmaScope::File => true,
                PragmaScope::Lines(start, end) => start <= line && line <= end,
                PragmaScope::Test => false,
            };
            if !in_scope {
                continue;
            }
            if let Some(k) = p.rules.iter().position(|r| r == rule) {
                p.used[k] += 1;
                return true;
            }
        }
        false
    }

    /// The `unused-allow` findings: every `(pragma, rule)` pair that
    /// suppressed nothing. Pragmas inside `#[cfg(test)]` items are
    /// exempt (test code produces no findings to suppress).
    pub fn unused_findings(&self) -> Vec<crate::report::Finding> {
        let mut out = Vec::new();
        for p in &self.pragmas {
            if p.scope == PragmaScope::Test {
                continue;
            }
            for (rule, used) in p.rules.iter().zip(&p.used) {
                if *used == 0 {
                    out.push(crate::report::Finding {
                        rule: "unused-allow",
                        file: p.file.clone(),
                        line: p.line,
                        message: format!(
                            "allow({rule}) suppresses nothing — delete the pragma or fix its rule name"
                        ),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileItems {
        parse_items(&lex(src))
    }

    #[test]
    fn free_and_assoc_fns_are_attributed() {
        let src = r#"
            fn free() { body(); }
            impl Foo {
                fn assoc(&self) -> u32 { 1 }
            }
            impl Automaton for Bar {
                fn step(&mut self) {}
            }
        "#;
        let items = parse(src);
        let names: Vec<(String, Option<String>, Option<String>)> = items
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone(), f.trait_name.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None, None),
                ("assoc".into(), Some("Foo".into()), None),
                ("step".into(), Some("Bar".into()), Some("Automaton".into())),
            ]
        );
        assert_eq!(items.impls.len(), 2);
        assert_eq!(items.impls[1].trait_name.as_deref(), Some("Automaton"));
    }

    #[test]
    fn generic_impl_headers_resolve_trait_and_type() {
        let src = r#"
            impl<A: Automaton, F: Fn(u32) -> bool> Automaton for Wrapper<A, F> {
                type Msg = Inner<A::Msg>;
                fn step(&mut self) {}
            }
        "#;
        let items = parse(src);
        assert_eq!(items.impls.len(), 1);
        let im = &items.impls[0];
        assert_eq!(im.type_name, "Wrapper");
        assert_eq!(im.trait_name.as_deref(), Some("Automaton"));
        assert_eq!(im.msg_alias.as_deref(), Some("Inner"));
        assert_eq!(items.fns[0].name, "step");
        assert_eq!(items.fns[0].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn qualified_trait_paths_use_the_last_segment() {
        let items = parse("impl sih_runtime::Automaton for Foo { fn step(&mut self) {} }");
        assert_eq!(items.impls[0].trait_name.as_deref(), Some("Automaton"));
        assert_eq!(items.impls[0].type_name, "Foo");
    }

    #[test]
    fn enums_list_their_variants() {
        let src = r#"
            pub enum Msg {
                /// Doc.
                Plain,
                Tuple(u32, Value),
                Struct { a: u32, b: Vec<(u8, u8)> },
                Disc = 4,
            }
        "#;
        let items = parse(src);
        assert_eq!(items.enums.len(), 1);
        assert_eq!(items.enums[0].variants, vec!["Plain", "Tuple", "Struct", "Disc"]);
    }

    #[test]
    fn cfg_test_marks_items_and_modules() {
        let src = r#"
            fn live() {}
            #[cfg(test)]
            fn helper() {}
            #[cfg(test)]
            mod tests {
                fn inner() {}
            }
        "#;
        let items = parse(src);
        let tests: Vec<(String, bool)> =
            items.fns.iter().map(|f| (f.name.clone(), f.is_test)).collect();
        assert_eq!(
            tests,
            vec![("live".into(), false), ("helper".into(), true), ("inner".into(), true)]
        );
        // Token mask: `fn live() {}` is 6 tokens, and everything from the
        // first `#[cfg(test)]` to the module's closing brace is test code.
        assert_eq!(items.in_test.iter().position(|&t| t), Some(6));
        assert!(items.in_test[6..].iter().all(|&t| t));
    }

    #[test]
    fn gated_items_end_where_the_item_ends() {
        let src = r#"
            #[cfg(test)]
            use std::collections::BTreeMap;
            #[cfg(test)]
            const LIMIT: u32 = 3;
            #[cfg(test)]
            pub(crate) fn helper() { body(); }
            struct Live { field: u32 }
        "#;
        let items = parse(src);
        let live = items.in_test.iter().rposition(|&t| t).expect("gated tokens") + 1;
        let rest = &lex(src).tokens[live..];
        assert!(matches!(&rest[0].tok, Tok::Ident(s) if s == "struct"), "{rest:?}");
        assert!(items.in_test[..live].iter().all(|&t| t));
        assert!(!items.in_test[live..].iter().any(|&t| t));
    }

    #[test]
    fn bodies_are_token_ranges() {
        let src = "fn f() { inner_call(); } struct S { field: u32 }";
        let items = parse(src);
        let body = items.fns[0].body.clone();
        assert_eq!(body, 5..9); // inner_call ( ) ;
    }

    #[test]
    fn trait_default_methods_belong_to_the_trait() {
        let src = r#"
            pub trait Automaton {
                type Msg;
                fn step(&mut self);
                fn halted(&self) -> bool { false }
            }
        "#;
        let items = parse(src);
        let halted = items.fns.iter().find(|f| f.name == "halted").expect("halted parsed");
        assert_eq!(halted.owner.as_deref(), Some("Automaton"));
        assert!(!halted.body.is_empty());
        let step = items.fns.iter().find(|f| f.name == "step").expect("step parsed");
        assert!(step.body.is_empty()); // declaration only
    }

    #[test]
    fn pragma_scoping_header_vs_item() {
        let src = r#"
            // sih-analysis: allow(float) — header, file-wide
            fn first() { let x = 1.5; }
            // sih-analysis: allow(btree-procset) — next item only
            fn second() {}
            fn third() {}
        "#;
        let lexed = lex(src);
        let items = parse_items(&lexed);
        let mut table = PragmaTable::default();
        table.add_file("x.rs", &lexed, &items);
        // float: file-wide (line 2 < first item line 3).
        assert!(table.suppress("float", "x.rs", 6));
        // btree-procset: scoped to `second` (line 5), not `third`.
        let second = items.fns.iter().find(|f| f.name == "second").expect("second parsed");
        assert!(table.suppress("btree-procset", "x.rs", second.line));
        let third = items.fns.iter().find(|f| f.name == "third").expect("third parsed");
        assert!(!table.suppress("btree-procset", "x.rs", third.line));
    }

    #[test]
    fn unused_pragmas_are_reported_per_rule() {
        let src = "// sih-analysis: allow(float, panic-reachable)\nfn f() {}";
        let lexed = lex(src);
        let items = parse_items(&lexed);
        let mut table = PragmaTable::default();
        table.add_file("x.rs", &lexed, &items);
        assert!(table.suppress("float", "x.rs", 2));
        let unused = table.unused_findings();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "unused-allow");
        assert!(unused[0].message.contains("panic-reachable"));
    }

    #[test]
    fn test_scoped_pragmas_are_exempt_from_unused() {
        let src = r#"
            fn live() {}
            #[cfg(test)]
            mod tests {
                // sih-analysis: allow(float)
                fn helper() {}
            }
        "#;
        let lexed = lex(src);
        let items = parse_items(&lexed);
        let mut table = PragmaTable::default();
        table.add_file("x.rs", &lexed, &items);
        assert!(table.unused_findings().is_empty());
    }
}

//! A lightweight Rust tokenizer — just enough syntax awareness for the
//! token rules and the item parser.
//!
//! The scanner must never report a banned token that only occurs inside
//! a string literal or a comment. That requires real lexing (comments,
//! string/char/raw-string literals, lifetimes, numbers); structure comes
//! from [`crate::parse`]. Comments are
//! consumed off-stream; `// sih-analysis: allow(<rule>, …)` pragmas found
//! in them are collected as per-file rule suppressions.

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A lifetime (`'a`); the name is irrelevant to every rule.
    Lifetime,
    /// An integer literal (including suffixed ones such as `3u64`).
    Int,
    /// A floating-point literal (`0.5`, `1e3`, `2f64`).
    Float,
    /// A char or byte literal.
    Literal,
    /// A string, byte-string or raw-string literal, with its contents
    /// (escapes left as written — the panic-reachability pass only needs
    /// prefix checks such as `"invariant:"`).
    Str(String),
    /// The path separator `::`.
    PathSep,
    /// Any other single punctuation character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// One `// sih-analysis: allow(rule, …)` pragma found in a comment.
///
/// The line anchors the pragma's *scope*: a pragma in the file header
/// (before the first item) suppresses file-wide, while a pragma inside or
/// directly above an item suppresses only within that item (see
/// `parse::PragmaTable`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The rule names listed in the `allow(…)` argument.
    pub rules: Vec<String>,
}

/// The result of lexing one file: the token stream plus any
/// `sih-analysis: allow(…)` pragmas found in comments.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Tokens in source order (comments and whitespace removed).
    pub tokens: Vec<Token>,
    /// Allow pragmas in source order.
    pub pragmas: Vec<Pragma>,
}

/// Lexes Rust source text.
pub fn lex(src: &str) -> Lexed {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'b' if self.peek(1) == Some('"') => {
                    self.pos += 1;
                    self.string_literal();
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.pos += 1;
                    self.char_literal();
                }
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(),
                '\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                ':' if self.peek(1) == Some(':') => {
                    self.push(Tok::PathSep);
                    self.pos += 2;
                }
                c => {
                    self.push(Tok::Punct(c));
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, tok: Tok) {
        self.out.tokens.push(Token { tok, line: self.line });
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.collect_pragma(&text, line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some('\n'), _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => break, // unterminated; tolerate
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.collect_pragma(&text, line);
    }

    /// Records the rule names of every `sih-analysis: allow(a, b)` marker
    /// in `text` as one pragma anchored at `line` (the comment's first
    /// line).
    fn collect_pragma(&mut self, text: &str, line: u32) {
        let mut rules = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find("sih-analysis:") {
            rest = &rest[at + "sih-analysis:".len()..];
            let trimmed = rest.trim_start();
            if let Some(args) = trimmed.strip_prefix("allow(") {
                if let Some(close) = args.find(')') {
                    for rule in args[..close].split(',') {
                        let rule = rule.trim();
                        if !rule.is_empty() {
                            rules.push(rule.to_string());
                        }
                    }
                }
            }
        }
        if !rules.is_empty() {
            self.out.pragmas.push(Pragma { line, rules });
        }
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.pos += 1; // opening quote
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => self.pos += 2,
                '"' => break,
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let content: String = self.chars[start..self.pos.min(self.chars.len())].iter().collect();
        if self.peek(0) == Some('"') {
            self.pos += 1;
        }
        self.out.tokens.push(Token { tok: Tok::Str(content), line });
    }

    /// Whether the cursor sits on `r"`, `r#`, `br"` or `br#`.
    fn raw_string_ahead(&self) -> bool {
        let offset = if self.peek(0) == Some('b') { 1 } else { 0 };
        self.peek(offset) == Some('r') && matches!(self.peek(offset + 1), Some('"') | Some('#'))
    }

    fn raw_string(&mut self) {
        let line = self.line;
        if self.peek(0) == Some('b') {
            self.pos += 1;
        }
        self.pos += 1; // the `r`
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        if self.peek(0) != Some('"') {
            // `r#foo` raw identifier, not a raw string: emit as ident.
            let start = self.pos;
            while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
                self.pos += 1;
            }
            let name: String = self.chars[start..self.pos].iter().collect();
            self.out.tokens.push(Token { tok: Tok::Ident(name), line });
            return;
        }
        self.pos += 1; // opening quote
        let start = self.pos;
        let mut end = self.chars.len();
        'outer: while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.line += 1;
            }
            if c == '"' {
                for h in 0..hashes {
                    if self.peek(1 + h) != Some('#') {
                        self.pos += 1;
                        continue 'outer;
                    }
                }
                end = self.pos;
                self.pos += 1 + hashes;
                break;
            }
            self.pos += 1;
        }
        let content: String = self.chars[start..end].iter().collect();
        self.out.tokens.push(Token { tok: Tok::Str(content), line });
    }

    /// A `'` is either a lifetime (`'a`) or a char literal (`'a'`,
    /// `'\n'`): look past the identifier for a closing quote.
    fn quote(&mut self) {
        let next = self.peek(1);
        if next.is_some_and(|c| c.is_alphabetic() || c == '_') {
            let mut j = 2;
            while self.peek(j).is_some_and(|c| c.is_alphanumeric() || c == '_') {
                j += 1;
            }
            if self.peek(j) != Some('\'') {
                self.push(Tok::Lifetime);
                self.pos += j;
                return;
            }
        }
        self.char_literal();
    }

    fn char_literal(&mut self) {
        let line = self.line;
        self.pos += 1; // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => self.pos += 2,
                '\'' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.out.tokens.push(Token { tok: Tok::Literal, line });
    }

    fn number(&mut self) {
        let line = self.line;
        let mut float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.pos += 2;
            while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
                self.pos += 1;
            }
            self.out.tokens.push(Token { tok: Tok::Int, line });
            return;
        }
        while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            self.pos += 1;
        }
        // A fraction only if a digit follows the dot (so `0..n` and
        // tuple access stay untouched).
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            self.pos += 1;
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.pos += 1;
            }
        }
        if matches!(self.peek(0), Some('e' | 'E')) {
            let sign = usize::from(matches!(self.peek(1), Some('+' | '-')));
            if self.peek(1 + sign).is_some_and(|c| c.is_ascii_digit()) {
                float = true;
                self.pos += 1 + sign;
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.pos += 1;
                }
            }
        }
        // Type suffix (`u64`, `f64`, …).
        let suffix_start = self.pos;
        while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        let suffix: String = self.chars[suffix_start..self.pos].iter().collect();
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
        self.out.tokens.push(Token { tok: if float { Tok::Float } else { Tok::Int }, line });
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        let name: String = self.chars[start..self.pos].iter().collect();
        self.out.tokens.push(Token { tok: Tok::Ident(name), line });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(name) => Some(name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in a block /* nested HashMap */ still */
            let s = "HashMap in a string";
            let r = r#"HashMap raw"#;
            let c = 'H';
            let real = HashMap::new();
        "##;
        assert_eq!(idents(src).iter().filter(|i| *i == "HashMap").count(), 1);
    }

    #[test]
    fn pragmas_are_collected_from_comments_only_with_lines() {
        let src = r#"
            // sih-analysis: allow(float, hash-container)
            let s = "sih-analysis: allow(wall-clock)";
        "#;
        let lexed = lex(src);
        assert_eq!(lexed.pragmas.len(), 1);
        assert_eq!(lexed.pragmas[0].line, 2);
        assert_eq!(lexed.pragmas[0].rules, vec!["float".to_string(), "hash-container".to_string()]);
    }

    #[test]
    fn string_tokens_carry_their_content() {
        let toks = lex(r#"x.expect("invariant: queue nonempty")"#).tokens;
        assert!(toks.iter().any(|t| matches!(&t.tok, Tok::Str(s) if s.starts_with("invariant:"))));
        // Raw strings too, hashes stripped.
        let toks = lex(r###"let s = r#"a "quoted" b"#;"###).tokens;
        assert!(toks.iter().any(|t| matches!(&t.tok, Tok::Str(s) if s == "a \"quoted\" b")));
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let toks: Vec<Tok> =
            lex("1 0x2f 0.5 1e3 2f64 3u64 0..n x.0").tokens.into_iter().map(|t| t.tok).collect();
        let floats = toks.iter().filter(|t| **t == Tok::Float).count();
        let ints = toks.iter().filter(|t| **t == Tok::Int).count();
        assert_eq!(floats, 3, "{toks:?}");
        assert_eq!(ints, 5, "{toks:?}"); // 1, 0x2f, 3u64, 0, 0 (x.0 → x . 0)
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks: Vec<Tok> = lex("fn f<'a>(x: &'a str) { let c = 'x'; }")
            .tokens
            .into_iter()
            .map(|t| t.tok)
            .collect();
        assert_eq!(toks.iter().filter(|t| **t == Tok::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| **t == Tok::Literal).count(), 1);
    }

    #[test]
    fn path_separator_is_one_token() {
        let lexed = lex("std::env::var");
        let seps = lexed.tokens.iter().filter(|t| t.tok == Tok::PathSep).count();
        assert_eq!(seps, 2);
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    // ---- stream-skew regression fixtures -------------------------------
    //
    // Each of these once risked desynchronizing the token stream: a
    // mis-lexed literal or comment makes every *later* token attribute to
    // the wrong line (or swallows real code entirely), which silently
    // blinds the graph passes. The assertions pin both the classification
    // and that the stream resynchronizes after the construct.

    #[test]
    fn raw_strings_with_hashes_and_inner_quotes_resync() {
        // `"#` inside a `##`-delimited raw string must not close it.
        let src = "let a = r##\"one \"# two\"##; let after = 1;";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| matches!(&t.tok, Tok::Str(s) if s == "one \"# two")));
        assert!(idents(src).contains(&"after".to_string()));
    }

    #[test]
    fn raw_byte_strings_and_byte_literals() {
        let src = "let a = br#\"bytes \" here\"#; let b = b\"esc\\\"aped\"; let c = b'x'; done";
        let lexed = lex(src);
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["bytes \" here", "esc\\\"aped"]);
        assert_eq!(lexed.tokens.iter().filter(|t| t.tok == Tok::Literal).count(), 1); // b'x'
        assert!(idents(src).contains(&"done".to_string()));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        assert_eq!(idents("let r#fn = r#match;"), vec!["let", "fn", "match"]);
    }

    #[test]
    fn nested_block_comments_do_not_swallow_code() {
        let src = "/* a /* b /* c */ */ still comment */ live /* tail */";
        assert_eq!(idents(src), vec!["live"]);
        // Unterminated nesting tolerated without panicking.
        assert_eq!(idents("/* open /* deeper */ never closed"), Vec::<String>::new());
    }

    #[test]
    fn block_comment_lines_advance_the_counter() {
        let lexed = lex("/* one\ntwo\nthree */ x");
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn char_literal_vs_lifetime_disambiguation() {
        // Labeled loops and anonymous lifetimes are lifetimes; quoted
        // chars (including quote/backslash escapes) are literals.
        let src = "'outer: loop { break 'outer; } let a: &'_ str = x; let c = '\\''; let d = ' ';";
        let lexed = lex(src);
        let lifetimes = lexed.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = lexed.tokens.iter().filter(|t| t.tok == Tok::Literal).count();
        assert_eq!(lifetimes, 3, "{:?}", lexed.tokens);
        assert_eq!(chars, 2, "{:?}", lexed.tokens);
    }

    #[test]
    fn multichar_char_likes_are_literals_not_lifetimes() {
        // `'ab'` is not valid Rust, but the lexer must stay in sync: the
        // closing quote ends the literal.
        let lexed = lex("let c = 'ab'; after");
        assert_eq!(lexed.tokens.iter().filter(|t| t.tok == Tok::Literal).count(), 1);
        assert!(idents("let c = 'ab'; after").contains(&"after".to_string()));
    }

    #[test]
    fn strings_with_escapes_and_newlines_resync() {
        let src = "let s = \"a\\\"b\\\\\"; let t = \"line1\nline2\"; tail";
        let lexed = lex(src);
        assert_eq!(lexed.tokens.iter().filter(|t| matches!(t.tok, Tok::Str(_))).count(), 2);
        // The newline inside the second string advanced the line counter.
        let tail = lexed.tokens.last().expect("tail token");
        assert!(matches!(&tail.tok, Tok::Ident(n) if n == "tail"));
        assert_eq!(tail.line, 2);
    }

    #[test]
    fn unterminated_string_at_eof_is_tolerated() {
        let lexed = lex("let s = \"never closed");
        assert!(
            matches!(&lexed.tokens.last().expect("token").tok, Tok::Str(s) if s == "never closed")
        );
    }
}

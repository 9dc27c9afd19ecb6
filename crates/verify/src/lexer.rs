//! A dependency-free Rust lexer: the single source of truth for "what is
//! code, what is comment, what is literal" in `ooh-verify`.
//!
//! One pass produces a token stream with char-offset spans and 1-based
//! line/column positions; comments vanish, literals become contentless
//! [`TokKind::Literal`] tokens, so no rule can ever match inside
//! documentation or message text. The item parser ([`crate::ast`]) and every
//! rule build on this stream and nothing else.
//!
//! Handled precisely:
//! - line comments and *nested* block comments (`/* a /* b */ c */`)
//! - cooked strings and byte strings with escapes (`"\""`, `b"\""`)
//! - raw (byte) strings with any hash depth (`r#".."#`, `br##".."##`)
//! - char and byte-char literals incl. escapes (`'\''`, `'\u{1F600}'`, `b'\n'`)
//! - lifetimes vs char literals (`'static` is a token, `'s'` is a literal)
//! - raw identifiers (`r#match`)
//!
//! Offsets are *char* offsets (not bytes), and line/column numbers for
//! diagnostics are char-based too.

/// Token kind. A literal token records only that a literal occupied the
/// span, never its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, prefix kept).
    Ident,
    /// A lifetime (`'a`, `'static`), quote included in the span.
    Lifetime,
    /// String/char/byte/numeric literal.
    Literal,
    /// One punctuation char (`.`, `:`, `;`, `=`, `>`, `!`, ...).
    Punct,
    /// `{`, `(`, or `[`.
    Open,
    /// `}`, `)`, or `]`.
    Close,
}

/// One token with its char-offset span and position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Ident text, punct/delimiter char, or `""` for literals.
    pub text: String,
    /// Char offset of the first char in the source.
    pub pos: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based char column.
    pub col: usize,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    /// The ident's *name*: the text with any raw-identifier prefix
    /// stripped, so `r#match(..)` and `match_(..)`-style callees compare
    /// equal to their definitions (fn items already strip `r#`). Keyword
    /// checks must keep using [`Tok::is_ident`] on the raw text — `r#if`
    /// is an ordinary name, not the keyword.
    pub fn name(&self) -> &str {
        self.text.strip_prefix("r#").unwrap_or(&self.text)
    }
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.starts_with(c)
    }
    pub fn is_open(&self, c: char) -> bool {
        self.kind == TokKind::Open && self.text.starts_with(c)
    }
    pub fn is_close(&self, c: char) -> bool {
        self.kind == TokKind::Close && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src`. Never fails: malformed input (unterminated literals or
/// comments) swallows through end-of-file, which is the useful behavior for
/// a linter that must keep scanning the rest of the workspace.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
    toks: Vec<Tok>,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
            toks: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consume one char, keeping the line/column position in step.
    fn bump(&mut self) {
        let c = self.chars[self.i];
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }

    fn run(mut self) -> Vec<Tok> {
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.cooked_string(),
                'b' | 'r' if self.literal_prefix() => {}
                '\'' => self.quote(),
                _ if is_ident_start(c) => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                '{' | '(' | '[' => self.single(TokKind::Open),
                '}' | ')' | ']' => self.single(TokKind::Close),
                _ if c.is_whitespace() => self.bump(),
                _ => self.single(TokKind::Punct),
            }
        }
        self.toks
    }

    fn line_comment(&mut self) {
        while self.i < self.chars.len() && self.chars[self.i] != '\n' {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while self.i < self.chars.len() {
            if self.chars[self.i] == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.chars[self.i] == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    fn push_tok(&mut self, kind: TokKind, text: String, pos: usize, line: usize, col: usize) {
        self.toks.push(Tok {
            kind,
            text,
            pos,
            line,
            col,
        });
    }

    /// Cooked (escaped) string, opening quote at `self.i`.
    fn cooked_string(&mut self) {
        let (pos, line, col) = (self.i, self.line, self.col);
        self.cooked_string_body_into(pos, line, col);
    }

    /// Dispatch for `b`/`r` prefixes: byte strings (`b".."`, cooked, WITH
    /// escapes — treating them as raw would end `b"\""` one char early and
    /// flip the string state for the rest of the file), raw strings (`r".."`, `r#".."#`,
    /// `br#".."#`), byte chars (`b'x'`), and raw identifiers (`r#ident`).
    /// Returns true if a literal was consumed; false means "plain ident
    /// starting with b/r" and the caller lexes it as an ident.
    fn literal_prefix(&mut self) -> bool {
        let c = self.chars[self.i];
        // b'x' byte char.
        if c == 'b' && self.peek(1) == Some('\'') {
            let (pos, line, col) = (self.i, self.line, self.col);
            self.bump(); // b
            self.char_body();
            self.push_tok(TokKind::Literal, String::new(), pos, line, col);
            return true;
        }
        // b"..": cooked byte string.
        if c == 'b' && self.peek(1) == Some('"') {
            let (pos, line, col) = (self.i, self.line, self.col);
            self.bump(); // b
            self.cooked_string_body_into(pos, line, col);
            return true;
        }
        // r".." / r#".."# / br".." / br#".."#: raw strings, no escapes.
        let after_r = match (c, self.peek(1)) {
            ('r', _) => 1,
            ('b', Some('r')) => 2,
            _ => return false,
        };
        let mut j = after_r;
        let mut hashes = 0usize;
        while self.peek(j) == Some('#') {
            hashes += 1;
            j += 1;
        }
        if self.peek(j) != Some('"') {
            // r#ident raw identifier: consume prefix + ident as one Ident
            // token so `r#match` does not read as a raw string.
            if c == 'r' && hashes == 1 && self.peek(j).is_some_and(is_ident_start) {
                let (pos, line, col) = (self.i, self.line, self.col);
                let mut text = String::new();
                text.push(self.chars[self.i]);
                self.bump(); // r
                text.push(self.chars[self.i]);
                self.bump(); // #
                while self.i < self.chars.len() && is_ident_char(self.chars[self.i]) {
                    text.push(self.chars[self.i]);
                    self.bump();
                }
                self.push_tok(TokKind::Ident, text, pos, line, col);
                return true;
            }
            return false;
        }
        let (pos, line, col) = (self.i, self.line, self.col);
        for _ in 0..j {
            self.bump(); // prefix + hashes
        }
        self.bump(); // opening "
        'body: while self.i < self.chars.len() {
            if self.chars[self.i] == '"' {
                let mut k = 0;
                while k < hashes && self.peek(1 + k) == Some('#') {
                    k += 1;
                }
                if k == hashes {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break 'body;
                }
            }
            self.bump();
        }
        self.push_tok(TokKind::Literal, String::new(), pos, line, col);
        true
    }

    /// Cooked string body starting at the opening quote, recording the token
    /// from `pos` (used for `b"` where the prefix is already consumed).
    fn cooked_string_body_into(&mut self, pos: usize, line: usize, col: usize) {
        self.bump(); // opening "
        while self.i < self.chars.len() {
            match self.chars[self.i] {
                '\\' => {
                    self.bump();
                    if self.i < self.chars.len() {
                        self.bump();
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        self.push_tok(TokKind::Literal, String::new(), pos, line, col);
    }

    /// `'` dispatch: char literal (escape or single-char) vs lifetime.
    fn quote(&mut self) {
        // Escape: definitely a char literal.
        if self.peek(1) == Some('\\') {
            let (pos, line, col) = (self.i, self.line, self.col);
            self.char_body();
            self.push_tok(TokKind::Literal, String::new(), pos, line, col);
            return;
        }
        // 'x' with a closing quote right after one char: char literal.
        if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') {
            let (pos, line, col) = (self.i, self.line, self.col);
            self.bump();
            self.bump();
            self.bump();
            self.push_tok(TokKind::Literal, String::new(), pos, line, col);
            return;
        }
        // Lifetime: quote + ident chars, one token (it IS code).
        if self.peek(1).is_some_and(is_ident_start) {
            let (pos, line, col) = (self.i, self.line, self.col);
            let mut text = String::from("'");
            self.bump();
            while self.i < self.chars.len() && is_ident_char(self.chars[self.i]) {
                text.push(self.chars[self.i]);
                self.bump();
            }
            self.push_tok(TokKind::Lifetime, text, pos, line, col);
            return;
        }
        // Stray quote: keep as punct.
        self.single(TokKind::Punct);
    }

    /// Body of a char/byte-char literal with the opening `'` at `self.i`:
    /// consumes through the closing quote, handling `'\''`, `'\\'`, and
    /// multi-char escapes like `'\u{1F600}'`.
    fn char_body(&mut self) {
        self.bump(); // opening '
        while self.i < self.chars.len() {
            match self.chars[self.i] {
                '\\' => {
                    self.bump();
                    if self.i < self.chars.len() {
                        self.bump();
                    }
                }
                '\'' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    fn ident(&mut self) {
        let (pos, line, col) = (self.i, self.line, self.col);
        let mut text = String::new();
        while self.i < self.chars.len() && is_ident_char(self.chars[self.i]) {
            text.push(self.chars[self.i]);
            self.bump();
        }
        self.push_tok(TokKind::Ident, text, pos, line, col);
    }

    /// Numeric literal: digits, `_`, radix/suffix letters, `.` only when
    /// followed by a digit (so `0..n` stays two tokens and `x.0` field
    /// access never reaches here), exponent sign after e/E in decimal-ish
    /// bodies.
    fn number(&mut self) {
        let (pos, line, col) = (self.i, self.line, self.col);
        let mut prev = '\0';
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            let take = is_ident_char(c)
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()))
                || ((c == '+' || c == '-') && (prev == 'e' || prev == 'E'));
            if !take {
                break;
            }
            prev = c;
            self.bump();
        }
        self.push_tok(TokKind::Literal, String::new(), pos, line, col);
    }

    /// A one-char token: a delimiter or a punctuation char.
    fn single(&mut self, kind: TokKind) {
        let (pos, line, col) = (self.i, self.line, self.col);
        let text = self.chars[self.i].to_string();
        self.bump();
        self.push_tok(kind, text, pos, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    /// The ident sequence with every other token dropped — what a rule
    /// "sees" of the code once comments and literals are gone.
    fn code(src: &str) -> String {
        idents(src).join(" ")
    }

    #[test]
    fn comments_produce_no_tokens() {
        assert_eq!(
            code("let x = 1; // HashMap\n/* HashSet */ let y = 2;"),
            "let x let y"
        );
    }

    #[test]
    fn nested_block_comments_end_at_the_matching_close() {
        // The inner close must not end the comment (`b` stays hidden).
        assert_eq!(code("/* a /* HashSet */ b */ fn f() {}"), "fn f");
        // Unterminated nesting swallows to EOF instead of panicking.
        assert_eq!(code("/*/* Instant */ fn g() {}"), "");
    }

    #[test]
    fn raw_strings_end_at_the_right_hash_depth() {
        let c = code(r####"let s = r#"Instant "quoted" inside"#; let t = 1;"####);
        assert_eq!(c, "let s let t");
        // A "# inside a ##-delimited raw string does not close it.
        let c = code(r####"let s = r##"a "# HashMap b"##; done();"####);
        assert_eq!(c, "let s done");
        // Raw byte strings too.
        assert_eq!(code(r####"let s = br#"SystemTime"#; ok();"####), "let s ok");
    }

    #[test]
    fn byte_strings_honor_escapes() {
        // Treated as raw, b"\"" would end at the escaped quote and lex the
        // rest of the literal as code.
        assert_eq!(code(r#"let s = b"\"Instant\""; let u = 7;"#), "let s let u");
    }

    #[test]
    fn char_literals_with_escapes() {
        let c = code(r"let a = '\''; let b = '\\'; let c = '\u{1F600}'; next();");
        assert_eq!(c, "let a let b let c next");
        assert_eq!(
            code(r"let d = b'\n'; let e = '\x7f'; go();"),
            "let d let e go"
        );
        // A char literal holding a quote or brace must not derail state.
        let l = lex("let q = '\"'; let r = '{'; still_code();");
        assert!(l.iter().any(|t| t.is_ident("still_code")));
        assert!(!l.iter().any(|t| t.kind == TokKind::Open && t.is_open('{')));
    }

    #[test]
    fn lifetimes_are_tokens_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'static str { x }");
        let lifetimes: Vec<&str> = l
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        assert!(
            l.iter().any(|t| t.is_ident("x")),
            "code after a lifetime still lexes"
        );
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let ids = idents("let r#type = r#match; use r#fn;");
        assert!(ids.contains(&"r#type".to_string()), "{ids:?}");
        assert!(ids.contains(&"r#match".to_string()));
        // And a raw string right after is still a literal.
        let c = code(r####"let r#type = r#"Instant"#; fine();"####);
        assert_eq!(c, "let r#type fine");
    }

    #[test]
    fn raw_identifier_names_normalize_but_keywords_do_not() {
        let l = lex("r#match r#type plain");
        let names: Vec<&str> = l.iter().map(Tok::name).collect();
        assert_eq!(names, vec!["match", "type", "plain"]);
        // `r#match` is *not* the `match` keyword for structural checks —
        // is_ident compares the raw text, name() strips the prefix.
        let rm = &l[0];
        assert!(!rm.is_ident("match"));
        assert!(rm.is_ident("r#match"));
        assert_eq!(rm.name(), "match");
    }

    #[test]
    fn positions_survive_multiline_literals_and_comments() {
        let l = lex("let a = \"x\ny\"; // c\n/* d\ne */ let b = '\\n';\n");
        let b = l.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!((b.line, b.col), (4, 10));
    }

    #[test]
    fn token_spans_and_positions() {
        let l = lex("fn foo() {\n    bar();\n}");
        let foo = l.iter().find(|t| t.is_ident("foo")).unwrap();
        assert_eq!((foo.line, foo.col), (1, 4));
        let bar = l.iter().find(|t| t.is_ident("bar")).unwrap();
        assert_eq!((bar.line, bar.col), (2, 5));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_fields() {
        let l = lex("for i in 0..n { x.0 += 1.5e-3; }");
        let texts: Vec<&str> = l
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(texts.contains(&"n"));
        assert!(texts.contains(&"x"));
        // `..` survived as two puncts.
        assert!(l.windows(2).any(|w| w[0].is_punct('.') && w[1].is_punct('.')));
    }
}

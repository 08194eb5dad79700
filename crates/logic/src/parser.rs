//! Text syntax for FO and LTL-FO formulas.
//!
//! The grammar (loosest to tightest precedence):
//!
//! ```text
//! sentence := [ 'forall' vars ':' ] formula          (universal closure)
//! formula  := iff
//! iff      := impl ( '<->' impl )*
//! impl     := until ( '->' impl )?                   (right associative)
//! until    := or ( ('U' | 'B') until )?              (right associative)
//! or       := and ( 'or' and )*
//! and      := unary ( 'and' unary )*
//! unary    := ('not' | 'X' | 'F' | 'G') unary | quant | primary
//! quant    := ('forall' | 'exists') vars ':' formula (body must be pure FO)
//! primary  := '(' formula ')' | 'true' | 'false'
//!           | ident '(' terms ')'                    (relational atom)
//!           | term '=' term | term '!=' term
//!           | ident                                  (0-ary atom)
//! term     := ident                                  (variable)
//!           | '"' chars '"'                          (constant)
//! vars     := ident ( ',' ident )*
//! ```
//!
//! Identifiers may contain dots, so peer-qualified names (`O.customer`)
//! are single tokens. The single uppercase letters `X F G U B` are reserved
//! temporal keywords. Constants are always quoted; unquoted identifiers in
//! term position are variables. Inner quantifier bodies must be first-order
//! (Definition 3.1 forbids quantification over temporal subformulas); only
//! the top-level `forall` of a *sentence* may scope over temporal operators.

use crate::fo::Fo;
use crate::ltl::{LtlFo, LtlFoSentence};
use crate::term::Term;
use crate::vars::{VarId, Vars};
use ddws_relational::{RelId, Symbols, Vocabulary};
use std::fmt;

/// Relation-name resolution during parsing.
///
/// The global composition schema qualifies every relation by its peer
/// (`O.customer`), but a *rule* of peer `O` refers to `customer`, `?apply`,
/// `!getRating` by local name. The model layer implements this trait to give
/// the parser a peer-local view; a plain [`Vocabulary`] resolves global
/// names directly.
pub trait RelLookup {
    /// Resolves a relation name to its id.
    fn lookup_rel(&self, name: &str) -> Option<RelId>;

    /// Arity of a resolved relation.
    fn rel_arity(&self, rel: RelId) -> usize;
}

impl RelLookup for Vocabulary {
    fn lookup_rel(&self, name: &str) -> Option<RelId> {
        self.lookup(name)
    }

    fn rel_arity(&self, rel: RelId) -> usize {
        self.arity(rel)
    }
}

/// A parse or resolution error, with byte position in the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Name-resolution context for parsing: the vocabulary of relation symbols,
/// the variable table, and the constant symbol table (both extended by the
/// parser on first use).
pub struct Resolver<'a> {
    /// Relation symbols (read-only: unknown relations are errors).
    pub voc: &'a dyn RelLookup,
    /// Variable interner (extended on demand).
    pub vars: &'a mut Vars,
    /// Constant interner (extended on demand).
    pub symbols: &'a mut Symbols,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Str(String),
    LParen,
    RParen,
    Comma,
    Colon,
    Eq,
    Neq,
    Arrow,
    DArrow,
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'#' {
                // comment to end of line
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    /// Lexes an identifier whose first byte (possibly `?` or `!`) is already
    /// accepted at `start`; dots, primes, `?` and `!` may appear inside, so
    /// peer-qualified queue names like `O.?apply` are single tokens.
    fn lex_ident(&mut self, start: usize) -> Result<Tok, ParseError> {
        self.pos += 1;
        while self.pos < self.bytes.len() {
            let c = self.bytes[self.pos];
            if c.is_ascii_alphanumeric()
                || c == b'_'
                || c == b'.'
                || c == b'\''
                || c == b'?'
                || c == b'!'
            {
                // `!=` must terminate an identifier: `x!=y` lexes as x, !=, y.
                if (c == b'!' || c == b'?') && self.bytes.get(self.pos + 1) == Some(&b'=') {
                    break;
                }
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(Tok::Ident(self.src[start..self.pos].to_owned()))
    }

    fn next_tok(&mut self) -> Result<(Tok, usize), ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.pos >= self.bytes.len() {
            return Ok((Tok::Eof, start));
        }
        let b = self.bytes[self.pos];
        let tok = match b {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b':' => {
                self.pos += 1;
                Tok::Colon
            }
            b'=' => {
                self.pos += 1;
                Tok::Eq
            }
            b'!' => {
                if self.bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Neq
                } else {
                    // `!q` is an out-queue atom name (paper notation).
                    self.lex_ident(start)?
                }
            }
            b'-' => {
                if self.bytes.get(self.pos + 1) == Some(&b'>') {
                    self.pos += 2;
                    Tok::Arrow
                } else {
                    return Err(ParseError {
                        message: "expected `->`".into(),
                        position: start,
                    });
                }
            }
            b'<' => {
                if self.src[self.pos..].starts_with("<->") {
                    self.pos += 3;
                    Tok::DArrow
                } else {
                    return Err(ParseError {
                        message: "expected `<->`".into(),
                        position: start,
                    });
                }
            }
            b'"' => {
                self.pos += 1;
                let lit_start = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'"' {
                    self.pos += 1;
                }
                if self.pos >= self.bytes.len() {
                    return Err(ParseError {
                        message: "unterminated string constant".into(),
                        position: start,
                    });
                }
                let s = self.src[lit_start..self.pos].to_owned();
                self.pos += 1;
                Tok::Str(s)
            }
            // `?q` is an in-queue atom name (paper notation).
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'?' => self.lex_ident(start)?,
            other => {
                return Err(ParseError {
                    message: format!("unexpected character `{}`", other as char),
                    position: start,
                })
            }
        };
        Ok((tok, start))
    }
}

/// Deepest nesting a formula may have. Each parenthesis, prefix operator
/// (`not`, `X`, `F`, `G`, an inner quantifier) and right-associative `->`,
/// `U` or `B` link opens one level. Properties arrive over the wire, so the
/// cap bounds the recursive-descent parser's stack, and with it that of
/// every recursive pass over the syntax tree (its drop included); 128
/// matches the JSON decoder's nesting cap.
pub const MAX_DEPTH: usize = 128;

/// Most syntax-tree nodes a formula may have. `a <-> b` expands to
/// `(a -> b) and (b -> a)`, copying both sides, so a chain of n `<->`
/// links has 2^n nodes; the cap refuses such a chain at about 16 links,
/// long before it exhausts memory.
pub const MAX_NODES: usize = 1 << 16;

struct Parser<'a, 'r> {
    toks: Vec<(Tok, usize)>,
    idx: usize,
    /// Nesting levels currently open, at most [`MAX_DEPTH`].
    depth: usize,
    resolver: &'a mut Resolver<'r>,
}

impl<'a, 'r> Parser<'a, 'r> {
    fn new(src: &str, resolver: &'a mut Resolver<'r>) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let (t, p) = lexer.next_tok()?;
            let eof = t == Tok::Eof;
            toks.push((t, p));
            if eof {
                break;
            }
        }
        Ok(Parser {
            toks,
            idx: 0,
            depth: 0,
            resolver,
        })
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("formula nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Refuses a formula of more than [`MAX_NODES`] syntax-tree nodes.
    fn check_size(&self, f: &LtlFo) -> Result<(), ParseError> {
        if ltl_nodes(f) > MAX_NODES {
            return Err(self.err(format!("formula has more than {MAX_NODES} nodes")));
        }
        Ok(())
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.idx].0
    }

    fn pos(&self) -> usize {
        self.toks[self.idx].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.idx].0.clone();
        if self.idx < self.toks.len() - 1 {
            self.idx += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            position: self.pos(),
        }
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn parse_var_list(&mut self) -> Result<Vec<VarId>, ParseError> {
        let mut vars = Vec::new();
        loop {
            match self.bump() {
                Tok::Ident(name) => {
                    if is_keyword(&name) {
                        return Err(self.err(format!("`{name}` cannot be a variable name")));
                    }
                    vars.push(self.resolver.vars.intern(&name));
                }
                _ => return Err(self.err("expected variable name".into())),
            }
            if self.peek() == &Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(vars)
    }

    // Precedence climbing, loosest first.

    fn parse_iff(&mut self) -> Result<LtlFo, ParseError> {
        let mut lhs = self.parse_impl()?;
        while self.peek() == &Tok::DArrow {
            self.bump();
            let rhs = self.parse_impl()?;
            lhs = LtlFo::and(vec![
                LtlFo::Implies(Box::new(lhs.clone()), Box::new(rhs.clone())),
                LtlFo::Implies(Box::new(rhs), Box::new(lhs)),
            ]);
            self.check_size(&lhs)?;
        }
        Ok(lhs)
    }

    fn parse_impl(&mut self) -> Result<LtlFo, ParseError> {
        let lhs = self.parse_until()?;
        if self.peek() == &Tok::Arrow {
            self.bump();
            let rhs = self.nested(Self::parse_impl)?;
            Ok(LtlFo::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_until(&mut self) -> Result<LtlFo, ParseError> {
        let lhs = self.parse_or()?;
        match self.peek_ident() {
            Some("U") => {
                self.bump();
                let rhs = self.nested(Self::parse_until)?;
                Ok(LtlFo::until(lhs, rhs))
            }
            Some("B") => {
                self.bump();
                let rhs = self.nested(Self::parse_until)?;
                Ok(LtlFo::before(lhs, rhs))
            }
            _ => Ok(lhs),
        }
    }

    fn parse_or(&mut self) -> Result<LtlFo, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.peek_ident() == Some("or") {
            self.bump();
            parts.push(self.parse_and()?);
        }
        Ok(LtlFo::or(parts))
    }

    fn parse_and(&mut self) -> Result<LtlFo, ParseError> {
        let mut parts = vec![self.parse_unary()?];
        while self.peek_ident() == Some("and") {
            self.bump();
            parts.push(self.parse_unary()?);
        }
        Ok(LtlFo::and(parts))
    }

    fn parse_unary(&mut self) -> Result<LtlFo, ParseError> {
        match self.peek_ident() {
            Some("not") => {
                self.bump();
                Ok(LtlFo::not(self.nested(Self::parse_unary)?))
            }
            Some("X") => {
                self.bump();
                Ok(LtlFo::next(self.nested(Self::parse_unary)?))
            }
            Some("F") => {
                self.bump();
                Ok(LtlFo::finally(self.nested(Self::parse_unary)?))
            }
            Some("G") => {
                self.bump();
                Ok(LtlFo::globally(self.nested(Self::parse_unary)?))
            }
            Some(kw @ ("forall" | "exists")) => {
                let existential = kw == "exists";
                let qpos = self.pos();
                self.bump();
                let vars = self.parse_var_list()?;
                self.expect(&Tok::Colon, "`:` after quantified variables")?;
                let body = self.nested(Self::parse_iff)?;
                let Some(body_fo) = body.to_fo() else {
                    return Err(ParseError {
                        message: "quantifier scopes over a temporal operator; only the \
                                  top-level universal closure of a sentence may do that \
                                  (Definition 3.1)"
                            .into(),
                        position: qpos,
                    });
                };
                Ok(LtlFo::Fo(if existential {
                    Fo::exists(vars, body_fo)
                } else {
                    Fo::forall(vars, body_fo)
                }))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<LtlFo, ParseError> {
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let f = self.nested(Self::parse_iff)?;
                self.expect(&Tok::RParen, "`)`")?;
                // Allow `(t) = u`? No: equality operands are bare terms only.
                Ok(f)
            }
            Tok::Ident(name) if name == "true" => {
                self.bump();
                Ok(LtlFo::tt())
            }
            Tok::Ident(name) if name == "false" => {
                self.bump();
                Ok(LtlFo::ff())
            }
            Tok::Ident(name) => {
                let ident_pos = self.pos();
                self.bump();
                if is_keyword(&name) {
                    return Err(ParseError {
                        message: format!("unexpected keyword `{name}`"),
                        position: ident_pos,
                    });
                }
                match self.peek() {
                    Tok::LParen => {
                        // Relational atom.
                        self.bump();
                        let mut args = Vec::new();
                        if self.peek() != &Tok::RParen {
                            loop {
                                args.push(self.parse_term()?);
                                if self.peek() == &Tok::Comma {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(&Tok::RParen, "`)` after atom arguments")?;
                        let rel = self.resolver.voc.lookup_rel(&name).ok_or(ParseError {
                            message: format!("unknown relation `{name}`"),
                            position: ident_pos,
                        })?;
                        let arity = self.resolver.voc.rel_arity(rel);
                        if args.len() != arity {
                            return Err(ParseError {
                                message: format!(
                                    "relation `{name}` has arity {arity}, got {} arguments",
                                    args.len()
                                ),
                                position: ident_pos,
                            });
                        }
                        Ok(LtlFo::Fo(Fo::Atom(rel, args)))
                    }
                    Tok::Eq | Tok::Neq => {
                        let negated = self.peek() == &Tok::Neq;
                        self.bump();
                        let lhs = Term::Var(self.resolver.vars.intern(&name));
                        let rhs = self.parse_term()?;
                        let eq = Fo::Eq(lhs, rhs);
                        Ok(LtlFo::Fo(if negated { Fo::not(eq) } else { eq }))
                    }
                    _ => {
                        // 0-ary relational atom (proposition).
                        let rel = self.resolver.voc.lookup_rel(&name).ok_or(ParseError {
                            message: format!(
                                "`{name}` is neither a known proposition nor followed by \
                                 `(`, `=` or `!=`"
                            ),
                            position: ident_pos,
                        })?;
                        if self.resolver.voc.rel_arity(rel) != 0 {
                            return Err(ParseError {
                                message: format!(
                                    "relation `{name}` has arity {} but is used as a \
                                     proposition",
                                    self.resolver.voc.rel_arity(rel)
                                ),
                                position: ident_pos,
                            });
                        }
                        Ok(LtlFo::Fo(Fo::Atom(rel, vec![])))
                    }
                }
            }
            Tok::Str(s) => {
                // A constant can only start an equality.
                self.bump();
                let lhs = Term::Const(self.resolver.symbols.intern(&s));
                let negated = match self.peek() {
                    Tok::Eq => false,
                    Tok::Neq => true,
                    _ => return Err(self.err("constant must be compared with `=` or `!=`".into())),
                };
                self.bump();
                let rhs = self.parse_term()?;
                let eq = Fo::Eq(lhs, rhs);
                Ok(LtlFo::Fo(if negated { Fo::not(eq) } else { eq }))
            }
            _ => Err(self.err("expected a formula".into())),
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Tok::Ident(name) => {
                if is_keyword(&name) {
                    Err(self.err(format!("`{name}` cannot be a term")))
                } else if name.contains('?') || name.contains('!') {
                    // `?q`/`!q` are queue-atom names; as a *term* this is
                    // almost certainly a typo, not a variable.
                    Err(self.err(format!(
                        "`{name}` names a queue atom and cannot be used as a variable"
                    )))
                } else {
                    Ok(Term::Var(self.resolver.vars.intern(&name)))
                }
            }
            Tok::Str(s) => Ok(Term::Const(self.resolver.symbols.intern(&s))),
            _ => Err(self.err("expected a term (variable or \"constant\")".into())),
        }
    }

    fn finish(&self) -> Result<(), ParseError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.err("trailing input after formula".into()))
        }
    }
}

/// Syntax-tree nodes of `f`, its first-order leaves included.
fn ltl_nodes(f: &LtlFo) -> usize {
    match f {
        LtlFo::Fo(fo) => fo_nodes(fo),
        LtlFo::Not(g) | LtlFo::X(g) => 1 + ltl_nodes(g),
        LtlFo::And(gs) | LtlFo::Or(gs) => 1 + gs.iter().map(ltl_nodes).sum::<usize>(),
        LtlFo::Implies(a, b) | LtlFo::U(a, b) => 1 + ltl_nodes(a) + ltl_nodes(b),
    }
}

fn fo_nodes(f: &Fo) -> usize {
    match f {
        Fo::True | Fo::False | Fo::Atom(..) | Fo::Eq(..) => 1,
        Fo::Not(g) | Fo::Exists(_, g) | Fo::Forall(_, g) => 1 + fo_nodes(g),
        Fo::And(gs) | Fo::Or(gs) => 1 + gs.iter().map(fo_nodes).sum::<usize>(),
        Fo::Implies(a, b) => 1 + fo_nodes(a) + fo_nodes(b),
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "forall" | "exists" | "not" | "and" | "or" | "true" | "false" | "X" | "F" | "G" | "U" | "B"
    )
}

/// Parses an LTL-FO formula (no top-level closure).
pub fn parse_ltlfo(src: &str, resolver: &mut Resolver<'_>) -> Result<LtlFo, ParseError> {
    let mut p = Parser::new(src, resolver)?;
    let f = p.parse_iff()?;
    p.finish()?;
    p.check_size(&f)?;
    Ok(f)
}

/// Parses a pure FO formula; temporal operators are rejected.
pub fn parse_fo(src: &str, resolver: &mut Resolver<'_>) -> Result<Fo, ParseError> {
    let f = parse_ltlfo(src, resolver)?;
    f.to_fo().ok_or(ParseError {
        message: "temporal operator in a first-order context".into(),
        position: 0,
    })
}

/// Parses an LTL-FO **sentence**: an optional top-level `forall x̄:` may
/// scope over temporal operators (the universal closure of Definition 3.1);
/// any remaining free variables are closed automatically.
pub fn parse_sentence(src: &str, resolver: &mut Resolver<'_>) -> Result<LtlFoSentence, ParseError> {
    let mut p = Parser::new(src, resolver)?;
    let mut closure_vars = Vec::new();
    // Lookahead: `forall v1, ..., vn :` at the very start is the closure.
    if p.peek_ident() == Some("forall") {
        // Tentatively parse; if the body is pure FO this would also be a
        // valid inner quantifier, but treating it as the closure is
        // semantically identical (∀x̄ φ ≡ closure over x̄ of φ for pure FO).
        p.bump();
        closure_vars = p.parse_var_list()?;
        p.expect(&Tok::Colon, "`:` after the universal closure")?;
    }
    let body = p.parse_iff()?;
    p.finish()?;
    p.check_size(&body)?;
    let mut vars = closure_vars;
    for v in body.free_vars() {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    Ok(LtlFoSentence {
        universal_vars: vars,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddws_relational::Vocabulary;

    fn fixtures() -> (Vocabulary, Vars, Symbols) {
        let mut voc = Vocabulary::new();
        voc.declare("O.customer", 3).unwrap();
        voc.declare("O.apply", 2).unwrap();
        voc.declare("O.letter", 4).unwrap();
        voc.declare("flag", 0).unwrap();
        (voc, Vars::new(), Symbols::new())
    }

    fn parse_ok(src: &str) -> LtlFo {
        let (voc, mut vars, mut symbols) = fixtures();
        let mut r = Resolver {
            voc: &voc,
            vars: &mut vars,
            symbols: &mut symbols,
        };
        parse_ltlfo(src, &mut r).unwrap()
    }

    fn parse_err(src: &str) -> ParseError {
        let (voc, mut vars, mut symbols) = fixtures();
        let mut r = Resolver {
            voc: &voc,
            vars: &mut vars,
            symbols: &mut symbols,
        };
        parse_ltlfo(src, &mut r).unwrap_err()
    }

    #[test]
    fn atoms_and_equality() {
        match parse_ok("O.apply(id, l)") {
            LtlFo::Fo(Fo::Atom(_, args)) => assert_eq!(args.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok("x = \"excellent\"") {
            LtlFo::Fo(Fo::Eq(Term::Var(_), Term::Const(_))) => {}
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok("x != y") {
            LtlFo::Fo(Fo::Not(inner)) => assert!(matches!(*inner, Fo::Eq(..))),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse_ok("flag"), LtlFo::Fo(Fo::Atom(_, args)) if args.is_empty()));
    }

    #[test]
    fn precedence_and_over_or_over_impl() {
        // a or b and c -> d   ≡   (a or (b and c)) -> d
        let f = parse_ok("flag or flag and flag -> flag");
        match f {
            LtlFo::Implies(lhs, _) => match *lhs {
                LtlFo::Or(parts) => {
                    assert_eq!(parts.len(), 2);
                    assert!(matches!(parts[1], LtlFo::And(_)));
                }
                other => panic!("unexpected lhs {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn temporal_operators() {
        assert!(matches!(parse_ok("X flag"), LtlFo::X(_)));
        assert!(matches!(parse_ok("flag U flag"), LtlFo::U(..)));
        // F/G/B expand to U
        assert!(matches!(parse_ok("F flag"), LtlFo::U(..)));
        assert!(matches!(parse_ok("G flag"), LtlFo::Not(_)));
        assert!(matches!(parse_ok("flag B flag"), LtlFo::Not(_)));
        // U binds looser than `and`
        match parse_ok("flag and flag U flag") {
            LtlFo::U(lhs, _) => assert!(matches!(*lhs, LtlFo::And(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantifiers_must_be_first_order() {
        let f = parse_ok("exists id, l: O.apply(id, l)");
        assert!(matches!(f, LtlFo::Fo(Fo::Exists(_, _))));
        let e = parse_err("exists id: F O.apply(id, id)");
        assert!(e.message.contains("temporal"), "{e}");
    }

    #[test]
    fn sentence_closure() {
        let (voc, mut vars, mut symbols) = fixtures();
        let mut r = Resolver {
            voc: &voc,
            vars: &mut vars,
            symbols: &mut symbols,
        };
        let s = parse_sentence(
            "forall id, l: G (O.apply(id, l) -> F O.apply(id, l))",
            &mut r,
        )
        .unwrap();
        assert_eq!(s.universal_vars.len(), 2);
        assert!(!s.is_strict());
        // Free variables not in the explicit closure are auto-closed.
        let s2 = parse_sentence("G (O.apply(id, l) -> F O.apply(id, l))", &mut r).unwrap();
        assert_eq!(s2.universal_vars.len(), 2);
    }

    #[test]
    fn arity_and_resolution_errors() {
        assert!(parse_err("O.apply(x)").message.contains("arity"));
        assert!(parse_err("unknownRel(x)")
            .message
            .contains("unknown relation"));
        assert!(parse_err("O.apply").message.contains("arity"));
        assert!(parse_err("mystery").message.contains("neither"));
    }

    #[test]
    fn nesting_and_size_caps_are_parse_errors() {
        let parens = |n: usize| format!("{}flag{}", "(".repeat(n), ")".repeat(n));
        parse_ok(&parens(MAX_DEPTH));
        assert!(parse_err(&parens(MAX_DEPTH + 1))
            .message
            .contains("nests deeper"));
        let nots = |n: usize| format!("{}flag", "not ".repeat(n));
        parse_ok(&nots(MAX_DEPTH));
        assert!(parse_err(&nots(MAX_DEPTH + 1))
            .message
            .contains("nests deeper"));
        let iff = |n: usize| vec!["flag"; n + 1].join(" <-> ");
        parse_ok(&iff(8));
        assert!(parse_err(&iff(40)).message.contains("nodes"));
    }

    #[test]
    fn comments_and_whitespace() {
        let f = parse_ok("# leading comment\n  flag # trailing\n and flag");
        assert!(matches!(f, LtlFo::And(_)));
    }

    #[test]
    fn paper_property_11_parses() {
        // Property (11) of Example 3.2, transcribed.
        let mut voc = Vocabulary::new();
        voc.declare("O.apply", 2).unwrap();
        voc.declare("O.customer", 3).unwrap();
        voc.declare("O.letter", 4).unwrap();
        let mut vars = Vars::new();
        let mut symbols = Symbols::new();
        let mut r = Resolver {
            voc: &voc,
            vars: &mut vars,
            symbols: &mut symbols,
        };
        let s = parse_sentence(
            "forall id, l, name, ssn: \
             G ((O.apply(id, l) and O.customer(id, ssn, name)) -> \
                F (O.letter(id, name, l, \"denied\") or O.letter(id, name, l, \"approved\")))",
            &mut r,
        )
        .unwrap();
        assert_eq!(s.universal_vars.len(), 4);
    }
}

//! MiniC recursive-descent parser.

use crate::ast::*;
use crate::lexer::{Token, TokenKind};
use crate::Diag;

/// Deepest nesting the front end accepts. Each `(`…`)` group, unary
/// or binary operator, call, cast or index, and each `if`/`else`/
/// `while`/`for` body opens one level; a left-associative chain
/// `a + b + …` is as deep as it has operators. Sema, codegen and
/// `Drop` recurse over the tree, so a source past the limit is
/// rejected while it is parsed, before the deep tree (or the
/// recursion building it) exists. Sema applies the same limit to
/// call chains, and codegen to nesting counted through inlined
/// bodies.
pub const MAX_NESTING: u32 = 256;

/// The diagnostic for nesting past [`MAX_NESTING`] at `line`; counts
/// `frontend.limit.nesting_depth`.
pub(crate) fn nesting_error(line: u32) -> Diag {
    casted_obs::inc("frontend.limit.nesting_depth");
    Diag::new(line, format!("nesting depth exceeds limit {MAX_NESTING}"))
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Nesting levels open above the current position.
    depth: u32,
}

type PResult<T> = Result<T, Diag>;

/// An expression tree and its height: the nesting levels it spans
/// below the position it was parsed at.
type Tree = (Expr, u32);

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Token {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek().kind == kind
    }

    fn bump(&mut self) -> &Token {
        let t = &self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind.clone()) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> PResult<Token> {
        if self.at(kind.clone()) {
            Ok(self.bump().clone())
        } else {
            Err(Diag::new(
                self.line(),
                format!("expected {what}, found {:?}", self.peek().kind),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> PResult<String> {
        let t = self.expect(TokenKind::Ident, what)?;
        Ok(t.text)
    }

    /// Fail once `depth` levels exceed [`MAX_NESTING`].
    fn check_nesting(&self, depth: u32) -> PResult<()> {
        if depth <= MAX_NESTING {
            Ok(())
        } else {
            Err(nesting_error(self.line()))
        }
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.check_nesting(self.depth + 1)?;
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// `e )` one level deeper: the body of a group, cast or index.
    fn closed(&mut self, close: TokenKind, what: &str) -> PResult<Tree> {
        self.nested(|p| {
            let (e, h) = p.bin_expr(0)?;
            p.expect(close, what)?;
            Ok((e, h + 1))
        })
    }

    fn scalar_ty(&mut self) -> PResult<Ty> {
        if self.eat(TokenKind::KwInt) {
            Ok(Ty::Int)
        } else if self.eat(TokenKind::KwFloat) {
            Ok(Ty::Float)
        } else {
            Err(Diag::new(self.line(), "expected type `int` or `float`"))
        }
    }

    // ---------------- expressions ----------------

    /// A primary expression. The arms that recurse are their own
    /// functions, so each nesting level pays only its own frame.
    fn primary(&mut self) -> PResult<Tree> {
        let line = self.line();
        let kind = match self.peek().kind {
            TokenKind::LParen => {
                self.bump();
                return self.closed(TokenKind::RParen, "`)`");
            }
            TokenKind::KwInt | TokenKind::KwFloat => return self.cast(),
            TokenKind::Ident => return self.name_expr(),
            TokenKind::Int => ExprKind::IntLit(self.bump().int_val),
            TokenKind::Float => ExprKind::FloatLit(self.bump().float_val),
            ref other => {
                return Err(Diag::new(
                    line,
                    format!("expected expression, found {other:?}"),
                ))
            }
        };
        Ok((Expr { kind, line }, 0))
    }

    /// `int(e)` / `float(e)` casts.
    fn cast(&mut self) -> PResult<Tree> {
        let line = self.line();
        let to_int = self.bump().kind == TokenKind::KwInt;
        let what = if to_int {
            "`(` after `int`"
        } else {
            "`(` after `float`"
        };
        self.expect(TokenKind::LParen, what)?;
        let (e, h) = self.closed(TokenKind::RParen, "`)`")?;
        let kind = if to_int {
            ExprKind::CastInt(Box::new(e))
        } else {
            ExprKind::CastFloat(Box::new(e))
        };
        Ok((Expr { kind, line }, h))
    }

    /// A name, a call `f(args)` or an index `a[e]`.
    fn name_expr(&mut self) -> PResult<Tree> {
        let line = self.line();
        let name = self.bump().text.clone();
        let (kind, height) = if self.eat(TokenKind::LParen) {
            let (args, h) = self.nested(|p| {
                let (mut args, mut h) = (Vec::new(), 0);
                if !p.at(TokenKind::RParen) {
                    loop {
                        let (a, ah) = p.bin_expr(0)?;
                        args.push(a);
                        h = h.max(ah);
                        if !p.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                }
                p.expect(TokenKind::RParen, "`)` after arguments")?;
                Ok((args, h))
            })?;
            (ExprKind::Call(name, args), h + 1)
        } else if self.eat(TokenKind::LBracket) {
            let (idx, h) = self.closed(TokenKind::RBracket, "`]`")?;
            (ExprKind::Index(name, Box::new(idx)), h)
        } else {
            (ExprKind::Name(name), 0)
        };
        Ok((Expr { kind, line }, height))
    }

    fn unary(&mut self) -> PResult<Tree> {
        let line = self.line();
        let op = if self.eat(TokenKind::Minus) {
            UnOp::Neg
        } else if self.eat(TokenKind::Not) {
            UnOp::Not
        } else {
            return self.primary();
        };
        let (e, h) = self.nested(|p| p.unary())?;
        let kind = ExprKind::Un(op, Box::new(e));
        Ok((Expr { kind, line }, h + 1))
    }

    /// Binding power of a binary operator token (higher binds tighter),
    /// Rust-style: `||` < `&&` < comparisons < `|` < `^` < `&` <
    /// shifts < add < mul.
    fn binop_of(kind: &TokenKind) -> Option<(BinOp, u8)> {
        Some(match kind {
            TokenKind::OrOr => (BinOp::LOr, 1),
            TokenKind::AndAnd => (BinOp::LAnd, 2),
            TokenKind::EqEq => (BinOp::Eq, 3),
            TokenKind::NotEq => (BinOp::Ne, 3),
            TokenKind::Lt => (BinOp::Lt, 3),
            TokenKind::Le => (BinOp::Le, 3),
            TokenKind::Gt => (BinOp::Gt, 3),
            TokenKind::Ge => (BinOp::Ge, 3),
            TokenKind::Pipe => (BinOp::Or, 4),
            TokenKind::Caret => (BinOp::Xor, 5),
            TokenKind::Amp => (BinOp::And, 6),
            TokenKind::Shl => (BinOp::Shl, 7),
            TokenKind::Shr => (BinOp::Shr, 7),
            TokenKind::Plus => (BinOp::Add, 8),
            TokenKind::Minus => (BinOp::Sub, 8),
            TokenKind::Star => (BinOp::Mul, 9),
            TokenKind::Slash => (BinOp::Div, 9),
            TokenKind::Percent => (BinOp::Rem, 9),
            _ => return None,
        })
    }

    fn bin_expr(&mut self, min_bp: u8) -> PResult<Tree> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((op, bp)) = Self::binop_of(&self.peek().kind) {
            if bp < min_bp {
                break;
            }
            let line = self.line();
            self.bump();
            let (rhs, rh) = self.nested(|p| p.bin_expr(bp + 1))?;
            // The chain so far sinks one level under each operator.
            height = height.max(rh) + 1;
            self.check_nesting(self.depth + height)?;
            lhs = Expr {
                kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        Ok((lhs, height))
    }

    fn expr(&mut self) -> PResult<Expr> {
        Ok(self.bin_expr(0)?.0)
    }

    // ---------------- statements ----------------

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.at(TokenKind::Eof) {
                return Err(Diag::new(self.line(), "unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(stmts)
    }

    /// One statement. Only the nesting statements recurse back here,
    /// so the others live in [`Self::simple_stmt`], whose frame then
    /// stays off the recursion.
    fn stmt(&mut self) -> PResult<Stmt> {
        match self.peek().kind {
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile | TokenKind::KwFor => self.loop_stmt(),
            _ => self.simple_stmt(),
        }
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        self.expect(TokenKind::KwIf, "`if`")?;
        let cond = self.expr()?;
        let then_body = self.nested(|p| p.block())?;
        let else_body = if !self.eat(TokenKind::KwElse) {
            Vec::new()
        } else if self.at(TokenKind::KwIf) {
            self.nested(|p| Ok(vec![p.if_stmt()?]))?
        } else {
            self.nested(|p| p.block())?
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn loop_stmt(&mut self) -> PResult<Stmt> {
        match self.peek().kind {
            TokenKind::KwWhile => {
                self.bump();
                let cond = self.expr()?;
                let body = self.nested(|p| p.block())?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::KwFor => {
                self.bump();
                let name = self.ident("loop variable")?;
                self.expect(TokenKind::KwIn, "`in`")?;
                let lo = self.expr()?;
                self.expect(TokenKind::DotDot, "`..`")?;
                let hi = self.expr()?;
                let body = self.nested(|p| p.block())?;
                Ok(Stmt::For { name, lo, hi, body })
            }
            _ => unreachable!("stmt dispatches only while/for here"),
        }
    }

    fn simple_stmt(&mut self) -> PResult<Stmt> {
        let line = self.line();
        match self.peek().kind.clone() {
            TokenKind::KwVar => {
                self.bump();
                let name = self.ident("variable name")?;
                self.expect(TokenKind::Colon, "`:`")?;
                if self.eat(TokenKind::LBracket) {
                    let ty = self.scalar_ty()?;
                    self.expect(TokenKind::Semi, "`;` in array type")?;
                    let len = self.expr()?;
                    self.expect(TokenKind::RBracket, "`]`")?;
                    self.expect(TokenKind::Semi, "`;` after declaration")?;
                    Ok(Stmt::VarArray { name, ty, len, line })
                } else {
                    let ty = self.scalar_ty()?;
                    self.expect(TokenKind::Assign, "`=` (locals must be initialized)")?;
                    let init = self.expr()?;
                    self.expect(TokenKind::Semi, "`;`")?;
                    Ok(Stmt::Var { name, ty, init, line })
                }
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(Stmt::Break(line))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(Stmt::Continue(line))
            }
            TokenKind::KwReturn => {
                self.bump();
                if self.eat(TokenKind::Semi) {
                    Ok(Stmt::Return(None, line))
                } else {
                    let e = self.expr()?;
                    self.expect(TokenKind::Semi, "`;`")?;
                    Ok(Stmt::Return(Some(e), line))
                }
            }
            TokenKind::Ident => {
                let name = self.peek().text.clone();
                // out()/fout() builtins.
                if (name == "out" || name == "fout") && self.peek2().kind == TokenKind::LParen {
                    self.bump();
                    self.bump();
                    let e = self.expr()?;
                    self.expect(TokenKind::RParen, "`)`")?;
                    self.expect(TokenKind::Semi, "`;`")?;
                    return Ok(if name == "out" {
                        Stmt::Out(e)
                    } else {
                        Stmt::FOut(e)
                    });
                }
                match self.peek2().kind {
                    TokenKind::Assign => {
                        self.bump();
                        self.bump();
                        let value = self.expr()?;
                        self.expect(TokenKind::Semi, "`;`")?;
                        Ok(Stmt::Assign { name, value, line })
                    }
                    TokenKind::LBracket => {
                        // Could be `a[i] = e;` or an expression statement
                        // starting with an index — only assignment is
                        // useful, so commit to assignment.
                        self.bump();
                        self.bump();
                        let index = self.expr()?;
                        self.expect(TokenKind::RBracket, "`]`")?;
                        self.expect(TokenKind::Assign, "`=`")?;
                        let value = self.expr()?;
                        self.expect(TokenKind::Semi, "`;`")?;
                        Ok(Stmt::AssignIndex {
                            name,
                            index,
                            value,
                            line,
                        })
                    }
                    _ => {
                        let e = self.expr()?;
                        self.expect(TokenKind::Semi, "`;`")?;
                        Ok(Stmt::ExprStmt(e))
                    }
                }
            }
            other => Err(Diag::new(line, format!("expected statement, found {other:?}"))),
        }
    }

    // ---------------- top level ----------------

    fn global_def(&mut self) -> PResult<GlobalDef> {
        let line = self.line();
        self.expect(TokenKind::KwGlobal, "`global`")?;
        let name = self.ident("global name")?;
        self.expect(TokenKind::Colon, "`:`")?;
        let (ty, len, is_array) = if self.eat(TokenKind::LBracket) {
            let ty = self.scalar_ty()?;
            self.expect(TokenKind::Semi, "`;` in array type")?;
            let len = self.expr()?;
            self.expect(TokenKind::RBracket, "`]`")?;
            (ty, len, true)
        } else {
            let ty = self.scalar_ty()?;
            (
                ty,
                Expr {
                    kind: ExprKind::IntLit(1),
                    line,
                },
                false,
            )
        };
        let mut init = Vec::new();
        if self.eat(TokenKind::Assign) {
            if is_array {
                self.expect(TokenKind::LBracket, "`[` starting initializer")?;
                if !self.at(TokenKind::RBracket) {
                    loop {
                        init.push(self.expr()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBracket, "`]` ending initializer")?;
            } else {
                init.push(self.expr()?);
            }
        }
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(GlobalDef {
            name,
            ty,
            len,
            is_array,
            init,
            line,
        })
    }

    fn const_def(&mut self) -> PResult<ConstDef> {
        let line = self.line();
        self.expect(TokenKind::KwConst, "`const`")?;
        let name = self.ident("const name")?;
        self.expect(TokenKind::Colon, "`:`")?;
        let ty = self.scalar_ty()?;
        self.expect(TokenKind::Assign, "`=`")?;
        let value = self.expr()?;
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(ConstDef {
            name,
            ty,
            value,
            line,
        })
    }

    fn fn_def(&mut self, is_lib: bool) -> PResult<FnDef> {
        let line = self.line();
        self.expect(TokenKind::KwFn, "`fn`")?;
        let name = self.ident("function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                let pname = self.ident("parameter name")?;
                self.expect(TokenKind::Colon, "`:`")?;
                let ty = self.scalar_ty()?;
                params.push(Param { name: pname, ty });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        let ret = if self.eat(TokenKind::Arrow) {
            Some(self.scalar_ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FnDef {
            name,
            params,
            ret,
            body,
            is_lib,
            line,
        })
    }

    fn program(&mut self) -> Result<Program, Vec<Diag>> {
        let mut prog = Program::default();
        let mut errs = Vec::new();
        loop {
            match self.peek().kind.clone() {
                TokenKind::Eof => break,
                TokenKind::KwGlobal => match self.global_def() {
                    Ok(g) => prog.globals.push(g),
                    Err(e) => {
                        errs.push(e);
                        self.recover();
                    }
                },
                TokenKind::KwConst => match self.const_def() {
                    Ok(c) => prog.consts.push(c),
                    Err(e) => {
                        errs.push(e);
                        self.recover();
                    }
                },
                TokenKind::KwLib => {
                    self.bump();
                    match self.fn_def(true) {
                        Ok(f) => prog.functions.push(f),
                        Err(e) => {
                            errs.push(e);
                            self.recover();
                        }
                    }
                }
                TokenKind::KwFn => match self.fn_def(false) {
                    Ok(f) => prog.functions.push(f),
                    Err(e) => {
                        errs.push(e);
                        self.recover();
                    }
                },
                other => {
                    errs.push(Diag::new(
                        self.line(),
                        format!("expected top-level item, found {other:?}"),
                    ));
                    self.recover();
                }
            }
        }
        if errs.is_empty() {
            Ok(prog)
        } else {
            Err(errs)
        }
    }

    /// Error recovery: skip to the next plausible top-level start.
    fn recover(&mut self) {
        loop {
            match self.peek().kind {
                TokenKind::Eof
                | TokenKind::KwGlobal
                | TokenKind::KwConst
                | TokenKind::KwFn
                | TokenKind::KwLib => break,
                _ => {
                    self.bump();
                }
            }
        }
    }
}

/// Parse a token stream into a [`Program`].
pub fn parse(tokens: &[Token]) -> Result<Program, Vec<Diag>> {
    Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_functions_and_globals() {
        let p = parse_src(
            "global g: [int; 8];\nconst N: int = 3;\nfn main() -> int { return 0; }\nlib fn l(x: int) -> int { return x; }",
        );
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.functions.len(), 2);
        assert!(p.function("l").unwrap().is_lib);
        assert!(!p.function("main").unwrap().is_lib);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("fn main() -> int { return 1 + 2 * 3; }");
        let body = &p.functions[0].body;
        match &body[0] {
            Stmt::Return(Some(e), _) => match &e.kind {
                ExprKind::Bin(BinOp::Add, _, rhs) => {
                    assert!(matches!(rhs.kind, ExprKind::Bin(BinOp::Mul, _, _)));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            _ => panic!("expected return"),
        }
    }

    #[test]
    fn comparison_below_bitwise() {
        // `a & 1 == 0` parses as `a & (1 == 0)`? No — Rust-style:
        // comparisons bind *looser* than `&`, so it is `(a & 1) == 0`...
        // our table gives cmp bp 3 < `&` bp 6, so `&` binds tighter.
        let p = parse_src("fn main() -> int { if a & 1 == 0 { return 1; } return 0; }");
        match &p.functions[0].body[0] {
            Stmt::If { cond, .. } => {
                assert!(matches!(cond.kind, ExprKind::Bin(BinOp::Eq, _, _)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse_src(
            "fn main() { var x: int = 0; while x < 10 { x = x + 1; if x == 5 { break; } else { continue; } } for i in 0..4 { out(i); } }",
        );
        assert_eq!(p.functions[0].body.len(), 3);
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_src(
            "fn main() { if a == 1 { out(1); } else if a == 2 { out(2); } else { out(3); } }",
        );
        match &p.functions[0].body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_casts_and_calls() {
        let p = parse_src("fn main() { var x: float = float(3); var y: int = int(x) + f(1, 2); }");
        assert_eq!(p.functions[0].body.len(), 2);
    }

    #[test]
    fn parses_array_initializer() {
        let p = parse_src("global q: [int; 4] = [1, 2, 3, 4];");
        assert_eq!(p.globals[0].init.len(), 4);
    }

    #[test]
    fn reports_error_with_line() {
        let errs = parse(&lex("fn main() {\n  var = 3;\n}").unwrap()).unwrap_err();
        assert_eq!(errs[0].line, 2);
    }

    #[test]
    fn recovers_to_next_function() {
        let errs = parse(&lex("fn broken( { }\nfn ok() { return; }").unwrap()).unwrap_err();
        assert_eq!(errs.len(), 1); // only one error reported, second fn fine
    }

    const SHAPES: [&str; 11] = [
        "parens",
        "unary",
        "chain",
        "grouped chain",
        "call",
        "cast",
        "index",
        "if",
        "else if",
        "while",
        "for",
    ];

    /// A one-line source whose deepest point is `n` levels of `shape`.
    fn nested_src(shape: &str, n: usize) -> String {
        let wrap = |open: &str, close: &str| format!("{}1{}", open.repeat(n), close.repeat(n));
        let body = match shape {
            "parens" => format!("out({});", wrap("(", ")")),
            "unary" => format!("out({});", wrap("- ", "")),
            "chain" => format!("out(1{});", "+1".repeat(n)),
            // The group's chain sinks under the outer chain.
            "grouped chain" => format!(
                "out((1{}){});",
                "+1".repeat(n / 2),
                "+1".repeat(n - n / 2 - 1)
            ),
            "call" => format!("out({});", wrap("f(", ")")),
            "cast" => format!("out({});", wrap("int(", ")")),
            "index" => format!("out({});", wrap("a[", "]")),
            "if" => format!("{} out(1); {}", "if 1 < 2 { ".repeat(n), "}".repeat(n)),
            "else if" => format!("{}{{ out(1); }}", "if 1 > 2 { } else ".repeat(n)),
            "while" => format!("{} out(1); {}", "while 1 > 2 { ".repeat(n), "}".repeat(n)),
            "for" => {
                let heads: String = (0..n).map(|i| format!("for i{i} in 0..1 {{ ")).collect();
                format!("{heads} out(1); {}", "}".repeat(n))
            }
            other => unreachable!("{other}"),
        };
        format!("global a: [int; 4]; fn f(x: int) -> int {{ return x; }} fn main() {{ {body} }}")
    }

    #[test]
    fn nesting_at_the_limit_compiles() {
        for shape in SHAPES {
            let src = nested_src(shape, MAX_NESTING as usize);
            if let Err(e) = crate::compile("t", &src) {
                panic!("{shape} at the limit: {e:?}");
            }
        }
    }

    fn limit_diag() -> Vec<Diag> {
        vec![Diag::new(
            1,
            format!("nesting depth exceeds limit {MAX_NESTING}"),
        )]
    }

    #[test]
    fn nesting_past_the_limit_is_a_diag() {
        for shape in SHAPES {
            let src = nested_src(shape, MAX_NESTING as usize + 1);
            let errs = parse(&lex(&src).unwrap()).unwrap_err();
            assert_eq!(errs, limit_diag(), "{shape}");
        }
    }

    #[test]
    fn nesting_counts_through_inlining_and_call_chains() {
        // `g`'s 200 levels sit under the call, which sits under `outer`.
        let inlined = |outer: usize| {
            let body = "- ".repeat(200);
            let call = "- ".repeat(outer);
            format!("fn g(x: int) -> int {{ return {body}x; }} fn main() {{ out({call}g(1)); }}")
        };
        assert!(crate::compile("t", &inlined(55)).is_ok());
        assert_eq!(crate::compile("t", &inlined(56)).unwrap_err(), limit_diag());
        // g0 calls g1 calls … g{n}: one level per call.
        let chain = |n: usize| {
            let calls: String = (0..n)
                .map(|k| format!("fn g{k}() {{ g{}(); }} ", k + 1))
                .collect();
            format!("{calls}fn g{n}() {{ }} fn main() {{ }}")
        };
        let max = MAX_NESTING as usize;
        assert!(crate::compile("t", &chain(max)).is_ok());
        let errs = crate::compile("t", &chain(max + 1)).unwrap_err();
        assert_eq!(errs, limit_diag());
    }
}

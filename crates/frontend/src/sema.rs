//! MiniC semantic analysis: name resolution, type checking, const
//! evaluation, and recursion rejection (every call must be inlinable).

use std::collections::HashMap;

use crate::ast::*;
use crate::parser::{nesting_error, MAX_NESTING};
use crate::Diag;

/// A compile-time constant value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConstVal {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
}

impl ConstVal {
    /// The type of the constant.
    pub fn ty(self) -> Ty {
        match self {
            ConstVal::Int(_) => Ty::Int,
            ConstVal::Float(_) => Ty::Float,
        }
    }

    /// Integer view; errors if float.
    pub fn as_int(self, line: u32) -> Result<i64, Diag> {
        match self {
            ConstVal::Int(v) => Ok(v),
            ConstVal::Float(_) => Err(Diag::new(line, "expected integer constant")),
        }
    }

    /// Raw 64-bit representation used for global initializers.
    pub fn raw_bits(self) -> i64 {
        match self {
            ConstVal::Int(v) => v,
            ConstVal::Float(v) => v.to_bits() as i64,
        }
    }
}

/// Table of named compile-time constants.
pub type ConstTable = HashMap<String, ConstVal>;

/// Evaluate a constant expression over `consts`.
pub fn const_eval(expr: &Expr, consts: &ConstTable) -> Result<ConstVal, Diag> {
    let line = expr.line;
    match &expr.kind {
        ExprKind::IntLit(v) => Ok(ConstVal::Int(*v)),
        ExprKind::FloatLit(v) => Ok(ConstVal::Float(*v)),
        ExprKind::Name(n) => consts
            .get(n)
            .copied()
            .ok_or_else(|| Diag::new(line, format!("`{n}` is not a constant"))),
        ExprKind::Un(UnOp::Neg, e) => match const_eval(e, consts)? {
            ConstVal::Int(v) => Ok(ConstVal::Int(v.wrapping_neg())),
            ConstVal::Float(v) => Ok(ConstVal::Float(-v)),
        },
        ExprKind::Bin(op, a, b) => {
            let a = const_eval(a, consts)?;
            let b = const_eval(b, consts)?;
            match (a, b) {
                (ConstVal::Int(x), ConstVal::Int(y)) => {
                    let v = match op {
                        BinOp::Add => x.wrapping_add(y),
                        BinOp::Sub => x.wrapping_sub(y),
                        BinOp::Mul => x.wrapping_mul(y),
                        BinOp::Div if y != 0 => x.wrapping_div(y),
                        BinOp::Rem if y != 0 => x.wrapping_rem(y),
                        BinOp::Shl => x.wrapping_shl((y & 63) as u32),
                        BinOp::Shr => ((x as u64) >> (y & 63)) as i64,
                        BinOp::And => x & y,
                        BinOp::Or => x | y,
                        BinOp::Xor => x ^ y,
                        _ => return Err(Diag::new(line, "unsupported constant operator")),
                    };
                    Ok(ConstVal::Int(v))
                }
                (ConstVal::Float(x), ConstVal::Float(y)) => {
                    let v = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        _ => return Err(Diag::new(line, "unsupported constant operator")),
                    };
                    Ok(ConstVal::Float(v))
                }
                _ => Err(Diag::new(line, "constant operand types differ")),
            }
        }
        ExprKind::CastInt(e) => match const_eval(e, consts)? {
            ConstVal::Int(v) => Ok(ConstVal::Int(v)),
            ConstVal::Float(v) => Ok(ConstVal::Int(v as i64)),
        },
        ExprKind::CastFloat(e) => match const_eval(e, consts)? {
            ConstVal::Int(v) => Ok(ConstVal::Float(v as f64)),
            ConstVal::Float(v) => Ok(ConstVal::Float(v)),
        },
        _ => Err(Diag::new(line, "expression is not a constant")),
    }
}

/// What a name refers to, in resolution priority order.
#[derive(Clone, Debug, PartialEq)]
enum Binding {
    Local(Ty),
    LocalArray(Ty),
    Const(ConstVal),
    GlobalScalar(Ty),
    GlobalArray(Ty),
}

struct Checker<'a> {
    prog: &'a Program,
    consts: ConstTable,
    globals: HashMap<String, (Ty, bool)>, // (elem ty, is_array)
    errs: Vec<Diag>,
    scopes: Vec<HashMap<String, Binding>>,
    loop_depth: usize,
    current_ret: Option<Ty>,
}

impl<'a> Checker<'a> {
    fn err(&mut self, line: u32, msg: impl Into<String>) {
        self.errs.push(Diag::new(line, msg));
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(b.clone());
            }
        }
        if let Some(v) = self.consts.get(name) {
            return Some(Binding::Const(*v));
        }
        if let Some(&(ty, is_array)) = self.globals.get(name) {
            return Some(if is_array {
                Binding::GlobalArray(ty)
            } else {
                Binding::GlobalScalar(ty)
            });
        }
        None
    }

    fn declare(&mut self, line: u32, name: &str, b: Binding) {
        let scope = self.scopes.last_mut().expect("scope stack empty");
        if scope.contains_key(name) {
            self.err(line, format!("`{name}` already declared in this scope"));
        } else {
            self.scopes.last_mut().unwrap().insert(name.to_string(), b);
        }
    }

    /// Type of an expression; pushes diagnostics and returns a best
    /// guess on error so checking can continue.
    fn type_of(&mut self, e: &Expr) -> Ty {
        let line = e.line;
        match &e.kind {
            ExprKind::IntLit(_) => Ty::Int,
            ExprKind::FloatLit(_) => Ty::Float,
            ExprKind::Name(n) => match self.lookup(n) {
                Some(Binding::Local(t)) | Some(Binding::GlobalScalar(t)) => t,
                Some(Binding::Const(v)) => v.ty(),
                Some(Binding::LocalArray(_)) | Some(Binding::GlobalArray(_)) => {
                    self.err(line, format!("array `{n}` used without an index"));
                    Ty::Int
                }
                None => {
                    self.err(line, format!("undefined name `{n}`"));
                    Ty::Int
                }
            },
            ExprKind::Index(n, idx) => {
                let it = self.type_of(idx);
                if it != Ty::Int {
                    self.err(line, "array index must be `int`");
                }
                match self.lookup(n) {
                    Some(Binding::LocalArray(t)) | Some(Binding::GlobalArray(t)) => t,
                    Some(_) => {
                        self.err(line, format!("`{n}` is not an array"));
                        Ty::Int
                    }
                    None => {
                        self.err(line, format!("undefined array `{n}`"));
                        Ty::Int
                    }
                }
            }
            ExprKind::Bin(op, a, b) => {
                let ta = self.type_of(a);
                let tb = self.type_of(b);
                if op.is_logical() {
                    if ta != Ty::Bool || tb != Ty::Bool {
                        self.err(line, "`&&`/`||` require bool operands");
                    }
                    Ty::Bool
                } else if op.is_cmp() {
                    if ta != tb {
                        self.err(line, format!("cannot compare {ta} with {tb}"));
                    } else if ta == Ty::Bool {
                        self.err(line, "cannot compare bool values");
                    }
                    Ty::Bool
                } else if op.is_int_only() {
                    if ta != Ty::Int || tb != Ty::Int {
                        self.err(line, format!("operator requires int operands, got {ta}/{tb}"));
                    }
                    Ty::Int
                } else {
                    if ta != tb || ta == Ty::Bool {
                        self.err(line, format!("arithmetic on mismatched types {ta}/{tb}"));
                        Ty::Int
                    } else {
                        ta
                    }
                }
            }
            ExprKind::Un(UnOp::Neg, inner) => {
                let t = self.type_of(inner);
                if t == Ty::Bool {
                    self.err(line, "cannot negate a bool");
                    Ty::Int
                } else {
                    t
                }
            }
            ExprKind::Un(UnOp::Not, inner) => {
                let t = self.type_of(inner);
                if t != Ty::Bool {
                    self.err(line, "`!` requires a bool operand");
                }
                Ty::Bool
            }
            ExprKind::Call(name, args) => {
                let fndef = match self.prog.function(name) {
                    Some(f) => f.clone(),
                    None => {
                        self.err(line, format!("call to undefined function `{name}`"));
                        return Ty::Int;
                    }
                };
                if fndef.params.len() != args.len() {
                    self.err(
                        line,
                        format!(
                            "`{name}` takes {} arguments, {} given",
                            fndef.params.len(),
                            args.len()
                        ),
                    );
                }
                for (p, a) in fndef.params.iter().zip(args) {
                    let t = self.type_of(a);
                    if t != p.ty {
                        self.err(line, format!("argument `{}` expects {}, got {t}", p.name, p.ty));
                    }
                }
                match fndef.ret {
                    Some(t) => t,
                    None => {
                        // Void calls are only valid as statements; the
                        // statement checker handles that case before
                        // calling type_of.
                        self.err(line, format!("void function `{name}` used as a value"));
                        Ty::Int
                    }
                }
            }
            ExprKind::CastInt(inner) => {
                let t = self.type_of(inner);
                if t == Ty::Bool {
                    self.err(line, "cannot cast bool");
                }
                Ty::Int
            }
            ExprKind::CastFloat(inner) => {
                let t = self.type_of(inner);
                if t == Ty::Bool {
                    self.err(line, "cannot cast bool");
                }
                Ty::Float
            }
        }
    }

    fn check_body(&mut self, body: &[Stmt]) {
        self.scopes.push(HashMap::new());
        for s in body {
            self.check_stmt(s);
        }
        self.scopes.pop();
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Var { name, ty, init, line } => {
                let t = self.type_of(init);
                if t != *ty {
                    self.err(*line, format!("initializer of `{name}` has type {t}, expected {ty}"));
                }
                self.declare(*line, name, Binding::Local(*ty));
            }
            Stmt::VarArray { name, ty, len, line } => {
                match const_eval(len, &self.consts).and_then(|v| v.as_int(*line)) {
                    Ok(n) if n > 0 => {}
                    Ok(_) => self.err(*line, "array length must be positive"),
                    Err(d) => self.errs.push(d),
                }
                self.declare(*line, name, Binding::LocalArray(*ty));
            }
            Stmt::Assign { name, value, line } => {
                let vt = self.type_of(value);
                match self.lookup(name) {
                    Some(Binding::Local(t)) | Some(Binding::GlobalScalar(t)) => {
                        if t != vt {
                            self.err(*line, format!("assigning {vt} to `{name}` of type {t}"));
                        }
                    }
                    Some(Binding::Const(_)) => {
                        self.err(*line, format!("cannot assign to constant `{name}`"))
                    }
                    Some(_) => self.err(*line, format!("cannot assign to array `{name}` without index")),
                    None => self.err(*line, format!("undefined name `{name}`")),
                }
            }
            Stmt::AssignIndex {
                name,
                index,
                value,
                line,
            } => {
                let it = self.type_of(index);
                if it != Ty::Int {
                    self.err(*line, "array index must be `int`");
                }
                let vt = self.type_of(value);
                match self.lookup(name) {
                    Some(Binding::LocalArray(t)) | Some(Binding::GlobalArray(t)) => {
                        if t != vt {
                            self.err(*line, format!("storing {vt} into array of {t}"));
                        }
                    }
                    Some(_) => self.err(*line, format!("`{name}` is not an array")),
                    None => self.err(*line, format!("undefined array `{name}`")),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.type_of(cond) != Ty::Bool {
                    self.err(cond.line, "if condition must be bool");
                }
                self.check_body(then_body);
                self.check_body(else_body);
            }
            Stmt::While { cond, body } => {
                if self.type_of(cond) != Ty::Bool {
                    self.err(cond.line, "while condition must be bool");
                }
                self.loop_depth += 1;
                self.check_body(body);
                self.loop_depth -= 1;
            }
            Stmt::For { name, lo, hi, body } => {
                if self.type_of(lo) != Ty::Int || self.type_of(hi) != Ty::Int {
                    self.err(lo.line, "for-range bounds must be int");
                }
                self.loop_depth += 1;
                self.scopes.push(HashMap::new());
                self.declare(lo.line, name, Binding::Local(Ty::Int));
                for s in body {
                    self.check_stmt(s);
                }
                self.scopes.pop();
                self.loop_depth -= 1;
            }
            Stmt::Break(line) | Stmt::Continue(line) => {
                if self.loop_depth == 0 {
                    self.err(*line, "break/continue outside of a loop");
                }
            }
            Stmt::Return(val, line) => match (self.current_ret, val) {
                (None, None) => {}
                (None, Some(_)) => self.err(*line, "void function cannot return a value"),
                (Some(t), Some(e)) => {
                    let vt = self.type_of(e);
                    if vt != t {
                        self.err(*line, format!("returning {vt}, function returns {t}"));
                    }
                }
                (Some(_), None) => self.err(*line, "missing return value"),
            },
            Stmt::ExprStmt(e) => {
                // Void calls are allowed here.
                if let ExprKind::Call(name, args) = &e.kind {
                    if let Some(f) = self.prog.function(name) {
                        if f.ret.is_none() {
                            let fndef = f.clone();
                            if fndef.params.len() != args.len() {
                                self.err(e.line, format!("`{name}` argument count mismatch"));
                            }
                            for (p, a) in fndef.params.iter().zip(args) {
                                let t = self.type_of(a);
                                if t != p.ty {
                                    self.err(e.line, format!("argument `{}` type mismatch", p.name));
                                }
                            }
                            return;
                        }
                    }
                }
                self.type_of(e);
            }
            Stmt::Out(e) => {
                if self.type_of(e) != Ty::Int {
                    self.err(e.line, "out() takes an int");
                }
            }
            Stmt::FOut(e) => {
                if self.type_of(e) != Ty::Float {
                    self.err(e.line, "fout() takes a float");
                }
            }
        }
    }
}

/// Detect call cycles (recursion cannot be inlined).
fn check_recursion(prog: &Program, errs: &mut Vec<Diag>) {
    fn callees(body: &[Stmt], out: &mut Vec<String>) {
        fn walk_expr(e: &Expr, out: &mut Vec<String>) {
            match &e.kind {
                ExprKind::Call(n, args) => {
                    out.push(n.clone());
                    for a in args {
                        walk_expr(a, out);
                    }
                }
                ExprKind::Bin(_, a, b) => {
                    walk_expr(a, out);
                    walk_expr(b, out);
                }
                ExprKind::Un(_, a) | ExprKind::CastInt(a) | ExprKind::CastFloat(a) => {
                    walk_expr(a, out)
                }
                ExprKind::Index(_, i) => walk_expr(i, out),
                _ => {}
            }
        }
        for s in body {
            match s {
                Stmt::Var { init, .. } => walk_expr(init, out),
                Stmt::VarArray { .. } => {}
                Stmt::Assign { value, .. } => walk_expr(value, out),
                Stmt::AssignIndex { index, value, .. } => {
                    walk_expr(index, out);
                    walk_expr(value, out);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    walk_expr(cond, out);
                    callees(then_body, out);
                    callees(else_body, out);
                }
                Stmt::While { cond, body } => {
                    walk_expr(cond, out);
                    callees(body, out);
                }
                Stmt::For { lo, hi, body, .. } => {
                    walk_expr(lo, out);
                    walk_expr(hi, out);
                    callees(body, out);
                }
                Stmt::Return(Some(e), _) => walk_expr(e, out),
                Stmt::ExprStmt(e) | Stmt::Out(e) | Stmt::FOut(e) => walk_expr(e, out),
                _ => {}
            }
        }
    }

    // DFS with colors over the call graph. A call chain nests like any
    // other construct: past `MAX_NESTING` calls the search stops (its
    // recursion is as deep as the chain).
    let mut color: HashMap<&str, u8> = HashMap::new(); // 0 white 1 gray 2 black
    fn dfs<'p>(
        prog: &'p Program,
        name: &'p str,
        depth: u32,
        color: &mut HashMap<&'p str, u8>,
        errs: &mut Vec<Diag>,
        callees_of: &dyn Fn(&'p FnDef) -> Vec<String>,
    ) -> Result<(), ()> {
        match color.get(name) {
            Some(1) => {
                errs.push(Diag::new(
                    prog.function(name).map(|f| f.line).unwrap_or(0),
                    format!("recursive call cycle through `{name}` (MiniC functions must be inlinable)"),
                ));
                return Ok(());
            }
            Some(2) => return Ok(()),
            _ => {}
        }
        let Some(f) = prog.function(name) else {
            return Ok(());
        };
        if depth > MAX_NESTING {
            errs.push(nesting_error(f.line));
            return Err(());
        }
        color.insert(name, 1);
        for c in callees_of(f) {
            if let Some(callee) = prog.function(&c) {
                let callee = callee.name.as_str();
                dfs(prog, callee, depth + 1, color, errs, callees_of)?;
            }
        }
        color.insert(name, 2);
        Ok(())
    }
    let callees_of = |f: &FnDef| {
        let mut out = Vec::new();
        callees(&f.body, &mut out);
        out
    };
    for f in &prog.functions {
        if dfs(prog, &f.name, 0, &mut color, errs, &callees_of).is_err() {
            return;
        }
    }
}

/// Run semantic analysis on a parsed program.
pub fn check(prog: &Program) -> Result<(), Vec<Diag>> {
    let mut errs = Vec::new();

    // Constants (in order; later consts may reference earlier ones).
    let mut consts: ConstTable = HashMap::new();
    for c in &prog.consts {
        match const_eval(&c.value, &consts) {
            Ok(v) => {
                if v.ty() != c.ty {
                    errs.push(Diag::new(
                        c.line,
                        format!("const `{}` declared {} but value is {}", c.name, c.ty, v.ty()),
                    ));
                }
                if consts.insert(c.name.clone(), v).is_some() {
                    errs.push(Diag::new(c.line, format!("duplicate const `{}`", c.name)));
                }
            }
            Err(d) => errs.push(d),
        }
    }

    // Globals.
    let mut globals: HashMap<String, (Ty, bool)> = HashMap::new();
    for g in &prog.globals {
        if g.ty == Ty::Bool {
            errs.push(Diag::new(g.line, "globals cannot be bool"));
        }
        let len = match const_eval(&g.len, &consts).and_then(|v| v.as_int(g.line)) {
            Ok(n) if n > 0 => n,
            Ok(_) => {
                errs.push(Diag::new(g.line, "global length must be positive"));
                1
            }
            Err(d) => {
                errs.push(d);
                1
            }
        };
        if g.init.len() as i64 > len {
            errs.push(Diag::new(
                g.line,
                format!("`{}` initializer has {} values for length {}", g.name, g.init.len(), len),
            ));
        }
        for e in &g.init {
            match const_eval(e, &consts) {
                Ok(v) if v.ty() == g.ty => {}
                Ok(v) => errs.push(Diag::new(
                    g.line,
                    format!("initializer of `{}` has wrong type {}", g.name, v.ty()),
                )),
                Err(d) => errs.push(d),
            }
        }
        if globals.insert(g.name.clone(), (g.ty, g.is_array)).is_some() {
            errs.push(Diag::new(g.line, format!("duplicate global `{}`", g.name)));
        }
    }

    // Function table sanity.
    let mut seen = HashMap::new();
    for f in &prog.functions {
        if seen.insert(f.name.clone(), ()).is_some() {
            errs.push(Diag::new(f.line, format!("duplicate function `{}`", f.name)));
        }
        for p in &f.params {
            if p.ty == Ty::Bool {
                errs.push(Diag::new(f.line, "parameters cannot be bool"));
            }
        }
        if f.ret == Some(Ty::Bool) {
            errs.push(Diag::new(f.line, "functions cannot return bool"));
        }
    }
    match prog.function("main") {
        None => errs.push(Diag::new(0, "program has no `main` function")),
        Some(m) => {
            if !m.params.is_empty() {
                errs.push(Diag::new(m.line, "`main` takes no parameters"));
            }
            if m.is_lib {
                errs.push(Diag::new(m.line, "`main` cannot be a lib function"));
            }
        }
    }

    check_recursion(prog, &mut errs);

    // Per-function body checks.
    for f in &prog.functions {
        let mut ck = Checker {
            prog,
            consts: consts.clone(),
            globals: globals.clone(),
            errs: Vec::new(),
            scopes: vec![HashMap::new()],
            loop_depth: 0,
            current_ret: f.ret,
        };
        for p in &f.params {
            ck.declare(f.line, &p.name, Binding::Local(p.ty));
        }
        for s in &f.body {
            ck.check_stmt(s);
        }
        errs.extend(ck.errs);
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<(), Vec<Diag>> {
        check(&parse(&lex(src).unwrap()).unwrap())
    }

    #[test]
    fn accepts_valid_program() {
        assert!(check_src(
            "const N: int = 2 + 2;\nglobal g: [int; N];\nfn main() -> int { var x: int = 1; g[0] = x; return g[0]; }"
        )
        .is_ok());
    }

    #[test]
    fn rejects_missing_main() {
        let errs = check_src("fn foo() { return; }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("no `main`")));
    }

    #[test]
    fn rejects_type_mismatch() {
        let errs =
            check_src("fn main() { var x: int = 1.5; }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("initializer")));
    }

    #[test]
    fn rejects_int_condition() {
        let errs = check_src("fn main() { if 1 { } }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("must be bool")));
    }

    #[test]
    fn rejects_recursion() {
        let errs = check_src("fn f(x: int) -> int { return f(x); }\nfn main() { }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("recursive")));
    }

    #[test]
    fn rejects_mutual_recursion() {
        let errs = check_src(
            "fn a(x: int) -> int { return b(x); }\nfn b(x: int) -> int { return a(x); }\nfn main() { }",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("recursive")));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let errs = check_src("fn main() { break; }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("outside")));
    }

    #[test]
    fn rejects_undefined_names() {
        let errs = check_src("fn main() { out(nope); }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("undefined")));
    }

    #[test]
    fn rejects_assignment_to_const() {
        let errs = check_src("const N: int = 1;\nfn main() { N = 2; }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("constant")));
    }

    #[test]
    fn rejects_wrong_arg_types() {
        let errs = check_src(
            "fn f(x: float) -> float { return x; }\nfn main() { var y: float = f(1); }",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("expects float")));
    }

    #[test]
    fn const_eval_arithmetic() {
        let consts = ConstTable::new();
        let toks = lex("fn main() { var x: int = (3 + 4) * 2; }").unwrap();
        let prog = parse(&toks).unwrap();
        if let Stmt::Var { init, .. } = &prog.functions[0].body[0] {
            assert_eq!(const_eval(init, &consts).unwrap(), ConstVal::Int(14));
        } else {
            panic!();
        }
    }

    #[test]
    fn for_loop_variable_scoped_to_body() {
        let errs = check_src("fn main() { for i in 0..4 { out(i); } out(i); }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("undefined")));
    }

    #[test]
    fn void_call_as_statement_ok() {
        assert!(check_src("fn f() { out(1); }\nfn main() { f(); }").is_ok());
    }

    #[test]
    fn void_call_as_value_rejected() {
        let errs = check_src("fn f() { }\nfn main() { var x: int = f(); }").unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("void")));
    }
}

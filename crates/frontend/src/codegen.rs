//! MiniC → IR code generation with full inlining.
//!
//! Every call is expanded at its call site (sema guarantees the call
//! graph is acyclic), so the produced module has a single executable
//! entry function — the unit the CASTED passes transform. Functions
//! declared `lib fn` are inlined with
//! [`Provenance::LibraryCode`] stamped on their instructions, modelling
//! binary system libraries that the error-detection pass cannot
//! protect.

use std::collections::HashMap;

use casted_ir::func::GlobalClass;
use casted_ir::{
    CmpKind, FunctionBuilder, Module, Opcode, Operand, Provenance, Reg, RegClass,
};

use crate::ast::*;
use crate::parser::{nesting_error, MAX_NESTING};
use crate::sema::{const_eval, ConstTable, ConstVal};
use crate::Diag;

/// Most IR instructions the entry function may hold when code
/// generation enters an inlined call: 160 times the largest benchmark
/// kernel (h263enc, 404 instructions). Inlining copies a body once per
/// call site, so a source of a few hundred bytes whose functions each
/// call the one before twice asks for exponentially many; it is
/// refused here instead of exhausting memory.
pub const MAX_INLINED_INSNS: usize = 1 << 16;

/// What a name is bound to during code generation.
#[derive(Clone, Debug)]
enum Slot {
    /// Scalar local in a virtual register.
    Scalar(Reg, Ty),
    /// Array in static storage at `addr`.
    Array(i64, Ty),
}

/// Loop context for break/continue.
struct LoopCtx {
    /// Branch target of `continue` (loop head or step block).
    continue_to: casted_ir::BlockId,
    /// Branch target of `break`.
    break_to: casted_ir::BlockId,
}

/// Per-inline-instance return context.
struct RetCtx {
    ret_reg: Option<Reg>,
    join: casted_ir::BlockId,
}

struct Cg<'a> {
    prog: &'a Program,
    consts: ConstTable,
    module: Module,
    globals: HashMap<String, (i64, Ty)>,
    b: FunctionBuilder,
    scopes: Vec<HashMap<String, Slot>>,
    loops: Vec<LoopCtx>,
    rets: Vec<RetCtx>,
    inline_depth: usize,
    /// Nesting levels open above the current node, counted through
    /// inlined bodies: a call's body sits under the call.
    depth: u32,
    instance: u32,
    errs: Vec<Diag>,
}

type CgResult<T> = Result<T, ()>;

impl<'a> Cg<'a> {
    fn err(&mut self, line: u32, msg: impl Into<String>) {
        self.errs.push(Diag::new(line, msg));
    }

    /// Run `f` one nesting level deeper. Each function is within
    /// [`MAX_NESTING`] once parsed, but inlining stacks them, and this
    /// recursion with them.
    fn nested<T>(&mut self, line: u32, f: impl FnOnce(&mut Self) -> CgResult<T>) -> CgResult<T> {
        if self.depth >= MAX_NESTING {
            self.errs.push(nesting_error(line));
            return Err(());
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        for s in self.scopes.iter().rev() {
            if let Some(slot) = s.get(name) {
                return Some(slot.clone());
            }
        }
        None
    }

    fn class_of(ty: Ty) -> RegClass {
        match ty {
            Ty::Int => RegClass::Gp,
            Ty::Float => RegClass::Fp,
            Ty::Bool => RegClass::Pr,
        }
    }

    /// Copy `src` operand into `dst` register (class-appropriate move).
    fn mov_to(&mut self, dst: Reg, src: Operand) {
        let op = match dst.class {
            RegClass::Gp => Opcode::MovI,
            RegClass::Fp => Opcode::FMovI,
            RegClass::Pr => unreachable!("bool values are never stored"),
        };
        self.b.push(op, vec![dst], vec![src]);
    }

    /// Evaluate an expression to an operand, using immediates for
    /// constants (like a real back-end's immediate operand forms).
    fn gen_operand(&mut self, e: &Expr) -> CgResult<(Operand, Ty)> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok((Operand::Imm(*v), Ty::Int)),
            ExprKind::FloatLit(v) => Ok((Operand::FImm(*v), Ty::Float)),
            ExprKind::Name(n) => {
                if let Some(v) = self.consts.get(n).copied() {
                    return Ok(match v {
                        ConstVal::Int(i) => (Operand::Imm(i), Ty::Int),
                        ConstVal::Float(f) => (Operand::FImm(f), Ty::Float),
                    });
                }
                match self.lookup(n) {
                    Some(Slot::Scalar(r, ty)) => Ok((Operand::Reg(r), ty)),
                    Some(Slot::Array(..)) => {
                        self.err(e.line, format!("array `{n}` used as scalar"));
                        Err(())
                    }
                    None => {
                        if let Some(&(addr, ty)) = self.globals.get(n.as_str()) {
                            // Scalar global read.
                            let base = self.b.imm(addr);
                            let v = if ty == Ty::Float {
                                self.b.fload(base, 0)
                            } else {
                                self.b.load(base, 0)
                            };
                            Ok((Operand::Reg(v), ty))
                        } else {
                            self.err(e.line, format!("undefined name `{n}`"));
                            Err(())
                        }
                    }
                }
            }
            _ => {
                let (r, ty) = self.nested(e.line, |cg| cg.gen_expr(e))?;
                Ok((Operand::Reg(r), ty))
            }
        }
    }

    /// Compute `(base_reg, byte_offset)` addressing `name[index]`.
    fn gen_elem_addr(&mut self, line: u32, name: &str, index: &Expr) -> CgResult<(Reg, i64, Ty)> {
        let (addr, ty) = match self.lookup(name) {
            Some(Slot::Array(a, t)) => (a, t),
            Some(Slot::Scalar(..)) => {
                self.err(line, format!("`{name}` is not an array"));
                return Err(());
            }
            None => match self.globals.get(name) {
                Some(&(a, t)) => (a, t),
                None => {
                    self.err(line, format!("undefined array `{name}`"));
                    return Err(());
                }
            },
        };
        // Constant index folds into the addressing offset.
        if let Ok(cv) = const_eval(index, &self.consts) {
            if let ConstVal::Int(i) = cv {
                let base = self.b.imm(addr);
                return Ok((base, i * 8, ty));
            }
        }
        let (idx, _) = self.gen_operand(index)?;
        let off = self.b.binop(Opcode::Shl, idx, Operand::Imm(3));
        let base = self.b.imm(addr);
        let ea = self
            .b
            .binop(Opcode::Add, Operand::Reg(base), Operand::Reg(off));
        Ok((ea, 0, ty))
    }

    /// Evaluate an expression into a fresh register.
    fn gen_expr(&mut self, e: &Expr) -> CgResult<(Reg, Ty)> {
        let line = e.line;
        match &e.kind {
            ExprKind::IntLit(v) => Ok((self.b.imm(*v), Ty::Int)),
            ExprKind::FloatLit(v) => Ok((self.b.fimm(*v), Ty::Float)),
            ExprKind::Name(_) => {
                let (op, ty) = self.gen_operand(e)?;
                match op {
                    Operand::Reg(r) => Ok((r, ty)),
                    Operand::Imm(v) => Ok((self.b.imm(v), Ty::Int)),
                    Operand::FImm(v) => Ok((self.b.fimm(v), Ty::Float)),
                }
            }
            ExprKind::Index(name, idx) => {
                let (base, off, ty) = self.gen_elem_addr(line, name, idx)?;
                let v = if ty == Ty::Float {
                    self.b.fload(base, off)
                } else {
                    self.b.load(base, off)
                };
                Ok((v, ty))
            }
            ExprKind::Bin(op, a, bx) => {
                if op.is_cmp() || op.is_logical() {
                    self.err(line, "boolean expression in value position");
                    return Err(());
                }
                let (av, ta) = self.gen_operand(a)?;
                let (bv, _) = self.gen_operand(bx)?;
                if ta == Ty::Float {
                    let opc = match op {
                        BinOp::Add => Opcode::FAdd,
                        BinOp::Sub => Opcode::FSub,
                        BinOp::Mul => Opcode::FMul,
                        BinOp::Div => Opcode::FDiv,
                        _ => {
                            self.err(line, "operator not defined on float");
                            return Err(());
                        }
                    };
                    Ok((self.b.fbinop(opc, av, bv), Ty::Float))
                } else {
                    let opc = match op {
                        BinOp::Add => Opcode::Add,
                        BinOp::Sub => Opcode::Sub,
                        BinOp::Mul => Opcode::Mul,
                        BinOp::Div => Opcode::Div,
                        BinOp::Rem => Opcode::Rem,
                        BinOp::And => Opcode::And,
                        BinOp::Or => Opcode::Or,
                        BinOp::Xor => Opcode::Xor,
                        BinOp::Shl => Opcode::Shl,
                        // MiniC ints are signed; `>>` is an arithmetic
                        // shift, like `>>` on signed C/Rust integers.
                        BinOp::Shr => Opcode::Sra,
                        _ => unreachable!(),
                    };
                    Ok((self.b.binop(opc, av, bv), Ty::Int))
                }
            }
            ExprKind::Un(UnOp::Neg, inner) => {
                let (v, ty) = self.gen_operand(inner)?;
                if ty == Ty::Float {
                    Ok((self.b.fbinop(Opcode::FSub, Operand::FImm(0.0), v), Ty::Float))
                } else {
                    Ok((self.b.binop(Opcode::Sub, Operand::Imm(0), v), Ty::Int))
                }
            }
            ExprKind::Un(UnOp::Not, _) => {
                self.err(line, "boolean expression in value position");
                Err(())
            }
            ExprKind::CastInt(inner) => {
                let (v, ty) = self.gen_operand(inner)?;
                if ty == Ty::Int {
                    match v {
                        Operand::Reg(r) => Ok((r, Ty::Int)),
                        Operand::Imm(i) => Ok((self.b.imm(i), Ty::Int)),
                        _ => Err(()),
                    }
                } else {
                    let d = self.b.new_reg(RegClass::Gp);
                    self.b.push(Opcode::F2I, vec![d], vec![v]);
                    Ok((d, Ty::Int))
                }
            }
            ExprKind::CastFloat(inner) => {
                let (v, ty) = self.gen_operand(inner)?;
                if ty == Ty::Float {
                    match v {
                        Operand::Reg(r) => Ok((r, Ty::Float)),
                        Operand::FImm(f) => Ok((self.b.fimm(f), Ty::Float)),
                        _ => Err(()),
                    }
                } else {
                    let d = self.b.new_reg(RegClass::Fp);
                    self.b.push(Opcode::I2F, vec![d], vec![v]);
                    Ok((d, Ty::Float))
                }
            }
            ExprKind::Call(name, args) => {
                let ret = self.gen_call(line, name, args)?;
                match ret {
                    Some(pair) => Ok(pair),
                    None => {
                        self.err(line, format!("void function `{name}` used as value"));
                        Err(())
                    }
                }
            }
        }
    }

    /// Inline a call; returns the return-value register for non-void
    /// callees.
    fn gen_call(&mut self, line: u32, name: &str, args: &[Expr]) -> CgResult<Option<(Reg, Ty)>> {
        let fndef = match self.prog.function(name) {
            Some(f) => f.clone(),
            None => {
                self.err(line, format!("call to undefined function `{name}`"));
                return Err(());
            }
        };
        if self.inline_depth > 64 {
            self.err(line, "inline depth exceeded (recursion?)");
            return Err(());
        }
        if self.b.func().insns.len() > MAX_INLINED_INSNS {
            casted_obs::inc("frontend.limit.inlined_insns");
            self.err(
                line,
                format!("inlined code exceeds limit {MAX_INLINED_INSNS} IR instructions"),
            );
            return Err(());
        }
        // Evaluate arguments in the caller's provenance, then bind them
        // to fresh parameter registers.
        let mut bound = Vec::new();
        for (p, a) in fndef.params.iter().zip(args) {
            let (v, _) = self.gen_operand(a)?;
            let r = self.b.new_reg(Self::class_of(p.ty));
            self.mov_to(r, v);
            bound.push((p.name.clone(), Slot::Scalar(r, p.ty)));
        }

        let saved_prov = self.b.prov;
        if fndef.is_lib {
            self.b.prov = Provenance::LibraryCode;
        }
        self.instance += 1;
        let inst = self.instance;

        let ret_reg = fndef.ret.map(|t| self.b.new_reg(Self::class_of(t)));
        let join = self.b.new_block(format!("{}_{}_ret", fndef.name, inst));
        self.rets.push(RetCtx { ret_reg, join });

        self.scopes.push(bound.into_iter().collect());
        self.inline_depth += 1;
        self.gen_body(&fndef.body)?;
        self.inline_depth -= 1;
        self.scopes.pop();

        // Fall-through: a non-void function reaching its end yields the
        // class default (documented MiniC semantics).
        if !self.b.is_terminated() {
            if let Some(r) = ret_reg {
                let z = if r.class == RegClass::Fp {
                    Operand::FImm(0.0)
                } else {
                    Operand::Imm(0)
                };
                self.mov_to(r, z);
            }
            self.b.br(join);
        }
        self.rets.pop();
        self.b.switch_to(join);
        self.b.prov = saved_prov;
        Ok(ret_reg.map(|r| (r, fndef.ret.unwrap())))
    }

    /// Generate a condition: evaluate `e` and branch to `t_blk` /
    /// `f_blk`. Logical operators short-circuit through fresh blocks.
    fn gen_cond(
        &mut self,
        e: &Expr,
        t_blk: casted_ir::BlockId,
        f_blk: casted_ir::BlockId,
    ) -> CgResult<()> {
        self.nested(e.line, |cg| cg.gen_cond_node(e, t_blk, f_blk))
    }

    fn gen_cond_node(
        &mut self,
        e: &Expr,
        t_blk: casted_ir::BlockId,
        f_blk: casted_ir::BlockId,
    ) -> CgResult<()> {
        match &e.kind {
            ExprKind::Bin(op, a, b) if op.is_cmp() => {
                let kind = match op {
                    BinOp::Eq => CmpKind::Eq,
                    BinOp::Ne => CmpKind::Ne,
                    BinOp::Lt => CmpKind::Lt,
                    BinOp::Le => CmpKind::Le,
                    BinOp::Gt => CmpKind::Gt,
                    BinOp::Ge => CmpKind::Ge,
                    _ => unreachable!(),
                };
                let (av, ta) = self.gen_operand(a)?;
                let (bv, _) = self.gen_operand(b)?;
                let p = if ta == Ty::Float {
                    self.b.fcmp(kind, av, bv)
                } else {
                    self.b.cmp(kind, av, bv)
                };
                self.b.br_cond(p, t_blk, f_blk);
                Ok(())
            }
            ExprKind::Bin(BinOp::LAnd, a, b) => {
                let mid = self.b.new_block("and_rhs");
                self.gen_cond(a, mid, f_blk)?;
                self.b.switch_to(mid);
                self.gen_cond(b, t_blk, f_blk)
            }
            ExprKind::Bin(BinOp::LOr, a, b) => {
                let mid = self.b.new_block("or_rhs");
                self.gen_cond(a, t_blk, mid)?;
                self.b.switch_to(mid);
                self.gen_cond(b, t_blk, f_blk)
            }
            ExprKind::Un(UnOp::Not, inner) => self.gen_cond(inner, f_blk, t_blk),
            _ => {
                self.err(e.line, "condition must be a boolean expression");
                Err(())
            }
        }
    }

    fn gen_body(&mut self, body: &[Stmt]) -> CgResult<()> {
        self.scopes.push(HashMap::new());
        for s in body {
            if self.b.is_terminated() {
                break; // dead code after return/break/continue
            }
            self.gen_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn gen_stmt(&mut self, s: &Stmt) -> CgResult<()> {
        match s {
            Stmt::Var { name, ty, init, line } => {
                let (v, _) = self.gen_operand(init)?;
                let r = self.b.new_reg(Self::class_of(*ty));
                self.mov_to(r, v);
                let _ = line;
                self.scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), Slot::Scalar(r, *ty));
                Ok(())
            }
            Stmt::VarArray { name, ty, len, line } => {
                let n = const_eval(len, &self.consts)
                    .and_then(|v| v.as_int(*line))
                    .map_err(|d| self.errs.push(d))?;
                self.instance += 1;
                let gname = format!("__local_{}_{}", name, self.instance);
                let class = if *ty == Ty::Float {
                    GlobalClass::Float
                } else {
                    GlobalClass::Int
                };
                let (_, addr) = self.module.add_global(gname, class, n as usize, vec![]);
                self.scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), Slot::Array(addr, *ty));
                Ok(())
            }
            Stmt::Assign { name, value, line } => {
                let (v, _) = self.gen_operand(value)?;
                match self.lookup(name) {
                    Some(Slot::Scalar(r, _)) => {
                        self.mov_to(r, v);
                        Ok(())
                    }
                    Some(Slot::Array(..)) => {
                        self.err(*line, format!("cannot assign to array `{name}`"));
                        Err(())
                    }
                    None => match self.globals.get(name.as_str()).copied() {
                        Some((addr, ty)) => {
                            let base = self.b.imm(addr);
                            if ty == Ty::Float {
                                self.b.fstore(base, 0, v);
                            } else {
                                self.b.store(base, 0, v);
                            }
                            Ok(())
                        }
                        None => {
                            self.err(*line, format!("undefined name `{name}`"));
                            Err(())
                        }
                    },
                }
            }
            Stmt::AssignIndex {
                name,
                index,
                value,
                line,
            } => {
                let (v, _) = self.gen_operand(value)?;
                let (base, off, ty) = self.gen_elem_addr(*line, name, index)?;
                if ty == Ty::Float {
                    self.b.fstore(base, off, v);
                } else {
                    self.b.store(base, off, v);
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let t = self.b.new_block("then");
                let f = if else_body.is_empty() {
                    None
                } else {
                    Some(self.b.new_block("else"))
                };
                let join = self.b.new_block("endif");
                self.gen_cond(cond, t, f.unwrap_or(join))?;
                self.b.switch_to(t);
                self.nested(cond.line, |cg| cg.gen_body(then_body))?;
                if !self.b.is_terminated() {
                    self.b.br(join);
                }
                if let Some(f) = f {
                    self.b.switch_to(f);
                    self.nested(cond.line, |cg| cg.gen_body(else_body))?;
                    if !self.b.is_terminated() {
                        self.b.br(join);
                    }
                }
                self.b.switch_to(join);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.b.new_block("while_head");
                let bodyb = self.b.new_block("while_body");
                let exit = self.b.new_block("while_exit");
                self.b.br(head);
                self.b.switch_to(head);
                self.gen_cond(cond, bodyb, exit)?;
                self.b.switch_to(bodyb);
                self.loops.push(LoopCtx {
                    continue_to: head,
                    break_to: exit,
                });
                self.nested(cond.line, |cg| cg.gen_body(body))?;
                self.loops.pop();
                if !self.b.is_terminated() {
                    self.b.br(head);
                }
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::For { name, lo, hi, body } => {
                let (lov, _) = self.gen_operand(lo)?;
                let i = self.b.new_reg(RegClass::Gp);
                self.mov_to(i, lov);
                // Evaluate the bound once, before the loop.
                let (hiv, _) = self.gen_operand(hi)?;
                let hi_reg = match hiv {
                    Operand::Reg(r) => Operand::Reg(r),
                    imm => imm,
                };
                let head = self.b.new_block("for_head");
                let bodyb = self.b.new_block("for_body");
                let step = self.b.new_block("for_step");
                let exit = self.b.new_block("for_exit");
                self.b.br(head);
                self.b.switch_to(head);
                let p = self.b.cmp(CmpKind::Lt, Operand::Reg(i), hi_reg);
                self.b.br_cond(p, bodyb, exit);
                self.b.switch_to(bodyb);
                self.loops.push(LoopCtx {
                    continue_to: step,
                    break_to: exit,
                });
                self.scopes.push(HashMap::new());
                self.scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), Slot::Scalar(i, Ty::Int));
                self.nested(lo.line, |cg| cg.gen_body(body))?;
                self.scopes.pop();
                self.loops.pop();
                if !self.b.is_terminated() {
                    self.b.br(step);
                }
                self.b.switch_to(step);
                let next = self.b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
                self.mov_to(i, Operand::Reg(next));
                self.b.br(head);
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::Break(line) => match self.loops.last() {
                Some(l) => {
                    let t = l.break_to;
                    self.b.br(t);
                    Ok(())
                }
                None => {
                    self.err(*line, "break outside loop");
                    Err(())
                }
            },
            Stmt::Continue(line) => match self.loops.last() {
                Some(l) => {
                    let t = l.continue_to;
                    self.b.br(t);
                    Ok(())
                }
                None => {
                    self.err(*line, "continue outside loop");
                    Err(())
                }
            },
            Stmt::Return(val, line) => {
                let ctx_ret;
                let ctx_join;
                match self.rets.last() {
                    Some(r) => {
                        ctx_ret = r.ret_reg;
                        ctx_join = r.join;
                    }
                    None => {
                        self.err(*line, "return outside function");
                        return Err(());
                    }
                }
                if let Some(e) = val {
                    let (v, _) = self.gen_operand(e)?;
                    if let Some(r) = ctx_ret {
                        self.mov_to(r, v);
                    }
                }
                self.b.br(ctx_join);
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                if let ExprKind::Call(name, args) = &e.kind {
                    self.gen_call(e.line, name, args)?;
                    Ok(())
                } else {
                    let _ = self.gen_operand(e)?;
                    Ok(())
                }
            }
            Stmt::Out(e) => {
                let (v, _) = self.gen_operand(e)?;
                self.b.out(v);
                Ok(())
            }
            Stmt::FOut(e) => {
                let (v, _) = self.gen_operand(e)?;
                self.b.fout(v);
                Ok(())
            }
        }
    }
}

/// Compile a checked program into an IR module.
pub fn compile_program(name: &str, prog: &Program) -> Result<Module, Vec<Diag>> {
    let mut errs = Vec::new();

    // Constants.
    let mut consts: ConstTable = HashMap::new();
    for c in &prog.consts {
        match const_eval(&c.value, &consts) {
            Ok(v) => {
                consts.insert(c.name.clone(), v);
            }
            Err(d) => errs.push(d),
        }
    }

    // Globals.
    let mut module = Module::new(name);
    let mut globals = HashMap::new();
    for g in &prog.globals {
        let len = match const_eval(&g.len, &consts).and_then(|v| v.as_int(g.line)) {
            Ok(n) => n.max(1) as usize,
            Err(d) => {
                errs.push(d);
                1
            }
        };
        let init: Vec<i64> = g
            .init
            .iter()
            .filter_map(|e| const_eval(e, &consts).ok().map(|v| v.raw_bits()))
            .collect();
        let class = if g.ty == Ty::Float {
            GlobalClass::Float
        } else {
            GlobalClass::Int
        };
        let (_, addr) = module.add_global(g.name.clone(), class, len, init);
        globals.insert(g.name.clone(), (addr, g.ty));
    }
    if !errs.is_empty() {
        return Err(errs);
    }

    let main = match prog.function("main") {
        Some(m) => m.clone(),
        None => return Err(vec![Diag::new(0, "no `main` function")]),
    };

    let mut cg = Cg {
        prog,
        consts,
        module,
        globals,
        b: FunctionBuilder::new("main"),
        scopes: vec![HashMap::new()],
        loops: Vec::new(),
        rets: Vec::new(),
        inline_depth: 0,
        depth: 0,
        instance: 0,
        errs: Vec::new(),
    };

    // `main` is generated like an inline instance whose join halts.
    let ret_reg = main.ret.map(|t| cg.b.new_reg(Cg::class_of(t)));
    let join = cg.b.new_block("main_exit");
    cg.rets.push(RetCtx { ret_reg, join });
    let gen_ok = cg.gen_body(&main.body).is_ok();
    if gen_ok && !cg.b.is_terminated() {
        if let Some(r) = ret_reg {
            let z = if r.class == RegClass::Fp {
                Operand::FImm(0.0)
            } else {
                Operand::Imm(0)
            };
            cg.mov_to(r, z);
        }
        cg.b.br(join);
    }
    cg.rets.pop();
    cg.b.switch_to(join);
    match ret_reg {
        Some(r) if r.class == RegClass::Gp => {
            cg.b.halt(Operand::Reg(r));
        }
        _ => {
            cg.b.halt_imm(0);
        }
    }

    if !cg.errs.is_empty() {
        return Err(cg.errs);
    }
    if !gen_ok {
        return Err(vec![Diag::new(0, "code generation failed")]);
    }

    let mut module = cg.module;
    let func = cg.b.finish();
    let id = module.add_function(func);
    module.entry = Some(id);
    Ok(module)
}

#[cfg(test)]
mod tests {
    use casted_ir::interp::{self, OutVal};
    use casted_ir::Provenance;

    fn compile(src: &str) -> casted_ir::Module {
        crate::compile("t", src).unwrap_or_else(|e| panic!("compile failed: {e:?}"))
    }

    fn run_ints(src: &str) -> Vec<i64> {
        let m = compile(src);
        let r = interp::run(&m, 50_000_000).unwrap();
        assert!(
            matches!(r.stop, casted_ir::interp::StopReason::Halt(_)),
            "stopped with {:?}",
            r.stop
        );
        r.stream
            .iter()
            .map(|v| match v {
                OutVal::Int(i) => *i,
                OutVal::Float(f) => panic!("unexpected float {f}"),
            })
            .collect()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run_ints("fn main() { out(1 + 2 * 3 - 4 / 2); }"), vec![5]);
        assert_eq!(run_ints("fn main() { out((1 + 2) * 3 % 5); }"), vec![4]);
        assert_eq!(run_ints("fn main() { out(7 & 3 | 8 ^ 1); }"), vec![3 | 9]);
        assert_eq!(run_ints("fn main() { out(1 << 4 >> 2); }"), vec![4]);
        assert_eq!(run_ints("fn main() { out(-5 + 2); }"), vec![-3]);
    }

    #[test]
    fn while_and_for_loops() {
        assert_eq!(
            run_ints("fn main() { var s: int = 0; var i: int = 0; while i < 5 { s = s + i; i = i + 1; } out(s); }"),
            vec![10]
        );
        assert_eq!(
            run_ints("fn main() { var s: int = 0; for i in 0..5 { s = s + i; } out(s); }"),
            vec![10]
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            run_ints(
                "fn main() { var s: int = 0; for i in 0..10 { if i == 3 { continue; } if i == 6 { break; } s = s + i; } out(s); }"
            ),
            vec![0 + 1 + 2 + 4 + 5]
        );
    }

    #[test]
    fn short_circuit_conditions() {
        assert_eq!(
            run_ints(
                "fn main() { var a: int = 1; if a > 0 && a < 5 { out(1); } if a < 0 || a == 1 { out(2); } if !(a == 2) { out(3); } }"
            ),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn nested_if_else_chains() {
        let src = "fn classify(x: int) -> int { if x < 10 { return 0; } else if x < 100 { return 1; } else { return 2; } }\n fn main() { out(classify(5)); out(classify(50)); out(classify(500)); }";
        assert_eq!(run_ints(src), vec![0, 1, 2]);
    }

    #[test]
    fn globals_scalars_and_arrays() {
        let src = "global s: int; global a: [int; 4] = [9, 8, 7, 6];\n fn main() { s = a[0] + a[3]; out(s); a[1] = s; out(a[1]); }";
        assert_eq!(run_ints(src), vec![15, 15]);
    }

    #[test]
    fn local_arrays() {
        let src = "fn main() { var t: [int; 4]; for i in 0..4 { t[i] = i * i; } out(t[3]); }";
        assert_eq!(run_ints(src), vec![9]);
    }

    #[test]
    fn inlining_returns_value() {
        let src = "fn sq(x: int) -> int { return x * x; }\nfn main() { out(sq(7) + sq(2)); }";
        assert_eq!(run_ints(src), vec![53]);
    }

    #[test]
    fn inlining_in_loop_reuses_instance() {
        let src = "fn addone(x: int) -> int { return x + 1; }\nfn main() { var s: int = 0; for i in 0..100 { s = addone(s); } out(s); }";
        assert_eq!(run_ints(src), vec![100]);
    }

    #[test]
    fn nested_calls() {
        let src = "fn a(x: int) -> int { return x + 1; }\nfn b(x: int) -> int { return a(x) * 2; }\nfn main() { out(b(b(1))); }";
        assert_eq!(run_ints(src), vec![10]);
    }

    #[test]
    fn float_arithmetic() {
        let src = "fn main() { var x: float = 1.5; var y: float = x * 2.0 + 0.25; out(int(y * 4.0)); fout(y); }";
        let m = compile(src);
        let r = interp::run(&m, 100_000).unwrap();
        assert_eq!(r.stream[0], OutVal::Int(13));
        assert!(r.stream[1].bit_eq(&OutVal::Float(3.25)));
    }

    #[test]
    fn casts_between_int_and_float() {
        assert_eq!(
            run_ints("fn main() { out(int(float(7) / 2.0)); }"),
            vec![3]
        );
    }

    #[test]
    fn lib_functions_are_marked_library_code() {
        let src = "lib fn l(x: int) -> int { return x * 3; }\nfn main() { out(l(2)); }";
        let m = compile(src);
        let f = m.entry_fn();
        let lib_count = f
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|&&i| f.insn(i).prov == Provenance::LibraryCode)
            .count();
        assert!(lib_count >= 1, "no LibraryCode instructions found");
        assert_eq!(
            interp::run(&m, 100_000).unwrap().stream,
            vec![OutVal::Int(6)]
        );
    }

    #[test]
    fn void_function_call() {
        let src = "global g: int;\nfn bump() { g = g + 1; }\nfn main() { bump(); bump(); out(g); }";
        assert_eq!(run_ints(src), vec![2]);
    }

    #[test]
    fn early_return_skips_rest() {
        let src = "fn f(x: int) -> int { if x > 0 { return 1; } out(99); return 0; }\nfn main() { out(f(5)); }";
        assert_eq!(run_ints(src), vec![1]);
    }

    #[test]
    fn implicit_return_default() {
        let src = "fn f(x: int) -> int { if x > 0 { return 1; } }\nfn main() { out(f(-1)); }";
        assert_eq!(run_ints(src), vec![0]);
    }

    #[test]
    fn main_exit_code() {
        let m = compile("fn main() -> int { return 42; }");
        let r = interp::run(&m, 1000).unwrap();
        assert_eq!(r.exit_code(), Some(42));
    }

    #[test]
    fn constant_index_folds_into_offset() {
        // a[2] with constant index: expect no Shl in the program.
        let m = compile("global a: [int; 4];\nfn main() { out(a[2]); }");
        let f = m.entry_fn();
        let has_shl = f
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .any(|&i| f.insn(i).op == casted_ir::Opcode::Shl);
        assert!(!has_shl);
    }

    #[test]
    fn division_by_zero_is_exception() {
        let m = compile("fn main() { var z: int = 0; out(5 / z); }");
        let r = interp::run(&m, 1000).unwrap();
        assert!(matches!(
            r.stop,
            casted_ir::interp::StopReason::Exception(_)
        ));
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        let src = "fn main() { var x: int = 1; if x == 1 { var x: int = 2; out(x); } out(x); }";
        assert_eq!(run_ints(src), vec![2, 1]);
    }

    /// `n` functions, one a line, each calling the one before twice:
    /// `main` inlines `f0`'s body 2^(n-1) times.
    fn fan_out(n: usize) -> String {
        let mut src = String::from("fn f0(x: int) -> int { return x + 1; }\n");
        for k in 1..n {
            src += &format!("fn f{k}(x: int) -> int {{ return f{}(x) + f{}(x); }}\n", k - 1, k - 1);
        }
        src + &format!("fn main() {{ out(f{}(1)); }}\n", n - 1)
    }

    #[test]
    fn exponential_inlining_is_refused_at_the_instruction_limit() {
        // 2^9 copies of `f0` are well within the limit.
        assert_eq!(run_ints(&fan_out(10)), vec![1024]);
        // 2^22 copies would need gigabytes: refused at a call, once.
        let errs = crate::compile("t", &fan_out(23)).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(
            errs[0].msg,
            format!("inlined code exceeds limit {} IR instructions", super::MAX_INLINED_INSNS)
        );
        assert!((2..=24).contains(&errs[0].line), "not a call's line: {}", errs[0].line);
    }

    #[test]
    fn for_bound_evaluated_once() {
        let src = "global n: int = 3;\nfn main() { var c: int = 0; for i in 0..n { n = 100; c = c + 1; } out(c); }";
        assert_eq!(run_ints(src), vec![3]);
    }
}

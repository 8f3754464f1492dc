//! Reference (functional, untimed) interpreter.
//!
//! Executes a module's entry function sequentially, block by block, in
//! program order. It defines the *golden* behaviour: the cycle-accurate
//! simulator must produce exactly the same output stream and exit code
//! for every program and every scheme (a cross-checked invariant in the
//! integration tests).

use std::collections::HashMap;

use crate::func::{Function, Module};
use crate::insn::{Insn, Operand};
use crate::op::Opcode;
use crate::reg::{Reg, RegClass};
use crate::semantics::{check_addr, eval_pure, ExecError, Val};

/// One element of the observable output stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OutVal {
    /// Emitted by `out`.
    Int(i64),
    /// Emitted by `fout` (compared bitwise for golden-run equality).
    Float(f64),
}

impl OutVal {
    /// Bit-exact equality — the criterion for the `Benign` vs
    /// `DataCorrupt` classification.
    pub fn bit_eq(&self, other: &OutVal) -> bool {
        match (self, other) {
            (OutVal::Int(a), OutVal::Int(b)) => a == b,
            (OutVal::Float(a), OutVal::Float(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// Why execution stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum StopReason {
    /// `halt` executed with this exit code.
    Halt(i64),
    /// A `br.detect` fired: the error-detection code caught a fault.
    Detected,
    /// A runtime exception (the paper's `Exceptions` class).
    Exception(ExecError),
    /// The step/cycle budget was exhausted (the paper's `Time out`
    /// class, "detected by the time-out feature of our simulator").
    Timeout,
}

/// Result of a completed execution.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Termination cause.
    pub stop: StopReason,
    /// Observable output stream.
    pub stream: Vec<OutVal>,
    /// Number of dynamic instructions executed.
    pub dyn_insns: u64,
}

impl ExecResult {
    /// Exit code if the program halted normally.
    pub fn exit_code(&self) -> Option<i64> {
        match self.stop {
            StopReason::Halt(c) => Some(c),
            _ => None,
        }
    }
}

/// Machine memory shared by interpreter and simulator: a flat array of
/// 8-byte words with the module's globals materialized.
#[derive(Clone, Debug)]
pub struct Memory {
    words: Vec<i64>,
}

/// Extra words of addressable scratch space past the last global.
pub const HEAP_SLACK_WORDS: usize = 1024;

impl Memory {
    /// Build memory for `module`: zero-filled, globals initialized.
    pub fn for_module(module: &Module) -> Self {
        let words = (module.data_end() as usize) / 8 + HEAP_SLACK_WORDS;
        let mut mem = Memory {
            words: vec![0; words],
        };
        for g in &module.globals {
            let base = (g.addr / 8) as usize;
            for (i, &v) in g.init.iter().enumerate() {
                mem.words[base + i] = v;
            }
        }
        mem
    }

    /// Size in words.
    #[inline]
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Integer load.
    #[inline]
    pub fn load_int(&self, addr: i64) -> Result<i64, ExecError> {
        Ok(self.words[check_addr(addr, self.words.len())?])
    }

    /// Float load (reinterprets the word's bits).
    #[inline]
    pub fn load_float(&self, addr: i64) -> Result<f64, ExecError> {
        Ok(f64::from_bits(
            self.words[check_addr(addr, self.words.len())?] as u64,
        ))
    }

    /// Integer store.
    #[inline]
    pub fn store_int(&mut self, addr: i64, v: i64) -> Result<(), ExecError> {
        let idx = check_addr(addr, self.words.len())?;
        self.words[idx] = v;
        Ok(())
    }

    /// Float store.
    #[inline]
    pub fn store_float(&mut self, addr: i64, v: f64) -> Result<(), ExecError> {
        let idx = check_addr(addr, self.words.len())?;
        self.words[idx] = v.to_bits() as i64;
        Ok(())
    }

    /// Raw word access for tests.
    pub fn word(&self, idx: usize) -> i64 {
        self.words[idx]
    }
}

/// A register file holding every virtual register of a function.
/// Registers read before being written yield the class's zero value
/// (hardware registers power up holding *something*; zero keeps golden
/// runs deterministic).
#[derive(Clone, Debug)]
pub struct RegFile {
    gp: Vec<i64>,
    fp: Vec<f64>,
    pr: Vec<bool>,
}

impl RegFile {
    /// Sized for `func`'s virtual register counts.
    pub fn for_function(func: &Function) -> Self {
        RegFile {
            gp: vec![0; func.reg_count(RegClass::Gp) as usize],
            fp: vec![0.0; func.reg_count(RegClass::Fp) as usize],
            pr: vec![false; func.reg_count(RegClass::Pr) as usize],
        }
    }

    /// Read `reg`.
    #[inline]
    pub fn get(&self, reg: Reg) -> Val {
        match reg.class {
            RegClass::Gp => Val::I(self.gp[reg.index as usize]),
            RegClass::Fp => Val::F(self.fp[reg.index as usize]),
            RegClass::Pr => Val::B(self.pr[reg.index as usize]),
        }
    }

    /// Write `reg`.
    #[inline]
    pub fn set(&mut self, reg: Reg, v: Val) {
        match reg.class {
            RegClass::Gp => self.gp[reg.index as usize] = v.as_i(),
            RegClass::Fp => self.fp[reg.index as usize] = v.as_f(),
            RegClass::Pr => self.pr[reg.index as usize] = v.as_b(),
        }
    }
}

fn operand_val(rf: &RegFile, op: &Operand) -> Val {
    match op {
        Operand::Reg(r) => rf.get(*r),
        Operand::Imm(v) => Val::I(*v),
        Operand::FImm(v) => Val::F(*v),
    }
}

/// What executing one instruction asks the driver to do next.
enum Step {
    Next,
    Goto(crate::func::BlockId),
    Stop(StopReason),
}

fn exec_insn(
    insn: &Insn,
    rf: &mut RegFile,
    mem: &mut Memory,
    stream: &mut Vec<OutVal>,
) -> Step {
    let op = insn.op;
    match op {
        Opcode::Load | Opcode::FLoad => {
            let base = operand_val(rf, &insn.uses[0]).as_i();
            let addr = base.wrapping_add(insn.imm);
            let res = if op == Opcode::Load {
                mem.load_int(addr).map(Val::I)
            } else {
                mem.load_float(addr).map(Val::F)
            };
            match res {
                Ok(v) => {
                    rf.set(insn.defs[0], v);
                    Step::Next
                }
                Err(e) => Step::Stop(StopReason::Exception(e)),
            }
        }
        Opcode::Store | Opcode::FStore => {
            let base = operand_val(rf, &insn.uses[0]).as_i();
            let addr = base.wrapping_add(insn.imm);
            let v = operand_val(rf, &insn.uses[1]);
            let res = if op == Opcode::Store {
                mem.store_int(addr, v.as_i())
            } else {
                mem.store_float(addr, v.as_f())
            };
            match res {
                Ok(()) => Step::Next,
                Err(e) => Step::Stop(StopReason::Exception(e)),
            }
        }
        Opcode::Out => {
            stream.push(OutVal::Int(operand_val(rf, &insn.uses[0]).as_i()));
            Step::Next
        }
        Opcode::FOut => {
            stream.push(OutVal::Float(operand_val(rf, &insn.uses[0]).as_f()));
            Step::Next
        }
        Opcode::Br => Step::Goto(insn.target.expect("br without target")),
        Opcode::BrCond => {
            if operand_val(rf, &insn.uses[0]).as_b() {
                Step::Goto(insn.target.expect("br.cond without target"))
            } else {
                Step::Goto(insn.target2.expect("br.cond without fallthrough"))
            }
        }
        Opcode::DetectBr => {
            if operand_val(rf, &insn.uses[0]).as_b() {
                Step::Stop(StopReason::Detected)
            } else {
                Step::Next
            }
        }
        Opcode::ChkNe => {
            let a = operand_val(rf, &insn.uses[0]);
            let b = operand_val(rf, &insn.uses[1]);
            if crate::semantics::eval_cmp_vals(crate::op::CmpKind::Ne, a, b) {
                Step::Stop(StopReason::Detected)
            } else {
                Step::Next
            }
        }
        Opcode::Halt => Step::Stop(StopReason::Halt(operand_val(rf, &insn.uses[0]).as_i())),
        Opcode::Nop => Step::Next,
        _ => {
            let vals: Vec<Val> = insn.uses.iter().map(|o| operand_val(rf, o)).collect();
            match eval_pure(op, &vals) {
                Ok(v) => {
                    rf.set(insn.defs[0], v);
                    Step::Next
                }
                Err(e) => Step::Stop(StopReason::Exception(e)),
            }
        }
    }
}

/// Run the module's entry function for at most `step_limit` dynamic
/// instructions. Returns `Err` only for structurally broken IR (no
/// entry); all runtime conditions are reported in
/// [`ExecResult::stop`].
pub fn run(module: &Module, step_limit: u64) -> Result<ExecResult, String> {
    let func = module
        .entry
        .map(|e| &module.functions[e.index()])
        .ok_or_else(|| "module has no entry function".to_string())?;
    let mut rf = RegFile::for_function(func);
    let mut mem = Memory::for_module(module);
    let mut stream = Vec::new();
    let mut dyn_insns: u64 = 0;
    let mut block = func.entry;
    let mut pc = 0usize;

    loop {
        let insns = &func.block(block).insns;
        if pc >= insns.len() {
            return Err(format!(
                "fell off the end of unterminated block {} in {}",
                block.0, func.name
            ));
        }
        let insn = func.insn(insns[pc]);
        dyn_insns += 1;
        if dyn_insns > step_limit {
            return Ok(ExecResult {
                stop: StopReason::Timeout,
                stream,
                dyn_insns,
            });
        }
        match exec_insn(insn, &mut rf, &mut mem, &mut stream) {
            Step::Next => pc += 1,
            Step::Goto(b) => {
                block = b;
                pc = 0;
            }
            Step::Stop(stop) => {
                return Ok(ExecResult {
                    stop,
                    stream,
                    dyn_insns,
                })
            }
        }
    }
}

/// Per-instruction dynamic execution counts, used by the fault-injection
/// harness to profile "the number of dynamic instructions" of the
/// original binary (paper §IV-C) and to aim injections.
pub fn profile(module: &Module, step_limit: u64) -> Result<HashMap<crate::InsnId, u64>, String> {
    let func = module
        .entry
        .map(|e| &module.functions[e.index()])
        .ok_or_else(|| "module has no entry function".to_string())?;
    let mut rf = RegFile::for_function(func);
    let mut mem = Memory::for_module(module);
    let mut stream = Vec::new();
    let mut counts: HashMap<crate::InsnId, u64> = HashMap::new();
    let mut dyn_insns = 0u64;
    let mut block = func.entry;
    let mut pc = 0usize;
    loop {
        let id = func.block(block).insns[pc];
        *counts.entry(id).or_insert(0) += 1;
        dyn_insns += 1;
        if dyn_insns > step_limit {
            return Ok(counts);
        }
        match exec_insn(func.insn(id), &mut rf, &mut mem, &mut stream) {
            Step::Next => pc += 1,
            Step::Goto(b) => {
                block = b;
                pc = 0;
            }
            Step::Stop(_) => return Ok(counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::GlobalClass;
    use crate::op::CmpKind;

    fn run_fn(b: FunctionBuilder) -> ExecResult {
        let mut m = Module::new("t");
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        run(&m, 100_000).unwrap()
    }

    #[test]
    fn arithmetic_and_out() {
        let mut b = FunctionBuilder::new("main");
        let x = b.imm(6);
        let y = b.binop(Opcode::Mul, Operand::Reg(x), Operand::Imm(7));
        b.out(Operand::Reg(y));
        b.halt_imm(0);
        let r = run_fn(b);
        assert_eq!(r.stop, StopReason::Halt(0));
        assert_eq!(r.stream, vec![OutVal::Int(42)]);
    }

    #[test]
    fn loop_sums() {
        // sum 0..10 via a loop.
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let acc0 = b.imm(0);
        let i0 = b.imm(0);
        // loop-carried values: re-assign by writing same registers via Mov
        b.br(body);
        b.switch_to(body);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc0), Operand::Reg(i0));
        b.push(Opcode::MovI, vec![acc0], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i0), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i0], vec![Operand::Reg(i1)]);
        let p = b.cmp(CmpKind::Lt, Operand::Reg(i0), Operand::Imm(10));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc0));
        b.halt_imm(0);
        let r = run_fn(b);
        assert_eq!(r.stream, vec![OutVal::Int(45)]);
    }

    #[test]
    fn globals_and_memory() {
        let mut m = Module::new("t");
        let (_, addr) = m.add_global("g", GlobalClass::Int, 4, vec![10, 20, 30, 40]);
        let mut b = FunctionBuilder::new("main");
        let base = b.imm(addr);
        let v = b.load(base, 16); // g[2]
        b.store(base, 24, Operand::Reg(v)); // g[3] = 30
        let v3 = b.load(base, 24);
        b.out(Operand::Reg(v3));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let r = run(&m, 1000).unwrap();
        assert_eq!(r.stream, vec![OutVal::Int(30)]);
    }

    #[test]
    fn trap_page_faults() {
        let mut b = FunctionBuilder::new("main");
        let base = b.imm(8); // below DATA_BASE
        let _ = b.load(base, 0);
        b.halt_imm(0);
        let r = run_fn(b);
        assert!(matches!(
            r.stop,
            StopReason::Exception(ExecError::MemOutOfBounds(8))
        ));
    }

    #[test]
    fn misaligned_access_faults() {
        let mut b = FunctionBuilder::new("main");
        let base = b.imm(4097);
        let _ = b.load(base, 0);
        b.halt_imm(0);
        let r = run_fn(b);
        assert!(matches!(
            r.stop,
            StopReason::Exception(ExecError::Misaligned(4097))
        ));
    }

    #[test]
    fn detect_br_fires_on_true() {
        let mut b = FunctionBuilder::new("main");
        let p = b.cmp(CmpKind::Ne, Operand::Imm(1), Operand::Imm(2));
        b.push(Opcode::DetectBr, vec![], vec![Operand::Reg(p)]);
        b.halt_imm(0);
        let r = run_fn(b);
        assert_eq!(r.stop, StopReason::Detected);
    }

    #[test]
    fn detect_br_passes_on_false() {
        let mut b = FunctionBuilder::new("main");
        let p = b.cmp(CmpKind::Ne, Operand::Imm(2), Operand::Imm(2));
        b.push(Opcode::DetectBr, vec![], vec![Operand::Reg(p)]);
        b.halt_imm(7);
        let r = run_fn(b);
        assert_eq!(r.stop, StopReason::Halt(7));
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let mut b = FunctionBuilder::new("main");
        let spin = b.new_block("spin");
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        let mut m = Module::new("t");
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let r = run(&m, 1000).unwrap();
        assert_eq!(r.stop, StopReason::Timeout);
    }

    #[test]
    fn float_pipeline() {
        let mut b = FunctionBuilder::new("main");
        let x = b.fimm(1.5);
        let y = b.fbinop(Opcode::FMul, Operand::Reg(x), Operand::FImm(4.0));
        let i = b.new_reg(RegClass::Gp);
        b.push(Opcode::F2I, vec![i], vec![Operand::Reg(y)]);
        b.out(Operand::Reg(i));
        b.fout(Operand::Reg(y));
        b.halt_imm(0);
        let r = run_fn(b);
        assert_eq!(r.stream[0], OutVal::Int(6));
        assert!(r.stream[1].bit_eq(&OutVal::Float(6.0)));
    }

    /// Direct `Memory` error paths: loads and stores outside the
    /// mapped range (below `DATA_BASE`, past the end, misaligned) must
    /// report the faulting address and leave memory untouched.
    #[test]
    fn memory_access_error_paths() {
        let mut m = Module::new("t");
        let (_, addr) = m.add_global("g", GlobalClass::Int, 4, vec![10, 20, 30, 40]);
        let mut mem = Memory::for_module(&m);
        let end = (mem.len_words() as i64) * 8;

        // In-bounds round trip works.
        mem.store_int(addr, 77).unwrap();
        assert_eq!(mem.load_int(addr).unwrap(), 77);

        // Below DATA_BASE: the trap page.
        assert_eq!(mem.load_int(0), Err(ExecError::MemOutOfBounds(0)));
        assert_eq!(mem.store_int(8, 1), Err(ExecError::MemOutOfBounds(8)));
        // Negative addresses.
        assert_eq!(mem.load_int(-8), Err(ExecError::MemOutOfBounds(-8)));
        // One word past the end (and far past).
        assert_eq!(mem.load_int(end), Err(ExecError::MemOutOfBounds(end)));
        assert_eq!(mem.store_int(end + 8192, 1), Err(ExecError::MemOutOfBounds(end + 8192)));
        // Misalignment is reported before the range check.
        assert_eq!(mem.load_int(addr + 1), Err(ExecError::Misaligned(addr + 1)));
        assert_eq!(mem.store_int(addr + 3, 1), Err(ExecError::Misaligned(addr + 3)));
        // Float variants share the same checks.
        assert_eq!(mem.load_float(4), Err(ExecError::Misaligned(4)));
        assert!(mem.store_float(end, 1.0).is_err());

        // The failed stores did not write anything.
        assert_eq!(mem.load_int(addr).unwrap(), 77);
    }

    /// The step limit is exact: a program of dynamic length N halts
    /// under `run(m, N)` and times out under `run(m, N - 1)`, and the
    /// timeout result still carries the output emitted so far.
    #[test]
    fn step_limit_boundary_is_exact() {
        let mut b = FunctionBuilder::new("main");
        let x = b.imm(1); // 1
        b.out(Operand::Reg(x)); // 2
        b.halt_imm(0); // 3
        let mut m = Module::new("t");
        let id = m.add_function(b.finish());
        m.entry = Some(id);

        let exact = run(&m, 3).unwrap();
        assert_eq!(exact.stop, StopReason::Halt(0));
        assert_eq!(exact.dyn_insns, 3);

        let short = run(&m, 2).unwrap();
        assert_eq!(short.stop, StopReason::Timeout);
        assert_eq!(short.stream, vec![OutVal::Int(1)], "partial output survives");
        assert_eq!(short.exit_code(), None);
    }

    /// `exit_code` propagates the halt operand (including register
    /// operands and non-zero codes) and is `None` for every other
    /// stop reason.
    #[test]
    fn exit_code_propagation() {
        // Register-carried non-zero exit code.
        let mut b = FunctionBuilder::new("main");
        let c = b.binop(Opcode::Add, Operand::Imm(40), Operand::Imm(2));
        b.halt(Operand::Reg(c));
        let r = run_fn(b);
        assert_eq!(r.stop, StopReason::Halt(42));
        assert_eq!(r.exit_code(), Some(42));

        // Detected stops have no exit code.
        let mut b = FunctionBuilder::new("main");
        let p = b.cmp(CmpKind::Ne, Operand::Imm(1), Operand::Imm(2));
        b.push(Opcode::DetectBr, vec![], vec![Operand::Reg(p)]);
        b.halt_imm(0);
        assert_eq!(run_fn(b).exit_code(), None);

        // Exceptions have no exit code.
        let mut b = FunctionBuilder::new("main");
        let base = b.imm(8);
        let _ = b.load(base, 0);
        b.halt_imm(0);
        assert_eq!(run_fn(b).exit_code(), None);
    }

    #[test]
    fn profile_counts_loop_iterations() {
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let i0 = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i0), Operand::Imm(1));
        let add_id = *b.block(body).insns.last().unwrap();
        b.push(Opcode::MovI, vec![i0], vec![Operand::Reg(i1)]);
        let p = b.cmp(CmpKind::Lt, Operand::Reg(i0), Operand::Imm(5));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.halt_imm(0);
        let mut m = Module::new("t");
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let counts = profile(&m, 100_000).unwrap();
        assert_eq!(counts[&add_id], 5);
    }
}

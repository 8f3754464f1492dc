//! Hand-built programs for the simulator's unit tests. The crate
//! cannot depend on `casted-passes` (dependency cycle), so tests build
//! trivial one-cluster schedules: `ScheduledProgram::sequential` and
//! `ScheduledProgram::packed`.

use casted_ir::{CmpKind, FunctionBuilder, Module, Opcode, Operand};

/// A `iters`-trip loop summing a 16-word global table (cycled), then
/// emitting the sum: loads, loop-carried registers and a conditional
/// branch in a few lines.
pub(crate) fn looping_module(iters: i64) -> Module {
    let mut m = Module::new("t");
    let (_, addr) = m.add_global("g", casted_ir::func::GlobalClass::Int, 16, (0..16).collect());
    let mut b = FunctionBuilder::new("main");
    let body = b.new_block("body");
    let done = b.new_block("done");
    let acc = b.imm(0);
    let i = b.imm(0);
    b.br(body);
    b.switch_to(body);
    let base = b.imm(addr);
    let m16 = b.binop(Opcode::And, Operand::Reg(i), Operand::Imm(15));
    let sh = b.binop(Opcode::Shl, Operand::Reg(m16), Operand::Imm(3));
    let ea = b.binop(Opcode::Add, Operand::Reg(base), Operand::Reg(sh));
    let v = b.load(ea, 0);
    let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(v));
    b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
    let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
    b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
    let p = b.cmp(CmpKind::Lt, Operand::Reg(i), Operand::Imm(iters));
    b.br_cond(p, body, done);
    b.switch_to(done);
    b.out(Operand::Reg(acc));
    b.halt_imm(0);
    let id = m.add_function(b.finish());
    m.entry = Some(id);
    m
}

//! Hand-built programs for the simulator's unit tests. The crate
//! cannot depend on `casted-passes` (dependency cycle), so tests build
//! trivial one-cluster sequential schedules here.

use std::collections::HashMap;

use casted_ir::vliw::{Bundle, ScheduledBlock, ScheduledProgram};
use casted_ir::{Cluster, CmpKind, FunctionBuilder, MachineConfig, Module, Opcode, Operand};

use crate::machine::SimResult;

/// Sequential single-cluster schedule: one instruction per bundle, in
/// program order.
pub(crate) fn sequential(m: &Module, config: MachineConfig) -> ScheduledProgram {
    let func = m.entry_fn();
    let mut assignment = vec![None; func.insns.len()];
    let mut home = HashMap::new();
    let mut blocks = Vec::new();
    for (bid, block) in func.iter_blocks() {
        let mut bundles = Vec::new();
        for &iid in &block.insns {
            assignment[iid.index()] = Some(Cluster::MAIN);
            for &d in &func.insn(iid).defs {
                home.entry(d).or_insert(Cluster::MAIN);
            }
            let mut b = Bundle::empty(config.clusters);
            b.slots[0].push(iid);
            bundles.push(b);
        }
        blocks.push(ScheduledBlock { block: bid, bundles });
    }
    ScheduledProgram {
        module: m.clone(),
        config,
        assignment,
        home,
        blocks,
    }
}

/// [`sequential`], with each run of up to `width` consecutive
/// instructions of a block that do not read one another's results
/// packed into one bundle.
pub(crate) fn packed(m: &Module, config: MachineConfig, width: usize) -> ScheduledProgram {
    let mut sp = sequential(m, config);
    let func = m.entry_fn();
    for sb in &mut sp.blocks {
        let mut bundles: Vec<Bundle> = Vec::new();
        let mut defs: Vec<casted_ir::Reg> = Vec::new();
        for b in std::mem::take(&mut sb.bundles) {
            let iid = b.slots[0][0];
            let insn = func.insn(iid);
            let joins = bundles.last().is_some_and(|last| {
                last.slots[0].len() < width && !insn.reg_uses().any(|r| defs.contains(&r))
            });
            if !joins {
                bundles.push(Bundle::empty(sp.config.clusters));
                defs.clear();
            }
            bundles.last_mut().unwrap().slots[0].push(iid);
            defs.extend(insn.defs.iter().copied());
        }
        sb.bundles = bundles;
    }
    sp
}

/// Bit-identical results: stop, injection flag, every statistic and
/// the output stream bit for bit.
pub(crate) fn result_eq(a: &SimResult, b: &SimResult) -> bool {
    a.stop == b.stop
        && a.injected == b.injected
        && a.stats == b.stats
        && a.stream.len() == b.stream.len()
        && a.stream.iter().zip(&b.stream).all(|(x, y)| x.bit_eq(y))
}

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

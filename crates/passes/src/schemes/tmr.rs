//! The TMRED transform: triplicate + majority vote.
//!
//! TMRED is the two-stream case of the replication pass in
//! `crate::errordetect`: every eligible instruction gets **two**
//! duplicates, each stream is isolated behind its own rename map (with
//! its own isolation copies after unduplicated producers), and before
//! every non-replicated instruction — store-class and control flow, the
//! exact sites the paper's pass checks — each distinct original
//! register it reads is rewritten with the bitwise majority of itself
//! and its two copies: `vote r, r, rA, rB`. In a fault-free run all
//! three agree and the write is a no-op; under a single-lane strike the
//! two healthy copies out-vote the corrupt one, so execution continues
//! on golden values — detection *with recovery*, where `cmp.ne` +
//! `br.detect` only aborts.
//!
//! Why correction is exact under the single-strike model: the three
//! lanes share no written registers (each stream's rename targets are
//! fresh registers, and a library value the streams consume gets one
//! isolation copy per stream — a shared copy would be a single point of
//! failure that out-votes the healthy original), so one strike perturbs
//! at most one lane's value chain. At every vote site the other two
//! lanes carry the golden value and the bitwise majority
//! `(a&b)|(a&c)|(b&c)` equals it in every bit. The simulator counts a
//! correction whenever vote operands disagree (`SimStats::corrections`),
//! which is what lets the fault classifier tell a repaired run
//! (`Outcome::Corrected`) from one the fault never touched (Benign) —
//! both halt with the golden stream and exit code.

use casted_ir::Module;

use crate::errordetect::{replicate, EdOptions, EdStats};
use crate::schemes::Transform;

/// Run the full TMR transformation on the module's entry function.
/// Returns the same statistics shape as the paper's pass; `checks`
/// counts vote instructions.
pub fn tmr_transform(module: &mut Module) -> EdStats {
    replicate(module, &EdOptions::default(), Transform::Tmr.redundant_streams())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errordetect::tests::sample_module;
    use casted_ir::interp::{self, OutVal, StopReason};
    use casted_ir::{CmpKind, FunctionBuilder, Insn, Opcode, Operand, Provenance, Reg, RegClass};
    use std::collections::HashSet;

    #[test]
    fn transformed_program_behaves_identically() {
        let mut m = sample_module();
        let golden = interp::run(&m, 10_000).unwrap();
        let stats = tmr_transform(&mut m);
        let r = interp::run(&m, 10_000).unwrap();
        assert_eq!(r.stop, golden.stop);
        assert_eq!(r.stream, golden.stream);
        assert!(stats.replicated >= 8, "{stats:?}"); // two dups per eligible insn
        assert!(stats.checks >= 3, "{stats:?}"); // votes at store/out/halt
        assert!(stats.growth() > 2.5, "growth {} too small", stats.growth());
    }

    #[test]
    fn each_eligible_insn_has_two_duplicates() {
        let mut m = sample_module();
        tmr_transform(&mut m);
        let f = m.entry_fn();
        for (_, block) in f.iter_blocks() {
            for (pos, &iid) in block.insns.iter().enumerate() {
                let insn = f.insn(iid);
                if insn.prov == Provenance::Original && insn.op.is_replicable() {
                    assert!(pos >= 2, "original at {pos} lacks two preceding duplicates");
                    for back in [1, 2] {
                        let dup = f.insn(block.insns[pos - back]);
                        assert_eq!(dup.op, insn.op);
                        assert_eq!(dup.prov, Provenance::Duplicate);
                    }
                }
            }
        }
    }

    #[test]
    fn streams_are_register_disjoint() {
        // Neither redundant stream writes an original register, and the
        // two streams never write the same register — the property that
        // makes one strike perturb at most one vote lane.
        let mut m = sample_module();
        let orig_defs: HashSet<Reg> = {
            let f = m.entry_fn();
            f.blocks
                .iter()
                .flat_map(|b| &b.insns)
                .flat_map(|&i| f.insn(i).defs.clone())
                .collect()
        };
        tmr_transform(&mut m);
        let f = m.entry_fn();
        let mut dup_defs: Vec<Reg> = Vec::new();
        for (_, block) in f.iter_blocks() {
            for &iid in &block.insns {
                let insn = f.insn(iid);
                if matches!(
                    insn.prov,
                    Provenance::Duplicate | Provenance::IsolationCopy
                ) {
                    for &d in &insn.defs {
                        assert!(!orig_defs.contains(&d), "stream writes original reg {d}");
                        dup_defs.push(d);
                    }
                }
            }
        }
        // MovI-style redefinitions repeat a register *within* a stream;
        // what must never happen is stream A and B sharing one. The
        // rename maps are disjoint by construction (every target is a
        // fresh `new_reg`), so any repeated def must come from a
        // repeated original def, of which the sample has none.
        let unique: HashSet<&Reg> = dup_defs.iter().collect();
        assert_eq!(unique.len(), dup_defs.len(), "streams share a register");
    }

    #[test]
    fn single_lane_corruption_is_corrected() {
        // Corrupt the ORIGINAL mul result after its duplicates ran: the
        // vote before the store must repair it and the program must
        // halt with the golden stream — where the dup-compare pass
        // would abort with StopReason::Detected.
        let mut m = sample_module();
        tmr_transform(&mut m);
        let f = m.entry_fn_mut();
        let entry = f.entry;
        let list = f.block(entry).insns.clone();
        let (pos, d) = list
            .iter()
            .enumerate()
            .find_map(|(p, &i)| {
                let insn = f.insn(i);
                (insn.op == Opcode::Mul && insn.prov == Provenance::Original)
                    .then(|| (p, insn.def().unwrap()))
            })
            .unwrap();
        let corrupt = Insn::new(
            Opcode::Xor,
            vec![d],
            vec![Operand::Reg(d), Operand::Imm(1 << 5)],
        )
        .with_prov(Provenance::CompilerGen);
        let cid = f.add_insn(corrupt);
        f.block_mut(entry).insns.insert(pos + 1, cid);
        let r = interp::run(&m, 10_000).unwrap();
        assert_eq!(r.stop, StopReason::Halt(0), "vote did not repair the strike");
        assert_eq!(r.stream, vec![OutVal::Int(42)]);
    }

    #[test]
    fn duplicate_lane_corruption_never_outvotes_the_original() {
        // Corrupt ONE redundant copy instead: the original + the other
        // copy hold the majority, so the output stays golden.
        let mut m = sample_module();
        tmr_transform(&mut m);
        let f = m.entry_fn_mut();
        let entry = f.entry;
        let list = f.block(entry).insns.clone();
        let (pos, d) = list
            .iter()
            .enumerate()
            .find_map(|(p, &i)| {
                let insn = f.insn(i);
                (insn.op == Opcode::Mul && insn.prov == Provenance::Duplicate)
                    .then(|| (p, insn.def().unwrap()))
            })
            .unwrap();
        let corrupt = Insn::new(
            Opcode::Xor,
            vec![d],
            vec![Operand::Reg(d), Operand::Imm(0x7F)],
        )
        .with_prov(Provenance::CompilerGen);
        let cid = f.add_insn(corrupt);
        // The two duplicates precede the original: inserting after the
        // first duplicate corrupts stream A before the vote.
        f.block_mut(entry).insns.insert(pos + 1, cid);
        let r = interp::run(&m, 10_000).unwrap();
        assert_eq!(r.stop, StopReason::Halt(0));
        assert_eq!(r.stream, vec![OutVal::Int(42)]);
    }

    #[test]
    fn control_flow_predicates_are_voted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let t = b.new_block("t");
        let e = b.new_block("e");
        let x = b.imm(1);
        let p = b.cmp(CmpKind::Gt, Operand::Reg(x), Operand::Imm(0));
        b.br_cond(p, t, e);
        b.switch_to(t);
        b.halt_imm(1);
        b.switch_to(e);
        b.halt_imm(2);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        tmr_transform(&mut m);
        let f = m.entry_fn();
        let has_pr_vote = f.block(f.entry).insns.iter().any(|&i| {
            let insn = f.insn(i);
            insn.op == Opcode::Vote
                && insn.reg_uses().next().map(|r| r.class) == Some(RegClass::Pr)
        });
        assert!(has_pr_vote, "branch predicate not voted");
        let r = interp::run(&m, 1000).unwrap();
        assert_eq!(r.stop, StopReason::Halt(1));
    }

    #[test]
    fn library_code_gets_isolation_copies_per_stream() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        b.prov = Provenance::LibraryCode;
        let x = b.imm(3);
        let y = b.binop(Opcode::Mul, Operand::Reg(x), Operand::Imm(2));
        b.prov = Provenance::Original;
        let z = b.binop(Opcode::Add, Operand::Reg(y), Operand::Imm(1));
        b.out(Operand::Reg(z));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let stats = tmr_transform(&mut m);
        // One consumed library value, two streams: two separate copies.
        assert_eq!(stats.isolation_copies, 2);
        let r = interp::run(&m, 1000).unwrap();
        assert_eq!(r.stream, vec![OutVal::Int(7)]);
    }

    #[test]
    fn loop_carried_values_survive_transformation() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let acc = b.imm(0);
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(i));
        b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(CmpKind::Lt, Operand::Reg(i), Operand::Imm(10));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        tmr_transform(&mut m);
        let r = interp::run(&m, 100_000).unwrap();
        assert_eq!(r.stream, vec![OutVal::Int(45)]);
        assert_eq!(r.stop, StopReason::Halt(0));
    }
}

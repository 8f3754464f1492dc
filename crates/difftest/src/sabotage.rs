//! Deliberately broken "passes" for oracle self-tests.
//!
//! A differential harness is only trustworthy if it demonstrably
//! *fails* when the compiler is wrong. These mutators model the three
//! classic ways an optimization pass breaks error-detected code, each
//! caught by a different oracle layer (the `catches_*` tests in
//! `oracle_selftest.rs` prove it):
//!
//! * [`drop_first_out`] — an unsound DCE that deletes a live
//!   output-class instruction: caught *semantically* (`ed:*` interp
//!   stage, the output stream diverges from golden).
//! * [`drop_all_checks`] — a DCE that treats every check as dead
//!   (checks have no data uses, so a naive liveness pass deletes them
//!   all): invisible to the semantic diff under zero faults, caught by
//!   the `ed-structure:*` presence oracle.
//! * [`drop_one_check`] — the subtle variant: a single check deleted.
//!   Structure and semantics both still pass; only the targeted
//!   fault-probe layer (`probe:*`) can notice, by finding an injection
//!   at a protected site that now silently corrupts the output.
//!
//! One more breaks the adaptive scheduler's candidate costing rather
//! than a pass:
//!
//! * [`drop_walk_delay`] — a timing-only walk that forgets the
//!   inter-cluster delay. Every output is still right, so only the
//!   costing-walk layer (`walk:*`) can notice, by comparing the walked
//!   counters with a full simulation of the same candidate.

use casted_ir::insn::Provenance;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{Module, Opcode};

/// Delete the first `out`/`fout` of the entry function — an unsound
/// dead-code elimination erasing an observable effect (every
/// generated module outputs its live chains, so this always shortens
/// the stream).
pub fn drop_first_out(m: &mut Module) {
    let f = m.entry_fn_mut();
    for blk in f.blocks.iter_mut() {
        if let Some(pos) = blk
            .insns
            .iter()
            .position(|&id| matches!(f.insns[id.index()].op, Opcode::Out | Opcode::FOut))
        {
            blk.insns.remove(pos);
            return;
        }
    }
}

/// Delete every check instruction (everything the check-insertion
/// step emitted: compare/branch pairs and fused `chk.ne`).
pub fn drop_all_checks(m: &mut Module) {
    let f = m.entry_fn_mut();
    for blk in f.blocks.iter_mut() {
        blk.insns.retain(|&id| {
            !matches!(
                f.insns[id.index()].prov,
                Provenance::CheckCmp | Provenance::CheckBr
            )
        });
    }
}

/// Delete only the *last* detection branch (or fused check) of the
/// entry function — the check guarding the exit block's outputs, in
/// generated modules.
pub fn drop_one_check(m: &mut Module) {
    let f = m.entry_fn_mut();
    for blk in f.blocks.iter_mut().rev() {
        if let Some(pos) = blk.insns.iter().rposition(|&id| {
            matches!(f.insns[id.index()].op, Opcode::DetectBr | Opcode::ChkNe)
        }) {
            blk.insns.remove(pos);
            return;
        }
    }
}

/// Walk a candidate as if remote register reads cost nothing: its
/// timing view is built from a machine without an inter-cluster delay.
pub fn drop_walk_delay(sp: &mut ScheduledProgram) {
    sp.config.inter_cluster_delay = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::testgen::{random_module, GenOptions};
    use casted_passes::errordetect::{error_detection_with, EdOptions};

    fn ed_module() -> Module {
        let mut m = random_module(5, &GenOptions { lib_calls: 0, ..GenOptions::default() });
        error_detection_with(&mut m, &EdOptions::default());
        m
    }

    fn count(m: &Module, pred: impl Fn(&casted_ir::insn::Insn) -> bool) -> usize {
        let f = m.entry_fn();
        f.blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|&&id| pred(f.insn(id)))
            .count()
    }

    #[test]
    fn mutators_remove_what_they_claim() {
        let base = ed_module();
        let outs = count(&base, |i| matches!(i.op, Opcode::Out | Opcode::FOut));
        let checks = count(&base, |i| {
            matches!(i.prov, Provenance::CheckCmp | Provenance::CheckBr)
        });
        assert!(outs > 0 && checks > 2);

        let mut a = base.clone();
        drop_first_out(&mut a);
        assert_eq!(count(&a, |i| matches!(i.op, Opcode::Out | Opcode::FOut)), outs - 1);

        let mut b = base.clone();
        drop_all_checks(&mut b);
        assert_eq!(
            count(&b, |i| matches!(i.prov, Provenance::CheckCmp | Provenance::CheckBr)),
            0
        );

        let mut c = base.clone();
        drop_one_check(&mut c);
        let brs = count(&base, |i| matches!(i.op, Opcode::DetectBr | Opcode::ChkNe));
        assert_eq!(
            count(&c, |i| matches!(i.op, Opcode::DetectBr | Opcode::ChkNe)),
            brs - 1
        );
    }
}

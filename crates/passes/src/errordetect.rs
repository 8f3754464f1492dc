//! Algorithm 1 of the paper — the single-threaded error-detection
//! transformation — as the workspace's one replication pass, for
//! detection (SCED/DCED/CASTED) and for recovery (TMRED) alike.
//!
//! The pass replicates into `N` redundant streams, each with its own
//! side tables (Fig. 4a's duplicate map and Fig. 4b's rename map). The
//! stream count comes from the scheme's [`Transform`]: one for the
//! paper's duplicate-and-compare, two for TMRED's triplicate-and-vote
//! ([`crate::schemes::tmr_transform`], whose module doc carries the
//! correction argument). Three steps, run over the whole entry
//! function:
//!
//! 1. **Replication** (`replicate_insns`): every eligible instruction
//!    gets one exact duplicate per stream emitted *just before* it.
//!    Eligible means: not control flow, not store-class, not
//!    compiler-generated, not unprotected library code (paper §III-B).
//! 2. **Isolation** (`register_rename`): each stream's duplicates are
//!    renamed behind that stream's rename map, so no redundant stream
//!    ever writes an original register or another stream's register.
//!    Values produced by instructions *without* duplicates (library
//!    code) that the redundant streams consume get one isolation copy
//!    per stream (`NEW = OLD`) emitted right after the producer. With
//!    two streams the copies must be separate: a shared one would be a
//!    single point of failure that out-votes the original.
//! 3. **Check insertion** (`emit_check_insns`): before every
//!    non-replicated instruction, each distinct register it reads is
//!    checked against its copies. With one stream that is a compare
//!    (`cmp.ne` to a fresh predicate) followed by a detection branch
//!    (`br.detect`) that diverts execution to the fault handler if they
//!    differ; with two it is `vote r, r, rA, rB`, which writes the
//!    bitwise majority back so execution continues on golden values.
//!
//! The paper's checks are deliberately a **compare + branch pair**
//! ("the checking code consists of compare and jump instructions") —
//! this is what makes check-dense code sequential and reproduces the
//! h263enc scaling anomaly of §IV-B2.
//!
//! [`Transform`]: crate::schemes::Transform

use std::collections::{HashMap, HashSet};

use casted_ir::{
    CmpKind, Function, Insn, InsnId, Module, Opcode, Operand, Provenance, Reg, RegClass,
};

use crate::schemes::Transform;

/// Error-detection variants.
///
/// The default reproduces the paper exactly. The other knobs exist for
/// the ablation studies in `casted-bench`:
///
/// * `fused_checks` — emit a single fused `chk.ne` instruction instead
///   of the paper's `cmp.ne` + `br.detect` pair, quantifying how much
///   of the overhead (and of the h263enc sequential-check effect) the
///   two-instruction encoding is responsible for. Votes have no
///   two-instruction form, so this only affects one-stream checks.
/// * `selective` — Shoestring-style partial redundancy: replicate only
///   the instructions whose values (transitively) feed store-class
///   operands, and check only store-class instructions; control flow
///   is left to symptoms (exceptions/timeouts). Trades coverage for
///   performance, as in the paper's related work [9][14].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdOptions {
    /// Fuse each check pair into one `chk.ne` slot.
    pub fused_checks: bool,
    /// Shoestring-style selective replication.
    pub selective: bool,
}

/// Statistics of one error-detection run (code-growth figures the
/// paper quotes: replicated + checking code more than doubles size).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdStats {
    /// Duplicates emitted (one per eligible instruction and stream).
    pub replicated: usize,
    /// Isolation copies inserted for unduplicated producers.
    pub isolation_copies: usize,
    /// Checks inserted: compare/branch *pairs* (or fused checks) with
    /// one stream, votes with two.
    pub checks: usize,
    /// Registers renamed into the redundant streams (summed size of
    /// the Fig. 4b rename tables).
    pub renamed_regs: usize,
    /// Static size before the pass.
    pub size_before: usize,
    /// Static size after the pass.
    pub size_after: usize,
}

impl EdStats {
    /// Code growth factor (paper: ~2.4x on average).
    pub fn growth(&self) -> f64 {
        if self.size_before == 0 {
            1.0
        } else {
            self.size_after as f64 / self.size_before as f64
        }
    }
}

/// The pass state: the two side tables of Fig. 4, one of each per
/// redundant stream.
struct Ed {
    /// Fig. 4a — original instruction -> its duplicate, per stream.
    dup_of: Vec<HashMap<InsnId, InsnId>>,
    /// Fig. 4b — original register -> renamed register, per stream.
    renamed: Vec<HashMap<Reg, Reg>>,
    stats: EdStats,
}

/// Registers whose values (transitively) reach a store-class operand —
/// the "high-value" set selective replication protects.
fn store_feeding_regs(func: &Function) -> HashSet<Reg> {
    let mut set: HashSet<Reg> = HashSet::new();
    for (_, block) in func.iter_blocks() {
        for &iid in &block.insns {
            let insn = func.insn(iid);
            if insn.op.is_store_class() {
                set.extend(insn.reg_uses());
            }
        }
    }
    loop {
        let mut changed = false;
        for (_, block) in func.iter_blocks() {
            for &iid in &block.insns {
                let insn = func.insn(iid);
                if insn.defs.iter().any(|d| set.contains(d)) {
                    for r in insn.reg_uses() {
                        changed |= set.insert(r);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    set
}

/// Step 1: emit one exact duplicate per stream just before every
/// eligible instruction (stream order, then the original — relative
/// order among them is immaterial once renamed).
fn replicate_insns(func: &mut Function, ed: &mut Ed, opts: &EdOptions) {
    let protected = opts.selective.then(|| store_feeding_regs(func));
    for b in 0..func.blocks.len() {
        let old: Vec<InsnId> = func.blocks[b].insns.clone();
        let mut new_list: Vec<InsnId> = Vec::with_capacity(old.len() * (ed.dup_of.len() + 1));
        for iid in old {
            let insn = func.insn(iid);
            let eligible = insn.is_replicable()
                && protected
                    .as_ref()
                    .map(|set| insn.defs.iter().any(|d| set.contains(d)))
                    .unwrap_or(true);
            if eligible {
                let dup = insn.clone().with_prov(Provenance::Duplicate);
                for dup_of in &mut ed.dup_of {
                    let dup_id = func.add_insn(dup.clone());
                    dup_of.insert(iid, dup_id);
                    ed.stats.replicated += 1;
                    new_list.push(dup_id);
                }
            }
            new_list.push(iid);
        }
        func.blocks[b].insns = new_list;
    }
}

/// Step 2: isolate each redundant stream by renaming every register it
/// writes, inserting one copy per stream after unduplicated producers.
fn register_rename(func: &mut Function, ed: &mut Ed) {
    // The original registers the redundant streams read — identical
    // sets before renaming, so one stream's scan suffices. Producers
    // without duplicates must supply isolation copies for exactly these.
    let dup_consumed: HashSet<Reg> = ed.dup_of[0]
        .values()
        .flat_map(|&dup_id| func.insn(dup_id).reg_uses())
        .collect();

    // Walk instructions in program order; handle each original
    // definition (paper: `for INSN in instructions, skip duplicates`).
    for b in 0..func.blocks.len() {
        let list: Vec<InsnId> = func.blocks[b].insns.clone();
        let mut insertions: Vec<(usize, InsnId)> = Vec::new();
        for (pos, iid) in list.iter().enumerate() {
            let insn = func.insn(*iid);
            if insn.prov == Provenance::Duplicate {
                continue;
            }
            let duplicated = ed.dup_of[0].contains_key(iid);
            let defs: Vec<Reg> = insn.defs.clone();
            for regw in defs {
                // An unduplicated producer (library / compiler-generated
                // code) needs copies only if the redundant streams read
                // its value.
                if !duplicated && !dup_consumed.contains(&regw) {
                    continue;
                }
                for (dup_of, renamed) in ed.dup_of.iter().zip(&mut ed.renamed) {
                    let new_reg = *renamed
                        .entry(regw)
                        .or_insert_with(|| func.new_reg(regw.class));
                    if let Some(&dup_id) = dup_of.get(iid) {
                        // Duplicated producer: rename the duplicate's defs.
                        for d in func.insn_mut(dup_id).defs.iter_mut() {
                            if *d == regw {
                                *d = new_reg;
                            }
                        }
                        continue;
                    }
                    // Unduplicated producer: emit NEW_REG = REGW right
                    // after it.
                    let copy_op = match regw.class {
                        RegClass::Gp => Opcode::MovI,
                        RegClass::Fp => Opcode::FMovI,
                        // Predicate copy via self-comparison is not in
                        // the ISA; duplicate the producer's value with
                        // a cmp against constant-true instead. In
                        // practice predicates are only produced by
                        // compares, which are replicable, so this arm
                        // is unreachable for well-formed programs.
                        RegClass::Pr => Opcode::MovI,
                    };
                    let copy = Insn::new(copy_op, vec![new_reg], vec![Operand::Reg(regw)])
                        .with_prov(Provenance::IsolationCopy);
                    insertions.push((pos + 1, func.add_insn(copy)));
                    ed.stats.isolation_copies += 1;
                }
            }
        }
        // Apply insertions back-to-front so positions stay valid.
        insertions.sort_by(|a, b| b.0.cmp(&a.0));
        for (pos, id) in insertions {
            func.blocks[b].insns.insert(pos, id);
        }
    }

    // Rename each duplicate's *uses* into its own stream.
    for (dup_of, renamed) in ed.dup_of.iter().zip(&ed.renamed) {
        for &dup_id in dup_of.values() {
            let insn = func.insn_mut(dup_id);
            for o in insn.uses.iter_mut() {
                if let Operand::Reg(r) = o {
                    if let Some(&nr) = renamed.get(r) {
                        *r = nr;
                    }
                }
            }
        }
    }
}

/// Step 3: before every non-replicated instruction, check each distinct
/// register it reads against its copies — a `cmp.ne` + `br.detect`
/// pair (or a fused `chk.ne`) with one stream, `vote r, r, rA, rB`
/// with two.
fn emit_check_insns(func: &mut Function, ed: &mut Ed, opts: &EdOptions) {
    for b in 0..func.blocks.len() {
        let list: Vec<InsnId> = func.blocks[b].insns.clone();
        let mut new_list: Vec<InsnId> = Vec::with_capacity(list.len());
        for iid in list {
            let insn = func.insn(iid);
            let wants_checks = if opts.selective {
                // Selective mode checks only the store-class sites;
                // corrupted branches surface as symptoms instead.
                insn.op.is_store_class() && !matches!(insn.prov, Provenance::LibraryCode)
            } else {
                insn.needs_operand_checks()
            };
            if wants_checks
                && !matches!(
                    insn.prov,
                    Provenance::Duplicate | Provenance::CheckCmp | Provenance::CheckBr
                )
            {
                let mut seen = Vec::new();
                let regs: Vec<Reg> = insn.reg_uses().collect();
                for reg in regs {
                    if seen.contains(&reg) {
                        continue;
                    }
                    seen.push(reg);
                    // A value with no redundant copy (produced by
                    // unprotected code and never isolated) has nothing
                    // to compare against.
                    let copies: Option<Vec<Reg>> =
                        ed.renamed.iter().map(|r| r.get(&reg).copied()).collect();
                    match copies.as_deref() {
                        None => continue,
                        Some(&[renamed]) if opts.fused_checks => {
                            // Ablation: one fused compare-and-detect slot.
                            let chk = Insn::new(
                                Opcode::ChkNe,
                                vec![],
                                vec![Operand::Reg(reg), Operand::Reg(renamed)],
                            )
                            .with_prov(Provenance::CheckCmp);
                            new_list.push(func.add_insn(chk));
                        }
                        Some(&[renamed]) => {
                            // The paper's encoding: compare + detect branch.
                            let p = func.new_reg(RegClass::Pr);
                            let cmp = Insn::new(
                                Opcode::Cmp(CmpKind::Ne),
                                vec![p],
                                vec![Operand::Reg(reg), Operand::Reg(renamed)],
                            )
                            .with_prov(Provenance::CheckCmp);
                            new_list.push(func.add_insn(cmp));
                            let br = Insn::new(Opcode::DetectBr, vec![], vec![Operand::Reg(p)])
                                .with_prov(Provenance::CheckBr);
                            new_list.push(func.add_insn(br));
                        }
                        Some(&[a, bb]) => {
                            // Majority of the three lanes, written back.
                            let vote = Insn::new(
                                Opcode::Vote,
                                vec![reg],
                                vec![Operand::Reg(reg), Operand::Reg(a), Operand::Reg(bb)],
                            )
                            .with_prov(Provenance::CheckCmp);
                            new_list.push(func.add_insn(vote));
                        }
                        Some(_) => unreachable!("one or two redundant streams"),
                    }
                    ed.stats.checks += 1;
                }
            }
            new_list.push(iid);
        }
        func.blocks[b].insns = new_list;
    }
}

/// Algorithm 1 over `streams` redundant streams on the module's entry
/// function — the body behind [`Transform::apply`] and both public
/// entry points. Returns statistics.
pub(crate) fn replicate(module: &mut Module, opts: &EdOptions, streams: usize) -> EdStats {
    let func = module.entry_fn_mut();
    let mut ed = Ed {
        dup_of: vec![HashMap::new(); streams],
        renamed: vec![HashMap::new(); streams],
        stats: EdStats {
            size_before: func.static_size(),
            ..EdStats::default()
        },
    };
    replicate_insns(func, &mut ed, opts);
    register_rename(func, &mut ed);
    emit_check_insns(func, &mut ed, opts);
    ed.stats.renamed_regs = ed.renamed.iter().map(HashMap::len).sum();
    ed.stats.size_after = func.static_size();
    debug_assert!(
        casted_ir::verify::verify_function(func).is_ok(),
        "replication pass produced invalid IR"
    );
    ed.stats
}

/// Run the full error-detection transformation (Algorithm 1,
/// `relaxed_main`) on the module's entry function. Returns statistics.
pub fn error_detection(module: &mut Module) -> EdStats {
    error_detection_with(module, &EdOptions::default())
}

/// [`error_detection`] with explicit [`EdOptions`] (ablations).
pub fn error_detection_with(module: &mut Module, opts: &EdOptions) -> EdStats {
    replicate(module, opts, Transform::DupCompare.redundant_streams())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use casted_ir::interp::{self, OutVal, StopReason};
    use casted_ir::FunctionBuilder;

    /// x=6; y=x*7; store/load round trip; out(y).
    pub(crate) fn sample_module() -> Module {
        let mut m = Module::new("t");
        let (_, addr) = m.add_global("g", casted_ir::func::GlobalClass::Int, 2, vec![]);
        let mut b = FunctionBuilder::new("main");
        let x = b.imm(6);
        let y = b.binop(Opcode::Mul, Operand::Reg(x), Operand::Imm(7));
        let base = b.imm(addr);
        b.store(base, 0, Operand::Reg(y));
        let v = b.load(base, 0);
        b.out(Operand::Reg(v));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    #[test]
    fn transformed_program_behaves_identically() {
        let mut m = sample_module();
        let golden = interp::run(&m, 10_000).unwrap();
        let stats = error_detection(&mut m);
        let r = interp::run(&m, 10_000).unwrap();
        assert_eq!(r.stop, golden.stop);
        assert_eq!(r.stream, golden.stream);
        assert!(stats.replicated >= 4); // movs, mul, load
        assert!(stats.checks >= 3); // store base+val, out, halt
        assert!(stats.growth() > 2.0, "growth {} too small", stats.growth());
    }

    #[test]
    fn duplicates_are_placed_before_originals() {
        let mut m = sample_module();
        error_detection(&mut m);
        let f = m.entry_fn();
        for (_, block) in f.iter_blocks() {
            let mut seen_dup_for: Vec<InsnId> = Vec::new();
            for (pos, &iid) in block.insns.iter().enumerate() {
                let insn = f.insn(iid);
                if insn.prov == Provenance::Duplicate {
                    // The next original instruction with same opcode
                    // must follow at pos+1 (exact duplicate just
                    // before the original).
                    let orig = f.insn(block.insns[pos + 1]);
                    assert_eq!(orig.op, insn.op);
                    assert_eq!(orig.prov, Provenance::Original);
                    seen_dup_for.push(iid);
                }
            }
        }
    }

    #[test]
    fn redundant_stream_never_writes_original_registers() {
        let mut m = sample_module();
        let orig_regs: std::collections::HashSet<Reg> = {
            let f = m.entry_fn();
            f.blocks
                .iter()
                .flat_map(|b| &b.insns)
                .flat_map(|&i| f.insn(i).defs.clone())
                .collect()
        };
        error_detection(&mut m);
        let f = m.entry_fn();
        for (_, block) in f.iter_blocks() {
            for &iid in &block.insns {
                let insn = f.insn(iid);
                if insn.prov.is_redundant_stream() {
                    for d in &insn.defs {
                        assert!(
                            !orig_regs.contains(d) || insn.prov == Provenance::CheckCmp,
                            "redundant insn writes original register {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn checks_guard_stores_outs_and_halt() {
        let mut m = sample_module();
        error_detection(&mut m);
        let f = m.entry_fn();
        let block = f.block(f.entry);
        for (pos, &iid) in block.insns.iter().enumerate() {
            let insn = f.insn(iid);
            if insn.op.is_store_class() && insn.prov == Provenance::Original {
                // Walk backwards over the check pairs.
                let mut k = pos;
                let mut found_check = false;
                while k >= 2 {
                    let prev = f.insn(block.insns[k - 1]);
                    if prev.prov == Provenance::CheckBr {
                        found_check = true;
                        k -= 2;
                    } else {
                        break;
                    }
                }
                assert!(found_check, "store-class insn at {pos} has no check");
            }
        }
    }

    #[test]
    fn library_code_is_not_replicated() {
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

        let stats = error_detection(&mut m);
        let f = m.entry_fn();
        // Library mul/mov must not have duplicates...
        let dup_ops: Vec<Opcode> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|&&i| f.insn(i).prov == Provenance::Duplicate)
            .map(|&i| f.insn(i).op)
            .collect();
        assert_eq!(dup_ops, vec![Opcode::Add]);
        // ...but the value flowing from library code into the redundant
        // stream gets an isolation copy.
        assert_eq!(stats.isolation_copies, 1);
        // Program behaviour unchanged.
        let r = interp::run(&m, 1000).unwrap();
        assert_eq!(r.stream, vec![OutVal::Int(7)]);
    }

    #[test]
    fn control_flow_predicates_are_checked() {
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
        error_detection(&mut m);
        let f = m.entry_fn();
        // The entry block must contain a predicate-class check compare.
        let has_pr_check = f
            .block(f.entry)
            .insns
            .iter()
            .any(|&i| {
                let insn = f.insn(i);
                insn.prov == Provenance::CheckCmp
                    && insn.reg_uses().next().map(|r| r.class) == Some(RegClass::Pr)
            });
        assert!(has_pr_check, "branch predicate not checked");
        let r = interp::run(&m, 1000).unwrap();
        assert_eq!(r.stop, StopReason::Halt(1));
    }

    #[test]
    fn injected_fault_in_checked_value_is_detected() {
        // Manually corrupt an original register after the duplicate has
        // produced its copy: the check before `out` must fire.
        let mut m = sample_module();
        error_detection(&mut m);
        // Append a corruption: find the original `mul` def and xor it
        // by inserting a CompilerGen xor right after the original mul.
        let f = m.entry_fn_mut();
        let entry = f.entry;
        let list = f.block(entry).insns.clone();
        let mut mul_pos = None;
        let mut mul_def = None;
        for (pos, &iid) in list.iter().enumerate() {
            let insn = f.insn(iid);
            if insn.op == Opcode::Mul && insn.prov == Provenance::Original {
                mul_pos = Some(pos);
                mul_def = insn.def();
            }
        }
        let (pos, d) = (mul_pos.unwrap(), mul_def.unwrap());
        let corrupt = Insn::new(
            Opcode::Xor,
            vec![d],
            vec![Operand::Reg(d), Operand::Imm(1 << 5)],
        )
        .with_prov(Provenance::CompilerGen);
        let cid = f.add_insn(corrupt);
        f.block_mut(entry).insns.insert(pos + 1, cid);
        let r = interp::run(&m, 10_000).unwrap();
        assert_eq!(r.stop, StopReason::Detected);
    }

    #[test]
    fn double_transformation_is_rejected_implicitly() {
        // Running the pass twice must not replicate duplicates/checks.
        let mut m = sample_module();
        let s1 = error_detection(&mut m);
        let size_after_first = m.entry_fn().static_size();
        let s2 = error_detection(&mut m);
        // Second run finds no Original replicable instructions beyond
        // what it already transformed... originals are still Original,
        // so they get re-duplicated; but duplicates/checks must not be.
        assert!(s2.replicated <= s1.replicated);
        assert!(m.entry_fn().static_size() >= size_after_first);
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

        error_detection(&mut m);
        let r = interp::run(&m, 100_000).unwrap();
        assert_eq!(r.stream, vec![OutVal::Int(45)]);
        assert_eq!(r.stop, StopReason::Halt(0));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::tests::sample_module as sample;
    use super::*;
    use casted_ir::interp::{self, OutVal, StopReason};
    use casted_ir::FunctionBuilder;

    #[test]
    fn fused_checks_preserve_semantics_and_shrink_code() {
        let mut pair = sample();
        let mut fused = sample();
        let sp = error_detection_with(&mut pair, &EdOptions::default());
        let sf = error_detection_with(
            &mut fused,
            &EdOptions {
                fused_checks: true,
                ..Default::default()
            },
        );
        assert_eq!(sp.checks, sf.checks);
        assert!(sf.size_after < sp.size_after, "fused must be smaller");
        let rp = interp::run(&pair, 10_000).unwrap();
        let rf = interp::run(&fused, 10_000).unwrap();
        assert_eq!(rp.stream, rf.stream);
        assert_eq!(rf.stream, vec![OutVal::Int(42)]);
    }

    #[test]
    fn fused_checks_detect_faults() {
        let mut m = sample();
        error_detection_with(
            &mut m,
            &EdOptions {
                fused_checks: true,
                ..Default::default()
            },
        );
        // Corrupt the original mul result right after it executes.
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
        let corrupt = Insn::new(Opcode::Xor, vec![d], vec![Operand::Reg(d), Operand::Imm(4)])
            .with_prov(Provenance::CompilerGen);
        let cid = f.add_insn(corrupt);
        f.block_mut(entry).insns.insert(pos + 1, cid);
        let r = interp::run(&m, 10_000).unwrap();
        assert_eq!(r.stop, StopReason::Detected);
    }

    #[test]
    fn selective_replication_is_cheaper_but_still_guards_stores() {
        let mut full = sample();
        let mut sel = sample();
        let sf = error_detection_with(&mut full, &EdOptions::default());
        let ss = error_detection_with(
            &mut sel,
            &EdOptions {
                selective: true,
                ..Default::default()
            },
        );
        assert!(ss.size_after <= sf.size_after);
        assert!(ss.checks <= sf.checks);
        assert!(ss.checks > 0, "stores must still be checked");
        let r = interp::run(&sel, 10_000).unwrap();
        assert_eq!(r.stream, vec![OutVal::Int(42)]);
    }

    #[test]
    fn selective_skips_branch_only_chains() {
        // A value used only by a branch is not replicated selectively.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let t = b.new_block("t");
        let e = b.new_block("e");
        let cond_src = b.imm(1); // feeds only the branch
        let p = b.cmp(CmpKind::Gt, Operand::Reg(cond_src), Operand::Imm(0));
        b.br_cond(p, t, e);
        b.switch_to(t);
        let v = b.imm(10); // feeds out -> protected
        b.out(Operand::Reg(v));
        b.halt_imm(0);
        b.switch_to(e);
        b.halt_imm(1);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let st = error_detection_with(
            &mut m,
            &EdOptions {
                selective: true,
                ..Default::default()
            },
        );
        // Only the out-feeding mov is replicated; cmp and cond mov are not.
        assert_eq!(st.replicated, 1, "{st:?}");
        let r = interp::run(&m, 1000).unwrap();
        assert_eq!(r.stop, StopReason::Halt(0));
    }
}

//! Backward liveness over a scheduled program, as dense bitsets.
//!
//! One analysis serves the whole back end: the spill check and the
//! physical-register assignment in `casted-passes` derive their live
//! intervals from it, and the simulator's convergence fingerprints and
//! section-store validation hashes mask dead registers with its
//! block live-in sets.
//!
//! It runs over the scheduled bundles in issue order — the order the
//! simulator executes — rather than the source block order. Within a
//! bundle every operand is read before any result is written (VLIW
//! parallel read), so a register a bundle both reads and writes is
//! upward-exposed. The scheduler keeps every def-use order of a
//! register, so these are also the source order's sets.
//!
//! Registers are numbered densely by [`SlotLayout`]: the Gp registers
//! first, then Fp, then Pr. That is the simulator's flat word file and
//! also `Reg`'s `Ord`, so walking a bitset upward visits registers in
//! sorted order.

use crate::func::{BlockId, Function};
use crate::reg::{Reg, RegClass};
use crate::vliw::ScheduledProgram;

/// Where each register class starts in the dense register numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotLayout {
    /// Start of each class in `RegClass::index` order, then the total.
    base: [u32; 4],
}

impl SlotLayout {
    /// The numbering of `func`'s registers.
    pub fn of(func: &Function) -> Self {
        let mut base = [0u32; 4];
        for class in RegClass::ALL {
            base[class.index() + 1] = base[class.index()] + func.reg_count(class);
        }
        SlotLayout { base }
    }

    /// Number of register slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.base[3] as usize
    }

    /// Whether the function has no registers at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of `r`.
    #[inline]
    pub fn slot(&self, r: Reg) -> u32 {
        debug_assert!(r.index < self.base[r.class.index() + 1] - self.base[r.class.index()]);
        self.base[r.class.index()] + r.index
    }

    /// The slot of `class` register `index`.
    #[inline]
    pub fn class_slot(&self, class: RegClass, index: u32) -> usize {
        (self.base[class.index()] + index) as usize
    }

    /// The register held in `slot`.
    pub fn reg(&self, slot: u32) -> Reg {
        let class = RegClass::ALL
            .into_iter()
            .rfind(|c| slot >= self.base[c.index()])
            .expect("slot past the Gp base");
        Reg::new(class, slot - self.base[class.index()])
    }

    /// Bit width of the register in `slot`: the fault model flips one
    /// of these bits.
    #[inline]
    pub fn bits(&self, slot: u32) -> u32 {
        if slot >= self.base[RegClass::Pr.index()] {
            RegClass::Pr.bits()
        } else {
            RegClass::Gp.bits()
        }
    }
}

/// Live-in / live-out register bitsets per block, over
/// [`SlotLayout`] slots.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// The register numbering the bitsets use.
    pub layout: SlotLayout,
    /// Bitset words per block.
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Run the fixed-point dataflow analysis on the entry function's
    /// schedule.
    pub fn of_schedule(sp: &ScheduledProgram) -> Self {
        let func = sp.module.entry_fn();
        let layout = SlotLayout::of(func);
        let words = layout.len().div_ceil(64);
        let n = func.blocks.len();
        let bit = |slot: u32| (slot as usize / 64, 1u64 << (slot % 64));

        // Per-block upward-exposed uses and defs.
        let mut use_set = vec![0u64; n * words];
        let mut def_set = vec![0u64; n * words];
        for sb in &sp.blocks {
            let b = sb.block.index();
            let u = &mut use_set[b * words..(b + 1) * words];
            let d = &mut def_set[b * words..(b + 1) * words];
            for bundle in &sb.bundles {
                for (_, iid) in bundle.iter() {
                    for r in func.insn(iid).reg_uses() {
                        let (w, m) = bit(layout.slot(r));
                        u[w] |= m & !d[w];
                    }
                }
                for (_, iid) in bundle.iter() {
                    for &r in &func.insn(iid).defs {
                        let (w, m) = bit(layout.slot(r));
                        d[w] |= m;
                    }
                }
            }
        }

        // Iterate to the fixed point; blocks in reverse layout order
        // converge fast on reducible CFGs.
        let succs: Vec<Vec<BlockId>> = (0..n).map(|b| func.successors(BlockId(b as u32))).collect();
        let mut live_in = use_set.clone();
        let mut live_out = vec![0u64; n * words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let out = &mut live_out[b * words..(b + 1) * words];
                for s in &succs[b] {
                    let s_in = &live_in[s.index() * words..(s.index() + 1) * words];
                    for (o, &i) in out.iter_mut().zip(s_in) {
                        *o |= i;
                    }
                }
                for w in 0..words {
                    let inn = use_set[b * words + w] | (out[w] & !def_set[b * words + w]);
                    if inn != live_in[b * words + w] {
                        live_in[b * words + w] = inn;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            layout,
            words,
            live_in,
            live_out,
        }
    }

    /// Bitset of the registers live at entry to `block`.
    pub fn live_in(&self, block: BlockId) -> &[u64] {
        &self.live_in[block.index() * self.words..(block.index() + 1) * self.words]
    }

    /// Bitset of the registers live at exit from `block`.
    pub fn live_out(&self, block: BlockId) -> &[u64] {
        &self.live_out[block.index() * self.words..(block.index() + 1) * self.words]
    }
}

/// The slots set in `bits`, in ascending order.
pub fn set_slots(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                w as u32 * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Module;
    use crate::insn::Operand;
    use crate::machine::MachineConfig;
    use crate::op::{CmpKind, Opcode};

    fn analyze(f: Function) -> (Liveness, Vec<Vec<Reg>>, Vec<Vec<Reg>>) {
        let mut m = Module::new("t");
        let id = m.add_function(f);
        m.entry = Some(id);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let l = Liveness::of_schedule(&sp);
        let regs = |bits: &[u64]| set_slots(bits).map(|s| l.layout.reg(s)).collect();
        let n = sp.blocks.len() as u32;
        let live_in = (0..n).map(|b| regs(l.live_in(BlockId(b)))).collect();
        let live_out = (0..n).map(|b| regs(l.live_out(BlockId(b)))).collect();
        (l, live_in, live_out)
    }

    #[test]
    fn straightline_liveness_is_empty_at_boundaries() {
        let mut b = FunctionBuilder::new("f");
        let x = b.imm(1);
        let _y = b.binop(Opcode::Add, Operand::Reg(x), Operand::Imm(1));
        b.halt_imm(0);
        let (_, live_in, live_out) = analyze(b.finish());
        assert!(live_in[0].is_empty());
        assert!(live_out[0].is_empty());
    }

    #[test]
    fn loop_carried_register_is_live_around_backedge() {
        let mut b = FunctionBuilder::new("f");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(CmpKind::Lt, Operand::Reg(i), Operand::Imm(10));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(i));
        b.halt_imm(0);
        let (_, live_in, live_out) = analyze(b.finish());
        // `i` is live into and out of the loop body.
        assert!(live_in[body.index()].contains(&i));
        assert!(live_out[body.index()].contains(&i));
        // `i` is live into the exit block (it is printed there).
        assert!(live_in[done.index()].contains(&i));
        // the loop-local temp is not live anywhere across blocks.
        assert!(!live_in[body.index()].contains(&i1));
    }

    #[test]
    fn value_defined_in_one_branch_used_at_join() {
        let mut b = FunctionBuilder::new("f");
        let t = b.new_block("t");
        let e = b.new_block("e");
        let j = b.new_block("j");
        let x = b.imm(5);
        let v = b.new_reg(RegClass::Gp);
        let p = b.cmp(CmpKind::Gt, Operand::Reg(x), Operand::Imm(0));
        b.br_cond(p, t, e);
        b.switch_to(t);
        b.push(Opcode::MovI, vec![v], vec![Operand::Imm(1)]);
        b.br(j);
        b.switch_to(e);
        b.push(Opcode::MovI, vec![v], vec![Operand::Imm(2)]);
        b.br(j);
        b.switch_to(j);
        b.out(Operand::Reg(v));
        b.halt_imm(0);
        let (_, live_in, live_out) = analyze(b.finish());
        assert!(live_in[j.index()].contains(&v));
        assert!(live_out[t.index()].contains(&v));
        assert!(live_out[e.index()].contains(&v));
        // v is not live into entry (defined before use along all paths).
        assert!(!live_in[0].contains(&v));
    }

    #[test]
    fn a_bundle_reads_before_it_writes() {
        // `x = x + 1` on a register nothing defined earlier: the read
        // is upward-exposed even though the bundle also writes `x`.
        let mut b = FunctionBuilder::new("f");
        let x = b.new_reg(RegClass::Gp);
        b.push(Opcode::Add, vec![x], vec![Operand::Reg(x), Operand::Imm(1)]);
        b.out(Operand::Reg(x));
        b.halt_imm(0);
        let (_, live_in, _) = analyze(b.finish());
        assert_eq!(live_in[0], vec![x]);
    }

    #[test]
    fn slots_number_gp_then_fp_then_pr_in_reg_order() {
        let mut f = Function::new("f");
        for class in [RegClass::Pr, RegClass::Gp, RegClass::Fp, RegClass::Gp] {
            f.new_reg(class);
        }
        let layout = SlotLayout::of(&f);
        assert_eq!(layout.len(), 4);
        let regs: Vec<Reg> = (0..4).map(|s| layout.reg(s)).collect();
        assert!(regs.windows(2).all(|w| w[0] < w[1]), "{regs:?}");
        for (s, r) in regs.iter().enumerate() {
            assert_eq!(layout.slot(*r), s as u32);
        }
        let bits = [0b1001u64, 1 << 3];
        assert_eq!(set_slots(&bits).collect::<Vec<_>>(), vec![0, 3, 67]);
    }
}

//! The scheduled program decoded once into flat per-bundle arrays of
//! word-file slots and word operations.
//!
//! A [`ScheduledProgram`] stores each bundle as per-cluster `Vec`s of
//! instruction ids, and each instruction behind an arena lookup with
//! its own heap-allocated `defs`/`uses`, typed operands and an opcode
//! whose meaning depends on its operand classes. Resolving all of
//! that every cycle costs more than executing the bundle.
//! [`DecodedProgram`] resolves it once, in O(static instructions), and
//! is the only place in the simulator that knows the IR's value
//! classes. The cycle loop (`machine::run_machine`) iterates only
//! these arrays:
//!
//! * **The word file.** The machine's words are the register slots,
//!   then the program's constants ([`DecodedProgram::word_file`]).
//!   Every virtual register is one slot, numbered by [`SlotLayout`]
//!   (the back end's liveness numbering): the Gp registers first, then
//!   Fp, then Pr. A slot holds a raw `u64` word: an integer's bits, a
//!   float's IEEE bits, or a predicate as 0/1. Each distinct
//!   `Imm`/`FImm` word gets one slot past the registers, so every
//!   operand, register or constant, is one index into the file.
//! * **Word operations.** Each opcode, together with its operand
//!   class, becomes a [`WordOp`] that needs no class at run time:
//!   `Cmp` over Fp is a bitwise `Eq`/`Ne` or an IEEE ordered compare,
//!   over Gp and Pr a signed word compare; `Load`/`FLoad` and
//!   `Store`/`FStore` merge, because memory already holds words.
//!
//! Per bundle it holds three contiguous slices, in `Bundle::iter`
//! order (cluster by cluster, slot by slot):
//!
//! * the decoded instructions ([`DecodedOp`]);
//! * every operand slot of those instructions, each instruction's run
//!   addressed by an offset relative to the bundle's first operand —
//!   exactly the layout of the bundle's two-phase parallel read;
//! * the stall list: each register read the schedule cannot prove
//!   ready, with the cluster reading it.
//!
//! **Statically resolved hazards.** Within a block the bundles issue
//! in order, each at least a cycle after the one before. So a read
//! whose last def in the same block is a non-load `d` bundles earlier
//! is ready whenever its bundle is reached if `d` is at least the
//! def's latency, plus the inter-cluster delay when the clusters
//! differ: it can never stall, and the decode leaves it out of the
//! stall list. A read of a value defined in another block, or of a
//! load's result (whose latency is the cache's), stays. The bundle
//! keeps a count of the left-out reads that cross clusters
//! ([`DecodedBundle::proven_cross`]), which the stall scan adds to the
//! cross-cluster reads, so every counter is what a scan over all the
//! reads gives (the unit test below checks it bundle by bundle, on
//! schedules that break latencies as no scheduler does).
//!
//! Decoding is a pure function of the program: the simulated
//! statistics of a decoded run are bit-identical to the IR walk it
//! replaces (`tests/sim_golden.rs` pins every field), and the register
//! words are exactly what the state digests hash, so fingerprints are
//! too.

use std::collections::HashMap;

use casted_ir::vliw::ScheduledProgram;
use casted_ir::{BlockId, Cluster, CmpKind, InsnId, MachineConfig, Opcode, Operand, RegClass};

pub(crate) use casted_ir::liveness::SlotLayout;

/// What an instruction computes on register words, its operand
/// classes already resolved (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WordOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sra,
    /// `MovI`/`FMovI`: copy the word.
    Mov,
    Sel,
    /// Signed word compare: `Cmp` over Gp and Pr, and `Cmp.eq`/`ne`
    /// over Fp, which checks compare bitwise so a flipped NaN bit
    /// still mismatches.
    Cmp(CmpKind),
    /// IEEE compare: `FCmp`, and `Cmp.lt`/`le`/`gt`/`ge` over Fp.
    FCmp(CmpKind),
    FAdd,
    FSub,
    FMul,
    FDiv,
    I2F,
    F2I,
    /// `Load`/`FLoad`.
    Load,
    /// `Store`/`FStore`.
    Store,
    Out,
    FOut,
    Br,
    BrCond,
    DetectBr,
    ChkNe,
    Vote,
    Halt,
    Nop,
}

impl WordOp {
    /// Resolve `op` over operands whose first is of class `class`
    /// (the verifier makes a polymorphic opcode's operands agree).
    fn resolve(op: Opcode, class: RegClass) -> Self {
        use WordOp as W;
        match op {
            Opcode::Add => W::Add,
            Opcode::Sub => W::Sub,
            Opcode::Mul => W::Mul,
            Opcode::Div => W::Div,
            Opcode::Rem => W::Rem,
            Opcode::And => W::And,
            Opcode::Or => W::Or,
            Opcode::Xor => W::Xor,
            Opcode::Shl => W::Shl,
            Opcode::Shr => W::Shr,
            Opcode::Sra => W::Sra,
            Opcode::MovI | Opcode::FMovI => W::Mov,
            Opcode::Sel => W::Sel,
            Opcode::Cmp(k @ (CmpKind::Eq | CmpKind::Ne)) => W::Cmp(k),
            Opcode::Cmp(k) if class == RegClass::Fp => W::FCmp(k),
            Opcode::Cmp(k) => W::Cmp(k),
            Opcode::FCmp(k) => W::FCmp(k),
            Opcode::FAdd => W::FAdd,
            Opcode::FSub => W::FSub,
            Opcode::FMul => W::FMul,
            Opcode::FDiv => W::FDiv,
            Opcode::I2F => W::I2F,
            Opcode::F2I => W::F2I,
            Opcode::Load | Opcode::FLoad => W::Load,
            Opcode::Store | Opcode::FStore => W::Store,
            Opcode::Out => W::Out,
            Opcode::FOut => W::FOut,
            Opcode::Br => W::Br,
            Opcode::BrCond => W::BrCond,
            Opcode::DetectBr => W::DetectBr,
            Opcode::ChkNe => W::ChkNe,
            Opcode::Vote => W::Vote,
            Opcode::Halt => W::Halt,
            Opcode::Nop => W::Nop,
        }
    }
}

/// One instruction as the cycle loop consumes it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedOp {
    pub(crate) cluster: Cluster,
    pub(crate) iid: InsnId,
    pub(crate) word_op: WordOp,
    /// The slot of the defined register, if any (the IR allows at most
    /// one).
    pub(crate) def: Option<u32>,
    /// `op.latency` under the program's latency table (a load's actual
    /// latency still comes from the cache at run time).
    pub(crate) latency: u32,
    pub(crate) imm: i64,
    pub(crate) target: Option<BlockId>,
    pub(crate) target2: Option<BlockId>,
    /// Operand run, relative to the bundle's first operand.
    pub(crate) opnd_off: u32,
    pub(crate) opnd_len: u32,
}

impl DecodedOp {
    /// Index range of this instruction's operands within its bundle's
    /// operand slice (and the bundle's phase-1 word buffer).
    #[inline]
    pub(crate) fn operand_range(&self) -> std::ops::Range<usize> {
        self.opnd_off as usize..(self.opnd_off + self.opnd_len) as usize
    }
}

/// One bundle: ranges into the program-wide arrays, and the reads the
/// decode proved ready that cross clusters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedBundle {
    ops: (u32, u32),
    operands: (u32, u32),
    stalls: (u32, u32),
    /// Register reads left out of the stall list whose producer ran on
    /// the other cluster: each still counts as a cross-cluster read.
    pub(crate) proven_cross: u32,
}

/// The machine-configuration constants the timing rules read
/// (`crate::machine`), resolved once.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Latencies {
    /// Inter-cluster register read delay.
    pub(crate) delay: u64,
    /// Minimum load latency (a cache hit's floor).
    pub(crate) load_hit: u32,
    /// First-level cache latency: a load slower than this is a miss
    /// that occupies an MSHR entry.
    pub(crate) l1_lat: u32,
    pub(crate) mshr_entries: usize,
}

impl Latencies {
    pub(crate) fn of(config: &MachineConfig) -> Self {
        let load_hit = config.latency.load_hit;
        Latencies {
            delay: config.inter_cluster_delay as u64,
            load_hit,
            l1_lat: config.cache_levels.first().map(|c| c.latency).unwrap_or(load_hit),
            mshr_entries: config.mshr_entries,
        }
    }
}

/// The last def of a register slot decoded so far: its block, its
/// bundle within the block, its cluster and, unless it is a load
/// (whose latency is the cache's), its latency.
#[derive(Clone, Copy)]
struct LastDef {
    block: u32,
    bundle: u32,
    cluster: u8,
    latency: Option<u32>,
}

impl LastDef {
    const NONE: LastDef = LastDef {
        block: u32::MAX,
        bundle: 0,
        cluster: 0,
        latency: None,
    };

    /// Whether a read of this def on cluster `reader` at bundle `bundle`
    /// of block `block` is ready whenever that bundle is reached. Within
    /// a block each bundle issues at least a cycle after the one before,
    /// so a producer `d` bundles earlier issued at least `d` cycles
    /// earlier, and its result is readable `latency` cycles after it
    /// issued, `delay` more from the other cluster.
    fn proves_ready(&self, block: u32, bundle: u32, reader: u8, delay: u64) -> bool {
        match self.latency {
            Some(latency) if self.block == block => {
                let cross = if self.cluster != reader { delay } else { 0 };
                (bundle - self.bundle) as u64 >= latency as u64 + cross
            }
            _ => false,
        }
    }
}

/// A [`ScheduledProgram`] flattened for the cycle loops, plus the
/// machine-configuration constants they read per bundle.
pub(crate) struct DecodedProgram {
    pub(crate) layout: SlotLayout,
    ops: Vec<DecodedOp>,
    /// Operand slots into the word file: a register slot, or
    /// `layout.len() + k` for `consts[k]`.
    operands: Vec<u32>,
    /// The program's distinct constant words, in first-use order.
    consts: Vec<u64>,
    stalls: Vec<(u32, u8)>,
    bundles: Vec<DecodedBundle>,
    /// `bundles[block_start[b]..block_start[b + 1]]` is block `b`.
    block_start: Vec<u32>,
    pub(crate) lat: Latencies,
}

impl DecodedProgram {
    /// Decode the entry function's schedule in one pass.
    pub(crate) fn new(sp: &ScheduledProgram) -> Self {
        let func = sp.module.entry_fn();
        let config = &sp.config;
        let lat = &config.latency;
        let layout = SlotLayout::of(func);
        let mut dp = DecodedProgram {
            layout,
            ops: Vec::new(),
            operands: Vec::new(),
            consts: Vec::new(),
            stalls: Vec::new(),
            bundles: Vec::new(),
            block_start: Vec::with_capacity(sp.blocks.len() + 1),
            lat: Latencies::of(config),
        };
        let mut const_slots: HashMap<u64, u32> = HashMap::new();
        let mut last = vec![LastDef::NONE; layout.len()];
        for (b, sb) in sp.blocks.iter().enumerate() {
            let b = b as u32;
            dp.block_start.push(dp.bundles.len() as u32);
            for (k, bundle) in sb.bundles.iter().enumerate() {
                let k = k as u32;
                let (ops_lo, opnd_lo, stalls_lo) =
                    (dp.ops.len(), dp.operands.len(), dp.stalls.len());
                let mut proven_cross = 0;
                for (cluster, iid) in bundle.iter() {
                    let insn = func.insn(iid);
                    debug_assert!(insn.defs.len() <= 1, "multi-def instruction {iid:?}");
                    let class = match insn.uses.first() {
                        Some(Operand::Reg(r)) => r.class,
                        Some(Operand::FImm(_)) => RegClass::Fp,
                        Some(Operand::Imm(_)) | None => RegClass::Gp,
                    };
                    dp.ops.push(DecodedOp {
                        cluster,
                        iid,
                        word_op: WordOp::resolve(insn.op, class),
                        def: insn.def().map(|d| layout.slot(d)),
                        latency: insn.op.latency(lat),
                        imm: insn.imm,
                        target: insn.target,
                        target2: insn.target2,
                        opnd_off: (dp.operands.len() - opnd_lo) as u32,
                        opnd_len: insn.uses.len() as u32,
                    });
                    for o in &insn.uses {
                        let slot = match *o {
                            Operand::Reg(r) => layout.slot(r),
                            Operand::Imm(v) => dp.constant(&mut const_slots, v as u64),
                            Operand::FImm(v) => dp.constant(&mut const_slots, v.to_bits()),
                        };
                        dp.operands.push(slot);
                    }
                    for r in insn.reg_uses() {
                        let slot = layout.slot(r);
                        let def = last[slot as usize];
                        if !def.proves_ready(b, k, cluster.0, dp.lat.delay) {
                            dp.stalls.push((slot, cluster.0));
                        } else if def.cluster != cluster.0 {
                            proven_cross += 1;
                        }
                    }
                }
                // A bundle reads every operand before it writes any.
                for op in &dp.ops[ops_lo..] {
                    if let Some(d) = op.def {
                        last[d as usize] = LastDef {
                            block: b,
                            bundle: k,
                            cluster: op.cluster.0,
                            latency: (op.word_op != WordOp::Load).then_some(op.latency),
                        };
                    }
                }
                dp.bundles.push(DecodedBundle {
                    ops: (ops_lo as u32, dp.ops.len() as u32),
                    operands: (opnd_lo as u32, dp.operands.len() as u32),
                    stalls: (stalls_lo as u32, dp.stalls.len() as u32),
                    proven_cross,
                });
            }
        }
        dp.block_start.push(dp.bundles.len() as u32);
        dp
    }

    /// The slot of the constant `word`, the first of its value.
    fn constant(&mut self, slots: &mut HashMap<u64, u32>, word: u64) -> u32 {
        let next = (self.layout.len() + self.consts.len()) as u32;
        *slots.entry(word).or_insert_with(|| {
            self.consts.push(word);
            next
        })
    }

    /// A power-on word file: every register slot zero, then the
    /// program's constants, so an operand read is one index.
    pub(crate) fn word_file(&self) -> Vec<u64> {
        let mut words = vec![0; self.layout.len()];
        words.extend_from_slice(&self.consts);
        words
    }

    /// The bundles of block `b`, in issue order.
    #[inline]
    pub(crate) fn block(&self, b: BlockId) -> &[DecodedBundle] {
        let i = b.index();
        &self.bundles[self.block_start[i] as usize..self.block_start[i + 1] as usize]
    }

    /// The instructions that bundles `from..to` of block `b` retire
    /// (`to` at most the block's bundle count). Bundles and their
    /// instructions are laid out contiguously, so this is a difference
    /// of two instruction indices.
    pub(crate) fn ops_between(&self, b: BlockId, from: usize, to: usize) -> u64 {
        let start = self.block_start[b.index()] as usize;
        let first_op =
            |k: usize| self.bundles.get(start + k).map_or(self.ops.len(), |g| g.ops.0 as usize);
        (first_op(to) - first_op(from)) as u64
    }

    /// Every bundle of the program, in block order.
    pub(crate) fn bundles(&self) -> &[DecodedBundle] {
        &self.bundles
    }

    /// Where each block's bundles start in [`DecodedProgram::bundles`],
    /// plus one past the last.
    pub(crate) fn block_starts(&self) -> &[u32] {
        &self.block_start
    }

    /// The most instructions one bundle retires.
    pub(crate) fn max_bundle_ops(&self) -> u64 {
        self.bundles.iter().map(|b| (b.ops.1 - b.ops.0) as u64).max().unwrap_or(0)
    }

    /// The bundle's instructions.
    #[inline]
    pub(crate) fn ops(&self, b: &DecodedBundle) -> &[DecodedOp] {
        &self.ops[b.ops.0 as usize..b.ops.1 as usize]
    }

    /// Every operand slot the bundle reads, in instruction order.
    #[inline]
    pub(crate) fn operands(&self, b: &DecodedBundle) -> &[u32] {
        &self.operands[b.operands.0 as usize..b.operands.1 as usize]
    }

    /// The bundle's register slot reads that the decode could not prove
    /// ready, each with its reading cluster.
    #[inline]
    pub(crate) fn stalls(&self, b: &DecodedBundle) -> &[(u32, u8)] {
        &self.stalls[b.stalls.0 as usize..b.stalls.1 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{run_machine, MachineState, SimOptions, SimResult, DEFAULT_MAX_CYCLES};
    use casted_ir::interp::{OutVal, StopReason};
    use casted_ir::testgen::{random_module, GenOptions};
    use casted_ir::Module;
    use casted_util::hash::Fnv64;

    /// The stats digest of every run below on the simulator whose stall
    /// lists held every register read.
    const FULL_SCAN_DIGEST: u64 = 0xb974_a04e_0a17_1888;

    /// Every register read of every bundle, block by block, each with its
    /// reading cluster: the stall lists with no read proven ready.
    fn all_reads(sp: &ScheduledProgram) -> Vec<Vec<Vec<(u32, u8)>>> {
        let func = sp.module.entry_fn();
        let layout = SlotLayout::of(func);
        sp.blocks
            .iter()
            .map(|sb| {
                sb.bundles
                    .iter()
                    .map(|b| {
                        b.iter()
                            .flat_map(|(c, iid)| {
                                func.insn(iid).reg_uses().map(move |r| (layout.slot(r), c.0))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// The bundle last seen issuing: its issue cycle and its cross reads
    /// by the full scan, and the run's cross reads before it.
    type Pending = Option<(u64, u64, u64)>;

    /// The boundary after the pending bundle (or the run's end) shows
    /// the cycle and cross reads the full scan gave it.
    fn check(pending: Pending, cycle: u64, cross_reads: u64) {
        if let Some((issue, before, cross)) = pending {
            assert_eq!(cycle, issue + 1, "issue cycle");
            assert_eq!(cross_reads - before, cross, "cross reads");
        }
    }

    /// Run `sp` from power-on with a hook at every boundary that scans
    /// the bundle about to issue over all its register reads, and check
    /// that the run issued it at that cycle with that many cross reads.
    fn checked_run(sp: &ScheduledProgram) -> SimResult {
        let dp = DecodedProgram::new(sp);
        let reads = all_reads(sp);
        let delay = sp.config.inter_cluster_delay as u64;
        let opts = SimOptions {
            max_cycles: DEFAULT_MAX_CYCLES,
            ..SimOptions::default()
        };
        let mut st = MachineState::fresh(sp, &dp);
        let mut pending: Pending = None;
        let r = run_machine(&dp, &opts, &mut st, false, &mut |st| {
            check(pending, st.cycle, st.stats.cross_reads);
            let (mut issue, mut cross) = (st.cycle, 0);
            for &(slot, reader) in &reads[st.block.index()][st.bundle_idx] {
                let (mut avail, writer) = st.ready[slot as usize];
                if writer != reader {
                    avail += delay;
                    cross += 1;
                }
                issue = issue.max(avail);
            }
            pending = Some((issue, st.stats.cross_reads, cross));
            Some(st.stats.dyn_insns)
        })
        .expect("the hook never stops the run");
        if r.stop != StopReason::Timeout {
            check(pending, r.stats.cycles, r.stats.cross_reads);
        }
        r
    }

    /// `sp` with every odd bundle of each block moved to the second
    /// cluster, so that reads cross clusters at every distance.
    fn alternating(sp: &ScheduledProgram) -> ScheduledProgram {
        let mut sp = sp.clone();
        for sb in &mut sp.blocks {
            for b in sb.bundles.iter_mut().skip(1).step_by(2) {
                let moved = std::mem::take(&mut b.slots[0]);
                for &iid in &moved {
                    sp.assignment[iid.index()] = Some(Cluster(1));
                }
                b.slots[1].extend(moved);
            }
        }
        sp
    }

    /// One instruction per bundle and three per bundle, each also
    /// alternating clusters, at three machine points: schedules that
    /// place consumers at every distance from their producers, closer
    /// than their latencies too, which no scheduler output does.
    fn schedules(m: &Module) -> Vec<ScheduledProgram> {
        let mut out = Vec::new();
        for (issue, delay) in [(1, 1), (2, 2), (4, 4)] {
            let config = MachineConfig::itanium2_like(issue, delay);
            for sp in [
                ScheduledProgram::sequential(m, config.clone()),
                ScheduledProgram::packed(m, config, 3),
            ] {
                out.push(alternating(&sp));
                out.push(sp);
            }
        }
        out
    }

    #[test]
    fn pruned_stall_lists_issue_every_bundle_as_the_full_scan_does() {
        let mut modules: Vec<Module> = casted_workloads::all()
            .iter()
            .map(|w| w.compile().expect("kernels compile"))
            .collect();
        modules.extend((0..6).map(|seed| random_module(seed, &GenOptions::default())));
        let mut h = Fnv64::new();
        for m in &modules {
            for sp in schedules(m) {
                let r = checked_run(&sp);
                assert!(matches!(r.stop, StopReason::Halt(_)), "{}: {:?}", m.name, r.stop);
                h.write(format!("{:?} {:?}", r.stop, r.stats).as_bytes());
                for v in &r.stream {
                    h.write_u64(match v {
                        OutVal::Int(i) => *i as u64,
                        OutVal::Float(f) => f.to_bits(),
                    });
                }
            }
        }
        assert_eq!(h.finish(), FULL_SCAN_DIGEST, "the runs' stats moved");
    }
}

//! The scheduled program decoded once into flat per-bundle arrays of
//! register slots, constant slots and word operations.
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
//! * **Register slots.** Every virtual register is one index into the
//!   machine's flat word file, [`SlotLayout`] (the back end's
//!   liveness numbering): the Gp registers first, then Fp, then Pr.
//!   A slot holds a raw `u64` word: an integer's bits, a float's IEEE
//!   bits, or a predicate as 0/1.
//! * **Constant slots.** Each `Imm`/`FImm` operand becomes an index
//!   past the last register slot, naming its word in the program's
//!   constant table. An operand read is one index either way
//!   ([`DecodedProgram::word`]).
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
//! * the stall list: each register slot read with the cluster reading
//!   it.
//!
//! Decoding is a pure function of the program: the simulated
//! statistics of a decoded run are bit-identical to the IR walk it
//! replaces (`tests/sim_golden.rs` pins every field), and the words
//! are exactly what the state digests hash, so fingerprints are too.

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

/// One bundle: ranges into the program-wide arrays.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedBundle {
    ops: (u32, u32),
    operands: (u32, u32),
    stalls: (u32, u32),
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

/// A [`ScheduledProgram`] flattened for the cycle loops, plus the
/// machine-configuration constants they read per bundle.
pub(crate) struct DecodedProgram {
    pub(crate) layout: SlotLayout,
    ops: Vec<DecodedOp>,
    /// Operand slots: a register slot, or `layout.len() + k` for
    /// `consts[k]`.
    operands: Vec<u32>,
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
        for sb in &sp.blocks {
            dp.block_start.push(dp.bundles.len() as u32);
            for bundle in &sb.bundles {
                let (ops_lo, opnd_lo, stalls_lo) =
                    (dp.ops.len(), dp.operands.len(), dp.stalls.len());
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
                            Operand::Imm(v) => dp.constant(v as u64),
                            Operand::FImm(v) => dp.constant(v.to_bits()),
                        };
                        dp.operands.push(slot);
                    }
                    dp.stalls
                        .extend(insn.reg_uses().map(|r| (layout.slot(r), cluster.0)));
                }
                dp.bundles.push(DecodedBundle {
                    ops: (ops_lo as u32, dp.ops.len() as u32),
                    operands: (opnd_lo as u32, dp.operands.len() as u32),
                    stalls: (stalls_lo as u32, dp.stalls.len() as u32),
                });
            }
        }
        dp.block_start.push(dp.bundles.len() as u32);
        dp
    }

    /// A fresh constant slot holding `word`.
    fn constant(&mut self, word: u64) -> u32 {
        self.consts.push(word);
        (self.layout.len() + self.consts.len() - 1) as u32
    }

    /// The word operand slot `o` reads: register `regs[o]`, or past
    /// the registers a constant.
    #[inline]
    pub(crate) fn word(&self, regs: &[u64], o: u32) -> u64 {
        match regs.get(o as usize) {
            Some(&w) => w,
            None => self.consts[o as usize - regs.len()],
        }
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

    /// The bundle's register slot reads, each with its reading cluster.
    #[inline]
    pub(crate) fn stalls(&self, b: &DecodedBundle) -> &[(u32, u8)] {
        &self.stalls[b.stalls.0 as usize..b.stalls.1 as usize]
    }
}

//! The scheduled program decoded once into flat per-bundle arrays.
//!
//! A [`ScheduledProgram`] stores each bundle as per-cluster `Vec`s of
//! instruction ids, and each instruction behind an arena lookup with
//! its own heap-allocated `defs`/`uses`. Walking that every cycle —
//! flattening the slots, chasing the arena, filtering register reads
//! once for the stall check and again for the operand read, looking up
//! latencies — costs more than executing the bundle. [`DecodedProgram`]
//! does that walk once, in O(static instructions), and the cycle loop
//! (`machine::run_machine`) and the scheduled-code liveness walk
//! iterate only these arrays.
//!
//! Per bundle it holds three contiguous slices, in `Bundle::iter`
//! order (cluster by cluster, slot by slot):
//!
//! * the decoded instructions ([`DecodedOp`]);
//! * every operand of those instructions, each instruction's run
//!   addressed by an offset relative to the bundle's first operand —
//!   exactly the layout of the bundle's two-phase parallel read;
//! * the stall list: each register read with the cluster reading it.
//!
//! Decoding is a pure function of the program: the simulated
//! statistics of a decoded run are bit-identical to the IR walk it
//! replaces (`tests/sim_golden.rs` pins every field).

use casted_ir::vliw::ScheduledProgram;
use casted_ir::{BlockId, Cluster, InsnId, Opcode, Operand, Reg};

/// One instruction as the cycle loop consumes it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedOp {
    pub(crate) cluster: Cluster,
    pub(crate) iid: InsnId,
    pub(crate) op: Opcode,
    /// The defined register, if any (the IR allows at most one).
    pub(crate) def: Option<Reg>,
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
    /// operand slice (and the bundle's phase-1 value buffer).
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

/// A [`ScheduledProgram`] flattened for the cycle loops, plus the
/// machine-configuration constants they read per bundle.
pub(crate) struct DecodedProgram {
    ops: Vec<DecodedOp>,
    operands: Vec<Operand>,
    stalls: Vec<(Reg, u8)>,
    bundles: Vec<DecodedBundle>,
    /// `bundles[block_start[b]..block_start[b + 1]]` is block `b`.
    block_start: Vec<u32>,
    /// Inter-cluster register read delay.
    pub(crate) delay: u64,
    /// Minimum load latency (a cache hit's floor).
    pub(crate) load_hit: u32,
    /// First-level cache latency: a load slower than this is a miss
    /// that occupies an MSHR entry.
    pub(crate) l1_lat: u32,
    pub(crate) mshr_entries: usize,
}

impl DecodedProgram {
    /// Decode the entry function's schedule in one pass.
    pub(crate) fn new(sp: &ScheduledProgram) -> Self {
        let func = sp.module.entry_fn();
        let config = &sp.config;
        let lat = &config.latency;
        let mut dp = DecodedProgram {
            ops: Vec::new(),
            operands: Vec::new(),
            stalls: Vec::new(),
            bundles: Vec::new(),
            block_start: Vec::with_capacity(sp.blocks.len() + 1),
            delay: config.inter_cluster_delay as u64,
            load_hit: lat.load_hit,
            l1_lat: config
                .cache_levels
                .first()
                .map(|c| c.latency)
                .unwrap_or(lat.load_hit),
            mshr_entries: config.mshr_entries,
        };
        for sb in &sp.blocks {
            dp.block_start.push(dp.bundles.len() as u32);
            for bundle in &sb.bundles {
                let (ops_lo, opnd_lo, stalls_lo) =
                    (dp.ops.len(), dp.operands.len(), dp.stalls.len());
                for (cluster, iid) in bundle.iter() {
                    let insn = func.insn(iid);
                    debug_assert!(insn.defs.len() <= 1, "multi-def instruction {iid:?}");
                    dp.ops.push(DecodedOp {
                        cluster,
                        iid,
                        op: insn.op,
                        def: insn.def(),
                        latency: insn.op.latency(lat),
                        imm: insn.imm,
                        target: insn.target,
                        target2: insn.target2,
                        opnd_off: (dp.operands.len() - opnd_lo) as u32,
                        opnd_len: insn.uses.len() as u32,
                    });
                    dp.operands.extend_from_slice(&insn.uses);
                    dp.stalls.extend(insn.reg_uses().map(|r| (r, cluster.0)));
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

    /// Number of scheduled blocks.
    pub(crate) fn block_count(&self) -> usize {
        self.block_start.len() - 1
    }

    /// The bundles of block `b`, in issue order.
    #[inline]
    pub(crate) fn block(&self, b: BlockId) -> &[DecodedBundle] {
        let i = b.index();
        &self.bundles[self.block_start[i] as usize..self.block_start[i + 1] as usize]
    }

    /// The bundle's instructions.
    #[inline]
    pub(crate) fn ops(&self, b: &DecodedBundle) -> &[DecodedOp] {
        &self.ops[b.ops.0 as usize..b.ops.1 as usize]
    }

    /// Every operand the bundle reads, in instruction order.
    #[inline]
    pub(crate) fn operands(&self, b: &DecodedBundle) -> &[Operand] {
        &self.operands[b.operands.0 as usize..b.operands.1 as usize]
    }

    /// The bundle's register reads, each with its reading cluster.
    #[inline]
    pub(crate) fn stalls(&self, b: &DecodedBundle) -> &[(Reg, u8)] {
        &self.stalls[b.stalls.0 as usize..b.stalls.1 as usize]
    }
}

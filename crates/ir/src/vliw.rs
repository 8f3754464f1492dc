//! Machine-level scheduled program representation.
//!
//! After cluster assignment (SCED/DCED fixed placement or CASTED's BUG)
//! and list scheduling, the code of each basic block becomes a dense
//! sequence of [`Bundle`]s — one per issue cycle — holding the
//! instructions issued by each cluster in that cycle. The two clusters
//! run in lockstep: the simulator fetches one bundle per cycle and
//! stalls the *whole* machine while any instruction in the bundle waits
//! for an operand (cache miss or inter-cluster register transfer).

use std::collections::HashMap;

use crate::func::{BlockId, Module};
use crate::insn::InsnId;
use crate::machine::{Cluster, MachineConfig};
use crate::reg::Reg;

/// Instructions issued in one cycle, separated per cluster.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bundle {
    /// `slots[cluster][k]` = k-th instruction issued by that cluster
    /// this cycle; at most `issue_width` entries per cluster.
    pub slots: Vec<Vec<InsnId>>,
}

impl Bundle {
    /// An empty bundle for a machine with `clusters` clusters.
    pub fn empty(clusters: usize) -> Self {
        Bundle {
            slots: vec![Vec::new(); clusters],
        }
    }

    /// Total instructions in the bundle.
    pub fn count(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum()
    }

    /// Iterate `(cluster, insn)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Cluster, InsnId)> + '_ {
        self.slots.iter().enumerate().flat_map(|(c, v)| {
            v.iter().map(move |&i| (Cluster(c as u8), i))
        })
    }
}

/// The schedule of one basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledBlock {
    /// The block this schedule belongs to.
    pub block: BlockId,
    /// One bundle per cycle; the static schedule length is
    /// `bundles.len()`.
    pub bundles: Vec<Bundle>,
}

impl ScheduledBlock {
    /// Static schedule length in cycles.
    pub fn length(&self) -> usize {
        self.bundles.len()
    }
}

/// A fully scheduled program: the transformed module plus, for its
/// entry function, a per-block schedule, a per-instruction cluster
/// assignment, and a home cluster per virtual register.
#[derive(Clone, Debug)]
pub struct ScheduledProgram {
    /// The (possibly error-detection-transformed) module.
    pub module: Module,
    /// Machine configuration the schedule was produced for.
    pub config: MachineConfig,
    /// Cluster of each placed instruction of the entry function,
    /// indexed by `InsnId`; `None` for unplaced (dead) arena entries.
    pub assignment: Vec<Option<Cluster>>,
    /// Home cluster of each virtual register: the cluster whose
    /// register file holds the value (the cluster of its first-placed
    /// definition). Reads from the other cluster pay
    /// `config.inter_cluster_delay`.
    pub home: HashMap<Reg, Cluster>,
    /// Per-block schedules, indexed by block id.
    pub blocks: Vec<ScheduledBlock>,
}

impl ScheduledProgram {
    /// The simplest valid schedule of `module`'s entry function for
    /// `config`: one instruction per bundle on the main cluster, in
    /// program order. Tests use it to isolate simulator semantics from
    /// the scheduler's choices.
    pub fn sequential(module: &Module, config: MachineConfig) -> Self {
        let func = module.entry_fn();
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
            module: module.clone(),
            config,
            assignment,
            home,
            blocks,
        }
    }

    /// [`ScheduledProgram::sequential`], greedily packed on the main
    /// cluster: consecutive instructions of a block share a bundle of up
    /// to `width` while none reads a register an earlier one in the
    /// bundle defines. Operands are read before any writeback (VLIW
    /// parallel read), so the packing keeps the sequential schedule's
    /// values and only moves the timing — and it puts several dynamic
    /// instructions behind one bundle boundary.
    pub fn packed(module: &Module, config: MachineConfig, width: usize) -> Self {
        let mut sp = Self::sequential(module, config);
        let func = module.entry_fn();
        for sb in &mut sp.blocks {
            let mut bundles: Vec<Bundle> = Vec::new();
            let mut defs: Vec<Reg> = Vec::new();
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

    /// Cluster of a placed instruction.
    #[inline]
    pub fn cluster_of(&self, insn: InsnId) -> Option<Cluster> {
        self.assignment.get(insn.index()).copied().flatten()
    }

    /// Home cluster of a register (defaults to cluster 0 for registers
    /// never defined — e.g. read-before-write in synthetic tests).
    #[inline]
    pub fn home_of(&self, reg: Reg) -> Cluster {
        self.home.get(&reg).copied().unwrap_or(Cluster::MAIN)
    }

    /// Sum of static schedule lengths over all blocks (a crude static
    /// cost; the dynamic cycle count comes from the simulator).
    pub fn total_static_length(&self) -> usize {
        self.blocks.iter().map(|b| b.length()).sum()
    }

    /// Number of instructions placed on each cluster (for balance
    /// diagnostics — the paper notes CASTED "balances the use of
    /// hardware resources").
    pub fn cluster_occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.config.clusters];
        for a in self.assignment.iter().flatten() {
            occ[a.index()] += 1;
        }
        occ
    }

    /// Total bundles (issue cycles) in the static schedule.
    pub fn bundle_count(&self) -> usize {
        self.blocks.iter().map(|b| b.bundles.len()).sum()
    }

    /// Empty issue slots across the static schedule — the NOPs a real
    /// VLIW encoding would emit. Capacity is
    /// `clusters × issue_width` per bundle.
    pub fn nop_slots(&self) -> usize {
        let capacity = self.config.clusters * self.config.issue_width;
        self.blocks
            .iter()
            .flat_map(|b| &b.bundles)
            .map(|bu| capacity - bu.count())
            .sum()
    }

    /// Static data edges whose consumer sits on a different cluster
    /// than the value's home register file — each is an inter-cluster
    /// copy the interconnect must carry (what the BUG heuristic trades
    /// against parallelism when splitting error-detection code).
    pub fn cross_cluster_edges(&self) -> usize {
        let func = self.module.entry_fn();
        let mut edges = 0usize;
        for sb in &self.blocks {
            for bundle in &sb.bundles {
                for (cluster, iid) in bundle.iter() {
                    edges += func
                        .insn(iid)
                        .reg_uses()
                        .filter(|&r| self.home_of(r) != cluster)
                        .count();
                }
            }
        }
        edges
    }

    /// Structural validation of the schedule against the entry
    /// function: every block instruction placed exactly once, slot
    /// counts within issue width, terminators in the final bundle, and
    /// every placed instruction assigned to the cluster whose slot list
    /// contains it.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let func = self.module.entry_fn();
        if self.blocks.len() != func.blocks.len() {
            errs.push(format!(
                "schedule covers {} blocks, function has {}",
                self.blocks.len(),
                func.blocks.len()
            ));
        }
        for sb in &self.blocks {
            let block = func.block(sb.block);
            let mut placed: Vec<InsnId> = Vec::new();
            for (cycle, bundle) in sb.bundles.iter().enumerate() {
                if bundle.slots.len() != self.config.clusters {
                    errs.push(format!(
                        "b{} cycle {}: bundle has {} cluster lanes, machine has {}",
                        sb.block.0,
                        cycle,
                        bundle.slots.len(),
                        self.config.clusters
                    ));
                    continue;
                }
                for (c, lane) in bundle.slots.iter().enumerate() {
                    if lane.len() > self.config.issue_width {
                        errs.push(format!(
                            "b{} cycle {} cluster {}: {} insns exceed issue width {}",
                            sb.block.0,
                            cycle,
                            c,
                            lane.len(),
                            self.config.issue_width
                        ));
                    }
                    for &iid in lane {
                        if self.cluster_of(iid) != Some(Cluster(c as u8)) {
                            errs.push(format!(
                                "insn {} scheduled on cluster {} but assigned {:?}",
                                iid.0,
                                c,
                                self.cluster_of(iid)
                            ));
                        }
                        placed.push(iid);
                    }
                }
            }
            let mut expected: Vec<InsnId> = block.insns.clone();
            let mut got = placed.clone();
            expected.sort();
            got.sort();
            if expected != got {
                errs.push(format!(
                    "b{}: scheduled instruction set differs from block contents ({} vs {})",
                    sb.block.0,
                    got.len(),
                    expected.len()
                ));
            }
            // Terminator must be in the last bundle.
            if let Some(term) = func.terminator(sb.block) {
                let in_last = sb
                    .bundles
                    .last()
                    .map(|b| b.iter().any(|(_, i)| i == term))
                    .unwrap_or(false);
                if !in_last {
                    errs.push(format!("b{}: terminator not in final bundle", sb.block.0));
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Render a block's schedule as a table (used by the motivating
    /// example binary to print Fig. 2/3-style schedules).
    pub fn render_block(&self, block: BlockId) -> String {
        let func = self.module.entry_fn();
        let sb = &self.blocks[block.index()];
        let mut s = String::new();
        s.push_str(&format!(
            "block {} ({} cycles)\n",
            func.block(block).name,
            sb.length()
        ));
        for (cycle, bundle) in sb.bundles.iter().enumerate() {
            let lanes: Vec<String> = bundle
                .slots
                .iter()
                .map(|lane| {
                    let ops: Vec<String> = lane
                        .iter()
                        .map(|&i| crate::print::format_insn(func, func.insn(i)))
                        .collect();
                    if ops.is_empty() {
                        "-".to_string()
                    } else {
                        ops.join(" || ")
                    }
                })
                .collect();
            s.push_str(&format!("  {:>3}: {}\n", cycle, lanes.join("   |   ")));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::insn::Operand;
    use crate::op::Opcode;

    fn tiny_program() -> (Module, Vec<InsnId>) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let x = b.imm(1);
        let y = b.binop(Opcode::Add, Operand::Reg(x), Operand::Imm(1));
        b.out(Operand::Reg(y));
        b.halt_imm(0);
        let ids = b.func().block(b.func().entry).insns.clone();
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        (m, ids)
    }

    #[test]
    fn sequential_schedule_validates() {
        let (m, _) = tiny_program();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        sp.validate().expect("schedule must validate");
        assert_eq!(sp.total_static_length(), 4);
        assert_eq!(sp.cluster_occupancy(), vec![4, 0]);
    }

    #[test]
    fn over_width_bundle_fails_validation() {
        let (m, ids) = tiny_program();
        let mut sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        // Cram everything into one bundle on a 1-wide machine.
        let mut b = Bundle::empty(2);
        for &i in &ids {
            b.slots[0].push(i);
        }
        sp.blocks[0].bundles = vec![b];
        let errs = sp.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("exceed issue width")));
    }

    #[test]
    fn missing_insn_fails_validation() {
        let (m, _) = tiny_program();
        let mut sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        sp.blocks[0].bundles.remove(0);
        let errs = sp.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("differs from block contents")));
    }

    #[test]
    fn wrong_cluster_fails_validation() {
        let (m, ids) = tiny_program();
        let mut sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        sp.assignment[ids[0].index()] = Some(Cluster::REDUNDANT);
        let errs = sp.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("assigned")));
    }

    #[test]
    fn render_is_nonempty() {
        let (m, _) = tiny_program();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let entry = sp.module.entry_fn().entry;
        let text = sp.render_block(entry);
        assert!(text.contains("mov"));
        assert!(text.contains("halt"));
    }
}

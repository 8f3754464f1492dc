//! Linear-scan assignment of virtual registers to physical per-cluster
//! register indices.
//!
//! The simulator executes on virtual registers (each with a home
//! cluster), so this mapping is not needed for timing — it exists to
//! *prove* that the schedule respects the architectural register files
//! of Table I (64GP / 64FL / 32PR per cluster) after the spiller has
//! run, and to let the printer show architecturally meaningful names.

use std::collections::HashMap;

use casted_ir::vliw::ScheduledProgram;
use casted_ir::{Reg, RegClass};

use crate::spill::{intervals, Interval};

/// Result of physical assignment.
#[derive(Clone, Debug, Default)]
pub struct PhysAssignment {
    /// Virtual register -> physical index within its home cluster's
    /// file of its class.
    pub map: HashMap<Reg, u32>,
    /// Peak number of simultaneously allocated physical registers, per
    /// `[cluster][class.index()]`.
    pub peak: Vec<[u32; 3]>,
}

impl PhysAssignment {
    /// Physical index assigned to `reg`, if it was live at all.
    pub fn phys(&self, reg: Reg) -> Option<u32> {
        self.map.get(&reg).copied()
    }
}

/// Assign physical registers by linear scan over the conservative live
/// intervals. Fails with a descriptive message if any (cluster, class)
/// group needs more registers than the file provides — callers must
/// spill and reschedule first.
pub fn assign_physical(sp: &ScheduledProgram) -> Result<PhysAssignment, String> {
    let ivs = intervals(sp);
    let mut out = PhysAssignment {
        map: HashMap::new(),
        peak: vec![[0; 3]; sp.config.clusters],
    };

    // Group intervals by (home cluster, class), walked in that order
    // so an overflow always names the same group.
    let mut groups: Vec<Vec<Interval>> = vec![Vec::new(); sp.config.clusters * 3];
    for iv in ivs {
        let c = sp.home_of(iv.reg).index();
        groups[c * 3 + iv.reg.class.index()].push(iv);
    }

    for (g, mut group) in groups.into_iter().enumerate() {
        let (cluster, class_idx) = (g / 3, g % 3);
        let class = RegClass::ALL[class_idx];
        let limit = class.file_size() as u32;
        group.sort_by_key(|iv| (iv.start, iv.end));
        // Free list of physical indices; active = (end, phys).
        let mut free: Vec<u32> = (0..limit).rev().collect();
        let mut active: Vec<(u32, u32)> = Vec::new();
        let mut peak = 0u32;
        for iv in group {
            // Expire finished intervals.
            active.retain(|&(end, phys)| {
                if end < iv.start {
                    free.push(phys);
                    false
                } else {
                    true
                }
            });
            let Some(phys) = free.pop() else {
                return Err(format!(
                    "register file overflow: cluster {cluster} class {class} needs more than {limit} registers"
                ));
            };
            active.push((iv.end, phys));
            peak = peak.max(active.len() as u32);
            out.map.insert(iv.reg, phys);
        }
        out.peak[cluster][class_idx] = peak;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule_function, Placement};
    use casted_ir::{CmpKind, Cluster, FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    fn module_with_values(k: usize) -> Module {
        // Def chain consumed in reverse: pressure = k at the crossover
        // regardless of scheduling.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let mut prev = b.imm(1);
        let mut regs = vec![prev];
        for _ in 1..k {
            prev = b.binop(Opcode::Add, Operand::Reg(prev), Operand::Imm(1));
            regs.push(prev);
        }
        let mut acc = b.imm(0);
        for r in regs.iter().rev() {
            acc = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(*r));
        }
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    #[test]
    fn assignment_fits_and_is_injective_while_live() {
        let m = module_with_values(30);
        let cfg = MachineConfig::perfect_memory(2, 1);
        let sp = schedule_function(&m, &cfg, Placement::AllOn(Cluster::MAIN));
        let pa = assign_physical(&sp).unwrap();
        // Peak within file size.
        assert!(pa.peak[0][0] <= 64);
        // Overlapping intervals never share a physical index.
        let ivs = intervals(&sp);
        for a in &ivs {
            for b in &ivs {
                if a.reg != b.reg
                    && a.reg.class == b.reg.class
                    && sp.home_of(a.reg) == sp.home_of(b.reg)
                    && a.start <= b.end
                    && b.start <= a.end
                {
                    assert_ne!(
                        pa.phys(a.reg),
                        pa.phys(b.reg),
                        "{} and {} overlap but share a physical register",
                        a.reg,
                        b.reg
                    );
                }
            }
        }
    }

    #[test]
    fn overflow_is_reported() {
        let m = module_with_values(100);
        let cfg = MachineConfig::perfect_memory(2, 1);
        let sp = schedule_function(&m, &cfg, Placement::AllOn(Cluster::MAIN));
        let err = assign_physical(&sp).unwrap_err();
        assert!(err.contains("overflow"));
    }

    #[test]
    fn overflow_names_the_first_group_in_cluster_class_order() {
        // 80 predicates live at once, 40 homed on each cluster: both
        // clusters' 32-entry PR files overflow, and the error must
        // name cluster 0 every time.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let x = b.imm(1);
        let preds: Vec<Reg> = (0..80)
            .map(|i| b.cmp(CmpKind::Lt, Operand::Reg(x), Operand::Imm(i)))
            .collect();
        let mut acc = b.imm(0);
        for p in preds.iter().rev() {
            acc = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(*p));
        }
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let mut sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(2, 1));
        for &p in &preds[40..] {
            sp.home.insert(p, Cluster(1));
        }
        for _ in 0..8 {
            assert_eq!(
                assign_physical(&sp).unwrap_err(),
                "register file overflow: cluster 0 class pr needs more than 32 registers"
            );
        }
    }

    #[test]
    fn dced_splits_pressure_across_clusters() {
        let mut m = module_with_values(40);
        crate::errordetect::error_detection(&mut m);
        let cfg = MachineConfig::perfect_memory(2, 1);
        let sp = schedule_function(&m, &cfg, Placement::ByStream);
        let pa = assign_physical(&sp).unwrap();
        // Redundant copies live on cluster 1's file.
        assert!(pa.peak[1][0] > 0, "no pressure on redundant cluster");
    }
}

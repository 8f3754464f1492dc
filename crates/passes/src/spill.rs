//! Register-pressure analysis and spilling.
//!
//! The target's register files are finite (64GP/64FL/32PR per cluster,
//! Table I). Error detection roughly doubles register pressure — the
//! paper attributes part of SCED's slowdown variation to "the variation
//! of register spilling it causes" — so the pipeline must be able to
//! spill.
//!
//! Strategy: after scheduling, compute one conservative live *interval*
//! per virtual register over the linearized schedule (block layout
//! order × bundle cycle), its cross-block extent taken from the
//! schedule-order liveness in `casted_ir::liveness`. A register's
//! pressure contribution is charged to its **home cluster** (the
//! cluster whose register file holds it). While any (cluster, class) pressure exceeds the file size, the
//! longest-interval registers of that group are spilled to dedicated
//! static slots — store after every definition, reload before every
//! use — and the function is rescheduled. Interval-overlap pressure is
//! exactly the measure the linear-scan assigner in [`crate::physreg`]
//! uses, so once pressure fits, physical assignment is guaranteed to
//! succeed.

use casted_ir::func::GlobalClass;
use casted_ir::liveness::{set_slots, Liveness};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{Insn, Module, Opcode, Operand, Provenance, Reg, RegClass};

/// A conservative live interval over the linearized schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// The register.
    pub reg: Reg,
    /// First linear position where the value may be live.
    pub start: u32,
    /// Last linear position where the value may be live (inclusive).
    pub end: u32,
}

/// Compute conservative intervals for every register placed in the
/// schedule, in `Reg` order. Cross-block liveness extends an interval
/// over the whole body of every block where the register is live-in or
/// live-out. The order makes every downstream consumer (spill choice
/// tie-breaks, linear-scan assignment) a pure function of the
/// schedule: the memoized stage pipeline (`stages.rs`) relies on a
/// replayed `ra` artifact equalling a fresh `assign_physical` run
/// byte-for-byte.
pub fn intervals(sp: &ScheduledProgram) -> Vec<Interval> {
    let func = sp.module.entry_fn();
    let live = Liveness::of_schedule(sp);
    let layout = live.layout;

    // `(start, end)` per register slot; `start > end` marks a register
    // the schedule never touches.
    let mut range = vec![(u32::MAX, 0u32); layout.len()];
    let mut touch = |slot: u32, p: u32| {
        let e = &mut range[slot as usize];
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };
    // Linear position of the current block's first cycle.
    let mut base = 0u32;
    for sb in &sp.blocks {
        for (cycle, bundle) in sb.bundles.iter().enumerate() {
            let p = base + cycle as u32;
            for (_, iid) in bundle.iter() {
                let insn = func.insn(iid);
                for r in insn.reg_uses().chain(insn.defs.iter().copied()) {
                    touch(layout.slot(r), p);
                }
            }
        }
        let end = base + sb.length().max(1) as u32 - 1;
        for slot in set_slots(live.live_in(sb.block)) {
            touch(slot, base);
        }
        for slot in set_slots(live.live_out(sb.block)) {
            touch(slot, end);
        }
        base = end + 1;
    }
    // Slots number registers in `Reg` order, so the table is sorted.
    range
        .into_iter()
        .enumerate()
        .filter(|&(_, (start, end))| start <= end)
        .map(|(slot, (start, end))| Interval {
            reg: layout.reg(slot as u32),
            start,
            end,
        })
        .collect()
}

/// Maximum simultaneous interval overlap per (cluster, register class).
/// Indexing: `pressure[cluster][class.index()]`.
pub fn max_pressure(sp: &ScheduledProgram, ivs: &[Interval]) -> Vec<[u32; 3]> {
    let clusters = sp.config.clusters;
    let mut events: Vec<Vec<Vec<(u32, i32)>>> = vec![vec![Vec::new(); 3]; clusters];
    for iv in ivs {
        let c = sp.home_of(iv.reg).index();
        let k = iv.reg.class.index();
        events[c][k].push((iv.start, 1));
        events[c][k].push((iv.end + 1, -1));
    }
    let mut out = vec![[0u32; 3]; clusters];
    for c in 0..clusters {
        for k in 0..3 {
            let ev = &mut events[c][k];
            ev.sort();
            let mut cur = 0i32;
            let mut max = 0i32;
            for &(_, d) in ev.iter() {
                cur += d;
                max = max.max(cur);
            }
            out[c][k] = max as u32;
        }
    }
    out
}

/// Registers to spill to bring each over-pressure group under its
/// limit: the longest intervals first (classic Belady-flavoured
/// furthest-use heuristic on intervals). Predicate registers are never
/// spill candidates (no predicate load/store in the ISA); callers
/// should treat PR overflow as an error.
pub fn choose_spills(sp: &ScheduledProgram, ivs: &[Interval]) -> Vec<Reg> {
    let pressure = max_pressure(sp, ivs);
    let mut picks = Vec::new();
    for c in 0..sp.config.clusters {
        for class in [RegClass::Gp, RegClass::Fp] {
            let limit = class.file_size() as u32;
            let over = pressure[c][class.index()].saturating_sub(limit);
            if over == 0 {
                continue;
            }
            let mut group: Vec<&Interval> = ivs
                .iter()
                .filter(|iv| {
                    iv.reg.class == class
                        && sp.home_of(iv.reg).index() == c
                        && iv.end > iv.start + 2 // spilling tiny ranges is useless
                })
                .collect();
            group.sort_by_key(|iv| std::cmp::Reverse(iv.end - iv.start));
            picks.extend(group.iter().take(over as usize * 2).map(|iv| iv.reg));
        }
    }
    picks
}

/// Spill `reg` of the entry function to a fresh static slot: a store
/// after every definition, a reload into a fresh register before every
/// use. All inserted instructions are compiler-generated (never
/// replicated by a subsequent error-detection pass — spill traffic sits
/// outside the sphere of replication, as in SWIFT).
pub fn spill_register(module: &mut Module, reg: Reg) {
    assert_ne!(reg.class, RegClass::Pr, "predicate registers cannot be spilled");
    let class = if reg.class == RegClass::Fp {
        GlobalClass::Float
    } else {
        GlobalClass::Int
    };
    let n = module.globals.len();
    let (_, addr) = module.add_global(format!("__spill_{n}"), class, 1, vec![]);
    let func = module.entry_fn_mut();

    for b in 0..func.blocks.len() {
        let old: Vec<_> = func.blocks[b].insns.clone();
        let mut new_list = Vec::with_capacity(old.len());
        for iid in old {
            let uses_reg = func.insn(iid).reg_uses().any(|r| r == reg);
            if uses_reg {
                // Reload with absolute addressing (spill slots have
                // link-time-constant addresses), so no address register
                // lengthens live ranges.
                let fresh = func.new_reg(reg.class);
                let ld_op = if reg.class == RegClass::Fp {
                    Opcode::FLoad
                } else {
                    Opcode::Load
                };
                let ld = Insn::new(ld_op, vec![fresh], vec![Operand::Imm(addr)])
                    .with_prov(Provenance::CompilerGen);
                new_list.push(func.add_insn(ld));
                for u in func.insn_mut(iid).uses.iter_mut() {
                    if let Operand::Reg(r) = u {
                        if *r == reg {
                            *u = Operand::Reg(fresh);
                        }
                    }
                }
            }
            new_list.push(iid);
            let defs_reg = func.insn(iid).defs.contains(&reg);
            if defs_reg {
                let st_op = if reg.class == RegClass::Fp {
                    Opcode::FStore
                } else {
                    Opcode::Store
                };
                let st = Insn::new(
                    st_op,
                    vec![],
                    vec![Operand::Imm(addr), Operand::Reg(reg)],
                )
                .with_prov(Provenance::CompilerGen);
                new_list.push(func.add_insn(st));
            }
        }
        func.blocks[b].insns = new_list;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule_function, Placement};
    use casted_ir::interp::{self, OutVal};
    use casted_ir::{Cluster, FunctionBuilder, MachineConfig};

    /// Create `k` long-lived values (a def chain) consumed in reverse
    /// order (a use chain): at the crossover all `k` values are live at
    /// once and no scheduler reordering can shorten the ranges.
    fn pressure_module(k: usize) -> Module {
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

    fn sched(m: &Module) -> ScheduledProgram {
        let cfg = MachineConfig::perfect_memory(2, 1);
        schedule_function(m, &cfg, Placement::AllOn(Cluster::MAIN))
    }

    #[test]
    fn pressure_counts_simultaneous_values() {
        let m = pressure_module(10);
        let sp = sched(&m);
        let ivs = intervals(&sp);
        let p = max_pressure(&sp, &ivs);
        assert!(p[0][RegClass::Gp.index()] >= 10);
        assert_eq!(p[1][RegClass::Gp.index()], 0);
    }

    #[test]
    fn no_spills_needed_under_limit() {
        let m = pressure_module(10);
        let sp = sched(&m);
        let ivs = intervals(&sp);
        assert!(choose_spills(&sp, &ivs).is_empty());
    }

    #[test]
    fn over_pressure_selects_spill_candidates() {
        let m = pressure_module(80);
        let sp = sched(&m);
        let ivs = intervals(&sp);
        let picks = choose_spills(&sp, &ivs);
        assert!(!picks.is_empty());
        assert!(picks.iter().all(|r| r.class == RegClass::Gp));
    }

    #[test]
    fn spilling_preserves_semantics() {
        let mut m = pressure_module(20);
        let golden = interp::run(&m, 100_000).unwrap();
        // Spill five arbitrary long-lived registers.
        let sp = sched(&m);
        let mut ivs = intervals(&sp);
        ivs.sort_by_key(|iv| std::cmp::Reverse(iv.end - iv.start));
        let victims: Vec<Reg> = ivs
            .iter()
            .filter(|iv| iv.reg.class == RegClass::Gp)
            .take(5)
            .map(|iv| iv.reg)
            .collect();
        for v in victims {
            spill_register(&mut m, v);
        }
        casted_ir::verify::verify_module(&m).unwrap();
        let r = interp::run(&m, 100_000).unwrap();
        assert_eq!(r.stream, golden.stream);
        assert_eq!(r.stop, golden.stop);
    }

    #[test]
    fn spilling_reduces_pressure() {
        let mut m = pressure_module(80);
        let sp = sched(&m);
        let ivs = intervals(&sp);
        let before = max_pressure(&sp, &ivs)[0][RegClass::Gp.index()];
        for reg in choose_spills(&sp, &ivs) {
            spill_register(&mut m, reg);
        }
        let sp2 = sched(&m);
        let ivs2 = intervals(&sp2);
        let after = max_pressure(&sp2, &ivs2)[0][RegClass::Gp.index()];
        assert!(after < before, "pressure {before} -> {after}");
    }

    #[test]
    fn spill_code_is_compiler_generated() {
        let mut m = pressure_module(5);
        let victim = {
            let sp = sched(&m);
            intervals(&sp)
                .iter()
                .filter(|iv| iv.reg.class == RegClass::Gp)
                .max_by_key(|iv| iv.end - iv.start)
                .unwrap()
                .reg
        };
        let before = m.entry_fn().static_size();
        spill_register(&mut m, victim);
        let f = m.entry_fn();
        assert!(f.static_size() > before);
        let cg: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|&&i| f.insn(i).prov == Provenance::CompilerGen)
            .collect();
        assert!(!cg.is_empty());
    }

    #[test]
    fn loop_carried_spill_is_correct() {
        // acc accumulates across a loop; spilling acc must preserve the
        // final sum.
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
        let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(10));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);

        spill_register(&mut m, acc);
        casted_ir::verify::verify_module(&m).unwrap();
        let r = interp::run(&m, 100_000).unwrap();
        assert_eq!(r.stream, vec![OutVal::Int(45)]);
    }
}

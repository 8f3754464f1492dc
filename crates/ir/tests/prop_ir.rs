//! Property-based tests over the IR core: generated random programs
//! must verify, terminate, and behave deterministically; structural
//! analyses must uphold their invariants.
//!
//! Driven by the in-repo harness (`casted_util::prop`) — each case
//! draws its inputs from a deterministic per-case RNG, so the whole
//! file is bit-reproducible with no registry dependencies.

use std::collections::HashSet;

use casted_ir::liveness::{set_slots, Liveness};
use casted_ir::testgen::{random_module, GenOptions};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{dfg::BlockDfg, interp, BlockId, Function, LatencyConfig, MachineConfig, Reg};
use casted_util::prop::run_cases;
use casted_util::{prop_assert, prop_assert_eq};

fn opts() -> GenOptions {
    GenOptions {
        body_ops: 30,
        iterations: 5,
        globals: 2,
        with_float: true,
        diamonds: 2,
        inner_loops: 1,
        lib_calls: 1,
    }
}

#[test]
fn generated_programs_verify_and_halt() {
    run_cases("generated_programs_verify_and_halt", 48, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        prop_assert!(casted_ir::verify::verify_module(&m).is_ok());
        let r = interp::run(&m, 2_000_000).unwrap();
        prop_assert_eq!(r.stop, interp::StopReason::Halt(0));
        Ok(())
    });
}

#[test]
fn interpreter_is_deterministic() {
    run_cases("interpreter_is_deterministic", 48, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let a = interp::run(&m, 2_000_000).unwrap();
        let b = interp::run(&m, 2_000_000).unwrap();
        prop_assert_eq!(a.stream.len(), b.stream.len());
        for (x, y) in a.stream.iter().zip(&b.stream) {
            prop_assert!(x.bit_eq(y));
        }
        prop_assert_eq!(a.dyn_insns, b.dyn_insns);
        Ok(())
    });
}

#[test]
fn dfg_edges_are_forward_and_heights_monotone() {
    run_cases("dfg_edges_are_forward_and_heights_monotone", 48, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let f = m.entry_fn();
        let lat = LatencyConfig::default();
        for (bid, _) in f.iter_blocks() {
            let dfg = BlockDfg::build(f, bid, &lat);
            for (i, es) in dfg.succs.iter().enumerate() {
                for e in es {
                    prop_assert!(e.to > i, "edge must be forward");
                    // Height of a node is at least weight + height of succ.
                    prop_assert!(dfg.height[i] >= e.weight + dfg.height[e.to]);
                }
            }
        }
        Ok(())
    });
}

/// The registers set in `bits`.
fn regs(live: &Liveness, bits: &[u64]) -> HashSet<Reg> {
    set_slots(bits).map(|s| live.layout.reg(s)).collect()
}

#[test]
fn liveness_no_dead_values_at_exit() {
    run_cases("liveness_no_dead_values_at_exit", 48, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let f = m.entry_fn();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let live = Liveness::of_schedule(&sp);
        // A block ending in halt has empty live-out.
        for (bid, block) in f.iter_blocks() {
            let last = *block.insns.last().unwrap();
            if f.insn(last).op == casted_ir::Opcode::Halt {
                prop_assert!(regs(&live, live.live_out(bid)).is_empty());
            }
            // Every live-in register of a reachable block is of a
            // valid allocated index.
            for r in regs(&live, live.live_in(bid)) {
                prop_assert!(r.index < f.reg_count(r.class));
            }
        }
        Ok(())
    });
}

/// Classic backward liveness over the source block order, on hash
/// sets: the oracle the schedule-order bitset analysis must match.
/// Returns `(live_in, live_out)` per block.
#[allow(clippy::type_complexity)]
fn source_order_liveness(func: &Function) -> (Vec<HashSet<Reg>>, Vec<HashSet<Reg>>) {
    let n = func.blocks.len();
    let mut use_set: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut def_set: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    for (bid, block) in func.iter_blocks() {
        let (u, d) = (&mut use_set[bid.index()], &mut def_set[bid.index()]);
        for &iid in &block.insns {
            let insn = func.insn(iid);
            for r in insn.reg_uses() {
                if !d.contains(&r) {
                    u.insert(r);
                }
            }
            d.extend(insn.defs.iter().copied());
        }
    }
    let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out: HashSet<Reg> = HashSet::new();
            for s in func.successors(BlockId(i as u32)) {
                out.extend(live_in[s.index()].iter().copied());
            }
            let mut inn = use_set[i].clone();
            inn.extend(out.iter().filter(|r| !def_set[i].contains(r)));
            if out != live_out[i] {
                live_out[i] = out;
                changed = true;
            }
            if inn != live_in[i] {
                live_in[i] = inn;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

#[test]
fn schedule_liveness_matches_source_order() {
    run_cases("schedule_liveness_matches_source_order", 48, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let (want_in, want_out) = source_order_liveness(m.entry_fn());
        let config = MachineConfig::perfect_memory(2, 1);
        let width = rng.gen_range(2usize..5);
        for sp in [
            ScheduledProgram::sequential(&m, config.clone()),
            ScheduledProgram::packed(&m, config.clone(), width),
        ] {
            let live = Liveness::of_schedule(&sp);
            for b in 0..sp.blocks.len() {
                let bid = BlockId(b as u32);
                prop_assert_eq!(regs(&live, live.live_in(bid)), want_in[b]);
                prop_assert_eq!(regs(&live, live.live_out(bid)), want_out[b]);
            }
        }
        Ok(())
    });
}

#[test]
fn bit_flip_is_an_involution() {
    run_cases("bit_flip_is_an_involution", 64, |rng| {
        use casted_ir::semantics::Val;
        let v = rng.next_u64() as i64;
        let bit = rng.gen_range(0u32..64);
        let x = Val::I(v);
        prop_assert_eq!(x.flip_bit(bit).flip_bit(bit), x);
        let f = Val::F(f64::from_bits(v as u64));
        let back = f.flip_bit(bit).flip_bit(bit);
        match (f, back) {
            (Val::F(a), Val::F(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
            _ => prop_assert!(false),
        }
        Ok(())
    });
}

#[test]
fn eval_pure_never_panics_on_int_ops() {
    run_cases("eval_pure_never_panics_on_int_ops", 64, |rng| {
        use casted_ir::semantics::{eval_pure, Val};
        use casted_ir::Opcode::*;
        let a = rng.next_u64() as i64;
        // Mix fully random values with small ones so edge divisors
        // (0, ±1) actually occur.
        let b = if rng.gen_bool(0.3) {
            rng.gen_range(-2i64..=2)
        } else {
            rng.next_u64() as i64
        };
        for op in [Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sra] {
            let _ = eval_pure(op, &[Val::I(a), Val::I(b)]).unwrap();
        }
        // Division is total except for zero.
        let r = eval_pure(Div, &[Val::I(a), Val::I(b)]);
        prop_assert_eq!(r.is_err(), b == 0);
        Ok(())
    });
}

#[test]
fn memory_roundtrips() {
    run_cases("memory_roundtrips", 64, |rng| {
        let addr_word = rng.gen_range(512usize..1000);
        let v = rng.next_u64() as i64;
        let m = casted_ir::Module::new("t");
        let mut mem = interp::Memory::for_module(&m);
        // Memory::for_module gives HEAP_SLACK past data_end (=4096).
        let addr = (addr_word * 8) as i64;
        if addr_word < mem.len_words() {
            mem.store_int(addr, v).unwrap();
            prop_assert_eq!(mem.load_int(addr).unwrap(), v);
            let f = f64::from_bits(v as u64);
            mem.store_float(addr, f).unwrap();
            prop_assert_eq!(mem.load_float(addr).unwrap().to_bits(), f.to_bits());
        }
        Ok(())
    });
}

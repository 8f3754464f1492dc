//! Replay-based error detection (RBED) support: chunk digest plans.
//!
//! RBED (after RepTFD, see PAPERS.md) detects transient faults with
//! **no code transformation at all**: the scheduled program runs
//! unmodified, the machine accumulates a running FNV-64 digest of
//! every retired result (load results, pure-op results, stored
//! values, emitted output), and at a small number of **chunk
//! boundaries** the digest is compared against the golden run's
//! digest at the same point. A mismatch means some computed value
//! differed from the fault-free execution — the replay-detection
//! verdict — and the run finishes `Detected`, exactly like a fired
//! `DetectBr`.
//!
//! Boundaries are **dynamic-instruction counts**, not program points:
//! the golden boundary at `b` is crossed when the `b`-th instruction
//! retires, which a faulty run always does exactly once (retirement
//! is one instruction at a time) no matter how far its control flow
//! diverged. Cuts are placed at golden block entries using the same
//! partitioning rule as [`crate::section`] (span target
//! `max(MIN_SECTION_SPAN, golden_dyn / MAX_SECTIONS)`), purely as a
//! granularity heuristic — correctness never depends on where the
//! cuts land. The final boundary is always `golden_dyn`, so a run
//! that halts early still has an unconsumed boundary and is reported
//! `Detected` at its halt (truncation detection), and the golden run
//! itself consumes every boundary exactly at its own halt.
//!
//! What the digest does *not* see: the flipped victim register itself
//! (the digest absorbs the **computed** value, before the injector's
//! post-writeback flip), so a strike whose corrupted value is never
//! read back into a computation stays `Benign` — dead faults are not
//! false positives. Conversely a fault is detected only once it
//! produces a *different computed value*; classification soundness
//! rests on the same 64-bit anti-collision argument as the
//! checkpoint engine's convergence fingerprints (and is continuously
//! cross-checked by the three-engine byte-identity gates).

use std::sync::Arc;

use casted_ir::vliw::ScheduledProgram;
use casted_util::hash::Fnv64;

use crate::decode::DecodedProgram;
use crate::machine::{run_machine, Boundary, MachineState, SimOptions};
use crate::section::{MAX_SECTIONS, MIN_SECTION_SPAN};

/// A chunk-digest plan: the boundary schedule plus, once recorded,
/// the golden digest at each boundary.
#[derive(Clone, Debug)]
pub struct RbedPlan {
    /// Strictly increasing dynamic-instruction counts; the last entry
    /// is the golden run's dynamic length. Empty only for the
    /// degenerate zero-length program.
    pub bounds: Vec<u64>,
    /// Golden digest at each boundary crossing; same length as
    /// `bounds` in a finished plan. Empty in a plan being built: the
    /// run then only accumulates, and records the digest at each
    /// crossing it has a bound for.
    pub digests: Vec<u64>,
}

impl RbedPlan {
    /// True once golden digests have been recorded (check mode).
    pub fn is_check(&self) -> bool {
        !self.digests.is_empty()
    }
}

/// Per-run digest accumulator carried inside [`MachineState`] so that
/// checkpoint snapshots resume it exactly.
#[derive(Clone)]
pub(crate) struct RbedState {
    /// Running digest of every retired result so far.
    pub(crate) acc: Fnv64,
    /// Index of the next unconsumed boundary in `plan.bounds`.
    pub(crate) next: usize,
    pub(crate) plan: Arc<RbedPlan>,
    /// Digests captured at each crossing (record mode only; the
    /// one-pass [`rbed_plan`] reads `acc` instead, so only the tests'
    /// two-pass oracle records).
    pub(crate) recorded: Vec<u64>,
}

impl RbedState {
    pub(crate) fn new(plan: Arc<RbedPlan>) -> Self {
        RbedState {
            acc: Fnv64::new(),
            next: 0,
            plan,
            recorded: Vec::new(),
        }
    }
}

/// Build the check-mode plan for `sp` in one quiet golden pass.
/// `golden_dyn` is the golden run's dynamic length (the campaign
/// already has it from its golden run).
pub fn rbed_plan(sp: &ScheduledProgram, golden_dyn: u64) -> Arc<RbedPlan> {
    rbed_plan_decoded(sp, &DecodedProgram::new(sp), golden_dyn)
}

/// [`rbed_plan`] on a program already decoded. The pass runs with the
/// digest accumulator on and no bounds to cross; the boundary hook
/// places each bound at a golden block entry and records the running
/// digest right there. That is the digest a check-mode run compares
/// at the crossing: the bound's instruction closed the bundle before
/// the block entry, and nothing retires in between. The final bound's
/// digest is the accumulator after the run, which the halt's bundle
/// closes the same way.
pub(crate) fn rbed_plan_decoded(
    sp: &ScheduledProgram,
    dp: &DecodedProgram,
    golden_dyn: u64,
) -> Arc<RbedPlan> {
    let (mut bounds, mut digests) = (Vec::new(), Vec::new());
    if golden_dyn > 0 {
        let span_target = (golden_dyn / MAX_SECTIONS as u64).max(MIN_SECTION_SPAN);
        let mut last = 0u64;
        let mut st = MachineState::fresh(sp);
        let opts = SimOptions {
            rbed: Some(Arc::new(RbedPlan {
                bounds: Vec::new(),
                digests: Vec::new(),
            })),
            ..SimOptions::default()
        };
        let digest =
            |st: &MachineState| st.rbed.as_deref().expect("accumulator installed").acc.finish();
        run_machine(dp, &opts, &mut st, false, |st: &MachineState| {
            let dyn_insns = st.stats.dyn_insns;
            if st.bundle_idx == 0
                && dyn_insns > last
                && dyn_insns - last >= span_target
                && dyn_insns < golden_dyn
                && bounds.len() + 1 < MAX_SECTIONS
            {
                bounds.push(dyn_insns);
                digests.push(digest(st));
                last = dyn_insns;
            }
            Boundary::Continue
        })
        .expect("golden digest capture cannot be stopped by the hook");
        debug_assert_eq!(st.stats.dyn_insns, golden_dyn);
        bounds.push(golden_dyn);
        digests.push(digest(&st));
    }
    Arc::new(RbedPlan { bounds, digests })
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::interp::StopReason;
    use crate::testutil::sequential;
    use casted_ir::{CmpKind, FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    use crate::machine::{simulate_quiet, Injection};

    fn looping_module(iters: i64) -> Module {
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
        let p = b.cmp(CmpKind::Lt, Operand::Reg(i), Operand::Imm(iters));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    /// The two-pass construction the one-pass [`rbed_plan`] replaced:
    /// one pass places the bounds, a second records the digest at each
    /// crossing. Kept as the oracle for the one-pass plan.
    fn two_pass_plan(sp: &ScheduledProgram, golden_dyn: u64) -> RbedPlan {
        let dp = DecodedProgram::new(sp);
        let mut bounds = Vec::new();
        if golden_dyn > 0 {
            let span_target = (golden_dyn / MAX_SECTIONS as u64).max(MIN_SECTION_SPAN);
            let mut last = 0u64;
            let mut st = MachineState::fresh(sp);
            run_machine(&dp, &SimOptions::default(), &mut st, false, |st: &MachineState| {
                let dyn_insns = st.stats.dyn_insns;
                if st.bundle_idx == 0
                    && dyn_insns > last
                    && dyn_insns - last >= span_target
                    && dyn_insns < golden_dyn
                    && bounds.len() + 1 < MAX_SECTIONS
                {
                    bounds.push(dyn_insns);
                    last = dyn_insns;
                }
                Boundary::Continue
            })
            .unwrap();
            bounds.push(golden_dyn);
        }
        let record = Arc::new(RbedPlan {
            bounds: bounds.clone(),
            digests: Vec::new(),
        });
        let mut st = MachineState::fresh(sp);
        let opts = SimOptions {
            rbed: Some(record),
            ..SimOptions::default()
        };
        run_machine(&dp, &opts, &mut st, false, |_: &MachineState| Boundary::Continue).unwrap();
        let digests = st.rbed.take().map(|r| r.recorded).unwrap_or_default();
        RbedPlan { bounds, digests }
    }

    fn assert_same_plan(sp: &ScheduledProgram, what: &str) {
        let golden = simulate_quiet(sp, &SimOptions::default());
        let one = rbed_plan(sp, golden.stats.dyn_insns);
        let two = two_pass_plan(sp, golden.stats.dyn_insns);
        assert_eq!(one.bounds, two.bounds, "{what}: bounds");
        assert_eq!(one.digests, two.digests, "{what}: digests");
        assert_eq!(one.digests.len(), one.bounds.len(), "{what}");
    }

    #[test]
    fn one_pass_plan_matches_the_two_pass_construction() {
        for (m, config) in [
            (looping_module(200), MachineConfig::perfect_memory(1, 1)),
            (looping_module(120), MachineConfig::itanium2_like(2, 2)),
        ] {
            assert_same_plan(&sequential(&m, config), "looping module");
        }
        // Every kernel, on the schedule the RBED scheme compiles to.
        for w in casted_workloads::all() {
            let m = w.compile().expect("kernel compiles");
            let config = MachineConfig::itanium2_like(2, 2);
            let sp = casted_passes::prepare(&m, casted_passes::Scheme::Rbed, &config)
                .expect("kernel prepares")
                .sp;
            assert_same_plan(&sp, w.name);
        }
    }

    #[test]
    fn plan_bounds_tile_and_end_at_golden_dyn() {
        let m = looping_module(200);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        let plan = rbed_plan(&sp, golden.stats.dyn_insns);
        assert!(plan.is_check());
        assert!(plan.bounds.len() > 1, "expected a multi-chunk plan");
        assert_eq!(*plan.bounds.last().unwrap(), golden.stats.dyn_insns);
        assert_eq!(plan.digests.len(), plan.bounds.len());
        for w in plan.bounds.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn zero_fault_checked_run_matches_golden() {
        let m = looping_module(120);
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        let plan = rbed_plan(&sp, golden.stats.dyn_insns);
        let r = simulate_quiet(
            &sp,
            &SimOptions {
                rbed: Some(plan),
                ..SimOptions::default()
            },
        );
        assert_eq!(r.stop, golden.stop, "digest checks must pass fault-free");
        assert_eq!(r.stream.len(), golden.stream.len());
        assert!(r.stream.iter().zip(&golden.stream).all(|(a, b)| a.bit_eq(b)));
        assert_eq!(r.stats.cycles, golden.stats.cycles, "RBED adds no cycles");
    }

    #[test]
    fn digest_divergence_is_detected() {
        let m = looping_module(200);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        let plan = rbed_plan(&sp, golden.stats.dyn_insns);
        // Strike the accumulator mid-run: the corrupted value feeds
        // the next add, so the digest diverges at the next boundary.
        let mut detected = 0usize;
        for at in [50u64, 200, 400] {
            let r = simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles: golden.stats.cycles * 10,
                    injection: Some(Injection::single(at, 40, None)),
                    rbed: Some(plan.clone()),
                    ..SimOptions::default()
                },
            );
            if r.stop == StopReason::Detected {
                detected += 1;
            }
        }
        assert!(detected > 0, "no accumulator strike was replay-detected");
    }

    #[test]
    fn early_halt_with_unconsumed_boundary_is_detected() {
        // Flip the loop predicate so the run exits the loop early: the
        // final boundary at golden_dyn is never crossed, so the halt
        // is converted to Detected (truncation detection).
        let m = looping_module(300);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        let plan = rbed_plan(&sp, golden.stats.dyn_insns);
        let mut hit = false;
        for at in 1..=golden.stats.dyn_insns {
            let r = simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles: golden.stats.cycles * 10,
                    injection: Some(Injection::single(at, 0, None)),
                    rbed: Some(plan.clone()),
                    ..SimOptions::default()
                },
            );
            let unchecked = simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles: golden.stats.cycles * 10,
                    injection: Some(Injection::single(at, 0, None)),
                    ..SimOptions::default()
                },
            );
            // Wherever the unchecked run halts with truncated output,
            // the checked run must flag it.
            if matches!(unchecked.stop, StopReason::Halt(_))
                && unchecked.stats.dyn_insns < golden.stats.dyn_insns
            {
                assert_eq!(r.stop, StopReason::Detected, "site {at}");
                hit = true;
            }
        }
        assert!(hit, "no early-halt site found");
    }
}

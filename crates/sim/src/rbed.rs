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
//! diverged. Cuts are placed at golden block entries by the rule the
//! section capture cuts by ([`crate::section`]), purely as a
//! granularity heuristic — correctness never depends on where the
//! cuts land. The final boundary is always `golden_dyn`, so a run
//! that halts early still has an uncrossed boundary and is reported
//! `Detected` at its halt (truncation detection), and the golden run
//! itself crosses every boundary exactly at its own halt.
//!
//! A run's RBED state is the accumulator alone, one word on
//! [`MachineState`]. Which boundary comes next is a function of the
//! instructions retired so far, so a run restored from any saved
//! state — a campaign snapshot or a state pass 1 kept for the capture
//! to restart from — resumes checking where the golden run was. The
//! accumulator never depends on the plan, so pass 1 of an RBED
//! campaign runs it under a plan with no bounds, and the capture under
//! the real plan restarts from pass 1's states.
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

use crate::decode::DecodedProgram;
use crate::machine::{run_machine, MachineState, SimOptions};
use crate::section::Cuts;

/// A chunk-digest plan: the boundary schedule and the golden digest
/// at each boundary. [`rbed_plan`] is the only producer, so the two
/// lists always have the same length.
#[derive(Clone, Debug)]
pub struct RbedPlan {
    /// Strictly increasing dynamic-instruction counts; the last entry
    /// is the golden run's dynamic length. Empty only for the
    /// degenerate zero-length program, and in the plan that only
    /// accumulates ([`RbedPlan::accumulate_only`]).
    pub(crate) bounds: Vec<u64>,
    /// Golden digest at each boundary crossing.
    pub(crate) digests: Vec<u64>,
}

impl RbedPlan {
    /// The plan with no bounds: a run under it accumulates the digest
    /// and checks nothing.
    pub(crate) fn accumulate_only() -> Arc<RbedPlan> {
        Arc::new(RbedPlan {
            bounds: Vec::new(),
            digests: Vec::new(),
        })
    }
}

/// Build the plan for `sp` in one quiet golden pass. `golden_dyn` is
/// the golden run's dynamic length (the campaign already has it from
/// its golden run).
pub fn rbed_plan(sp: &ScheduledProgram, golden_dyn: u64) -> Arc<RbedPlan> {
    rbed_plan_decoded(sp, &DecodedProgram::new(sp), golden_dyn)
}

/// [`rbed_plan`] on a program already decoded. The pass runs under the
/// plan that only accumulates; the boundary hook wakes at each block
/// entry, places each bound at a cut ([`Cuts`]) and records the running
/// digest right there. That is the digest a checking run compares at
/// the crossing: the bound's instruction closed the bundle before the
/// block entry, and nothing retires in between. The final bound's
/// digest is the accumulator after the run, which the halt's bundle
/// closes the same way.
pub(crate) fn rbed_plan_decoded(
    sp: &ScheduledProgram,
    dp: &DecodedProgram,
    golden_dyn: u64,
) -> Arc<RbedPlan> {
    let (mut bounds, mut digests) = (Vec::new(), Vec::new());
    if golden_dyn > 0 {
        let mut cuts = Cuts::new(golden_dyn);
        let mut st = MachineState::fresh(sp, dp);
        let opts = SimOptions {
            rbed: Some(RbedPlan::accumulate_only()),
            ..SimOptions::default()
        };
        let digest = |st: &MachineState| st.rbed.as_ref().expect("accumulator installed").finish();
        run_machine(dp, &opts, &mut st, false, &mut |st: &MachineState| {
            if cuts.cut_at(st) {
                bounds.push(st.stats.dyn_insns);
                digests.push(digest(st));
            }
            Some(st.next_entry(dp))
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
    use casted_ir::{CmpKind, FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    use crate::checkpoint::{CampaignProgram, GoldenRun};
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

    /// Every kernel on the schedule `scheme` compiles it to at issue 2,
    /// delay 2.
    fn kernels(
        scheme: casted_passes::Scheme,
    ) -> impl Iterator<Item = (&'static str, ScheduledProgram)> {
        casted_workloads::all().into_iter().map(move |w| {
            let m = w.compile().expect("kernel compiles");
            let config = MachineConfig::itanium2_like(2, 2);
            let sp = casted_passes::prepare(&m, scheme, &config).expect("kernel prepares").sp;
            (w.name, sp)
        })
    }

    /// The two-pass construction the one-pass [`rbed_plan`] replaced:
    /// a plain pass places the bounds by the cut rule written out, and
    /// a second, accumulate-only pass reads the digest as each bound is
    /// crossed. Kept as the oracle for the one-pass plan; its hooks wake
    /// at every boundary.
    fn two_pass_plan(sp: &ScheduledProgram, golden_dyn: u64) -> RbedPlan {
        use crate::section::{MAX_SECTIONS, MIN_SECTION_SPAN};
        let dp = DecodedProgram::new(sp);
        let mut bounds = Vec::new();
        if golden_dyn > 0 {
            let span_target = (golden_dyn / MAX_SECTIONS as u64).max(MIN_SECTION_SPAN);
            let mut last = 0u64;
            let mut st = MachineState::fresh(sp, &dp);
            run_machine(&dp, &SimOptions::default(), &mut st, false, &mut |st: &MachineState| {
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
                Some(dyn_insns)
            })
            .unwrap();
            bounds.push(golden_dyn);
        }
        let mut digests = Vec::new();
        let mut st = MachineState::fresh(sp, &dp);
        let opts = SimOptions {
            rbed: Some(RbedPlan::accumulate_only()),
            ..SimOptions::default()
        };
        run_machine(&dp, &opts, &mut st, false, &mut |st: &MachineState| {
            let next = bounds.get(digests.len()).copied();
            if st.bundle_idx == 0 && Some(st.stats.dyn_insns) == next && next != Some(golden_dyn) {
                digests.push(st.rbed.as_ref().expect("accumulator installed").finish());
            }
            Some(st.stats.dyn_insns)
        })
        .unwrap();
        if golden_dyn > 0 {
            digests.push(st.rbed.as_ref().expect("accumulator installed").finish());
        }
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
            assert_same_plan(&ScheduledProgram::sequential(&m, config), "looping module");
        }
        for (name, sp) in kernels(casted_passes::Scheme::Rbed) {
            assert_same_plan(&sp, name);
        }
    }

    #[test]
    fn plan_bounds_are_the_section_cuts() {
        for (name, sp) in kernels(casted_passes::Scheme::Noed) {
            let golden = GoldenRun::run(&sp, CampaignProgram::new(&sp), u64::MAX, 0, false);
            let plan = golden.rbed_plan(&sp);
            let sections = golden.capture_sections(&sp).sections;
            let his: Vec<u64> = sections.iter().map(|s| s.hi).collect();
            assert_eq!(plan.bounds, his, "{name}");
        }
    }

    #[test]
    fn plan_bounds_tile_and_end_at_golden_dyn() {
        let m = looping_module(200);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        let plan = rbed_plan(&sp, golden.stats.dyn_insns);
        assert!(plan.bounds.len() > 1, "expected a multi-chunk plan");
        assert_eq!(*plan.bounds.last().unwrap(), golden.stats.dyn_insns);
        assert_eq!(plan.digests.len(), plan.bounds.len());
        for w in plan.bounds.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn zero_fault_checked_run_matches_golden() {
        // One wrong golden digest would turn a fault-free checking run
        // into `Detected`, so this pins every digest the plan pass
        // recorded: on a loop, and on every kernel's RBED schedule.
        let m = looping_module(120);
        let looping = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
        let runs = std::iter::once(("looping module", looping));
        for (name, sp) in runs.chain(kernels(casted_passes::Scheme::Rbed)) {
            let golden = simulate_quiet(&sp, &SimOptions::default());
            let plan = rbed_plan(&sp, golden.stats.dyn_insns);
            let r = simulate_quiet(
                &sp,
                &SimOptions {
                    rbed: Some(plan),
                    ..SimOptions::default()
                },
            );
            assert_eq!(r.stop, golden.stop, "{name}: digest checks must pass fault-free");
            assert_eq!(r.stream.len(), golden.stream.len(), "{name}");
            assert!(r.stream.iter().zip(&golden.stream).all(|(a, b)| a.bit_eq(b)), "{name}");
            assert_eq!(r.stats.cycles, golden.stats.cycles, "{name}: RBED adds no cycles");
        }
    }

    #[test]
    fn digest_divergence_is_detected() {
        let m = looping_module(200);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
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
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
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

//! Property tests for the checkpoint/replay engine: for randomly
//! generated programs, random machine configurations and random
//! injection sites,
//!
//! * a replayed faulty trial is **bit-identical** (stop reason,
//!   stream, full stats, injected flag) to simulating the same
//!   injection from scratch — unless it was convergence-pruned, in
//!   which case the from-scratch run must halt like the golden run,
//!   with the vote-correction count the pruned replay reported (on
//!   TMR-transformed programs, where a vote-repaired strike can
//!   converge, that count is nonzero and the trial is Corrected);
//! * an uninjected run resumed from every captured checkpoint
//!   reproduces the golden result exactly; and
//! * a capture at drawn sites (duplicates, several sites in one
//!   bundle, the first and last instruction, more distinct sites than
//!   `MAX_CHECKPOINTS`) replays every site exactly, and — while the
//!   distinct sites fit under the cap — restores each trial from the
//!   last bundle boundary strictly before its site.
//!
//! Driven by the in-repo harness (`casted_util::prop`).

use casted_ir::testgen::{random_module, GenOptions};
use casted_ir::vliw::{Bundle, ScheduledBlock, ScheduledProgram};
use casted_ir::{Cluster, MachineConfig, Module};
use casted_passes::{prepare, Scheme};
use casted_sim::{
    golden_with_checkpoints, replay_trial, simulate_quiet, GoldenRun, Injection, SimOptions,
    SimResult, TrialRun, MAX_CHECKPOINTS,
};
use casted_util::prop::run_cases;
use casted_util::{prop_assert, prop_assert_eq};
use std::collections::HashMap;

fn opts() -> GenOptions {
    GenOptions {
        body_ops: 25,
        iterations: 5,
        globals: 2,
        with_float: true,
        diamonds: 1,
        inner_loops: 1,
        lib_calls: 1,
    }
}

/// One-instruction-per-bundle sequential schedule on cluster 0.
fn sequential(module: &Module, config: MachineConfig) -> ScheduledProgram {
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

/// Greedy packed schedule on cluster 0: consecutive instructions of a
/// block share a bundle of up to `width` while none reads a register
/// an earlier one in the bundle defines. Operands are read before any
/// writeback (VLIW parallel read), so the packing keeps the sequential
/// schedule's values and only moves the timing — and it puts several
/// dynamic instructions behind one bundle boundary.
fn packed(module: &Module, config: MachineConfig, width: usize) -> ScheduledProgram {
    let mut sp = sequential(module, config);
    let func = module.entry_fn();
    for sb in &mut sp.blocks {
        let mut bundles: Vec<Bundle> = Vec::new();
        let mut defs: Vec<casted_ir::Reg> = Vec::new();
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

fn bit_identical(a: &SimResult, b: &SimResult) -> bool {
    a.stop == b.stop
        && a.injected == b.injected
        && a.stats == b.stats
        && a.stream.len() == b.stream.len()
        && a.stream.iter().zip(&b.stream).all(|(x, y)| x.bit_eq(y))
}

fn random_config(rng: &mut casted_util::Rng) -> MachineConfig {
    let clusters = rng.gen_range(1..=2usize);
    let delay = rng.gen_range(1..=4u32);
    if rng.gen_range(0..2u32) == 0 {
        MachineConfig::perfect_memory(clusters, delay)
    } else {
        MachineConfig::itanium2_like(clusters, delay)
    }
}

#[test]
fn replay_is_bit_identical_to_scratch_run() {
    run_cases("replay_is_bit_identical_to_scratch_run", 24, |rng| {
        let m = random_module(rng.gen_range(0..1u64 << 48), &opts());
        let sp = sequential(&m, random_config(rng));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        if !matches!(golden.stop, casted_ir::interp::StopReason::Halt(_)) {
            return Ok(()); // campaign preconditions not met; skip
        }
        let trace = golden_with_checkpoints(&sp);
        let max_cycles = golden.stats.cycles.saturating_mul(10);
        for _ in 0..6 {
            let at = rng.gen_range(1..=golden.stats.dyn_insns);
            let bit = rng.gen_range(0..64u32);
            let inj = Injection::single(at, bit, None);
            let scratch = simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles,
                    injection: Some(inj),
                    ..SimOptions::default()
                },
            );
            match replay_trial(&trace, inj, max_cycles, None, None) {
                (TrialRun::Finished(r), skipped) => {
                    prop_assert!(
                        bit_identical(&r, &scratch),
                        "replay of at={at} bit={bit} diverged: {:?} vs scratch {:?}",
                        r.stop,
                        scratch.stop
                    );
                    prop_assert!(
                        skipped < at,
                        "restored a checkpoint at/after the injection site"
                    );
                }
                (TrialRun::Converged { corrections, .. }, _) => {
                    check_pruned(&golden, &scratch, corrections, at)?;
                }
                (TrialRun::Escaped, _) => unreachable!("a whole-program replay cannot escape"),
            }
        }
        Ok(())
    });
}

/// A pruned trial claims the golden halt and a final correction
/// count: the scratch run must halt like the golden run with a
/// bit-equal stream and end with exactly that count, so it classifies
/// the same way (Corrected if the count is nonzero, Benign otherwise).
fn check_pruned(
    golden: &SimResult,
    scratch: &SimResult,
    corrections: u64,
    at: u64,
) -> Result<(), String> {
    prop_assert_eq!(scratch.stop, golden.stop);
    prop_assert!(
        scratch.stream.len() == golden.stream.len()
            && scratch.stream.iter().zip(&golden.stream).all(|(x, y)| x.bit_eq(y)),
        "pruned trial at site {at} does not halt like the golden run from scratch"
    );
    prop_assert_eq!(corrections, scratch.stats.corrections);
    Ok(())
}

/// TMR-transformed programs, where a strike the votes repaired can
/// still converge: every replay is exact, and a pruned one reports the
/// scratch run's final correction count. Some pruned trials must be
/// vote-repaired, or the property says nothing about them.
#[test]
fn tmr_replay_reports_the_full_runs_corrections() {
    let mut repaired = 0u32;
    run_cases("tmr_replay_reports_the_full_runs_corrections", 16, |rng| {
        let m = random_module(rng.gen_range(0..1u64 << 48), &opts());
        let sp = prepare(&m, Scheme::Tmred, &random_config(rng))
            .map_err(|e| format!("TMR prepare failed: {e}"))?
            .sp;
        let golden = simulate_quiet(&sp, &SimOptions::default());
        if !matches!(golden.stop, casted_ir::interp::StopReason::Halt(_)) {
            return Ok(());
        }
        prop_assert_eq!(golden.stats.corrections, 0);
        let trace = golden_with_checkpoints(&sp);
        let max_cycles = golden.stats.cycles.saturating_mul(10);
        for _ in 0..12 {
            let at = rng.gen_range(1..=golden.stats.dyn_insns);
            let inj = Injection::single(at, rng.gen_range(0..64u32), None);
            let scratch = simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles,
                    injection: Some(inj),
                    ..SimOptions::default()
                },
            );
            match replay_trial(&trace, inj, max_cycles, None, None) {
                (TrialRun::Finished(r), _) => prop_assert!(
                    bit_identical(&r, &scratch),
                    "replay of site {at} diverged: {:?} vs scratch {:?}",
                    r.stop,
                    scratch.stop
                ),
                (TrialRun::Converged { corrections, .. }, _) => {
                    check_pruned(&golden, &scratch, corrections, at)?;
                    repaired += (corrections > 0) as u32;
                }
                (TrialRun::Escaped, _) => unreachable!("a whole-program replay cannot escape"),
            }
        }
        Ok(())
    });
    assert!(repaired > 0, "no vote-repaired trial converged: the TMR property is vacuous");
}

#[test]
fn resume_from_any_checkpoint_reproduces_golden_run() {
    run_cases("resume_from_any_checkpoint_reproduces_golden_run", 16, |rng| {
        let m = random_module(rng.gen_range(0..1u64 << 48), &opts());
        let sp = sequential(&m, random_config(rng));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        if !matches!(golden.stop, casted_ir::interp::StopReason::Halt(_)) {
            return Ok(());
        }
        let trace = golden_with_checkpoints(&sp);
        // An injection past the end of the run never lands, so the
        // replay exercises pure snapshot → restore → resume from the
        // deepest checkpoint; the result must equal the golden run.
        let inj = Injection::single(golden.stats.dyn_insns + 1, rng.gen_range(0..64u32), None);
        match replay_trial(&trace, inj, golden.stats.cycles.saturating_mul(10), None, None) {
            (TrialRun::Finished(r), _) => {
                prop_assert!(
                    bit_identical(&r, &golden),
                    "uninjected resume diverged from the golden run: {:?} vs {:?}",
                    r.stop,
                    golden.stop
                );
            }
            (TrialRun::Converged { .. } | TrialRun::Escaped, _) => {
                return Err("uninjected resume cannot be pruned or escape".into());
            }
        }
        Ok(())
    });
}

/// For every retired instruction (0-based), the dynamic-instruction
/// count at the boundary before the bundle that retired it: the last
/// boundary strictly before that 1-based site. Bundles issue in
/// strictly increasing cycles, so a bundle is a run of equal cycles in
/// the golden trace.
fn bundle_starts(sp: &ScheduledProgram) -> Vec<u64> {
    let traced = simulate_quiet(
        sp,
        &SimOptions {
            trace_limit: usize::MAX,
            ..SimOptions::default()
        },
    );
    let mut starts = Vec::with_capacity(traced.trace.len());
    for (i, e) in traced.trace.iter().enumerate() {
        let start = match i {
            0 => 0,
            _ if traced.trace[i - 1].cycle == e.cycle => starts[i - 1],
            _ => i as u64,
        };
        starts.push(start);
    }
    starts
}

#[test]
fn capture_at_drawn_sites_replays_exactly_and_restores_the_last_boundary() {
    run_cases("capture_at_drawn_sites", 24, |rng| {
        let m = random_module(rng.gen_range(0..1u64 << 48), &opts());
        let sp = packed(&m, random_config(rng), rng.gen_range(2..=4usize));
        let golden = GoldenRun::new(&sp, u64::MAX);
        let g = golden.result.clone();
        if !matches!(g.stop, casted_ir::interp::StopReason::Halt(_)) {
            return Ok(());
        }
        let n = g.stats.dyn_insns;
        let starts = bundle_starts(&sp);
        prop_assert_eq!(starts.len() as u64, n);

        // Site 1, site N, duplicates, every instruction of one
        // multi-instruction bundle, and random sites — past the cap
        // in half of the cases when the run is long enough.
        let mut sites = vec![1, n, n, 1];
        if let Some(i) = (1..n as usize).find(|&i| starts[i] == starts[i - 1]) {
            let lo = starts[i];
            sites.extend((lo + 1..=n).take_while(|&s| starts[s as usize - 1] == lo));
        }
        let over_cap = n > 2 * MAX_CHECKPOINTS && rng.gen_range(0..2u32) == 0;
        let extra = if over_cap { 2 * MAX_CHECKPOINTS } else { rng.gen_range(0..100u64) };
        for _ in 0..extra {
            let s = rng.gen_range(1..=n);
            sites.push(s);
            if rng.gen_range(0..4u32) == 0 {
                sites.push(s);
            }
        }
        let mut distinct = sites.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let fits = distinct.len() as u64 <= MAX_CHECKPOINTS;
        prop_assert_eq!(fits, !over_cap);

        let trace = golden.capture(&sp, &sites, None);
        let cap = distinct.len().min(MAX_CHECKPOINTS as usize) as u64;
        prop_assert!(trace.checkpoints_taken() <= cap + 1);
        let max_cycles = g.stats.cycles.saturating_mul(10);
        for &at in &distinct {
            let inj = Injection::single(at, rng.gen_range(0..64u32), None);
            let scratch = simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles,
                    injection: Some(inj),
                    ..SimOptions::default()
                },
            );
            let (run, skipped) = replay_trial(&trace, inj, max_cycles, None, None);
            prop_assert!(skipped < at, "site {at} restored at {skipped}");
            if fits {
                prop_assert_eq!(skipped, starts[at as usize - 1]);
            }
            match run {
                TrialRun::Finished(r) => prop_assert!(
                    bit_identical(&r, &scratch),
                    "replay of site {at} diverged: {:?} vs scratch {:?}",
                    r.stop,
                    scratch.stop
                ),
                TrialRun::Converged { corrections, .. } => {
                    check_pruned(&g, &scratch, corrections, at)?;
                }
                TrialRun::Escaped => unreachable!("a whole-program replay cannot escape"),
            }
        }
        Ok(())
    });
}

//! Checkpoint/replay engine for fault-injection campaigns.
//!
//! A Monte-Carlo campaign simulates the same program hundreds of
//! times, and every faulty run is **identical to the fault-free run
//! up to the injection site** — the simulator is deterministic and
//! the injection is the first divergence. Re-executing that prefix per
//! trial is where almost all campaign time goes (FastFlip makes the
//! same observation for RTL fault injection; RepTFD frames the faulty
//! suffix as the only part of a replay that carries information).
//!
//! This module removes the redundancy twice over:
//!
//! 1. **Golden snapshots + fast-forward replay.** During one quiet
//!    golden run, [`golden_with_checkpoints`] clones the machine's
//!    complete live state ([`MachineState`]) at ~√N evenly spaced
//!    dynamic-instruction counts. A trial with injection site `at`
//!    restores the last checkpoint *strictly before* `at` and
//!    simulates only the suffix. Strictness matters: the injection
//!    condition is `dyn_insns >= at`, so resuming from `dyn < at`
//!    reproduces the original landing site exactly.
//! 2. **Convergence pruning.** Most faults are benign, and a benign
//!    faulty run usually *re-converges* with the golden run long
//!    before halting (the flipped value is overwritten or masked).
//!    The golden run records an FNV-64 fingerprint of the full
//!    machine state at sampled block entries; a faulty trial whose
//!    post-injection state fingerprints equal at the same dynamic
//!    instruction is classified Benign on the spot.
//!
//! ## Why replay is exact
//!
//! The simulator's behaviour from a bundle boundary onward is a pure
//! function of [`MachineState`] (registers, memory, cache replacement
//! state, scoreboard, MSHRs, cycle, control position, emitted-stream
//! contents) plus the static program. A restored checkpoint therefore
//! continues bit-identically to the uninterrupted run — including
//! stall timing and the watchdog, whose per-bundle check compares the
//! same cycle values. `prop_checkpoint.rs` property-tests this end to
//! end; the difftest oracle cross-checks whole campaign tallies.
//!
//! ## Why pruning is sound
//!
//! The fingerprint covers **everything** future behaviour can read:
//! live registers (value + scoreboard entry), all of memory, the
//! emitted stream, the cache tags/stamps/tick, pending MSHR entries,
//! the cycle and the control position. Registers that are dead at the
//! sample point — not read before being rewritten along *any* path of
//! the scheduled code, per a bundle-order liveness analysis — are
//! excluded: their values are unobservable, and excluding them is
//! precisely what lets a "flipped a dead register" trial converge.
//! Fingerprint equality at the same dynamic instruction therefore
//! implies the faulty suffix replays the golden suffix exactly: same
//! halt code, same remaining stream, same cycles — i.e. Benign, the
//! same class a full run would produce. The only approximation is the
//! 64-bit digest itself: a prune requires an FNV-64 collision *and*
//! an unequal state to misclassify, which is vanishingly unlikely and
//! continuously cross-checked by the difftest engine-equivalence
//! oracle (see docs/PERFORMANCE.md).

use std::collections::HashMap;

use casted_ir::interp::OutVal;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{BlockId, Opcode, Reg, RegClass};
use casted_util::hash::Fnv64;

use crate::decode::DecodedProgram;
use crate::machine::{
    run_decoded, run_machine, Boundary, Injection, MachineState, SimOptions, SimResult,
};

/// Snapshot cadence and fingerprint cadence for one golden run.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPlan {
    /// Target dynamic-instruction spacing between checkpoints.
    pub interval: u64,
    /// Target dynamic-instruction spacing between fingerprint samples.
    pub sample_every: u64,
}

/// Hard cap on captured checkpoints: each one clones the full machine
/// state (memory + cache tags dominate), so √N is additionally bounded
/// to keep a campaign's resident footprint modest. With 128 buckets
/// the expected fast-forward remainder is N/256 — already negligible.
pub const MAX_CHECKPOINTS: u64 = 128;

/// Convergence checks a replayed trial attempts before giving up and
/// running to completion. Benign trials converge at the first or
/// second sampled block entry after the injection (the flipped value
/// is dead or quickly overwritten); a trial still diverged after this
/// many samples almost always stays diverged (Detected / DataCorrupt /
/// Timeout), so further full-state fingerprints would be pure
/// overhead. The cap affects only speed, never results: an unpruned
/// trial is simulated to its natural stop and classified normally.
const MAX_CONVERGENCE_ATTEMPTS: u32 = 8;

impl CheckpointPlan {
    /// Choose spacing from the golden dynamic length: ~√N checkpoint
    /// buckets (capped), fingerprint samples at a quarter of the
    /// checkpoint interval (bounded below so tiny programs don't
    /// fingerprint at every block).
    pub fn for_golden(dyn_insns: u64) -> Self {
        let buckets = ((dyn_insns as f64).sqrt() as u64).clamp(1, MAX_CHECKPOINTS);
        let interval = (dyn_insns / buckets).max(16);
        let sample_every = (interval / 4).max(16);
        CheckpointPlan {
            interval,
            sample_every,
        }
    }
}

/// Per-class bitmask of registers live at a block entry, computed on
/// the *scheduled* code (see [`live_in_masks`]). Shared with the
/// section layer (`crate::section`), which fingerprints trial states
/// against the same masks and hashes them into cache-validation
/// records.
#[derive(Clone, Debug, Default)]
pub(crate) struct LiveMask {
    gp: Vec<u64>,
    fp: Vec<u64>,
    pr: Vec<u64>,
}

impl LiveMask {
    fn sized(func: &casted_ir::Function) -> Self {
        let words = |n: u32| vec![0u64; (n as usize + 63) / 64];
        LiveMask {
            gp: words(func.reg_count(RegClass::Gp)),
            fp: words(func.reg_count(RegClass::Fp)),
            pr: words(func.reg_count(RegClass::Pr)),
        }
    }

    pub(crate) fn class_bits(&self, class: RegClass) -> &[u64] {
        match class {
            RegClass::Gp => &self.gp,
            RegClass::Fp => &self.fp,
            RegClass::Pr => &self.pr,
        }
    }

    fn insert(&mut self, r: Reg) {
        let bits = match r.class {
            RegClass::Gp => &mut self.gp,
            RegClass::Fp => &mut self.fp,
            RegClass::Pr => &mut self.pr,
        };
        bits[r.index as usize / 64] |= 1u64 << (r.index % 64);
    }

}

/// Backward liveness at block entries, computed **over the scheduled
/// bundles** rather than the source block order: scheduling permutes
/// instructions within a block, so the upward-exposed-use sets can
/// differ from the `casted_ir::liveness` view, and soundness here
/// needs the order the simulator actually executes. Within a bundle,
/// all operand reads happen before all writebacks (VLIW parallel
/// read), so a register used and defined in the same bundle counts as
/// upward-exposed.
pub(crate) fn live_in_masks(sp: &ScheduledProgram, dp: &DecodedProgram) -> Vec<LiveMask> {
    use std::collections::HashSet;
    let func = sp.module.entry_fn();
    let n = dp.block_count();
    let mut use_set: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut def_set: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let (u, d) = (&mut use_set[i], &mut def_set[i]);
        for bundle in dp.block(BlockId(i as u32)) {
            for &(r, _) in dp.stalls(bundle) {
                if !d.contains(&r) {
                    u.insert(r);
                }
            }
            for op in dp.ops(bundle) {
                d.extend(op.def);
                if matches!(op.op, Opcode::Br | Opcode::BrCond) {
                    for t in [op.target, op.target2].into_iter().flatten() {
                        if !succs[i].contains(&t.index()) {
                            succs[i].push(t.index());
                        }
                    }
                }
            }
        }
    }

    let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut inn = use_set[i].clone();
            for &s in &succs[i] {
                for &r in &live_in[s] {
                    if !def_set[i].contains(&r) {
                        inn.insert(r);
                    }
                }
            }
            if inn.len() != live_in[i].len() {
                live_in[i] = inn;
                changed = true;
            }
        }
    }

    live_in
        .into_iter()
        .map(|set| {
            let mut m = LiveMask::sized(func);
            for r in set {
                m.insert(r);
            }
            m
        })
        .collect()
}

/// FNV-64 digest of everything future execution can observe from a
/// block-entry boundary, masking dead registers (see module docs).
pub(crate) fn fingerprint(st: &MachineState, live: &LiveMask) -> u64 {
    // Word-round mixing throughout (`write_u64_round`): the digest
    // hashes tens of thousands of words per sample and byte-wise FNV
    // rounds were the engine's hottest loop. Every field is absorbed
    // as canonical (tag, value) words, so equality of state still
    // implies equality of digest.
    let mut h = Fnv64::new();
    h.write_u64_round(st.cycle);
    h.write_u64_round(st.block.index() as u64);
    h.write_u64_round(st.stats.dyn_insns);
    // Corrections performed so far (TMRED): a trial whose vote masked
    // a strike must not prune to Benign — it is Corrected, a distinct
    // outcome — so the counter is part of observable state.
    h.write_u64_round(st.stats.corrections);
    // RBED accumulator: register/memory reconvergence does not imply
    // digest reconvergence (the divergent values were already
    // absorbed), so a pruned trial must have the golden digest too.
    if let Some(rb) = st.rbed.as_deref() {
        h.write_u64_round(rb.acc.finish());
        h.write_u64_round(rb.next as u64);
    }

    // Live registers: value plus scoreboard entry, in class/index
    // order so the digest is canonical.
    for (class, tag) in [(RegClass::Gp, 1u64), (RegClass::Fp, 2), (RegClass::Pr, 3)] {
        h.write_u64_round(tag);
        for (w, &word) in live.class_bits(class).iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let idx = (w * 64 + bit) as u32;
                let r = Reg { class, index: idx };
                h.write_u64_round(idx as u64);
                match st.rf.get(r) {
                    casted_ir::semantics::Val::I(v) => h.write_u64_round(v as u64),
                    casted_ir::semantics::Val::F(v) => h.write_u64_round(v.to_bits()),
                    casted_ir::semantics::Val::B(v) => h.write_u64_round(v as u64),
                }
                let (avail, writer) = st.ready.get(r);
                h.write_u64_round(avail);
                h.write_u64_round(writer as u64);
            }
        }
    }

    // All of memory (stores cannot be "dead" without a points-to
    // analysis; covering every word keeps the argument airtight).
    // Zero words are skipped and nonzero words are absorbed as
    // (index, value) pairs: states that differ in any word — zero or
    // not — still hash differently, but the common zero-filled heap
    // slack costs nothing.
    for i in 0..st.mem.len_words() {
        let w = st.mem.word(i);
        if w != 0 {
            h.write_u64_round(i as u64);
            h.write_u64_round(w as u64);
        }
    }

    // Emitted stream: prefix equality is part of the Benign contract.
    h.write_u64_round(st.stream.len() as u64);
    for v in &st.stream {
        match v {
            OutVal::Int(i) => {
                h.write_u64_round(0);
                h.write_u64_round(*i as u64);
            }
            OutVal::Float(f) => {
                h.write_u64_round(1);
                h.write_u64_round(f.to_bits());
            }
        }
    }

    // Pending misses. Entries at or below the current cycle are dead —
    // the next miss's retain() removes them before they can queue
    // anything — so they are skipped to let replays whose stale
    // entries differ still converge.
    for &c in &st.mshr {
        if c > st.cycle {
            h.write_u64_round(c);
        }
    }

    st.cache.fingerprint_into(&mut h);
    h.finish()
}

/// The golden run plus everything a replay needs: checkpoints ordered
/// by dynamic-instruction count (the power-on state first) and the
/// fingerprint table keyed by dynamic instruction.
pub struct GoldenTrace {
    /// The fault-free result (flushes `sim.*` metrics exactly once,
    /// like the plain golden run the reference engine performs).
    pub result: SimResult,
    /// Chosen cadence.
    pub plan: CheckpointPlan,
    checkpoints: Vec<MachineState>,
    fingerprints: HashMap<u64, u64>,
    live: Vec<LiveMask>,
    /// RBED digest plan the golden run was instrumented with (`None`
    /// for every other scheme). Replays run under the same plan so
    /// restored accumulators keep advancing.
    rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
    /// The program decoded once for the whole campaign: the golden
    /// passes, every replay and every batch leader run on it.
    pub(crate) decoded: DecodedProgram,
}

impl GoldenTrace {
    /// Number of snapshots captured (including the power-on state).
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints.len() as u64
    }

    /// Number of fingerprint samples recorded.
    pub fn fingerprints_recorded(&self) -> u64 {
        self.fingerprints.len() as u64
    }

    /// Index of the checkpoint a trial with injection site
    /// `at_dyn_insn` restores: the last snapshot whose
    /// dynamic-instruction count is *strictly below* the site.
    /// Strictness matters — the landing condition is `dyn_insns >= at`,
    /// so resuming from `dyn < at` reproduces the original landing
    /// site exactly (a checkpoint taken *at* the site would skip it).
    /// Returns 0 (the power-on state) for 1-based sites on a normal
    /// trace, and stays 0 even on a degenerate trace with no
    /// mid-run snapshots.
    pub fn restore_index(&self, at_dyn_insn: u64) -> usize {
        self.checkpoints
            .partition_point(|c| c.stats.dyn_insns < at_dyn_insn)
            .saturating_sub(1)
    }

    /// The snapshot at `idx`, if captured (the batch engine restores
    /// through this; `None` lets callers fall back to the power-on
    /// state instead of indexing out of bounds).
    pub(crate) fn checkpoint(&self, idx: usize) -> Option<&MachineState> {
        self.checkpoints.get(idx)
    }

    /// Whether this golden run was instrumented with an RBED digest
    /// plan. The batch engine needs only the flag: a lane whose
    /// computed values all equal the leader's carries the golden
    /// digest by construction, and any lane computing a differing
    /// value is handed back to the exact replay path (see
    /// `batch.rs`), so the batch never evaluates digests itself.
    pub(crate) fn rbed_active(&self) -> bool {
        self.rbed.is_some()
    }
}

/// Run the golden (fault-free) simulation, capturing checkpoints and
/// convergence fingerprints.
///
/// Two passes: a plain metrics-flushing run to learn the dynamic
/// length (the same single `sim.*` flush the reference engine's
/// golden run performs, keeping counter snapshots engine-agnostic),
/// then a quiet instrumented pass sized by [`CheckpointPlan`]. The
/// second pass costs one extra golden run per campaign — noise next
/// to the hundreds of trials it accelerates.
pub fn golden_with_checkpoints(sp: &ScheduledProgram) -> GoldenTrace {
    golden_with_checkpoints_rbed(sp, None)
}

/// [`golden_with_checkpoints`] with an optional RBED digest plan: the
/// instrumented pass runs with the accumulator installed, so every
/// snapshot and fingerprint carries the mid-run digest state a replay
/// needs to resume checking from.
pub fn golden_with_checkpoints_rbed(
    sp: &ScheduledProgram,
    rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
) -> GoldenTrace {
    let decoded = DecodedProgram::new(sp);
    let result = run_decoded(sp, &decoded, &SimOptions::default(), true);
    let plan = CheckpointPlan::for_golden(result.stats.dyn_insns);
    let live = live_in_masks(sp, &decoded);

    let instrumented_opts = SimOptions {
        rbed: rbed.clone(),
        ..SimOptions::default()
    };
    let mut checkpoints = vec![MachineState::fresh(sp)];
    let mut fingerprints: HashMap<u64, u64> = HashMap::new();
    let mut next_ckpt = plan.interval;
    let mut next_sample = plan.sample_every;
    let mut st = checkpoints[0].clone();
    let replayed = run_machine(
        &decoded,
        &instrumented_opts,
        &mut st,
        false,
        &mut |st: &MachineState| {
            let dyn_insns = st.stats.dyn_insns;
            if dyn_insns >= next_ckpt && (checkpoints.len() as u64) < MAX_CHECKPOINTS {
                checkpoints.push(st.clone());
                next_ckpt = (dyn_insns / plan.interval + 1) * plan.interval;
            }
            // Fingerprints only at block entries, where the pending
            // branch/halt slots are empty and a per-block live mask is
            // exact (mid-block boundaries would need per-bundle masks).
            if st.bundle_idx == 0 && dyn_insns >= next_sample {
                fingerprints.insert(dyn_insns, fingerprint(st, &live[st.block.index()]));
                next_sample = (dyn_insns / plan.sample_every + 1) * plan.sample_every;
            }
            Boundary::Continue
        },
    )
    .expect("golden capture run cannot be stopped by the hook");
    debug_assert_eq!(replayed.stop, result.stop);
    debug_assert_eq!(replayed.stats.dyn_insns, result.stats.dyn_insns);

    GoldenTrace {
        result,
        plan,
        checkpoints,
        fingerprints,
        live,
        rbed,
        decoded,
    }
}

/// How one replayed trial ended.
pub enum TrialRun {
    /// The trial ran to a stop; classify its result normally.
    Finished(SimResult),
    /// The post-injection state re-converged with the golden run: the
    /// remainder is provably identical, the trial is Benign.
    Converged,
}

/// Engine-side accounting for one replayed trial.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Golden-prefix instructions skipped by restoring a checkpoint.
    pub skipped_insns: u64,
    /// Whether convergence pruning ended the trial.
    pub pruned: bool,
}

/// Replay one faulty trial against a captured golden trace: restore
/// the last checkpoint strictly before the injection site, run the
/// suffix, and prune on post-injection convergence. For a trial that
/// runs to a stop, the returned [`SimResult`] is bit-identical to a
/// full `simulate` of the same injection (the property test pins
/// this), so classification is unchanged; a pruned trial is Benign.
pub fn replay_trial(
    sp: &ScheduledProgram,
    trace: &GoldenTrace,
    inj: Injection,
    max_cycles: u64,
) -> (TrialRun, ReplayStats) {
    // Last checkpoint with dyn_insns < at (see `restore_index`). A
    // trace always carries at least the power-on snapshot, but a
    // degenerate or hand-built one must not panic here — fall back to
    // the power-on state, which every replay may legally start from.
    let idx = trace.restore_index(inj.at_dyn_insn);
    let mut st = trace
        .checkpoints
        .get(idx)
        .cloned()
        .unwrap_or_else(|| MachineState::fresh(sp));
    let stats = ReplayStats {
        skipped_insns: st.stats.dyn_insns,
        pruned: false,
    };

    let opts = SimOptions {
        max_cycles,
        injection: Some(inj),
        rbed: trace.rbed.clone(),
        ..SimOptions::default()
    };
    let mut attempts = 0u32;
    let finished = run_machine(&trace.decoded, &opts, &mut st, false, &mut |st: &MachineState| {
        if !st.injected || st.bundle_idx != 0 || attempts >= MAX_CONVERGENCE_ATTEMPTS {
            return Boundary::Continue;
        }
        // Sample exactly where the golden run sampled: a hit in the
        // table means the golden run passed a block entry at this
        // dynamic-instruction count. The fingerprint also binds the
        // block id, cycle and stream, so an aligned count in a
        // diverged run cannot false-match.
        match trace.fingerprints.get(&st.stats.dyn_insns) {
            Some(&golden_fp) => {
                attempts += 1;
                if golden_fp == fingerprint(st, &trace.live[st.block.index()]) {
                    Boundary::Stop
                } else {
                    Boundary::Continue
                }
            }
            None => Boundary::Continue,
        }
    });

    match finished {
        Some(result) => (TrialRun::Finished(result), stats),
        None => (
            TrialRun::Converged,
            ReplayStats {
                pruned: true,
                ..stats
            },
        ),
    }
}

/// [`replay_trial`] that additionally reports *what the replay
/// touched*: the blocks the run visited after the fault landed and,
/// for a pruned trial, the dynamic-instruction count where it
/// re-converged with the golden run.
///
/// This is the validation surface the incremental section cache
/// (`casted-faults::sections`) stores per escaped trial: a cached
/// replay verdict stays reusable exactly while every post-injection
/// block (and, for a converged verdict, the golden path up to the
/// convergence point) is unchanged. Kept separate from
/// [`replay_trial`] so the checkpointed/batched engines' hot path
/// pays no per-bundle bookkeeping.
pub fn replay_trial_observed(
    sp: &ScheduledProgram,
    trace: &GoldenTrace,
    inj: Injection,
    max_cycles: u64,
) -> (TrialRun, ReplayStats, Vec<u32>, Option<u64>) {
    let idx = trace.restore_index(inj.at_dyn_insn);
    let mut st = trace
        .checkpoints
        .get(idx)
        .cloned()
        .unwrap_or_else(|| MachineState::fresh(sp));
    let stats = ReplayStats {
        skipped_insns: st.stats.dyn_insns,
        pruned: false,
    };

    let opts = SimOptions {
        max_cycles,
        injection: Some(inj),
        rbed: trace.rbed.clone(),
        ..SimOptions::default()
    };
    let mut attempts = 0u32;
    let mut visited: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut converged_at: Option<u64> = None;
    let finished = run_machine(&trace.decoded, &opts, &mut st, false, &mut |st: &MachineState| {
        if !st.injected {
            // The pre-landing stretch replays the golden path; its
            // effect on the state at the site is pinned by the cache
            // key, so only post-injection blocks need recording.
            return Boundary::Continue;
        }
        visited.insert(st.block.index() as u32);
        if st.bundle_idx != 0 || attempts >= MAX_CONVERGENCE_ATTEMPTS {
            return Boundary::Continue;
        }
        match trace.fingerprints.get(&st.stats.dyn_insns) {
            Some(&golden_fp) => {
                attempts += 1;
                if golden_fp == fingerprint(st, &trace.live[st.block.index()]) {
                    converged_at = Some(st.stats.dyn_insns);
                    Boundary::Stop
                } else {
                    Boundary::Continue
                }
            }
            None => Boundary::Continue,
        }
    });
    // Final control position (the empty-block fallthrough stops
    // without a boundary hook call — same note as `section.rs`).
    if st.injected {
        visited.insert(st.block.index() as u32);
    }

    let blocks = visited.into_iter().collect();
    match finished {
        Some(result) => (TrialRun::Finished(result), stats, blocks, None),
        None => (
            TrialRun::Converged,
            ReplayStats {
                pruned: true,
                ..stats
            },
            blocks,
            converged_at,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{looping_module, sequential};
    use casted_ir::{FunctionBuilder, MachineConfig, Module};

    fn result_eq(a: &SimResult, b: &SimResult) -> bool {
        a.stop == b.stop
            && a.injected == b.injected
            && a.stats == b.stats
            && a.stream.len() == b.stream.len()
            && a.stream.iter().zip(&b.stream).all(|(x, y)| x.bit_eq(y))
    }

    #[test]
    fn plan_scales_with_golden_length() {
        let tiny = CheckpointPlan::for_golden(10);
        assert!(tiny.interval >= 16);
        let big = CheckpointPlan::for_golden(1_000_000);
        assert!(big.interval >= 1_000_000 / MAX_CHECKPOINTS);
        assert!(big.sample_every < big.interval);
    }

    #[test]
    fn golden_trace_checkpoints_cover_the_run() {
        let m = looping_module(200);
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let t = golden_with_checkpoints(&sp);
        assert!(t.checkpoints_taken() > 1, "expected mid-run checkpoints");
        assert!(t.fingerprints_recorded() > 0);
        // Snapshots are strictly ordered by dynamic-instruction count.
        for w in t.checkpoints.windows(2) {
            assert!(w[0].stats.dyn_insns < w[1].stats.dyn_insns);
        }
    }

    #[test]
    fn replay_matches_scratch_simulation_everywhere() {
        let m = looping_module(60);
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let t = golden_with_checkpoints(&sp);
        let max_cycles = t.result.stats.cycles * 10;
        // Every 7th site, every bit position cycled: replays must be
        // bit-identical to from-scratch faulty runs unless pruned.
        for k in 0..40u64 {
            let at = 1 + (k * 7) % t.result.stats.dyn_insns;
            let inj = Injection::single(at, (k % 64) as u32, None);
            let scratch = crate::machine::simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles,
                    injection: Some(inj),
                    ..SimOptions::default()
                },
            );
            match replay_trial(&sp, &t, inj, max_cycles) {
                (TrialRun::Finished(r), st) => {
                    assert!(
                        result_eq(&r, &scratch),
                        "replay diverged from scratch at site {at}: {:?} vs {:?}",
                        r.stop,
                        scratch.stop
                    );
                    assert!(st.skipped_insns < at);
                }
                (TrialRun::Converged, _) => {
                    // Pruned trials must be ones a full run classifies
                    // Benign: same halt + bit-equal stream as golden.
                    assert_eq!(scratch.stop, t.result.stop, "pruned a non-benign trial");
                    assert!(
                        scratch.stream.len() == t.result.stream.len()
                            && scratch
                                .stream
                                .iter()
                                .zip(&t.result.stream)
                                .all(|(x, y)| x.bit_eq(y)),
                        "pruned trial's full run has a different stream"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_site_fast_forwards_from_last_checkpoint() {
        let m = looping_module(120);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        let inj = Injection::single(u64::MAX, 3, None);
        let (run, st) = replay_trial(&sp, &t, inj, t.result.stats.cycles * 10);
        // The injection never lands; the replay starts at the deepest
        // snapshot and finishes exactly like the golden run.
        assert_eq!(
            st.skipped_insns,
            t.checkpoints.last().unwrap().stats.dyn_insns
        );
        match run {
            TrialRun::Finished(r) => {
                assert_eq!(r.stop, t.result.stop);
                assert!(!r.injected);
            }
            TrialRun::Converged => panic!("cannot converge without an injection"),
        }
    }

    #[test]
    fn zero_dynamic_instruction_program_replays_safely() {
        // An empty entry block retires nothing: the golden run stops
        // with dyn_insns == 0 via the missing-branch exception. The
        // engine must still produce a usable trace (the power-on
        // snapshot only) and replay the degenerate no-op injection the
        // frozen stream draws for such programs (`at = u64::MAX`).
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        // A second (unreachable) block stops `finish()` from patching
        // the empty entry with an implicit halt: the entry block truly
        // retires nothing and falls through.
        let _unreachable = b.new_block("dead");
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        assert_eq!(t.result.stats.dyn_insns, 0);
        assert_eq!(t.checkpoints_taken(), 1, "power-on snapshot only");
        assert_eq!(t.restore_index(u64::MAX), 0);
        let inj = Injection::single(u64::MAX, 7, None);
        match replay_trial(&sp, &t, inj, 1000) {
            (TrialRun::Finished(r), st) => {
                assert_eq!(r.stop, t.result.stop);
                assert!(!r.injected);
                assert_eq!(st.skipped_insns, 0);
            }
            (TrialRun::Converged, _) => panic!("cannot converge without an injection"),
        }
    }

    #[test]
    fn one_dynamic_instruction_program_replays_safely() {
        // `halt 0` alone: exactly one dynamic instruction, which has
        // no output register, so a site-1 injection slides forever and
        // never lands. Replay must match the golden run bit for bit.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        assert_eq!(t.result.stats.dyn_insns, 1);
        for bit in [0u32, 17, 63] {
            let inj = Injection::single(1, bit, None);
            match replay_trial(&sp, &t, inj, 1000) {
                (TrialRun::Finished(r), _) => {
                    assert_eq!(r.stop, t.result.stop);
                    assert!(!r.injected, "halt has no def: the strike must slide off");
                }
                (TrialRun::Converged, _) => panic!("cannot converge without an injection"),
            }
        }
    }

    #[test]
    fn dead_register_strike_is_pruned() {
        // A value that is computed, never used again and never
        // rewritten: striking it after its last use must re-converge
        // via the dead-register mask (the fingerprint would otherwise
        // differ forever).
        let m = looping_module(400);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        let max_cycles = t.result.stats.cycles * 10;
        let mut pruned = 0;
        for at in (1..t.result.stats.dyn_insns).step_by(11) {
            let inj = Injection::single(at, 1, None);
            if let (TrialRun::Converged, st) = replay_trial(&sp, &t, inj, max_cycles) {
                assert!(st.pruned);
                pruned += 1;
            }
        }
        assert!(pruned > 0, "no trial converged on a loop-heavy benign-rich program");
    }
}


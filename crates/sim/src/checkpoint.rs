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
//! 1. **Golden snapshots + fast-forward replay.** A campaign pre-draws
//!    its whole frozen injection stream from the golden run's dynamic
//!    length ([`GoldenRun`]), so it knows every injection site before
//!    the instrumented golden pass starts. [`GoldenRun::capture`] then
//!    clones the machine's complete live state ([`MachineState`]) at
//!    the last bundle boundary *strictly before* each distinct site
//!    (at site quantiles beyond [`MAX_CHECKPOINTS`]). A trial restores
//!    the last checkpoint strictly before its site and simulates only
//!    the suffix — usually nothing of the golden prefix at all.
//!    Strictness matters: the injection condition is `dyn_insns >=
//!    at`, so resuming from `dyn < at` reproduces the original landing
//!    site exactly.
//! 2. **Convergence pruning.** Most faults are benign, and a benign
//!    faulty run usually *re-converges* with the golden run long
//!    before halting (the flipped value is overwritten or masked).
//!    The golden run records an FNV-64 fingerprint of the full
//!    machine state at sampled block entries — only the few a trial
//!    can consult, just after each site — and a faulty trial whose
//!    post-injection state fingerprints equal at the same dynamic
//!    instruction stops on the spot. It halts like the golden run, so
//!    its class follows from its vote-correction count alone: Benign
//!    with none, Corrected (TMRED repaired the strike) with some.
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
//! halt code, same remaining stream, same cycles.
//!
//! The one counter left out is `stats.corrections`, TMRED's count of
//! votes that disagreed: execution never reads it, so it cannot steer
//! the suffix. Hashing it would stop every vote-repaired trial from
//! matching. Instead each golden sample keeps the golden count at that
//! point, and a matched trial ends with its own count plus the golden
//! suffix's corrections (`golden final − golden at the match`): the
//! suffix runs the same votes on the same values. The pruned trial
//! gets the class a full run would give it — Corrected when that count
//! is nonzero, Benign otherwise. The only approximation is the
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

/// Hard cap on the snapshots one capture clones mid-run (the power-on
/// state comes on top): each one clones the full machine state, so a
/// campaign with more distinct injection sites than this snapshots at
/// site quantiles instead, and the trials between two quantiles
/// fast-forward the gap. The clone is dominated by the memory image
/// and the cache state, both sized by the program's memory: 14–110 KB
/// of memory plus 8–34 KB of cache for the MiniC kernels, so 128 of
/// them hold 3.6–20 MB per campaign (`GoldenTrace::snapshot_bytes`).
pub const MAX_CHECKPOINTS: u64 = 128;

/// Convergence checks a replayed trial attempts before giving up and
/// running to completion. Benign trials converge at the first or
/// second sampled block entry after the injection (the flipped value
/// is dead or quickly overwritten); a trial still diverged after this
/// many samples almost always stays diverged (Detected / DataCorrupt /
/// Timeout), so further full-state fingerprints would be pure
/// overhead. The cap affects only speed, never results: an unpruned
/// trial is simulated to its natural stop and classified normally.
/// The capture records the first `MAX_CONVERGENCE_ATTEMPTS + 1`
/// sample points at or after each site and no others; a table miss
/// is simply no attempt, so this too changes speed, never a verdict.
const MAX_CONVERGENCE_ATTEMPTS: u32 = 8;

impl CheckpointPlan {
    /// Choose spacing from the golden dynamic length: ~√N checkpoint
    /// buckets (capped), fingerprint samples at a quarter of the
    /// checkpoint interval (bounded below so tiny programs don't
    /// fingerprint at every block). The site-less captures snapshot on
    /// the bucket grid; campaigns use only `sample_every`.
    pub fn for_golden(dyn_insns: u64) -> Self {
        let buckets = ((dyn_insns as f64).sqrt() as u64).clamp(1, MAX_CHECKPOINTS);
        let interval = (dyn_insns / buckets).max(16);
        let sample_every = (interval / 4).max(16);
        CheckpointPlan {
            interval,
            sample_every,
        }
    }

    /// The √N grid as injection sites, `1 + k * interval`, for the
    /// site-less captures: one snapshot per bucket, as if a trial
    /// landed at each bucket's start.
    fn grid_sites(&self, dyn_insns: u64) -> Vec<u64> {
        (0..MAX_CHECKPOINTS)
            .map(|k| 1 + k * self.interval)
            .take_while(|&s| s <= dyn_insns)
            .collect()
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
    // `stats.corrections` (TMRED's vote count) is left out: execution
    // never reads it, so a vote-repaired trial can still match. The
    // sample keeps the golden count beside the digest instead (see
    // [`Sample`] and the module docs).
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

/// One golden convergence sample: the [`fingerprint`] at a block
/// entry plus the golden vote-correction count there, which the
/// fingerprint leaves out.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    fp: u64,
    corrections: u64,
}

impl Sample {
    pub(crate) fn of(st: &MachineState, live: &LiveMask) -> Self {
        Sample {
            fp: fingerprint(st, live),
            corrections: st.stats.corrections,
        }
    }

    /// If the trial state `st` matches this sample, the vote-correction
    /// count its full run ends with: its own count plus the golden
    /// suffix's, `golden_final` being the golden run's final count.
    pub(crate) fn converged(
        &self,
        st: &MachineState,
        live: &LiveMask,
        golden_final: u64,
    ) -> Option<u64> {
        (self.fp == fingerprint(st, live))
            .then(|| golden_final - self.corrections + st.stats.corrections)
    }
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
    fingerprints: HashMap<u64, Sample>,
    live: Vec<LiveMask>,
    /// RBED digest plan the golden run was instrumented with (`None`
    /// for every other scheme). Replays run under the same plan so
    /// restored accumulators keep advancing.
    rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
    /// The program decoded once for the whole campaign: the golden
    /// passes and every replay run on it.
    decoded: DecodedProgram,
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

    /// Heap bytes held by the captured checkpoints. It scales with the
    /// program's memory and registers, not with the machine's cache
    /// capacity (see `crate::cache`).
    pub fn snapshot_bytes(&self) -> usize {
        self.checkpoints.iter().map(MachineState::heap_bytes).sum()
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

    /// Convergence check of a replay at the block entry `st`: counts an
    /// attempt when the golden run sampled this dynamic-instruction
    /// count, and on a match returns the trial's final correction count
    /// (see [`Sample::converged`]).
    fn probe(&self, st: &MachineState, attempts: &mut u32) -> Option<u64> {
        let golden = self.fingerprints.get(&st.stats.dyn_insns)?;
        *attempts += 1;
        golden.converged(st, &self.live[st.block.index()], self.result.stats.corrections)
    }
}

/// The first, metrics-flushing pass of a golden capture: the
/// fault-free result, on the program decoded once for the campaign.
/// A campaign reads the dynamic length off [`GoldenRun::result`],
/// draws its frozen injection stream, and hands the drawn sites to
/// [`GoldenRun::capture`].
pub struct GoldenRun {
    /// The fault-free result.
    pub result: SimResult,
    decoded: DecodedProgram,
}

impl GoldenRun {
    /// Run `sp` fault-free once, flushing `sim.*` metrics exactly once
    /// — the same single flush the reference engine's golden run
    /// performs, which keeps counter snapshots engine-agnostic.
    pub fn new(sp: &ScheduledProgram) -> Self {
        let decoded = DecodedProgram::new(sp);
        let result = run_decoded(sp, &decoded, &SimOptions::default(), true);
        GoldenRun { result, decoded }
    }

    /// The campaign's RBED digest plan ([`crate::rbed_plan`]), built on
    /// the program this run already decoded.
    pub fn rbed_plan(&self, sp: &ScheduledProgram) -> std::sync::Arc<crate::rbed::RbedPlan> {
        crate::rbed::rbed_plan_decoded(sp, &self.decoded, self.result.stats.dyn_insns)
    }

    /// The second, quiet pass: re-run the golden program instrumented
    /// for the trials at `sites` (1-based dynamic-instruction counts,
    /// in any order, duplicates allowed) and stop once nothing later
    /// can be consulted.
    ///
    /// * **Snapshots.** The power-on state, plus a clone at the last
    ///   bundle boundary strictly before each distinct site — the
    ///   boundary whose bundle retires the site's instruction, so
    ///   sites sharing a bundle share a snapshot. With more than
    ///   [`MAX_CHECKPOINTS`] distinct sites, only the sites at that
    ///   many quantiles get one. Sites past the run (the degenerate
    ///   `u64::MAX` draw) never land and get none.
    /// * **Fingerprints.** Only the first `MAX_CONVERGENCE_ATTEMPTS +
    ///   1` points of the unchanged `sample_every` schedule at or
    ///   after each site: a replay consults no more than that.
    /// * **Stop.** Once the last snapshot is cloned and the last
    ///   site's fingerprint window is recorded.
    ///
    /// With `rbed` the pass runs with the digest accumulator
    /// installed, so every snapshot and fingerprint carries the
    /// mid-run digest state a replay needs to resume checking from.
    pub fn capture(
        self,
        sp: &ScheduledProgram,
        sites: &[u64],
        rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
    ) -> GoldenTrace {
        let GoldenRun { result, decoded } = self;
        let golden_dyn = result.stats.dyn_insns;
        let plan = CheckpointPlan::for_golden(golden_dyn);
        let live = live_in_masks(sp, &decoded);

        let mut sites: Vec<u64> = sites
            .iter()
            .copied()
            .filter(|&s| (1..=golden_dyn).contains(&s))
            .collect();
        sites.sort_unstable();
        sites.dedup();
        let n = sites.len();
        let cap = MAX_CHECKPOINTS as usize;
        let snap_sites: Vec<u64> = if n <= cap {
            sites.clone()
        } else {
            (0..cap).map(|q| sites[q * n / cap]).collect()
        };

        let opts = SimOptions {
            rbed: rbed.clone(),
            ..SimOptions::default()
        };
        let mut checkpoints = vec![MachineState::fresh(sp)];
        let mut fingerprints: HashMap<u64, Sample> = HashMap::new();
        let (mut next_snap, mut next_site, mut window) = (0usize, 0usize, 0u32);
        let mut next_sample = plan.sample_every;
        let mut st = checkpoints[0].clone();
        let finished = run_machine(&decoded, &opts, &mut st, false, &mut |st: &MachineState| {
            let dyn_insns = st.stats.dyn_insns;
            // This boundary is the last one strictly before every
            // pending snapshot site its bundle retires: the golden
            // run's next boundary is `dyn_insns + retired` onward.
            if next_snap < snap_sites.len() {
                let bundle = &decoded.block(st.block)[st.bundle_idx];
                let retired = decoded.ops(bundle).len() as u64;
                let next_boundary = dyn_insns + retired;
                if next_boundary >= snap_sites[next_snap] {
                    // The power-on boundary is the snapshot already held.
                    if checkpoints.last().map_or(true, |c| c.cycle != st.cycle) {
                        checkpoints.push(st.clone());
                    }
                    while next_snap < snap_sites.len() && snap_sites[next_snap] <= next_boundary {
                        next_snap += 1;
                    }
                }
            }
            // Fingerprints only at block entries, where the pending
            // branch/halt slots are empty and a per-block live mask is
            // exact (mid-block boundaries would need per-bundle masks).
            if st.bundle_idx == 0 && dyn_insns >= next_sample {
                next_sample = (dyn_insns / plan.sample_every + 1) * plan.sample_every;
                if next_site < n && sites[next_site] <= dyn_insns {
                    while next_site < n && sites[next_site] <= dyn_insns {
                        next_site += 1;
                    }
                    window = MAX_CONVERGENCE_ATTEMPTS + 1;
                }
                if window > 0 {
                    window -= 1;
                    fingerprints.insert(dyn_insns, Sample::of(st, &live[st.block.index()]));
                }
            }
            if next_snap == snap_sites.len() && next_site == n && window == 0 {
                Boundary::Stop
            } else {
                Boundary::Continue
            }
        });
        if let Some(replayed) = finished {
            debug_assert_eq!(replayed.stop, result.stop);
            debug_assert_eq!(replayed.stats.dyn_insns, golden_dyn);
        }

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
}

/// Run the golden (fault-free) simulation and capture checkpoints and
/// convergence fingerprints for trials anywhere in the run: a
/// [`GoldenRun`] captured at the √N grid of [`CheckpointPlan`] as its
/// sites. Campaigns know their sites and capture at those instead,
/// which on an 8-trial Fig. 9 cell clones at most 9 states where the
/// grid clones up to 128.
pub fn golden_with_checkpoints(sp: &ScheduledProgram) -> GoldenTrace {
    golden_with_checkpoints_rbed(sp, None)
}

/// [`golden_with_checkpoints`] with an optional RBED digest plan (see
/// [`GoldenRun::capture`]).
pub fn golden_with_checkpoints_rbed(
    sp: &ScheduledProgram,
    rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
) -> GoldenTrace {
    let golden = GoldenRun::new(sp);
    let dyn_insns = golden.result.stats.dyn_insns;
    let sites = CheckpointPlan::for_golden(dyn_insns).grid_sites(dyn_insns);
    golden.capture(sp, &sites, rbed)
}

/// How one replayed trial ended.
pub enum TrialRun {
    /// The trial ran to a stop; classify its result normally.
    Finished(SimResult),
    /// The post-injection state re-converged with the golden run: the
    /// remainder is provably identical, so the trial halts like the
    /// golden run. `corrections` is the vote-correction count the full
    /// run would end with: Corrected if nonzero, Benign otherwise.
    Converged { corrections: u64 },
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
/// this), so classification is unchanged; a pruned trial carries the
/// full run's final correction count.
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
    let mut converged = None;
    let finished = run_machine(&trace.decoded, &opts, &mut st, false, &mut |st: &MachineState| {
        if !st.injected || st.bundle_idx != 0 || attempts >= MAX_CONVERGENCE_ATTEMPTS {
            return Boundary::Continue;
        }
        // Sample exactly where the golden run sampled: a hit in the
        // table means the golden run passed a block entry at this
        // dynamic-instruction count. The fingerprint also binds the
        // block id, cycle and stream, so an aligned count in a
        // diverged run cannot false-match.
        converged = trace.probe(st, &mut attempts);
        if converged.is_some() {
            Boundary::Stop
        } else {
            Boundary::Continue
        }
    });

    match finished {
        Some(result) => (TrialRun::Finished(result), stats),
        None => (
            TrialRun::Converged {
                corrections: converged.expect("only convergence stops a replay"),
            },
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
/// [`replay_trial`] so the checkpointed engine's hot path pays no
/// per-bundle bookkeeping.
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
    let mut converged: Option<(u64, u64)> = None;
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
        match trace.probe(st, &mut attempts) {
            Some(corrections) => {
                converged = Some((st.stats.dyn_insns, corrections));
                Boundary::Stop
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
        None => {
            let (at, corrections) = converged.expect("only convergence stops a replay");
            (
                TrialRun::Converged { corrections },
                ReplayStats {
                    pruned: true,
                    ..stats
                },
                blocks,
                Some(at),
            )
        }
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
    fn snapshot_footprint_scales_with_the_program_not_the_cache() {
        let m = looping_module(200);
        let table_i = MachineConfig::itanium2_like(2, 2);
        let mut big_l3 = table_i.clone();
        big_l3.cache_levels[2].size_bytes *= 8;
        let t = golden_with_checkpoints(&sequential(&m, table_i));
        let big = golden_with_checkpoints(&sequential(&m, big_l3));
        assert_eq!(t.checkpoints_taken(), big.checkpoints_taken());
        assert_eq!(t.snapshot_bytes(), big.snapshot_bytes());
        // Far below one Table I L3 (tags + stamps) per checkpoint.
        let l3_bytes = 3 * 1024 * 1024 / 128 * 16;
        assert!(t.snapshot_bytes() * 10 < t.checkpoints_taken() as usize * l3_bytes);
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
                (TrialRun::Converged { corrections }, _) => {
                    // Pruned trials must be ones a full run classifies
                    // Benign: same halt + bit-equal stream as golden.
                    assert_eq!(scratch.stop, t.result.stop, "pruned a non-benign trial");
                    assert_eq!(corrections, scratch.stats.corrections);
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
            TrialRun::Converged { .. } => panic!("cannot converge without an injection"),
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
            (TrialRun::Converged { .. }, _) => panic!("cannot converge without an injection"),
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
                (TrialRun::Converged { .. }, _) => panic!("cannot converge without an injection"),
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
            if let (TrialRun::Converged { .. }, st) = replay_trial(&sp, &t, inj, max_cycles) {
                assert!(st.pruned);
                pruned += 1;
            }
        }
        assert!(pruned > 0, "no trial converged on a loop-heavy benign-rich program");
    }
}


//! Section capture and bounded in-span trial execution — the
//! simulator half of the compositional (incremental) fault-campaign
//! layer in `casted-faults` (FastFlip's observation applied to our
//! Monte-Carlo campaigns: per-section injection results compose, so
//! only changed sections need re-injection).
//!
//! A **section** is a contiguous span of the golden dynamic trace,
//! cut at golden block entries: bounds `b_0 = 0 < b_1 < … < b_S =
//! golden_dyn`, where section `j` owns the injection sites in
//! `(b_j, b_{j+1}]`. The partition is a *performance* choice only —
//! results never depend on where the cuts land:
//!
//! * A trial whose site lies in section `j` starts from the golden
//!   machine state at `b_j` instructions retired (strictly before the
//!   site, so the landing condition `dyn_insns >= at` reproduces the
//!   full run's landing exactly — the same argument `checkpoint.rs`
//!   makes for its snapshots, which are states of the very same run).
//! * The trial executes **bounded to its span**: it may converge with
//!   the golden run at an in-span fingerprint sample (it then halts
//!   like the golden run, the checkpoint engine's pruning argument),
//!   stop naturally in-span
//!   (its [`SimResult`] is bit-identical to a full run's), or
//!   **escape** past `b_{j+1}` still diverged — in which case the
//!   campaign layer replays that one trial against the whole-program
//!   golden trace, i.e. falls back to the checkpointed-engine path.
//!
//! Every per-trial outcome is therefore exactly the outcome the
//! reference engine computes, for *any* partition — which is what
//! lets `casted-faults::sections` cache per-section results on disk
//! and recombine them byte-identically (see `docs/INCREMENTAL.md`
//! for the full exactness argument).
//!
//! The capture also exports, per scheduled block, a **code hash** and
//! a **live-in-mask hash** ([`block_validation_hashes`]): a cached
//! section record lists the blocks its golden span and its trials
//! visited, and a cache hit additionally requires those blocks'
//! hashes to be unchanged — the invalidation rule that makes reuse
//! after an edit sound.

use std::collections::{BTreeSet, HashMap};

use casted_ir::interp::OutVal;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{Reg, RegClass};
use casted_util::hash::Fnv64;

use crate::checkpoint::{live_in_masks, LiveMask, Sample};
use crate::decode::DecodedProgram;
use crate::machine::{run_machine, Boundary, Injection, MachineState, SimOptions, SimResult};

/// Upper bound on sections per program. More sections mean finer
/// reuse after an edit but more start-state clones resident during a
/// campaign; 64 keeps the footprint comparable to the checkpoint
/// engine's snapshot budget.
pub const MAX_SECTIONS: usize = 64;

/// Minimum dynamic-instruction span of a section; tiny programs get a
/// single section rather than per-block confetti.
pub const MIN_SECTION_SPAN: u64 = 32;

/// Convergence checks a bounded trial attempts before giving up (the
/// same cap as the checkpoint engine's replay, for the same reason:
/// trials still diverged after this many full-state fingerprints
/// almost never re-converge). Affects only speed — an unconverged
/// trial either stops in-span or escapes to a whole-program replay.
const MAX_CONVERGENCE_ATTEMPTS: u32 = 8;

/// One section of the golden dynamic trace.
pub struct Section {
    /// Exclusive lower bound: sites `lo < at <= hi` belong here.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Unmasked digest of the section-start machine state — the part
    /// of the cache key that binds "everything upstream".
    pub start_digest: u64,
    /// Blocks the golden run visits inside `(lo, hi]`, plus the block
    /// whose entry closes the span (its live-in mask shapes the exit
    /// fingerprint).
    pub golden_blocks: Vec<u32>,
    /// Golden machine state at `lo` retired instructions (a block
    /// entry; the power-on state for section 0).
    start: MachineState,
    /// Masked golden fingerprints at sampled in-span block entries
    /// (keyed by dynamic-instruction count), including the exit
    /// fingerprint at `hi` for every section but the last.
    fingerprints: HashMap<u64, Sample>,
}

/// The section plan plus everything a bounded trial run needs.
pub struct SectionCapture {
    /// Sections in trace order; `sections[0].lo == 0` and
    /// `sections.last().hi == golden_dyn`.
    pub sections: Vec<Section>,
    live: Vec<LiveMask>,
    /// The golden run's final vote-correction count (see
    /// [`SectionTrial::Converged`]).
    golden_corrections: u64,
    /// The program decoded once for the capture and every bounded
    /// trial.
    decoded: DecodedProgram,
}

impl SectionCapture {
    /// Index of the section owning injection site `at` (1-based sites;
    /// callers guarantee `1 <= at <= golden_dyn`).
    pub fn section_of(&self, at: u64) -> usize {
        self.sections
            .partition_point(|s| s.hi < at)
            .min(self.sections.len() - 1)
    }
}

/// How one bounded (in-span) trial run ended.
pub enum SectionTrial {
    /// The trial stopped naturally inside its span. The result is
    /// bit-identical to a full run of the same injection (same
    /// replay-exactness argument as the checkpoint engine).
    Finished(SimResult),
    /// The post-injection state re-converged with the golden run at an
    /// in-span sample, so it halts like the golden run; `corrections`
    /// is the vote-correction count the full run ends with.
    Converged { corrections: u64 },
    /// The trial left its span still diverged (or with the injection
    /// still pending). No in-span conclusion is possible; the caller
    /// must replay it against the whole-program golden trace.
    Escaped,
}

/// Capture the section plan for `sp` in one quiet golden pass.
///
/// `golden_dyn` is the golden run's dynamic length (the caller has it
/// from its golden trace; passing it in pins the partition to the
/// same run and sizes the spans). Cuts are placed at golden block
/// entries once the open span reaches
/// `max(MIN_SECTION_SPAN, golden_dyn / MAX_SECTIONS)` retired
/// instructions; in-span fingerprints are sampled at a quarter of
/// that target (floored), and at every cut.
pub fn capture_sections(sp: &ScheduledProgram, golden_dyn: u64) -> SectionCapture {
    let decoded = DecodedProgram::new(sp);
    let live = live_in_masks(sp, &decoded);
    let span_target = (golden_dyn / MAX_SECTIONS as u64).max(MIN_SECTION_SPAN);
    let cadence = (span_target / 4).max(16);

    let mut sections: Vec<Section> = Vec::new();
    let mut st = MachineState::fresh(sp);
    let mut cur_start = st.clone();
    let mut cur_lo = 0u64;
    let mut cur_fps: HashMap<u64, Sample> = HashMap::new();
    let mut cur_blocks: BTreeSet<u32> = BTreeSet::new();
    let mut next_sample = cadence;

    run_machine(
        &decoded,
        &SimOptions::default(),
        &mut st,
        false,
        &mut |st: &MachineState| {
            let dyn_insns = st.stats.dyn_insns;
            if st.bundle_idx == 0 {
                if dyn_insns > cur_lo
                    && dyn_insns - cur_lo >= span_target
                    && sections.len() + 1 < MAX_SECTIONS
                {
                    // Cut here: this block entry closes the open
                    // section. Its masked fingerprint is the closing
                    // section's exit sample (convergence exactly at
                    // the boundary still counts), so the entered
                    // block's live mask belongs to *both* sections'
                    // validation sets.
                    cur_fps.insert(dyn_insns, Sample::of(st, &live[st.block.index()]));
                    cur_blocks.insert(st.block.index() as u32);
                    sections.push(Section {
                        lo: cur_lo,
                        hi: dyn_insns,
                        start_digest: full_state_digest(sp, &cur_start),
                        golden_blocks: cur_blocks.iter().copied().collect(),
                        start: std::mem::replace(&mut cur_start, st.clone()),
                        fingerprints: std::mem::take(&mut cur_fps),
                    });
                    cur_blocks.clear();
                    cur_lo = dyn_insns;
                    next_sample = dyn_insns + cadence;
                } else if dyn_insns >= next_sample {
                    cur_fps.insert(dyn_insns, Sample::of(st, &live[st.block.index()]));
                    next_sample = dyn_insns + cadence;
                }
            }
            cur_blocks.insert(st.block.index() as u32);
            Boundary::Continue
        },
    )
    .expect("golden section capture cannot be stopped by the hook");
    // The final control position: covers the empty-block fallthrough,
    // which stops without a bundle-boundary hook call.
    cur_blocks.insert(st.block.index() as u32);

    sections.push(Section {
        lo: cur_lo,
        hi: golden_dyn,
        start_digest: full_state_digest(sp, &cur_start),
        golden_blocks: cur_blocks.into_iter().collect(),
        start: cur_start,
        fingerprints: cur_fps,
    });

    SectionCapture {
        sections,
        live,
        golden_corrections: st.stats.corrections,
        decoded,
    }
}

/// Run one injection trial bounded to its section.
///
/// Returns the trial verdict plus the set of blocks the run visited —
/// the cache-validation surface: a cached verdict for this trial is
/// reusable exactly when the section key matches *and* every visited
/// block's code and live-in mask are unchanged (then the bounded run
/// on the edited program is instruction-for-instruction identical, so
/// its verdict is too).
pub fn run_section_trial(
    capture: &SectionCapture,
    section: usize,
    inj: Injection,
    max_cycles: u64,
) -> (SectionTrial, Vec<u32>) {
    let sec = &capture.sections[section];
    debug_assert!(
        inj.at_dyn_insn > sec.lo && inj.at_dyn_insn <= sec.hi,
        "site {} outside section ({}, {}]",
        inj.at_dyn_insn,
        sec.lo,
        sec.hi
    );
    let mut st = sec.start.clone();
    let opts = SimOptions {
        max_cycles,
        injection: Some(inj),
        ..SimOptions::default()
    };
    let mut attempts = 0u32;
    let mut converged = None;
    let mut visited: BTreeSet<u32> = BTreeSet::new();
    let finished = run_machine(&capture.decoded, &opts, &mut st, false, &mut |st: &MachineState| {
        visited.insert(st.block.index() as u32);
        let dyn_insns = st.stats.dyn_insns;
        if st.injected && st.bundle_idx == 0 && attempts < MAX_CONVERGENCE_ATTEMPTS {
            if let Some(golden) = sec.fingerprints.get(&dyn_insns) {
                attempts += 1;
                let live = &capture.live[st.block.index()];
                converged = golden.converged(st, live, capture.golden_corrections);
                if converged.is_some() {
                    return Boundary::Stop;
                }
            }
        }
        if dyn_insns >= sec.hi {
            // Past the span (this includes the injection still
            // *pending* — a strike that slid beyond the boundary):
            // nothing in-span can classify this trial.
            return Boundary::Stop;
        }
        Boundary::Continue
    });
    // Final position, for the no-hook fallthrough stop (see capture).
    visited.insert(st.block.index() as u32);

    let verdict = match (finished, converged) {
        (Some(result), _) => SectionTrial::Finished(result),
        (None, Some(corrections)) => SectionTrial::Converged { corrections },
        (None, None) => SectionTrial::Escaped,
    };
    (verdict, visited.into_iter().collect())
}

/// Per-block `(code_hash, live_mask_hash)` on the current program —
/// the section store's validation vocabulary. The code hash covers
/// the scheduled bundles (slot clusters and every instruction field);
/// the mask hash covers the block's live-in register masks, which an
/// edit *elsewhere* in the CFG can change even when the block's own
/// code did not (liveness flows backward), and which the convergence
/// fingerprints depend on.
pub fn block_validation_hashes(sp: &ScheduledProgram) -> Vec<(u64, u64)> {
    let live = live_in_masks(sp, &DecodedProgram::new(sp));
    let func = sp.module.entry_fn();
    sp.blocks
        .iter()
        .enumerate()
        .map(|(i, sb)| {
            let mut h = Fnv64::new();
            h.write_u64(i as u64);
            h.write_u64(sb.bundles.len() as u64);
            for bundle in &sb.bundles {
                // Bundle separator: two bundles of one insn must hash
                // differently from one bundle of two.
                h.write_u64(u64::MAX);
                for (cluster, iid) in bundle.iter() {
                    h.write_u64(cluster.0 as u64);
                    // The Debug form covers every Insn field (opcode
                    // incl. compare kind, defs, uses with exact
                    // immediates, memory offset, branch targets,
                    // provenance) and is injective on values.
                    h.write(format!("{:?}", func.insn(iid)).as_bytes());
                }
            }
            let code = h.finish();

            let mut h = Fnv64::new();
            for (class, tag) in [(RegClass::Gp, 1u64), (RegClass::Fp, 2), (RegClass::Pr, 3)] {
                h.write_u64(tag);
                for &word in live[i].class_bits(class) {
                    h.write_u64(word);
                }
            }
            (code, h.finish())
        })
        .collect()
}

/// Unmasked FNV-64 digest of a complete machine state: every register
/// of every class (value + scoreboard entry), all nonzero memory, the
/// emitted stream, pending MSHR entries, cache tags/stamps and the
/// control position. Unlike the convergence fingerprint this masks
/// nothing — section-start states must bind *everything*, because the
/// cache key has no liveness information about what a cached trial
/// later read. Digest equality ⇒ the states behave identically (up to
/// the 64-bit collision bound shared with convergence pruning and
/// continuously cross-checked by the difftest oracle).
fn full_state_digest(sp: &ScheduledProgram, st: &MachineState) -> u64 {
    let func = sp.module.entry_fn();
    let mut h = Fnv64::new();
    h.write_u64_round(st.cycle);
    h.write_u64_round(st.block.index() as u64);
    h.write_u64_round(st.bundle_idx as u64);
    h.write_u64_round(st.stats.dyn_insns);
    // Scheme-observable extras: TMRED's correction count and RBED's
    // running digest are both part of what a resumed run can expose.
    h.write_u64_round(st.stats.corrections);
    if let Some(rb) = st.rbed.as_deref() {
        h.write_u64_round(rb.acc.finish());
        h.write_u64_round(rb.next as u64);
    }

    for (class, tag) in [(RegClass::Gp, 1u64), (RegClass::Fp, 2), (RegClass::Pr, 3)] {
        h.write_u64_round(tag);
        let n = func.reg_count(class);
        h.write_u64_round(n as u64);
        for index in 0..n {
            let r = Reg { class, index };
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

    for i in 0..st.mem.len_words() {
        let w = st.mem.word(i);
        if w != 0 {
            h.write_u64_round(i as u64);
            h.write_u64_round(w as u64);
        }
    }

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

    // Entries at or below the current cycle are semantically dead (the
    // next miss's retain() drops them before they queue anything);
    // skipping them avoids spurious key misses, exactly mirroring the
    // convergence fingerprint.
    for &c in &st.mshr {
        if c > st.cycle {
            h.write_u64_round(c);
        }
    }

    st.cache.fingerprint_into(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::golden_with_checkpoints;
    use crate::testutil::{looping_module, sequential};
    use casted_ir::{MachineConfig, Opcode};

    #[test]
    fn partition_tiles_the_trace_exactly() {
        let m = looping_module(300);
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let t = golden_with_checkpoints(&sp);
        let cap = capture_sections(&sp, t.result.stats.dyn_insns);
        assert!(cap.sections.len() > 1, "expected a multi-section plan");
        assert!(cap.sections.len() <= MAX_SECTIONS);
        assert_eq!(cap.sections[0].lo, 0);
        assert_eq!(cap.sections.last().unwrap().hi, t.result.stats.dyn_insns);
        for w in cap.sections.windows(2) {
            assert_eq!(w[0].hi, w[1].lo, "sections must tile without gaps");
            assert!(w[0].lo < w[0].hi);
        }
        // Every 1-based site maps into exactly the section owning it.
        for at in 1..=t.result.stats.dyn_insns {
            let j = cap.section_of(at);
            assert!(cap.sections[j].lo < at && at <= cap.sections[j].hi, "site {at}");
        }
    }

    /// The headline exactness property at the sim layer: for every
    /// site and bit, the bounded in-span run either produces the
    /// exact full-run result, proves Benign, or escapes — and an
    /// escaped trial's whole-program replay equals the full run.
    #[test]
    fn bounded_trials_agree_with_scratch_runs() {
        let m = looping_module(80);
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let t = golden_with_checkpoints(&sp);
        let golden_dyn = t.result.stats.dyn_insns;
        let cap = capture_sections(&sp, golden_dyn);
        let max_cycles = t.result.stats.cycles * 10;
        for k in 0..60u64 {
            let at = 1 + (k * 5) % golden_dyn;
            let inj = Injection::single(at, (k % 64) as u32, None);
            let scratch = crate::machine::simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles,
                    injection: Some(inj),
                    ..SimOptions::default()
                },
            );
            let (verdict, visited) = run_section_trial(&cap, cap.section_of(at), inj, max_cycles);
            assert!(!visited.is_empty());
            match verdict {
                SectionTrial::Finished(r) => {
                    assert_eq!(r.stop, scratch.stop, "site {at}");
                    assert_eq!(r.stream.len(), scratch.stream.len());
                    assert!(r.stream.iter().zip(&scratch.stream).all(|(a, b)| a.bit_eq(b)));
                }
                SectionTrial::Converged { corrections } => {
                    // Convergence claims the golden halt: the scratch
                    // run must agree (same halt, bit-equal stream as
                    // golden, same correction count).
                    assert_eq!(scratch.stop, t.result.stop, "site {at} pruned non-benign");
                    assert_eq!(corrections, scratch.stats.corrections, "site {at}");
                    assert!(scratch
                        .stream
                        .iter()
                        .zip(&t.result.stream)
                        .all(|(a, b)| a.bit_eq(b)));
                }
                SectionTrial::Escaped => {
                    // The whole-program replay path is the fallback.
                    let (run, _) = crate::checkpoint::replay_trial(&sp, &t, inj, max_cycles);
                    match run {
                        crate::checkpoint::TrialRun::Finished(r) => {
                            assert_eq!(r.stop, scratch.stop, "site {at}");
                            assert!(r.stream.iter().zip(&scratch.stream).all(|(a, b)| a.bit_eq(b)));
                        }
                        crate::checkpoint::TrialRun::Converged { .. } => {
                            assert_eq!(scratch.stop, t.result.stop, "site {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validation_hashes_pin_code_and_liveness() {
        let m = looping_module(40);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let base = block_validation_hashes(&sp);
        assert_eq!(base.len(), sp.blocks.len());
        // Identical program ⇒ identical hashes.
        assert_eq!(base, block_validation_hashes(&sp));
        // An immediate tweak changes exactly that block's code hash.
        let mut edited = sp.clone();
        let func = edited.module.entry_fn_mut();
        let halt = func
            .insns
            .iter()
            .position(|i| i.op == Opcode::Halt)
            .expect("program has a halt");
        func.insns[halt].imm = 9;
        let after = block_validation_hashes(&edited);
        let changed: Vec<usize> = (0..base.len()).filter(|&i| base[i].0 != after[i].0).collect();
        assert_eq!(changed.len(), 1, "exactly one block's code changed");
    }

    #[test]
    fn start_digests_bind_upstream_state() {
        let m = looping_module(200);
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let t = golden_with_checkpoints(&sp);
        let cap = capture_sections(&sp, t.result.stats.dyn_insns);
        // Recapture: digests are deterministic.
        let cap2 = capture_sections(&sp, t.result.stats.dyn_insns);
        let d1: Vec<u64> = cap.sections.iter().map(|s| s.start_digest).collect();
        let d2: Vec<u64> = cap2.sections.iter().map(|s| s.start_digest).collect();
        assert_eq!(d1, d2);
        // Successive start states differ, so must their digests.
        for w in d1.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }
}

//! Section capture — the simulator half of the compositional
//! (incremental) fault-campaign layer in `casted-faults` (FastFlip's
//! observation applied to our Monte-Carlo campaigns: per-section
//! injection results compose, so only changed sections need
//! re-injection).
//!
//! A **section** is a contiguous span of the golden dynamic trace,
//! cut at golden block entries: bounds `b_0 = 0 < b_1 < … < b_S =
//! golden_dyn`, where section `j` owns the injection sites in
//! `(b_j, b_{j+1}]`. The partition is a *performance* choice only —
//! results never depend on where the cuts land.
//!
//! The capture ([`GoldenRun::capture_sections`]) is one quiet pass
//! that fills an ordinary [`GoldenTrace`]: its snapshots are the
//! section starts and its fingerprint table is the union of the
//! in-span samples. Everything it records happens at block entries, so
//! its boundary hook wakes at each block entry and no other boundary
//! (`MachineState::next_entry`). Everything else is
//! `crate::checkpoint`'s [`replay_trial`](crate::checkpoint::replay_trial):
//!
//! * A trial whose site lies in section `j` restores the golden state
//!   at `b_j` — the last snapshot strictly before the site, the same
//!   argument the checkpoint engine makes for its snapshots.
//! * Run with `span_end = b_{j+1}`, the trial converges with the
//!   golden run at an in-span sample (it then halts like the golden
//!   run), stops naturally in-span (its
//!   [`SimResult`](crate::machine::SimResult) is bit-identical to a
//!   full run's), or **escapes** past `b_{j+1}` still diverged.
//! * An escape is replayed on the same trace with no span end: from
//!   the section start, probing every later section's samples.
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

use casted_ir::codec::encode_insn;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::RegClass;
use casted_util::hash::Fnv64;

use crate::checkpoint::{
    full_state_digest, BlockSet, CampaignProgram, GoldenRun, GoldenTrace, Recorder,
};
use crate::machine::MachineState;

/// Upper bound on sections per program. More sections mean finer
/// reuse after an edit but more start-state clones resident during a
/// campaign; 64 keeps the footprint comparable to the checkpoint
/// engine's snapshot budget.
pub const MAX_SECTIONS: usize = 64;

/// Minimum dynamic-instruction span of a section; tiny programs get a
/// single section rather than per-block confetti.
pub const MIN_SECTION_SPAN: u64 = 32;

/// The one rule both partitions of a golden trace cut by: the section
/// capture's section starts and the RBED plan's digest bounds
/// (`crate::rbed`). A cut lands at a golden block entry once the open
/// span holds `max(MIN_SECTION_SPAN, golden_dyn / MAX_SECTIONS)`
/// retired instructions, short of `golden_dyn`, while fewer than
/// `MAX_SECTIONS - 1` cuts have been made (the end of the run closes
/// the last span).
pub(crate) struct Cuts {
    golden_dyn: u64,
    pub(crate) span_target: u64,
    /// The last cut (0 before the first).
    last: u64,
    made: usize,
}

impl Cuts {
    pub(crate) fn new(golden_dyn: u64) -> Self {
        Cuts {
            golden_dyn,
            span_target: (golden_dyn / MAX_SECTIONS as u64).max(MIN_SECTION_SPAN),
            last: 0,
            made: 0,
        }
    }

    /// Whether the boundary `st` of a golden pass from power-on is the
    /// next cut; if so, it is recorded as one.
    pub(crate) fn cut_at(&mut self, st: &MachineState) -> bool {
        let dyn_insns = st.stats.dyn_insns;
        let cut = st.bundle_idx == 0
            && dyn_insns - self.last >= self.span_target
            && dyn_insns < self.golden_dyn
            && self.made + 1 < MAX_SECTIONS;
        if cut {
            self.last = dyn_insns;
            self.made += 1;
        }
        cut
    }
}

/// One section of the golden dynamic trace. Its start state is the
/// capture trace's snapshot with the same index.
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
}

/// The section plan plus the golden trace its trials replay on.
pub struct SectionCapture {
    /// Sections in trace order; `sections[0].lo == 0` and
    /// `sections.last().hi == golden_dyn`.
    pub sections: Vec<Section>,
    /// Snapshots at the section starts (one per section, in order) and
    /// the golden samples of every section, each section's exit sample
    /// at its `hi` included.
    pub trace: GoldenTrace,
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

impl GoldenRun {
    /// Capture the section plan in one quiet golden pass. It re-runs
    /// the whole program, so pass 1 needs no grid for it
    /// (`GoldenRun::run` with `grid_states` 0).
    ///
    /// Cuts are placed by the rule the RBED plan shares (`Cuts`): at
    /// golden block entries once the
    /// open span reaches `max(MIN_SECTION_SPAN, golden_dyn /
    /// MAX_SECTIONS)` retired instructions. In-span fingerprints are
    /// sampled at a quarter of that target (floored), and at every cut.
    pub fn capture_sections(self, sp: &ScheduledProgram) -> SectionCapture {
        let golden_dyn = self.result.stats.dyn_insns;
        let mut cuts = Cuts::new(golden_dyn);
        let cadence = (cuts.span_target / 4).max(16);

        // Closed sections as `(lo, hi, golden blocks)`.
        let mut spans: Vec<(u64, u64, BlockSet)> = Vec::new();
        let mut lo = 0u64;
        let mut blocks = BlockSet::default();
        let mut next_sample = cadence;
        let hook = &mut |rec: &mut Recorder, program: &CampaignProgram, st: &MachineState| {
            let dyn_insns = st.stats.dyn_insns;
            if cuts.cut_at(st) {
                // Cut here: this block entry closes the open section
                // and starts the next. Its sample is the closing
                // section's exit sample (convergence exactly at the
                // boundary still counts), so the entered block's live
                // mask belongs to *both* sections' validation sets.
                rec.sample(program, st);
                blocks.insert(st.block.index() as u32);
                spans.push((lo, dyn_insns, std::mem::take(&mut blocks)));
                rec.checkpoints.push(st.clone());
                lo = dyn_insns;
                next_sample = dyn_insns + cadence;
            } else if st.bundle_idx == 0 && dyn_insns >= next_sample {
                rec.sample(program, st);
                next_sample = dyn_insns + cadence;
            }
            blocks.insert(st.block.index() as u32);
            // Everything above happens at block entries.
            Some(st.next_entry(&program.decoded))
        };
        let (trace, end) = self.instrument(sp, None, hook);
        // The final control position: covers the empty-block
        // fallthrough, which stops without a boundary.
        blocks.insert(end.block.index() as u32);
        spans.push((lo, golden_dyn, blocks));

        let sections = spans
            .into_iter()
            .zip(&trace.checkpoints)
            .map(|((lo, hi, blocks), start)| Section {
                lo,
                hi,
                start_digest: full_state_digest(start, sp.module.entry_fn()),
                golden_blocks: blocks.iter().collect(),
            })
            .collect();
        SectionCapture { sections, trace }
    }
}

/// Per-block `(code_hash, live_mask_hash)` on the current program —
/// the section store's validation vocabulary. The code hash covers
/// the scheduled bundles (slot clusters and every instruction field);
/// the mask hash covers the block's live-in register masks, which an
/// edit *elsewhere* in the CFG can change even when the block's own
/// code did not (liveness flows backward), and which the convergence
/// fingerprints depend on. The masks are `program`'s, the campaign's
/// one liveness analysis of `sp`.
pub fn block_validation_hashes(
    sp: &ScheduledProgram,
    program: &CampaignProgram,
) -> Vec<(u64, u64)> {
    let live = &program.live;
    let func = sp.module.entry_fn();
    let mut buf = Vec::new();
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
                    // The canonical encoding covers every Insn field
                    // and is self-delimiting, so it is injective here.
                    buf.clear();
                    encode_insn(&mut buf, func.insn(iid));
                    h.write(&buf);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{replay_trial, TrialRun};
    use crate::machine::{Injection, SimOptions};
    use crate::testutil::looping_module;
    use casted_ir::{MachineConfig, Opcode};

    fn capture(sp: &ScheduledProgram) -> SectionCapture {
        GoldenRun::run(sp, CampaignProgram::new(sp), u64::MAX, 0, false).capture_sections(sp)
    }

    #[test]
    fn partition_tiles_the_trace_exactly() {
        let m = looping_module(300);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
        let cap = capture(&sp);
        let golden_dyn = cap.trace.result.stats.dyn_insns;
        assert!(cap.sections.len() > 1, "expected a multi-section plan");
        assert!(cap.sections.len() <= MAX_SECTIONS);
        assert_eq!(cap.sections[0].lo, 0);
        assert_eq!(cap.sections.last().unwrap().hi, golden_dyn);
        for w in cap.sections.windows(2) {
            assert_eq!(w[0].hi, w[1].lo, "sections must tile without gaps");
            assert!(w[0].lo < w[0].hi);
        }
        // One snapshot per section start, and nothing else.
        assert_eq!(cap.trace.checkpoints_taken(), cap.sections.len() as u64);
        // Every 1-based site maps into exactly the section owning it,
        // and restores that section's start.
        for at in 1..=golden_dyn {
            let j = cap.section_of(at);
            assert!(cap.sections[j].lo < at && at <= cap.sections[j].hi, "site {at}");
            assert_eq!(cap.trace.restore_index(at), j, "site {at}");
        }
    }

    /// The headline exactness property at the sim layer: for every
    /// site and bit, the bounded in-span run either produces the
    /// exact full-run result, converges, or escapes — and an escaped
    /// trial's whole-program replay on the section trace equals the
    /// full run.
    #[test]
    fn bounded_trials_agree_with_scratch_runs() {
        let m = looping_module(80);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
        let cap = capture(&sp);
        let golden = &cap.trace.result;
        let golden_dyn = golden.stats.dyn_insns;
        let max_cycles = golden.stats.cycles * 10;
        let converged_like_scratch = |corrections: u64, scratch: &crate::SimResult, at: u64| {
            // Convergence claims the golden halt: the scratch run must
            // agree (same halt, bit-equal stream, same corrections).
            assert_eq!(scratch.stop, golden.stop, "site {at} pruned non-benign");
            assert_eq!(corrections, scratch.stats.corrections, "site {at}");
            assert_eq!(scratch.stream.len(), golden.stream.len(), "site {at}");
            let mut same = scratch.stream.iter().zip(&golden.stream);
            assert!(same.all(|(a, b)| a.bit_eq(b)), "site {at}");
        };
        let mut arms = [0u32; 3];
        // Each site also takes a bit-63 strike: on the loop's `i & 15`
        // the `<< 3` after it shifts that bit out, so some trials
        // converge.
        for (k, bit) in (0..60u64).flat_map(|k| [(k, k % 64), (k, 63)]) {
            let at = 1 + (k * 5) % golden_dyn;
            let inj = Injection::single(at, bit as u32, None);
            let scratch = crate::machine::simulate_quiet(
                &sp,
                &SimOptions {
                    max_cycles,
                    injection: Some(inj),
                    ..SimOptions::default()
                },
            );
            let sec = &cap.sections[cap.section_of(at)];
            let mut visited = BlockSet::default();
            let (run, _) = replay_trial(
                &cap.trace,
                inj,
                max_cycles,
                Some(sec.hi),
                Some(&mut visited),
            );
            match run {
                TrialRun::Finished(r) => {
                    arms[0] += 1;
                    assert!(visited.iter().next().is_some() || !r.injected);
                    assert!(r.bit_identical(&scratch), "site {at}");
                }
                TrialRun::Converged { corrections, at: d } => {
                    arms[1] += 1;
                    assert!(
                        sec.lo < d && d <= sec.hi,
                        "site {at} converged outside its span"
                    );
                    converged_like_scratch(corrections, &scratch, at);
                }
                TrialRun::Escaped => {
                    arms[2] += 1;
                    // The escape replays over the whole program on the
                    // same trace: from the section start, no span end.
                    let (run, skipped) = replay_trial(&cap.trace, inj, max_cycles, None, None);
                    assert_eq!(skipped, sec.lo);
                    match run {
                        TrialRun::Finished(r) => assert!(r.bit_identical(&scratch), "site {at}"),
                        TrialRun::Converged { corrections, .. } => {
                            converged_like_scratch(corrections, &scratch, at)
                        }
                        TrialRun::Escaped => panic!("site {at}: escaped without a span end"),
                    }
                }
            }
        }
        assert!(
            arms.iter().all(|&n| n > 0),
            "finished/converged/escaped never ran: {arms:?}"
        );
    }

    #[test]
    fn validation_hashes_pin_code_and_liveness() {
        let m = looping_module(40);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let hashes = |sp: &ScheduledProgram| block_validation_hashes(sp, &CampaignProgram::new(sp));
        let base = hashes(&sp);
        assert_eq!(base.len(), sp.blocks.len());
        // Identical program ⇒ identical hashes.
        assert_eq!(base, hashes(&sp));
        // An immediate tweak changes exactly that block's code hash.
        let mut edited = sp.clone();
        let func = edited.module.entry_fn_mut();
        let halt = func
            .insns
            .iter()
            .position(|i| i.op == Opcode::Halt)
            .expect("program has a halt");
        func.insns[halt].imm = 9;
        let after = hashes(&edited);
        let changed: Vec<usize> = (0..base.len()).filter(|&i| base[i].0 != after[i].0).collect();
        assert_eq!(changed.len(), 1, "exactly one block's code changed");
    }

    #[test]
    fn start_digests_bind_upstream_state() {
        let m = looping_module(200);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
        // Recapture: digests are deterministic.
        let digests = || -> Vec<u64> {
            let cap = capture(&sp);
            cap.sections.iter().map(|s| s.start_digest).collect()
        };
        let (d1, d2) = (digests(), digests());
        assert_eq!(d1, d2);
        // Successive start states differ, so must their digests.
        for w in d1.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn block_set_iterates_sorted_and_deduplicated() {
        let mut set = BlockSet::default();
        set.extend([130, 3, 64, 3, 0, 63]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 130]);
    }
}

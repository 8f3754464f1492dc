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
//! ## One whole-program pass: the grid and the restart rule
//!
//! A site capture takes two passes over the golden program, and only
//! the first runs it whole. Pass 1 ([`GoldenRun::new`]) runs under the
//! campaign's cycle bound, so a target that does not halt is refused
//! right there, and keeps an evenly thinned **grid** of at most
//! [`GRID_STATES`] block-entry states: one every `stride`
//! instructions, and when the grid is full every second state is
//! dropped and the stride doubles. States the thinning frees are
//! reused for the next ones (`clone_from`), so the grid never holds
//! more than its cap.
//!
//! Pass 2 ([`GoldenRun::capture`]) starts at power-on with one
//! boundary hook. **Restart rule:** whenever the next site anything
//! still waits on (a snapshot or a window) changes, and no fingerprint
//! window is open, the pass jumps ahead to the last grid state
//! *strictly below* that site, if one lies ahead of the pass. (Until
//! the site changes again, a later boundary could only find fewer
//! such states, so the hook looks at these moments only.) Every
//! skipped boundary lies below that site too, so none of them would
//! have taken a snapshot or opened a window. The only other thing the skipped stretch decides is the
//! fingerprint schedule, the next multiple of `sample_every` a block
//! entry must reach. A contiguous pass leaves a block entry at `d`
//! with the next multiple above `d`, whether it sampled there or not,
//! so a pass that resumes at a grid state, itself a block entry,
//! resumes that schedule exactly. Every snapshot and every fingerprint
//! lands where a contiguous pass puts it, and the trace is the same.
//! With an empty grid the pass is the contiguous one. An RBED
//! campaign's pass 1 runs the digest accumulator (`crate::rbed`), so
//! its grid states restart an RBED capture like any other. The section
//! capture re-runs the whole program anyway, so its pass 1 keeps no
//! grid.
//!
//! The section cache (`crate::section`) runs on the same machinery: its
//! capture fills a [`GoldenTrace`] whose snapshots are the section
//! starts, and its bounded trials and escape replays are
//! [`replay_trial`] with a span end or without one. There is one
//! replay loop, one state-digest body and one convergence cap.
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
use casted_ir::liveness::{set_slots, Liveness};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{BlockId, Reg, RegClass};
use casted_util::hash::Fnv64;

use crate::decode::DecodedProgram;
use crate::machine::{
    run_golden, run_machine, Boundary, Injection, MachineState, SimOptions, SimResult,
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
/// The site capture records the first `MAX_CONVERGENCE_ATTEMPTS + 1`
/// sample points at or after each site and no others; a table miss
/// is simply no attempt, so this too changes speed, never a verdict.
/// Section trials and escape replays (`crate::section`) run under the
/// same cap.
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
/// the *scheduled* code (see [`live_in_masks`]). The section layer
/// (`crate::section`) hashes the same masks into cache-validation
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

    /// Every register of `func`: the mask [`full_state_digest`] hashes.
    fn all(func: &casted_ir::Function) -> Self {
        let mut m = LiveMask::sized(func);
        for class in [RegClass::Gp, RegClass::Fp, RegClass::Pr] {
            for index in 0..func.reg_count(class) {
                m.insert(Reg { class, index });
            }
        }
        m
    }
}

/// The live-in masks of every scheduled block, from the back end's
/// one liveness analysis ([`Liveness::of_schedule`]). It runs over
/// the scheduled bundles in the order the simulator executes them,
/// reads before writes within a bundle, so a register a fingerprint
/// masks out is one no execution from that block entry can read.
pub(crate) fn live_in_masks(sp: &ScheduledProgram) -> Vec<LiveMask> {
    let func = sp.module.entry_fn();
    let live = Liveness::of_schedule(sp);
    (0..sp.blocks.len() as u32)
        .map(|b| {
            let mut m = LiveMask::sized(func);
            for slot in set_slots(live.live_in(BlockId(b))) {
                m.insert(live.layout.reg(slot));
            }
            m
        })
        .collect()
}

/// FNV-64 digest of everything future execution can observe from a
/// block-entry boundary, masking dead registers (see module docs).
pub(crate) fn fingerprint(st: &MachineState, live: &LiveMask) -> u64 {
    state_digest(Fnv64::new(), st, live)
}

/// Unmasked digest of a complete machine state of `func`:
/// [`fingerprint`]'s body over every register, after the two fields the
/// fingerprint leaves out, the bundle position and TMRED's correction
/// count. Section starts are keyed by it (`crate::section`): the
/// section cache knows nothing about what a cached trial later read,
/// so the key binds everything. Digest equality implies identical
/// behaviour up to the 64-bit collision bound convergence pruning
/// shares.
pub(crate) fn full_state_digest(st: &MachineState, func: &casted_ir::Function) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64_round(st.bundle_idx as u64);
    h.write_u64_round(st.stats.corrections);
    state_digest(h, st, &LiveMask::all(func))
}

/// The one state-digest body behind [`fingerprint`] and
/// [`full_state_digest`]: absorbs the registers in `live` and the rest
/// of `st` into `h`.
fn state_digest(mut h: Fnv64, st: &MachineState, live: &LiveMask) -> u64 {
    // Word-round mixing throughout (`write_u64_round`): the digest
    // hashes tens of thousands of words per sample and byte-wise FNV
    // rounds were the engine's hottest loop. Every field is absorbed
    // as canonical (tag, value) words, so equality of state still
    // implies equality of digest.
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
    // The next bound follows from `dyn_insns`, hashed above.
    if let Some(acc) = &st.rbed {
        h.write_u64_round(acc.finish());
    }

    // Live registers: word plus scoreboard entry, in class/index
    // order so the digest is canonical. The word is an integer's bits,
    // a float's IEEE bits or a predicate as 0/1.
    for (class, tag) in [(RegClass::Gp, 1u64), (RegClass::Fp, 2), (RegClass::Pr, 3)] {
        h.write_u64_round(tag);
        for (w, &word) in live.class_bits(class).iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let idx = (w * 64 + bit) as u32;
                let slot = st.layout.class_slot(class, idx);
                h.write_u64_round(idx as u64);
                h.write_u64_round(st.regs[slot]);
                let (avail, writer) = st.ready[slot];
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
/// fingerprint table keyed by dynamic instruction. Both captures fill
/// one: [`GoldenRun::capture`] at a campaign's drawn sites, and
/// `GoldenRun::capture_sections` (`crate::section`) at the section
/// starts, with the union of the section samples as its table.
pub struct GoldenTrace {
    /// The fault-free result (flushes `sim.*` metrics exactly once,
    /// like the plain golden run the reference engine performs).
    pub result: SimResult,
    pub(crate) checkpoints: Vec<MachineState>,
    fingerprints: HashMap<u64, Sample>,
    /// RBED digest plan the golden run was instrumented with (`None`
    /// for every other scheme). Replays run under the same plan, which
    /// checks their restored accumulators at its bounds.
    rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
    /// The program decoded once for the whole campaign: the golden
    /// passes and every replay run on it.
    program: CampaignProgram,
    /// Instructions the capture pass simulated.
    capture_insns: u64,
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

    /// Dynamic instructions the capture pass simulated: the gaps it
    /// skipped by restarting from pass-1 states are not counted.
    pub fn capture_insns(&self) -> u64 {
        self.capture_insns
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
        golden.converged(st, &self.program.live[st.block.index()], self.result.stats.corrections)
    }
}

/// The program a campaign decodes once: the decoded bundles that the
/// golden passes and every replay run on, plus the per-block live-in
/// masks that the fingerprints and the section store's validation
/// hashes ([`crate::section::block_validation_hashes`]) read. Build it
/// once per campaign and hand it on.
pub struct CampaignProgram {
    pub(crate) decoded: DecodedProgram,
    pub(crate) live: Vec<LiveMask>,
}

impl CampaignProgram {
    /// Decode `sp` and compute its block live-in masks.
    pub fn new(sp: &ScheduledProgram) -> Self {
        let decoded = DecodedProgram::new(sp);
        let live = live_in_masks(sp);
        CampaignProgram { decoded, live }
    }
}

/// States pass 1 of a site capture keeps for the capture to restart
/// from ([`GoldenRun::new`]). Each is a full machine state, like a
/// snapshot, so 8 cost about what an 8-trial campaign's snapshots
/// cost.
pub const GRID_STATES: usize = 8;

/// Grid spacing, in dynamic instructions, before pass 1 first thins
/// its grid. A state copy (the 22–144 KB of a MiniC kernel's memory
/// image and cache arrays) costs about as much as simulating a
/// thousand instructions, so at this spacing the copies stay a few
/// percent of pass 1. A program shorter than this keeps no grid; its
/// capture is short anyway.
const GRID_MIN_STRIDE: u64 = 32_768;

/// Pass 1's evenly thinned grid of restart states: point `k`
/// (0-based) is the first block entry at or past `(k + 1) * stride`
/// retired instructions. When a point past the last would overflow
/// `cap`, every second point is dropped and the stride doubles, so the
/// kept points stay evenly spread over the run, whatever its length
/// turns out to be.
struct Grid {
    points: Vec<MachineState>,
    /// States freed by thinning, reused by later points.
    spare: Vec<MachineState>,
    cap: usize,
    stride: u64,
}

impl Grid {
    /// The dynamic-instruction count the next point waits for.
    fn next(&self) -> u64 {
        self.stride * (self.points.len() as u64 + 1)
    }

    /// Offer the block entry `st`, which has reached [`Grid::next`];
    /// returns the new threshold. Out of line: it runs a few times a
    /// pass, and the cycle loop it would be inlined into is the hot
    /// path.
    #[cold]
    #[inline(never)]
    fn offer(&mut self, st: &MachineState) -> u64 {
        if self.points.len() == self.cap {
            for (i, p) in std::mem::take(&mut self.points).into_iter().enumerate() {
                if i % 2 == 1 {
                    self.points.push(p);
                } else {
                    self.spare.push(p);
                }
            }
            self.stride *= 2;
        }
        if st.stats.dyn_insns >= self.next() {
            let state = match self.spare.pop() {
                Some(mut s) => {
                    s.clone_from(st);
                    s
                }
                None => st.clone(),
            };
            self.points.push(state);
        }
        self.next()
    }
}

/// The first pass of a golden capture: the fault-free result, on the
/// program decoded once for the campaign, plus the grid of states
/// [`GoldenRun::capture`] restarts from. A campaign reads the dynamic
/// length off [`GoldenRun::result`], draws its frozen injection
/// stream, and hands the drawn sites to [`GoldenRun::capture`].
pub struct GoldenRun {
    /// The fault-free result.
    pub result: SimResult,
    program: CampaignProgram,
    grid: Vec<MachineState>,
}

/// What a capture's boundary hook fills: the snapshots and the
/// fingerprint table of the [`GoldenTrace`] under construction, and
/// the pass-1 states the pass may still restart from.
pub(crate) struct Recorder {
    pub(crate) checkpoints: Vec<MachineState>,
    fingerprints: HashMap<u64, Sample>,
    /// Grid states ahead of the pass, in run order.
    grid: Vec<MachineState>,
    /// The grid state the hook stopped the pass to restart from.
    restart: Option<usize>,
}

impl Recorder {
    /// Record the golden convergence sample at the block entry `st`.
    pub(crate) fn sample(&mut self, program: &CampaignProgram, st: &MachineState) {
        let sample = Sample::of(st, &program.live[st.block.index()]);
        self.fingerprints.insert(st.stats.dyn_insns, sample);
    }

    /// The restart rule, at the boundary `st` with no sampling window
    /// open and `pending` the next site a snapshot or a window waits
    /// on: when a grid state lies ahead of `st` and below `pending`,
    /// pick the last such state to restart from. No boundary in
    /// between can snapshot or open a window, so skipping them loses
    /// nothing. Returns the picked state's dynamic-instruction count.
    fn restart_below(&mut self, st: &MachineState, pending: u64) -> Option<u64> {
        let now = st.stats.dyn_insns;
        while self.grid.first()?.stats.dyn_insns <= now {
            self.grid.remove(0);
        }
        if self.grid[0].stats.dyn_insns >= pending {
            return None;
        }
        let g = self.grid.partition_point(|p| p.stats.dyn_insns < pending) - 1;
        self.restart = Some(g);
        Some(self.grid[g].stats.dyn_insns)
    }
}

impl GoldenRun {
    /// Pass 1 of a site capture for any scheme but RBED:
    /// [`GoldenRun::run`] with a grid of [`GRID_STATES`] states.
    pub fn new(sp: &ScheduledProgram, max_cycles: u64) -> Self {
        Self::run(sp, CampaignProgram::new(sp), max_cycles, GRID_STATES, false)
    }

    /// Run `sp` fault-free once under the watchdog `max_cycles`,
    /// keeping a grid of up to `grid_states` states (0: none) for
    /// [`GoldenRun::capture`] to restart from. With `replay_detect`
    /// the run accumulates the RBED digest, so the grid can restart a
    /// capture under an RBED plan. The run flushes `sim.*`
    /// metrics exactly once if it halts — the same single flush the
    /// reference engine's golden run performs, which keeps counter
    /// snapshots engine-agnostic — and not at all otherwise: a
    /// campaign refuses a target that does not halt, and the refusal
    /// leaves the counters untouched.
    pub fn run(
        sp: &ScheduledProgram,
        program: CampaignProgram,
        max_cycles: u64,
        grid_states: usize,
        replay_detect: bool,
    ) -> Self {
        Self::run_with_stride(sp, program, max_cycles, grid_states, replay_detect, GRID_MIN_STRIDE)
    }

    /// [`GoldenRun::run`] with the grid's first spacing `min_stride`.
    fn run_with_stride(
        sp: &ScheduledProgram,
        program: CampaignProgram,
        max_cycles: u64,
        grid_states: usize,
        replay_detect: bool,
        min_stride: u64,
    ) -> Self {
        let dp = &program.decoded;
        if grid_states == 0 {
            let result = run_golden(sp, dp, max_cycles, false, |_| Boundary::Continue);
            return GoldenRun { result, program, grid: Vec::new() };
        }
        let mut grid = Grid {
            points: Vec::with_capacity(grid_states),
            spare: Vec::new(),
            cap: grid_states,
            stride: min_stride,
        };
        let mut next = grid.next();
        let result = run_golden(sp, dp, max_cycles, replay_detect, |st: &MachineState| {
            if st.bundle_idx == 0 && st.stats.dyn_insns >= next {
                next = grid.offer(st);
            }
            Boundary::Continue
        });
        GoldenRun { result, program, grid: grid.points }
    }

    /// The campaign's RBED digest plan ([`crate::rbed_plan`]), built on
    /// the program this run already decoded.
    pub fn rbed_plan(&self, sp: &ScheduledProgram) -> std::sync::Arc<crate::rbed::RbedPlan> {
        crate::rbed::rbed_plan_decoded(sp, &self.program.decoded, self.result.stats.dyn_insns)
    }

    /// The quiet instrumented pass both captures share: re-run the
    /// golden program from power-on (kept as the first snapshot) under
    /// `rbed`, handing `hook` every bundle boundary to snapshot, sample
    /// or stop at. A hook that picked a restart point
    /// ([`Recorder::restart_below`]) stops the run, which resumes from
    /// that pass-1 state; any other stop ends the pass. Returns the
    /// filled trace and the pass's final state.
    pub(crate) fn instrument(
        self,
        sp: &ScheduledProgram,
        rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
        mut hook: impl FnMut(&mut Recorder, &CampaignProgram, &MachineState) -> Boundary,
    ) -> (GoldenTrace, MachineState) {
        let GoldenRun { result, program, grid } = self;
        let mut rec = Recorder {
            checkpoints: vec![MachineState::fresh(sp)],
            fingerprints: HashMap::new(),
            grid,
            restart: None,
        };
        let opts = SimOptions {
            rbed: rbed.clone(),
            ..SimOptions::default()
        };
        let mut st = rec.checkpoints[0].clone();
        let mut capture_insns = 0;
        let finished = loop {
            let from = st.stats.dyn_insns;
            let finished =
                run_machine(&program.decoded, &opts, &mut st, false, |st: &MachineState| {
                    hook(&mut rec, &program, st)
                });
            capture_insns += st.stats.dyn_insns - from;
            let Some(g) = rec.restart.take() else {
                break finished;
            };
            // Move to grid state `g`; the states before it are behind
            // the pass from here on.
            st = rec.grid.drain(..=g).last().expect("the restart state was drained");
        };
        if let Some(replayed) = finished {
            debug_assert_eq!(replayed.stop, result.stop);
            debug_assert_eq!(replayed.stats.dyn_insns, result.stats.dyn_insns);
        }
        let trace = GoldenTrace {
            result,
            checkpoints: rec.checkpoints,
            fingerprints: rec.fingerprints,
            rbed,
            program,
            capture_insns,
        };
        (trace, st)
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
    /// * **Restarts.** With no fingerprint window open, the pass jumps
    ///   ahead to the last pass-1 grid state below the next pending
    ///   site instead of simulating the gap (see the module docs). With
    ///   an empty grid it runs contiguously. Under `rbed` the grid must
    ///   come from a pass 1 run with `replay_detect`.
    /// * **Stop.** Once the last snapshot is cloned and the last
    ///   site's fingerprint window is recorded.
    ///
    /// With `rbed` the pass runs with the digest accumulator
    /// installed, so every snapshot and fingerprint carries the
    /// mid-run digest state a replay needs to resume checking from.
    pub fn capture(
        mut self,
        sp: &ScheduledProgram,
        sites: &[u64],
        rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
    ) -> GoldenTrace {
        let golden_dyn = self.result.stats.dyn_insns;
        let sample_every = CheckpointPlan::for_golden(golden_dyn).sample_every;

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
        // The restart rule only ever picks the last grid state below
        // some site: free the others now.
        let mut useful = vec![false; self.grid.len()];
        for &site in &sites {
            let below = self.grid.partition_point(|p| p.stats.dyn_insns < site);
            if let Some(g) = below.checked_sub(1) {
                useful[g] = true;
            }
        }
        let mut useful = useful.into_iter();
        self.grid.retain(|_| useful.next() == Some(true));

        // Most boundaries need nothing: the hook's first two tests skip
        // them. A boundary can owe a snapshot only once `max_retired`
        // more instructions reach the next snapshot site.
        let max_retired = self.program.decoded.max_bundle_ops();
        let snap_from =
            |next_snap: usize| snap_sites.get(next_snap).map_or(u64::MAX, |&s| s - max_retired.min(s));
        let (mut next_snap, mut next_site, mut window) = (0usize, 0usize, 0u32);
        let mut next_sample = sample_every;
        let mut snap_at = snap_from(0);
        // Whether what the pass waits for changed (and at power-on):
        // only then can it be done, or have a grid state to jump to.
        let mut changed = true;
        let hook = &mut |rec: &mut Recorder, program: &CampaignProgram, st: &MachineState| {
            let dyn_insns = st.stats.dyn_insns;
            // This boundary is the last one strictly before every
            // pending snapshot site its bundle retires: the golden
            // run's next boundary is `dyn_insns + retired` onward.
            if dyn_insns >= snap_at {
                let decoded = &program.decoded;
                let bundle = &decoded.block(st.block)[st.bundle_idx];
                let retired = decoded.ops(bundle).len() as u64;
                let next_boundary = dyn_insns + retired;
                if next_boundary >= snap_sites[next_snap] {
                    // The power-on boundary is the snapshot already held.
                    if rec.checkpoints.last().is_none_or(|c| c.cycle != st.cycle) {
                        rec.checkpoints.push(st.clone());
                    }
                    while next_snap < snap_sites.len() && snap_sites[next_snap] <= next_boundary {
                        next_snap += 1;
                    }
                    snap_at = snap_from(next_snap);
                    changed = true;
                }
            }
            // Fingerprints only at block entries, where the pending
            // branch/halt slots are empty and a per-block live mask is
            // exact (mid-block boundaries would need per-bundle masks).
            if st.bundle_idx == 0 && dyn_insns >= next_sample {
                next_sample = (dyn_insns / sample_every + 1) * sample_every;
                if next_site < n && sites[next_site] <= dyn_insns {
                    while next_site < n && sites[next_site] <= dyn_insns {
                        next_site += 1;
                    }
                    window = MAX_CONVERGENCE_ATTEMPTS + 1;
                }
                if window > 0 {
                    window -= 1;
                    rec.sample(program, st);
                    changed |= window == 0;
                }
            }
            if !changed || window > 0 {
                return Boundary::Continue;
            }
            changed = false;
            let pending = snap_sites.get(next_snap).into_iter().chain(sites.get(next_site)).min();
            let Some(&pending) = pending else {
                return Boundary::Stop;
            };
            // While the pending site stays the same, no later boundary
            // has a grid state to jump to that this one lacks.
            match rec.restart_below(st, pending) {
                // The schedule a contiguous pass leaves the grid
                // state's block entry with (see the module docs).
                Some(resume) => {
                    next_sample = (resume / sample_every + 1) * sample_every;
                    Boundary::Stop
                }
                None => Boundary::Continue,
            }
        };
        self.instrument(sp, rbed, hook).0
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
/// [`GoldenRun::capture`]). Pass 1 keeps no grid: the √N sites lie
/// closer together than one fingerprint window spans, so the capture
/// never has a gap to skip.
pub fn golden_with_checkpoints_rbed(
    sp: &ScheduledProgram,
    rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
) -> GoldenTrace {
    let golden = GoldenRun::run(sp, CampaignProgram::new(sp), u64::MAX, 0, false);
    let dyn_insns = golden.result.stats.dyn_insns;
    let sites = CheckpointPlan::for_golden(dyn_insns).grid_sites(dyn_insns);
    golden.capture(sp, &sites, rbed)
}

/// Block indices a replay visited, one bit per block: the per-boundary
/// record behind the section cache's validation lists
/// (`casted_faults::sections`). Iterates in ascending order.
#[derive(Clone, Debug, Default)]
pub struct BlockSet(Vec<u64>);

impl BlockSet {
    /// Add block index `block`.
    pub fn insert(&mut self, block: u32) {
        let w = block as usize / 64;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        self.0[w] |= 1 << (block % 64);
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            (0..64u32)
                .filter(move |b| word >> b & 1 != 0)
                .map(move |b| w as u32 * 64 + b)
        })
    }
}

impl Extend<u32> for BlockSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, blocks: I) {
        for b in blocks {
            self.insert(b);
        }
    }
}

/// How one replayed trial ended.
pub enum TrialRun {
    /// The trial ran to a stop; classify its result normally.
    Finished(SimResult),
    /// The post-injection state re-converged with the golden run at
    /// dynamic instruction `at`: the remainder is provably identical,
    /// so the trial halts like the golden run. `corrections` is the
    /// vote-correction count the full run would end with: Corrected if
    /// nonzero, Benign otherwise.
    Converged { corrections: u64, at: u64 },
    /// Only under a span end: the trial reached it still diverged (or
    /// with its injection still pending). Nothing inside the span can
    /// classify it; the caller replays it over the whole program.
    Escaped,
}

/// Replay one faulty trial against a captured golden trace: restore
/// the last checkpoint strictly before the injection site, run, and
/// prune on post-injection convergence. For a trial that runs to a
/// stop, the returned [`SimResult`] is bit-identical to a full
/// `simulate` of the same injection (the property test pins this), so
/// classification is unchanged; a pruned trial carries the full run's
/// final correction count. Also returns the golden-prefix
/// instructions the trial skipped by restoring its checkpoint.
///
/// Two options serve the section cache (`casted_faults::sections`):
///
/// * `span_end` bounds the run to a section: a trial still diverged at
///   the first boundary with `dyn_insns >= span_end` comes back
///   [`TrialRun::Escaped`]. Whole-program replays pass `None` and
///   never escape.
/// * `visited` collects every block the run visits after the fault
///   lands, plus its final block. The pre-landing stretch replays the
///   golden path, whose effect on the state at the site the cache key
///   pins, so only post-injection blocks need recording. The
///   checkpointed engine's hot path passes `None` and pays no
///   per-bundle bookkeeping.
pub fn replay_trial(
    trace: &GoldenTrace,
    inj: Injection,
    max_cycles: u64,
    span_end: Option<u64>,
    mut visited: Option<&mut BlockSet>,
) -> (TrialRun, u64) {
    let mut st = trace.checkpoints[trace.restore_index(inj.at_dyn_insn)].clone();
    let skipped_insns = st.stats.dyn_insns;
    let opts = SimOptions {
        max_cycles,
        injection: Some(inj),
        rbed: trace.rbed.clone(),
        ..SimOptions::default()
    };
    let mut attempts = 0u32;
    let mut converged = None;
    let finished = run_machine(&trace.program.decoded, &opts, &mut st, false, |st: &MachineState| {
        if st.injected {
            if let Some(v) = visited.as_deref_mut() {
                v.insert(st.block.index() as u32);
            }
            // Sample exactly where the golden run sampled: a hit in
            // the table means the golden run passed a block entry at
            // this dynamic-instruction count. The fingerprint also
            // binds the block id, cycle and stream, so an aligned
            // count in a diverged run cannot false-match.
            if st.bundle_idx == 0 && attempts < MAX_CONVERGENCE_ATTEMPTS {
                converged = trace.probe(st, &mut attempts).map(|c| (c, st.stats.dyn_insns));
                if converged.is_some() {
                    return Boundary::Stop;
                }
            }
        }
        if span_end.is_some_and(|end| st.stats.dyn_insns >= end) {
            return Boundary::Stop;
        }
        Boundary::Continue
    });
    // Final control position: the empty-block fallthrough stops
    // without a boundary hook call.
    if let Some(v) = visited.filter(|_| st.injected) {
        v.insert(st.block.index() as u32);
    }

    let run = match (finished, converged) {
        (Some(result), _) => TrialRun::Finished(result),
        (None, Some((corrections, at))) => TrialRun::Converged { corrections, at },
        (None, None) => TrialRun::Escaped,
    };
    (run, skipped_insns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::looping_module;
    use casted_ir::{FunctionBuilder, MachineConfig, Module};

    /// Everything a capture hands the trials, in comparable form: each
    /// snapshot's full digest, the fingerprint table and the result.
    fn trace_view(t: &GoldenTrace, sp: &ScheduledProgram) -> (Vec<u64>, Vec<(u64, Sample)>) {
        let func = sp.module.entry_fn();
        let digests = t.checkpoints.iter().map(|c| full_state_digest(c, func)).collect();
        let mut table: Vec<(u64, Sample)> = t.fingerprints.iter().map(|(&d, &s)| (d, s)).collect();
        table.sort_unstable_by_key(|&(d, _)| d);
        (digests, table)
    }

    #[test]
    fn grid_capture_matches_the_contiguous_capture() {
        // A short first spacing keeps the program small enough for a
        // debug build: past 8 grids' worth of instructions, the grid
        // has thinned at least three times.
        const STRIDE: u64 = 1024;
        let gridded = |sp: &ScheduledProgram, replay_detect: bool| {
            let program = CampaignProgram::new(sp);
            GoldenRun::run_with_stride(sp, program, u64::MAX, GRID_STATES, replay_detect, STRIDE)
        };
        let m = looping_module(30_000);
        let sp = ScheduledProgram::packed(&m, MachineConfig::itanium2_like(2, 2), 2);
        let golden = gridded(&sp, false);
        let n = golden.result.stats.dyn_insns;
        assert!(n > 8 * GRID_STATES as u64 * STRIDE, "{n} instructions");
        let points: Vec<u64> = golden.grid.iter().map(MachineState::dyn_insns).collect();
        assert!(points.len() > GRID_STATES / 2 && points.len() <= GRID_STATES, "{points:?}");
        assert!(points[0] > n / (GRID_STATES as u64 + 1), "the grid was thinned: {points:?}");
        drop(golden);

        let mut rng = casted_util::Rng::seed_from_u64(0x6121D);
        let drawn: Vec<u64> = (0..8).map(|_| rng.gen_range(1..=n)).collect();
        let site_sets: Vec<Vec<u64>> = vec![
            vec![1, n],
            vec![n, n, 1, 1],
            drawn.clone(),
            // Duplicates, and a whole loop trip of neighbours: the
            // trip's two-instruction bundles each hold two sites.
            [drawn.as_slice(), &[drawn[3], n - 1], &(n / 2..n / 2 + 11).collect::<Vec<_>>()]
                .concat(),
            vec![n / 3],
            // Sites at and just past grid states, where a restart has
            // to stop short of the site's own snapshot and window...
            points.iter().flat_map(|&p| [p, p + 1, p + 2]).collect(),
            // ...and sites a restart to the state just below resumes
            // the sampling schedule for.
            points.iter().map(|&p| p + 1).collect(),
        ];
        // Every set once plain and once under an RBED plan, whose
        // pass 1 runs the digest accumulator into its grid states.
        let rbed = crate::rbed::rbed_plan(&sp, n);
        let mut skipped_any = [false; 2];
        for (sites, plan) in site_sets.iter().flat_map(|s| [(s, None), (s, Some(&rbed))]) {
            let restarted = gridded(&sp, plan.is_some()).capture(&sp, sites, plan.cloned());
            let contiguous = GoldenRun::run(&sp, CampaignProgram::new(&sp), u64::MAX, 0, false)
                .capture(&sp, sites, plan.cloned());
            let (a, b) = (trace_view(&restarted, &sp), trace_view(&contiguous, &sp));
            assert_eq!(a, b, "sites {sites:?}, RBED {}", plan.is_some());
            assert!(restarted.result.bit_identical(&contiguous.result));
            assert!(restarted.capture_insns() <= contiguous.capture_insns());
            skipped_any[plan.is_some() as usize] |=
                restarted.capture_insns() < contiguous.capture_insns();
        }
        assert_eq!(skipped_any, [true; 2], "no capture restarted from the grid");
        // Some neighbouring sites shared a bundle, and so a snapshot.
        let shared = &site_sets[3];
        let mut distinct = shared.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let t = gridded(&sp, false).capture(&sp, shared, None);
        assert!(t.checkpoints_taken() < 1 + distinct.len() as u64);
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
        let t = golden_with_checkpoints(&ScheduledProgram::sequential(&m, table_i));
        let big = golden_with_checkpoints(&ScheduledProgram::sequential(&m, big_l3));
        assert_eq!(t.checkpoints_taken(), big.checkpoints_taken());
        assert_eq!(t.snapshot_bytes(), big.snapshot_bytes());
        // Far below one Table I L3 (tags + stamps) per checkpoint.
        let l3_bytes = 3 * 1024 * 1024 / 128 * 16;
        assert!(t.snapshot_bytes() * 10 < t.checkpoints_taken() as usize * l3_bytes);
    }

    #[test]
    fn golden_trace_checkpoints_cover_the_run() {
        let m = looping_module(200);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
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
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
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
            match replay_trial(&t, inj, max_cycles, None, None) {
                (TrialRun::Finished(r), skipped) => {
                    assert!(
                        r.bit_identical(&scratch),
                        "replay diverged from scratch at site {at}: {:?} vs {:?}",
                        r.stop,
                        scratch.stop
                    );
                    assert!(skipped < at);
                }
                (TrialRun::Converged { corrections, .. }, _) => {
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
                (TrialRun::Escaped, _) => unreachable!("a whole-program replay cannot escape"),
            }
        }
    }

    #[test]
    fn degenerate_site_fast_forwards_from_last_checkpoint() {
        let m = looping_module(120);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        let inj = Injection::single(u64::MAX, 3, None);
        let (run, skipped) = replay_trial(&t, inj, t.result.stats.cycles * 10, None, None);
        // The injection never lands; the replay starts at the deepest
        // snapshot and finishes exactly like the golden run.
        assert_eq!(skipped, t.checkpoints.last().unwrap().stats.dyn_insns);
        match run {
            TrialRun::Finished(r) => {
                assert_eq!(r.stop, t.result.stop);
                assert!(!r.injected);
            }
            _ => panic!("cannot converge without an injection"),
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
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        assert_eq!(t.result.stats.dyn_insns, 0);
        assert_eq!(t.checkpoints_taken(), 1, "power-on snapshot only");
        assert_eq!(t.restore_index(u64::MAX), 0);
        let inj = Injection::single(u64::MAX, 7, None);
        match replay_trial(&t, inj, 1000, None, None) {
            (TrialRun::Finished(r), skipped) => {
                assert_eq!(r.stop, t.result.stop);
                assert!(!r.injected);
                assert_eq!(skipped, 0);
            }
            _ => panic!("cannot converge without an injection"),
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
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        assert_eq!(t.result.stats.dyn_insns, 1);
        for bit in [0u32, 17, 63] {
            let inj = Injection::single(1, bit, None);
            match replay_trial(&t, inj, 1000, None, None) {
                (TrialRun::Finished(r), _) => {
                    assert_eq!(r.stop, t.result.stop);
                    assert!(!r.injected, "halt has no def: the strike must slide off");
                }
                _ => panic!("cannot converge without an injection"),
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
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let t = golden_with_checkpoints(&sp);
        let max_cycles = t.result.stats.cycles * 10;
        let mut pruned = 0;
        for at in (1..t.result.stats.dyn_insns).step_by(11) {
            let inj = Injection::single(at, 1, None);
            if let (TrialRun::Converged { .. }, _) = replay_trial(&t, inj, max_cycles, None, None) {
                pruned += 1;
            }
        }
        assert!(pruned > 0, "no trial converged on a loop-heavy benign-rich program");
    }
}


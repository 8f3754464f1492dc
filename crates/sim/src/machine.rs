//! The lockstep VLIW execution engine.
//!
//! [`run_machine`] is the one cycle loop, compiled once: `simulate`,
//! the golden passes, RBED digest planning, candidate costing and every
//! replayed trial run it. Each caller hands it a boundary hook (a
//! `&mut dyn` closure) that names the dynamic-instruction count at
//! which it next wants to run, so the loop tests one `u64` per bundle
//! and calls the hook only when the count reaches it. It executes the
//! decoded program (`crate::decode`) on raw `u64` register words:
//!
//! * [`MachineState`] holds the word file: one word per register slot
//!   (Gp, then Fp, then Pr; an integer's bits, a float's IEEE bits, a
//!   predicate as 0/1), then the program's constants. Its flat
//!   `(ready, writer)` scoreboard is indexed by register slot.
//! * An operand is one index into the word file, register or constant
//!   alike.
//! * The stall scan ([`issue_cycle`]) reads only the register reads
//!   the decode could not prove ready; the proven ones still count as
//!   cross-cluster reads through the bundle's static count.
//! * An instruction is a `WordOp` whose operand class the decode has
//!   already resolved, so the loop never matches on a register class
//!   or builds a typed value. Results, RBED digests and the state
//!   fingerprints all see the same words.
//! * A fault flips bits of a word ([`Injection::flip`]).
//!
//! The typed interpreter (`casted_ir::interp`, over
//! `casted_ir::semantics::Val`) stays the independent oracle:
//! `crates/sim/tests/word_semantics.rs` runs every opcode over every
//! legal operand class through both.

use casted_ir::interp::{Memory, OutVal, StopReason};
use casted_ir::semantics::ExecError;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::Reg;
use casted_util::hash::Fnv64;

use crate::cache::CacheHierarchy;
use crate::decode::{DecodedProgram, Latencies, SlotLayout, WordOp};
use crate::stats::SimStats;

/// A transient fault to inject (paper §IV-C): at the
/// `at_dyn_insn`-th dynamic instruction (1-based), flip bit `bit` of
/// its output register right after writeback. If that instruction has
/// no output register, the injection slides to the next instruction
/// that has one — the paper samples among instructions with outputs.
///
/// With `target` set, the fault instead strikes that *specific*
/// register at the same point in time, whether or not the instruction
/// wrote it — a register-file strike rather than a functional-unit
/// output strike (the `fault_models` extension experiment).
///
/// With `width > 1` the strike is a **multi-bit burst** (the
/// `--fault-model burst2|burst4` extension): `width` adjacent bits
/// are flipped, positioned so the drawn `bit` sits `phase` bits from
/// the window's top, wrapping mod 64. `width == 1` (the
/// [`Injection::single`] constructor) is byte-for-byte the paper's
/// single-bit model. Predicate registers have one bit, so any burst
/// degenerates to the single flip there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// 1-based dynamic instruction index to strike.
    pub at_dyn_insn: u64,
    /// Bit position to flip (masked by the register width).
    pub bit: u32,
    /// Optional register-file target (None = the paper's output model).
    pub target: Option<Reg>,
    /// Burst width in bits (1 = the paper's single-bit model).
    pub width: u8,
    /// Offset of `bit` inside the burst window (0 for single).
    pub phase: u8,
}

impl Injection {
    /// The paper's single-bit strike.
    pub fn single(at_dyn_insn: u64, bit: u32, target: Option<Reg>) -> Self {
        Injection {
            at_dyn_insn,
            bit,
            target,
            width: 1,
            phase: 0,
        }
    }

    /// Apply this strike to a register word of `class_bits` width (an
    /// integer's bits, a float's IEEE bits, a predicate as 0/1). For
    /// `width == 1` this flips bit `bit % class_bits`; a burst flips
    /// `width` adjacent bit positions `(bit - phase + k) mod 64` for
    /// `k < width` (distinct since `width <= 4`), each masked by the
    /// register width — one flip, inverting the predicate, for
    /// predicates.
    #[inline]
    pub fn flip(&self, word: u64, class_bits: u32) -> u64 {
        let w = (self.width as u32).max(1);
        if w == 1 || class_bits <= 1 {
            return word ^ (1 << (self.bit % class_bits.max(1)));
        }
        let mut out = word;
        for k in 0..w {
            let b = (self.bit + 64 - self.phase as u32 + k) % 64;
            out ^= 1 << (b % class_bits);
        }
        out
    }
}

/// The default watchdog bound on a fault-free run: 200M cycles, far
/// above every benchmark kernel. Compile-time candidate costing, a
/// campaign's fault-free run, `casted-serve`'s request cap and
/// `casted::measure` all stop there, so a program that never halts is
/// reported as a timeout instead of simulated forever.
/// (`SimOptions::default()` runs unbounded.)
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;

/// Simulation options.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Watchdog: the run is classified `Timeout` past this many cycles.
    pub max_cycles: u64,
    /// Optional fault injection.
    pub injection: Option<Injection>,
    /// Collect an execution trace of up to this many instructions
    /// (0 = tracing off). Used by `castedc trace` and by debugging
    /// tests; tracing does not perturb timing.
    pub trace_limit: usize,
    /// Replay-based detection plan (the RBED scheme): accumulate a
    /// digest of retired results and compare it against the plan's
    /// golden digest at each of its bounds (`None` = off, all other
    /// schemes). A run from power-on starts a fresh accumulator; a
    /// restored state keeps the one it was saved with, and the run
    /// finds its next bound from the state's dynamic-instruction
    /// count. A plan with no bounds only accumulates.
    pub rbed: Option<std::sync::Arc<crate::rbed::RbedPlan>>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_cycles: u64::MAX,
            injection: None,
            trace_limit: 0,
            rbed: None,
        }
    }
}

/// One traced instruction issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Absolute issue cycle of the bundle.
    pub cycle: u64,
    /// Block being executed.
    pub block: casted_ir::BlockId,
    /// Cluster that issued the instruction.
    pub cluster: casted_ir::Cluster,
    /// The instruction.
    pub insn: casted_ir::InsnId,
    /// Cycles the bundle stalled waiting for operands.
    pub stalled: u64,
}

/// Result of one simulated run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Why the run ended.
    pub stop: StopReason,
    /// Observable output stream.
    pub stream: Vec<OutVal>,
    /// Counters.
    pub stats: SimStats,
    /// Whether the configured injection actually landed.
    pub injected: bool,
    /// Execution trace (empty unless `SimOptions::trace_limit` > 0).
    pub trace: Vec<TraceEntry>,
}

impl SimResult {
    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Bit-identical results: stop, injection flag, every statistic and
    /// the output stream bit for bit.
    pub fn bit_identical(&self, other: &SimResult) -> bool {
        self.stop == other.stop
            && self.injected == other.injected
            && self.stats == other.stats
            && self.stream.len() == other.stream.len()
            && self
                .stream
                .iter()
                .zip(&other.stream)
                .all(|(x, y)| x.bit_eq(y))
    }
}

/// Bulk-flush one finished run's counters into the global metrics
/// registry. All values are deterministic functions of the program and
/// seed, so they are part of the counter-only snapshot.
pub(crate) fn record_run_metrics(stats: &SimStats) {
    if !casted_obs::enabled() {
        return;
    }
    casted_obs::inc("sim.runs");
    casted_obs::add("sim.cycles", stats.cycles);
    casted_obs::add("sim.stall_cycles", stats.stall_cycles);
    casted_obs::add("sim.dyn_insns", stats.dyn_insns);
    casted_obs::add("sim.bundles", stats.bundles);
    casted_obs::add("sim.cross_reads", stats.cross_reads);
    casted_obs::add("sim.cache.accesses", stats.cache.accesses);
    casted_obs::add("sim.cache.l1_hits", stats.cache.hits.first().copied().unwrap_or(0));
    casted_obs::add("sim.cache.l2_hits", stats.cache.hits.get(1).copied().unwrap_or(0));
    casted_obs::add("sim.cache.l3_hits", stats.cache.hits.get(2).copied().unwrap_or(0));
    casted_obs::add("sim.cache.memory_accesses", stats.cache.memory_accesses);
}

/// The complete live state of the machine at a **bundle boundary** —
/// everything `simulate` used to keep in locals, extracted so a run
/// can be cloned mid-flight and resumed later with bit-identical
/// behaviour. The checkpoint engine (`crate::checkpoint`) snapshots
/// these during the golden run and restores them to fast-forward
/// faulty trials past the fault-free prefix.
///
/// Fields are crate-private: external code interacts through
/// [`simulate`] and the `checkpoint` module, plus the read-only
/// accessors below.
#[derive(Clone)]
pub struct MachineState {
    /// Where each register class sits in `regs` and `ready`.
    pub(crate) layout: SlotLayout,
    /// The word file, indexed by operand slot (see `crate::decode`):
    /// every virtual register as a raw word (integers as their bits,
    /// floats as IEEE bits, predicates as 0/1), then the program's
    /// constants, which no instruction writes.
    pub(crate) regs: Vec<u64>,
    pub(crate) mem: Memory,
    pub(crate) cache: CacheHierarchy,
    /// Scoreboard per slot: the cycle the value becomes ready on its
    /// *producing* cluster, plus which cluster produced it. A consumer
    /// on the producing cluster reads through the local bypass at
    /// `ready`; a consumer on the other cluster reads through the
    /// interconnect at `ready + inter_cluster_delay` (the paper's
    /// remote register-file access).
    pub(crate) ready: Vec<(u64, u8)>,
    pub(crate) stats: SimStats,
    pub(crate) stream: Vec<OutVal>,
    /// In-flight miss completion cycles (bounded MSHRs).
    pub(crate) mshr: Vec<u64>,
    pub(crate) cycle: u64,
    /// Block being executed.
    pub(crate) block: casted_ir::BlockId,
    /// Next bundle index within `block` (the boundary position).
    pub(crate) bundle_idx: usize,
    /// Branch target already resolved earlier in this block (branches
    /// take effect at the end of the block).
    pub(crate) next_block: Option<casted_ir::BlockId>,
    /// Halt code already resolved earlier in this block (halts too
    /// take effect at the end of the block).
    pub(crate) halt: Option<i64>,
    pub(crate) injected: bool,
    /// RBED digest of every result retired so far (None for every
    /// other scheme). The plan's bound cursor is not state: it is the
    /// number of bounds at or below `stats.dyn_insns`.
    pub(crate) rbed: Option<Fnv64>,
}

impl MachineState {
    /// Power-on state for `sp`, decoded as `dp`: cycle 0, entry block,
    /// zeroed register files, the program's constants, globals
    /// materialized, cold caches.
    pub(crate) fn fresh(sp: &ScheduledProgram, dp: &DecodedProgram) -> Self {
        let mut stats = SimStats::default();
        stats.per_cluster = vec![0; sp.config.clusters];
        let mem = Memory::for_module(&sp.module);
        let layout = dp.layout;
        MachineState {
            layout,
            regs: dp.word_file(),
            // Every cache access follows a `check_addr` against this
            // memory, so the cache need only cover its bytes.
            cache: CacheHierarchy::new(&sp.config, mem.len_words() as u64 * 8),
            mem,
            ready: vec![(0, 0); layout.len()],
            stats,
            stream: Vec::new(),
            mshr: Vec::new(),
            cycle: 0,
            block: sp.module.entry_fn().entry,
            bundle_idx: 0,
            next_block: None,
            halt: None,
            injected: false,
            rbed: None,
        }
    }

    /// Dynamic instructions retired so far.
    pub fn dyn_insns(&self) -> u64 {
        self.stats.dyn_insns
    }

    /// Current machine cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Values emitted so far.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// The dynamic-instruction count at which this boundary's run
    /// enters its next block: the count so far plus the instructions
    /// the block's remaining bundles retire. A hook that returns it
    /// runs next at that block entry (see [`run_machine`]).
    pub(crate) fn next_entry(&self, dp: &DecodedProgram) -> u64 {
        let end = dp.block(self.block).len();
        self.stats.dyn_insns + dp.ops_between(self.block, self.bundle_idx, end)
    }

    /// Heap bytes this state owns, i.e. what a snapshot of it holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.regs.capacity() * 8
            + self.mem.len_words() * 8
            + self.cache.heap_bytes()
            + self.ready.capacity() * size_of::<(u64, u8)>()
            + (self.stats.per_cluster.capacity() + self.stats.cache.hits.capacity()) * 8
            + self.stream.capacity() * size_of::<OutVal>()
            + self.mshr.capacity() * 8
    }
}

// ---- The timing rules ----
//
// Each rule has this one implementation: `run_machine` applies them
// alongside the register words, and a costing walk (`crate::cost`)
// applies them alone to another schedule of the same program.

/// The watchdog, checked before each bundle issues (never at the
/// halt): a run is past it once its cycle exceeds `max_cycles`.
#[inline(always)]
pub(crate) fn past_watchdog(cycle: u64, max_cycles: u64) -> bool {
    cycle > max_cycles
}

/// The lockstep stall scan: the cycle at which a bundle reached at
/// `cycle` issues — once every register it reads is ready, a read from
/// the other cluster `delay` cycles after its producer's. `stalls`
/// holds each read the decode could not prove ready (a slot with its
/// reading cluster); `proven_cross` counts the proven reads that cross
/// clusters. It counts the bundle, its stall cycles and all its
/// cross-cluster reads.
#[inline(always)]
pub(crate) fn issue_cycle(
    stalls: &[(u32, u8)],
    proven_cross: u32,
    delay: u64,
    ready: &[(u64, u8)],
    cycle: u64,
    stats: &mut SimStats,
) -> u64 {
    stats.cross_reads += proven_cross as u64;
    let mut issue = cycle;
    for &(slot, reader) in stalls {
        let (mut avail, writer) = ready[slot as usize];
        if writer != reader {
            avail += delay;
            stats.cross_reads += 1;
        }
        issue = issue.max(avail);
    }
    stats.stall_cycles += issue - cycle;
    stats.bundles += 1;
    issue
}

/// The latency of a load of `addr` issued at `issue`: the cache's,
/// floored at a hit. Bounded MSHRs: a miss beyond the L1 latency
/// occupies an entry; when all entries are busy the new miss queues
/// behind the oldest.
#[inline(always)]
pub(crate) fn load_latency(
    lat: &Latencies,
    cache: &mut CacheHierarchy,
    mshr: &mut Vec<u64>,
    addr: u64,
    issue: u64,
) -> u32 {
    let mut l = cache.access(addr).max(lat.load_hit);
    if l > lat.l1_lat {
        mshr.retain(|&c| c > issue);
        if mshr.len() >= lat.mshr_entries {
            if let Some(&min) = mshr.iter().min() {
                l += (min.saturating_sub(issue)) as u32;
            }
        }
        mshr.push(issue + l as u64);
    }
    l
}

/// The scoreboard: a result written by `cluster` at `issue` is ready
/// there `latency` cycles later.
#[inline(always)]
pub(crate) fn mark_ready(ready: &mut [(u64, u8)], def: u32, issue: u64, latency: u32, cluster: u8) {
    ready[def as usize] = (issue + latency as u64, cluster);
}

/// Close the statistics of a run that stopped at `cycle`: its final
/// cycle and its cache's counters.
#[inline]
pub(crate) fn close_stats(stats: &mut SimStats, cycle: u64, cache: &CacheHierarchy) {
    stats.cycles = cycle;
    stats.cache.clone_from(&cache.stats);
}

/// Evaluate a pure word operation over its operand words `v`: the
/// word image of `casted_ir::semantics::eval_pure`, which the
/// interpreter runs and `crates/sim/tests/word_semantics.rs` checks
/// this against. Integer arithmetic wraps; only division by zero
/// raises.
#[inline(always)]
fn eval_word(op: WordOp, v: &[u64]) -> Result<u64, ExecError> {
    let i = |k: usize| v[k] as i64;
    let f = |k: usize| f64::from_bits(v[k]);
    let b = |x: bool| x as u64;
    Ok(match op {
        WordOp::Add => v[0].wrapping_add(v[1]),
        WordOp::Sub => v[0].wrapping_sub(v[1]),
        WordOp::Mul => v[0].wrapping_mul(v[1]),
        WordOp::Div | WordOp::Rem if v[1] == 0 => return Err(ExecError::DivByZero),
        WordOp::Div => i(0).wrapping_div(i(1)) as u64,
        WordOp::Rem => i(0).wrapping_rem(i(1)) as u64,
        WordOp::And => v[0] & v[1],
        WordOp::Or => v[0] | v[1],
        WordOp::Xor => v[0] ^ v[1],
        WordOp::Shl => v[0] << (v[1] & 63),
        WordOp::Shr => v[0] >> (v[1] & 63),
        WordOp::Sra => (i(0) >> (v[1] & 63)) as u64,
        WordOp::Mov => v[0],
        WordOp::Sel => {
            if v[0] != 0 {
                v[1]
            } else {
                v[2]
            }
        }
        WordOp::Cmp(k) => b(k.eval_int(i(0), i(1))),
        WordOp::FCmp(k) => b(k.eval_float(f(0), f(1))),
        WordOp::FAdd => (f(0) + f(1)).to_bits(),
        WordOp::FSub => (f(0) - f(1)).to_bits(),
        WordOp::FMul => (f(0) * f(1)).to_bits(),
        WordOp::FDiv => (f(0) / f(1)).to_bits(),
        WordOp::I2F => (i(0) as f64).to_bits(),
        // Saturating; NaN maps to 0.
        WordOp::F2I => f(0) as i64 as u64,
        op => unreachable!("{op:?} is not a pure word operation"),
    })
}

/// Execute the decoded program `dp` starting from `st` until it
/// stops, mutating `st` in place.
///
/// **The wake contract.** The run calls `hook` at a bundle boundary
/// (immediately before the bundle at `st.bundle_idx` issues, and before
/// the watchdog looks at it): first at the first boundary, then at the
/// first boundary whose dynamic-instruction count reaches the count
/// the last call returned. A hook that returns the current count runs
/// again at the next boundary; one that returns
/// [`MachineState::next_entry`] runs next at the following block
/// entry; `u64::MAX` never again. A hook returns `None` to stop the run
/// at that boundary. The checkpoint engine uses it to capture snapshots
/// during the golden run and to test convergence during replays, and
/// the costing (`crate::cost`) to read the words its walks need.
///
/// The function is not generic: every caller shares this one compiled
/// loop, whose only per-bundle cost for the hook is one comparison.
/// When `flush_metrics` is false the run stays out of the `sim.*`
/// counters (fault-injection trials would otherwise swamp them and make
/// the campaign engines' counter snapshots incomparable).
///
/// The loop computes on raw words: every operand is an index into the
/// word file and every instruction a [`WordOp`], resolved by the decode
/// (`crate::decode`), so no register class is consulted here.
///
/// Returns `Some(result)` when the run stopped by itself, `None` when
/// the hook stopped it. The semantics — stall rules, in-order issue,
/// end-of-block branch/halt resolution, watchdog check per bundle,
/// injection after writeback — are exactly those of the historical
/// single-function `simulate`; `simulate` itself is a thin wrapper
/// over one decode, a fresh state and a hook that never wakes again.
#[inline(never)]
pub(crate) fn run_machine(
    dp: &DecodedProgram,
    opts: &SimOptions,
    st: &mut MachineState,
    flush_metrics: bool,
    hook: &mut dyn FnMut(&MachineState) -> Option<u64>,
) -> Option<SimResult> {
    let inj = opts.injection;
    // The strike's victim slot when it targets one register.
    let inj_target = inj.and_then(|i| i.target).map(|r| dp.layout.slot(r));

    // RBED: a run from power-on starts the digest accumulator; a
    // restored state keeps the one it was saved with (mid-run digests
    // are machine state). Bounds are crossed in retirement order, so
    // the next one is the first above the instructions retired so far.
    let (bounds, digests) = opts.rbed.as_deref().map_or((&[][..], &[][..]), |p| {
        (&p.bounds[..], &p.digests[..])
    });
    if opts.rbed.is_some() && st.rbed.is_none() {
        debug_assert_eq!(st.stats.dyn_insns, 0, "a mid-run state without a digest accumulator");
        st.rbed = Some(Fnv64::new());
    }
    let mut next_bound = bounds.partition_point(|&b| b <= st.stats.dyn_insns);

    // Reusable phase-1 operand buffer (the simulator's hottest
    // allocation site otherwise).
    let mut val_buf: Vec<u64> = Vec::with_capacity(64);

    let mut trace: Vec<TraceEntry> = Vec::new();
    // The count at which the hook runs next: at the first boundary.
    let mut wake = 0;
    // Span-timed per run; counters are flushed in bulk on exit, so the
    // cycle loop itself carries no instrumentation (the disabled-
    // metrics fast path costs one relaxed load per whole run).
    let _run_span = if flush_metrics {
        Some(casted_obs::span("sim.run_ns"))
    } else {
        None
    };

    macro_rules! finish {
        ($stop:expr, $cycle:expr) => {{
            let cycle = $cycle;
            st.cycle = cycle;
            close_stats(&mut st.stats, cycle, &st.cache);
            if flush_metrics {
                record_run_metrics(&st.stats);
            }
            return Some(SimResult {
                stop: $stop,
                stream: std::mem::take(&mut st.stream),
                stats: st.stats.clone(),
                injected: st.injected,
                trace,
            });
        }};
    }

    loop {
        let bundles = dp.block(st.block);

        while st.bundle_idx < bundles.len() {
            if st.stats.dyn_insns >= wake {
                wake = hook(st)?;
            }
            let bundle = &bundles[st.bundle_idx];
            if past_watchdog(st.cycle, opts.max_cycles) {
                finish!(StopReason::Timeout, st.cycle);
            }
            // ---- stall until every operand of the bundle is usable ----
            let issue = issue_cycle(
                dp.stalls(bundle),
                bundle.proven_cross,
                dp.lat.delay,
                &st.ready,
                st.cycle,
                &mut st.stats,
            );

            // ---- phase 1: read all operands (VLIW parallel read) ----
            val_buf.clear();
            val_buf.extend(dp.operands(bundle).iter().map(|&o| st.regs[o as usize]));

            // ---- phase 2: execute and write back ----
            let mut detect_fired = false;
            for insn in dp.ops(bundle) {
                let vals = &val_buf[insn.operand_range()];
                let cluster = insn.cluster;
                st.stats.dyn_insns += 1;
                st.stats.per_cluster[cluster.index()] += 1;
                if trace.len() < opts.trace_limit {
                    trace.push(TraceEntry {
                        cycle: issue,
                        block: st.block,
                        cluster,
                        insn: insn.iid,
                        stalled: issue - st.cycle,
                    });
                }

                // Retired result absorbed by the RBED digest (the
                // *computed* word — deliberately sampled before the
                // injector's post-writeback flip, so dead strikes
                // never poison the digest), and written to the def,
                // if any, ready after `latency`.
                let mut latency = insn.latency;
                let retired: Option<u64> = match insn.word_op {
                    WordOp::Load => {
                        let addr = (vals[0] as i64).wrapping_add(insn.imm);
                        match st.mem.load_int(addr) {
                            Ok(w) => {
                                latency = load_latency(
                                    &dp.lat,
                                    &mut st.cache,
                                    &mut st.mshr,
                                    addr as u64,
                                    issue,
                                );
                                Some(w as u64)
                            }
                            Err(e) => finish!(StopReason::Exception(e), issue + 1),
                        }
                    }
                    WordOp::Store => {
                        let addr = (vals[0] as i64).wrapping_add(insn.imm);
                        match st.mem.store_int(addr, vals[1] as i64) {
                            Ok(()) => {
                                st.cache.access(addr as u64);
                                Some(vals[1])
                            }
                            Err(e) => finish!(StopReason::Exception(e), issue + 1),
                        }
                    }
                    WordOp::Out => {
                        st.stream.push(OutVal::Int(vals[0] as i64));
                        Some(vals[0])
                    }
                    WordOp::FOut => {
                        st.stream.push(OutVal::Float(f64::from_bits(vals[0])));
                        Some(vals[0])
                    }
                    WordOp::Br => {
                        st.next_block = insn.target;
                        None
                    }
                    WordOp::BrCond => {
                        st.next_block = if vals[0] != 0 {
                            insn.target
                        } else {
                            insn.target2
                        };
                        None
                    }
                    WordOp::DetectBr => {
                        detect_fired |= vals[0] != 0;
                        None
                    }
                    // Checks compare bitwise in every class.
                    WordOp::ChkNe => {
                        detect_fired |= vals[0] != vals[1];
                        None
                    }
                    WordOp::Halt => {
                        st.halt = Some(vals[0] as i64);
                        None
                    }
                    WordOp::Nop => None,
                    // Bitwise majority over three copies (TMRED): any
                    // single corrupted copy is out-voted, in every
                    // class. The copies disagree iff the vote masked a
                    // corrupted lane — count the correction so fault
                    // classification can distinguish Corrected from
                    // Benign.
                    WordOp::Vote => {
                        let (a, b, c) = (vals[0], vals[1], vals[2]);
                        if !(a == b && a == c) {
                            st.stats.corrections += 1;
                        }
                        Some((a & b) | (a & c) | (b & c))
                    }
                    op => match eval_word(op, vals) {
                        Ok(w) => Some(w),
                        Err(e) => finish!(StopReason::Exception(e), issue + 1),
                    },
                };
                if let (Some(d), Some(w)) = (insn.def, retired) {
                    st.regs[d as usize] = w;
                    mark_ready(&mut st.ready, d, issue, latency, cluster.0);
                }

                // ---- RBED digest accumulation + bound check ----
                if let Some(acc) = st.rbed.as_mut() {
                    if let Some(w) = retired {
                        acc.write_u64_round(w);
                    }
                    if bounds.get(next_bound) == Some(&st.stats.dyn_insns) {
                        detect_fired |= acc.finish() != digests[next_bound];
                        next_bound += 1;
                    }
                }

                // ---- fault injection after writeback ----
                if let Some(inj) = inj {
                    if !st.injected && st.stats.dyn_insns >= inj.at_dyn_insn {
                        if let Some(d) = inj_target.or(insn.def) {
                            let slot = d as usize;
                            st.regs[slot] = inj.flip(st.regs[slot], dp.layout.bits(d));
                            st.injected = true;
                        }
                    }
                }
            }

            if detect_fired {
                finish!(StopReason::Detected, issue + 1);
            }
            st.cycle = issue + 1;
            st.bundle_idx += 1;
        }

        if let Some(code) = st.halt {
            // RBED truncation detection: a halt with bounds still
            // uncrossed means the run retired fewer instructions than
            // the golden run — report it instead of trusting the
            // (truncated) output.
            if next_bound < bounds.len() {
                finish!(StopReason::Detected, st.cycle);
            }
            finish!(StopReason::Halt(code), st.cycle);
        }
        match st.next_block {
            Some(b) => {
                st.block = b;
                st.bundle_idx = 0;
                st.next_block = None;
                st.halt = None;
            }
            None => finish!(
                StopReason::Exception(casted_ir::semantics::ExecError::MemOutOfBounds(-1)),
                st.cycle
            ),
        }
    }
}

/// The boundary hook of a run that needs none: it never wakes again.
pub(crate) fn never(_: &MachineState) -> Option<u64> {
    Some(u64::MAX)
}

/// Run `sp`, already decoded as `dp`, from power-on to its stop.
fn run_decoded(
    sp: &ScheduledProgram,
    dp: &DecodedProgram,
    opts: &SimOptions,
    flush_metrics: bool,
) -> SimResult {
    let mut st = MachineState::fresh(sp, dp);
    run_machine(dp, opts, &mut st, flush_metrics, &mut never).expect("`never` does not stop a run")
}

/// A campaign's fault-free run of `sp` (decoded as `dp`) from power-on
/// under the watchdog `max_cycles`, waking `hook` by the contract of
/// [`run_machine`]; with `replay_detect` it accumulates the RBED
/// digest. It flushes the `sim.*` counters only when the run halts: a
/// campaign refuses any other target, and a refused target leaves the
/// counters as they were.
pub(crate) fn run_golden(
    sp: &ScheduledProgram,
    dp: &DecodedProgram,
    max_cycles: u64,
    replay_detect: bool,
    hook: &mut dyn FnMut(&MachineState) -> Option<u64>,
) -> SimResult {
    let _run_span = casted_obs::span("sim.run_ns");
    let opts = SimOptions {
        max_cycles,
        rbed: replay_detect.then(crate::rbed::RbedPlan::accumulate_only),
        ..SimOptions::default()
    };
    let mut st = MachineState::fresh(sp, dp);
    let result = run_machine(dp, &opts, &mut st, false, hook)
        .expect("the golden pass's hook never stops the run");
    if matches!(result.stop, StopReason::Halt(_)) {
        record_run_metrics(&result.stats);
    }
    result
}

/// The fault-free run a campaign classifies against: [`simulate`]
/// bounded by `max_cycles`, which flushes the `sim.*` counters only
/// when the run halts: a campaign refuses any other target.
pub fn simulate_golden(sp: &ScheduledProgram, max_cycles: u64) -> SimResult {
    run_golden(sp, &DecodedProgram::new(sp), max_cycles, false, &mut never)
}

/// Run `sp` to completion (or exception/detection/timeout).
pub fn simulate(sp: &ScheduledProgram, opts: &SimOptions) -> SimResult {
    run_decoded(sp, &DecodedProgram::new(sp), opts, true)
}

/// Like [`simulate`] but without flushing `sim.*` metrics: the entry
/// point for fault-injection trials, which run the same program
/// hundreds of times and would otherwise drown the per-run counters
/// (and make the reference and checkpointed campaign engines'
/// counter snapshots incomparable).
pub fn simulate_quiet(sp: &ScheduledProgram, opts: &SimOptions) -> SimResult {
    run_decoded(sp, &DecodedProgram::new(sp), opts, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::interp;
    use casted_ir::{CmpKind, FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    fn demo_module() -> Module {
        let mut m = Module::new("t");
        let (_, addr) = m.add_global("g", casted_ir::func::GlobalClass::Int, 8, vec![1, 2, 3]);
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let acc = b.imm(0);
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let base = b.imm(addr);
        let sh = b.binop(Opcode::Shl, Operand::Reg(i), Operand::Imm(3));
        let ea = b.binop(Opcode::Add, Operand::Reg(base), Operand::Reg(sh));
        let v = b.load(ea, 0);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(v));
        b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(CmpKind::Lt, Operand::Reg(i), Operand::Imm(3));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    #[test]
    fn sim_matches_interpreter_output() {
        let m = demo_module();
        let golden = interp::run(&m, 100_000).unwrap();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
        let r = simulate(&sp, &SimOptions::default());
        assert_eq!(r.stop, golden.stop);
        assert_eq!(r.stream, golden.stream);
        assert_eq!(r.stats.dyn_insns, golden.dyn_insns);
    }

    #[test]
    fn cycles_exceed_instruction_count_with_latencies() {
        let m = demo_module();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(1, 1));
        let r = simulate(&sp, &SimOptions::default());
        // Cold cache misses (150 cycles each) dominate: at least one
        // per touched line.
        assert!(r.cycles() > r.stats.dyn_insns, "no stalls simulated?");
        assert!(r.stats.cache.memory_accesses >= 1);
    }

    #[test]
    fn perfect_memory_is_faster() {
        let m = demo_module();
        let cached = simulate(
            &ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(1, 1)),
            &SimOptions::default(),
        );
        let perfect = simulate(
            &ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1)),
            &SimOptions::default(),
        );
        assert!(perfect.cycles() < cached.cycles());
        assert_eq!(perfect.stream, cached.stream);
    }

    #[test]
    fn timeout_fires() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let spin = b.new_block("spin");
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let r = simulate(
            &sp,
            &SimOptions {
                max_cycles: 1000,
                injection: None,
                ..SimOptions::default()
            },
        );
        assert_eq!(r.stop, StopReason::Timeout);
    }

    #[test]
    fn injection_lands_and_changes_output() {
        let m = demo_module();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let golden = simulate(&sp, &SimOptions::default());
        // Strike the accumulator chain mid-run, high bit: expect a
        // corrupted (different) output or an exception — not silence.
        let r = simulate(
            &sp,
            &SimOptions {
                max_cycles: 1_000_000,
                injection: Some(Injection::single(golden.stats.dyn_insns / 2, 62, None)),
                ..SimOptions::default()
            },
        );
        assert!(r.injected);
        let changed = r.stop != golden.stop
            || r.stream.len() != golden.stream.len()
            || r.stream
                .iter()
                .zip(&golden.stream)
                .any(|(a, b)| !a.bit_eq(b));
        assert!(changed, "high-bit accumulator flip was silent");
    }

    #[test]
    fn injection_into_predicate_flips_control() {
        // p = (1 < 2); br p -> out(1) else out(2). Flip p.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let t = b.new_block("t");
        let e = b.new_block("e");
        let p = b.cmp(CmpKind::Lt, Operand::Imm(1), Operand::Imm(2));
        b.br_cond(p, t, e);
        b.switch_to(t);
        b.out(Operand::Imm(1));
        b.halt_imm(0);
        b.switch_to(e);
        b.out(Operand::Imm(2));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let r = simulate(
            &sp,
            &SimOptions {
                max_cycles: 10_000,
                injection: Some(Injection::single(1, 0, None)),
                ..SimOptions::default()
            },
        );
        assert!(r.injected);
        assert_eq!(r.stream, vec![OutVal::Int(2)], "flipped predicate must take wrong path");
    }

    #[test]
    fn inter_cluster_delay_costs_cycles() {
        // Producer on cluster 0, consumer on cluster 1.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let x = b.imm(5);
        let y = b.binop(Opcode::Add, Operand::Reg(x), Operand::Imm(1));
        b.out(Operand::Reg(y));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);

        let mk = |delay: u32, split: bool| {
            let config = MachineConfig::perfect_memory(2, delay);
            let mut sp = ScheduledProgram::sequential(&m, config);
            if split {
                // Move the add (2nd insn) to cluster 1.
                let f = sp.module.entry_fn();
                let add_id = f.block(f.entry).insns[1];
                sp.assignment[add_id.index()] = Some(casted_ir::Cluster::REDUNDANT);
                // Rebuild its bundle lane.
                let bundle = &mut sp.blocks[0].bundles[1];
                bundle.slots[0].clear();
                bundle.slots[1].push(add_id);
                // Its def now homes on cluster 1.
                let d = f.insn(add_id).def().unwrap();
                sp.home.insert(d, casted_ir::Cluster::REDUNDANT);
            }
            simulate(&sp, &SimOptions::default())
        };
        let same = mk(4, false);
        let split = mk(4, true);
        assert!(
            split.cycles() >= same.cycles() + 4,
            "split {} vs same {}",
            split.cycles(),
            same.cycles()
        );
        assert!(split.stats.cross_reads >= 2);
        assert_eq!(split.stream, same.stream);
    }

    #[test]
    fn stall_cycles_are_counted() {
        let m = demo_module();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(1, 1));
        let r = simulate(&sp, &SimOptions::default());
        assert!(r.stats.stall_cycles > 0);
        assert_eq!(
            r.stats.cycles,
            r.stats.bundles + r.stats.stall_cycles,
            "sequential 1-insn bundles: cycles = bundles + stalls"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use casted_ir::{FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    fn tiny() -> casted_ir::vliw::ScheduledProgram {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let x = b.imm(1);
        let y = b.binop(Opcode::Mul, Operand::Reg(x), Operand::Imm(3));
        b.out(Operand::Reg(y));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1))
    }

    #[test]
    fn trace_records_issues_in_cycle_order() {
        let sp = tiny();
        let r = simulate(
            &sp,
            &SimOptions {
                trace_limit: 100,
                ..Default::default()
            },
        );
        assert_eq!(r.trace.len() as u64, r.stats.dyn_insns);
        for w in r.trace.windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
        }
        // The mul stalls waiting on the mov's latency? mov lat 1 and
        // bundles are consecutive, so no stall here — but entries exist.
        assert_eq!(r.trace[0].cycle, 0);
    }

    #[test]
    fn trace_limit_caps_collection() {
        let sp = tiny();
        let r = simulate(
            &sp,
            &SimOptions {
                trace_limit: 2,
                ..Default::default()
            },
        );
        assert_eq!(r.trace.len(), 2);
        // And tracing off by default.
        let r2 = simulate(&sp, &SimOptions::default());
        assert!(r2.trace.is_empty());
    }
}

#[cfg(test)]
mod wake_tests {
    use super::*;
    use casted_ir::{CmpKind, FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    /// A loop in bundles of up to three instructions whose exit branches
    /// to an empty block: the run stops there, without a boundary, for
    /// want of a successor.
    fn program() -> ScheduledProgram {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let empty = b.new_block("empty");
        let (acc, i) = (b.imm(0), b.imm(0));
        b.br(body);
        b.switch_to(body);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(i));
        b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        b.out(Operand::Reg(acc));
        let p = b.cmp(CmpKind::Lt, Operand::Reg(i), Operand::Imm(12));
        b.br_cond(p, body, empty);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        ScheduledProgram::packed(&m, MachineConfig::itanium2_like(2, 2), 3)
    }

    /// A boundary as a hook sees it: instructions retired, cycle, block
    /// and bundle index.
    type Seen = (u64, u64, u32, usize);

    /// Run `sp` from power-on with `hook`, recording each boundary it
    /// was called at.
    fn run(
        sp: &ScheduledProgram,
        mut hook: impl FnMut(&MachineState) -> Option<u64>,
    ) -> (Option<SimResult>, Vec<Seen>, MachineState) {
        let dp = DecodedProgram::new(sp);
        let mut st = MachineState::fresh(sp, &dp);
        let mut seen = Vec::new();
        let r = run_machine(&dp, &SimOptions::default(), &mut st, false, &mut |st| {
            seen.push((st.stats.dyn_insns, st.cycle, st.block.0, st.bundle_idx));
            hook(st)
        });
        (r, seen, st)
    }

    /// Every boundary: a hook that asks for one more instruction each
    /// time, on a program whose bundles all retire at least one.
    fn reference(sp: &ScheduledProgram) -> (SimResult, Vec<Seen>) {
        let (r, seen, _) = run(sp, |st| Some(st.stats.dyn_insns + 1));
        let r = r.expect("the reference hook never stops");
        assert_eq!(
            r.stop,
            StopReason::Exception(ExecError::MemOutOfBounds(-1)),
            "the run ends in the empty block"
        );
        assert_eq!(seen.len() as u64, r.stats.bundles);
        assert!(seen.windows(2).any(|w| w[1].0 > w[0].0 + 1), "no multi-instruction bundle");
        (r, seen)
    }

    #[test]
    fn a_hook_wakes_at_the_first_boundary_at_or_past_each_count() {
        let sp = program();
        let (_, all) = reference(&sp);
        let total = all.last().unwrap().0;
        let mut rng = casted_util::Rng::seed_from_u64(0x3A4E);
        let mut counts: Vec<u64> = (0..16).map(|_| rng.gen_range(1..=total + 4)).collect();
        counts.sort_unstable();
        counts.dedup();
        // The first call comes at the first boundary; each later one at
        // the first boundary after it that reaches the count asked for.
        let mut expected = vec![all[0]];
        let mut at = 0;
        for &c in &counts {
            match (at + 1..all.len()).find(|&j| all[j].0 >= c) {
                Some(j) => {
                    expected.push(all[j]);
                    at = j;
                }
                None => break,
            }
        }
        let mut asks = counts.iter().copied();
        let (r, seen, _) = run(&sp, |_| Some(asks.next().unwrap_or(u64::MAX)));
        assert!(r.is_some());
        assert_eq!(seen, expected, "counts {counts:?}");
    }

    #[test]
    fn a_hook_that_asks_for_block_entries_sees_exactly_them() {
        let sp = program();
        let (_, all) = reference(&sp);
        let dp = DecodedProgram::new(&sp);
        let (_, seen, _) = run(&sp, |st| Some(st.next_entry(&dp)));
        let entries: Vec<Seen> = all.into_iter().filter(|s| s.3 == 0).collect();
        assert!(entries.len() > 2);
        assert_eq!(seen, entries);
    }

    #[test]
    fn a_stop_at_a_wake_up_leaves_the_state_at_that_boundary() {
        let sp = program();
        let (full, all) = reference(&sp);
        let dp = DecodedProgram::new(&sp);
        for k in [1, all.len() / 2, all.len() - 1] {
            let target = all[k];
            let (r, seen, mut st) = run(&sp, |st| (st.stats.dyn_insns < target.0).then_some(target.0));
            assert!(r.is_none(), "stopped at boundary {k}");
            assert_eq!(seen.last(), Some(&target));
            assert_eq!((st.stats.dyn_insns, st.cycle, st.block.0, st.bundle_idx), target);
            // Resumed, the same state finishes as the whole run does.
            let rest = run_machine(&dp, &SimOptions::default(), &mut st, false, &mut never);
            assert!(rest.expect("`never` does not stop a run").bit_identical(&full));
        }
    }
}

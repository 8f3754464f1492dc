//! The lockstep VLIW execution engine.

use casted_ir::interp::{Memory, OutVal, RegFile, StopReason};
use casted_ir::semantics::{eval_pure, Val};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{Opcode, Operand, Reg, RegClass};

use crate::cache::CacheHierarchy;
use crate::decode::DecodedProgram;
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

    /// Apply this strike to a register value of `class_bits` width.
    /// For `width == 1` this is exactly the historical
    /// `flip_bit(bit % class_bits)`; a burst flips `width` adjacent
    /// bit positions `(bit - phase + k) mod 64` for `k < width`
    /// (distinct since `width <= 4`), each masked by the register
    /// width — one flip for predicates.
    #[inline]
    pub fn flip(&self, v: Val, class_bits: u32) -> Val {
        let w = (self.width as u32).max(1);
        if w == 1 || class_bits <= 1 {
            return v.flip_bit(self.bit % class_bits.max(1));
        }
        let mut out = v;
        for k in 0..w {
            let b = (self.bit + 64 - self.phase as u32 + k) % 64;
            out = out.flip_bit(b % class_bits);
        }
        out
    }
}

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
    /// digest of retired results and compare it against the golden
    /// digests at each chunk boundary (`None` = off, all other
    /// schemes). Installed into a fresh [`MachineState`]; a restored
    /// checkpoint keeps the accumulator it was snapshotted with.
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
}

/// Scoreboard per virtual register: the cycle the value becomes ready
/// on its *producing* cluster, plus which cluster produced it. A
/// consumer on the producing cluster reads through the local bypass at
/// `ready`; a consumer on the other cluster reads through the
/// interconnect at `ready + inter_cluster_delay` (the paper's remote
/// register-file access).
#[derive(Clone)]
pub(crate) struct Ready {
    pub(crate) gp: Vec<(u64, u8)>,
    pub(crate) fp: Vec<(u64, u8)>,
    pub(crate) pr: Vec<(u64, u8)>,
}

impl Ready {
    pub(crate) fn new(func: &casted_ir::Function) -> Self {
        Ready {
            gp: vec![(0, 0); func.reg_count(RegClass::Gp) as usize],
            fp: vec![(0, 0); func.reg_count(RegClass::Fp) as usize],
            pr: vec![(0, 0); func.reg_count(RegClass::Pr) as usize],
        }
    }

    #[inline]
    pub(crate) fn get(&self, r: Reg) -> (u64, u8) {
        match r.class {
            RegClass::Gp => self.gp[r.index as usize],
            RegClass::Fp => self.fp[r.index as usize],
            RegClass::Pr => self.pr[r.index as usize],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, r: Reg, cycle: u64, writer: u8) {
        match r.class {
            RegClass::Gp => self.gp[r.index as usize] = (cycle, writer),
            RegClass::Fp => self.fp[r.index as usize] = (cycle, writer),
            RegClass::Pr => self.pr[r.index as usize] = (cycle, writer),
        }
    }
}

/// Bulk-flush one finished run's counters into the global metrics
/// registry. All values are deterministic functions of the program and
/// seed, so they are part of the counter-only snapshot.
fn record_run_metrics(stats: &SimStats) {
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
    pub(crate) rf: RegFile,
    pub(crate) mem: Memory,
    pub(crate) cache: CacheHierarchy,
    pub(crate) ready: Ready,
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
    /// RBED chunk-digest accumulator (None for every other scheme).
    /// Boxed: it only exists for RBED campaigns, and the common-case
    /// state must stay cheap to clone.
    pub(crate) rbed: Option<Box<crate::rbed::RbedState>>,
}

impl MachineState {
    /// Power-on state for `sp`: cycle 0, entry block, zeroed register
    /// files, globals materialized, cold caches.
    pub fn fresh(sp: &ScheduledProgram) -> Self {
        let func = sp.module.entry_fn();
        let mut stats = SimStats::default();
        stats.per_cluster = vec![0; sp.config.clusters];
        let mem = Memory::for_module(&sp.module);
        MachineState {
            rf: RegFile::for_function(func),
            // Every cache access follows a `check_addr` against this
            // memory, so the cache need only cover its bytes.
            cache: CacheHierarchy::new(&sp.config, mem.len_words() as u64 * 8),
            mem,
            ready: Ready::new(func),
            stats,
            stream: Vec::new(),
            mshr: Vec::new(),
            cycle: 0,
            block: func.entry,
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

    /// Heap bytes this state owns, i.e. what a snapshot of it holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ready = self.ready.gp.capacity() + self.ready.fp.capacity() + self.ready.pr.capacity();
        let rbed = self.rbed.as_ref().map_or(0, |r| {
            size_of::<crate::rbed::RbedState>() + r.recorded.capacity() * 8
        });
        self.rf.heap_bytes()
            + self.mem.len_words() * 8
            + self.cache.heap_bytes()
            + ready * size_of::<(u64, u8)>()
            + (self.stats.per_cluster.capacity() + self.stats.cache.hits.capacity()) * 8
            + self.stream.capacity() * size_of::<OutVal>()
            + self.mshr.capacity() * 8
            + rbed
    }
}

/// Canonical 64-bit image of a retired value for digest purposes.
#[inline]
fn val_word(v: Val) -> u64 {
    match v {
        Val::I(x) => x as u64,
        Val::F(x) => x.to_bits(),
        Val::B(x) => x as u64,
    }
}

/// What the bundle-boundary hook wants the run to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Boundary {
    /// Keep executing.
    Continue,
    /// Stop here: the caller has proven the remainder of the run
    /// (convergence pruning). `run_machine` returns `None`.
    Stop,
}

/// Execute the decoded program `dp` starting from `st` until it
/// stops, mutating `st` in place. `boundary` is invoked at every
/// bundle boundary (immediately before the bundle at `st.bundle_idx`
/// issues) and may stop the run early; the checkpoint engine uses it
/// to capture snapshots during the golden run and to test convergence
/// during replays. When
/// `flush_metrics` is false the run stays out of the `sim.*` counters
/// (fault-injection trials would otherwise swamp them and make the
/// two campaign engines' counter snapshots incomparable).
///
/// Returns `Some(result)` when the run stopped by itself, `None` when
/// the hook stopped it. The semantics — stall rules, in-order issue,
/// end-of-block branch/halt resolution, watchdog check per bundle,
/// injection after writeback — are exactly those of the historical
/// single-function `simulate`; `simulate` itself is now a thin
/// wrapper over one decode, a fresh state and a no-op hook.
pub(crate) fn run_machine(
    dp: &DecodedProgram,
    opts: &SimOptions,
    st: &mut MachineState,
    flush_metrics: bool,
    boundary: &mut dyn FnMut(&MachineState) -> Boundary,
) -> Option<SimResult> {
    let delay = dp.delay;
    let inj = opts.injection;

    // Install the RBED digest accumulator on a fresh state; a state
    // restored from a checkpoint keeps the accumulator it was
    // snapshotted with (mid-run digests are part of machine state).
    if st.rbed.is_none() {
        if let Some(plan) = &opts.rbed {
            st.rbed = Some(Box::new(crate::rbed::RbedState::new(plan.clone())));
        }
    }

    // Reusable phase-1 operand buffer (the simulator's hottest
    // allocation site otherwise).
    let mut val_buf: Vec<Val> = Vec::with_capacity(64);

    let mut trace: Vec<TraceEntry> = Vec::new();
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
            st.stats.cycles = cycle;
            st.stats.cache = st.cache.stats.clone();
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
            if boundary(st) == Boundary::Stop {
                return None;
            }
            let bundle = &bundles[st.bundle_idx];
            if st.cycle > opts.max_cycles {
                finish!(StopReason::Timeout, st.cycle);
            }
            // ---- stall until every operand of the bundle is usable ----
            let mut issue = st.cycle;
            for &(r, reader) in dp.stalls(bundle) {
                let (mut avail, writer) = st.ready.get(r);
                if writer != reader {
                    avail += delay;
                    st.stats.cross_reads += 1;
                }
                issue = issue.max(avail);
            }
            st.stats.stall_cycles += issue - st.cycle;
            st.stats.bundles += 1;

            // ---- phase 1: read all operands (VLIW parallel read) ----
            val_buf.clear();
            val_buf.extend(dp.operands(bundle).iter().map(|o| match *o {
                Operand::Reg(r) => st.rf.get(r),
                Operand::Imm(v) => Val::I(v),
                Operand::FImm(v) => Val::F(v),
            }));

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
                // *computed* value — deliberately sampled before the
                // injector's post-writeback flip, so dead strikes
                // never poison the digest).
                let mut retired_val: Option<Val> = None;

                // Completion helper: set value + scoreboard.
                let write_def = |rf: &mut RegFile, ready: &mut Ready, v: Val, latency: u32| {
                    let d = insn.def.expect("value-producing instruction defines a register");
                    rf.set(d, v);
                    ready.set(d, issue + latency as u64, cluster.0);
                };

                match insn.op {
                    Opcode::Load | Opcode::FLoad => {
                        let base = vals[0].as_i();
                        let addr = base.wrapping_add(insn.imm);
                        let loaded = if insn.op == Opcode::Load {
                            st.mem.load_int(addr).map(Val::I)
                        } else {
                            st.mem.load_float(addr).map(Val::F)
                        };
                        match loaded {
                            Ok(v) => {
                                let mut l = st.cache.access(addr as u64).max(dp.load_hit);
                                // Bounded MSHRs: a miss beyond the L1
                                // latency occupies an entry; when all
                                // entries are busy the new miss queues
                                // behind the oldest.
                                if l > dp.l1_lat {
                                    st.mshr.retain(|&c| c > issue);
                                    if st.mshr.len() >= dp.mshr_entries {
                                        if let Some(&min) = st.mshr.iter().min() {
                                            l += (min.saturating_sub(issue)) as u32;
                                        }
                                    }
                                    st.mshr.push(issue + l as u64);
                                }
                                retired_val = Some(v);
                                write_def(&mut st.rf, &mut st.ready, v, l);
                            }
                            Err(e) => finish!(StopReason::Exception(e), issue + 1),
                        }
                    }
                    Opcode::Store | Opcode::FStore => {
                        let base = vals[0].as_i();
                        let addr = base.wrapping_add(insn.imm);
                        let res = match insn.op {
                            Opcode::Store => st.mem.store_int(addr, vals[1].as_i()),
                            _ => st.mem.store_float(addr, vals[1].as_f()),
                        };
                        match res {
                            Ok(()) => {
                                st.cache.access(addr as u64);
                                retired_val = Some(vals[1]);
                            }
                            Err(e) => finish!(StopReason::Exception(e), issue + 1),
                        }
                    }
                    Opcode::Out => {
                        retired_val = Some(vals[0]);
                        st.stream.push(OutVal::Int(vals[0].as_i()));
                    }
                    Opcode::FOut => {
                        retired_val = Some(vals[0]);
                        st.stream.push(OutVal::Float(vals[0].as_f()));
                    }
                    Opcode::Br => st.next_block = insn.target,
                    Opcode::BrCond => {
                        st.next_block = if vals[0].as_b() {
                            insn.target
                        } else {
                            insn.target2
                        };
                    }
                    Opcode::DetectBr => {
                        if vals[0].as_b() {
                            detect_fired = true;
                        }
                    }
                    Opcode::ChkNe => {
                        if casted_ir::semantics::eval_cmp_vals(
                            casted_ir::CmpKind::Ne,
                            vals[0],
                            vals[1],
                        ) {
                            detect_fired = true;
                        }
                    }
                    Opcode::Halt => st.halt = Some(vals[0].as_i()),
                    Opcode::Nop => {}
                    Opcode::Vote => match eval_pure(insn.op, vals) {
                        Ok(v) => {
                            // The copies disagree iff the vote masked a
                            // corrupted lane — count the correction so
                            // fault classification can distinguish
                            // Corrected from Benign.
                            let eq01 = casted_ir::semantics::eval_cmp_vals(
                                casted_ir::CmpKind::Eq,
                                vals[0],
                                vals[1],
                            );
                            let eq02 = casted_ir::semantics::eval_cmp_vals(
                                casted_ir::CmpKind::Eq,
                                vals[0],
                                vals[2],
                            );
                            if !(eq01 && eq02) {
                                st.stats.corrections += 1;
                            }
                            retired_val = Some(v);
                            write_def(&mut st.rf, &mut st.ready, v, insn.latency)
                        }
                        Err(e) => finish!(StopReason::Exception(e), issue + 1),
                    },
                    op => match eval_pure(op, vals) {
                        Ok(v) => {
                            retired_val = Some(v);
                            write_def(&mut st.rf, &mut st.ready, v, insn.latency)
                        }
                        Err(e) => finish!(StopReason::Exception(e), issue + 1),
                    },
                }

                // ---- RBED digest accumulation + boundary check ----
                if let Some(rb) = st.rbed.as_deref_mut() {
                    if let Some(v) = retired_val {
                        rb.acc.write_u64_round(val_word(v));
                    }
                    if rb.next < rb.plan.bounds.len()
                        && st.stats.dyn_insns == rb.plan.bounds[rb.next]
                    {
                        let d = rb.acc.finish();
                        if rb.plan.is_check() {
                            if d != rb.plan.digests[rb.next] {
                                detect_fired = true;
                            }
                        } else {
                            rb.recorded.push(d);
                        }
                        rb.next += 1;
                    }
                }

                // ---- fault injection after writeback ----
                if let Some(inj) = inj {
                    if !st.injected && st.stats.dyn_insns >= inj.at_dyn_insn {
                        let victim = match inj.target {
                            Some(r) => Some(r),
                            None => insn.def,
                        };
                        if let Some(d) = victim {
                            let flipped = inj.flip(st.rf.get(d), d.class.bits());
                            st.rf.set(d, flipped);
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
            // RBED truncation detection: a halt with boundaries still
            // unconsumed means the run retired fewer instructions than
            // the golden run — report it instead of trusting the
            // (truncated) output.
            if let Some(rb) = st.rbed.as_deref() {
                if rb.plan.is_check() && rb.next < rb.plan.bounds.len() {
                    finish!(StopReason::Detected, st.cycle);
                }
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

/// Run `sp`, already decoded as `dp`, from power-on to its stop —
/// the whole-run entry the campaign engines use so one decode serves
/// every run of a campaign.
pub(crate) fn run_decoded(
    sp: &ScheduledProgram,
    dp: &DecodedProgram,
    opts: &SimOptions,
    flush_metrics: bool,
) -> SimResult {
    let mut st = MachineState::fresh(sp);
    run_machine(dp, opts, &mut st, flush_metrics, &mut |_| Boundary::Continue)
        .expect("no boundary hook can stop this run")
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
    use casted_ir::{CmpKind, FunctionBuilder, MachineConfig, Module};
    use crate::testutil::sequential;

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
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let r = simulate(&sp, &SimOptions::default());
        assert_eq!(r.stop, golden.stop);
        assert_eq!(r.stream, golden.stream);
        assert_eq!(r.stats.dyn_insns, golden.dyn_insns);
    }

    #[test]
    fn cycles_exceed_instruction_count_with_latencies() {
        let m = demo_module();
        let sp = sequential(&m, MachineConfig::itanium2_like(1, 1));
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
            &sequential(&m, MachineConfig::itanium2_like(1, 1)),
            &SimOptions::default(),
        );
        let perfect = simulate(
            &sequential(&m, MachineConfig::perfect_memory(1, 1)),
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
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
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
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
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
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
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
            let mut sp = sequential(&m, config);
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
        let sp = sequential(&m, MachineConfig::itanium2_like(1, 1));
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
        crate::testutil::sequential(&m, MachineConfig::perfect_memory(1, 1))
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

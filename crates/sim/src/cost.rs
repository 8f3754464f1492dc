//! Costing several schedules of one module in one run.
//!
//! CASTED chooses among candidate schedules of the *same* module by
//! their simulated cycles (`casted_passes::schedule`). The candidates
//! compute the same values, take the same branches and touch the same
//! addresses; only where each instruction issues differs, and with it
//! the timing. [`cost_schedules`] therefore runs the first schedule
//! once on the full machine (`run_machine`) and walks every other one
//! through the timing rules alone:
//!
//! * Before each bundle of the first schedule that loads, stores or
//!   votes, its boundary hook reads the words a walk cannot compute
//!   without values: each load's and store's address, and whether each
//!   vote's copies disagree. A bundle reads all its operands before it
//!   writes any, so these are the words the bundle uses. They are kept
//!   per instruction, so what a walk needs is bounded by one block
//!   visit, not by a trace. The hook wakes only at those bundles and at
//!   block entries: the decoded block tells how many instructions lie
//!   before each.
//! * When the first schedule enters a block, every other schedule
//!   walks its own bundles of the block just finished: the watchdog,
//!   the stall scan with the inter-cluster delay, each load's latency
//!   from the walk's own caches and MSHRs, and each result's ready
//!   time. These are the functions `run_machine` applies
//!   (`crate::machine`'s timing rules); the walk touches no value.
//!
//! A walk reads its schedule from a [`TimingView`], a fraction of a
//! decoded program's size, so the caller need not keep the schedules it
//! walks. The view copies the decode's stall lists, which hold only the
//! reads that schedule cannot prove ready, and each bundle's count of
//! proven cross-cluster reads, so a walk and `run_machine` scan the
//! same reads by one rule (see `crate::decode`). Each walk ends with
//! the `SimStats` that a full [`crate::simulate`] of its schedule under
//! the same bound gives, stop reason included:
//!
//! * A schedule past the bound times out while the others go on. The
//!   first schedule's run stops at its own watchdog, exactly where
//!   `simulate` stops; its counters are recorded there, and the same
//!   state runs on unbounded until every other schedule has stopped.
//! * A run that stops any other way than a halt (a trap, a fault-free
//!   detection, a block without successor) leaves the walks without
//!   the words of the block it stopped in, and which instruction traps
//!   first depends on each schedule's order. A walk still going then
//!   ends without a result, and its caller runs that schedule in full
//!   if it needs the counters. Costing only needs to know that such a
//!   target does not halt.
//!
//! Each costed schedule flushes the `sim.*` counters as its `simulate`
//! would (one `sim.runs` per schedule); one `sim.run_ns` span covers
//! the whole costing.

use casted_ir::interp::StopReason;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{BlockId, MachineConfig};

use crate::cache::CacheHierarchy;
use crate::decode::{DecodedProgram, Latencies, WordOp};
use crate::machine::{
    close_stats, issue_cycle, load_latency, mark_ready, past_watchdog, record_run_metrics,
    run_machine, MachineState, SimOptions,
};
use crate::stats::SimStats;

/// One schedule's costed fault-free run.
#[derive(Clone, Debug, PartialEq)]
pub struct Costed {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Its counters: those of a full `simulate` under the same bound.
    pub stats: SimStats,
}

impl Costed {
    /// The run's cycles if it halted, `None` for any other stop.
    pub fn halted_cycles(&self) -> Option<u64> {
        matches!(self.stop, StopReason::Halt(_)).then_some(self.stats.cycles)
    }
}

/// A schedule as a costing walk reads it: per bundle, the register
/// reads it cannot prove ready and its proven cross-cluster reads and,
/// per instruction, what the timing rules need. It is a
/// fraction of a decoded program's size and holds no module, so a
/// caller may drop the schedule once its view is built.
pub struct TimingView {
    config: MachineConfig,
    lat: Latencies,
    slots: usize,
    insns: usize,
    ops: Vec<TimedOp>,
    stalls: Vec<(u32, u8)>,
    /// `(ops, stalls)` of bundle `g` start at `bundles[g]` and end at
    /// `bundles[g + 1]`.
    bundles: Vec<(u32, u32)>,
    /// Per bundle, the cross-cluster reads its decode proved ready.
    proven_cross: Vec<u32>,
    /// Bundles `block_start[b]..block_start[b + 1]` are block `b`'s.
    block_start: Vec<u32>,
}

/// One instruction of a [`TimingView`].
#[derive(Clone, Copy)]
struct TimedOp {
    /// Its index into the value-dependent words (see [`Words`]).
    iid: u32,
    /// The defined register's slot, or `u32::MAX`.
    def: u32,
    latency: u32,
    cluster: u8,
    kind: Kind,
}

/// What a walk does with an instruction beyond counting it.
#[derive(Clone, Copy)]
enum Kind {
    Load,
    Store,
    Vote,
    Other,
}

impl TimingView {
    /// The view of `sp`.
    pub fn new(sp: &ScheduledProgram) -> Self {
        let dp = DecodedProgram::new(sp);
        let mut bundles = Vec::with_capacity(dp.bundles().len() + 1);
        let (mut ops, mut stalls) = (0u32, 0u32);
        for b in dp.bundles() {
            bundles.push((ops, stalls));
            ops += dp.ops(b).len() as u32;
            stalls += dp.stalls(b).len() as u32;
        }
        bundles.push((ops, stalls));
        let all = dp.bundles();
        TimingView {
            config: sp.config.clone(),
            lat: dp.lat,
            slots: dp.layout.len(),
            insns: sp.module.entry_fn().insns.len(),
            ops: all
                .iter()
                .flat_map(|b| dp.ops(b))
                .map(|op| TimedOp {
                    iid: op.iid.index() as u32,
                    def: op.def.unwrap_or(u32::MAX),
                    latency: op.latency,
                    cluster: op.cluster.0,
                    kind: match op.word_op {
                        WordOp::Load => Kind::Load,
                        WordOp::Store => Kind::Store,
                        WordOp::Vote => Kind::Vote,
                        _ => Kind::Other,
                    },
                })
                .collect(),
            stalls: all.iter().flat_map(|b| dp.stalls(b)).copied().collect(),
            bundles,
            proven_cross: all.iter().map(|b| b.proven_cross).collect(),
            block_start: dp.block_starts().to_vec(),
        }
    }
}

/// The fault-free runs, each bounded by the watchdog `max_cycles`, of
/// `first` and of the schedules `rest` views, all schedules of one
/// module: `first` on the full machine, the others walked through the
/// timing rules alone (see the module docs). Entry 0 is `first`'s and
/// entry `i` is `rest[i - 1]`'s.
///
/// An entry is `None` when `first`'s run stopped other than by a halt
/// or a timeout (a trap, a fault-free detection) before that walk
/// stopped: the walk cannot follow the block the run stopped in. Only
/// a full run of that schedule tells its stop and counters; costing
/// only needs to know that such a target does not halt.
pub fn cost_schedules(
    first: &ScheduledProgram,
    rest: &[TimingView],
    max_cycles: u64,
) -> Vec<Option<Costed>> {
    let insns = first.module.entry_fn().insns.len();
    assert!(
        rest.iter()
            .all(|v| v.insns == insns && v.block_start.len() == first.blocks.len() + 1),
        "cost_schedules: every schedule must schedule the same module"
    );
    let _run_span = casted_obs::span("sim.run_ns");
    let dp = DecodedProgram::new(first);
    let mut st = MachineState::fresh(first, &dp);
    let reachable_bytes = st.mem.len_words() as u64 * 8;
    let mut costing = Costing {
        walks: rest.iter().map(|v| Walk::new(v, reachable_bytes)).collect(),
        words: Words::new(&dp, insns),
        current: None,
        entered: u64::MAX,
        first_timeout: None,
        max_cycles,
    };
    let opts = SimOptions {
        max_cycles,
        ..SimOptions::default()
    };
    let mut run = run_machine(&dp, &opts, &mut st, false, &mut |st| costing.boundary(&dp, st));
    if let Some(timeout) = run.take_if(|r| r.stop == StopReason::Timeout) {
        // The first schedule stopped where `simulate` stops; the other
        // schedules still walking need the rest of its run.
        costing.first_timeout = Some(timeout.stats);
        if !costing.walks.iter().all(|w| w.stop.is_some()) {
            let unbounded = SimOptions::default();
            run = run_machine(&dp, &unbounded, &mut st, false, &mut |st| costing.boundary(&dp, st));
        }
    }

    let Costing {
        mut walks,
        words,
        first_timeout,
        ..
    } = costing;
    let head = match (run.as_ref(), first_timeout) {
        (_, Some(stats)) => Costed {
            stop: StopReason::Timeout,
            stats,
        },
        (Some(r), None) => Costed {
            stop: r.stop.clone(),
            stats: r.stats.clone(),
        },
        (None, None) => {
            unreachable!("the costing run stops only after the first schedule's timeout")
        }
    };
    if let Some(StopReason::Halt(code)) = run.as_ref().map(|r| &r.stop) {
        for w in &mut walks {
            w.block(st.block, &words.by_insn, max_cycles);
            w.stop_at(StopReason::Halt(*code));
        }
    }
    let costed: Vec<Option<Costed>> = std::iter::once(Some(head))
        .chain(walks.into_iter().map(Walk::into_costed))
        .collect();
    for c in costed.iter().flatten() {
        record_run_metrics(&c.stats);
    }
    costed
}

/// The first schedule's boundary hook and what it drives.
struct Costing<'a> {
    walks: Vec<Walk<'a>>,
    words: Words,
    /// The block the first schedule is executing.
    current: Option<BlockId>,
    /// The cycle of the last block entry walked: the run resumed after
    /// the first schedule's timeout wakes the hook at that boundary
    /// again.
    entered: u64,
    /// The first schedule's counters at its own watchdog, once past it.
    first_timeout: Option<SimStats>,
    max_cycles: u64,
}

impl Costing<'_> {
    /// At a block entry, walk the block just finished, and stop the run
    /// once the first schedule has timed out and every walk has
    /// stopped. Then read the words of the bundle about to issue, and
    /// wake at the next bundle with words to read or the next block
    /// entry.
    fn boundary(&mut self, dp: &DecodedProgram, st: &MachineState) -> Option<u64> {
        if st.bundle_idx == 0 && st.cycle != self.entered {
            self.entered = st.cycle;
            self.words.enter(st.block);
            if let Some(done) = self.current.replace(st.block) {
                for w in &mut self.walks {
                    w.block(done, &self.words.by_insn, self.max_cycles);
                }
            }
            if self.first_timeout.is_some() && self.walks.iter().all(|w| w.stop.is_some()) {
                return None;
            }
        }
        self.words.read(st);
        let next = self.words.next_bundle().unwrap_or(dp.block(st.block).len());
        Some(st.stats.dyn_insns + dp.ops_between(st.block, st.bundle_idx, next))
    }
}

/// The words a walk needs that only values decide, read by the first
/// schedule's hook: per instruction, a load's or store's address, or 1
/// when a vote's copies disagree (0 when they agree). A block visit
/// rewrites its own instructions' words, so they stay valid until the
/// walks have passed the block.
struct Words {
    /// `reads[block_start[b]..block_start[b + 1]]`: block `b`'s loads,
    /// stores and votes, in issue order.
    block_start: Vec<u32>,
    reads: Vec<Read>,
    /// The next read of the block being executed, and the block's end.
    next: usize,
    end: usize,
    /// The words, indexed by instruction.
    by_insn: Vec<u64>,
}

/// One load, store or vote of the first schedule.
struct Read {
    /// Its bundle's index within the block.
    bundle: u32,
    iid: u32,
    /// Operand slots: a memory access's base, or a vote's three copies.
    slots: [u32; 3],
    imm: i64,
    vote: bool,
}

impl Words {
    fn new(dp: &DecodedProgram, insns: usize) -> Self {
        let starts = dp.block_starts();
        let mut block_start = Vec::with_capacity(starts.len());
        let mut reads = Vec::new();
        for b in 0..starts.len() - 1 {
            block_start.push(reads.len() as u32);
            let bundles = &dp.bundles()[starts[b] as usize..starts[b + 1] as usize];
            for (k, bundle) in bundles.iter().enumerate() {
                let operands = dp.operands(bundle);
                for op in dp.ops(bundle) {
                    if !matches!(op.word_op, WordOp::Load | WordOp::Store | WordOp::Vote) {
                        continue;
                    }
                    let mut slots = [0; 3];
                    for (s, &o) in slots.iter_mut().zip(&operands[op.operand_range()]) {
                        *s = o;
                    }
                    reads.push(Read {
                        bundle: k as u32,
                        iid: op.iid.index() as u32,
                        slots,
                        imm: op.imm,
                        vote: op.word_op == WordOp::Vote,
                    });
                }
            }
        }
        block_start.push(reads.len() as u32);
        Words {
            block_start,
            reads,
            next: 0,
            end: 0,
            by_insn: vec![0; insns],
        }
    }

    /// The first schedule enters block `b`.
    #[inline]
    fn enter(&mut self, b: BlockId) {
        self.next = self.block_start[b.index()] as usize;
        self.end = self.block_start[b.index() + 1] as usize;
    }

    /// The bundle of the current block whose words come next, if any.
    fn next_bundle(&self) -> Option<usize> {
        self.reads[self.next..self.end].first().map(|r| r.bundle as usize)
    }

    /// Read the words of the bundle `st` is about to issue.
    #[inline]
    fn read(&mut self, st: &MachineState) {
        while let Some(r) = self.reads[self.next..self.end].first() {
            if r.bundle as usize != st.bundle_idx {
                return;
            }
            let w = |i: usize| st.regs[r.slots[i] as usize];
            self.by_insn[r.iid as usize] = if r.vote {
                !(w(0) == w(1) && w(0) == w(2)) as u64
            } else {
                (w(0) as i64).wrapping_add(r.imm) as u64
            };
            self.next += 1;
        }
    }
}

/// Another schedule's timing, advanced a block at a time.
struct Walk<'a> {
    view: &'a TimingView,
    ready: Vec<(u64, u8)>,
    cache: CacheHierarchy,
    mshr: Vec<u64>,
    cycle: u64,
    /// Counters, but for the instruction counts: those follow from how
    /// often each bundle issued (`issued`) when the walk stops.
    stats: SimStats,
    issued: Vec<u64>,
    /// Set once the walk has stopped (its stats are then closed).
    stop: Option<StopReason>,
}

impl<'a> Walk<'a> {
    fn new(view: &'a TimingView, reachable_bytes: u64) -> Self {
        Walk {
            view,
            ready: vec![(0, 0); view.slots],
            cache: CacheHierarchy::new(&view.config, reachable_bytes),
            mshr: Vec::new(),
            cycle: 0,
            stats: SimStats {
                per_cluster: vec![0; view.config.clusters],
                ..SimStats::default()
            },
            issued: vec![0; view.bundles.len() - 1],
            stop: None,
        }
    }

    /// Walk this schedule's bundles of block `b`, whose value-dependent
    /// words are `words` (see [`Words`]).
    fn block(&mut self, b: BlockId, words: &[u64], max_cycles: u64) {
        if self.stop.is_some() {
            return;
        }
        let v = self.view;
        for g in v.block_start[b.index()] as usize..v.block_start[b.index() + 1] as usize {
            if past_watchdog(self.cycle, max_cycles) {
                self.stop_at(StopReason::Timeout);
                return;
            }
            let ((op_lo, stall_lo), (op_hi, stall_hi)) = (v.bundles[g], v.bundles[g + 1]);
            let stalls = &v.stalls[stall_lo as usize..stall_hi as usize];
            let issue = issue_cycle(
                stalls,
                v.proven_cross[g],
                v.lat.delay,
                &self.ready,
                self.cycle,
                &mut self.stats,
            );
            self.issued[g] += 1;
            for op in &v.ops[op_lo as usize..op_hi as usize] {
                let word = op.iid as usize;
                let latency = match op.kind {
                    Kind::Other => op.latency,
                    Kind::Load => {
                        load_latency(&v.lat, &mut self.cache, &mut self.mshr, words[word], issue)
                    }
                    Kind::Store => {
                        self.cache.access(words[word]);
                        op.latency
                    }
                    Kind::Vote => {
                        self.stats.corrections += words[word];
                        op.latency
                    }
                };
                // Only retiring operations define a register (the IR
                // verifier's rule), so every def is written.
                if op.def != u32::MAX {
                    mark_ready(&mut self.ready, op.def, issue, latency, op.cluster);
                }
            }
            self.cycle = issue + 1;
        }
    }

    /// Stop the walk here, unless it has stopped already.
    fn stop_at(&mut self, stop: StopReason) {
        if self.stop.is_some() {
            return;
        }
        let v = self.view;
        for (g, &n) in self.issued.iter().enumerate().filter(|&(_, &n)| n > 0) {
            for op in &v.ops[v.bundles[g].0 as usize..v.bundles[g + 1].0 as usize] {
                self.stats.dyn_insns += n;
                self.stats.per_cluster[op.cluster as usize] += n;
            }
        }
        close_stats(&mut self.stats, self.cycle, &self.cache);
        self.stop = Some(stop);
    }

    fn into_costed(self) -> Option<Costed> {
        Some(Costed {
            stop: self.stop?,
            stats: self.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::simulate;
    use crate::testutil::looping_module;
    use casted_ir::{FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    fn config() -> MachineConfig {
        MachineConfig::itanium2_like(2, 2)
    }

    /// Two schedules of `m` with different timing: one instruction per
    /// bundle, and packed two wide.
    fn schedules(m: &Module) -> (ScheduledProgram, ScheduledProgram) {
        (
            ScheduledProgram::sequential(m, config()),
            ScheduledProgram::packed(m, config(), 2),
        )
    }

    /// `cost_schedules` over `schedules`, the first run in full.
    fn cost(schedules: &[&ScheduledProgram], max_cycles: u64) -> Vec<Option<Costed>> {
        let views: Vec<TimingView> = schedules[1..]
            .iter()
            .map(|sp| TimingView::new(sp))
            .collect();
        let costed = cost_schedules(schedules[0], &views, max_cycles);
        assert_eq!(costed.len(), schedules.len());
        costed
    }

    /// `cost_schedules` costs every schedule, each as one bounded
    /// `simulate` does.
    fn assert_costs_match(schedules: &[&ScheduledProgram], max_cycles: u64) -> Vec<Costed> {
        let opts = SimOptions {
            max_cycles,
            ..SimOptions::default()
        };
        let costed = cost(schedules, max_cycles);
        schedules
            .iter()
            .zip(costed)
            .enumerate()
            .map(|(i, (sp, c))| {
                let c = c.unwrap_or_else(|| panic!("schedule {i} was not costed"));
                let full = simulate(sp, &opts);
                assert_eq!(
                    (&c.stop, &c.stats),
                    (&full.stop, &full.stats),
                    "schedule {i}"
                );
                c
            })
            .collect()
    }

    #[test]
    fn walks_equal_full_runs() {
        let m = looping_module(40);
        let (seq, packed) = schedules(&m);
        let costed = assert_costs_match(&[&seq, &packed, &seq], u64::MAX);
        assert!(costed.iter().all(|c| c.halted_cycles().is_some()));
        assert!(
            costed[1].stats.cycles < costed[0].stats.cycles,
            "packing must save cycles"
        );
        assert!(
            costed[0].stats.cache.accesses > 0,
            "the loads reach the walks' caches"
        );
    }

    #[test]
    fn a_walk_counts_the_votes_the_full_run_corrects() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let (x, y, z) = (b.imm(1), b.imm(1), b.imm(2));
        let v = b.binop(Opcode::Add, Operand::Reg(x), Operand::Imm(0));
        b.push(
            Opcode::Vote,
            vec![v],
            vec![Operand::Reg(x), Operand::Reg(y), Operand::Reg(z)],
        );
        b.out(Operand::Reg(v));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let (seq, packed) = schedules(&m);
        let costed = assert_costs_match(&[&seq, &packed], u64::MAX);
        assert_eq!(costed[1].stats.corrections, 1);
    }

    #[test]
    fn a_halting_bundle_may_cross_the_bound() {
        // The watchdog is checked before each bundle, not at the halt:
        // a run whose last bundle issues within the bound halts even
        // though its cycles end past it.
        let m = looping_module(20);
        let (seq, _) = schedules(&m);
        let cycles = simulate(&seq, &SimOptions::default()).stats.cycles;
        let costed = assert_costs_match(&[&seq, &seq], cycles - 1);
        for c in &costed {
            assert_eq!(c.halted_cycles(), Some(cycles));
        }
    }

    #[test]
    fn the_first_schedule_times_out_while_another_halts() {
        let m = looping_module(40);
        let (seq, packed) = schedules(&m);
        let fast = simulate(&packed, &SimOptions::default()).stats.cycles;
        let costed = assert_costs_match(&[&seq, &packed], fast);
        assert_eq!(costed[0].stop, StopReason::Timeout);
        assert_eq!(costed[1].halted_cycles(), Some(fast));
    }

    #[test]
    fn trapping_and_non_halting_targets_halt_in_no_schedule() {
        // A load far past the globals traps.
        let mut trap = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let a = b.imm(1 << 30);
        let v = b.load(a, 0);
        b.out(Operand::Reg(v));
        b.halt_imm(0);
        let id = trap.add_function(b.finish());
        trap.entry = Some(id);
        // A loop with no exit.
        let mut spin = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("spin");
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        b.br(body);
        let id = spin.add_function(b.finish());
        spin.entry = Some(id);
        // The loop times out in every schedule, each at its own cycle.
        let (seq, packed) = schedules(&spin);
        let costed = assert_costs_match(&[&seq, &packed, &seq], 10_000);
        assert!(costed.iter().all(|c| c.stop == StopReason::Timeout));
        // The trap ends the first schedule's run before any walk has
        // left the entry block: only the first schedule is costed.
        let (seq, packed) = schedules(&trap);
        let costed = cost(&[&seq, &packed, &seq], 10_000);
        let full = simulate(&seq, &SimOptions::default());
        assert!(matches!(full.stop, StopReason::Exception(_)));
        let head = costed[0]
            .as_ref()
            .expect("the first schedule is always costed");
        assert_eq!((&head.stop, &head.stats), (&full.stop, &full.stats));
        assert!(costed[1..].iter().all(Option::is_none));
    }
}

//! Unified cluster assignment + VLIW list scheduling.
//!
//! One engine drives all four evaluated schemes:
//!
//! * **Fixed placement** ([`Placement::AllOn`] / [`Placement::ByStream`])
//!   reproduces NOED & SCED (everything on cluster 0) and DCED
//!   (original stream on cluster 0, redundant stream on cluster 1).
//!   Scheduling is a classic critical-path list scheduler over the
//!   block DFG with a per-(cluster, cycle) reservation table.
//! * **Adaptive placement** ([`Placement::Adaptive`]) is the paper's
//!   Algorithm 2, Bottom-Up-Greedy (BUG, after Ellis' Bulldog): visit
//!   the DFG "in topological order, giving preference to the critical
//!   path", compute the *completion cycle* of the instruction on every
//!   cluster — operand ready times plus the inter-cluster delay for
//!   operands homed on the other cluster, constrained by reservation-
//!   table slot availability — and assign the instruction to the
//!   cluster where it finishes earliest.
//!
//! The completion-cycle heuristic is both *resource aware* (it searches
//! for a free issue slot) and *delay aware* (it charges
//! `inter_cluster_delay` on cross-cluster data edges), which is exactly
//! what lets CASTED degrade to SCED-like placement when the delay is
//! large and to DCED-like placement when cores are narrow.

use std::collections::HashMap;

use casted_ir::dfg::{BlockDfg, DepKind};
use casted_ir::vliw::{Bundle, ScheduledBlock, ScheduledProgram};
use casted_ir::{Cluster, InsnId, MachineConfig, Module, Provenance, Reg};
use casted_sim::DEFAULT_MAX_CYCLES;

/// Cluster-placement policy for the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Every instruction on one cluster (NOED, SCED).
    AllOn(Cluster),
    /// DCED: instructions of the redundant stream (duplicates, checks,
    /// isolation copies) on [`Cluster::REDUNDANT`]; everything else —
    /// original code and the non-replicated instructions — on
    /// [`Cluster::MAIN`].
    ByStream,
    /// CASTED: Bottom-Up-Greedy adaptive assignment (Algorithm 2).
    Adaptive,
    /// Ablation: adaptive assignment, but the check instructions are
    /// pinned to the redundant cluster (as a DCED-style scheme would).
    /// The paper stresses that in CASTED "not only the replicated
    /// instructions but also the check instructions are moved across
    /// cores"; this variant measures what that freedom is worth.
    AdaptivePinnedChecks,
}

impl Placement {
    /// The fixed cluster for `prov` under this policy, or `None` when
    /// the choice is adaptive.
    fn fixed_cluster(self, prov: Provenance) -> Option<Cluster> {
        match self {
            Placement::AllOn(c) => Some(c),
            Placement::ByStream => Some(if prov.is_redundant_stream() {
                Cluster::REDUNDANT
            } else {
                Cluster::MAIN
            }),
            Placement::Adaptive => None,
            Placement::AdaptivePinnedChecks => {
                if matches!(prov, Provenance::CheckCmp | Provenance::CheckBr) {
                    Some(Cluster::REDUNDANT)
                } else {
                    None
                }
            }
        }
    }

    /// True for the BUG-driven variants.
    pub fn is_adaptive(self) -> bool {
        matches!(self, Placement::Adaptive | Placement::AdaptivePinnedChecks)
    }
}

/// Per-cluster issue reservation table for one block.
struct Reservation {
    used: Vec<Vec<u32>>, // [cluster][cycle] = issued count
    width: u32,
}

impl Reservation {
    fn new(clusters: usize, width: usize) -> Self {
        Reservation {
            used: vec![Vec::new(); clusters],
            width: width as u32,
        }
    }

    /// First cycle >= `from` with a free slot on `c`.
    fn first_free(&mut self, c: Cluster, from: u32) -> u32 {
        let lane = &mut self.used[c.index()];
        let mut t = from as usize;
        loop {
            if t >= lane.len() {
                lane.resize(t + 1, 0);
            }
            if lane[t] < self.width {
                return t as u32;
            }
            t += 1;
        }
    }

    fn reserve(&mut self, c: Cluster, cycle: u32) {
        let lane = &mut self.used[c.index()];
        if cycle as usize >= lane.len() {
            lane.resize(cycle as usize + 1, 0);
        }
        lane[cycle as usize] += 1;
        debug_assert!(lane[cycle as usize] <= self.width);
    }
}

/// Cross-block placement hints harvested from a previous scheduling
/// pass: the (frequency-weighted) majority writer and reader cluster of
/// each virtual register. A greedy per-block pass cannot see that a
/// cheap split decision in a cold block anchors a loop-carried value on
/// the wrong cluster; feeding the previous pass's global view back in
/// fixes exactly that.
#[derive(Clone, Debug, Default)]
struct Hints {
    writer: HashMap<Reg, Cluster>,
    reader: HashMap<Reg, Cluster>,
}

/// Harvest [`Hints`] from a scheduled program, weighting each access by
/// the block's static frequency estimate.
fn collect_hints(sp: &ScheduledProgram, freq: &[u64]) -> Hints {
    let func = sp.module.entry_fn();
    let clusters = sp.config.clusters;
    let mut wr: HashMap<Reg, Vec<u64>> = HashMap::new();
    let mut rd: HashMap<Reg, Vec<u64>> = HashMap::new();
    for sb in &sp.blocks {
        let w = freq[sb.block.index()].max(1);
        for bundle in &sb.bundles {
            for (cluster, iid) in bundle.iter() {
                let ci = cluster.index();
                let insn = func.insn(iid);
                for r in insn.reg_uses() {
                    rd.entry(r).or_insert_with(|| vec![0; clusters])[ci] += w;
                }
                for &d in &insn.defs {
                    wr.entry(d).or_insert_with(|| vec![0; clusters])[ci] += w;
                }
            }
        }
    }
    let majority = |m: HashMap<Reg, Vec<u64>>| {
        m.into_iter()
            .map(|(r, counts)| {
                let best = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                (r, Cluster(best as u8))
            })
            .collect()
    };
    Hints {
        writer: majority(wr),
        reader: majority(rd),
    }
}

/// Frequency-weighted static cost of a schedule: the loop-depth
/// estimate stands in for a profile.
fn weighted_cost(sp: &ScheduledProgram, freq: &[u64]) -> u64 {
    sp.blocks
        .iter()
        .map(|sb| sb.length() as u64 * freq[sb.block.index()].max(1))
        .sum()
}

/// Schedule the entry function of `module` under `placement`,
/// producing a simulator-ready [`ScheduledProgram`].
///
/// Fixed placements (NOED/SCED/DCED) schedule in one pass. The
/// adaptive placements (CASTED's BUG, and TMRED's) choose among
/// [`candidates`] by their cycles on the timing model. All of them are
/// costed in one run (`casted_sim::cost_schedules`, bounded by
/// [`DEFAULT_MAX_CYCLES`]): the first on the full simulator, the rest
/// by a timing-only walk. A candidate that does not halt within the
/// bound costs its frequency-weighted static length. The first
/// candidate of least cost wins. Only the first candidate is kept
/// whole while the others are costed: each of those is kept as its
/// timing view and the placement and hints that schedule it, and the
/// winner, if not the first, is scheduled again from them.
pub fn schedule_function(
    module: &Module,
    config: &MachineConfig,
    placement: Placement,
) -> ScheduledProgram {
    let freq = casted_ir::cfg::frequency_estimate(module.entry_fn());
    let mut rest: Vec<(Recipe, u64)> = Vec::new();
    let mut views = Vec::new();
    let first = candidate_list(module, config, placement, &freq, |recipe, sp| {
        rest.push((recipe, weighted_cost(sp, &freq)));
        views.push(casted_sim::TimingView::new(sp));
    });
    if rest.is_empty() {
        return first;
    }
    let costed = casted_sim::cost_schedules(&first, &views, DEFAULT_MAX_CYCLES);
    drop(views);
    let fallbacks = std::iter::once(weighted_cost(&first, &freq)).chain(rest.iter().map(|r| r.1));
    let costs = costed.into_iter().zip(fallbacks).enumerate().map(|(i, (c, fallback))| {
        let halted = match c {
            Some(c) => c.halted_cycles(),
            // A walk the costing run could not follow (its target
            // traps) is simulated in full, so the `sim.*` counters
            // stay those of one run per candidate.
            None => {
                let opts = casted_sim::SimOptions {
                    max_cycles: DEFAULT_MAX_CYCLES,
                    ..casted_sim::SimOptions::default()
                };
                let r = casted_sim::simulate(&rest[i - 1].0.schedule(module, config), &opts);
                matches!(r.stop, casted_ir::interp::StopReason::Halt(_)).then_some(r.stats.cycles)
            }
        };
        halted.unwrap_or(fallback)
    });
    // `min_by_key` keeps the first of equal minima.
    let (best, _) = costs.enumerate().min_by_key(|&(_, cost)| cost).expect("a first candidate");
    match best {
        0 => first,
        i => {
            drop(first);
            rest[i - 1].0.schedule(module, config)
        }
    }
}

/// The candidate schedules [`schedule_function`] chooses among, in the
/// order it compares them. A fixed placement has one. An adaptive one
/// starts from a pass without [`Hints`], then runs up to two more, each
/// fed the previous candidate's global register-placement view; it
/// stops early once a pass reproduces its predecessor exactly, since
/// every later pass would repeat it too. Costs never steer this list.
///
/// The paper (§II-A): "CASTED uses these parameters to decide whether
/// it is preferable to assign the whole error detection code in one
/// core or it is more efficient to split the code into different
/// cores." So for [`Placement::Adaptive`] the whole-program-on-one-
/// cluster placement comes last; at wide issue / high delay it wins
/// and CASTED adapts to the SCED-like layout. (The pinned-checks
/// ablation leaves it out: its whole point is the placement
/// constraint.)
pub fn candidates(
    module: &Module,
    config: &MachineConfig,
    placement: Placement,
) -> Vec<ScheduledProgram> {
    let freq = casted_ir::cfg::frequency_estimate(module.entry_fn());
    let mut rest = Vec::new();
    let first = candidate_list(module, config, placement, &freq, |_, sp| rest.push(sp.clone()));
    std::iter::once(first).chain(rest).collect()
}

/// How to schedule one candidate again: its placement and the hints it
/// was scheduled from ([`schedule_once`] is a function of these).
struct Recipe {
    placement: Placement,
    hints: Hints,
}

impl Recipe {
    fn schedule(&self, module: &Module, config: &MachineConfig) -> ScheduledProgram {
        schedule_once(module, config, self.placement, &self.hints)
    }
}

/// Schedule [`candidates`] in order: return the first, and hand every
/// later one to `visit` with its [`Recipe`].
fn candidate_list(
    module: &Module,
    config: &MachineConfig,
    placement: Placement,
    freq: &[u64],
    mut visit: impl FnMut(Recipe, &ScheduledProgram),
) -> ScheduledProgram {
    let first = schedule_once(module, config, placement, &Hints::default());
    if !placement.is_adaptive() {
        return first;
    }
    let mut prev: Option<ScheduledProgram> = None;
    for _ in 0..2 {
        let last = prev.as_ref().unwrap_or(&first);
        let recipe = Recipe {
            placement,
            hints: collect_hints(last, freq),
        };
        let cand = recipe.schedule(module, config);
        if same_schedule(&cand, last) {
            break;
        }
        visit(recipe, &cand);
        prev = Some(cand);
    }
    drop(prev);
    if placement == Placement::Adaptive {
        let recipe = Recipe {
            placement: Placement::AllOn(Cluster::MAIN),
            hints: Hints::default(),
        };
        let single = recipe.schedule(module, config);
        visit(recipe, &single);
    }
    first
}

/// Two schedules of the same module place and bundle every
/// instruction identically.
fn same_schedule(a: &ScheduledProgram, b: &ScheduledProgram) -> bool {
    a.assignment == b.assignment && a.home == b.home && a.blocks == b.blocks
}

fn schedule_once(
    module: &Module,
    config: &MachineConfig,
    placement: Placement,
    hints: &Hints,
) -> ScheduledProgram {
    let func = module.entry_fn();
    let mut assignment: Vec<Option<Cluster>> = vec![None; func.insns.len()];
    // First-definition cluster: decides which physical register file
    // the value occupies (pressure accounting / regalloc).
    let mut home: HashMap<Reg, Cluster> = HashMap::new();
    // Most recent definition cluster in layout order: estimates which
    // cluster holds the live value at block boundaries (the simulator
    // charges the inter-cluster delay relative to the writer).
    let mut last_writer: HashMap<Reg, Cluster> = HashMap::new();
    let mut blocks: Vec<ScheduledBlock> = Vec::with_capacity(func.blocks.len());

    for (bid, _) in func.iter_blocks() {
        let dfg = BlockDfg::build(func, bid, &config.latency);
        let n = dfg.len();
        let mut res = Reservation::new(config.clusters, config.issue_width);
        let mut cycle_of: Vec<Option<u32>> = vec![None; n];
        let mut cluster_of: Vec<Cluster> = vec![Cluster::MAIN; n];
        let mut unsched_preds: Vec<usize> = dfg.preds.iter().map(|p| p.len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| unsched_preds[i] == 0).collect();
        let mut done = 0usize;
        let mut scheduled = vec![false; n];
        // Finite scheduling window (in program-order positions past the
        // first unscheduled instruction). Real back-end schedulers bound
        // their lookahead; an unbounded window would hoist far-future
        // independent instructions into idle issue slots and inflate
        // register pressure without bound, defeating the spiller.
        const SCHED_WINDOW: usize = 40;
        let mut frontier = 0usize;
        // Hoist bound in *cycles*: an instruction may not issue more
        // than this far before the current schedule tail. Without it a
        // value feeding a long serial chain gets parked in an idle slot
        // arbitrarily early, stretching its live range so far that no
        // amount of spilling can satisfy the register file.
        const HOIST_WINDOW: u32 = 32;
        let mut tail: u32 = 0;

        // Registers defined earlier within this block (their cross
        // penalty is handled through data edges, not the home map).
        let mut defined_in_block: std::collections::HashSet<Reg> = std::collections::HashSet::new();

        while done < n {
            while frontier < n && scheduled[frontier] {
                frontier += 1;
            }
            // Pick the ready node with the greatest critical-path
            // height (ties: program order) — BUG's visit order —
            // among nodes within the scheduling window. The first
            // unscheduled node always qualifies (its predecessors all
            // precede it in program order and are scheduled), so
            // progress is guaranteed.
            let (k, &node) = ready
                .iter()
                .enumerate()
                .filter(|(_, &i)| i < frontier + SCHED_WINDOW)
                .max_by(|(_, &a), (_, &b)| {
                    dfg.height[a]
                        .cmp(&dfg.height[b])
                        .then(b.cmp(&a)) // lower index wins ties
                })
                .expect("scheduler: no ready node in window");
            ready.swap_remove(k);
            scheduled[node] = true;

            let insn = func.insn(dfg.nodes[node]);
            let candidates: Vec<Cluster> = match placement.fixed_cluster(insn.prov) {
                Some(c) => vec![c],
                None => config.cluster_ids().collect(),
            };

            // Completion-cycle heuristic per candidate cluster:
            // (penalized completion, cross reads, cluster) is the
            // comparison key; the raw issue cycle rides along for the
            // reservation.
            let mut best: Option<((u32, u32, Cluster), u32)> = None;
            for c in candidates {
                let mut earliest = tail.saturating_sub(HOIST_WINDOW);
                let mut cross_reads = 0u32;
                for e in &dfg.preds[node] {
                    let p = e.to;
                    let pc = cycle_of[p].expect("pred not scheduled");
                    let mut t = pc + e.weight;
                    if let DepKind::Data(_) = e.kind {
                        if cluster_of[p] != c {
                            t += config.inter_cluster_delay;
                            cross_reads += 1;
                        }
                    }
                    earliest = earliest.max(t);
                }
                // Live-in operands: value sits in its home register
                // file since block entry; a remote read is available
                // `delay` cycles into the block.
                for r in insn.reg_uses() {
                    if !defined_in_block.contains(&r) {
                        let est = last_writer.get(&r).or_else(|| hints.writer.get(&r));
                        if let Some(&h) = est {
                            if h != c {
                                earliest = earliest.max(config.inter_cluster_delay);
                                cross_reads += 1;
                            }
                        }
                    }
                }
                // A definition whose register already has a home on the
                // other cluster must travel back there (loop-carried
                // values: the next iteration reads it from the home
                // file) — charge that on the completion cycle.
                let mut def_penalty = 0u32;
                for &d in &insn.defs {
                    // Prefer placing a value where its readers are (the
                    // previous pass's global view), falling back to
                    // keeping multi-definition registers (loop-carried
                    // variables) on a stable cluster.
                    let pref = hints.reader.get(&d).or_else(|| last_writer.get(&d));
                    if let Some(&h) = pref {
                        if h != c {
                            def_penalty = config.inter_cluster_delay;
                        }
                    }
                }
                let t = res.first_free(c, earliest);
                // Key: penalized completion, then fewer cross-cluster
                // reads, then the lower cluster (the candidates are
                // distinct clusters, so the cluster settles every tie).
                // Preferring the lower cluster when completion and
                // cross reads tie makes the adaptive placement
                // degenerate to the single-cluster (SCED-like) layout
                // when spreading buys nothing — splitting only happens
                // when it actually improves the completion cycle.
                let key = (t + def_penalty, cross_reads, c);
                if best.map(|(bk, _)| key < bk).unwrap_or(true) {
                    best = Some((key, t));
                }
            }
            let ((_, _, c), t) = best.expect("no candidate cluster");
            res.reserve(c, t);
            tail = tail.max(t);
            cycle_of[node] = Some(t);
            cluster_of[node] = c;
            assignment[dfg.nodes[node].index()] = Some(c);
            for &d in &func.insn(dfg.nodes[node]).defs {
                home.entry(d).or_insert(c);
                last_writer.insert(d, c);
                defined_in_block.insert(d);
            }
            done += 1;
            for e in &dfg.succs[node] {
                unsched_preds[e.to] -= 1;
                if unsched_preds[e.to] == 0 {
                    ready.push(e.to);
                }
            }
        }

        // Materialize dense bundles.
        let len = cycle_of
            .iter()
            .map(|c| c.unwrap() + 1)
            .max()
            .unwrap_or(0) as usize;
        let mut bundles: Vec<Bundle> = (0..len).map(|_| Bundle::empty(config.clusters)).collect();
        // Program order within a lane for determinism.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (cycle_of[i].unwrap(), i));
        for i in order {
            bundles[cycle_of[i].unwrap() as usize].slots[cluster_of[i].index()]
                .push(dfg.nodes[i]);
        }
        blocks.push(ScheduledBlock {
            block: bid,
            bundles,
        });
    }

    let sp = ScheduledProgram {
        module: module.clone(),
        config: config.clone(),
        assignment,
        home,
        blocks,
    };
    debug_assert!(
        sp.validate().is_ok(),
        "scheduler produced invalid schedule: {:?}",
        sp.validate().err()
    );
    sp
}

/// Convenience: sum of static schedule lengths weighted by a profile of
/// block execution counts. Used by tests and by BUG-quality
/// diagnostics; the real dynamic number comes from the simulator.
pub fn weighted_static_cycles(sp: &ScheduledProgram, counts: &HashMap<InsnId, u64>) -> u64 {
    let func = sp.module.entry_fn();
    let mut total = 0u64;
    for sb in &sp.blocks {
        // Execution count of a block = count of its terminator.
        let cnt = func
            .terminator(sb.block)
            .and_then(|t| counts.get(&t).copied())
            .unwrap_or(0);
        total += cnt * sb.length() as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::{FunctionBuilder, Opcode, Operand};

    /// A chain of dependent adds plus an independent chain: enough ILP
    /// for 2 clusters to beat 1 narrow one.
    fn two_chain_module(len: usize) -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let mut a = b.imm(1);
        let mut c = b.imm(2);
        for _ in 0..len {
            a = b.binop(Opcode::Add, Operand::Reg(a), Operand::Imm(1));
            c = b.binop(Opcode::Add, Operand::Reg(c), Operand::Imm(1));
        }
        b.out(Operand::Reg(a));
        b.out(Operand::Reg(c));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    #[test]
    fn all_on_one_cluster_respects_width() {
        let m = two_chain_module(8);
        let cfg = MachineConfig::perfect_memory(1, 1);
        let sp = schedule_function(&m, &cfg, Placement::AllOn(Cluster::MAIN));
        sp.validate().unwrap();
        assert_eq!(sp.cluster_occupancy()[1], 0);
        // 1-wide: schedule length == instruction count.
        assert_eq!(sp.blocks[0].length(), m.entry_fn().static_size());
    }

    #[test]
    fn adaptive_uses_both_clusters_when_narrow() {
        let m = two_chain_module(8);
        let cfg = MachineConfig::perfect_memory(1, 1);
        let sp = schedule_function(&m, &cfg, Placement::Adaptive);
        sp.validate().unwrap();
        let occ = sp.cluster_occupancy();
        assert!(occ[0] > 0 && occ[1] > 0, "adaptive left a cluster idle: {occ:?}");
        // And it must be faster than the single-cluster schedule.
        let sced = schedule_function(&m, &cfg, Placement::AllOn(Cluster::MAIN));
        assert!(
            sp.blocks[0].length() < sced.blocks[0].length(),
            "adaptive {} !< single {}",
            sp.blocks[0].length(),
            sced.blocks[0].length()
        );
    }

    #[test]
    fn adaptive_prefers_one_cluster_when_delay_is_huge() {
        // With an enormous inter-cluster delay, splitting a dependent
        // chain across clusters is catastrophic; BUG must keep each
        // chain on one side.
        let m = two_chain_module(6);
        let cfg = MachineConfig::perfect_memory(2, 50);
        let sp = schedule_function(&m, &cfg, Placement::Adaptive);
        // Schedule must not be longer than the best single-cluster one.
        let sced = schedule_function(&m, &cfg, Placement::AllOn(Cluster::MAIN));
        assert!(sp.blocks[0].length() <= sced.blocks[0].length());
        // No data edge of a chain should cross clusters: cheap proxy —
        // static length far below the cross-cluster worst case.
        assert!(sp.blocks[0].length() < 30);
    }

    #[test]
    fn by_stream_pins_redundant_code_to_cluster_one() {
        let mut m = two_chain_module(3);
        crate::errordetect::error_detection(&mut m);
        let cfg = MachineConfig::perfect_memory(2, 1);
        let sp = schedule_function(&m, &cfg, Placement::ByStream);
        sp.validate().unwrap();
        let f = sp.module.entry_fn();
        for (_, block) in f.iter_blocks() {
            for &iid in &block.insns {
                let insn = f.insn(iid);
                let c = sp.cluster_of(iid).unwrap();
                if insn.prov.is_redundant_stream() {
                    assert_eq!(c, Cluster::REDUNDANT, "redundant insn on main cluster");
                } else {
                    assert_eq!(c, Cluster::MAIN, "original insn on redundant cluster");
                }
            }
        }
    }

    #[test]
    fn terminator_is_last_and_data_edges_are_respected() {
        let m = two_chain_module(4);
        let cfg = MachineConfig::perfect_memory(2, 2);
        for p in [
            Placement::AllOn(Cluster::MAIN),
            Placement::ByStream,
            Placement::Adaptive,
        ] {
            let sp = schedule_function(&m, &cfg, p);
            sp.validate().unwrap();
        }
    }

    #[test]
    fn wider_issue_never_hurts() {
        let mut m = two_chain_module(10);
        crate::errordetect::error_detection(&mut m);
        let mut prev = u32::MAX;
        for w in 1..=4 {
            let cfg = MachineConfig::perfect_memory(w, 1);
            let sp = schedule_function(&m, &cfg, Placement::Adaptive);
            let len = sp.blocks[0].length() as u32;
            assert!(len <= prev, "issue {w} lengthened the schedule");
            prev = len;
        }
    }

    #[test]
    fn weighted_static_cycles_uses_profile() {
        let m = two_chain_module(2);
        let cfg = MachineConfig::perfect_memory(1, 1);
        let sp = schedule_function(&m, &cfg, Placement::AllOn(Cluster::MAIN));
        let f = sp.module.entry_fn();
        let term = f.terminator(f.entry).unwrap();
        let mut counts = HashMap::new();
        counts.insert(term, 5u64);
        assert_eq!(
            weighted_static_cycles(&sp, &counts),
            5 * sp.blocks[0].length() as u64
        );
    }

    #[test]
    fn a_trapping_target_costs_every_candidate_statically() {
        // Two chains, then a load far past the globals: no candidate
        // halts, so the least frequency-weighted static length wins
        // (the first of equals), as if no candidate had been simulated.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let (mut a, mut c) = (b.imm(1), b.imm(2));
        for _ in 0..6 {
            a = b.binop(Opcode::Add, Operand::Reg(a), Operand::Imm(1));
            c = b.binop(Opcode::Add, Operand::Reg(c), Operand::Imm(1));
        }
        let wild = b.imm(1 << 30);
        let v = b.load(wild, 0);
        for r in [a, c, v] {
            b.out(Operand::Reg(r));
        }
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let cfg = MachineConfig::perfect_memory(1, 1);
        let cands = candidates(&m, &cfg, Placement::Adaptive);
        let freq = casted_ir::cfg::frequency_estimate(m.entry_fn());
        let (want, _) = cands
            .iter()
            .map(|sp| weighted_cost(sp, &freq))
            .enumerate()
            .min_by_key(|&(_, c)| c)
            .unwrap();
        let got = schedule_function(&m, &cfg, Placement::Adaptive);
        assert!(same_schedule(&got, &cands[want]));
    }

    #[test]
    fn home_cluster_is_cluster_of_first_def() {
        let m = two_chain_module(4);
        let cfg = MachineConfig::perfect_memory(1, 1);
        let sp = schedule_function(&m, &cfg, Placement::AllOn(Cluster::MAIN));
        for (&_r, &h) in sp.home.iter() {
            assert_eq!(h, Cluster::MAIN);
        }
    }
}

//! End-to-end back-end driver: scheme selection → error detection →
//! (spill ↔ schedule) fixed point → physical-register validation.
//!
//! This is the programmatic equivalent of the paper's Fig. 5: the
//! CASTED passes sit in the back end just before instruction
//! scheduling; here they run as a library pipeline over a module
//! produced by the MiniC front end.

use casted_ir::vliw::ScheduledProgram;
use casted_ir::{MachineConfig, Module};

use crate::errordetect::{EdOptions, EdStats};
use crate::physreg::{assign_physical, PhysAssignment};
use crate::schedule::{schedule_function, Placement};
use crate::schemes::Transform;
use crate::spill::{choose_spills, intervals, spill_register};

/// The evaluated code-generation schemes: the paper's four plus the
/// recovery-capable extensions (TMR majority voting, replay-based
/// detection). Per-scheme metadata lives in the registry
/// (`crate::schemes`); the methods here are thin views of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No error detection; unmodified code on a single cluster. The
    /// normalization baseline of Figs. 6–8.
    Noed,
    /// Single-Core Error Detection: original + redundant code
    /// interleaved on one cluster (SWIFT-style placement).
    Sced,
    /// Dual-Core Error Detection: original code pinned to cluster 0,
    /// redundant code pinned to cluster 1 (SRMT/DAFT-style placement).
    Dced,
    /// Core-Adaptive (the paper's contribution): error-detection code
    /// placed by the BUG completion-cycle heuristic.
    Casted,
    /// Triple-Modular-Redundant Error Detection (ELZAR-style): two
    /// redundant streams plus majority `vote` instructions at every
    /// check site, so single-lane strikes are *corrected* in place
    /// (golden output preserved) instead of merely reported.
    Tmred,
    /// Replay-Based Error Detection (RepTFD-style): code untouched;
    /// fault campaigns accumulate a per-chunk digest of retired
    /// results and detect on divergence from the golden digests.
    Rbed,
}

impl Scheme {
    /// The paper's four schemes in presentation order (the figure
    /// grids of Figs. 6–9 iterate exactly these).
    pub const ALL: [Scheme; 4] = [Scheme::Noed, Scheme::Sced, Scheme::Dced, Scheme::Casted];

    /// Every production scheme, extensions included, in registry order.
    pub const FULL: [Scheme; 6] = [
        Scheme::Noed,
        Scheme::Sced,
        Scheme::Dced,
        Scheme::Casted,
        Scheme::Tmred,
        Scheme::Rbed,
    ];

    /// The paper schemes that carry error detection.
    pub const ED: [Scheme; 3] = [Scheme::Sced, Scheme::Dced, Scheme::Casted];

    /// Accepted `--scheme` spellings, for CLI usage strings.
    pub const ACCEPTED: &'static str = "noed|sced|dced|casted|tmred|rbed";

    /// Case-insensitive parse over registry names and aliases
    /// (`noed|none`, `sced|single`, `dced|dual`, `casted|adaptive`,
    /// `tmred|tmr`, `rbed|replay`).
    pub fn parse(input: &str) -> Result<Scheme, String> {
        crate::schemes::parse(input)
            .ok_or_else(|| format!("unknown scheme '{input}' (accepted: {})", Scheme::ACCEPTED))
    }

    /// The registry row describing this scheme.
    pub fn descriptor(self) -> &'static crate::schemes::SchemeDescriptor {
        crate::schemes::descriptor(self)
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }

    /// Whether a compile-time protection transform runs (and so
    /// whether [`Prepared::ed_stats`] is populated). RBED is
    /// deliberately `false`: its code is NOED-identical and detection
    /// happens at the fault-campaign layer.
    pub fn has_error_detection(self) -> bool {
        self.descriptor().transform != crate::schemes::Transform::None
    }

    /// Copies of each protected computation at runtime (1, 2 or 3).
    pub fn replication_factor(self) -> u8 {
        self.descriptor().replication_factor
    }

    /// Whether a detected single-lane strike is repaired in place
    /// (`Outcome::Corrected`) rather than merely reported.
    pub fn corrects(self) -> bool {
        self.descriptor().corrects
    }

    /// Whether fault campaigns must enable the replay-digest detector
    /// (`CampaignConfig::replay_detect`) for this scheme.
    pub fn replay_detect(self) -> bool {
        self.descriptor().replay_detect
    }

    /// The placement policy handed to the scheduler.
    pub fn placement(self) -> Placement {
        self.descriptor().placement
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Pipeline tuning knobs.
#[derive(Clone, Debug)]
pub struct PrepareOptions {
    /// Maximum spill→reschedule rounds before giving up.
    pub max_spill_rounds: usize,
    /// Run if-conversion before error detection (off by default: the
    /// recorded EXPERIMENTS.md numbers use the paper's plain pipeline;
    /// the `ablation` binary measures what this buys).
    pub if_convert: bool,
}

impl Default for PrepareOptions {
    fn default() -> Self {
        PrepareOptions {
            max_spill_rounds: 16,
            if_convert: false,
        }
    }
}

/// A fully prepared, simulator-ready program plus pass artifacts.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The scheduled program (owns the transformed module).
    pub sp: ScheduledProgram,
    /// Scheme that produced it.
    pub scheme: Scheme,
    /// Error-detection statistics (None for NOED).
    pub ed_stats: Option<EdStats>,
    /// Number of registers spilled to satisfy the register files.
    pub spilled: usize,
    /// Physical register assignment (proof the schedule fits the
    /// architectural files).
    pub phys: PhysAssignment,
}

/// Run the full back end on (a clone of) `module` for `scheme` on
/// machine `config`.
pub fn prepare(
    module: &Module,
    scheme: Scheme,
    config: &MachineConfig,
) -> Result<Prepared, String> {
    prepare_with(module, scheme, config, &PrepareOptions::default())
}

/// [`prepare`] with explicit options. Scheme-default behaviour: the
/// registry (`crate::schemes`) decides which protection transform
/// runs and which placement policy the scheduler gets.
pub fn prepare_with(
    module: &Module,
    scheme: Scheme,
    config: &MachineConfig,
    opts: &PrepareOptions,
) -> Result<Prepared, String> {
    let transform = scheme.descriptor().transform;
    let ed = EdOptions::default();
    prepare_transformed(module, scheme, transform, &ed, scheme.placement(), config, opts)
}

/// Fully custom pipeline entry for ablation studies: choose the
/// error-detection variant and the placement policy independently.
/// `scheme` is only a label carried into [`Prepared`].
pub fn prepare_custom(
    module: &Module,
    scheme: Scheme,
    ed: Option<EdOptions>,
    placement: Placement,
    config: &MachineConfig,
    opts: &PrepareOptions,
) -> Result<Prepared, String> {
    let transform = if ed.is_some() { Transform::DupCompare } else { Transform::None };
    let ed = ed.unwrap_or_default();
    prepare_transformed(module, scheme, transform, &ed, placement, config, opts)
}

/// The pipeline body shared by every scheme: optional if-conversion,
/// the protection transform, then the spill↔schedule fixed point and
/// physical-register validation.
fn prepare_transformed(
    module: &Module,
    scheme: Scheme,
    transform: Transform,
    ed: &EdOptions,
    placement: Placement,
    config: &MachineConfig,
    opts: &PrepareOptions,
) -> Result<Prepared, String> {
    let _t = casted_obs::span("passes.prepare_ns");
    let mut m = module.clone();
    if opts.if_convert {
        crate::ifconvert::if_convert(&mut m);
    }
    let ed_stats = transform.apply(&mut m, ed);

    let (sp, spilled) = schedule_with_spills(m, config, placement, opts.max_spill_rounds)?;

    let phys = assign_physical(&sp)?;
    record_prepare_metrics(scheme, &ed_stats, spilled, &sp);
    Ok(Prepared {
        sp,
        scheme,
        ed_stats,
        spilled,
        phys,
    })
}

/// The spill↔schedule fixed point: schedule `m`, spill every register
/// `choose_spills` picks, and reschedule, until a schedule needs no
/// spill. Returns that schedule and the number of registers spilled,
/// or an error past `max_spill_rounds` spill rounds.
pub(crate) fn schedule_with_spills(
    mut m: Module,
    config: &MachineConfig,
    placement: Placement,
    max_spill_rounds: usize,
) -> Result<(ScheduledProgram, usize), String> {
    let mut spilled = 0usize;
    let mut rounds = 0usize;
    loop {
        let sp = schedule_function(&m, config, placement);
        let picks = choose_spills(&sp, &intervals(&sp));
        if picks.is_empty() {
            return Ok((sp, spilled));
        }
        rounds += 1;
        if rounds > max_spill_rounds {
            return Err(format!(
                "register pressure not reducible after {max_spill_rounds} spill rounds ({spilled} spills)"
            ));
        }
        for reg in picks {
            spill_register(&mut m, reg);
            spilled += 1;
        }
    }
}

/// Flush one protection transform's statistics into the `passes.ed.*`
/// counters, the per-scheme check counter included.
pub(crate) fn record_ed_metrics(scheme: Scheme, st: &EdStats) {
    casted_obs::add("passes.ed.replicated", st.replicated as u64);
    casted_obs::add("passes.ed.checks", st.checks as u64);
    casted_obs::add("passes.ed.isolation_copies", st.isolation_copies as u64);
    casted_obs::add("passes.ed.renamed_regs", st.renamed_regs as u64);
    casted_obs::add(scheme.descriptor().checks_counter, st.checks as u64);
}

/// Flush one successful back-end run into the global metrics registry
/// (all counters — deterministic, snapshot-visible).
fn record_prepare_metrics(
    scheme: Scheme,
    ed_stats: &Option<EdStats>,
    spilled: usize,
    sp: &ScheduledProgram,
) {
    if !casted_obs::enabled() {
        return;
    }
    casted_obs::inc("passes.prepared");
    if let Some(st) = ed_stats {
        record_ed_metrics(scheme, st);
    }
    record_sched_metrics(spilled, sp);
}

/// Flush one spill↔schedule fixed point's result into the
/// `passes.spilled_regs` and `passes.sched.*` counters.
pub(crate) fn record_sched_metrics(spilled: usize, sp: &ScheduledProgram) {
    casted_obs::add("passes.spilled_regs", spilled as u64);
    casted_obs::add("passes.sched.bundles", sp.bundle_count() as u64);
    casted_obs::add("passes.sched.nop_slots", sp.nop_slots() as u64);
    casted_obs::add(
        "passes.sched.cross_cluster_edges",
        sp.cross_cluster_edges() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::interp::{self, StopReason};
    use casted_ir::{FunctionBuilder, Opcode, Operand};

    fn sum_loop_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let acc = b.imm(0);
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(i));
        b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(50));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    #[test]
    fn all_schemes_prepare_and_preserve_semantics() {
        let m = sum_loop_module();
        let golden = interp::run(&m, 100_000).unwrap();
        for scheme in Scheme::ALL {
            let cfg = MachineConfig::itanium2_like(2, 2);
            let prep = prepare(&m, scheme, &cfg).unwrap_or_else(|e| {
                panic!("{scheme}: prepare failed: {e}");
            });
            prep.sp.validate().unwrap();
            let r = interp::run(&prep.sp.module, 1_000_000).unwrap();
            assert_eq!(r.stream, golden.stream, "{scheme} changed the output");
            assert_eq!(r.stop, StopReason::Halt(0));
            if scheme.has_error_detection() {
                let st = prep.ed_stats.unwrap();
                assert!(st.replicated > 0);
                assert!(st.checks > 0);
            } else {
                assert!(prep.ed_stats.is_none());
            }
        }
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(Scheme::Noed.name(), "NOED");
        assert!(!Scheme::Noed.has_error_detection());
        assert!(Scheme::Casted.has_error_detection());
        assert_eq!(Scheme::Dced.placement(), Placement::ByStream);
        assert_eq!(Scheme::ALL.len(), 4);
        assert_eq!(Scheme::ED.len(), 3);
    }

    #[test]
    fn ed_schemes_grow_code_over_twofold() {
        let m = sum_loop_module();
        let cfg = MachineConfig::itanium2_like(4, 1);
        let prep = prepare(&m, Scheme::Sced, &cfg).unwrap();
        assert!(prep.ed_stats.unwrap().growth() > 1.8);
    }
}

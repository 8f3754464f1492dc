//! # casted-faults — Monte-Carlo transient-fault injection (§IV-C)
//!
//! Reproduces the paper's fault-coverage methodology: "a dynamic
//! instruction is randomly selected and one of its outputs is randomly
//! picked for injection and a random bit of the register output is
//! flipped. Errors are injected into general purpose, floating point
//! and predicate registers."
//!
//! Each Monte-Carlo trial simulates the program once with a single
//! injected bit flip and classifies the outcome into the paper's five
//! classes ([`Outcome`]): Benign, Detected, Exception, DataCorrupt,
//! Timeout. Timeouts are caught by the simulator's watchdog at a
//! multiple of the fault-free cycle count.

use casted_util::pool::run_pool;
use casted_util::Rng;

pub mod sections;

pub use sections::SectionStats;

use casted_ir::interp::{OutVal, StopReason};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{Reg, RegClass};
use casted_sim::{
    rbed_plan, replay_trial, simulate_golden, simulate_quiet, CampaignProgram, GoldenRun,
    GoldenTrace, Injection, RbedPlan, SimOptions, SimResult, TrialRun, GRID_STATES,
};
use casted_util::store::ArtifactStore;

/// The paper's five outcome classes of §IV-C, plus the `Corrected`
/// class the recovery-capable TMRED scheme introduces (appended last,
/// so the historical class indices are stable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Masked: same output stream and exit code as the fault-free run.
    Benign,
    /// Caught by the error-detection checks (`br.detect` fired).
    Detected,
    /// Hardware exception (wild address, misalignment, divide by
    /// zero). "Since they can be easily caught by a custom exception
    /// handler, they are usually part of the detected errors"; shown
    /// separately for clarity, as in the paper.
    Exception,
    /// Wrong output without detection — the bad case.
    DataCorrupt,
    /// Infinite execution, detected by the simulator watchdog.
    Timeout,
    /// Repaired in place: the run finished with the golden output and
    /// exit code *and* at least one majority vote masked a corrupted
    /// copy (TMRED). Where a detect-only scheme stops the run, a
    /// correcting scheme finishes it correctly — the recovery story.
    Corrected,
}

impl Outcome {
    /// All outcomes in reporting order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Benign,
        Outcome::Detected,
        Outcome::Exception,
        Outcome::DataCorrupt,
        Outcome::Timeout,
        Outcome::Corrected,
    ];

    /// Index of this outcome in [`Outcome::ALL`] order — a direct
    /// `match` rather than a linear scan, since `Tally` hits this on
    /// every recorded trial.
    pub const fn index(self) -> usize {
        match self {
            Outcome::Benign => 0,
            Outcome::Detected => 1,
            Outcome::Exception => 2,
            Outcome::DataCorrupt => 3,
            Outcome::Timeout => 4,
            Outcome::Corrected => 5,
        }
    }

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Benign => "Benign",
            Outcome::Detected => "Detected",
            Outcome::Exception => "Exception",
            Outcome::DataCorrupt => "DataCorrupt",
            Outcome::Timeout => "Timeout",
            Outcome::Corrected => "Corrected",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Monte-Carlo trials (the paper uses 300 per benchmark).
    pub trials: usize,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
    /// Watchdog threshold as a multiple of the fault-free cycle count.
    pub timeout_factor: u64,
    /// Strike shape: single-bit (the paper's model, the default) or a
    /// multi-bit burst.
    pub flip: FlipModel,
    /// Replay-based detection (the RBED scheme): build a chunk-digest
    /// plan from the golden run and check every trial against it.
    pub replay_detect: bool,
    /// Which hardware structure the fault strikes: the paper's
    /// instruction outputs (the default) or the register file.
    pub model: FaultModel,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 300,
            seed: 0xCA57ED,
            timeout_factor: 10,
            flip: FlipModel::Single,
            replay_detect: false,
            model: FaultModel::InstructionOutput,
        }
    }
}

/// Which hardware structure the fault strikes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultModel {
    /// The paper's model (§IV-C): flip a bit of a dynamic
    /// instruction's output register right after writeback.
    #[default]
    InstructionOutput,
    /// Extension: flip a bit of a uniformly random *architectural
    /// register* at a random point in time — a register-file strike.
    /// Dormant values (long-lived, rarely rewritten) are exposed much
    /// longer under this model, so coverage differs.
    RegisterFile,
}

/// Aggregated campaign outcome counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Count per outcome, indexed in [`Outcome::ALL`] order.
    pub counts: [usize; 6],
}

impl Tally {
    /// Record one outcome.
    pub fn record(&mut self, o: Outcome) {
        self.counts[o.index()] += 1;
    }

    /// Count for an outcome.
    pub fn count(&self, o: Outcome) -> usize {
        self.counts[o.index()]
    }

    /// Total trials recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Fraction (0..=1) for an outcome.
    pub fn fraction(&self, o: Outcome) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(o) as f64 / self.total() as f64
        }
    }

    /// "Coverage" in the loose sense used when discussing Fig. 9:
    /// everything except undetected corruption and timeouts (benign
    /// faults need no detection; exceptions are catchable).
    ///
    /// Clamped to `[0, 1]`: the two independently rounded divisions
    /// can sum to just over 1.0 (e.g. counts `[0,0,0,4,1]` give
    /// `1.0 - 4/5 - 1/5 ≈ -5.6e-17`), and the raw subtraction would
    /// leak a negative coverage into results CSVs.
    pub fn safe_fraction(&self) -> f64 {
        (1.0 - self.fraction(Outcome::DataCorrupt) - self.fraction(Outcome::Timeout))
            .clamp(0.0, 1.0)
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for o in Outcome::ALL {
            write!(f, "{}={:5.1}% ", o.name(), 100.0 * self.fraction(o))?;
        }
        Ok(())
    }
}

/// The two campaign engines, as the `--engine` flag names them; each
/// converts into its [`Runner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Historical engine: every trial re-simulates from cycle 0. Kept
    /// as the specification the fast engine is checked against.
    Reference,
    /// Checkpoint/replay engine: golden snapshots taken where the
    /// trials land, fast-forward to the injection site, convergence
    /// pruning, pooled trials.
    #[default]
    Checkpointed,
}

impl Engine {
    /// Accepted `--engine` flag values, for error messages at every
    /// flag site.
    pub const ACCEPTED: &'static str = "reference|checkpointed";

    /// Parse a `--engine` flag value (case-insensitive, so `Reference`
    /// works as well as the canonical lowercase names). Anything else
    /// — the removed `batched` engine included — is an error naming
    /// the accepted values.
    pub fn parse(s: &str) -> Result<Engine, String> {
        match s.to_ascii_lowercase().as_str() {
            "reference" => Ok(Engine::Reference),
            "checkpointed" => Ok(Engine::Checkpointed),
            _ => Err(format!("unknown engine '{s}' (accepted: {})", Engine::ACCEPTED)),
        }
    }

    /// Flag-style name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Checkpointed => "checkpointed",
        }
    }
}

/// Always zero: the batched engine these counted is gone. The struct
/// stays only because the benchmark (`perfbench/src/coverage.rs`)
/// reads these five fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    pub lanes: u64,
    pub lane_insn_steps: u64,
    pub bundles_stepped: u64,
    pub divergences: u64,
    pub retired_converged: u64,
}

/// Engine-side work accounting for one campaign (all zero under
/// [`Engine::Reference`]): snapshot capture and the replay path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Golden-run snapshots captured (incl. the power-on state). On
    /// the incremental path: the section starts.
    pub checkpoints: u64,
    /// Golden-prefix instructions replays skipped via fast-forward. On
    /// the incremental path: those the escape replays skipped.
    pub skipped_insns: u64,
    /// Instructions the golden capture pass simulated. On the
    /// incremental path: the section capture's, the whole run.
    pub capture_insns: u64,
    /// Replays ended early by convergence pruning. On the incremental
    /// path: escape replays that re-converged.
    pub pruned_trials: u64,
    /// Always zero (see [`BatchStats`]).
    pub batch: BatchStats,
    /// Section-store accounting (zeroed unless the campaign ran on
    /// [`Runner::Sections`] within the store's vocabulary).
    pub sections: SectionStats,
}

/// Result of a whole campaign.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Outcome counts.
    pub tally: Tally,
    /// Fault-free cycle count of the program under test.
    pub golden_cycles: u64,
    /// Fault-free dynamic instruction count.
    pub golden_dyn: u64,
    /// Checkpoint-engine accounting (zeroed for the reference engine).
    pub engine: EngineStats,
}

/// Classify one faulty run against the fault-free reference.
pub fn classify(golden: &SimResult, faulty: &SimResult) -> Outcome {
    match faulty.stop {
        StopReason::Detected => Outcome::Detected,
        StopReason::Exception(_) => Outcome::Exception,
        StopReason::Timeout => Outcome::Timeout,
        StopReason::Halt(code) => classify_halt(
            &golden.stop,
            &golden.stream,
            code,
            &faulty.stream,
            faulty.stats.corrections,
        ),
    }
}

/// The one halt rule: a trial that halted with exit `code` and output
/// `stream` is golden-equivalent ([`golden_halt_outcome`] of its
/// correction count) when both match the golden run's bit for bit, and
/// DataCorrupt otherwise. [`classify`] applies it to a live run, the
/// section layer to stored halt evidence.
pub(crate) fn classify_halt(
    golden_stop: &StopReason,
    golden_stream: &[OutVal],
    code: i64,
    stream: &[OutVal],
    corrections: u64,
) -> Outcome {
    let same_stream = golden_stream.len() == stream.len()
        && golden_stream.iter().zip(stream).all(|(a, b)| a.bit_eq(b));
    if *golden_stop == StopReason::Halt(code) && same_stream {
        golden_halt_outcome(corrections)
    } else {
        Outcome::DataCorrupt
    }
}

/// The class of a trial that halts with the golden exit code and
/// stream, given its final vote-correction count: with corrections the
/// scheme *repaired* the strike (Corrected), without them the strike
/// was naturally masked (Benign). [`classify`] applies it to a halted
/// run and the replay engines to a trial that converged
/// ([`TrialRun::Converged`]).
pub(crate) fn golden_halt_outcome(corrections: u64) -> Outcome {
    if corrections > 0 {
        Outcome::Corrected
    } else {
        Outcome::Benign
    }
}

/// Run one injection trial from scratch. Trials stay out of the
/// `sim.*` metrics ([`casted_sim::simulate_quiet`]): a campaign runs
/// the same program hundreds of times and would drown the per-run
/// counters — and the two campaign engines' counter snapshots must
/// stay comparable.
pub fn run_trial(sp: &ScheduledProgram, golden: &SimResult, inj: Injection, max_cycles: u64) -> Outcome {
    run_trial_with(sp, golden, inj, max_cycles, None)
}

/// [`run_trial`] with an optional RBED digest plan installed.
pub fn run_trial_with(
    sp: &ScheduledProgram,
    golden: &SimResult,
    inj: Injection,
    max_cycles: u64,
    rbed: Option<&std::sync::Arc<RbedPlan>>,
) -> Outcome {
    let r = simulate_quiet(
        sp,
        &SimOptions {
            max_cycles,
            injection: Some(inj),
            rbed: rbed.cloned(),
            ..SimOptions::default()
        },
    );
    classify(golden, &r)
}

/// Run an explicit list of injections and classify each against the
/// fault-free reference — the *targeted* (non-Monte-Carlo) entry
/// point used by `casted-difftest`'s fault-probe oracle, which aims
/// injections at specific dynamic instructions (e.g. only
/// `Provenance::Original` sites) instead of sampling uniformly.
pub fn run_trials(
    sp: &ScheduledProgram,
    golden: &SimResult,
    injections: &[Injection],
    max_cycles: u64,
) -> Vec<Outcome> {
    injections
        .iter()
        .map(|&inj| run_trial(sp, golden, inj, max_cycles))
        .collect()
}

/// Strike shape for the `--fault-model` flag: single-bit (the paper's
/// model) or an adjacent multi-bit burst (charge sharing between
/// neighbouring cells upsets several bits of one word; see MITRA et
/// al. style soft-error surveys). Bursts reuse the frozen `(at, bit)`
/// draws and add exactly one extra documented draw (`phase`), so the
/// `single` model reproduces the historical stream byte for byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlipModel {
    /// One flipped bit — the paper's model and the frozen default.
    #[default]
    Single,
    /// Two adjacent bits flipped.
    Burst2,
    /// Four adjacent bits flipped.
    Burst4,
}

impl FlipModel {
    /// Accepted `--fault-model` flag values, for error messages at
    /// every flag site.
    pub const ACCEPTED: &'static str = "single|burst2|burst4";

    /// Parse a `--fault-model` flag value (case-insensitive).
    pub fn parse(s: &str) -> Option<FlipModel> {
        match s.to_ascii_lowercase().as_str() {
            "single" => Some(FlipModel::Single),
            "burst2" => Some(FlipModel::Burst2),
            "burst4" => Some(FlipModel::Burst4),
            _ => None,
        }
    }

    /// Flag-style name.
    pub fn name(self) -> &'static str {
        match self {
            FlipModel::Single => "single",
            FlipModel::Burst2 => "burst2",
            FlipModel::Burst4 => "burst4",
        }
    }

    /// Burst width in bits.
    pub fn width(self) -> u8 {
        match self {
            FlipModel::Single => 1,
            FlipModel::Burst2 => 2,
            FlipModel::Burst4 => 4,
        }
    }
}

/// [`draw_injection`] plus the burst draw: for a multi-bit model one
/// extra value, `phase = gen_range(0..width)`, is drawn *after* the
/// frozen `(at, bit)` pair (and after the register-file model's victim
/// draw, see [`run`]), placing the drawn `bit` at offset `phase` inside
/// the flipped window. Under [`FlipModel::Single`] no extra value is
/// consumed, so the historical stream is reproduced byte for byte.
pub fn draw_burst_phase(rng: &mut Rng, flip: FlipModel) -> u8 {
    let w = flip.width();
    if w > 1 {
        rng.gen_range(0..w as u32) as u8
    } else {
        0
    }
}

/// Draw one `(dynamic instruction, bit)` injection site — the frozen
/// per-trial draw order every runner shares (see the stream-format
/// notes on [`run`]).
///
/// ## Degenerate golden runs
///
/// When `golden_dyn_insns == 0` (an empty or immediately-trapping
/// golden run) there is no dynamic instruction to strike. Instead of
/// panicking on the empty range `1..=0`, the draw returns the
/// documented degenerate site `at = u64::MAX` — a site past every
/// dynamic instruction, so the injection never lands and the trial
/// runs fault-free (classified Benign). The `bit` draw still consumes
/// one value from the stream, keeping the RNG in a defined state for
/// subsequent trials.
pub fn draw_injection(rng: &mut Rng, golden_dyn_insns: u64) -> (u64, u32) {
    if golden_dyn_insns == 0 {
        let bit = rng.gen_range(0..64u32);
        return (u64::MAX, bit);
    }
    let at = rng.gen_range(1..=golden_dyn_insns);
    let bit = rng.gen_range(0..64u32);
    (at, bit)
}

/// The campaign's frozen injection stream: `cfg.trials` injections
/// drawn from `cfg.seed` over a golden run of `golden_dyn` dynamic
/// instructions, in trial order (format on [`run`]).
pub(crate) fn injection_stream(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    golden_dyn: u64,
) -> Vec<Injection> {
    // Register-file victims are uniform over all allocated registers of
    // all classes; the counts are a property of the function.
    let victims = (cfg.model == FaultModel::RegisterFile).then(|| {
        let func = sp.module.entry_fn();
        [RegClass::Gp, RegClass::Fp, RegClass::Pr].map(|class| func.reg_count(class))
    });
    let mut rng = Rng::seed_from_u64(cfg.seed);
    (0..cfg.trials)
        .map(|_| {
            let (at, bit) = draw_injection(&mut rng, golden_dyn);
            let target = victims.map(|counts| draw_victim(&mut rng, counts));
            Injection {
                at_dyn_insn: at,
                bit,
                target,
                width: cfg.flip.width(),
                phase: draw_burst_phase(&mut rng, cfg.flip),
            }
        })
        .collect()
}

/// The register-file model's third draw: one register, uniform over
/// the `[gp, fp, pr]` register counts.
fn draw_victim(rng: &mut Rng, counts: [u32; 3]) -> Reg {
    let total: u32 = counts.iter().sum();
    let mut pick = rng.gen_range(0..total.max(1));
    if pick < counts[0] {
        return Reg::gp(pick);
    }
    pick -= counts[0];
    if pick < counts[1] {
        return Reg::fp(pick);
    }
    Reg::pr(pick - counts[1])
}

/// The default watchdog bound on a campaign's fault-free run: the
/// simulator's one fault-free bound, so a target that never halts is
/// refused instead of simulated forever.
pub use casted_sim::DEFAULT_MAX_CYCLES;

/// One Monte-Carlo fault campaign: what to strike, how often, and how
/// the trials run. [`run`] executes it.
pub struct Campaign<'a> {
    /// The program under test.
    pub target: &'a ScheduledProgram,
    /// Trials, seed, watchdog factor and fault shape.
    pub config: CampaignConfig,
    /// Watchdog bound on the fault-free run: a target that does not
    /// halt within it is refused before any trial runs.
    pub max_cycles: u64,
    /// How the trials run.
    pub runner: Runner<'a>,
}

impl<'a> Campaign<'a> {
    /// `config` over `target` on the checkpointed engine, with the
    /// fault-free run bounded by [`DEFAULT_MAX_CYCLES`].
    pub fn new(target: &'a ScheduledProgram, config: CampaignConfig) -> Self {
        Campaign {
            target,
            config,
            max_cycles: DEFAULT_MAX_CYCLES,
            runner: Runner::default(),
        }
    }

    /// This campaign with its trials run on `runner`.
    pub fn on(self, runner: impl Into<Runner<'a>>) -> Self {
        Campaign { runner: runner.into(), ..self }
    }

    /// The text that reports [`run`]'s refusal of this campaign's
    /// target, which stopped with `stop` instead of halting.
    pub fn refusal(&self, stop: &StopReason) -> String {
        format!(
            "campaign target must halt fault-free within {} cycles, got {stop:?}",
            self.max_cycles
        )
    }
}

/// How a campaign's trials run. Every runner reports the same tally
/// for the same campaign — an invariant enforced by unit tests here, a
/// difftest oracle layer and `scripts/ci.sh` byte-compares (see
/// docs/PERFORMANCE.md and docs/INCREMENTAL.md).
pub enum Runner<'a> {
    /// [`Engine::Reference`]: strictly serial, every trial
    /// re-simulated from cycle 0 — the independent oracle the other
    /// runners are checked against.
    Reference,
    /// [`Engine::Checkpointed`], optionally in chunks with progress
    /// reports between them.
    Checkpointed(Option<Progress<'a>>),
    /// Through the compositional section store ([`sections`]): cached
    /// section evidence is recombined and only what changed is
    /// re-injected. A campaign outside the store's vocabulary (a
    /// multi-bit burst, RBED, a register-file strike or a program with
    /// votes) runs on the checkpointed engine instead and leaves the
    /// store untouched.
    Sections(&'a ArtifactStore),
}

impl Default for Runner<'_> {
    fn default() -> Self {
        Engine::default().into()
    }
}

impl From<Engine> for Runner<'_> {
    fn from(engine: Engine) -> Self {
        match engine {
            Engine::Reference => Runner::Reference,
            Engine::Checkpointed => Runner::Checkpointed(None),
        }
    }
}

/// Chunked progress of a checkpointed campaign — the engine behind the
/// `casted-serve` streaming-inject protocol extension.
///
/// `report(done, tally)` is invoked after each completed chunk of
/// `chunk` trials *except the last* (the caller's final reply carries
/// the complete tally); returning `false` cancels the campaign, whose
/// result then holds fewer than `config.trials` trials.
///
/// Two exactness properties make streaming safe to expose:
///
/// * **Prefix match** — injections are pre-drawn from the frozen
///   stream and trials are mutually independent, so the running tally
///   at `done = M` equals the tally of a whole campaign with
///   `trials = M`. A cancelled campaign's partial tally is a real
///   campaign result, not an approximation.
/// * **Runner independence** — per-trial outcomes are runner-invariant
///   (the workspace-wide byte-identical-tally contract), so the final
///   tally equals every runner's.
#[allow(clippy::type_complexity)]
pub struct Progress<'a> {
    /// Trials per chunk (0 counts as 1).
    pub chunk: usize,
    /// Called between chunks with `(trials done, running tally)`.
    pub report: Box<dyn FnMut(u64, &Tally) -> bool + 'a>,
}

/// Run a Monte-Carlo fault campaign.
///
/// The fault-free run comes first, under the watchdog
/// `campaign.max_cycles`: a target that does not halt within it is
/// refused with the stop it took (`Err(Timeout)` for a program that
/// runs too long), before any trial runs and with the `sim.*` counters
/// untouched. Each trial then draws a uniformly random dynamic
/// instruction of the run and a random bit of its output register.
/// (The paper fixes the error *rate* to the original binary's dynamic
/// length; we draw one fault per trial uniformly over the tested
/// binary's own execution — the reported per-class *fractions* are
/// directly comparable, see DESIGN.md.)
///
/// ## Injection stream format (frozen)
///
/// Campaigns are bit-reproducible across platforms and toolchains:
/// the RNG is `casted_util::Rng` (xoshiro256++ seeded from
/// `config.seed` via SplitMix64), and each trial draws, in order,
///
/// 1. `at`  = `gen_range(1..=golden_dyn_insns)` — the dynamic
///    instruction whose output is struck, and
/// 2. `bit` = `gen_range(0..64u32)` — the flipped bit.
///
/// (The [`FaultModel::RegisterFile`] model draws a third value,
/// `gen_range(0..total_allocated_regs)`, to pick the victim register,
/// and a multi-bit [`FlipModel`] a last one, the burst phase.) The
/// `stream_format_is_frozen` unit test pins golden values for this
/// sequence; any change to the draw order, the RNG algorithm or the
/// bounded-draw mapping is a format break and must be made
/// deliberately there.
pub fn run(campaign: &mut Campaign) -> Result<CampaignResult, StopReason> {
    let Campaign { target, config, max_cycles, runner } = campaign;
    match runner {
        Runner::Reference => reference_campaign(target, config, *max_cycles),
        Runner::Checkpointed(progress) => {
            checkpointed_campaign(target, config, *max_cycles, progress.as_mut())
        }
        Runner::Sections(store) => sections::section_campaign(target, config, store, *max_cycles),
    }
}

/// [`run`] of `cfg` on `engine` under the default bound, panicking on
/// a refusal. Exists only for perfbench, which calls it, until perfbench
/// moves to [`run`].
pub fn run_campaign_engine(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    engine: Engine,
) -> CampaignResult {
    let mut campaign = Campaign::new(sp, cfg.clone()).on(engine);
    run(&mut campaign).unwrap_or_else(|stop| panic!("{}", campaign.refusal(&stop)))
}

/// The reference engine ([`Runner::Reference`]).
fn reference_campaign(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    max_cycles: u64,
) -> Result<CampaignResult, StopReason> {
    let golden = simulate_golden(sp, max_cycles);
    halts(&golden)?;
    let rbed = cfg.replay_detect.then(|| rbed_plan(sp, golden.stats.dyn_insns));
    let max_cycles = golden.stats.cycles.saturating_mul(cfg.timeout_factor);
    let injections = injection_stream(sp, cfg, golden.stats.dyn_insns);
    let mut tally = Tally::default();
    let span = casted_obs::span("faults.campaign_ns");
    for inj in injections {
        tally.record(run_trial_with(sp, &golden, inj, max_cycles, rbed.as_ref()));
    }
    record_campaign_metrics(&tally, None, span);
    Ok(CampaignResult {
        tally,
        golden_cycles: golden.stats.cycles,
        golden_dyn: golden.stats.dyn_insns,
        engine: EngineStats::default(),
    })
}

/// The checkpointed engine: the golden run under the watchdog
/// `max_cycles` (the campaign's one whole-program fault-free pass), the
/// frozen injection stream drawn from its dynamic length, golden
/// capture at the drawn sites ([`GoldenRun::capture`]), then the
/// replays on [`casted_util::pool::run_pool`], one chunk at a time with
/// `progress` between chunks (see [`Progress`]). Results come back in
/// input order, so the tally reduction is independent of thread
/// interleaving and byte-identical to the reference engine's.
pub(crate) fn checkpointed_campaign(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    max_cycles: u64,
    mut progress: Option<&mut Progress>,
) -> Result<CampaignResult, StopReason> {
    // Under RBED, pass 1 runs the digest accumulator, so its grid
    // states can restart a capture under the plan.
    let program = CampaignProgram::new(sp);
    let golden = GoldenRun::run(sp, program, max_cycles, GRID_STATES, cfg.replay_detect);
    halts(&golden.result)?;
    let golden_cycles = golden.result.stats.cycles;
    let golden_dyn = golden.result.stats.dyn_insns;
    let max_cycles = golden_cycles.saturating_mul(cfg.timeout_factor);
    let rbed = cfg.replay_detect.then(|| golden.rbed_plan(sp));
    let injections = injection_stream(sp, cfg, golden_dyn);
    let sites: Vec<u64> = injections.iter().map(|inj| inj.at_dyn_insn).collect();
    let trace = golden.capture(sp, &sites, rbed);

    let span = casted_obs::span("faults.campaign_ns");
    let mut tally = Tally::default();
    let mut engine_stats = EngineStats {
        checkpoints: trace.checkpoints_taken(),
        capture_insns: trace.capture_insns(),
        ..EngineStats::default()
    };
    let chunk = progress.as_ref().map_or(cfg.trials, |p| p.chunk);
    let mut done: u64 = 0;
    for injs in injections.chunks(chunk.max(1)) {
        let outcomes = run_pool(
            injs.iter()
                .map(|&inj| {
                    let trace: &GoldenTrace = &trace;
                    move || {
                        let (run, skipped) = replay_trial(trace, inj, max_cycles, None, None);
                        let pruned = matches!(run, TrialRun::Converged { .. });
                        let outcome = match run {
                            TrialRun::Finished(r) => classify(&trace.result, &r),
                            TrialRun::Converged { corrections, .. } => {
                                golden_halt_outcome(corrections)
                            }
                            TrialRun::Escaped => unreachable!("no span end, no escape"),
                        };
                        (outcome, skipped, pruned)
                    }
                })
                .collect(),
        );
        for (outcome, skipped, pruned) in outcomes {
            tally.record(outcome);
            engine_stats.skipped_insns += skipped;
            engine_stats.pruned_trials += pruned as u64;
        }
        done += injs.len() as u64;
        if let Some(p) = progress.as_mut() {
            if done < cfg.trials as u64 && !(p.report)(done, &tally) {
                break;
            }
        }
    }
    record_campaign_metrics(&tally, Some(&engine_stats), span);
    Ok(CampaignResult {
        tally,
        golden_cycles,
        golden_dyn,
        engine: engine_stats,
    })
}

/// The refusal every runner shares: a campaign target must halt
/// fault-free, or no trial has a reference to be classified against.
fn halts(golden: &SimResult) -> Result<(), StopReason> {
    match &golden.stop {
        StopReason::Halt(_) => Ok(()),
        stop => Err(stop.clone()),
    }
}

/// Static counter name per outcome class.
fn outcome_counter(o: Outcome) -> &'static str {
    match o {
        Outcome::Benign => "faults.outcome.benign",
        Outcome::Detected => "faults.outcome.detected",
        Outcome::Exception => "faults.outcome.exception",
        Outcome::DataCorrupt => "faults.outcome.data_corrupt",
        Outcome::Timeout => "faults.outcome.timeout",
        Outcome::Corrected => "faults.outcome.corrected",
    }
}

/// Flush one finished campaign into the global metrics registry:
/// outcome tallies and trial count as deterministic counters, the
/// campaign wall-time and trial throughput as timing metrics (span
/// histogram + `faults.trials_per_sec` gauge, both excluded from the
/// counter-only snapshot). The checkpointed engine also flushes its
/// `faults.checkpoint.*` work counters — and incremental campaigns
/// their `faults.sections.*` cache counters — the only
/// counter-snapshot keys on which the engines are allowed to differ
/// (`scripts/ci.sh` strips exactly these before its byte-compare).
pub(crate) fn record_campaign_metrics(
    tally: &Tally,
    engine: Option<&EngineStats>,
    span: casted_obs::Span,
) {
    if !casted_obs::enabled() {
        return;
    }
    let trials = tally.total() as u64;
    casted_obs::add("faults.trials", trials);
    for o in Outcome::ALL {
        casted_obs::add(outcome_counter(o), tally.count(o) as u64);
    }
    if let Some(es) = engine {
        casted_obs::add("faults.checkpoint.taken", es.checkpoints);
        casted_obs::add("faults.checkpoint.skipped_insns", es.skipped_insns);
        casted_obs::add("faults.checkpoint.capture_insns", es.capture_insns);
        casted_obs::add("faults.checkpoint.pruned", es.pruned_trials);
        if es.sections.total > 0 {
            casted_obs::add("faults.sections.total", es.sections.total);
            casted_obs::add("faults.sections.hit", es.sections.hit);
            casted_obs::add("faults.sections.miss", es.sections.miss);
            casted_obs::add("faults.sections.recombined", es.sections.recombined);
            casted_obs::add("faults.sections.escaped", es.sections.escaped);
        }
    }
    let ns = span.elapsed_ns();
    if ns > 0 {
        casted_obs::gauge_set(
            "faults.trials_per_sec",
            trials.saturating_mul(1_000_000_000) / ns,
        );
    }
    // Dropping the span records the campaign wall-time histogram.
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_sim::simulate;
    use casted_ir::{FunctionBuilder, MachineConfig, Module, Opcode, Operand};

    /// Unprotected program summing memory values and printing the sum.
    fn unprotected() -> ScheduledProgram {
        let mut m = Module::new("t");
        let (_, addr) = m.add_global("g", casted_ir::func::GlobalClass::Int, 64, (0..64).collect());
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
        let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(64));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1))
    }

    /// `cfg` over `sp` on `runner`, which must accept the target.
    pub(crate) fn run_on<'a>(
        sp: &'a ScheduledProgram,
        cfg: &CampaignConfig,
        runner: impl Into<Runner<'a>>,
    ) -> CampaignResult {
        run(&mut Campaign::new(sp, cfg.clone()).on(runner)).expect("target halts")
    }

    /// The injection stream format is frozen (see [`run`]
    /// docs): for a given seed and golden dynamic length, the sequence
    /// of `(dynamic instruction, bit)` injection sites is identical on
    /// every platform and toolchain, byte for byte. These golden
    /// values pin the format — seed `0xCA57ED` (the default), a
    /// 1000-instruction run, first eight trials. If this test breaks,
    /// campaign results are no longer comparable with previously
    /// published runs; bump the documented stream format instead of
    /// silently updating the constants.
    #[test]
    fn stream_format_is_frozen() {
        let mut rng = Rng::seed_from_u64(CampaignConfig::default().seed);
        let got: Vec<(u64, u32)> = (0..8).map(|_| draw_injection(&mut rng, 1000)).collect();
        assert_eq!(
            got,
            [
                (11, 13),
                (846, 38),
                (441, 63),
                (884, 48),
                (225, 38),
                (450, 15),
                (597, 38),
                (32, 45),
            ]
        );
        // Burst extension: `Single` consumes no extra value — the
        // historical stream above is reproduced byte for byte — while
        // a multi-bit model draws exactly one extra `phase` value per
        // trial, *after* the frozen `(at, bit)` pair.
        let mut single = Rng::seed_from_u64(CampaignConfig::default().seed);
        for want in &got {
            let pair = draw_injection(&mut single, 1000);
            assert_eq!(&pair, want, "Single must not perturb the stream");
            assert_eq!(draw_burst_phase(&mut single, FlipModel::Single), 0);
        }
        // Pinned golden values for the burst2 stream: interleaving the
        // phase draw shifts every subsequent (at, bit) pair.
        let mut burst = Rng::seed_from_u64(CampaignConfig::default().seed);
        let got2: Vec<(u64, u32, u8)> = (0..4)
            .map(|_| {
                let (at, bit) = draw_injection(&mut burst, 1000);
                (at, bit, draw_burst_phase(&mut burst, FlipModel::Burst2))
            })
            .collect();
        assert_eq!(
            got2,
            [(11, 13, 1), (606, 28, 1), (884, 48, 0), (594, 28, 0)]
        );
        for (_, _, phase) in &got2 {
            assert!(*phase < FlipModel::Burst2.width() as u8);
        }
    }

    /// Streaming campaigns must be *exact*: the final result equals
    /// every engine's non-streaming result, and each intermediate
    /// tally equals a whole campaign truncated at that trial count
    /// (the frozen injection stream makes prefixes real campaigns).
    #[test]
    fn streaming_campaign_prefixes_match_whole_campaigns() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 40,
            seed: 7,
            timeout_factor: 10,
            ..CampaignConfig::default()
        };
        let mut updates: Vec<(u64, Tally)> = Vec::new();
        let report = Box::new(|done, t: &Tally| {
            updates.push((done, t.clone()));
            true
        });
        let res = run_on(&sp, &cfg, Runner::Checkpointed(Some(Progress { chunk: 16, report })));
        assert_eq!(res.tally.total(), 40);
        for engine in [Engine::Reference, Engine::Checkpointed] {
            let full = run_on(&sp, &cfg, engine);
            assert_eq!(res.tally, full.tally, "streaming vs {engine:?}");
            assert_eq!(res.golden_cycles, full.golden_cycles);
            assert_eq!(res.golden_dyn, full.golden_dyn);
        }
        // Progress fires at every chunk boundary short of the total
        // (the final tally travels in the caller's terminal reply).
        assert_eq!(
            updates.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![16, 32]
        );
        for (done, t) in &updates {
            let prefix_cfg = CampaignConfig {
                trials: *done as usize,
                ..cfg.clone()
            };
            let prefix = run_on(&sp, &prefix_cfg, Engine::default());
            assert_eq!(t, &prefix.tally, "prefix mismatch at {done} trials");
        }
    }

    /// Cancelling mid-campaign yields exactly the prefix campaign —
    /// the partial tally is a real result, not an approximation.
    #[test]
    fn streaming_campaign_cancel_returns_exact_prefix() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 40,
            seed: 9,
            timeout_factor: 10,
            ..CampaignConfig::default()
        };
        let report = Box::new(|done, _: &Tally| done < 20);
        let partial = run_on(&sp, &cfg, Runner::Checkpointed(Some(Progress { chunk: 10, report })));
        assert_eq!(partial.tally.total(), 20);
        let prefix = run_on(&sp, &CampaignConfig { trials: 20, ..cfg }, Engine::default());
        assert_eq!(partial.tally, prefix.tally);
    }

    /// Regression: `draw_injection` used to panic on the empty range
    /// `gen_range(1..=0)` when the golden run retired zero dynamic
    /// instructions (empty or immediately-trapping program). The guard
    /// returns the documented degenerate site instead: `at =
    /// u64::MAX` (past every dynamic instruction, so the injection
    /// never lands) with the bit still drawn from the stream, leaving
    /// the RNG in a defined state for subsequent trials.
    #[test]
    fn draw_injection_with_empty_golden_run_does_not_panic() {
        let mut rng = Rng::seed_from_u64(0xCA57ED);
        let (at, bit) = draw_injection(&mut rng, 0);
        assert_eq!(at, u64::MAX, "degenerate site must be past every insn");
        assert!(bit < 64);
        // The stream stays usable and deterministic after the
        // degenerate draw.
        let (at2, bit2) = draw_injection(&mut rng, 1000);
        assert!((1..=1000).contains(&at2) && bit2 < 64);
        let mut replay = Rng::seed_from_u64(0xCA57ED);
        let a = draw_injection(&mut replay, 0);
        let b = draw_injection(&mut replay, 1000);
        assert_eq!((a, b), ((at, bit), (at2, bit2)));
    }

    /// The degenerate site is inert end to end: injected into a real
    /// program, it never fires and the trial classifies Benign.
    #[test]
    fn degenerate_injection_is_benign() {
        let sp = unprotected();
        let golden = simulate(&sp, &SimOptions::default());
        let outcome = run_trial(
            &sp,
            &golden,
            Injection::single(u64::MAX, 5, None),
            golden.stats.cycles * 10,
        );
        assert_eq!(outcome, Outcome::Benign);
    }

    /// Same-seed campaigns must agree between campaign variants too:
    /// every fault model and runner draws from the same stream.
    #[test]
    fn stream_is_platform_stable_across_dyn_lengths() {
        // The (at, bit) pair for trial 0 must depend only on the seed
        // and the golden dynamic length — two different lengths give
        // reproducible (but different) sites from the same raw stream.
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let (at_a, bit_a) = draw_injection(&mut a, 100);
        let (at_b, bit_b) = draw_injection(&mut b, 100);
        assert_eq!((at_a, bit_a), (at_b, bit_b));
        assert!(at_a >= 1 && at_a <= 100 && bit_a < 64);
    }

    #[test]
    fn campaign_is_deterministic() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 50,
            ..Default::default()
        };
        let a = run_on(&sp, &cfg, Engine::default());
        let b = run_on(&sp, &cfg, Engine::default());
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn different_seeds_differ() {
        let sp = unprotected();
        let cfg = |seed| CampaignConfig { trials: 60, seed, ..Default::default() };
        let a = run_on(&sp, &cfg(1), Engine::default());
        let b = run_on(&sp, &cfg(2), Engine::default());
        // Overwhelmingly likely to differ in at least one class.
        assert_ne!(a.tally, b.tally);
    }

    #[test]
    fn unprotected_program_never_detects() {
        let sp = unprotected();
        let cfg = CampaignConfig { trials: 80, ..Default::default() };
        let r = run_on(&sp, &cfg, Engine::default());
        assert_eq!(r.tally.count(Outcome::Detected), 0);
        // And some faults must corrupt data or raise exceptions.
        assert!(
            r.tally.count(Outcome::DataCorrupt) + r.tally.count(Outcome::Exception) > 0,
            "all faults benign? {:?}",
            r.tally
        );
        assert_eq!(r.tally.total(), 80);
    }

    #[test]
    fn tally_fractions_sum_to_one() {
        let sp = unprotected();
        let cfg = CampaignConfig { trials: 40, ..Default::default() };
        let r = run_on(&sp, &cfg, Engine::default());
        let sum: f64 = Outcome::ALL.iter().map(|&o| r.tally.fraction(o)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// The tentpole equivalence oracle at unit scale: same seed, same
    /// trials ⇒ the checkpointed engine's tally is byte-identical to
    /// the reference engine's, and the checkpoint engine actually did
    /// engine work (snapshots + fast-forward).
    #[test]
    fn checkpointed_and_reference_engines_agree() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 80,
            ..Default::default()
        };
        let reference = run_on(&sp, &cfg, Engine::Reference);
        let checkpointed = run_on(&sp, &cfg, Engine::Checkpointed);
        assert_eq!(reference.tally, checkpointed.tally, "engines diverged");
        assert_eq!(reference.golden_cycles, checkpointed.golden_cycles);
        assert_eq!(reference.golden_dyn, checkpointed.golden_dyn);
        assert_eq!(reference.engine, EngineStats::default());
        assert!(checkpointed.engine.checkpoints > 1, "no snapshots captured");
        assert!(
            checkpointed.engine.skipped_insns > 0,
            "fast-forward never skipped a prefix"
        );
    }

    /// Golden capture is sized by the drawn sites: an 8-trial
    /// campaign clones at most one state per trial on top of the
    /// power-on snapshot, and the default engine is the checkpointed
    /// one.
    #[test]
    fn eight_trial_campaign_takes_at_most_nine_snapshots() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 8,
            ..Default::default()
        };
        let r = run_on(&sp, &cfg, Engine::default());
        assert!(r.engine.checkpoints >= 1 && r.engine.checkpoints <= 9, "{:?}", r.engine);
        assert_eq!(r.engine.batch, BatchStats::default());
        assert_eq!(r.tally, run_on(&sp, &cfg, Engine::Reference).tally);
        assert_eq!(Engine::default(), Engine::Checkpointed);
    }

    /// Regression (satellite): one-dynamic-instruction programs (`halt`
    /// alone) must campaign cleanly under both engines and agree:
    /// the lone instruction has no output register, every strike
    /// slides off the end, and all trials are Benign.
    #[test]
    fn one_insn_program_campaigns_agree_across_engines() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let cfg = CampaignConfig {
            trials: 25,
            ..Default::default()
        };
        let reference = run_on(&sp, &cfg, Engine::Reference);
        assert_eq!(reference.golden_dyn, 1);
        assert_eq!(reference.tally.count(Outcome::Benign), 25);
        let r = run_on(&sp, &cfg, Engine::Checkpointed);
        assert_eq!(r.tally, reference.tally);
    }

    /// Regression: zero-dynamic-instruction programs (an empty entry
    /// block that falls through) cannot be campaign targets — the
    /// golden run never halts — and every runner must refuse them with
    /// the same stop, as an `Err`, instead of panicking deep inside
    /// checkpoint bookkeeping.
    #[test]
    fn zero_insn_program_is_refused_identically_by_all_engines() {
        use casted_ir::semantics::ExecError;
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let _unreachable = b.new_block("dead");
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let cfg = CampaignConfig {
            trials: 5,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!("casted-refusal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("open store");
        let streamed = Progress { chunk: 2, report: Box::new(|_, _: &Tally| true) };
        let runners = [
            Runner::Reference,
            Runner::Checkpointed(None),
            Runner::Checkpointed(Some(streamed)),
            Runner::Sections(&store),
        ];
        for runner in runners {
            let err = run(&mut Campaign::new(&sp, cfg.clone()).on(runner))
                .expect_err("runner accepted a never-halting golden run");
            // Falling off the empty block fetches from address -1.
            assert_eq!(err, StopReason::Exception(ExecError::MemOutOfBounds(-1)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Convergence-pruned trials classify identically to full-run
    /// classification: a campaign that demonstrably pruned (the
    /// benign-heavy unprotected loop guarantees re-convergent faults)
    /// still matches the reference tally class for class — pruning
    /// only ever short-circuits trials the full run calls Benign.
    #[test]
    fn pruned_trials_classify_identically_to_full_runs() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 120,
            ..Default::default()
        };
        let checkpointed = run_on(&sp, &cfg, Engine::Checkpointed);
        assert!(
            checkpointed.engine.pruned_trials > 0,
            "campaign never pruned — the test is vacuous: {:?}",
            checkpointed.engine
        );
        let reference = run_on(&sp, &cfg, Engine::Reference);
        assert_eq!(reference.tally, checkpointed.tally);
        // Pruned trials halt like the golden run: Benign, or Corrected
        // when a vote repaired the strike.
        assert!(
            checkpointed.engine.pruned_trials
                <= (checkpointed.tally.count(Outcome::Benign)
                    + checkpointed.tally.count(Outcome::Corrected)) as u64
        );
    }

    #[test]
    fn engine_parse_round_trips() {
        for e in [Engine::Reference, Engine::Checkpointed] {
            assert_eq!(Engine::parse(e.name()), Ok(e));
            // Every canonical name appears in the advertised flag help.
            assert!(Engine::ACCEPTED.contains(e.name()));
        }
        assert!(Engine::parse("warp-drive").is_err());
        assert_eq!(Engine::default(), Engine::Checkpointed);
        // The removed batched engine is refused with the accepted
        // values, not silently mapped to another engine.
        let err = Engine::parse("batched").unwrap_err();
        assert!(err.contains("batched") && err.contains(Engine::ACCEPTED), "{err}");
    }

    /// Regression (satellite): `parse` used to silently reject case
    /// variants like `Reference`, turning a shell-quoting slip into a
    /// fallback to the default engine.
    #[test]
    fn engine_parse_is_case_insensitive() {
        assert_eq!(Engine::parse("Reference"), Ok(Engine::Reference));
        assert_eq!(Engine::parse("CHECKPOINTED"), Ok(Engine::Checkpointed));
        assert_eq!(Engine::parse("cHeCkPoInTeD"), Ok(Engine::Checkpointed));
        assert!(Engine::parse("").is_err());
    }

    /// Regression (satellite): `safe_fraction` subtracted two
    /// independently rounded divisions from 1.0; when the non-safe
    /// classes account for *all* trials the sum can exceed 1.0 by an
    /// ulp and coverage went negative (counts [0,0,0,4,1]:
    /// `1.0 - 4/5 - 1/5 = -5.55e-17`), leaking `-0.0000` into CSVs.
    #[test]
    fn safe_fraction_never_leaves_unit_interval() {
        let ulp_overshoot = Tally {
            counts: [0, 0, 0, 4, 1, 0],
        };
        // The raw subtraction really does overshoot — this pins the
        // arithmetic the clamp is protecting against.
        let raw = 1.0
            - ulp_overshoot.fraction(Outcome::DataCorrupt)
            - ulp_overshoot.fraction(Outcome::Timeout);
        assert!(raw < 0.0, "expected the ulp overshoot, got {raw:e}");
        assert_eq!(ulp_overshoot.safe_fraction(), 0.0);
        assert!(ulp_overshoot.safe_fraction().is_sign_positive());
        // Sweep small tallies: always within [0, 1].
        for dc in 0..12usize {
            for to in 0..12usize {
                for benign in 0..3usize {
                    let t = Tally {
                        counts: [benign, 0, 0, dc, to, 0],
                    };
                    let f = t.safe_fraction();
                    assert!((0.0..=1.0).contains(&f), "{t:?} -> {f}");
                }
            }
        }
    }

    #[test]
    fn classify_benign_vs_corrupt() {
        let sp = unprotected();
        let golden = simulate(&sp, &SimOptions::default());
        // Same result is benign.
        assert_eq!(classify(&golden, &golden), Outcome::Benign);
        // A run with altered stream is corrupt.
        let mut faulty = golden.clone();
        faulty.stream[0] = casted_ir::interp::OutVal::Int(-1);
        assert_eq!(classify(&golden, &faulty), Outcome::DataCorrupt);
        // Different exit code is corrupt even with same stream.
        let mut faulty2 = golden.clone();
        faulty2.stop = StopReason::Halt(99);
        assert_eq!(classify(&golden, &faulty2), Outcome::DataCorrupt);
    }
}

#[cfg(test)]
mod model_tests {
    use super::tests::run_on;
    use super::*;
    use casted_ir::testgen::{random_module, GenOptions};
    use casted_ir::{FunctionBuilder, MachineConfig, Module};

    fn register_file(cfg: &CampaignConfig) -> CampaignConfig {
        CampaignConfig { model: FaultModel::RegisterFile, ..cfg.clone() }
    }

    #[test]
    fn register_file_model_runs_and_is_deterministic() {
        let m = random_module(5, &GenOptions::default());
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let cfg = CampaignConfig {
            trials: 30,
            ..Default::default()
        };
        let a = run_on(&sp, &register_file(&cfg), Engine::default());
        let b = run_on(&sp, &register_file(&cfg), Engine::default());
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.tally.total(), 30);
    }

    #[test]
    fn output_model_delegates_to_default_campaign() {
        let m = random_module(9, &GenOptions::default());
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let cfg = CampaignConfig {
            trials: 20,
            ..Default::default()
        };
        assert_eq!(cfg.model, FaultModel::InstructionOutput);
        let explicit = CampaignConfig { model: FaultModel::InstructionOutput, ..cfg.clone() };
        let a = run_on(&sp, &explicit, Engine::Reference);
        let b = run_on(&sp, &cfg, Engine::default());
        assert_eq!(a.tally, b.tally);
    }

    /// A register-file campaign gets the fault-free bound too: a target
    /// that never halts is refused as `Err(Timeout)` on both engines
    /// instead of running forever.
    #[test]
    fn register_file_model_refuses_a_non_halting_target() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let spin = b.new_block("spin");
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let cfg = register_file(&CampaignConfig { trials: 4, ..Default::default() });
        for engine in [Engine::Reference, Engine::Checkpointed] {
            let mut c = Campaign { max_cycles: 1000, ..Campaign::new(&sp, cfg.clone()).on(engine) };
            assert_eq!(run(&mut c).unwrap_err(), StopReason::Timeout, "{engine:?}");
        }
    }

    #[test]
    fn run_trials_matches_individual_trials() {
        let m = random_module(21, &GenOptions::default());
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let golden = casted_sim::simulate(&sp, &casted_sim::SimOptions::default());
        let max_cycles = golden.stats.cycles * 10;
        let injections: Vec<Injection> = (1..6)
            .map(|k| Injection::single(k * 7, (k % 64) as u32, None))
            .collect();
        let batch = run_trials(&sp, &golden, &injections, max_cycles);
        assert_eq!(batch.len(), injections.len());
        for (i, &inj) in injections.iter().enumerate() {
            assert_eq!(batch[i], run_trial(&sp, &golden, inj, max_cycles));
        }
    }

    #[test]
    fn register_file_model_engines_agree() {
        let m = random_module(5, &GenOptions::default());
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let cfg = CampaignConfig {
            trials: 40,
            ..Default::default()
        };
        let a = run_on(&sp, &register_file(&cfg), Engine::Reference);
        let b = run_on(&sp, &register_file(&cfg), Engine::Checkpointed);
        assert_eq!(a.tally, b.tally, "register-file model engines diverged");
    }

    #[test]
    fn models_differ_in_distribution() {
        // Register-file strikes hit dormant/dead registers far more
        // often, so the benign fraction should generally be higher.
        let m = random_module(12, &GenOptions::default());
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(1, 1));
        let cfg = CampaignConfig {
            trials: 120,
            ..Default::default()
        };
        let out = run_on(&sp, &cfg, Engine::default());
        let rf = run_on(&sp, &register_file(&cfg), Engine::default());
        assert_ne!(out.tally, rf.tally, "models should produce different tallies");
    }
}

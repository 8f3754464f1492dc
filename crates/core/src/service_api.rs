//! Pure request-level facade over the pipeline — the layer
//! `casted-serve` handlers call so the service never duplicates
//! compile → prepare → simulate wiring.
//!
//! Three entry points mirror the service's three request types:
//!
//! * [`compile_stats`] — MiniC source → scheduled-program statistics
//!   (no simulation),
//! * [`simulate_stats`] — source → fault-free cycle-accurate run, with
//!   the per-request **deadline enforced through the simulator's cycle
//!   limit** (`SimOptions::max_cycles`) rather than wall-clock timers,
//! * [`inject`] — source → Monte-Carlo fault campaign on any
//!   [`Runner`]: either engine, chunked with progress, or through a
//!   section store.
//!
//! Everything is a total function from request to
//! `Result<Reply, String>`: bad source, bad machine parameters, or a
//! run that blows its deadline come back as `Err`, never as a panic —
//! a service worker must survive arbitrary client input. Replies carry
//! **integers only** (floats are scaled to permille), so their wire
//! encoding is byte-stable and a cached reply is provably identical to
//! a recomputed one — the property `casted-serve`'s content-addressed
//! cache rests on (see `docs/SERVING.md`).

use casted_faults::{run, Campaign, CampaignConfig, CampaignResult, Engine, Runner};
use casted_ir::interp::{OutVal, StopReason};
use casted_ir::MachineConfig;
use casted_passes::Scheme;
use casted_sim::{simulate_quiet, SimOptions};
use casted_util::store::ArtifactStore;
use casted_util::Fnv64;

/// Bounds on machine parameters a request may ask for. Issue widths
/// and delays outside the paper's explored range are rejected up
/// front rather than handed to the scheduler.
pub const MAX_ISSUE: usize = 8;
/// Maximum accepted inter-cluster delay.
pub const MAX_DELAY: u32 = 16;

/// One compile-or-run job: which program, which scheme, which machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// MiniC source text.
    pub source: String,
    /// Code-generation scheme.
    pub scheme: Scheme,
    /// Issue width per cluster (1..=[`MAX_ISSUE`]).
    pub issue: usize,
    /// Inter-cluster delay in cycles (0..=[`MAX_DELAY`]).
    pub delay: u32,
}

impl JobSpec {
    fn validate(&self) -> Result<(), String> {
        if self.issue == 0 || self.issue > MAX_ISSUE {
            return Err(format!("issue width {} outside 1..={MAX_ISSUE}", self.issue));
        }
        if self.delay > MAX_DELAY {
            return Err(format!("inter-cluster delay {} outside 0..={MAX_DELAY}", self.delay));
        }
        Ok(())
    }
}

/// Scheduled-program statistics for a *compile* request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompileReply {
    /// Static VLIW bundles in the schedule.
    pub bundles: u64,
    /// Empty issue slots across all bundles.
    pub nop_slots: u64,
    /// DFG edges whose producer and consumer sit on different clusters.
    pub cross_cluster_edges: u64,
    /// Registers spilled to fit the architectural files.
    pub spilled: u64,
    /// Static code growth vs the unprotected program, in permille
    /// (1000 = no growth). Integer so the reply encodes byte-stably.
    pub code_growth_permille: u64,
    /// Instructions placed per cluster.
    pub occupancy: Vec<u64>,
}

/// Fault-free simulation summary for a *simulate* request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimulateReply {
    /// Machine cycles.
    pub cycles: u64,
    /// Dynamic instructions retired.
    pub dyn_insns: u64,
    /// Bundles issued.
    pub bundles: u64,
    /// Cycles stalled on operands (cache misses, cross-cluster reads).
    pub stall_cycles: u64,
    /// Register reads that crossed clusters.
    pub cross_reads: u64,
    /// Exit code of the program's `halt`.
    pub exit_code: i64,
    /// Number of `out`/`fout` values emitted.
    pub stream_len: u64,
    /// FNV-1a digest of the output stream (tag + bits per value).
    pub stream_digest: u64,
}

/// Fault-campaign summary for an *inject* request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectReply {
    /// Trials run.
    pub trials: u64,
    /// Outcome counts in [`casted_faults::Outcome::ALL`] order.
    pub counts: [u64; 6],
    /// Fault-free cycle count of the target.
    pub golden_cycles: u64,
    /// Fault-free dynamic instruction count.
    pub golden_dyn: u64,
}

/// Digest an output stream: one tag byte + the value bits per entry,
/// so `Int(1)` and `Float(5e-324)` can never collide.
pub fn stream_digest(stream: &[OutVal]) -> u64 {
    let mut h = Fnv64::new();
    for v in stream {
        match v {
            OutVal::Int(i) => {
                h.write_u8(1);
                h.write_u64(*i as u64);
            }
            OutVal::Float(f) => {
                h.write_u8(2);
                h.write_u64(f.to_bits());
            }
        }
    }
    h.finish()
}

/// Compile and schedule `spec`, collecting the diagnostics of every
/// stage into one error string. With a pipeline, the work runs through
/// the memoized stage graph (`docs/PIPELINE.md`) — exactness makes the
/// two paths indistinguishable, so replies stay byte-stable either way.
fn prepare_via(
    spec: &JobSpec,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<casted_passes::Prepared, String> {
    spec.validate()?;
    let config = MachineConfig::itanium2_like(spec.issue, spec.delay);
    if let Some(p) = pipeline {
        return p
            .prepare("request", &spec.source, spec.scheme, &config)
            .map(|(prep, _stats)| prep)
            .map_err(|e| match e {
                crate::stages::StagedError::Frontend(diags) => {
                    let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                    format!("compile failed: {}", msgs.join("; "))
                }
                crate::stages::StagedError::Backend(msg) => format!("prepare failed: {msg}"),
            });
    }
    let module = casted_frontend::compile("request", &spec.source).map_err(|diags| {
        let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
        format!("compile failed: {}", msgs.join("; "))
    })?;
    casted_passes::prepare(&module, spec.scheme, &config)
        .map_err(|e| format!("prepare failed: {e}"))
}

/// *Compile* request: frontend + full back end, no simulation.
pub fn compile_stats(spec: &JobSpec) -> Result<CompileReply, String> {
    compile_stats_with(spec, None)
}

/// [`compile_stats`], optionally through the staged artifact pipeline.
pub fn compile_stats_with(
    spec: &JobSpec,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<CompileReply, String> {
    let prep = prepare_via(spec, pipeline)?;
    let growth = prep.ed_stats.as_ref().map(|s| s.growth()).unwrap_or(1.0);
    Ok(CompileReply {
        bundles: prep.sp.bundle_count() as u64,
        nop_slots: prep.sp.nop_slots() as u64,
        cross_cluster_edges: prep.sp.cross_cluster_edges() as u64,
        spilled: prep.spilled as u64,
        code_growth_permille: (growth * 1000.0).round() as u64,
        occupancy: prep.sp.cluster_occupancy().iter().map(|&n| n as u64).collect(),
    })
}

/// *Simulate* request: fault-free cycle-accurate run under a cycle
/// deadline. A run that has not halted within `max_cycles` returns
/// `Err` — the deadline is the simulator's own step limit, so an
/// adversarial infinite loop costs a bounded amount of work.
///
/// Runs **quiet** ([`simulate_quiet`]): a serving hot path would drown
/// the per-run `sim.*` counters, and keeping them out preserves the
/// deterministic counter-snapshot contract (`docs/OBSERVABILITY.md`).
pub fn simulate_stats(spec: &JobSpec, max_cycles: u64) -> Result<SimulateReply, String> {
    simulate_stats_with(spec, max_cycles, None)
}

/// [`simulate_stats`], optionally through the staged artifact pipeline:
/// the compile half is memoized, the simulation always runs fresh.
pub fn simulate_stats_with(
    spec: &JobSpec,
    max_cycles: u64,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<SimulateReply, String> {
    let prep = prepare_via(spec, pipeline)?;
    let r = simulate_quiet(
        &prep.sp,
        &SimOptions {
            max_cycles,
            injection: None,
            ..SimOptions::default()
        },
    );
    match r.stop {
        StopReason::Halt(code) => Ok(SimulateReply {
            cycles: r.stats.cycles,
            dyn_insns: r.stats.dyn_insns,
            bundles: r.stats.bundles,
            stall_cycles: r.stats.stall_cycles,
            cross_reads: r.stats.cross_reads,
            exit_code: code,
            stream_len: r.stream.len() as u64,
            stream_digest: stream_digest(&r.stream),
        }),
        StopReason::Timeout => Err(format!(
            "deadline exceeded: program did not halt within {max_cycles} cycles"
        )),
        StopReason::Detected => Err("fault-free run took a br.detect exit".into()),
        StopReason::Exception(e) => Err(format!("fault-free run raised an exception: {e:?}")),
    }
}

/// *Inject* request: prepare `spec` and run a Monte-Carlo fault
/// campaign of `trials` trials from `seed` on `runner`, optionally
/// through the staged artifact pipeline.
///
/// The campaign's own fault-free run is bounded by the request's cycle
/// deadline, the same one [`simulate_stats`] applies: a
/// non-terminating or trapping program is refused with
/// [`Campaign::refusal`]'s text, never a worker panic. Every runner
/// gives the same reply (the byte-identical-tally contract), so a
/// streamed reply, a reply recombined from a section store and a
/// one-shot reply on either engine are indistinguishable — which is
/// what lets `casted-serve` stream long campaigns and answer misses
/// from its section store under its exact-reply cache. A runner that
/// reports progress and cancels comes back with fewer than `trials`
/// trials: the prefix campaign's exact reply.
pub fn inject(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    max_cycles: u64,
    runner: Runner<'_>,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<InjectReply, String> {
    let prep = prepare_via(spec, pipeline)?;
    let config = CampaignConfig {
        trials: trials as usize,
        seed,
        replay_detect: spec.scheme.replay_detect(),
        ..Default::default()
    };
    let mut campaign = Campaign { max_cycles, ..Campaign::new(&prep.sp, config).on(runner) };
    let r = run(&mut campaign).map_err(|stop| campaign.refusal(&stop))?;
    Ok(reply_of(&r))
}

/// [`inject`] on `engine` without a pipeline. Exists only for
/// perfbench, which calls it, until perfbench moves to [`inject`].
pub fn inject_tally(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    engine: Engine,
    max_cycles: u64,
) -> Result<InjectReply, String> {
    inject(spec, trials, seed, max_cycles, engine.into(), None)
}

/// [`inject`] through the section store at `section_cache`, opened for
/// this one request. Exists only for perfbench, which calls it, until
/// perfbench moves to [`inject`].
pub fn inject_tally_incremental_with(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    section_cache: &std::path::Path,
    max_cycles: u64,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<InjectReply, String> {
    let store = ArtifactStore::open(section_cache)
        .map_err(|e| format!("cannot open section cache {}: {e}", section_cache.display()))?;
    inject(spec, trials, seed, max_cycles, Runner::Sections(&store), pipeline)
}

fn reply_of(r: &CampaignResult) -> InjectReply {
    InjectReply {
        trials: r.tally.total() as u64,
        counts: r.tally.counts.map(|c| c as u64),
        golden_cycles: r.golden_cycles,
        golden_dyn: r.golden_dyn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_faults::{Progress, Tally};

    const SRC: &str = "fn main() { var s: int = 0; for i in 0..50 { s = s + i * i; } out(s); }";

    fn spec(scheme: Scheme) -> JobSpec {
        JobSpec {
            source: SRC.into(),
            scheme,
            issue: 2,
            delay: 2,
        }
    }

    #[test]
    fn compile_stats_reports_schedule_shape() {
        let noed = compile_stats(&spec(Scheme::Noed)).unwrap();
        let casted = compile_stats(&spec(Scheme::Casted)).unwrap();
        assert!(noed.bundles > 0);
        assert_eq!(noed.code_growth_permille, 1000, "NOED never grows code");
        assert!(casted.code_growth_permille > 1000, "ED must replicate code");
        assert_eq!(noed.occupancy.len(), 2);
    }

    #[test]
    fn simulate_stats_matches_the_facade_measurement() {
        let s = spec(Scheme::Casted);
        let reply = simulate_stats(&s, u64::MAX).unwrap();
        let module = crate::compile("t", SRC).unwrap();
        let prep = crate::build(&module, Scheme::Casted, &MachineConfig::itanium2_like(2, 2)).unwrap();
        let r = crate::measure(&prep);
        assert_eq!(reply.cycles, r.stats.cycles);
        assert_eq!(reply.dyn_insns, r.stats.dyn_insns);
        assert_eq!(reply.stream_digest, stream_digest(&r.stream));
        assert_eq!(reply.exit_code, 0);
    }

    #[test]
    fn deadline_is_an_err_not_a_panic() {
        let err = simulate_stats(&spec(Scheme::Noed), 3).unwrap_err();
        assert!(err.contains("deadline exceeded"), "{err}");
    }

    #[test]
    fn bad_source_and_bad_machine_are_errs() {
        let mut s = spec(Scheme::Noed);
        s.source = "fn main( {".into();
        assert!(compile_stats(&s).unwrap_err().contains("compile failed"));
        let mut s = spec(Scheme::Noed);
        s.issue = 0;
        assert!(compile_stats(&s).unwrap_err().contains("issue width"));
        let mut s = spec(Scheme::Noed);
        s.delay = MAX_DELAY + 1;
        assert!(compile_stats(&s).unwrap_err().contains("delay"));
    }

    #[test]
    fn inject_tally_is_deterministic_and_engine_independent() {
        let s = spec(Scheme::Casted);
        let a = inject(&s, 40, 7, u64::MAX, Engine::Checkpointed.into(), None).unwrap();
        let b = inject(&s, 40, 7, u64::MAX, Engine::Checkpointed.into(), None).unwrap();
        assert_eq!(a, b);
        let r = inject(&s, 40, 7, u64::MAX, Runner::Reference, None).unwrap();
        assert_eq!(a, r, "engines must agree field for field");
        assert_eq!(a, inject_tally(&s, 40, 7, Engine::Reference, u64::MAX).unwrap());
        assert_eq!(a.trials, 40);
        assert_eq!(a.counts.iter().sum::<u64>(), 40);
    }

    /// Streaming replies must be indistinguishable from one-shot
    /// replies at the facade level too: same final struct, and a
    /// cancelled stream's reply is a real prefix.
    #[test]
    fn inject_stream_matches_one_shot_and_cancels_exactly() {
        let s = spec(Scheme::Casted);
        let mut updates: Vec<(u64, [usize; 6])> = Vec::new();
        let report = Box::new(|done, t: &Tally| {
            updates.push((done, t.counts));
            true
        });
        let streamed = Runner::Checkpointed(Some(Progress { chunk: 16, report }));
        let reply = inject(&s, 40, 7, u64::MAX, streamed, None).unwrap();
        assert_eq!(reply, inject(&s, 40, 7, u64::MAX, Runner::Reference, None).unwrap());
        assert_eq!(updates.iter().map(|(d, _)| *d).collect::<Vec<_>>(), vec![16, 32]);

        let cancelled = Progress { chunk: 16, report: Box::new(|_, _| false) };
        let partial =
            inject(&s, 40, 7, u64::MAX, Runner::Checkpointed(Some(cancelled)), None).unwrap();
        assert_eq!(partial.trials, 16);
        assert_eq!(partial, inject(&s, 16, 7, u64::MAX, Runner::Reference, None).unwrap());
    }

    /// The serve-facing exactness contract: the incremental path's
    /// reply is byte-identical to every engine's, cold and warm — a
    /// cached serve reply computed cold can be reproduced through the
    /// section cache and nobody can tell the difference.
    #[test]
    fn inject_tally_incremental_matches_engines_cold_and_warm() {
        let s = spec(Scheme::Casted);
        let dir = std::env::temp_dir().join(format!("casted-api-sect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = inject_tally_incremental_with(&s, 40, 7, &dir, u64::MAX, None).unwrap();
        let full = inject(&s, 40, 7, u64::MAX, Runner::Reference, None).unwrap();
        assert_eq!(cold, full, "incremental reply diverged from the engines");
        let warm = inject_tally_incremental_with(&s, 40, 7, &dir, u64::MAX, None).unwrap();
        assert_eq!(warm, cold, "warm recombination changed the reply");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A target that runs past any small bound.
    fn non_halting() -> JobSpec {
        let mut s = spec(Scheme::Noed);
        s.source = "fn main() { var x: int = 1; for i in 0..1000000 { x = x + i; } out(x); }".into();
        s
    }

    /// The refusal every inject path gives a target that does not halt
    /// within its bound, word for word.
    const REFUSED_100: &str = "campaign target must halt fault-free within 100 cycles, got Timeout";

    #[test]
    fn inject_incremental_screens_non_halting_targets() {
        let dir = std::env::temp_dir().join(format!("casted-api-screen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err =
            inject_tally_incremental_with(&non_halting(), 10, 1, &dir, 100, None).unwrap_err();
        assert_eq!(err, REFUSED_100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inject_screens_non_halting_targets() {
        for engine in [Engine::Checkpointed, Engine::Reference] {
            let err = inject(&non_halting(), 10, 1, 100, engine.into(), None).unwrap_err();
            assert_eq!(err, REFUSED_100, "{engine:?}");
        }
        let streamed = Progress { chunk: 4, report: Box::new(|_, _| true) };
        let err = inject(&non_halting(), 10, 1, 100, Runner::Checkpointed(Some(streamed)), None)
            .unwrap_err();
        assert_eq!(err, REFUSED_100);
    }

    /// A warm section store proves the target halts within its recorded
    /// `golden_cycles`, not within a tighter bound: under one, the cold
    /// path's bounded golden run must refuse the target as it would
    /// without the store.
    #[test]
    fn warm_incremental_refuses_a_bound_below_the_recorded_golden_cycles() {
        let s = spec(Scheme::Casted);
        let dir = std::env::temp_dir().join(format!("casted-api-warmbound-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = inject_tally_incremental_with(&s, 20, 3, &dir, u64::MAX, None).unwrap();
        assert!(cold.golden_cycles > 100, "the bound below must cut the run short");
        let err = inject_tally_incremental_with(&s, 20, 3, &dir, 100, None).unwrap_err();
        assert_eq!(err, REFUSED_100);
        // At exactly the recorded length the warm path still answers.
        let warm =
            inject_tally_incremental_with(&s, 20, 3, &dir, cold.golden_cycles, None).unwrap();
        assert_eq!(warm, cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_digest_separates_types_and_orders() {
        let a = stream_digest(&[OutVal::Int(1), OutVal::Int(2)]);
        let b = stream_digest(&[OutVal::Int(2), OutVal::Int(1)]);
        let c = stream_digest(&[OutVal::Float(f64::from_bits(1)), OutVal::Int(2)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, stream_digest(&[OutVal::Int(1), OutVal::Int(2)]));
    }
}

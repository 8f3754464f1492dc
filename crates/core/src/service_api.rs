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
//! * [`inject_tally`] — source → Monte-Carlo fault campaign on either
//!   engine (PR 4's checkpointed engine by default).
//!
//! Everything is a total function from request to
//! `Result<Reply, String>`: bad source, bad machine parameters, or a
//! run that blows its deadline come back as `Err`, never as a panic —
//! a service worker must survive arbitrary client input. Replies carry
//! **integers only** (floats are scaled to permille), so their wire
//! encoding is byte-stable and a cached reply is provably identical to
//! a recomputed one — the property `casted-serve`'s content-addressed
//! cache rests on (see `docs/SERVING.md`).

use casted_faults::{run_campaign_engine, run_campaign_incremental, CampaignConfig, Engine, Outcome};
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
    /// Outcome counts in [`Outcome::ALL`] order.
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

/// The preamble every inject request shares: prepare `spec`, screen
/// the target, and build the campaign configuration.
///
/// The campaign engines `assert!` the golden run halts, so the target
/// is pre-screened here under the same cycle deadline as
/// [`simulate_stats`] — a non-terminating or trapping program is an
/// `Err` reply, not a worker panic.
fn inject_setup(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    max_cycles: u64,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<(casted_passes::Prepared, CampaignConfig), String> {
    let prep = prepare_via(spec, pipeline)?;
    let screen = simulate_quiet(
        &prep.sp,
        &SimOptions {
            max_cycles,
            injection: None,
            ..SimOptions::default()
        },
    );
    if !matches!(screen.stop, StopReason::Halt(_)) {
        return Err(format!(
            "campaign target must halt fault-free within {max_cycles} cycles, got {:?}",
            screen.stop
        ));
    }
    let cfg = CampaignConfig {
        trials: trials as usize,
        seed,
        replay_detect: spec.scheme.replay_detect(),
        ..Default::default()
    };
    Ok((prep, cfg))
}

/// *Inject* request: Monte-Carlo fault campaign with an explicit
/// engine, trial count and seed. The target is screened first (see
/// `inject_setup`).
pub fn inject_tally(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    engine: Engine,
    max_cycles: u64,
) -> Result<InjectReply, String> {
    inject_tally_with(spec, trials, seed, engine, max_cycles, None)
}

/// [`inject_tally`], optionally through the staged artifact pipeline.
pub fn inject_tally_with(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    engine: Engine,
    max_cycles: u64,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<InjectReply, String> {
    let (prep, cfg) = inject_setup(spec, trials, seed, max_cycles, pipeline)?;
    Ok(reply_of(&run_campaign_engine(&prep.sp, &cfg, engine)))
}

/// [`inject_tally`] in streaming form: the campaign runs in chunks of
/// `every` trials, reporting the running `(done, counts)` tally to
/// `progress` at each chunk boundary short of the total; returning
/// `false` cancels the campaign. The result's `completed` flag says
/// whether every trial ran.
///
/// Exactness (from [`casted_faults::run_campaign_streaming`]): a
/// completed streaming reply equals [`inject_tally`] under any engine
/// field for field, and a partial tally at `done = M` equals
/// [`inject_tally`] with `trials = M` — so `casted-serve` can stream
/// long campaigns and still promise byte-identical terminal frames.
pub fn inject_stream_with(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    max_cycles: u64,
    every: u64,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
    progress: &mut dyn FnMut(u64, &[u64; 6]) -> bool,
) -> Result<(InjectReply, bool), String> {
    let (prep, cfg) = inject_setup(spec, trials, seed, max_cycles, pipeline)?;
    let (r, completed) = casted_faults::run_campaign_streaming(
        &prep.sp,
        &cfg,
        every.max(1) as usize,
        &mut |done, tally| {
            let mut counts = [0u64; 6];
            for o in Outcome::ALL {
                counts[o.index()] = tally.count(o) as u64;
            }
            progress(done, &counts)
        },
    );
    Ok((reply_of(&r), completed))
}

/// [`inject_tally_incremental_in`] on the section store at
/// `section_cache`, opened for this one request. Long-lived hosts
/// (`casted-serve`) open the store once and call the `_in` form.
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
    inject_tally_incremental_in(spec, trials, seed, &store, max_cycles, pipeline)
}

/// [`inject_tally`] through the compositional section cache: the
/// campaign keys each golden-trace section into `store`, so a repeat
/// request — or a request for an *edited* program sharing most
/// sections — recombines cached section evidence and re-injects only
/// what changed. The reply is byte-identical to [`inject_tally`] on
/// any engine (the recombination exactness guarantee,
/// `docs/INCREMENTAL.md`), which is what lets `casted-serve`
/// substitute this path under its exact-reply cache: whole-request
/// hits still come from the reply cache, and misses now degrade to
/// *partial* section hits instead of cold campaigns. An optional
/// staged artifact pipeline composes with it: compile artifacts
/// memoize the front half, section evidence memoizes the campaign.
pub fn inject_tally_incremental_in(
    spec: &JobSpec,
    trials: u64,
    seed: u64,
    store: &ArtifactStore,
    max_cycles: u64,
    pipeline: Option<&crate::stages::ArtifactPipeline>,
) -> Result<InjectReply, String> {
    let (prep, cfg) = inject_setup(spec, trials, seed, max_cycles, pipeline)?;
    Ok(reply_of(&run_campaign_incremental(&prep.sp, &cfg, store)))
}

fn reply_of(r: &casted_faults::CampaignResult) -> InjectReply {
    let mut counts = [0u64; 6];
    for o in Outcome::ALL {
        counts[o.index()] = r.tally.count(o) as u64;
    }
    InjectReply {
        trials: r.tally.total() as u64,
        counts,
        golden_cycles: r.golden_cycles,
        golden_dyn: r.golden_dyn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = inject_tally(&s, 40, 7, Engine::Checkpointed, u64::MAX).unwrap();
        let b = inject_tally(&s, 40, 7, Engine::Checkpointed, u64::MAX).unwrap();
        assert_eq!(a, b);
        let r = inject_tally(&s, 40, 7, Engine::Reference, u64::MAX).unwrap();
        assert_eq!(a, r, "engines must agree field for field");
        assert_eq!(a.trials, 40);
        assert_eq!(a.counts.iter().sum::<u64>(), 40);
    }

    /// Streaming replies must be indistinguishable from one-shot
    /// replies at the facade level too: same final struct, and a
    /// cancelled stream's last progress tally is a real prefix.
    #[test]
    fn inject_stream_matches_one_shot_and_cancels_exactly() {
        let s = spec(Scheme::Casted);
        let mut updates: Vec<(u64, [u64; 6])> = Vec::new();
        let (reply, completed) =
            inject_stream_with(&s, 40, 7, u64::MAX, 16, None, &mut |done, counts| {
                updates.push((done, *counts));
                true
            })
            .unwrap();
        assert!(completed);
        assert_eq!(reply, inject_tally(&s, 40, 7, Engine::Reference, u64::MAX).unwrap());
        assert_eq!(updates.iter().map(|(d, _)| *d).collect::<Vec<_>>(), vec![16, 32]);

        let (partial, completed) =
            inject_stream_with(&s, 40, 7, u64::MAX, 16, None, &mut |_, _| false).unwrap();
        assert!(!completed);
        assert_eq!(partial, inject_tally(&s, 16, 7, Engine::Reference, u64::MAX).unwrap());
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
        let full = inject_tally(&s, 40, 7, Engine::Reference, u64::MAX).unwrap();
        assert_eq!(cold, full, "incremental reply diverged from the engines");
        let warm = inject_tally_incremental_with(&s, 40, 7, &dir, u64::MAX, None).unwrap();
        assert_eq!(warm, cold, "warm recombination changed the reply");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inject_incremental_screens_non_halting_targets() {
        let mut s = spec(Scheme::Noed);
        s.source = "fn main() { var x: int = 1; for i in 0..1000000 { x = x + i; } out(x); }".into();
        let dir = std::env::temp_dir().join(format!("casted-api-screen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = inject_tally_incremental_with(&s, 10, 1, &dir, 100, None).unwrap_err();
        assert!(err.contains("must halt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inject_screens_non_halting_targets() {
        let mut s = spec(Scheme::Noed);
        s.source = "fn main() { var x: int = 1; for i in 0..1000000 { x = x + i; } out(x); }".into();
        let err = inject_tally(&s, 10, 1, Engine::Checkpointed, 100).unwrap_err();
        assert!(err.contains("must halt"), "{err}");
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

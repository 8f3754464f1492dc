//! The per-case oracle stack: run one generated module through every
//! pipeline stage and cross-check each stage against the reference
//! interpreter (see the crate docs for the layer list).

use casted_faults::{Campaign, CampaignConfig, CampaignResult, Engine, Outcome, Runner};
use casted_ir::insn::Provenance;
use casted_ir::interp::{self, ExecResult, OutVal, StopReason};
use casted_ir::testgen;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{verify, MachineConfig, Module};
use casted_passes::errordetect::{error_detection_with, EdOptions};
use casted_passes::ifconvert::if_convert;
use casted_passes::pipeline::{prepare, prepare_custom, Prepared, PrepareOptions, Scheme};
use casted_passes::schedule::{candidates, Placement};
use casted_passes::stages::{encode_ra_artifact, module_content_key, prepare_staged, StageStats};
use casted_util::store::ArtifactStore;
use casted_sim::{cost_schedules, simulate, Injection, SimOptions, SimResult, TimingView};
use casted_util::hash::Fnv64;
use casted_util::Rng;

use crate::{CaseConfig, GRID, STEP_LIMIT, STEP_LIMIT_XFORM};

/// Domain-separation salt for the fault-probe draws, so probe sites
/// are independent of the generator's own stream.
const PROBE_SALT: u64 = 0x5EED_FA17_0B5E_55ED;

/// Domain-separation salt for the campaign seed of the
/// engine-equivalence layer, so its injection stream is independent of
/// both the generator's stream and the probe layer's.
const ENGINE_SALT: u64 = 0xC8EC_4901_D0C7_0A7E;

/// Monte-Carlo trials per scheme in the engine-equivalence layer.
/// Small on purpose: the layer checks that the two campaign engines
/// agree byte for byte, not coverage statistics, and generated cases
/// make a fresh campaign pair per ED scheme per case.
const ENGINE_TRIALS: usize = 16;

/// Cycle watchdog for simulated runs (generated cases are tiny; a
/// healthy run is a few thousand cycles).
const SIM_MAX_CYCLES: u64 = 50_000_000;

/// Test-only instrumentation points. `post_ed` runs on the module
/// right after the error-detection pass (before scheduling) for every
/// ED scheme and variant — the difftest self-tests use it to sabotage
/// the pass and prove the oracle catches it. `walked` runs on every
/// candidate schedule the costing-walk layer walks, before its timing
/// view is built, to sabotage the walk the same way. `probes` is the
/// number of targeted fault injections aimed per probed scheme.
#[derive(Clone, Copy)]
pub struct Hooks {
    /// Mutation applied after error detection (None in production).
    pub post_ed: Option<fn(&mut Module)>,
    /// Mutation applied to each walked candidate (None in production).
    pub walked: Option<fn(&mut ScheduledProgram)>,
    /// Fault probes per ED scheme on library-free cases.
    pub probes: usize,
}

impl Default for Hooks {
    fn default() -> Self {
        Hooks {
            post_ed: None,
            walked: None,
            probes: 8,
        }
    }
}

/// A failed oracle check: which stage diverged, and how. Rendered by
/// the suite runner next to the case's `REPLAY` line.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Stage label (e.g. `sim:CASTED:iw2d2`) — goes into the replay
    /// line's `stage=` token.
    pub stage: String,
    /// Human-readable explanation of the mismatch.
    pub detail: String,
}

impl Divergence {
    fn new(stage: impl Into<String>, detail: impl Into<String>) -> Self {
        Divergence {
            stage: stage.into(),
            detail: detail.into(),
        }
    }
}

/// Per-case summary on success.
#[derive(Clone, Copy, Debug)]
pub struct CaseReport {
    /// Number of oracle checks that passed.
    pub stages: usize,
    /// Fault probes executed (0 for library-carrying cases).
    pub probes: usize,
    /// FNV-1a digest of the case's observable behaviour (golden
    /// stream + per-scheme cycle counts) — pins run-to-run determinism
    /// in the suite log.
    pub digest: u64,
}

/// [`run_case_with`] with default (production) hooks.
pub fn run_case(cfg: &CaseConfig) -> Result<CaseReport, Divergence> {
    run_case_with(cfg, &Hooks::default())
}

fn stream_eq(a: &[OutVal], b: &[OutVal]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
}

fn fmt_stop(s: &StopReason) -> String {
    format!("{s:?}")
}

fn hash_stream(h: &mut Fnv64, stream: &[OutVal]) {
    for v in stream {
        match v {
            OutVal::Int(i) => {
                h.write_u8(0);
                h.write_u64(*i as u64);
            }
            OutVal::Float(f) => {
                h.write_u8(1);
                h.write_u64(f.to_bits());
            }
        }
    }
}

/// Interpret `m` and require bit-exact agreement with `golden`.
fn check_interp(
    m: &Module,
    golden: &ExecResult,
    limit: u64,
    stage: &str,
) -> Result<ExecResult, Divergence> {
    verify::verify_module(m)
        .map_err(|e| Divergence::new(stage, format!("module fails verification: {e:?}")))?;
    let r = interp::run(m, limit).map_err(|e| Divergence::new(stage, format!("interp: {e}")))?;
    if r.stop != golden.stop {
        return Err(Divergence::new(
            stage,
            format!(
                "stop reason diverged: golden {} vs {}",
                fmt_stop(&golden.stop),
                fmt_stop(&r.stop)
            ),
        ));
    }
    if !stream_eq(&r.stream, &golden.stream) {
        return Err(Divergence::new(
            stage,
            format!(
                "output stream diverged: golden {} values vs {} ({:?}... vs {:?}...)",
                golden.stream.len(),
                r.stream.len(),
                golden.stream.first(),
                r.stream.first()
            ),
        ));
    }
    Ok(r)
}

/// Build the simulator-ready program for `scheme`, routing ED through
/// the hook point so self-tests can sabotage the pass output.
fn build_scheme(
    m: &Module,
    scheme: Scheme,
    mc: &MachineConfig,
    hooks: &Hooks,
) -> Result<Prepared, String> {
    let opts = PrepareOptions::default();
    if scheme.has_error_detection() {
        let mut mm = m.clone();
        error_detection_with(&mut mm, &EdOptions::default());
        if let Some(h) = hooks.post_ed {
            h(&mut mm);
        }
        prepare_custom(&mm, scheme, None, scheme.placement(), mc, &opts)
    } else {
        prepare_custom(m, scheme, None, scheme.placement(), mc, &opts)
    }
}

/// Run every oracle layer for one case. Returns the first divergence
/// found (stage labels are stable, so a failure is reproducible from
/// its replay line alone).
pub fn run_case_with(cfg: &CaseConfig, hooks: &Hooks) -> Result<CaseReport, Divergence> {
    let mut stages = 0usize;
    let mut digest = Fnv64::new();

    // Layer 1: generate, verify, establish the golden behaviour.
    let m = testgen::random_module(cfg.seed, &cfg.gen);
    verify::verify_module(&m)
        .map_err(|e| Divergence::new("verify", format!("generated module invalid: {e:?}")))?;
    stages += 1;
    let golden = interp::run(&m, STEP_LIMIT)
        .map_err(|e| Divergence::new("interp", format!("golden run failed: {e}")))?;
    if golden.stop != StopReason::Halt(0) {
        return Err(Divergence::new(
            "interp",
            format!("golden run did not halt cleanly: {}", fmt_stop(&golden.stop)),
        ));
    }
    if golden.stream.is_empty() {
        return Err(Divergence::new("interp", "golden run produced no output"));
    }
    stages += 1;
    hash_stream(&mut digest, &golden.stream);
    digest.write_u64(golden.dyn_insns);

    // Layer 2: if-conversion preserves semantics.
    {
        let mut c = m.clone();
        let converted = if_convert(&mut c);
        check_interp(&c, &golden, STEP_LIMIT_XFORM, "ifconvert")?;
        digest.write_u64(converted as u64);
        stages += 1;
    }

    // Layer 3: all error-detection variants preserve semantics and
    // leave the protection structure in place.
    let ed_variants: [(&str, EdOptions); 3] = [
        ("default", EdOptions::default()),
        (
            "fused",
            EdOptions {
                fused_checks: true,
                ..EdOptions::default()
            },
        ),
        (
            "selective",
            EdOptions {
                selective: true,
                ..EdOptions::default()
            },
        ),
    ];
    for (label, eopts) in &ed_variants {
        let mut c = m.clone();
        let st = error_detection_with(&mut c, eopts);
        if let Some(h) = hooks.post_ed {
            h(&mut c);
        }
        check_interp(&c, &golden, STEP_LIMIT_XFORM, &format!("ed:{label}"))?;
        stages += 1;

        // Structure check: the transformed module must actually carry
        // duplicates and checks (an "ED pass" that silently deletes
        // its own protection still passes the semantic diff — zero
        // faults means checks never fire — so presence is asserted
        // separately).
        let f = c.entry_fn();
        let (mut dup, mut chk) = (0usize, 0usize);
        for blk in &f.blocks {
            for &id in &blk.insns {
                match f.insn(id).prov {
                    Provenance::Duplicate => dup += 1,
                    Provenance::CheckCmp | Provenance::CheckBr => chk += 1,
                    _ => {}
                }
            }
        }
        let stage = format!("ed-structure:{label}");
        if st.replicated > 0 && dup == 0 {
            return Err(Divergence::new(
                &stage,
                format!("pass reported {} replicated insns but module carries none", st.replicated),
            ));
        }
        if chk == 0 {
            return Err(Divergence::new(
                &stage,
                "error-detected module carries no check instructions",
            ));
        }
        stages += 1;
    }

    // Layers 4–5: full back end (BUG/schedule/spill/physreg) per
    // scheme per grid point; the scheduled module re-interprets to the
    // golden stream and the cycle-accurate simulator agrees with the
    // interpreter. The NOED sim result per grid point doubles as the
    // zero-fault baseline for the ED schemes.
    let mut probe_targets: Vec<(Scheme, Prepared)> = Vec::new();
    for &(iw, delay) in GRID.iter() {
        let mc = MachineConfig::itanium2_like(iw, delay);
        let grid_tag = format!("iw{iw}d{delay}");
        let mut noed_stream: Option<Vec<OutVal>> = None;
        for scheme in Scheme::ALL {
            let stage = format!("{scheme}:{grid_tag}");
            let prep = build_scheme(&m, scheme, &mc, hooks)
                .map_err(|e| Divergence::new(format!("prepare:{stage}"), e))?;
            prep.sp
                .validate()
                .map_err(|e| Divergence::new(format!("prepare:{stage}"), format!("schedule invalid: {e:?}")))?;
            stages += 1;

            check_interp(
                &prep.sp.module,
                &golden,
                STEP_LIMIT_XFORM,
                &format!("interp-stage:{stage}"),
            )?;
            stages += 1;

            let sim = simulate(
                &prep.sp,
                &SimOptions {
                    max_cycles: SIM_MAX_CYCLES,
                    injection: None,
                    ..SimOptions::default()
                },
            );
            if sim.stop != golden.stop || !stream_eq(&sim.stream, &golden.stream) {
                return Err(Divergence::new(
                    format!("sim:{stage}"),
                    format!(
                        "simulator diverged from interpreter: stop {} vs {}, {} vs {} outputs",
                        fmt_stop(&sim.stop),
                        fmt_stop(&golden.stop),
                        sim.stream.len(),
                        golden.stream.len()
                    ),
                ));
            }
            stages += 1;
            digest.write_u64(sim.stats.cycles);
            digest.write_u64(sim.stats.dyn_insns);

            // Zero-fault invariant: ED binaries emit the same bits as
            // the NOED baseline on the same machine.
            match scheme {
                Scheme::Noed => noed_stream = Some(sim.stream.clone()),
                _ => {
                    let base = noed_stream.as_ref().expect("NOED runs first");
                    if !stream_eq(&sim.stream, base) {
                        return Err(Divergence::new(
                            format!("zerofault:{stage}"),
                            "ED output differs from NOED under zero faults",
                        ));
                    }
                    stages += 1;
                }
            }

            if scheme.placement().is_adaptive() {
                walk_layer(&prep, scheme, hooks, &format!("walk:{stage}"))?;
                stages += 1;
            }

            // Keep the balanced grid point's ED programs for probing.
            if (iw, delay) == (2, 2) && scheme.has_error_detection() {
                probe_targets.push((scheme, prep));
            }
        }
    }

    // Layer 6: targeted fault probes — only meaningful when no
    // library code is present (library code is deliberately
    // unprotected; see testgen docs).
    let mut probes = 0usize;
    if cfg.gen.lib_calls == 0 && hooks.probes > 0 {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ PROBE_SALT);
        for (scheme, prep) in &probe_targets {
            probes += probe_scheme(cfg, *scheme, prep, hooks.probes, &mut rng)?;
        }
        stages += probe_targets.len();
    }

    // Layer 7: campaign-engine equivalence — the checkpointed
    // fault-injection engine (snapshots, fast-forward replay,
    // convergence pruning) must produce a tally byte-identical to the
    // reference engine's from the same seed, on every ED program kept
    // from the balanced grid point. This holds for library-carrying
    // cases too (equivalence is about the engines, not coverage), so
    // it is not gated like the probe layer.
    for (scheme, prep) in &probe_targets {
        let stage = format!("engines:{scheme}:iw2d2");
        let ccfg = CampaignConfig {
            trials: ENGINE_TRIALS,
            seed: cfg.seed ^ ENGINE_SALT,
            ..Default::default()
        };
        let reference = campaign(&prep.sp, &ccfg, Engine::Reference);
        let checkpointed = campaign(&prep.sp, &ccfg, Engine::Checkpointed);
        if reference.tally != checkpointed.tally {
            return Err(Divergence::new(
                stage,
                format!(
                    "campaign engines diverged over {ENGINE_TRIALS} trials: reference {:?} vs checkpointed {:?} (pruned {}, skipped {} insns)",
                    reference.tally.counts,
                    checkpointed.tally.counts,
                    checkpointed.engine.pruned_trials,
                    checkpointed.engine.skipped_insns,
                ),
            ));
        }
        for c in reference.tally.counts {
            digest.write_u64(c as u64);
        }
        stages += 1;

        // Layer 8: incremental-campaign exactness — the compositional
        // section-cache campaign must recombine to the same tally
        // bytes as the engines, cold (all sections freshly injected)
        // AND warm (all sections recombined from the store written by
        // the cold run). Each pass opens a fresh store handle, so the
        // warm pass reads the on-disk store, not the cold handle's
        // front cache. Only tallies are compared: a store that fails
        // to persist (full disk, read-only tmp) degrades to a cold
        // rerun, which is still required to be exact, not a
        // divergence.
        let stage = format!("sections:{scheme}:iw2d2");
        let dir = scratch_dir(&format!("difftest-sections-{:x}-{scheme}", cfg.seed));
        let _ = std::fs::remove_dir_all(&dir);
        let mut usable = true;
        for pass in ["cold", "warm"] {
            // No usable tmp dir on this host: skip the layer rather
            // than fail a case for an environment problem.
            let Ok(store) = ArtifactStore::open(&dir) else {
                usable = false;
                break;
            };
            let inc = campaign(&prep.sp, &ccfg, Runner::Sections(&store));
            if reference.tally != inc.tally {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(Divergence::new(
                    &stage,
                    format!(
                        "incremental ({pass}) recombination diverged over {ENGINE_TRIALS} trials: reference {:?} vs incremental {:?} (sections {:?}, case {})",
                        reference.tally.counts,
                        inc.tally.counts,
                        inc.engine.sections,
                        cfg.replay_line(None)
                    ),
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if usable {
            stages += 1;
        }
    }

    // Layer 9: staged-compile exactness — the memoized stage-graph
    // back end (docs/PIPELINE.md) run cold (fresh artifact store,
    // every stage computed and saved) and warm (every stage replayed
    // from the store) must both be byte-identical to the monolithic
    // `prepare` at the balanced grid point, for every scheme. Like
    // layer 8, an unusable tmp dir skips the layer rather than failing
    // the case for an environment problem.
    for scheme in Scheme::ALL {
        let stage = format!("stages:{scheme}:iw2d2");
        let mc = MachineConfig::itanium2_like(2, 2);
        let legacy = prepare(&m, scheme, &mc)
            .map_err(|e| Divergence::new(&stage, format!("monolithic prepare failed: {e}")))?;
        let reference = staged_fingerprint(&legacy);
        let dir = scratch_dir(&format!("difftest-stages-{:x}-{scheme}", cfg.seed));
        let _ = std::fs::remove_dir_all(&dir);
        if let Ok(store) = ArtifactStore::open(&dir) {
            let input = module_content_key(&m);
            let opts = PrepareOptions::default();
            for (pass, want_hits) in [("cold", 0u64), ("warm", 3u64)] {
                let mut stats = StageStats::default();
                let staged =
                    prepare_staged(&store, input, &m, scheme, &mc, &opts, &mut stats);
                let staged = match staged {
                    Ok(p) => p,
                    Err(e) => {
                        let _ = std::fs::remove_dir_all(&dir);
                        return Err(Divergence::new(
                            &stage,
                            format!("staged ({pass}) prepare failed: {e}"),
                        ));
                    }
                };
                if staged_fingerprint(&staged) != reference || stats.hit < want_hits {
                    let _ = std::fs::remove_dir_all(&dir);
                    return Err(Divergence::new(
                        &stage,
                        format!(
                            "staged ({pass}) compile diverged from monolithic prepare \
                             ({} hits / {} misses, case {})",
                            stats.hit,
                            stats.miss,
                            cfg.replay_line(None)
                        ),
                    ));
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            digest.write_u64(fnv1a_bytes(&reference.0));
            stages += 1;
        }
    }

    // Layer 10: recovery schemes (TMRED, RBED) at the balanced grid
    // point. Built through the production registry dispatch (`prepare`
    // — the sabotage hook targets the dup-compare pass and does not
    // apply here). Three checks per scheme:
    //
    //  * zero-fault equivalence — the scheduled program re-interprets
    //    and simulates to the golden stream (which layer 5 proved
    //    equal to the NOED baseline bit for bit);
    //  * engine agreement — both campaign engines produce the
    //    same tally with `replay_detect` wired per the registry;
    //  * targeted probes (library-free cases only) — strikes at
    //    `Provenance::Original` defs must never classify as silent
    //    corruption: TMRED repairs them in place (`Corrected`; a TMR
    //    binary has no detect branches, so `Detected` is equally a
    //    divergence), RBED reports them at a digest boundary.
    for scheme in [Scheme::Tmred, Scheme::Rbed] {
        let stage = format!("recovery:{scheme}:iw2d2");
        let mc = MachineConfig::itanium2_like(2, 2);
        let prep = prepare(&m, scheme, &mc)
            .map_err(|e| Divergence::new(format!("prepare:{stage}"), e))?;
        prep.sp
            .validate()
            .map_err(|e| Divergence::new(format!("prepare:{stage}"), format!("schedule invalid: {e:?}")))?;
        check_interp(
            &prep.sp.module,
            &golden,
            STEP_LIMIT_XFORM,
            &format!("interp-stage:{stage}"),
        )?;
        let sim = simulate(
            &prep.sp,
            &SimOptions {
                max_cycles: SIM_MAX_CYCLES,
                injection: None,
                ..SimOptions::default()
            },
        );
        if sim.stop != golden.stop || !stream_eq(&sim.stream, &golden.stream) {
            return Err(Divergence::new(
                format!("zerofault:{stage}"),
                format!(
                    "fault-free {scheme} run diverged from golden: stop {} vs {}, {} vs {} outputs",
                    fmt_stop(&sim.stop),
                    fmt_stop(&golden.stop),
                    sim.stream.len(),
                    golden.stream.len()
                ),
            ));
        }
        if sim.stats.corrections != 0 {
            return Err(Divergence::new(
                format!("zerofault:{stage}"),
                format!("fault-free run voted {} corrections", sim.stats.corrections),
            ));
        }
        stages += 1;
        digest.write_u64(sim.stats.cycles);
        if scheme.placement().is_adaptive() {
            walk_layer(&prep, scheme, hooks, &format!("walk:{scheme}:iw2d2"))?;
            stages += 1;
        }

        let ccfg = CampaignConfig {
            trials: ENGINE_TRIALS,
            seed: cfg.seed ^ ENGINE_SALT,
            replay_detect: scheme.replay_detect(),
            ..Default::default()
        };
        let reference = campaign(&prep.sp, &ccfg, Engine::Reference);
        let got = campaign(&prep.sp, &ccfg, Engine::Checkpointed);
        if reference.tally != got.tally {
            return Err(Divergence::new(
                format!("engines:{stage}"),
                format!(
                    "campaign engines diverged over {ENGINE_TRIALS} trials: reference {:?} vs checkpointed {:?}",
                    reference.tally.counts, got.tally.counts,
                ),
            ));
        }
        for c in reference.tally.counts {
            digest.write_u64(c as u64);
        }
        stages += 1;

        if cfg.gen.lib_calls == 0 && hooks.probes > 0 {
            probes += probe_recovery_scheme(cfg, scheme, &prep, hooks.probes)?;
            stages += 1;
        }
    }

    Ok(CaseReport {
        stages,
        probes,
        digest: digest.finish(),
    })
}

/// Layer-10 probe body: aim `count` single-bit strikes at
/// `Provenance::Original` defs of a recovery-scheme binary and require
/// that none escapes as silent corruption. For TMRED any `Detected`
/// outcome is also a divergence — the binary carries votes, not detect
/// branches, so a "detection" means a vote wrote a wrong majority that
/// something downstream then trapped on.
fn probe_recovery_scheme(
    cfg: &CaseConfig,
    scheme: Scheme,
    prep: &Prepared,
    count: usize,
) -> Result<usize, Divergence> {
    let stage = format!("probe:{scheme}:iw2d2");
    // Probe sites draw from a salted stream like the main probe layer,
    // further separated by scheme tag so TMRED and RBED (different
    // binaries) don't share site indices.
    let mut rng = Rng::seed_from_u64(cfg.seed ^ PROBE_SALT ^ (scheme as u64) << 32);
    let golden_sim = simulate(
        &prep.sp,
        &SimOptions {
            max_cycles: SIM_MAX_CYCLES,
            injection: None,
            ..SimOptions::default()
        },
    );
    let traced = simulate(
        &prep.sp,
        &SimOptions {
            max_cycles: SIM_MAX_CYCLES,
            trace_limit: golden_sim.stats.dyn_insns as usize,
            ..SimOptions::default()
        },
    );
    let f = prep.sp.module.entry_fn();
    let sites: Vec<u64> = traced
        .trace
        .iter()
        .enumerate()
        .filter_map(|(k, te)| {
            let insn = f.insn(te.insn);
            (insn.def().is_some() && insn.prov == Provenance::Original).then_some(k as u64 + 1)
        })
        .collect();
    if sites.is_empty() {
        return Err(Divergence::new(stage, "no Original-provenance defs to probe"));
    }
    let injections: Vec<Injection> = (0..count)
        .map(|_| {
            Injection::single(
                sites[rng.below(sites.len() as u64) as usize],
                rng.below(64) as u32,
                None,
            )
        })
        .collect();
    let max_cycles = golden_sim.stats.cycles.saturating_mul(10) + 10_000;
    let rbed = scheme
        .replay_detect()
        .then(|| casted_sim::rbed_plan(&prep.sp, golden_sim.stats.dyn_insns));
    for inj in &injections {
        let out = casted_faults::run_trial_with(
            &prep.sp,
            &golden_sim,
            *inj,
            max_cycles,
            rbed.as_ref(),
        );
        if out == Outcome::DataCorrupt
            || (scheme == Scheme::Tmred && out == Outcome::Detected)
        {
            return Err(Divergence::new(
                stage,
                format!(
                    "bit {} at dyn insn {} classified {out:?} under {scheme} (case {})",
                    inj.bit,
                    inj.at_dyn_insn,
                    cfg.replay_line(None)
                ),
            ));
        }
    }
    Ok(injections.len())
}

/// Costing-walk exactness: build the candidate schedules the adaptive
/// scheduler costs for `module` (each one after the first passed
/// through `walked`, if given, before its timing view is built), cost
/// them in one run (the first on the full simulator, the rest walked
/// through the timing rules alone) and require every candidate's
/// `SimStats` and stop to equal a full `simulate` of that candidate
/// under `max_cycles`, bit for bit. Returns the number of candidates,
/// or what differed.
pub fn check_walks(
    module: &Module,
    config: &MachineConfig,
    placement: Placement,
    walked: Option<fn(&mut ScheduledProgram)>,
    max_cycles: u64,
) -> Result<usize, String> {
    let cands = candidates(module, config, placement);
    let views: Vec<TimingView> = cands[1..]
        .iter()
        .map(|sp| match walked {
            Some(h) => {
                let mut sp = sp.clone();
                h(&mut sp);
                TimingView::new(&sp)
            }
            None => TimingView::new(sp),
        })
        .collect();
    let costed = cost_schedules(&cands[0], &views, max_cycles);
    let opts = SimOptions {
        max_cycles,
        ..SimOptions::default()
    };
    for (i, (sp, c)) in cands.iter().zip(&costed).enumerate() {
        let full = simulate(sp, &opts);
        if !c.as_ref().is_some_and(|c| c.stop == full.stop && c.stats == full.stats) {
            return Err(format!(
                "candidate {i} of {}: costed {c:?}, simulated {} {:?}",
                cands.len(),
                fmt_stop(&full.stop),
                full.stats
            ));
        }
    }
    Ok(cands.len())
}

/// [`check_walks`] over `prep`'s final module: the candidates the
/// scheduler costed for the program `prep` holds.
fn walk_layer(prep: &Prepared, scheme: Scheme, hooks: &Hooks, stage: &str) -> Result<(), Divergence> {
    let sp = &prep.sp;
    check_walks(&sp.module, &sp.config, scheme.placement(), hooks.walked, SIM_MAX_CYCLES)
        .map(|_| ())
        .map_err(|detail| Divergence::new(stage, detail))
}

/// `ccfg` over `sp` on `runner`. Every earlier layer saw the target
/// halt, so a refusal is a bug in the campaign runner: it panics.
pub(crate) fn campaign<'a>(
    sp: &'a casted_ir::vliw::ScheduledProgram,
    ccfg: &CampaignConfig,
    runner: impl Into<Runner<'a>>,
) -> CampaignResult {
    let mut c = Campaign::new(sp, ccfg.clone()).on(runner);
    casted_faults::run(&mut c).unwrap_or_else(|stop| panic!("{}", c.refusal(&stop)))
}

/// A fresh on-disk store directory for one store-backed check. The
/// process id and a per-process sequence number make it unique, so
/// checks of the same case running on parallel threads (the test
/// harness runs several suites at once) never share a store.
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("casted-{tag}-{}-{seq}", std::process::id()))
}

/// Canonical bytes of a `Prepared` — what "byte-identical" means for
/// the staged-compile layer (shared with the corpus's staged check).
pub(crate) fn staged_fingerprint(p: &Prepared) -> (Vec<u8>, usize, String, Vec<u8>) {
    (
        casted_ir::codec::encode_scheduled(&p.sp),
        p.spilled,
        format!("{:?}", p.ed_stats),
        encode_ra_artifact(&p.phys),
    )
}

fn fnv1a_bytes(b: &[u8]) -> u64 {
    casted_util::hash::fnv1a(b)
}

/// Aim `count` single-bit injections at `Provenance::Original`
/// instruction outputs of `prep` and require that none classifies as
/// silent data corruption: every protected-site fault must be masked,
/// detected, trapped or hung.
fn probe_scheme(
    cfg: &CaseConfig,
    scheme: Scheme,
    prep: &Prepared,
    count: usize,
    rng: &mut Rng,
) -> Result<usize, Divergence> {
    let stage = format!("probe:{scheme}:iw2d2");
    let golden_sim = simulate(
        &prep.sp,
        &SimOptions {
            max_cycles: SIM_MAX_CYCLES,
            injection: None,
            ..SimOptions::default()
        },
    );
    let traced = simulate(
        &prep.sp,
        &SimOptions {
            max_cycles: SIM_MAX_CYCLES,
            trace_limit: golden_sim.stats.dyn_insns as usize,
            ..SimOptions::default()
        },
    );
    let f = prep.sp.module.entry_fn();
    // Trace entry k is dynamic instruction k+1 (Injection.at_dyn_insn
    // is 1-based). Only defs of Original provenance are fair game:
    // those are the values the ED schemes promise to protect.
    let sites: Vec<u64> = traced
        .trace
        .iter()
        .enumerate()
        .filter_map(|(k, te)| {
            let insn = f.insn(te.insn);
            (insn.def().is_some() && insn.prov == Provenance::Original).then_some(k as u64 + 1)
        })
        .collect();
    if sites.is_empty() {
        return Err(Divergence::new(stage, "no Original-provenance defs to probe"));
    }
    let injections: Vec<Injection> = (0..count)
        .map(|_| {
            Injection::single(
                sites[rng.below(sites.len() as u64) as usize],
                rng.below(64) as u32,
                None,
            )
        })
        .collect();
    let max_cycles = golden_sim.stats.cycles.saturating_mul(10) + 10_000;
    let outcomes = casted_faults::run_trials(&prep.sp, &golden_sim, &injections, max_cycles);
    for (inj, out) in injections.iter().zip(&outcomes) {
        if *out == Outcome::DataCorrupt {
            return Err(Divergence::new(
                stage,
                format!(
                    "silent corruption: bit {} at dyn insn {} escaped detection (case {})",
                    inj.bit,
                    inj.at_dyn_insn,
                    cfg.replay_line(None)
                ),
            ));
        }
    }
    Ok(outcomes.len())
}

/// Re-run `sim` result comparison helper exposed for the corpus
/// runner: require simulator/interpreter agreement for an arbitrary
/// prepared program.
pub(crate) fn check_sim_against(
    sp_result: &SimResult,
    golden: &ExecResult,
    stage: &str,
) -> Result<(), Divergence> {
    if sp_result.stop != golden.stop || !stream_eq(&sp_result.stream, &golden.stream) {
        return Err(Divergence::new(
            stage,
            format!(
                "simulator diverged: stop {} vs {}",
                fmt_stop(&sp_result.stop),
                fmt_stop(&golden.stop)
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::testgen::GenOptions;

    fn small_case(seed: u64) -> CaseConfig {
        CaseConfig {
            seed,
            gen: GenOptions {
                body_ops: 12,
                iterations: 3,
                globals: 1,
                with_float: false,
                diamonds: 1,
                inner_loops: 1,
                lib_calls: 0,
            },
        }
    }

    #[test]
    fn clean_pipeline_has_no_divergence() {
        let rep = run_case(&small_case(1)).expect("clean case passes all oracles");
        assert!(rep.stages > 20, "expected the full stage stack, got {}", rep.stages);
        assert!(rep.probes > 0, "library-free case must be fault-probed");
    }

    #[test]
    fn case_reports_are_deterministic() {
        let a = run_case(&small_case(7)).unwrap();
        let b = run_case(&small_case(7)).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.stages, b.stages);
        assert_eq!(a.probes, b.probes);
    }

    #[test]
    fn library_cases_skip_probing() {
        let mut cfg = small_case(3);
        cfg.gen.lib_calls = 1;
        let rep = run_case(&cfg).unwrap();
        assert_eq!(rep.probes, 0);
    }
}

//! Property test for the compositional section-cache campaign
//! (`casted_faults::sections`): over random programs and random
//! edits, a recombined incremental tally is **byte-identical** to a
//! cold full campaign of the *current* program — on both
//! engines, whatever mix of cached and fresh sections the store
//! supplied. This is the unit/property level of the four-level gate
//! stack (docs/INCREMENTAL.md); the integration, difftest and ci.sh
//! levels enforce the same bytes at larger scales.

use casted_faults::{run_campaign_engine, run_campaign_incremental, CampaignConfig, Engine};
use casted_ir::interp::StopReason;
use casted_ir::testgen::{random_module, GenOptions};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{MachineConfig, Opcode};
use casted_sim::{simulate_quiet, SimOptions};
use casted_util::store::ArtifactStore;
use std::path::PathBuf;

fn halts(sp: &ScheduledProgram) -> bool {
    matches!(
        simulate_quiet(sp, &SimOptions::default()).stop,
        StopReason::Halt(_)
    )
}

fn fresh_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!("casted-prop-sections-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), ArtifactStore::open(&dir).expect("open store"))
}

/// Assert the incremental campaign's tally equals a cold full
/// campaign on every engine. `seed_token` names the failing case the
/// way difftest REPLAY tokens do. Returns the escapes the campaign
/// replayed whole-program, so each test can show its cases reach that
/// path.
fn assert_exact(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    store: &ArtifactStore,
    seed_token: &str,
) -> u64 {
    let inc = run_campaign_incremental(sp, cfg, store);
    for engine in [Engine::Reference, Engine::Checkpointed] {
        let full = run_campaign_engine(sp, cfg, engine);
        assert_eq!(
            inc.tally,
            full.tally,
            "[{seed_token}] incremental tally != {} engine (sections {:?})",
            engine.name(),
            inc.engine.sections
        );
        assert_eq!(inc.golden_cycles, full.golden_cycles, "[{seed_token}]");
        assert_eq!(inc.golden_dyn, full.golden_dyn, "[{seed_token}]");
    }
    inc.engine.sections.escaped
}

/// Random programs: cold incremental equals every engine, a warm
/// rerun (the zero-changed-section "no-op edit": identical program,
/// fresh process state) fully hits and still equals every engine.
#[test]
fn random_programs_cold_and_noop_edit_are_exact() {
    let opts = GenOptions::default();
    let mut escaped = 0;
    for seed in [3u64, 11, 27, 42, 77] {
        let m = random_module(seed, &opts);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
        if !halts(&sp) {
            continue;
        }
        let cfg = CampaignConfig { trials: 60, seed: 0xCA57ED ^ seed, ..Default::default() };
        let (dir, store) = fresh_store(&format!("noop-{seed}"));
        escaped += assert_exact(&sp, &cfg, &store, &format!("gen:{seed}:cold"));

        // No-op edit: rebuild the identical schedule from a clone of
        // the module — every section must hit and the bytes must not
        // move.
        let rebuilt = ScheduledProgram::sequential(&m.clone(), MachineConfig::itanium2_like(2, 2));
        let warm = run_campaign_incremental(&rebuilt, &cfg, &store);
        assert_eq!(warm.engine.sections.miss, 0, "[gen:{seed}:noop] re-injected");
        assert_eq!(warm.engine.sections.recombined as usize, cfg.trials);
        assert_exact(&rebuilt, &cfg, &store, &format!("gen:{seed}:noop"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(escaped > 0, "no cold case replayed an escape");
}

/// Random edits: flip immediates of randomly chosen instructions —
/// including instructions of the *entry* block (which sits on the
/// first section boundary and invalidates the start digest of every
/// later section) and the halt (final-section boundary). Whatever the
/// edit does to the trace, the warm recombined tally must equal a
/// cold campaign of the edited program.
#[test]
fn random_edits_recombine_exactly() {
    let opts = GenOptions::default();
    let mut escaped = 0;
    for seed in [5u64, 19, 33] {
        let m = random_module(seed, &opts);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(2, 2));
        if !halts(&sp) {
            continue;
        }
        let cfg = CampaignConfig { trials: 50, seed: 0xED17 ^ seed, ..Default::default() };
        let (dir, store) = fresh_store(&format!("edit-{seed}"));
        let _ = run_campaign_incremental(&sp, &cfg, &store);

        // Candidate edits, in a deterministic order per seed: the
        // halt code (epilogue / final boundary), then immediates of
        // instructions spread over the function incl. the entry block.
        let mut edits: Vec<(usize, i64)> = Vec::new();
        let func = m.entry_fn();
        if let Some(h) = func.insns.iter().position(|i| i.op == Opcode::Halt) {
            edits.push((h, 7));
        }
        let n = func.insns.len();
        for k in 0..4usize {
            let idx = (seed as usize).wrapping_mul(31).wrapping_add(k * 17) % n;
            edits.push((idx, func.insns[idx].imm ^ 1));
        }

        for (round, &(idx, imm)) in edits.iter().enumerate() {
            let mut edited = m.clone();
            edited.entry_fn_mut().insns[idx].imm = imm;
            let esp = ScheduledProgram::sequential(&edited, MachineConfig::itanium2_like(2, 2));
            if !halts(&esp) {
                continue; // the edit broke termination; not a campaign target
            }
            escaped += assert_exact(&esp, &cfg, &store, &format!("gen:{seed}:edit{round}@{idx}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(escaped > 0, "no edited case replayed an escape");
}

/// The same exactness through the real pipeline: `casted-passes`
/// schedules a random module under two schemes (protected and not),
/// and incremental campaigns on the scheduled programs recombine to
/// the engines' bytes — scheduling, replication and checks included.
#[test]
fn scheduled_random_programs_are_exact() {
    let opts = GenOptions::default();
    let config = MachineConfig::itanium2_like(2, 2);
    let mut escaped = 0;
    for seed in [2u64, 13] {
        let m = random_module(seed, &opts);
        for scheme in [casted_passes::Scheme::Noed, casted_passes::Scheme::Casted] {
            let Ok(prep) = casted_passes::prepare(&m, scheme, &config) else {
                continue;
            };
            if !halts(&prep.sp) {
                continue;
            }
            let cfg = CampaignConfig { trials: 40, seed: 0xCA ^ seed, ..Default::default() };
            let (dir, store) = fresh_store(&format!("passes-{seed}-{}", scheme.name()));
            let token = format!("gen:{seed}:{}:cold", scheme.name());
            escaped += assert_exact(&prep.sp, &cfg, &store, &token);
            // Warm: full hit, same bytes.
            let warm = run_campaign_incremental(&prep.sp, &cfg, &store);
            assert_eq!(warm.engine.sections.miss, 0);
            assert_exact(&prep.sp, &cfg, &store, &format!("gen:{seed}:{}:warm", scheme.name()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(escaped > 0, "no scheduled case replayed an escape");
}

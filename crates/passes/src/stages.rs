//! Memoized back-end stages of the staged compile pipeline.
//!
//! [`pipeline::prepare_custom`] runs the back end as one monolithic
//! function: ED-transform, the spill↔schedule fixed point, and physical
//! register assignment. This module re-expresses that exact computation
//! as three **memoized stages** — `ed` → `sched` → `ra` — whose outputs
//! live in a content-addressed [`ArtifactStore`] (`casted_util::store`)
//! and whose keys are Fnv64 digests of each stage's canonical input:
//! the digest of the upstream artifact's payload bytes plus *only* the
//! configuration fields the stage actually reads.
//!
//! That last clause is the invalidation contract (pinned by the
//! key-stability tests below): the scheduler reads `clusters`,
//! `issue_width`, `inter_cluster_delay` and the instruction latencies —
//! and nothing else — so cache geometry, memory latency, MSHR count
//! or fault-campaign trial counts must never invalidate a schedule
//! artifact, and no machine-config field at all may invalidate an ED
//! artifact. A schedule artifact is likewise
//! serialized *without* its embedded `MachineConfig`; the caller's
//! current config is re-installed on decode (exact, because the key
//! pins every scheduler-visible field).
//!
//! Exactness: a stage hit decodes to a value equal to what the stage
//! function would have produced, so a warm [`prepare_staged`] returns a
//! [`Prepared`] byte-identical (under `casted_ir::codec`) to a cold
//! monolithic [`pipeline::prepare_with`]. The property tests, the
//! store sabotage tests, difftest oracle layer 9 and the ci.sh
//! cold/warm byte-compare all enforce this.
//!
//! The MiniC front-end stages (`lexparse` → `sema` → `codegen`) that
//! feed this module live one layer up, in `casted::stages` — this
//! crate cannot see the front end, which is exactly what lets
//! `casted-difftest` drive these back-end stages from generated IR
//! modules ([`prepare_staged`] is module-rooted: any canonical module
//! digest works as the input key).

use casted_ir::vliw::ScheduledProgram;
use casted_ir::{codec as ircodec, MachineConfig, Module, Reg};
use casted_util::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use casted_util::hash::{fnv1a, Fnv64};
use casted_util::store::ArtifactStore;

use crate::errordetect::{error_detection_with, EdOptions, EdStats};
use crate::physreg::{assign_physical, PhysAssignment};
use crate::pipeline::{PrepareOptions, Prepared, Scheme};
use crate::schedule::{schedule_function, Placement};
use crate::spill::{choose_spills, intervals, spill_register};

/// Per-stage format versions, mixed into every stage key: bumping one
/// invalidates that stage's artifacts (and, through the digest chain,
/// everything downstream) without touching the store envelope.
pub const STAGE_FORMAT_VERSION_ED: u64 = 1;
/// Schedule-stage format version.
pub const STAGE_FORMAT_VERSION_SCHED: u64 = 1;
/// Regalloc-stage format version.
pub const STAGE_FORMAT_VERSION_RA: u64 = 1;

/// Artifact-kind tags (and on-disk file extensions).
pub const KIND_ED: &str = "ed";
/// Schedule artifacts.
pub const KIND_SCHED: &str = "sched";
/// Physical-register-assignment artifacts.
pub const KIND_RA: &str = "ra";

/// Bound for decoded byte fields inside stage payloads.
const MAX_LEN: usize = 1 << 30;

/// Hit/miss tally of one staged run — the per-call view of the
/// `compile.stages.{total,hit,miss}` obs counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stages consulted.
    pub total: u64,
    /// Stages answered from the artifact store.
    pub hit: u64,
    /// Stages recomputed (and re-saved).
    pub miss: u64,
}

impl StageStats {
    /// Record one stage consultation, mirroring it into the global
    /// `compile.stages.*` counters.
    pub fn note(&mut self, hit: bool) {
        self.total += 1;
        casted_obs::inc("compile.stages.total");
        if hit {
            self.hit += 1;
            casted_obs::inc("compile.stages.hit");
        } else {
            self.miss += 1;
            casted_obs::inc("compile.stages.miss");
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: StageStats) {
        self.total += other.total;
        self.hit += other.hit;
        self.miss += other.miss;
    }
}

/// Store load that meters the in-process front cache: a load answered
/// from memory (no file I/O, no checksum re-verification) additionally
/// bumps `compile.stages.mem_hit`. All staged-pipeline loads — front
/// end and back end — go through here, so the counter is the proof
/// that a long-lived host stops re-reading disk for hot artifacts.
pub fn load_metered(store: &ArtifactStore, kind: &str, key: u64) -> Option<Vec<u8>> {
    let (payload, src) = store.load_traced(kind, key)?;
    if src == casted_util::store::LoadSource::Memory {
        casted_obs::inc("compile.stages.mem_hit");
    }
    Some(payload)
}

/// Canonical content digest of a module — the module-rooted input key
/// of the back-end stage chain.
pub fn module_content_key(module: &Module) -> u64 {
    fnv1a(&ircodec::encode_module(module))
}

// ------------------------- stage keys ------------------------------

/// Key of the ED-transform artifact. Depends on the input module's
/// content digest and the transform's own knobs — **no machine-config
/// field**: error detection is placement- and machine-independent, so
/// an (issue-width, delay) change must keep ED artifacts warm.
pub fn ed_stage_key(input_digest: u64, scheme: Scheme, opts: &PrepareOptions) -> u64 {
    let ed = EdOptions::default();
    let mut h = Fnv64::new();
    h.write(b"casted:stage:ed");
    h.write_u64(STAGE_FORMAT_VERSION_ED);
    h.write_u64(input_digest);
    // Registry transform tag. `None = 0` / `DupCompare = 1` coincide
    // with the historical `has_error_detection() as u8` byte, so
    // pre-registry artifacts and the pinned golden keys stay valid;
    // RBED (tag 0) deliberately shares NOED's ED artifact — both leave
    // the module untouched.
    h.write_u8(scheme.descriptor().transform.tag());
    h.write_u8(ed.fused_checks as u8);
    h.write_u8(ed.selective as u8);
    h.write_u8(opts.if_convert as u8);
    h.finish()
}

fn placement_tag(p: Placement) -> (u64, u64) {
    match p {
        Placement::AllOn(c) => (0, c.0 as u64),
        Placement::ByStream => (1, 0),
        Placement::Adaptive => (2, 0),
        Placement::AdaptivePinnedChecks => (3, 0),
    }
}

/// Key of the schedule artifact: the ED artifact's payload digest,
/// the placement policy, and **exactly** the machine-config fields the
/// scheduler and the spill pass read. Simulator-only fields (cache
/// levels, memory latency, MSHRs) are deliberately absent — see the
/// `irrelevant_config_knobs_do_not_touch_stage_keys` regression test.
pub fn sched_stage_key(
    ed_digest: u64,
    scheme: Scheme,
    config: &MachineConfig,
    opts: &PrepareOptions,
) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"casted:stage:sched");
    h.write_u64(STAGE_FORMAT_VERSION_SCHED);
    h.write_u64(ed_digest);
    let (ptag, parg) = placement_tag(scheme.placement());
    h.write_u64(ptag);
    h.write_u64(parg);
    h.write_u64(config.clusters as u64);
    h.write_u64(config.issue_width as u64);
    h.write_u64(config.inter_cluster_delay as u64);
    let l = &config.latency;
    for v in [
        l.alu, l.mul, l.div, l.cmp, l.fcmp, l.fadd, l.fmul, l.fdiv, l.fcvt, l.load_hit, l.store,
        l.branch,
    ] {
        h.write_u64(v as u64);
    }
    h.write_u64(opts.max_spill_rounds as u64);
    h.finish()
}

/// Key of the physical-register-assignment artifact: purely a function
/// of the schedule artifact it proves correct.
pub fn ra_stage_key(sched_digest: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"casted:stage:ra");
    h.write_u64(STAGE_FORMAT_VERSION_RA);
    h.write_u64(sched_digest);
    h.finish()
}

// ------------------------- stage payload codecs --------------------

fn put_ed_stats(buf: &mut Vec<u8>, st: &Option<EdStats>) {
    match st {
        None => put_uvarint(buf, 0),
        Some(s) => {
            put_uvarint(buf, 1);
            put_uvarint(buf, s.replicated as u64);
            put_uvarint(buf, s.isolation_copies as u64);
            put_uvarint(buf, s.checks as u64);
            put_uvarint(buf, s.renamed_regs as u64);
            put_uvarint(buf, s.size_before as u64);
            put_uvarint(buf, s.size_after as u64);
        }
    }
}

fn get_ed_stats(buf: &[u8], pos: &mut usize) -> Option<Option<EdStats>> {
    match get_uvarint(buf, pos)? {
        0 => Some(None),
        1 => {
            let mut next = || -> Option<usize> { usize::try_from(get_uvarint(buf, pos)?).ok() };
            let replicated = next()?;
            let isolation_copies = next()?;
            let checks = next()?;
            let renamed_regs = next()?;
            let size_before = next()?;
            let size_after = next()?;
            Some(Some(EdStats {
                replicated,
                isolation_copies,
                checks,
                renamed_regs,
                size_before,
                size_after,
            }))
        }
        _ => None,
    }
}

/// ED artifact payload: the transformed module plus its statistics.
pub fn encode_ed_artifact(module: &Module, stats: &Option<EdStats>) -> Vec<u8> {
    let mut buf = Vec::new();
    put_bytes(&mut buf, &ircodec::encode_module(module));
    put_ed_stats(&mut buf, stats);
    buf
}

/// Strict inverse of [`encode_ed_artifact`].
pub fn decode_ed_artifact(buf: &[u8]) -> Option<(Module, Option<EdStats>)> {
    let mut pos = 0;
    let module = ircodec::decode_module(get_bytes(buf, &mut pos, MAX_LEN)?)?;
    let stats = get_ed_stats(buf, &mut pos)?;
    (pos == buf.len()).then_some((module, stats))
}

/// Schedule artifact payload: the scheduled program (config excluded —
/// see `casted_ir::codec`) plus the spill count.
pub fn encode_sched_artifact(sp: &ScheduledProgram, spilled: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    put_bytes(&mut buf, &ircodec::encode_scheduled(sp));
    put_uvarint(&mut buf, spilled as u64);
    buf
}

/// Strict inverse of [`encode_sched_artifact`]; installs `config`.
pub fn decode_sched_artifact(
    buf: &[u8],
    config: &MachineConfig,
) -> Option<(ScheduledProgram, usize)> {
    let mut pos = 0;
    let sp = ircodec::decode_scheduled(get_bytes(buf, &mut pos, MAX_LEN)?, config)?;
    let spilled = usize::try_from(get_uvarint(buf, &mut pos)?).ok()?;
    (pos == buf.len()).then_some((sp, spilled))
}

/// Regalloc artifact payload: the assignment map (sorted by register,
/// so the bytes are canonical) plus the per-cluster peak table.
pub fn encode_ra_artifact(phys: &PhysAssignment) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut pairs: Vec<(Reg, u32)> = phys.map.iter().map(|(r, v)| (*r, *v)).collect();
    pairs.sort_unstable();
    put_uvarint(&mut buf, pairs.len() as u64);
    for (r, v) in pairs {
        put_uvarint(&mut buf, r.class.index() as u64);
        put_uvarint(&mut buf, r.index as u64);
        put_uvarint(&mut buf, v as u64);
    }
    put_uvarint(&mut buf, phys.peak.len() as u64);
    for peak in &phys.peak {
        for v in peak {
            put_uvarint(&mut buf, *v as u64);
        }
    }
    buf
}

/// Strict inverse of [`encode_ra_artifact`].
pub fn decode_ra_artifact(buf: &[u8]) -> Option<PhysAssignment> {
    use casted_ir::RegClass;
    let mut pos = 0;
    let n = usize::try_from(get_uvarint(buf, &mut pos)?).ok()?;
    if n > MAX_LEN {
        return None;
    }
    let mut map = std::collections::HashMap::with_capacity(n.min(65536));
    let mut prev: Option<Reg> = None;
    for _ in 0..n {
        let class = *RegClass::ALL
            .get(usize::try_from(get_uvarint(buf, &mut pos)?).ok()?)?;
        let index = u32::try_from(get_uvarint(buf, &mut pos)?).ok()?;
        let r = Reg::new(class, index);
        if let Some(p) = prev {
            if r <= p {
                return None;
            }
        }
        prev = Some(r);
        map.insert(r, u32::try_from(get_uvarint(buf, &mut pos)?).ok()?);
    }
    let n_peak = usize::try_from(get_uvarint(buf, &mut pos)?).ok()?;
    if n_peak > MAX_LEN {
        return None;
    }
    let mut peak = Vec::with_capacity(n_peak.min(64));
    for _ in 0..n_peak {
        let mut row = [0u32; 3];
        for slot in &mut row {
            *slot = u32::try_from(get_uvarint(buf, &mut pos)?).ok()?;
        }
        peak.push(row);
    }
    (pos == buf.len()).then_some(PhysAssignment { map, peak })
}

// ------------------------- stage execution -------------------------

/// The ED-transform stage body — exactly the front half of
/// [`pipeline::prepare_custom`] under scheme-default options.
fn run_ed_stage(
    module: &Module,
    scheme: Scheme,
    opts: &PrepareOptions,
) -> (Module, Option<EdStats>) {
    let mut m = module.clone();
    if opts.if_convert {
        crate::ifconvert::if_convert(&mut m);
    }
    let ed_stats = match scheme.descriptor().transform {
        crate::schemes::Transform::None => None,
        crate::schemes::Transform::DupCompare => {
            Some(error_detection_with(&mut m, &EdOptions::default()))
        }
        crate::schemes::Transform::Tmr => Some(crate::schemes::tmr_transform(&mut m)),
    };
    if casted_obs::enabled() {
        if let Some(st) = &ed_stats {
            casted_obs::add("passes.ed.replicated", st.replicated as u64);
            casted_obs::add("passes.ed.checks", st.checks as u64);
            casted_obs::add("passes.ed.isolation_copies", st.isolation_copies as u64);
            casted_obs::add("passes.ed.renamed_regs", st.renamed_regs as u64);
            casted_obs::add(crate::pipeline::checks_counter(scheme), st.checks as u64);
        }
    }
    (m, ed_stats)
}

/// The schedule stage body — the spill↔schedule fixed point of
/// [`pipeline::prepare_custom`], verbatim.
fn run_sched_stage(
    ed_module: &Module,
    scheme: Scheme,
    config: &MachineConfig,
    opts: &PrepareOptions,
) -> Result<(ScheduledProgram, usize), String> {
    let placement = scheme.placement();
    let mut m = ed_module.clone();
    let mut spilled = 0usize;
    let mut rounds = 0usize;
    let sp = loop {
        let sp = schedule_function(&m, config, placement);
        let ivs = intervals(&sp);
        let picks = choose_spills(&sp, &ivs);
        if picks.is_empty() {
            break sp;
        }
        rounds += 1;
        if rounds > opts.max_spill_rounds {
            return Err(format!(
                "register pressure not reducible after {} spill rounds ({} spills)",
                opts.max_spill_rounds, spilled
            ));
        }
        for reg in picks {
            spill_register(&mut m, reg);
            spilled += 1;
        }
    };
    if casted_obs::enabled() {
        casted_obs::add("passes.spilled_regs", spilled as u64);
        casted_obs::add("passes.sched.bundles", sp.bundle_count() as u64);
        casted_obs::add("passes.sched.nop_slots", sp.nop_slots() as u64);
        casted_obs::add(
            "passes.sched.cross_cluster_edges",
            sp.cross_cluster_edges() as u64,
        );
    }
    Ok((sp, spilled))
}

/// Run the memoized back-end stage chain on a module whose canonical
/// content digest is `input_digest` (use [`module_content_key`], or the
/// digest of the codegen artifact when driven from the front end —
/// they coincide, since the codegen artifact *is* the encoded module).
///
/// Every stage is consulted in order; a verified artifact is a hit, a
/// missing/damaged one is recomputed from the upstream value and
/// re-saved (store healing). The returned [`Prepared`] equals what
/// [`pipeline::prepare_with`] computes from scratch.
pub fn prepare_staged(
    store: &ArtifactStore,
    input_digest: u64,
    module: &Module,
    scheme: Scheme,
    config: &MachineConfig,
    opts: &PrepareOptions,
    stats: &mut StageStats,
) -> Result<Prepared, String> {
    // --- stage: ed ---------------------------------------------------
    let ed_key = ed_stage_key(input_digest, scheme, opts);
    let mut ed_payload = load_metered(store, KIND_ED, ed_key);
    let (ed_module, ed_stats) = match ed_payload.as_deref().and_then(decode_ed_artifact) {
        Some(v) => {
            stats.note(true);
            v
        }
        None => {
            stats.note(false);
            let (m, st) = run_ed_stage(module, scheme, opts);
            let payload = encode_ed_artifact(&m, &st);
            let _ = store.save(KIND_ED, ed_key, &payload);
            ed_payload = Some(payload);
            (m, st)
        }
    };
    let ed_digest = fnv1a(ed_payload.as_deref().expect("ed payload present"));

    // --- stage: sched ------------------------------------------------
    let sched_key = sched_stage_key(ed_digest, scheme, config, opts);
    let mut sched_payload = load_metered(store, KIND_SCHED, sched_key);
    let (sp, spilled) = match sched_payload
        .as_deref()
        .and_then(|b| decode_sched_artifact(b, config))
    {
        Some(v) => {
            stats.note(true);
            v
        }
        None => {
            stats.note(false);
            let (sp, spilled) = run_sched_stage(&ed_module, scheme, config, opts)?;
            let payload = encode_sched_artifact(&sp, spilled);
            let _ = store.save(KIND_SCHED, sched_key, &payload);
            sched_payload = Some(payload);
            (sp, spilled)
        }
    };
    let sched_digest = fnv1a(sched_payload.as_deref().expect("sched payload present"));

    // --- stage: ra ---------------------------------------------------
    let ra_key = ra_stage_key(sched_digest);
    let phys = match load_metered(store, KIND_RA, ra_key).as_deref().and_then(decode_ra_artifact) {
        Some(v) => {
            stats.note(true);
            v
        }
        None => {
            stats.note(false);
            let phys = assign_physical(&sp)?;
            let _ = store.save(KIND_RA, ra_key, &encode_ra_artifact(&phys));
            phys
        }
    };

    Ok(Prepared {
        sp,
        scheme,
        ed_stats,
        spilled,
        phys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::prepare_with;
    use casted_ir::testgen::{random_module, GenOptions};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "casted-stages-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Canonical fingerprint of a `Prepared` for byte-identity checks.
    fn prepared_bytes(p: &Prepared) -> Vec<u8> {
        let mut buf = ircodec::encode_scheduled(&p.sp);
        put_uvarint(&mut buf, p.spilled as u64);
        put_ed_stats(&mut buf, &p.ed_stats);
        buf.extend_from_slice(&encode_ra_artifact(&p.phys));
        buf
    }

    #[test]
    fn staged_cold_and_warm_match_the_monolith() {
        let dir = temp_dir("exact");
        let store = ArtifactStore::open(&dir).unwrap();
        let cfg = MachineConfig::itanium2_like(2, 2);
        let opts = PrepareOptions::default();
        for seed in [0u64, 3, 9] {
            let m = random_module(seed, &GenOptions::default());
            let key = module_content_key(&m);
            let mut tags_seen = std::collections::HashSet::new();
            for scheme in Scheme::FULL {
                let legacy = prepare_with(&m, scheme, &cfg, &opts).unwrap();
                let mut cold_stats = StageStats::default();
                let cold =
                    prepare_staged(&store, key, &m, scheme, &cfg, &opts, &mut cold_stats).unwrap();
                let mut warm_stats = StageStats::default();
                let warm =
                    prepare_staged(&store, key, &m, scheme, &cfg, &opts, &mut warm_stats).unwrap();
                assert_eq!(prepared_bytes(&legacy), prepared_bytes(&cold));
                assert_eq!(prepared_bytes(&legacy), prepared_bytes(&warm));
                assert_eq!(warm_stats.hit, 3, "warm rerun must hit every stage");
                // Schemes running the same registry transform share the
                // machine-independent ED artifact (SCED/DCED/CASTED all
                // dup-and-compare; RBED reuses NOED's untouched module;
                // TMRED's triplication is its own artifact). Downstream
                // stages are placement-specific and miss — except RBED,
                // which compiles to NOED's exact schedule (same module,
                // same placement) and therefore hits the whole chain.
                let tag = scheme.descriptor().transform.tag();
                let expect_hits = if scheme == Scheme::Rbed {
                    3
                } else {
                    tags_seen.contains(&tag) as u64
                };
                assert_eq!(cold_stats.hit, expect_hits, "{scheme:?}");
                tags_seen.insert(tag);
                // The full machine config (simulator fields included)
                // rides along on both paths.
                assert_eq!(
                    format!("{:?}", legacy.sp.config),
                    format!("{:?}", warm.sp.config)
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_reuses_the_ed_artifact() {
        let dir = temp_dir("config");
        let store = ArtifactStore::open(&dir).unwrap();
        let opts = PrepareOptions::default();
        let m = random_module(5, &GenOptions::default());
        let key = module_content_key(&m);
        let mut s1 = StageStats::default();
        prepare_staged(
            &store,
            key,
            &m,
            Scheme::Casted,
            &MachineConfig::itanium2_like(2, 2),
            &opts,
            &mut s1,
        )
        .unwrap();
        // A different (issue, delay) pair restarts at the schedule
        // stage: the ED artifact is machine-independent and must hit.
        let mut s2 = StageStats::default();
        let p = prepare_staged(
            &store,
            key,
            &m,
            Scheme::Casted,
            &MachineConfig::itanium2_like(4, 1),
            &opts,
            &mut s2,
        )
        .unwrap();
        assert_eq!(s2.hit, 1, "ED artifact must be reused across configs");
        assert_eq!(s2.miss, 2, "schedule + regalloc must recompute");
        let legacy = prepare_with(
            &m,
            Scheme::Casted,
            &MachineConfig::itanium2_like(4, 1),
            &opts,
        )
        .unwrap();
        assert_eq!(prepared_bytes(&legacy), prepared_bytes(&p));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ed_artifacts_are_shared_across_ed_schemes() {
        // SCED, DCED and CASTED run the same machine-independent
        // transform, so the second scheme's ED stage hits the first's
        // artifact.
        let dir = temp_dir("share");
        let store = ArtifactStore::open(&dir).unwrap();
        let cfg = MachineConfig::itanium2_like(2, 2);
        let opts = PrepareOptions::default();
        let m = random_module(7, &GenOptions::default());
        let key = module_content_key(&m);
        let mut s1 = StageStats::default();
        prepare_staged(&store, key, &m, Scheme::Sced, &cfg, &opts, &mut s1).unwrap();
        let mut s2 = StageStats::default();
        prepare_staged(&store, key, &m, Scheme::Dced, &cfg, &opts, &mut s2).unwrap();
        assert_eq!(s1.hit, 0);
        assert_eq!(s2.hit, 1, "DCED must reuse SCED's ED artifact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scheme_keys_partition_by_transform() {
        // RBED leaves the module untouched, so its ED key equals
        // NOED's and its ED artifact is shared; TMRED's triplication
        // is a distinct transform and must key (and miss) separately
        // from every dup-and-compare scheme.
        let opts = PrepareOptions::default();
        let digest = 0xD1_6E57u64;
        let k_noed = ed_stage_key(digest, Scheme::Noed, &opts);
        let k_sced = ed_stage_key(digest, Scheme::Sced, &opts);
        let k_tmred = ed_stage_key(digest, Scheme::Tmred, &opts);
        let k_rbed = ed_stage_key(digest, Scheme::Rbed, &opts);
        assert_eq!(k_rbed, k_noed, "RBED shares NOED's ED artifact");
        assert_ne!(k_tmred, k_sced);
        assert_ne!(k_tmred, k_noed);
        assert_eq!(
            ed_stage_key(digest, Scheme::Dced, &opts),
            k_sced,
            "all dup-and-compare schemes share one ED key"
        );

        let dir = temp_dir("recovery");
        let store = ArtifactStore::open(&dir).unwrap();
        let cfg = MachineConfig::itanium2_like(2, 2);
        let m = random_module(13, &GenOptions::default());
        let key = module_content_key(&m);
        let mut s1 = StageStats::default();
        prepare_staged(&store, key, &m, Scheme::Noed, &cfg, &opts, &mut s1).unwrap();
        let mut s2 = StageStats::default();
        prepare_staged(&store, key, &m, Scheme::Rbed, &cfg, &opts, &mut s2).unwrap();
        assert_eq!(
            s2.hit, 3,
            "RBED compiles to NOED's exact schedule and must hit every stage"
        );
        let mut s3 = StageStats::default();
        prepare_staged(&store, key, &m, Scheme::Tmred, &cfg, &opts, &mut s3).unwrap();
        assert_eq!(s3.hit, 0, "TMRED's transform is its own artifact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifacts_heal_as_misses_with_identical_results() {
        let dir = temp_dir("heal");
        let store = ArtifactStore::open(&dir).unwrap();
        let cfg = MachineConfig::itanium2_like(2, 2);
        let opts = PrepareOptions::default();
        let m = random_module(11, &GenOptions::default());
        let key = module_content_key(&m);
        let mut stats = StageStats::default();
        let clean =
            prepare_staged(&store, key, &m, Scheme::Casted, &cfg, &opts, &mut stats).unwrap();
        let clean_bytes = prepared_bytes(&clean);

        // Flip one byte in the middle of each stored artifact in turn:
        // the checksum rejects it, the stage recomputes, the result is
        // unchanged and the store is healed (a further run hits again).
        // Each round opens a fresh store handle: the in-memory front
        // cache deliberately serves already-verified bytes without
        // re-reading disk, so disk corruption is (correctly) invisible
        // to the process that wrote the artifact — detection is a
        // fresh-process property.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();

            let store = ArtifactStore::open(&dir).unwrap();
            let mut s = StageStats::default();
            let healed =
                prepare_staged(&store, key, &m, Scheme::Casted, &cfg, &opts, &mut s).unwrap();
            assert_eq!(clean_bytes, prepared_bytes(&healed));
            assert!(s.miss >= 1, "corruption of {path:?} was not detected");

            let mut s2 = StageStats::default();
            prepare_staged(&store, key, &m, Scheme::Casted, &cfg, &opts, &mut s2).unwrap();
            assert_eq!(s2.hit, 3, "store did not heal after {path:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn irrelevant_config_knobs_do_not_touch_stage_keys() {
        let opts = PrepareOptions::default();
        let base = MachineConfig::itanium2_like(2, 2);
        let ed = ed_stage_key(0xD16E57, Scheme::Casted, &opts);
        let sched = sched_stage_key(0xFEED, Scheme::Casted, &base, &opts);

        // Simulator-only machine fields must leave both keys alone.
        let mut sim_only = base.clone();
        sim_only.memory_latency += 50;
        sim_only.mshr_entries += 7;
        sim_only.cache_levels.clear();
        assert_eq!(sched, sched_stage_key(0xFEED, Scheme::Casted, &sim_only, &opts));

        // Scheduler-visible fields must change the schedule key...
        let mut wider = base.clone();
        wider.issue_width += 1;
        assert_ne!(sched, sched_stage_key(0xFEED, Scheme::Casted, &wider, &opts));
        let mut slower = base.clone();
        slower.latency.mul += 1;
        assert_ne!(sched, sched_stage_key(0xFEED, Scheme::Casted, &slower, &opts));

        // ...while no machine field at all reaches the ED key (the
        // signature makes this structural; pin it anyway).
        assert_eq!(ed, ed_stage_key(0xD16E57, Scheme::Casted, &opts));
    }

    #[test]
    fn stage_keys_are_pinned_against_goldens() {
        // Golden key values for a fixed input: any unintentional change
        // to key derivation (field order, a new field, a version bump)
        // trips this test and must be accompanied by a STAGE_FORMAT_
        // VERSION bump. Regenerate by printing the three values.
        let opts = PrepareOptions::default();
        let cfg = MachineConfig::itanium2_like(2, 2);
        let ed = ed_stage_key(0x1234_5678_9ABC_DEF0, Scheme::Casted, &opts);
        let sched = sched_stage_key(ed, Scheme::Casted, &cfg, &opts);
        let ra = ra_stage_key(sched);
        assert_eq!(
            (ed, sched, ra),
            (
                0x3ca5_3bdd_b234_0d22,
                0x241f_9862_e153_f99a,
                0x0a94_050b_c6b4_6b2f,
            ),
            "stage keys moved: {ed:#018x} {sched:#018x} {ra:#018x}"
        );
    }

    #[test]
    fn ra_artifact_round_trips() {
        use std::collections::HashMap;
        let mut map = HashMap::new();
        map.insert(Reg::gp(3), 1);
        map.insert(Reg::gp(0), 0);
        map.insert(Reg::fp(2), 5);
        map.insert(Reg::pr(1), 2);
        let phys = PhysAssignment {
            map,
            peak: vec![[3, 1, 0], [2, 2, 2]],
        };
        let bytes = encode_ra_artifact(&phys);
        let back = decode_ra_artifact(&bytes).unwrap();
        assert_eq!(phys.map, back.map);
        assert_eq!(phys.peak, back.peak);
        assert_eq!(bytes, encode_ra_artifact(&back));
        for cut in 0..bytes.len() {
            assert!(decode_ra_artifact(&bytes[..cut]).is_none());
        }
    }
}

//! Source-rooted half of the memoized staged compile pipeline.
//!
//! `casted_passes::stages` memoizes the back end (`ed` → `sched` →
//! `ra`) starting from a canonical IR module. This module adds the one
//! front-end stage that turns MiniC source into that module —
//!
//! ```text
//! frontend ──▶ [ed ──▶ sched ──▶ ra]
//! ```
//!
//! — and the [`ArtifactPipeline`] driver that runs the whole chain
//! against one content-addressed [`ArtifactStore`]. All four stages go
//! through the same memo step, `casted_passes::stages::memo`.
//!
//! Key derivation (see `docs/PIPELINE.md` for the full table) chains
//! **content digests**, not keys: each downstream key hashes the
//! FNV-1a digest of the upstream artifact's *payload bytes*. The
//! `frontend` artifact payload *is* `casted_ir::codec::encode_module`,
//! so its digest coincides with `casted_passes::stages::module_content_key`
//! and gives the early cutoff: a source edit that compiles to the
//! identical module (whitespace, comments, blank lines) re-runs the
//! front end and leaves `ed`, `sched` and `ra` warm. A config-only
//! change ((issue-width, delay) pair) re-enters at the schedule stage
//! with zero front-end work: no `frontend.*` span ever fires on a warm
//! path, and `compile.stages.hit` counts 2 (frontend, ed).
//!
//! Failing programs are never cached: a lex/parse/sema error returns
//! [`StagedError::Frontend`] and writes nothing, so error caching can
//! never mask a later fix.

use std::io;
use std::path::Path;

use casted_frontend::Diag;
use casted_ir::{codec as ircodec, MachineConfig, Module};
use casted_passes::pipeline::{PrepareOptions, Prepared};
use casted_passes::stages::{memo, prepare_staged, StageStats};
use casted_passes::Scheme;
use casted_util::hash::Fnv64;
use casted_util::store::ArtifactStore;

/// Front-end stage format version, mixed into its key: bumping it
/// invalidates every module artifact (and, through the digest chain,
/// everything downstream) without touching the store envelope.
pub const STAGE_FORMAT_VERSION_FRONTEND: u64 = 1;

/// Artifact kind (on-disk file extension) of the front-end stage: the
/// canonical IR module.
pub const KIND_IR: &str = "ir";

/// A staged compile failed: either the program is bad (front end) or a
/// back-end invariant broke.
#[derive(Clone, Debug)]
pub enum StagedError {
    /// Lex, parse or sema diagnostics — the program's fault.
    Frontend(Vec<Diag>),
    /// Scheduler / register-allocator failure — the pipeline's fault.
    Backend(String),
}

impl std::fmt::Display for StagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagedError::Frontend(diags) => {
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            StagedError::Backend(msg) => write!(f, "{msg}"),
        }
    }
}

// ------------------------- stage key -------------------------------

/// Key of the front-end artifact: the module name (embedded in the
/// encoding) and the source text. The name's length is hashed first so
/// that no (name, source) split of the same bytes can collide.
pub fn frontend_stage_key(name: &str, source: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"casted:stage:frontend");
    h.write_u64(STAGE_FORMAT_VERSION_FRONTEND);
    h.write_u64(name.len() as u64);
    h.write(name.as_bytes());
    h.write(source.as_bytes());
    h.finish()
}

// ------------------------- the pipeline ----------------------------

/// The staged compile pipeline: an open [`ArtifactStore`] plus the
/// stage drivers. One instance can serve any number of programs,
/// schemes and machine configs — artifacts are shared wherever the
/// key derivation says they may be.
pub struct ArtifactPipeline {
    store: ArtifactStore,
}

impl ArtifactPipeline {
    /// Open (creating if needed) the artifact store at `dir`.
    pub fn open(dir: &Path) -> io::Result<ArtifactPipeline> {
        Ok(ArtifactPipeline {
            store: ArtifactStore::open(dir)?,
        })
    }

    /// Run the front-end stage: source → canonical module, through
    /// `casted_frontend::compile` on a miss. Returns the module and its
    /// content digest (the back-end chain's input key). Records the
    /// hit/miss into `stats` and the `compile.stages.*` counters; on a
    /// hit no `frontend.*` span or counter fires.
    pub fn compile(
        &self,
        name: &str,
        source: &str,
        stats: &mut StageStats,
    ) -> Result<(Module, u64), StagedError> {
        memo(
            &self.store,
            KIND_IR,
            frontend_stage_key(name, source),
            stats,
            ircodec::decode_module,
            ircodec::encode_module,
            || casted_frontend::compile(name, source),
        )
        .map_err(StagedError::Frontend)
    }

    /// Run the full staged chain: source → [`Prepared`] back end for
    /// `scheme` on `config`, with default [`PrepareOptions`].
    pub fn prepare(
        &self,
        name: &str,
        source: &str,
        scheme: Scheme,
        config: &MachineConfig,
    ) -> Result<(Prepared, StageStats), StagedError> {
        let mut stats = StageStats::default();
        let (module, digest) = self.compile(name, source, &mut stats)?;
        let prepared = prepare_staged(
            &self.store,
            digest,
            &module,
            scheme,
            config,
            &PrepareOptions::default(),
            &mut stats,
        )
        .map_err(StagedError::Backend)?;
        Ok((prepared, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_passes::stages::module_content_key;

    const SRC: &str = r#"
        fn main() -> int {
            var s: int = 0;
            for i in 0..20 { s = s + i * i; }
            if s > 100 { out(s); } else { out(0 - s); }
            return 0;
        }
    "#;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "casted-core-stages-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frontend_stage_key_is_pinned_against_a_golden() {
        // Any unintentional change to the key derivation (field order,
        // a new field, a version bump) trips this test and must come
        // with a STAGE_FORMAT_VERSION_FRONTEND bump. Regenerate by
        // printing the value.
        let key = frontend_stage_key("m", "fn main() { out(1); }");
        assert_eq!(key, 0x25d3_651f_0381_89d1, "frontend key moved: {key:#018x}");
        // The name's length is hashed, so moving bytes between the name
        // and the source changes the key.
        assert_ne!(frontend_stage_key("ab", "c"), frontend_stage_key("a", "bc"));
    }

    #[test]
    fn staged_compile_equals_monolithic_compile() {
        let dir = temp_dir("compile");
        let p = ArtifactPipeline::open(&dir).unwrap();
        let legacy = casted_frontend::compile("m", SRC).unwrap();
        let mut cold = StageStats::default();
        let (m1, d1) = p.compile("m", SRC, &mut cold).unwrap();
        let mut warm = StageStats::default();
        let (m2, d2) = p.compile("m", SRC, &mut warm).unwrap();
        assert_eq!(ircodec::encode_module(&legacy), ircodec::encode_module(&m1));
        assert_eq!(ircodec::encode_module(&legacy), ircodec::encode_module(&m2));
        assert_eq!(d1, d2);
        assert_eq!(d1, module_content_key(&legacy));
        assert_eq!((cold.hit, cold.miss), (0, 1));
        assert_eq!((warm.hit, warm.miss), (1, 0), "the front-end stage must hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_and_negative_literals_survive_the_module_artifact() {
        let dir = temp_dir("literals");
        let p = ArtifactPipeline::open(&dir).unwrap();
        let src = "fn main() { fout(1.5 + 0.25); out(0 - 9000000000); }";
        let legacy = ircodec::encode_module(&casted_frontend::compile("m", src).unwrap());
        for _ in 0..2 {
            let (m, _) = p.compile("m", src, &mut StageStats::default()).unwrap();
            assert_eq!(legacy, ircodec::encode_module(&m));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn whitespace_edit_keeps_downstream_stages_warm() {
        let dir = temp_dir("ws");
        let p = ArtifactPipeline::open(&dir).unwrap();
        let cfg = MachineConfig::itanium2_like(2, 2);
        p.prepare("m", SRC, Scheme::Casted, &cfg).unwrap();
        // Different source text, same module: the front end re-runs,
        // the module digest keeps ed, sched and ra warm.
        let spaced = SRC.replace("s = s + i * i;", "s   =  s +\n\n  i *   i ;") + "\n";
        assert_ne!(SRC, spaced);
        let (_, second) = p.prepare("m", &spaced, Scheme::Casted, &cfg).unwrap();
        assert_eq!(second.miss, 1, "only the front end re-runs");
        assert_eq!(second.hit, 3, "ed + sched + ra stay warm");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frontend_errors_are_not_cached() {
        let dir = temp_dir("err");
        let p = ArtifactPipeline::open(&dir).unwrap();
        let bad = "fn main() { out(nosuchvar); }";
        let mut s = StageStats::default();
        assert!(matches!(
            p.compile("m", bad, &mut s),
            Err(StagedError::Frontend(_))
        ));
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "a failing program must leave no artifact"
        );
        let mut s2 = StageStats::default();
        assert!(p.compile("m", bad, &mut s2).is_err());
        assert_eq!(s2.hit, 0, "a failing program must re-check every run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_only_change_skips_the_whole_front_end() {
        let dir = temp_dir("cfgonly");
        let p = ArtifactPipeline::open(&dir).unwrap();
        let (_, s1) = p
            .prepare("m", SRC, Scheme::Casted, &MachineConfig::itanium2_like(2, 2))
            .unwrap();
        assert_eq!(s1.total, 4);
        assert_eq!(s1.hit, 0);
        let (prep, s2) = p
            .prepare("m", SRC, Scheme::Casted, &MachineConfig::itanium2_like(4, 1))
            .unwrap();
        assert_eq!(s2.total, 4);
        assert_eq!(
            s2.hit, 2,
            "frontend and ed must both survive a machine-config change"
        );
        // And the result still equals a from-scratch monolithic build.
        let m = casted_frontend::compile("m", SRC).unwrap();
        let legacy =
            casted_passes::prepare(&m, Scheme::Casted, &MachineConfig::itanium2_like(4, 1))
                .unwrap();
        assert_eq!(
            ircodec::encode_scheduled(&legacy.sp),
            ircodec::encode_scheduled(&prep.sp)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

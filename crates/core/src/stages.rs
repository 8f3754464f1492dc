//! Source-rooted half of the memoized staged compile pipeline.
//!
//! `casted_passes::stages` memoizes the back end (`ed` → `sched` →
//! `ra`) starting from a canonical IR module. This module adds the
//! three front-end stages that turn MiniC source into that module —
//!
//! ```text
//! lexparse ──▶ sema ──▶ codegen ──▶ [ed ──▶ sched ──▶ ra]
//! ```
//!
//! — and the [`ArtifactPipeline`] driver that runs the whole chain
//! against one content-addressed [`ArtifactStore`].
//!
//! Key derivation (see `docs/PIPELINE.md` for the full table) chains
//! **content digests**, not keys: each downstream key hashes the
//! FNV-1a digest of the upstream artifact's *payload bytes*. That buys
//! early cutoff — a source edit that lexes to the identical token
//! stream (whitespace, comments) leaves `sema` and everything below it
//! warm, and a config-only change ((issue-width, delay) pair) re-enters
//! at the schedule stage with zero front-end work: no `frontend.*`
//! span ever fires on a warm path, and `compile.stages.hit` counts 4
//! (lexparse, sema, codegen, ed).
//!
//! The `codegen` artifact payload *is* `casted_ir::codec::encode_module`,
//! so its digest coincides with `casted_passes::stages::module_content_key`
//! — the front-end chain plugs into the module-rooted back-end chain
//! with no translation.
//!
//! Failing programs are never cached: a lex/parse/sema error returns
//! [`StagedError::Frontend`] immediately and writes nothing, so error
//! caching can never mask a later fix.

use std::io;
use std::path::Path;

use casted_frontend::{lex, parse, sema, Diag, Token, TokenKind};
use casted_ir::{codec as ircodec, MachineConfig, Module};
use casted_passes::pipeline::{PrepareOptions, Prepared};
use casted_passes::stages::{load_metered, prepare_staged, StageStats};
use casted_passes::Scheme;
use casted_util::codec::{get_str, get_uvarint, put_str, put_uvarint};
use casted_util::hash::{fnv1a, Fnv64};
use casted_util::store::ArtifactStore;

/// Lex/parse-stage format version (token-stream payload).
pub const STAGE_FORMAT_VERSION_LEX: u64 = 1;
/// Sema-stage format version (empty success-marker payload).
pub const STAGE_FORMAT_VERSION_SEMA: u64 = 1;
/// Codegen-stage format version (canonical module payload).
pub const STAGE_FORMAT_VERSION_CG: u64 = 1;

/// Artifact kinds (on-disk file extensions) of the front-end stages.
pub const KIND_TOK: &str = "tok";
/// Sema success markers.
pub const KIND_SEMA: &str = "sema";
/// Canonical IR modules.
pub const KIND_IR: &str = "ir";

/// Token-count bound accepted by [`decode_tokens`].
const MAX_TOKENS: u64 = 1 << 24;
/// Byte bound for token texts.
const MAX_TEXT: usize = 1 << 20;

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

// ------------------------- stage keys ------------------------------

/// Key of the token-stream artifact: the source text itself.
pub fn lex_stage_key(source: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"casted:stage:lexparse");
    h.write_u64(STAGE_FORMAT_VERSION_LEX);
    h.write(source.as_bytes());
    h.finish()
}

/// Key of the sema success marker: the token stream's content digest.
pub fn sema_stage_key(tokens_digest: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"casted:stage:sema");
    h.write_u64(STAGE_FORMAT_VERSION_SEMA);
    h.write_u64(tokens_digest);
    h.finish()
}

/// Key of the canonical-module artifact: the token stream's digest
/// plus the module name (the name is embedded in the encoding).
pub fn codegen_stage_key(tokens_digest: u64, name: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"casted:stage:codegen");
    h.write_u64(STAGE_FORMAT_VERSION_CG);
    h.write_u64(STAGE_FORMAT_VERSION_SEMA);
    h.write_u64(tokens_digest);
    h.write(name.as_bytes());
    h.finish()
}

// ------------------------- token codec -----------------------------

/// `TokenKind` in declaration order; the index is the wire tag.
const TOKEN_KINDS: [TokenKind; 50] = [
    TokenKind::Ident,
    TokenKind::Int,
    TokenKind::Float,
    TokenKind::KwFn,
    TokenKind::KwLib,
    TokenKind::KwGlobal,
    TokenKind::KwConst,
    TokenKind::KwVar,
    TokenKind::KwIf,
    TokenKind::KwElse,
    TokenKind::KwWhile,
    TokenKind::KwFor,
    TokenKind::KwIn,
    TokenKind::KwBreak,
    TokenKind::KwContinue,
    TokenKind::KwReturn,
    TokenKind::KwInt,
    TokenKind::KwFloat,
    TokenKind::LParen,
    TokenKind::RParen,
    TokenKind::LBrace,
    TokenKind::RBrace,
    TokenKind::LBracket,
    TokenKind::RBracket,
    TokenKind::Comma,
    TokenKind::Semi,
    TokenKind::Colon,
    TokenKind::Arrow,
    TokenKind::DotDot,
    TokenKind::Assign,
    TokenKind::Plus,
    TokenKind::Minus,
    TokenKind::Star,
    TokenKind::Slash,
    TokenKind::Percent,
    TokenKind::Amp,
    TokenKind::Pipe,
    TokenKind::Caret,
    TokenKind::Shl,
    TokenKind::Shr,
    TokenKind::AndAnd,
    TokenKind::OrOr,
    TokenKind::Not,
    TokenKind::EqEq,
    TokenKind::NotEq,
    TokenKind::Lt,
    TokenKind::Le,
    TokenKind::Gt,
    TokenKind::Ge,
    TokenKind::Eof,
];

fn kind_tag(k: TokenKind) -> u64 {
    TOKEN_KINDS
        .iter()
        .position(|&t| t == k)
        .expect("every TokenKind has a wire tag") as u64
}

/// Canonical token-stream payload of the `lexparse` stage.
pub fn encode_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uvarint(&mut buf, tokens.len() as u64);
    for t in tokens {
        put_uvarint(&mut buf, kind_tag(t.kind));
        put_str(&mut buf, &t.text);
        put_uvarint(&mut buf, t.int_val as u64);
        put_uvarint(&mut buf, t.float_val.to_bits());
        put_uvarint(&mut buf, t.line as u64);
    }
    buf
}

/// Strict inverse of [`encode_tokens`] (`None` on any damage).
pub fn decode_tokens(buf: &[u8]) -> Option<Vec<Token>> {
    let mut pos = 0;
    let n = get_uvarint(buf, &mut pos)?;
    if n > MAX_TOKENS {
        return None;
    }
    let mut tokens = Vec::with_capacity((n as usize).min(65536));
    for _ in 0..n {
        let kind = *TOKEN_KINDS.get(usize::try_from(get_uvarint(buf, &mut pos)?).ok()?)?;
        let text = get_str(buf, &mut pos, MAX_TEXT)?.to_string();
        let int_val = get_uvarint(buf, &mut pos)? as i64;
        let float_val = f64::from_bits(get_uvarint(buf, &mut pos)?);
        let line = u32::try_from(get_uvarint(buf, &mut pos)?).ok()?;
        tokens.push(Token {
            kind,
            text,
            int_val,
            float_val,
            line,
        });
    }
    (pos == buf.len()).then_some(tokens)
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
    /// Open (creating if needed) the artifact store at `dir` with no
    /// byte budget.
    pub fn open(dir: &Path) -> io::Result<ArtifactPipeline> {
        Ok(ArtifactPipeline {
            store: ArtifactStore::open(dir)?,
        })
    }

    /// The underlying store (for diagnostics and tests).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Run the front-end stage chain: source → canonical module.
    /// Returns the module and its content digest (the back-end chain's
    /// input key). Records per-stage hit/miss into `stats` and the
    /// `compile.stages.*` counters; on a fully warm run no `frontend.*`
    /// span or counter fires.
    pub fn compile(
        &self,
        name: &str,
        source: &str,
        stats: &mut StageStats,
    ) -> Result<(Module, u64), StagedError> {
        // --- stage: lexparse -----------------------------------------
        let lex_key = lex_stage_key(source);
        let mut tok_payload = load_metered(&self.store, KIND_TOK, lex_key);
        let tokens_cache: Option<Vec<Token>>;
        match tok_payload.as_deref().and_then(decode_tokens) {
            Some(toks) => {
                stats.note(true);
                tokens_cache = Some(toks);
            }
            None => {
                stats.note(false);
                let toks = {
                    let _s = casted_obs::span("frontend.lex_ns");
                    lex(source).map_err(StagedError::Frontend)?
                };
                casted_obs::add("frontend.tokens", toks.len() as u64);
                let payload = encode_tokens(&toks);
                let _ = self.store.save(KIND_TOK, lex_key, &payload);
                tok_payload = Some(payload);
                tokens_cache = Some(toks);
            }
        }
        let tokens_digest = fnv1a(tok_payload.as_deref().expect("tok payload present"));
        let tokens = tokens_cache.expect("tokens present");

        // A parse is needed only when sema or codegen must recompute;
        // run it at most once.
        let mut program = None;
        let parsed =
            |tokens: &[Token],
             program: &mut Option<casted_frontend::Program>|
             -> Result<(), StagedError> {
                if program.is_none() {
                    let _s = casted_obs::span("frontend.parse_ns");
                    *program = Some(parse(tokens).map_err(StagedError::Frontend)?);
                }
                Ok(())
            };

        // --- stage: sema ---------------------------------------------
        let sema_key = sema_stage_key(tokens_digest);
        match load_metered(&self.store, KIND_SEMA, sema_key) {
            Some(marker) if marker.is_empty() => stats.note(true),
            _ => {
                stats.note(false);
                parsed(&tokens, &mut program)?;
                {
                    let _s = casted_obs::span("frontend.sema_ns");
                    sema::check(program.as_ref().expect("parsed"))
                        .map_err(StagedError::Frontend)?;
                }
                let _ = self.store.save(KIND_SEMA, sema_key, &[]);
            }
        }

        // --- stage: codegen ------------------------------------------
        let cg_key = codegen_stage_key(tokens_digest, name);
        let mut ir_payload = load_metered(&self.store, KIND_IR, cg_key);
        let module = match ir_payload.as_deref().and_then(ircodec::decode_module) {
            Some(m) => {
                stats.note(true);
                m
            }
            None => {
                stats.note(false);
                parsed(&tokens, &mut program)?;
                let module = {
                    let _s = casted_obs::span("frontend.codegen_ns");
                    casted_frontend::compile_program(name, program.as_ref().expect("parsed"))
                        .map_err(StagedError::Frontend)?
                };
                {
                    let _v = casted_obs::span("frontend.verify_ns");
                    if let Err(errs) = casted_ir::verify::verify_module(&module) {
                        return Err(StagedError::Frontend(
                            errs.into_iter()
                                .map(|e| Diag::new(0, format!("internal: generated invalid IR: {e}")))
                                .collect(),
                        ));
                    }
                }
                let payload = ircodec::encode_module(&module);
                let _ = self.store.save(KIND_IR, cg_key, &payload);
                ir_payload = Some(payload);
                module
            }
        };
        let module_digest = fnv1a(ir_payload.as_deref().expect("ir payload present"));
        Ok((module, module_digest))
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
        self.prepare_with(name, source, scheme, config, &PrepareOptions::default())
    }

    /// [`ArtifactPipeline::prepare`] with explicit options.
    pub fn prepare_with(
        &self,
        name: &str,
        source: &str,
        scheme: Scheme,
        config: &MachineConfig,
        opts: &PrepareOptions,
    ) -> Result<(Prepared, StageStats), StagedError> {
        let mut stats = StageStats::default();
        let (module, digest) = self.compile(name, source, &mut stats)?;
        let prepared = prepare_staged(
            &self.store,
            digest,
            &module,
            scheme,
            config,
            opts,
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
    fn tokens_round_trip_and_reject_damage() {
        let toks = lex(SRC).unwrap();
        assert!(toks.iter().any(|t| t.kind == TokenKind::Eof));
        let bytes = encode_tokens(&toks);
        let back = decode_tokens(&bytes).unwrap();
        assert_eq!(toks.len(), back.len());
        for (a, b) in toks.iter().zip(&back) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.text, b.text);
            assert_eq!(a.int_val, b.int_val);
            assert_eq!(a.float_val.to_bits(), b.float_val.to_bits());
            assert_eq!(a.line, b.line);
        }
        assert_eq!(bytes, encode_tokens(&back), "codec must be canonical");
        for cut in 0..bytes.len() {
            assert!(decode_tokens(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut garbage = bytes.clone();
        garbage.push(0);
        assert!(decode_tokens(&garbage).is_none());
    }

    #[test]
    fn float_and_negative_literals_survive_the_token_codec() {
        let toks = lex("fn main() { out(1.5 + 0.25); out(0 - 9000000000); }").unwrap();
        let back = decode_tokens(&encode_tokens(&toks)).unwrap();
        for (a, b) in toks.iter().zip(&back) {
            assert_eq!(a.int_val, b.int_val);
            assert_eq!(a.float_val.to_bits(), b.float_val.to_bits());
        }
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
        assert_eq!(cold.hit, 0);
        assert_eq!(warm.hit, 3, "lexparse + sema + codegen must all hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn whitespace_edit_keeps_downstream_stages_warm() {
        let dir = temp_dir("ws");
        let p = ArtifactPipeline::open(&dir).unwrap();
        let mut first = StageStats::default();
        p.compile("m", SRC, &mut first).unwrap();
        // Same token stream, different source text: lexparse misses,
        // the content-digest chain keeps sema and codegen warm.
        let spaced = SRC.replace("s = s + i * i;", "s   =  s +  i *   i ;");
        assert_ne!(SRC, spaced);
        let mut second = StageStats::default();
        p.compile("m", &spaced, &mut second).unwrap();
        assert_eq!(second.miss, 1, "only lexparse re-runs");
        assert_eq!(second.hit, 2, "sema + codegen stay warm");
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
        // Only the token artifact may exist; sema must not have been
        // marked successful.
        let mut s2 = StageStats::default();
        assert!(p.compile("m", bad, &mut s2).is_err());
        assert!(s2.hit <= 1, "a failing program must re-check every run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_only_change_skips_the_whole_front_end() {
        let dir = temp_dir("cfgonly");
        let p = ArtifactPipeline::open(&dir).unwrap();
        let (_, s1) = p
            .prepare("m", SRC, Scheme::Casted, &MachineConfig::itanium2_like(2, 2))
            .unwrap();
        assert_eq!(s1.total, 6);
        assert_eq!(s1.hit, 0);
        let (prep, s2) = p
            .prepare("m", SRC, Scheme::Casted, &MachineConfig::itanium2_like(4, 1))
            .unwrap();
        assert_eq!(s2.total, 6);
        assert_eq!(
            s2.hit, 4,
            "lexparse/sema/codegen/ed must all survive a machine-config change"
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

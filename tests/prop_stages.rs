//! Property tests for the memoized stage-graph compile pipeline
//! (`casted::stages`, `casted::passes::stages`).
//!
//! The contract under test is **exactness**: a warm staged compile is
//! byte-identical to a cold, unstaged (monolithic) compile of the same
//! source under the same configuration — the artifact store is a pure
//! memo table, never an approximation. The properties drive random
//! MiniC programs through the pipeline, then perturb one axis at a
//! time (whitespace, one literal token, the machine config) and check
//! both the result bytes and the stage-level invalidation profile:
//! an edit may only re-run the stages it actually feeds.
//!
//! Failures print the harness's canonical `REPLAY seed=0x…` token
//! (see `casted_util::prop`).

use casted::ir::codec as ircodec;
use casted::ir::MachineConfig;
use casted::passes::stages::encode_ra_artifact;
use casted::stages::ArtifactPipeline;
use casted::{obs, Prepared, Scheme};
use casted_util::prop::run_cases;
use casted_util::{prop_assert_eq, Rng};

/// Tests in this binary share the process-global metrics registry
/// (the counter-snapshot test below enables it); serialize them so a
/// concurrently-running property case cannot leak `frontend.*` spans
/// into the snapshot.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn temp_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "casted-prop-stages-{tag}-{}-{case:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ------------------------- program generator -----------------------

/// Emit a random, always-valid MiniC program: a handful of `int`
/// locals, straight-line arithmetic, counted loops and branches, and
/// `out(..)` of every local so no assignment is dead.
fn gen_program(rng: &mut Rng) -> String {
    let nvars = rng.gen_range(2usize..5);
    let mut s = String::from("fn main() -> int {\n");
    for v in 0..nvars {
        s.push_str(&format!(
            "    var x{v}: int = {};\n",
            rng.gen_range(0i64..100)
        ));
    }
    let var = |rng: &mut Rng| rng.gen_range(0usize..nvars);
    for _ in 0..rng.gen_range(3usize..9) {
        match rng.gen_range(0u32..3) {
            0 => {
                let (a, b, c) = (var(rng), var(rng), var(rng));
                let op = ["+", "-", "*"][rng.gen_range(0usize..3)];
                s.push_str(&format!(
                    "    x{a} = x{b} {op} x{c} + {};\n",
                    rng.gen_range(0i64..50)
                ));
            }
            1 => {
                let a = var(rng);
                let n = rng.gen_range(2i64..12);
                let k = rng.gen_range(1i64..9);
                s.push_str(&format!(
                    "    for i in 0..{n} {{ x{a} = x{a} + i * {k}; }}\n"
                ));
            }
            _ => {
                let (a, b) = (var(rng), var(rng));
                let t = rng.gen_range(0i64..200);
                let d = rng.gen_range(1i64..40);
                s.push_str(&format!(
                    "    if x{a} > {t} {{ x{b} = x{b} + {d}; }} else {{ x{b} = x{b} - {d}; }}\n"
                ));
            }
        }
    }
    for v in 0..nvars {
        s.push_str(&format!("    out(x{v});\n"));
    }
    s.push_str("    return 0;\n}\n");
    s
}

/// Byte ranges of every integer literal in `src` (digit runs not glued
/// to an identifier — `x12` is a name, `12` is a literal).
fn literal_spans(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            let glued = start > 0 && (b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_');
            // `1.5` would need float handling; the generator emits
            // ints only, but skip dotted runs defensively.
            let dotted = i < b.len() && b[i] == b'.';
            if !glued && !dotted {
                spans.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    spans
}

// ------------------------- fingerprints ----------------------------

/// Canonical bytes of everything a `Prepared` carries; two prepares
/// are "byte-identical" iff these match.
fn prepared_fingerprint(p: &Prepared) -> (Vec<u8>, usize, String, Vec<u8>) {
    (
        ircodec::encode_scheduled(&p.sp),
        p.spilled,
        format!("{:?}", p.ed_stats),
        encode_ra_artifact(&p.phys),
    )
}

/// The cold, unstaged reference: monolithic front end + monolithic
/// back end, no artifact store anywhere.
fn legacy_prepare(src: &str, scheme: Scheme, config: &MachineConfig) -> Prepared {
    let m = casted::frontend::compile("m", src).expect("generated program must compile");
    casted::passes::prepare(&m, scheme, config).expect("generated program must schedule")
}

fn pick_config(rng: &mut Rng) -> MachineConfig {
    let issue = [1usize, 2, 4][rng.gen_range(0usize..3)];
    let delay = rng.gen_range(1u32..4);
    MachineConfig::itanium2_like(issue, delay)
}

// ------------------------- properties ------------------------------

/// Warm staged output is byte-identical to the cold unstaged compile,
/// for random programs, schemes and machine configs.
#[test]
fn warm_staged_compile_equals_cold_unstaged_compile() {
    let _g = GATE.lock().unwrap();
    run_cases("staged_exactness", 24, |rng| {
        let src = gen_program(rng);
        let scheme = *rng.pick(&Scheme::ALL);
        let config = pick_config(rng);
        let reference = prepared_fingerprint(&legacy_prepare(&src, scheme, &config));

        let dir = temp_dir("exact", rng.next_u64());
        let p = ArtifactPipeline::open(&dir).map_err(|e| e.to_string())?;
        let (cold, cold_stats) = p
            .prepare("m", &src, scheme, &config)
            .map_err(|e| e.to_string())?;
        let (warm, warm_stats) = p
            .prepare("m", &src, scheme, &config)
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(cold_stats.miss, 4, "fresh store must miss every stage");
        prop_assert_eq!(warm_stats.hit, 4, "second run must hit every stage");
        prop_assert_eq!(prepared_fingerprint(&cold), reference, "cold staged != legacy");
        prop_assert_eq!(prepared_fingerprint(&warm), reference, "warm staged != legacy");
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    });
}

/// A single edit invalidates only the stages it feeds:
/// - whitespace-only (spaces, a newline or a blank line) ⇒ the front
///   end re-runs, and the unchanged module keeps ed/sched/ra warm;
/// - one literal token ⇒ every stage re-runs (the value flows through
///   codegen into the scheduled artifact);
/// - machine-config-only ⇒ the front end and the ED transform stay
///   warm, only schedule + regalloc re-run.
///
/// In every case the staged result still equals a from-scratch
/// monolithic compile of the edited input.
#[test]
fn random_edits_invalidate_only_the_stages_they_feed() {
    let _g = GATE.lock().unwrap();
    run_cases("staged_invalidation", 24, |rng| {
        let src = gen_program(rng);
        let scheme = *rng.pick(&Scheme::ALL);
        let config = pick_config(rng);

        let dir = temp_dir("edit", rng.next_u64());
        let p = ArtifactPipeline::open(&dir).map_err(|e| e.to_string())?;
        p.prepare("m", &src, scheme, &config)
            .map_err(|e| e.to_string())?;

        let edit = rng.gen_range(0u32..3);
        let (src2, config2) = match edit {
            // Whitespace: pad a random single-space gap with spaces or
            // a newline, or insert a blank line. The module carries no
            // line numbers, so its bytes do not move.
            0 => {
                let gaps: Vec<usize> = src
                    .bytes()
                    .enumerate()
                    .filter(|&(i, c)| c == b' ' && src.as_bytes().get(i + 1) != Some(&b' '))
                    .map(|(i, _)| i)
                    .collect();
                let at = gaps[rng.gen_range(0usize..gaps.len())];
                let pad = ["  ", "\n", " \n\n "][rng.gen_range(0usize..3)];
                let mut s = src.clone();
                s.insert_str(at, pad);
                (s, config)
            }
            // One literal token changes value.
            1 => {
                let spans = literal_spans(&src);
                let (lo, hi) = spans[rng.gen_range(0usize..spans.len())];
                let old = &src[lo..hi];
                let mut fresh = rng.gen_range(0i64..100).to_string();
                if fresh == old {
                    fresh = format!("{}", old.parse::<i64>().unwrap() + 1);
                }
                let mut s = String::with_capacity(src.len() + 2);
                s.push_str(&src[..lo]);
                s.push_str(&fresh);
                s.push_str(&src[hi..]);
                (s, config)
            }
            // Machine config only.
            _ => {
                let mut c2 = pick_config(rng);
                while c2.issue_width == config.issue_width
                    && c2.inter_cluster_delay == config.inter_cluster_delay
                {
                    c2 = pick_config(rng);
                }
                (src.clone(), c2)
            }
        };

        let (prep, stats) = p
            .prepare("m", &src2, scheme, &config2)
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(stats.total, 4);
        match edit {
            0 => {
                prop_assert_eq!(stats.miss, 1, "whitespace must only re-run the front end");
                prop_assert_eq!(stats.hit, 3);
            }
            1 => {
                prop_assert_eq!(stats.hit, 0, "a changed literal feeds every stage");
            }
            _ => {
                prop_assert_eq!(stats.hit, 2, "config change must keep frontend/ed warm");
                prop_assert_eq!(stats.miss, 2, "only schedule + regalloc re-run");
            }
        }
        prop_assert_eq!(
            prepared_fingerprint(&prep),
            prepared_fingerprint(&legacy_prepare(&src2, scheme, &config2)),
            "edited staged result != from-scratch compile (edit kind {edit})"
        );
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    });
}

/// The acceptance-criterion counter snapshot: after a machine-config
/// change against a warm store, the front end does **zero** work — no
/// `frontend.*` span or counter fires — and exactly two stages hit
/// (frontend, ed).
#[test]
fn config_change_snapshot_has_no_frontend_work() {
    let _g = GATE.lock().unwrap();
    let src = "fn main() -> int {\n    var s: int = 0;\n    for i in 0..25 { s = s + i * i; }\n    out(s);\n    return 0;\n}\n";
    let dir = temp_dir("snapshot", 0);
    let p = ArtifactPipeline::open(&dir).unwrap();
    // Cold pass under config A, unmetered.
    p.prepare("m", src, Scheme::Casted, &MachineConfig::itanium2_like(2, 2))
        .unwrap();

    obs::reset();
    obs::set_enabled(true);
    let (_, stats) = p
        .prepare("m", src, Scheme::Casted, &MachineConfig::itanium2_like(4, 1))
        .unwrap();
    obs::set_enabled(false);
    let export = obs::export_json();
    obs::reset();

    assert!(
        !export.contains("\"frontend."),
        "a config-only change must not touch the front end:\n{export}"
    );
    assert_eq!(stats.hit, 2, "expected 2 stage hits, got {stats:?}");
    let hit: u64 = export
        .split("\"compile.stages.hit\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("compile.stages.hit counter missing from export");
    assert_eq!(hit, 2, "compile.stages.hit = {hit}, not 2:\n{export}");
    let _ = std::fs::remove_dir_all(&dir);
}

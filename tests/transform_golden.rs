//! Transform golden test: the protection passes' output, pinned
//! directly.
//!
//! `sim_golden.txt` sees the transformed modules only through the
//! schedule. This test pins what the replication pass itself emits:
//! for each of the seven kernels, the FNV-64 of the canonical module
//! encoding (`casted_ir::codec::encode_module`) and every `EdStats`
//! field, after `error_detection_with` under the default, fused-check
//! and selective options and after `tmr_transform`. A refactor of the
//! pass that is meant to be behaviour-preserving must leave this file
//! byte-identical — same instruction ids, register numbering and
//! statistics.
//!
//! To regenerate after an intentional change to the transforms:
//!
//! ```text
//! CASTED_UPDATE_SNAPSHOT=1 cargo test --offline --test transform_golden
//! ```

use casted::ir::{codec, Module};
use casted::passes::errordetect::{error_detection_with, EdOptions, EdStats};
use casted::passes::schemes::tmr_transform;
use casted::util::hash::fnv1a;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/snapshots/transform_golden.txt"
);

/// One line per transform run: the module digest and every statistic.
fn render(label: &str, m: &Module, s: &EdStats) -> String {
    format!(
        "{label} module={:016x} replicated={} isolation_copies={} checks={} renamed_regs={} \
         size_before={} size_after={}",
        fnv1a(&codec::encode_module(m)),
        s.replicated,
        s.isolation_copies,
        s.checks,
        s.renamed_regs,
        s.size_before,
        s.size_after
    )
}

fn run_all() -> String {
    let variants = [
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
    let mut lines = Vec::new();
    for w in casted_workloads::all() {
        let module = w.compile().expect("kernel compiles");
        for (tag, opts) in &variants {
            let mut m = module.clone();
            let st = error_detection_with(&mut m, opts);
            lines.push(render(&format!("{} ed-{tag}", w.name), &m, &st));
        }
        let mut m = module.clone();
        let st = tmr_transform(&mut m);
        lines.push(render(&format!("{} tmr", w.name), &m, &st));
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[test]
fn transform_output_matches_golden() {
    let got = run_all();
    if std::env::var_os("CASTED_UPDATE_SNAPSHOT").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden snapshot");
        eprintln!("updated {GOLDEN}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("missing golden snapshot — run with CASTED_UPDATE_SNAPSHOT=1 once");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "transform output drifted at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "run count drifted from tests/snapshots/transform_golden.txt"
    );
}

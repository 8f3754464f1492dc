//! Checked-in expected values under `perfbench/expected/`, and the
//! command that regenerates them:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --regenerate
//! ```
//!
//! Each file holds one row per cell: space-separated key fields, then
//! unsigned counts. Regenerate only when a change is meant to alter the
//! simulated model; a speed-only change must leave every row as it is.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use casted_faults::{run_campaign_engine, Engine};
use casted_util::pool::run_pool;

use crate::{coverage, perf_grid};

fn path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(file)
}

/// Rows of `file` keyed by their first `key_fields` fields joined with
/// single spaces. A missing file yields no rows (every pin then reads
/// as changed).
pub fn load_keyed(file: &str, key_fields: usize) -> HashMap<String, Vec<u64>> {
    let text = std::fs::read_to_string(path(file)).unwrap_or_default();
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let (key, counts) = fields.split_at(key_fields.min(fields.len()));
            let counts = counts
                .iter()
                .map(|c| c.parse().unwrap_or(u64::MAX))
                .collect();
            (key.join(" "), counts)
        })
        .collect()
}

fn write(file: &str, header: &str, rows: &[String]) {
    let mut text = format!("# {header}\n");
    for row in rows {
        let _ = writeln!(text, "{row}");
    }
    std::fs::create_dir_all(path("")).expect("create expected/");
    std::fs::write(path(file), text).expect("write expected file");
    println!("wrote {} ({} rows)", path(file).display(), rows.len());
}

fn join(counts: impl IntoIterator<Item = u64>) -> String {
    counts
        .into_iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Recompute every expected file from the current program.
pub fn regenerate() {
    // perf_grid: per-cell counts, each cell's output checked against
    // the interpreter first.
    let ws = casted_workloads::all();
    let cells = perf_grid::cells(&ws, &perf_grid::spec());
    let modules: Vec<_> = ws
        .iter()
        .map(|w| w.compile().expect("kernel compiles"))
        .collect();
    let refs = perf_grid::reference_streams(&modules);
    let rows: Vec<String> = cells
        .iter()
        .zip(perf_grid::measure_all(&modules, &cells, &refs))
        .map(|(cell, m)| {
            let (m, _) = m.unwrap_or_else(|e| panic!("{}: {e}", cell.key(&ws)));
            assert!(
                m.stream_ok,
                "{}: output differs from the interpreter",
                cell.key(&ws)
            );
            format!("{} {}", cell.key(&ws), join(m.counts))
        })
        .collect();
    write(
        perf_grid::PINNED,
        "kernel scheme issue delay | cycles dyn_insns bundles nop_slots",
        &rows,
    );

    // coverage_campaign: tallies from the reference engine; work counts
    // from the default engine, whose tallies must agree.
    let cells = coverage::prepare_cells();
    let tasks: Vec<_> = cells
        .iter()
        .map(|cell| {
            move || {
                let cfg = cell.campaign();
                let reference = run_campaign_engine(&cell.sp, &cfg, Engine::Reference);
                let default = run_campaign_engine(&cell.sp, &cfg, Engine::default());
                assert_eq!(
                    reference.tally,
                    default.tally,
                    "engines disagree on {}",
                    cell.key()
                );
                format!(
                    "{} {} {}",
                    cell.key(),
                    join(reference.tally.counts.iter().map(|&c| c as u64)),
                    join(coverage::engine_counts(&default.engine))
                )
            }
        })
        .collect();
    write(
        coverage::PINNED,
        &format!(
            "kernel scheme | {} | {}",
            coverage::OUTCOMES,
            coverage::ENGINE_COUNTS
        ),
        &run_pool(tasks),
    );
}

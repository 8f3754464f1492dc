//! Exporters: full JSON and deterministic counter-only snapshot JSON.
//! Both hand-rolled (no serde in this workspace); key order
//! is the registry's sorted order, and number formatting is plain
//! decimal `u64` — no float formatting can creep into the snapshot.

use crate::registry::{Metric, Registry};

/// Escape `s` for use inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_object(entries: &[(String, String)], indent: &str, out: &mut String) {
    out.push_str("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(indent);
        out.push_str("  \"");
        out.push_str(k);
        out.push_str("\": ");
        out.push_str(v);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(indent);
    out.push('}');
}

/// Full JSON export: three sections (`counters`, `gauges`,
/// `timers_ns`), each sorted by metric name. Counter values are
/// deterministic; gauge and timer values are not.
pub fn export_json(r: &Registry) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut timers = Vec::new();
    for (name, metric) in r.collect() {
        let key = escape_json(name);
        match metric {
            Metric::Counter(c) => counters.push((key, c.get().to_string())),
            Metric::Gauge(g) => gauges.push((key, g.get().to_string())),
            Metric::Hist(h) => {
                let stats = format!(
                    "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.p50(),
                    h.p95(),
                    h.p99()
                );
                timers.push((key, stats));
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\n  \"counters\": ");
    json_object(&counters, "  ", &mut out);
    out.push_str(",\n  \"gauges\": ");
    json_object(&gauges, "  ", &mut out);
    out.push_str(",\n  \"timers_ns\": ");
    json_object(&timers, "  ", &mut out);
    out.push_str("\n}\n");
    out
}

/// Counter-only snapshot: the deterministic, golden-testable view.
/// Exactly one top-level `counters` object, sorted names, plain `u64`
/// values, trailing newline — byte-stable across runs, hosts and
/// worker-scheduling orders for seeded workloads.
pub fn snapshot_json(r: &Registry) -> String {
    let counters: Vec<(String, String)> = r
        .collect()
        .into_iter()
        .filter_map(|(name, m)| match m {
            Metric::Counter(c) => Some((escape_json(name), c.get().to_string())),
            _ => None,
        })
        .collect();
    let mut out = String::new();
    out.push_str("{\n  \"counters\": ");
    json_object(&counters, "  ", &mut out);
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let r = Registry::new();
        r.counter("sim.cycles").add(123);
        r.counter("faults.trials").add(7);
        r.gauge("core.pool.workers").set(8);
        r.hist("frontend.lex_ns").observe(2048);
        r
    }

    #[test]
    fn snapshot_contains_only_counters_sorted() {
        let snap = snapshot_json(&sample());
        assert_eq!(
            snap,
            "{\n  \"counters\": {\n    \"faults.trials\": 7,\n    \"sim.cycles\": 123\n  }\n}\n"
        );
    }

    #[test]
    fn full_export_has_all_three_sections() {
        let j = export_json(&sample());
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"core.pool.workers\": 8"));
        assert!(j.contains("\"frontend.lex_ns\": {\"count\": 1"));
    }

    #[test]
    fn json_escaping_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain.name"), "plain.name");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape_json("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn escaped_names_round_trip_through_the_exporters() {
        let r = Registry::new();
        r.counter("weird\"name\\with\ncontrols").add(1);
        let snap = snapshot_json(&r);
        assert!(snap.contains("\"weird\\\"name\\\\with\\ncontrols\": 1"));
        let full = export_json(&r);
        assert!(full.contains("\"weird\\\"name\\\\with\\ncontrols\": 1"));
    }
}

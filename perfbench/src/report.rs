//! Metric table, failure accounting and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use casted_util::pool::run_pool;

use crate::host::RssSampler;

/// Which run prints a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Untraced run (`--trace 0`).
    EndToEnd,
    /// Traced run (`--trace 1`).
    Layer,
}

/// Every metric the benchmark can print, with its unit. `METRICS.md`
/// documents each row; a unit test keeps the two in step.
pub const METRICS: &[(&str, &str, Kind)] = {
    use Kind::{EndToEnd as E, Layer as L};
    &[
        ("setup_s", "s", E),
        ("throughput", "ops/s", E),
        ("latency_p50_ms", "ms", E),
        ("latency_p99_ms", "ms", E),
        ("peak_rss_mb", "MB", E),
        // perf_grid layers
        ("frontend.compile_s", "s", L),
        ("passes.ed_s", "s", L),
        ("passes.schedule_s", "s", L),
        ("passes.schedule.candidate_sims", "count", L),
        ("passes.schedule.candidate_sim_s", "s", L),
        ("passes.spill_s", "s", L),
        ("passes.spill.rounds", "count", L),
        ("passes.regalloc_s", "s", L),
        ("sim.measure_s", "s", L),
        ("sim.minsns_per_s", "Minsn/s", L),
        ("sim.cycles", "count", L),
        ("sim.dyn_insns", "count", L),
        ("passes.sched.bundles", "count", L),
        ("passes.sched.nop_slots", "count", L),
        // coverage_campaign layers
        ("passes.prepare_s", "s", L),
        ("faults.golden_s", "s", L),
        ("faults.campaign_s.NOED", "s", L),
        ("faults.campaign_s.SCED", "s", L),
        ("faults.campaign_s.DCED", "s", L),
        ("faults.campaign_s.CASTED", "s", L),
        ("faults.campaign_s.TMRED", "s", L),
        ("faults.campaign_s.RBED", "s", L),
        ("faults.trials", "count", L),
        ("faults.batch.lanes", "count", L),
        ("faults.batch.lane_steps", "count", L),
        ("faults.batch.bundles", "count", L),
        ("faults.batch.divergences", "count", L),
        ("faults.batch.retired.converged", "count", L),
        ("faults.checkpoint.taken", "count", L),
        ("faults.checkpoint.skipped_insns", "count", L),
        ("faults.replay_fallback_share", "ratio", L),
        ("faults.tally_digest", "hash48", L),
        // serve_mix layers
        ("serve.requests", "count", L),
        ("serve.hit_latency_p50_ms", "ms", L),
        ("serve.miss_latency_p50_ms", "ms", L),
        ("core.service_api.exec_s.compile", "s", L),
        ("core.service_api.exec_s.simulate", "s", L),
        ("core.service_api.exec_s.inject", "s", L),
        ("serve.overhead_ms_p50", "ms", L),
        ("serve.protocol_s", "s", L),
        ("serve.cache.hit_ratio", "ratio", L),
        ("serve.cache.hits", "count", L),
        ("serve.busy", "count", L),
        ("core.stages.hit_ratio", "ratio", L),
        ("core.stages.mem_hits", "count", L),
        ("faults.sections.hit_ratio", "ratio", L),
        ("util.store.bytes", "bytes", L),
        // every workload
        ("traced_wall_s", "s", L),
        ("unattributed_s", "s", L),
        ("trace_overhead_share", "ratio", L),
    ]
};

fn lookup(name: &str) -> (&'static str, &'static str, Kind) {
    *METRICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is missing from the metric table"))
}

/// Collects metrics and oracle verdicts for one run.
pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    stats_changed: u64,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            stats_changed: 0,
        }
    }

    /// Record a metric (panics on a name missing from [`METRICS`]).
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, _, _) = lookup(name);
        self.values.insert(name, value);
    }

    /// One checked operation: counts as attempted, and as failed (with
    /// the operation named on stderr) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// A pinned work count differs from `perfbench/expected/`. Not an
    /// output failure, but loud: a speed-only change must not move it.
    pub fn stat(&mut self, what: &str, expected: u64, got: u64) {
        if expected != got {
            self.stats_changed += 1;
            eprintln!("!!! simulated statistics changed: {what}: expected {expected}, got {got}");
        }
    }

    /// Operations attempted and failed so far.
    #[cfg(test)]
    pub fn counts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// Print the metrics by name and unit, then the JSON result line.
    pub fn finish(self) {
        let kind = if self.trace {
            Kind::Layer
        } else {
            Kind::EndToEnd
        };
        let mut json = Vec::new();
        for &(name, unit, k) in METRICS {
            if k != kind {
                continue;
            }
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => panic!("metric {name} is not finite: {v}"),
                None if kind == Kind::Layer => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("{name:36} {value:>16.6} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.stats_changed > 0 {
            println!(
                "!!! simulated statistics changed: {} pinned count(s) differ from perfbench/expected/ (see stderr)",
                self.stats_changed
            );
        } else {
            println!("pinned work counts: unchanged");
        }
        let fail_share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_share = {fail_share} ({} of {} operations)",
            self.failed, self.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// Nearest-rank percentile of `xs` (`q` in 0..=1); 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs` (the mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Fewest rounds of a timed run, so every operation has a choice of
/// times to take its fastest from.
pub const MIN_ROUNDS: usize = 3;

/// Whether to start another round after `done` rounds took `elapsed`
/// seconds: at least [`MIN_ROUNDS`], then only while one more round of
/// the mean length so far still ends within `seconds`.
pub fn another_round(done: usize, elapsed: f64, seconds: f64) -> bool {
    done < MIN_ROUNDS || elapsed * (done + 1) as f64 / done as f64 <= seconds
}

/// Operations timed in rounds, as [`timed_rounds`] returns them.
pub struct Rounds<T> {
    /// Per operation, its fastest time over the rounds, in seconds.
    pub fastest: Vec<f64>,
    /// Per round, every operation's output in operation order.
    pub outputs: Vec<Vec<T>>,
    /// Per round, the peak resident set during it (set-up included).
    pub peak_rss_mb: Vec<f64>,
}

/// Run operations `0..n` in rounds until [`another_round`] says stop.
/// Each round first calls `setup` (untimed here; it times itself), then
/// runs every operation once, in an order drawn from `seed`, on the
/// pool when `parallel`. An operation's time is its fastest round: on a
/// shared host other tenants slow a run down in bursts of a few
/// seconds, and the fastest of many rounds spread over the run is the
/// figure those bursts move least.
pub fn timed_rounds<T: Send>(
    n: usize,
    seconds: f64,
    seed: u64,
    parallel: bool,
    mut setup: impl FnMut(),
    op: impl Fn(usize) -> T + Sync,
) -> Rounds<T> {
    let mut rng = casted_util::Rng::seed_from_u64(seed);
    let mut fastest = vec![f64::INFINITY; n];
    let mut outputs = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let rss = RssSampler::start();
    let start = Instant::now();
    while another_round(outputs.len(), start.elapsed().as_secs_f64(), seconds) {
        setup();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let timed = |i: usize| {
            let t = Instant::now();
            let out = op(i);
            (i, t.elapsed().as_secs_f64(), out)
        };
        let done: Vec<(usize, f64, T)> = if parallel {
            run_pool(order.iter().map(|&i| move || timed(i)).collect())
        } else {
            order.into_iter().map(timed).collect()
        };
        let mut round: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, secs, out) in done {
            fastest[i] = fastest[i].min(secs);
            round[i] = Some(out);
        }
        outputs.push(round.into_iter().map(|o| o.expect("every op ran")).collect());
        peak_rss_mb.push(rss.take());
    }
    Rounds {
        fastest,
        outputs,
        peak_rss_mb,
    }
}

/// The end-to-end timings of a workload from each operation's fastest
/// time. `throughput` counts `units` of work per operation (trials per
/// campaign, say) and is the rate with `in_flight` operations running
/// at once, each at its fastest: `in_flight` × `units` × operations ÷
/// the sum of the fastest times. The latencies are percentiles of the
/// fastest times.
pub fn report_fastest(rep: &mut Report, fastest: &[f64], in_flight: usize, units: usize) {
    let total: f64 = fastest.iter().sum();
    let ms: Vec<f64> = fastest.iter().map(|s| s * 1e3).collect();
    rep.metric("throughput", (in_flight * units * fastest.len()) as f64 / total);
    rep.metric("latency_p50_ms", median(&ms));
    rep.metric("latency_p99_ms", percentile(&ms, 0.99));
}

/// `peak_rss_mb`: the median over rounds of each round's peak resident
/// set. One peak over the whole run would grow with the number of
/// rounds, which varies with the host's speed, and would be the one
/// round in which the most memory-heavy operations happened to overlap.
pub fn report_peak_rss(rep: &mut Report, per_round: &[f64]) {
    rep.metric("peak_rss_mb", median(per_round));
    let shown: Vec<String> = per_round.iter().map(|mb| format!("{mb:.1}")).collect();
    println!("peak RSS per round (MB): {}", shown.join(" "));
}

/// Times calls into one layer. Disabled, it calls straight through, so
/// the untraced pass of a traced run executes the same code.
pub struct Tracer {
    on: bool,
    layers: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            layers: BTreeMap::new(),
        }
    }

    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = std::time::Instant::now();
        let out = f();
        *self.layers.entry(layer).or_default() += t.elapsed().as_secs_f64();
        out
    }

    /// Add time measured elsewhere to a layer.
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        if self.on {
            *self.layers.entry(layer).or_default() += secs;
        }
    }

    /// Run `f` twice, once untraced and once traced with the
    /// workspace's obs counters on, alternating which goes first by
    /// `turn` so host drift falls on both alike. Adds the two wall times
    /// to `walls` (traced, untraced) and returns the traced result.
    pub fn twice<T>(
        &mut self,
        turn: usize,
        walls: &mut (f64, f64),
        mut f: impl FnMut(&mut Tracer) -> T,
    ) -> T {
        let mut out = None;
        for traced in [!turn.is_multiple_of(2), turn.is_multiple_of(2)] {
            casted_obs::set_enabled(traced);
            let t = std::time::Instant::now();
            let r = if traced {
                f(self)
            } else {
                f(&mut Tracer::new(false))
            };
            let secs = t.elapsed().as_secs_f64();
            casted_obs::set_enabled(false);
            if traced {
                walls.0 += secs;
                out = Some(r);
            } else {
                walls.1 += secs;
            }
        }
        out.expect("the traced run ran")
    }

    /// Add another tracer's layer times (one tracer per thread).
    pub fn merge(&mut self, other: &Tracer) {
        for (&layer, &secs) in &other.layers {
            self.add(layer, secs);
        }
    }

    pub fn get(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }

    /// Report every layer time, then the layer-sum cross-check against
    /// `wall` (traced) and the tracing overhead against `untraced_wall`.
    pub fn finish(&self, rep: &mut Report, wall: f64, untraced_wall: f64) {
        let mut sum = 0.0;
        for (&layer, &secs) in &self.layers {
            rep.metric(layer, secs);
            sum += secs;
        }
        let unattributed = wall - sum;
        rep.metric("traced_wall_s", wall);
        rep.metric("unattributed_s", unattributed);
        rep.metric(
            "trace_overhead_share",
            (wall - untraced_wall) / untraced_wall,
        );
        println!(
            "layer sum {sum:.4} s of traced wall {wall:.4} s: unattributed {unattributed:.4} s ({:.2}%)",
            100.0 * unattributed / wall
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_failed_check_is_counted() {
        let mut rep = Report::new(false);
        rep.check(true, || "fine".into());
        rep.check(false, || "corrupted".into());
        assert_eq!(rep.counts(), (2, 1));
    }

    /// Every metric the benchmark can print is documented in
    /// `METRICS.md` with its unit, and listed in `BENCHMARK.json` under
    /// the kind of run that prints it.
    #[test]
    fn every_metric_is_documented() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let doc = std::fs::read_to_string(root.join("METRICS.md")).expect("METRICS.md");
        let bench =
            std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let (e2e, layer) = bench
            .split_once("\"per_layer\"")
            .expect("per_layer section");
        for &(name, unit, kind) in METRICS {
            let row = format!("| `{name}` | {unit} |");
            assert!(doc.contains(&row), "METRICS.md lacks the row `{row}`");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let section = if kind == Kind::EndToEnd { e2e } else { layer };
            assert!(
                section.contains(&entry),
                "BENCHMARK.json lacks {entry} in its {kind:?} list"
            );
        }
    }
}

//! Property-based tests of the simulator against the reference
//! interpreter: for any generated program and any machine
//! configuration, functional behaviour must be identical and timing
//! invariants must hold.
//!
//! Driven by the in-repo harness (`casted_util::prop`).

use casted_ir::testgen::{random_module, GenOptions};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{interp, CacheLevelConfig, MachineConfig};
use casted_sim::{simulate, CacheHierarchy, SimOptions};
use casted_util::hash::Fnv64;
use casted_util::prop::run_cases;
use casted_util::rng::Rng;
use casted_util::{prop_assert, prop_assert_eq};

fn opts() -> GenOptions {
    GenOptions {
        body_ops: 25,
        iterations: 4,
        globals: 2,
        with_float: true,
        diamonds: 1,
        inner_loops: 1,
        lib_calls: 1,
    }
}

#[test]
fn simulator_matches_interpreter() {
    run_cases("simulator_matches_interpreter", 32, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let issue = rng.gen_range(1usize..=4);
        let delay = rng.gen_range(1u32..=4);
        let golden = interp::run(&m, 2_000_000).unwrap();
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(issue, delay));
        let r = simulate(&sp, &SimOptions::default());
        prop_assert_eq!(&r.stop, &golden.stop);
        prop_assert_eq!(r.stats.dyn_insns, golden.dyn_insns);
        prop_assert_eq!(r.stream.len(), golden.stream.len());
        for (x, y) in r.stream.iter().zip(&golden.stream) {
            prop_assert!(x.bit_eq(y));
        }
        Ok(())
    });
}

#[test]
fn cycle_accounting_invariants() {
    run_cases("cycle_accounting_invariants", 32, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let sp = ScheduledProgram::sequential(&m, MachineConfig::itanium2_like(1, 2));
        let r = simulate(&sp, &SimOptions::default());
        // Sequential one-insn bundles: every cycle is a bundle or a stall.
        prop_assert_eq!(r.stats.cycles, r.stats.bundles + r.stats.stall_cycles);
        prop_assert_eq!(r.stats.dyn_insns, r.stats.bundles);
        // Cycles can never undercut instructions on a 1-wide machine.
        prop_assert!(r.stats.cycles >= r.stats.dyn_insns);
        Ok(())
    });
}

#[test]
fn perfect_memory_never_slower() {
    run_cases("perfect_memory_never_slower", 32, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let run = |config| simulate(&ScheduledProgram::sequential(&m, config), &SimOptions::default());
        let cached = run(MachineConfig::itanium2_like(2, 2));
        let perfect = run(MachineConfig::perfect_memory(2, 2));
        prop_assert!(perfect.stats.cycles <= cached.stats.cycles);
        Ok(())
    });
}

#[test]
fn injected_run_always_classifiable() {
    run_cases("injected_run_always_classifiable", 32, |rng| {
        let m = random_module(rng.next_u64(), &opts());
        let at_frac = rng.gen_range(1u64..100);
        let bit = rng.gen_range(0u32..64);
        let sp = ScheduledProgram::sequential(&m, MachineConfig::perfect_memory(2, 1));
        let golden = simulate(&sp, &SimOptions::default());
        let at = (golden.stats.dyn_insns * at_frac / 100).max(1);
        let r = simulate(&sp, &SimOptions {
            max_cycles: golden.stats.cycles * 10 + 1000,
            injection: Some(casted_sim::Injection::single(at, bit, None)),
            ..SimOptions::default()
        });
        // Whatever happens, the run must terminate with one of the
        // five outcomes — never hang or panic.
        let outcome = casted_faults_lite_classify(&golden, &r);
        prop_assert!(outcome < 5);
        Ok(())
    });
}

/// Minimal classification (the faults crate is not a dependency of
/// casted-sim; this mirrors its logic for the property above).
fn casted_faults_lite_classify(golden: &casted_sim::SimResult, r: &casted_sim::SimResult) -> u8 {
    use casted_ir::interp::StopReason;
    match r.stop {
        StopReason::Detected => 1,
        StopReason::Exception(_) => 2,
        StopReason::Timeout => 4,
        StopReason::Halt(_) => {
            let same = golden.stop == r.stop
                && golden.stream.len() == r.stream.len()
                && golden.stream.iter().zip(&r.stream).all(|(a, b)| a.bit_eq(b));
            if same { 0 } else { 3 }
        }
    }
}

/// A machine whose cache levels have unusual line sizes and set
/// counts, including set counts that are not powers of two.
fn odd_cache_config(rng: &mut Rng) -> MachineConfig {
    let mut m = MachineConfig::itanium2_like(rng.gen_range(1usize..=4), 1);
    let n = rng.gen_range(1usize..=3);
    m.cache_levels = (0..n)
        .map(|i| {
            let line_bytes = *rng.pick(&[8usize, 24, 48, 64, 96, 256]);
            let ways = rng.gen_range(1usize..=6);
            let sets = *rng.pick(&[1usize, 2, 3, 8, 12, 64, 256]);
            CacheLevelConfig {
                name: ["L1", "L2", "L3"][i],
                size_bytes: sets * ways * line_bytes,
                line_bytes,
                ways,
                latency: 1 + 4 * i as u32,
            }
        })
        .collect();
    m
}

fn digest(c: &CacheHierarchy) -> u64 {
    let mut h = Fnv64::new();
    c.fingerprint_into(&mut h);
    h.finish()
}

/// A hierarchy sized to the memory a program can address behaves
/// exactly like one with every set and way of the configuration
/// allocated: same latency, same statistics and same fingerprint after
/// every access.
#[test]
fn cache_sized_to_memory_matches_full_capacity() {
    run_cases("cache_sized_to_memory_matches_full_capacity", 48, |rng| {
        let cfg = match rng.gen_range(0u32..4) {
            0 | 1 => {
                MachineConfig::itanium2_like(rng.gen_range(1usize..=4), rng.gen_range(1u32..=4))
            }
            2 => MachineConfig::perfect_memory(rng.gen_range(1usize..=4), 1),
            _ => odd_cache_config(rng),
        };
        let capacity = cfg
            .cache_levels
            .iter()
            .map(|l| l.size_bytes)
            .max()
            .unwrap_or(4096) as u64;
        let last_line = cfg.cache_levels.last().map_or(8, |l| l.line_bytes) as u64;
        let mem_bytes = match rng.gen_range(0u32..5) {
            0 => capacity,
            1 => capacity + last_line,
            2 => 8 * rng.gen_range(1u64..=64),
            _ => 8 * rng.gen_range(1u64..=(capacity * 5 / 4) / 8 + 1),
        };
        let words = (mem_bytes / 8).max(1);
        let mut sized = CacheHierarchy::new(&cfg, words * 8);
        let mut full = CacheHierarchy::new(&cfg, (words * 8).max(capacity));
        prop_assert!(sized.heap_bytes() <= full.heap_bytes());
        prop_assert_eq!(digest(&sized), digest(&full));
        // Conflict strides of every level, so sets fill and evict.
        let strides: Vec<u64> = cfg
            .cache_levels
            .iter()
            .map(|l| (l.sets() * l.line_bytes) as u64)
            .chain([8, 136])
            .collect();
        let mut addr = 8 * rng.below(words);
        for step in 0..1500 {
            addr = match rng.gen_range(0u32..4) {
                0 => 8 * rng.below(words),
                1 | 2 => (addr + *rng.pick(&strides)) % (words * 8) / 8 * 8,
                _ => addr,
            };
            let (a, b) = (sized.access(addr), full.access(addr));
            prop_assert_eq!(
                a,
                b,
                "latency of access {} at {:#x} ({} words)",
                step,
                addr,
                words
            );
            prop_assert_eq!(&sized.stats, &full.stats, "stats after access {}", step);
            prop_assert_eq!(
                digest(&sized),
                digest(&full),
                "fingerprint after access {}",
                step
            );
        }
        Ok(())
    });
}

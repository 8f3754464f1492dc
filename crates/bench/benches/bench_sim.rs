//! Benchmarks for the cycle-accurate simulator: fault-free throughput
//! per scheme and the cache hierarchy in isolation. Runs on the
//! in-repo wall-clock runner (`casted_util::bench`).

use casted_util::bench::{Bench, BenchId};
use casted_util::{bench_group, bench_main};

fn bench_simulate(c: &mut Bench) {
    let mut g = c.benchmark_group("simulate_cjpeg");
    g.sample_size(10);
    let module = casted_workloads::by_name("cjpeg").unwrap().compile().unwrap();
    let cfg = casted::ir::MachineConfig::itanium2_like(2, 2);
    for scheme in casted::Scheme::ALL {
        let prep = casted_passes::prepare(&module, scheme, &cfg).unwrap();
        g.bench_with_input(
            BenchId::from_parameter(scheme.name()),
            &prep,
            |b, prep| b.iter(|| casted::measure(prep)),
        );
    }
    g.finish();
}

fn bench_cache(c: &mut Bench) {
    let cfg = casted::ir::MachineConfig::itanium2_like(2, 2);
    c.bench_function("cache_hierarchy_stream", |b| {
        b.iter(|| {
            // The stream below stays under 4096 + 200_000 bytes.
            let mut cache = casted_sim::CacheHierarchy::new(&cfg, 4096 + 200_000);
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc += cache.access(4096 + (i * 72) % 200_000) as u64;
            }
            acc
        })
    });
}

fn bench_fault_trial(c: &mut Bench) {
    let mut g = c.benchmark_group("fault_trial");
    g.sample_size(10);
    let module = casted_workloads::by_name("197.parser").unwrap().compile().unwrap();
    let cfg = casted::ir::MachineConfig::itanium2_like(2, 2);
    let prep = casted_passes::prepare(&module, casted::Scheme::Casted, &cfg).unwrap();
    let golden = casted::measure(&prep);
    g.bench_function("parser_casted_one_injection", |b| {
        b.iter(|| {
            casted_faults::run_trial(
                &prep.sp,
                &golden,
                casted_sim::Injection::single(golden.stats.dyn_insns / 2, 17, None),
                golden.stats.cycles * 10,
            )
        })
    });
    g.finish();
}

bench_group!(benches, bench_simulate, bench_cache, bench_fault_trial);
bench_main!(benches);

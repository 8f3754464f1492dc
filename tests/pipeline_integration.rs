//! End-to-end pipeline integration: MiniC front-end → error detection →
//! placement/scheduling → spilling → register validation → simulation,
//! cross-checked against the reference interpreter.

use std::collections::{HashMap, HashSet};

use casted::ir::interp::{self, StopReason};
use casted::ir::vliw::ScheduledProgram;
use casted::ir::{BlockId, MachineConfig, Reg, RegClass};
use casted::passes::spill::{intervals, Interval};
use casted::sim::{block_validation_hashes, CampaignProgram};
use casted::util::hash::Fnv64;
use casted::Scheme;

/// Every benchmark, every scheme: the simulated output stream must be
/// bit-identical to the interpreter's golden run of the *untransformed*
/// program — error detection and scheduling must never change
/// semantics.
#[test]
fn all_benchmarks_all_schemes_preserve_semantics() {
    let cfg = MachineConfig::itanium2_like(2, 2);
    for w in casted_workloads::all() {
        let module = w.compile().expect("compile");
        let golden = interp::run(&module, 100_000_000).expect("golden run");
        assert!(matches!(golden.stop, StopReason::Halt(_)));
        for scheme in Scheme::ALL {
            let prep = casted::build(&module, scheme, &cfg)
                .unwrap_or_else(|e| panic!("{} {scheme}: {e}", w.name));
            prep.sp.validate().unwrap_or_else(|e| panic!("{} {scheme}: {e:?}", w.name));
            let r = casted::measure(&prep);
            assert_eq!(r.stop, golden.stop, "{} {scheme}: wrong stop", w.name);
            assert_eq!(
                r.stream.len(),
                golden.stream.len(),
                "{} {scheme}: stream length",
                w.name
            );
            for (a, b) in r.stream.iter().zip(&golden.stream) {
                assert!(a.bit_eq(b), "{} {scheme}: stream value differs", w.name);
            }
        }
    }
}

/// Error detection must cost cycles; the ordering NOED <= CASTED must
/// hold, and CASTED must not be slower than both fixed schemes.
#[test]
fn scheme_cost_ordering() {
    let cfg = MachineConfig::itanium2_like(2, 2);
    let module = casted_workloads::by_name("h263dec").unwrap().compile().unwrap();
    let mut cycles = std::collections::HashMap::new();
    for scheme in Scheme::ALL {
        let prep = casted::build(&module, scheme, &cfg).unwrap();
        cycles.insert(scheme, casted::measure(&prep).stats.cycles);
    }
    assert!(cycles[&Scheme::Noed] < cycles[&Scheme::Sced]);
    assert!(cycles[&Scheme::Noed] < cycles[&Scheme::Dced]);
    assert!(cycles[&Scheme::Noed] < cycles[&Scheme::Casted]);
    let best_fixed = cycles[&Scheme::Sced].min(cycles[&Scheme::Dced]);
    assert!(
        cycles[&Scheme::Casted] as f64 <= best_fixed as f64 * 1.10,
        "CASTED {} vs best fixed {}",
        cycles[&Scheme::Casted],
        best_fixed
    );
}

/// The register files of Table I must be respected after the pipeline:
/// the physical assignment proves peak pressure per (cluster, class)
/// fits 64/64/32.
#[test]
fn register_files_respected_across_configs() {
    let module = casted_workloads::by_name("cjpeg").unwrap().compile().unwrap();
    for (issue, delay) in [(1, 1), (4, 4)] {
        let cfg = MachineConfig::itanium2_like(issue, delay);
        for scheme in [Scheme::Noed, Scheme::Sced, Scheme::Casted] {
            let prep = casted::build(&module, scheme, &cfg).unwrap();
            for cluster in 0..2 {
                assert!(prep.phys.peak[cluster][RegClass::Gp.index()] <= 64);
                assert!(prep.phys.peak[cluster][RegClass::Fp.index()] <= 64);
                assert!(prep.phys.peak[cluster][RegClass::Pr.index()] <= 32);
            }
        }
    }
}

/// Error-detection statistics across the suite: every benchmark's
/// protected binary replicates instructions, checks every store-class
/// site, and grows beyond 2x (the paper quotes 2.4x average growth).
#[test]
fn ed_statistics_are_paper_like() {
    let cfg = MachineConfig::itanium2_like(2, 2);
    let mut growths = Vec::new();
    for w in casted_workloads::all() {
        let module = w.compile().unwrap();
        let prep = casted::build(&module, Scheme::Sced, &cfg).unwrap();
        let st = prep.ed_stats.unwrap();
        assert!(st.replicated > 0, "{}", w.name);
        assert!(st.checks > 0, "{}", w.name);
        growths.push(st.growth());
    }
    let avg = growths.iter().sum::<f64>() / growths.len() as f64;
    // The paper reports 2.4x average binary growth. Our kernels inline
    // their (unreplicated) library prelude into the measured code, so
    // the whole-program factor sits slightly lower.
    assert!(avg > 1.7, "average ED code growth {avg:.2} too small");
    assert!(avg < 4.0, "average ED code growth {avg:.2} implausibly high");
}

/// DCED must place the original stream on cluster 0 and the redundant
/// stream on cluster 1, for every benchmark.
#[test]
fn dced_stream_separation() {
    let cfg = MachineConfig::itanium2_like(2, 2);
    for w in casted_workloads::all().into_iter().take(3) {
        let module = w.compile().unwrap();
        let prep = casted::build(&module, Scheme::Dced, &cfg).unwrap();
        let f = prep.sp.module.entry_fn();
        for (_, block) in f.iter_blocks() {
            for &iid in &block.insns {
                let insn = f.insn(iid);
                let c = prep.sp.cluster_of(iid).unwrap();
                if insn.prov.is_redundant_stream() {
                    assert_eq!(c.index(), 1, "{}: redundant insn on cluster 0", w.name);
                } else {
                    assert_eq!(c.index(), 0, "{}: original insn on cluster 1", w.name);
                }
            }
        }
    }
}

/// The simulator and the interpreter must agree on dynamic instruction
/// counts (same instructions execute, only their timing differs).
#[test]
fn dyn_insn_counts_match_interpreter() {
    let cfg = MachineConfig::itanium2_like(3, 2);
    let module = casted_workloads::by_name("197.parser").unwrap().compile().unwrap();
    let golden = interp::run(&module, 100_000_000).unwrap();
    let prep = casted::build(&module, Scheme::Noed, &cfg).unwrap();
    let r = casted::measure(&prep);
    assert_eq!(r.stats.dyn_insns, golden.dyn_insns);
}

/// Live intervals as the back end computed them before its liveness
/// became one dense analysis over the schedule: source-order liveness
/// on hash sets, a `HashMap` of ranges, then a sort. The oracle
/// `casted::passes::spill::intervals` must match exactly.
fn hash_map_intervals(sp: &ScheduledProgram) -> Vec<Interval> {
    let func = sp.module.entry_fn();
    let n = func.blocks.len();
    let mut use_set: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut def_set: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    for (bid, block) in func.iter_blocks() {
        let (u, d) = (&mut use_set[bid.index()], &mut def_set[bid.index()]);
        for &iid in &block.insns {
            let insn = func.insn(iid);
            u.extend(insn.reg_uses().filter(|r| !d.contains(r)));
            d.extend(insn.defs.iter().copied());
        }
    }
    let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out = HashSet::new();
            for s in func.successors(BlockId(i as u32)) {
                out.extend(live_in[s.index()].iter().copied());
            }
            let mut inn = use_set[i].clone();
            inn.extend(out.iter().filter(|r| !def_set[i].contains(r)));
            changed |= out != live_out[i] || inn != live_in[i];
            live_out[i] = out;
            live_in[i] = inn;
        }
    }

    let mut range: HashMap<Reg, (u32, u32)> = HashMap::new();
    let mut touch = |r: Reg, p: u32| {
        let e = range.entry(r).or_insert((p, p));
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };
    let mut base = 0u32;
    for sb in &sp.blocks {
        let b = sb.block.index();
        for (cycle, bundle) in sb.bundles.iter().enumerate() {
            for (_, iid) in bundle.iter() {
                let insn = func.insn(iid);
                for r in insn.reg_uses().chain(insn.defs.iter().copied()) {
                    touch(r, base + cycle as u32);
                }
            }
        }
        let end = base + sb.length().max(1) as u32 - 1;
        live_in[b].iter().for_each(|&r| touch(r, base));
        live_out[b].iter().for_each(|&r| touch(r, end));
        base = end + 1;
    }
    let mut ivs: Vec<Interval> = range
        .into_iter()
        .map(|(reg, (start, end))| Interval { reg, start, end })
        .collect();
    ivs.sort_unstable_by_key(|iv| iv.reg);
    ivs
}

/// The dense schedule-order intervals equal the hash-map construction
/// on every kernel and scheme over three machine shapes.
#[test]
fn dense_intervals_match_the_hash_map_construction() {
    let mut compared = 0;
    for w in casted_workloads::all() {
        let module = w.compile().unwrap();
        for scheme in Scheme::FULL {
            for (issue, delay) in [(1, 1), (2, 2), (4, 4)] {
                let cfg = MachineConfig::itanium2_like(issue, delay);
                // TMRED on 175.vpr at issue 4 overflows the register
                // files and does not prepare.
                let Ok(prep) = casted::build(&module, scheme, &cfg) else {
                    continue;
                };
                assert_eq!(
                    intervals(&prep.sp),
                    hash_map_intervals(&prep.sp),
                    "{} {scheme} issue {issue} delay {delay}",
                    w.name
                );
                compared += 1;
            }
        }
    }
    assert!(compared >= 125, "only {compared} of 126 programs prepared");
}

/// The section store's validation hashes of one program, pinned: a
/// change to the live-in masks (or to the code hash) re-keys every
/// stored section, so it must show up here rather than as silent
/// cache misses.
#[test]
fn block_validation_hashes_are_pinned() {
    let module = casted_workloads::by_name("197.parser").unwrap().compile().unwrap();
    let prep = casted::build(&module, Scheme::Casted, &MachineConfig::itanium2_like(2, 2)).unwrap();
    let hashes = block_validation_hashes(&prep.sp, &CampaignProgram::new(&prep.sp));
    let mut h = Fnv64::new();
    for &(code, mask) in &hashes {
        h.write_u64(code);
        h.write_u64(mask);
    }
    assert_eq!((hashes.len(), h.finish()), (37, 4219824914414849428));
}

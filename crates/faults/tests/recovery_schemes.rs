//! Integration tests for the recovery-capable schemes (TMRED, RBED)
//! at the fault-campaign level:
//!
//! * **TMRED corrects** — on a workload where DCED merely *detects*
//!   single-bit strikes, TMRED's majority votes repair them in place:
//!   the campaign reports `Outcome::Corrected` and no detections.
//! * **RBED detects by replay digest** — the code is NOED's schedule
//!   byte for byte, yet every stream-visible corruption NOED would
//!   let through as SDC turns into `Detected` at a chunk boundary.
//! * **Engine invariance** — the reference engine, the checkpointed
//!   engine and its streamed form stay byte-identical for the new
//!   schemes under both the single-bit and burst flip models.
//! * **Vote-repaired trials prune** — on a real kernel, TMRED trials a
//!   vote repaired still converge with the golden run, so the
//!   checkpointed engine stops them early and they stay `Corrected`.
//! * **RBED restarts its capture** — on a real kernel, the golden
//!   capture under a digest plan skips ahead through pass-1 states
//!   like NOED's does, and the tally stays the reference engine's.
//! * **Zero-fault equivalence** — fault-free TMRED and RBED runs
//!   produce NOED's exact output stream and halt code.

use casted_faults::{
    draw_injection, run_campaign, run_campaign_engine, run_campaign_streaming, CampaignConfig,
    Engine, FlipModel, Outcome,
};
use casted_ir::interp::StopReason;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{FunctionBuilder, MachineConfig, Module, Opcode, Operand};
use casted_passes::{prepare, Scheme};
use casted_sim::{replay_trial, simulate_quiet, GoldenRun, Injection, SimOptions, TrialRun};
use casted_util::Rng;

/// Small arithmetic workload: sums a global table through a loop,
/// prints intermediate accumulators — enough dynamic length for a
/// meaningful campaign and enough dataflow for strikes to matter.
fn workload() -> Module {
    let mut m = Module::new("recovery");
    let (_, addr) = m.add_global(
        "g",
        casted_ir::func::GlobalClass::Int,
        32,
        (1..33).collect(),
    );
    let mut b = FunctionBuilder::new("main");
    let body = b.new_block("body");
    let done = b.new_block("done");
    let acc = b.imm(0);
    let i = b.imm(0);
    b.br(body);
    b.switch_to(body);
    let base = b.imm(addr);
    let sh = b.binop(Opcode::Shl, Operand::Reg(i), Operand::Imm(3));
    let ea = b.binop(Opcode::Add, Operand::Reg(base), Operand::Reg(sh));
    let v = b.load(ea, 0);
    let prod = b.binop(Opcode::Mul, Operand::Reg(v), Operand::Imm(3));
    let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(prod));
    b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
    b.out(Operand::Reg(acc));
    let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
    b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
    let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(32));
    b.br_cond(p, body, done);
    b.switch_to(done);
    b.out(Operand::Reg(acc));
    b.halt_imm(0);
    let id = m.add_function(b.finish());
    m.entry = Some(id);
    m
}

fn prepared(scheme: Scheme) -> ScheduledProgram {
    let cfg = MachineConfig::itanium2_like(2, 2);
    prepare(&workload(), scheme, &cfg).unwrap().sp
}

fn campaign_cfg(scheme: Scheme, trials: usize) -> CampaignConfig {
    CampaignConfig {
        trials,
        seed: 0xCA57ED,
        timeout_factor: 10,
        flip: FlipModel::Single,
        replay_detect: scheme.replay_detect(),
    }
}

#[test]
fn tmred_corrects_where_dced_detects() {
    let dced = run_campaign(&prepared(Scheme::Dced), &campaign_cfg(Scheme::Dced, 120));
    let tmred = run_campaign(&prepared(Scheme::Tmred), &campaign_cfg(Scheme::Tmred, 120));

    // DCED's dup-and-compare only reports strikes.
    assert!(dced.tally.count(Outcome::Detected) > 0, "{:?}", dced.tally);
    assert_eq!(dced.tally.count(Outcome::Corrected), 0);

    // TMRED's majority votes repair them in place: corrections happen,
    // and nothing is ever merely "detected" (there are no detect
    // branches in a TMR binary — a single-lane strike is outvoted).
    assert!(
        tmred.tally.count(Outcome::Corrected) > 0,
        "{:?}",
        tmred.tally
    );
    assert_eq!(tmred.tally.count(Outcome::Detected), 0);
    // Correction is the dominant outcome, standing in for the strikes
    // DCED would merely have reported. TMR's classic residual window —
    // a strike on a vote's *own* output, after the majority was taken
    // — shows up as a small SDC tail; it must stay the minority case.
    assert!(
        tmred.tally.count(Outcome::Corrected) > tmred.tally.count(Outcome::DataCorrupt),
        "correction must dominate the post-vote residue: {:?}",
        tmred.tally
    );
    assert!(
        tmred.tally.count(Outcome::Corrected) * 2 >= dced.tally.count(Outcome::Detected),
        "TMR should repair the bulk of what DCED reports: {:?} vs {:?}",
        tmred.tally,
        dced.tally
    );
}

#[test]
fn rbed_converts_noed_sdc_into_detection() {
    // RBED compiles to NOED's exact schedule, so the two campaigns see
    // the same golden dynamic length and the same frozen injection
    // stream — trials correspond one to one.
    let noed_sp = prepared(Scheme::Noed);
    let rbed_sp = prepared(Scheme::Rbed);
    let noed = run_campaign(&noed_sp, &campaign_cfg(Scheme::Noed, 150));
    let rbed = run_campaign(&rbed_sp, &campaign_cfg(Scheme::Rbed, 150));
    assert_eq!(noed.golden_dyn, rbed.golden_dyn);

    assert!(noed.tally.count(Outcome::DataCorrupt) > 0, "{:?}", noed.tally);
    // Every stream-visible corruption flows through a retired value
    // the digest absorbs, so RBED reports it at a chunk boundary.
    assert_eq!(rbed.tally.count(Outcome::DataCorrupt), 0, "{:?}", rbed.tally);
    assert!(
        rbed.tally.count(Outcome::Detected) >= noed.tally.count(Outcome::DataCorrupt),
        "replay detection must cover at least NOED's SDCs: {:?} vs {:?}",
        rbed.tally,
        noed.tally
    );
    // Dead strikes stay benign: the digest samples computed (pre-flip)
    // values, so a never-consumed flip cannot poison it.
    assert!(rbed.tally.count(Outcome::Benign) > 0, "{:?}", rbed.tally);
}

#[test]
fn three_engines_agree_for_recovery_schemes() {
    for scheme in [Scheme::Tmred, Scheme::Rbed] {
        let sp = prepared(scheme);
        for flip in [FlipModel::Single, FlipModel::Burst2, FlipModel::Burst4] {
            let cfg = CampaignConfig {
                flip,
                ..campaign_cfg(scheme, 60)
            };
            let reference = run_campaign_engine(&sp, &cfg, Engine::Reference);
            let checkpointed = run_campaign_engine(&sp, &cfg, Engine::Checkpointed);
            let (streamed, completed) =
                run_campaign_streaming(&sp, &cfg, u64::MAX, 16, &mut |_, _| true).unwrap();
            assert!(completed);
            for (path, got) in [("checkpointed", checkpointed), ("streamed", streamed)] {
                assert_eq!(
                    reference.tally, got.tally,
                    "{scheme:?}/{flip:?}: {path} diverged from reference"
                );
                assert_eq!(reference.golden_cycles, got.golden_cycles);
                assert_eq!(reference.golden_dyn, got.golden_dyn);
            }
        }
    }
}

#[test]
fn tmred_campaign_prunes_vote_repaired_trials_exactly() {
    let module = casted_workloads::by_name("mpeg2dec")
        .expect("kernel exists")
        .compile()
        .expect("kernel compiles");
    let sp = prepare(&module, Scheme::Tmred, &MachineConfig::itanium2_like(2, 2))
        .unwrap()
        .sp;
    let cfg = campaign_cfg(Scheme::Tmred, 24);
    let checkpointed = run_campaign_engine(&sp, &cfg, Engine::Checkpointed);
    let reference = run_campaign_engine(&sp, &cfg, Engine::Reference);
    assert_eq!(checkpointed.tally, reference.tally);

    // Replay the campaign's frozen stream trial by trial to see which
    // trials the engine pruned and with what correction count.
    let golden = GoldenRun::new(&sp, u64::MAX);
    let golden_dyn = golden.result.stats.dyn_insns;
    let max_cycles = golden.result.stats.cycles * cfg.timeout_factor;
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let injections: Vec<Injection> = (0..cfg.trials)
        .map(|_| {
            let (at, bit) = draw_injection(&mut rng, golden_dyn);
            Injection::single(at, bit, None)
        })
        .collect();
    let sites: Vec<u64> = injections.iter().map(|inj| inj.at_dyn_insn).collect();
    let trace = golden.capture(&sp, &sites, None);
    let (mut pruned, mut pruned_corrected) = (0u64, 0u64);
    for inj in injections {
        let (run, _) = replay_trial(&trace, inj, max_cycles, None, None);
        if let TrialRun::Converged { corrections, .. } = run {
            pruned += 1;
            pruned_corrected += (corrections > 0) as u64;
        }
    }
    assert_eq!(pruned, checkpointed.engine.pruned_trials);
    assert!(
        pruned_corrected > 0,
        "no Corrected trial was pruned: {:?}, {pruned} pruned",
        checkpointed.tally
    );
}

#[test]
fn rbed_capture_restarts_from_pass_one_states() {
    // A kernel long enough for pass 1 to keep a grid: pass 2 restarts
    // from its states under the digest plan, as it does for NOED's
    // identical schedule and injection stream.
    let module = casted_workloads::by_name("mpeg2dec")
        .expect("kernel exists")
        .compile()
        .expect("kernel compiles");
    let campaign = |scheme: Scheme, engine| {
        let sp = prepare(&module, scheme, &MachineConfig::itanium2_like(2, 2)).unwrap().sp;
        run_campaign_engine(&sp, &campaign_cfg(scheme, 16), engine)
    };
    let rbed = campaign(Scheme::Rbed, Engine::Checkpointed);
    let reference = campaign(Scheme::Rbed, Engine::Reference);
    assert_eq!(rbed.tally, reference.tally);
    assert!(rbed.golden_dyn > 32_768, "{} instructions", rbed.golden_dyn);
    assert!(
        rbed.engine.capture_insns < rbed.golden_dyn,
        "pass 2 simulated {} of {} instructions",
        rbed.engine.capture_insns,
        rbed.golden_dyn
    );
    let noed = campaign(Scheme::Noed, Engine::Checkpointed);
    assert_eq!(rbed.engine.capture_insns, noed.engine.capture_insns);
}

#[test]
fn zero_fault_recovery_schemes_match_noed_output() {
    let noed = simulate_quiet(&prepared(Scheme::Noed), &SimOptions::default());
    assert!(matches!(noed.stop, StopReason::Halt(0)));
    for scheme in [Scheme::Tmred, Scheme::Rbed] {
        let r = simulate_quiet(&prepared(scheme), &SimOptions::default());
        assert_eq!(r.stop, noed.stop, "{scheme:?}");
        assert_eq!(r.stream, noed.stream, "{scheme:?} changed the output");
        assert_eq!(r.stats.corrections, 0, "{scheme:?} fault-free run voted a correction");
    }
}

//! Workspace-level differential-testing integration: the small,
//! always-on slice of the fuzz suite (the full 64-case run is the CI
//! smoke job in `scripts/ci.sh`), plus end-to-end checks that the
//! replay pipeline and the fixed corpus work through the `casted`
//! facade.

use casted::difftest::{
    run_case, run_case_with, run_suite_with, sabotage, CaseConfig, Hooks, SuiteOptions,
};

#[test]
fn bounded_suite_is_green_and_deterministic() {
    let opts = SuiteOptions {
        cases: 6,
        master_seed: 0xCA57ED,
    };
    let hooks = Hooks {
        probes: 4,
        ..Hooks::default()
    };
    let a = run_suite_with(&opts, &hooks);
    assert!(a.ok(), "suite divergence:\n{}", a.log);
    assert!(a.probes > 0, "library-free profiles must be fault-probed");
    let b = run_suite_with(&opts, &hooks);
    assert_eq!(a.log, b.log, "suite log must be byte-identical run to run");
}

#[test]
fn every_log_line_is_replayable() {
    // Any `seed=... gen=...` pair printed by the suite can be fed back
    // through CaseConfig::parse and re-executed to the same digest.
    let opts = SuiteOptions {
        cases: 2,
        master_seed: 7,
    };
    let hooks = Hooks {
        probes: 2,
        ..Hooks::default()
    };
    let rep = run_suite_with(&opts, &hooks);
    assert!(rep.ok());
    let mut replayed = 0;
    for line in rep.log.lines() {
        if !line.starts_with("case ") {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let (cfg, _) = CaseConfig::parse(&format!("{} {}", toks[2], toks[3])).unwrap();
        let digest_tok = toks
            .iter()
            .find_map(|t| t.strip_prefix("digest="))
            .expect("ok lines carry a digest");
        let want = u64::from_str_radix(digest_tok.trim_start_matches("0x"), 16).unwrap();
        let got = run_case_with(&cfg, &hooks).expect("replay of a green case is green");
        assert_eq!(got.digest, want, "replay digest mismatch for {line}");
        replayed += 1;
    }
    assert_eq!(replayed, 2);
}

#[test]
fn sabotaged_backend_fails_the_suite_with_a_replay_line() {
    let opts = SuiteOptions {
        cases: 1,
        master_seed: 3,
    };
    let hooks = Hooks {
        post_ed: Some(sabotage::drop_first_out),
        probes: 0,
        ..Hooks::default()
    };
    let rep = run_suite_with(&opts, &hooks);
    assert!(!rep.ok(), "a broken ED pass must fail the suite");
    let replay = rep
        .log
        .lines()
        .find(|l| l.starts_with("REPLAY "))
        .expect("failures must print a REPLAY line");
    let (cfg, stage) = CaseConfig::parse(replay).expect("replay line parses");
    assert!(stage.is_some());
    // Without the sabotage the same case is clean — proving the line
    // pinpoints the pass, not the program.
    run_case(&cfg).expect("case is clean under the real pipeline");
}

#[test]
fn fixed_corpus_cross_checks() {
    let checks = casted::difftest::run_corpus().unwrap_or_else(|d| {
        panic!("corpus divergence at {}: {}", d.stage, d.detail);
    });
    // 7 workloads + 3 snippets, ≥9 checks each.
    assert!(checks >= 90, "corpus shrank: only {checks} checks ran");
}

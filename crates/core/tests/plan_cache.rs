//! The session-level plan cache: repeated runs of the same generated
//! program skip decode entirely, and cached replay is bit-identical to
//! the first (decoding) run.

use nanobench_core::session::PLAN_CACHE_INSTRUCTIONS;
use nanobench_core::{BenchSpec, Session};
use nanobench_uarch::port::MicroArch;

fn add_spec() -> BenchSpec {
    let mut spec = BenchSpec::new();
    spec.asm("add rax, rax")
        .unwrap()
        .config_str("0E.01 UOPS_ISSUED.ANY")
        .unwrap()
        .unroll_count(50)
        .warm_up_count(3)
        .n_measurements(5);
    spec
}

#[test]
fn identical_specs_hit_the_cache() {
    let mut session = Session::kernel(MicroArch::Skylake);
    let spec = add_spec();

    let first = session.run(&spec).unwrap();
    let (hits, misses) = session.plan_cache_stats();
    // One round, two unroll versions: two distinct generated programs,
    // each decoded exactly once — the 8 runs per version (3 warm-up + 5
    // measured) all replay the same plan.
    assert_eq!((hits, misses), (0, 2));

    session.reset();
    let second = session.run(&spec).unwrap();
    let (hits, misses) = session.plan_cache_stats();
    // The re-run generates byte-identical programs: all hits, no decode.
    assert_eq!((hits, misses), (2, 2));
    assert_eq!(first, second, "cached-plan replay must be bit-identical");
}

#[test]
fn distinct_programs_miss_and_coexist() {
    let mut session = Session::kernel(MicroArch::Skylake);
    let add = add_spec();
    let mut imul = add_spec();
    imul.asm("imul rax, rax").unwrap();

    session.run(&add).unwrap();
    session.reset();
    session.run(&imul).unwrap();
    assert_eq!(session.plan_cache_stats(), (0, 4));

    // Both specs' plans are cached side by side; re-running either is
    // pure hits.
    session.reset();
    session.run(&add).unwrap();
    session.reset();
    session.run(&imul).unwrap();
    assert_eq!(session.plan_cache_stats(), (4, 4));
}

#[test]
fn user_mode_caches_plans_too() {
    let mut session = Session::user(MicroArch::Skylake);
    let spec = add_spec();
    let first = session.run(&spec).unwrap();
    session.reset();
    let second = session.run(&spec).unwrap();
    assert_eq!(session.plan_cache_stats(), (2, 2));
    assert_eq!(first, second);
}

#[test]
fn cap_eviction_is_lru_and_survives_reset() {
    // Each spec generates two distinct programs (the two unroll versions
    // of §III-C) of 299 and 499 instructions, so the cache's bound holds
    // the plans of 20 specs (15,960 instructions): 40 specs push 80 plans
    // through it.
    let spec_for = |i: usize| {
        let mut spec = add_spec();
        spec.asm(&format!("add rax, {}", i + 1))
            .unwrap()
            .unroll_count(200)
            .warm_up_count(0)
            .n_measurements(1);
        spec
    };
    let mut session = Session::kernel(MicroArch::Skylake);
    for i in 0..40 {
        session.run(&spec_for(i)).unwrap();
        session.reset();
        assert!(session.plan_cache_ledger().instructions <= PLAN_CACHE_INSTRUCTIONS);
    }
    let ledger = session.plan_cache_ledger();
    assert_eq!(
        (ledger.plans, ledger.instructions),
        (40, 15_960),
        "the cache must stay within its bound"
    );
    assert_eq!(session.plan_cache_stats(), (0, 80));

    // LRU eviction: specs 0..20's plans are gone, the newer ones are still
    // cached. Re-running the oldest cached spec is pure hits and makes it
    // the most recently used...
    session.run(&spec_for(20)).unwrap();
    assert_eq!(session.plan_cache_stats(), (2, 80));

    // ...so an evicted spec, decoded again, evicts spec 21's plans instead
    // of spec 20's, and the cache stays within its bound.
    session.reset();
    session.run(&spec_for(0)).unwrap();
    assert_eq!(session.plan_cache_stats(), (2, 82));
    assert_eq!(session.plan_cache_len(), 40);
    session.run(&spec_for(20)).unwrap();
    assert_eq!(session.plan_cache_stats(), (4, 82));
    session.run(&spec_for(21)).unwrap();
    assert_eq!(session.plan_cache_stats(), (4, 84));

    // The same run sequence on a fresh session evicts identically: the
    // same survivors hit, the same victims miss (deterministic order).
    let mut replay = Session::kernel(MicroArch::Skylake);
    for i in (0..40).chain([20, 0, 20, 21]) {
        replay.run(&spec_for(i)).unwrap();
        replay.reset();
    }
    assert_eq!(replay.plan_cache_ledger(), session.plan_cache_ledger());

    // Stats and cached plans survive reset(): a reset then re-run of a
    // cached spec only adds hits, never misses.
    session.reset();
    let before = session.plan_cache_stats();
    session.run(&spec_for(0)).unwrap();
    let after = session.plan_cache_stats();
    assert_eq!(after.1, before.1, "reset must not drop cached plans");
    assert_eq!(after.0, before.0 + 2);
}

#[test]
fn multiplexed_rounds_reuse_per_round_plans() {
    // 6 events on 4 programmable counters: two rounds, each generating
    // its own pair of unroll versions (different selectors → different
    // programs), so one run decodes 4 programs; the second run hits all.
    let mut spec = add_spec();
    spec.config_str("0E.01 UOPS_ISSUED.ANY\nA1.01 P0\nA1.02 P1\nA1.04 P2\nA1.08 P3\nA1.10 P4")
        .unwrap();
    let mut session = Session::kernel(MicroArch::Skylake);
    session.run(&spec).unwrap();
    let (_, misses) = session.plan_cache_stats();
    session.reset();
    session.run(&spec).unwrap();
    let (hits, misses_after) = session.plan_cache_stats();
    assert_eq!(misses_after, misses, "second run must not decode");
    assert_eq!(hits, misses);
}

//! Determinism suite for the Session/Campaign layer.
//!
//! The campaign contract: job *j* always runs on a session seeded
//! `base_seed ^ j`, so results are byte-identical for any worker count and
//! identical to sequential fresh-session runs. The machine contract:
//! `Machine::reset()` + rerun equals a fresh machine making the same
//! allocation calls — in kernel *and* user mode, where page mappings and
//! the interrupt stream are random-seeded.

use nanobench_core::{BenchSpec, Campaign, Session, NB_SEED};
use nanobench_machine::{Machine, Mode};
use nanobench_uarch::port::MicroArch;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::reg::Gpr;

/// A mixed batch the shape of a real campaign: ALU chains, loads/stores
/// against the arenas, a looped benchmark, and different aggregates.
fn campaign_specs() -> Vec<BenchSpec> {
    let mut specs = Vec::new();
    for asm in [
        "add rax, rax",
        "imul rax, rax",
        "mov r14, [r14]",
        "nop",
        "xor rax, rax; add rbx, rbx",
    ] {
        let mut spec = BenchSpec::new();
        spec.asm(asm)
            .unwrap()
            .config_str("0E.01 UOPS_ISSUED.ANY\nD1.01 MEM_LOAD_RETIRED.L1_HIT")
            .unwrap()
            .unroll_count(60)
            .warm_up_count(2)
            .n_measurements(5);
        if asm.starts_with("mov r14") {
            spec.asm_init("mov [r14], r14").unwrap();
        }
        specs.push(spec);
    }
    let mut looped = BenchSpec::new();
    looped
        .asm("add rcx, 1")
        .unwrap()
        .unroll_count(10)
        .loop_count(50)
        .warm_up_count(1)
        .n_measurements(4)
        .aggregate(nanobench_core::Aggregate::TrimmedMean);
    specs.push(looped);
    specs
}

#[test]
fn campaign_worker_count_does_not_change_results() {
    let specs = campaign_specs();
    for mode in ["kernel", "user"] {
        let campaign = |workers| {
            let c = if mode == "kernel" {
                Campaign::kernel(MicroArch::Skylake)
            } else {
                Campaign::user(MicroArch::Skylake)
            };
            c.workers(workers).run_all(&specs).unwrap()
        };
        let sequential = campaign(1);
        for workers in [2usize, 8] {
            assert_eq!(
                campaign(workers),
                sequential,
                "{mode}: {workers} workers vs sequential"
            );
        }
        // The sequential path itself must equal per-job fresh sessions.
        for (j, spec) in specs.iter().enumerate() {
            let machine_mode = if mode == "kernel" {
                Mode::Kernel
            } else {
                Mode::User
            };
            let mut fresh =
                Session::with_seed(MicroArch::Skylake, machine_mode, NB_SEED ^ j as u64);
            assert_eq!(sequential[j], fresh.run(spec).unwrap(), "{mode}: job {j}");
        }
    }
}

#[test]
fn campaign_base_seed_flows_into_jobs() {
    let specs = campaign_specs();
    let seeded = Campaign::kernel(MicroArch::Skylake)
        .base_seed(0xFEED)
        .workers(2)
        .run_all(&specs)
        .unwrap();
    for (j, spec) in specs.iter().enumerate() {
        let mut fresh = Session::with_seed(MicroArch::Skylake, Mode::Kernel, 0xFEED ^ j as u64);
        assert_eq!(seeded[j], fresh.run(spec).unwrap(), "job {j}");
    }
}

/// Runs a fixed little workload on a machine and digests everything
/// observable: run stats, final registers, readback of the touched memory.
fn drive(machine: &mut Machine, base: u64) -> Vec<u64> {
    let mut observed = Vec::new();
    machine.state_mut().set_gpr(Gpr::R14, base);
    let plan = machine.decode(
        &parse_asm(
            "mov [r14], r14; mov rax, [r14]; add rax, 5; mov [r14+64], rax; \
             mov rcx, 3; add rbx, rcx; imul rbx, rcx",
        )
        .unwrap(),
    );
    for _ in 0..3 {
        let stats = machine.run_plan(&plan).unwrap();
        observed.push(stats.instructions);
        observed.push(stats.cycles);
        observed.push(stats.end_cycle);
    }
    observed.push(machine.state().gpr(Gpr::Rax));
    observed.push(machine.state().gpr(Gpr::Rbx));
    observed.push(machine.read_mem(base + 64, 8).unwrap());
    observed.push(machine.cycle());
    let stats = machine.hierarchy().l1_stats();
    observed.extend([stats.hits, stats.misses, stats.evictions]);
    observed
}

#[test]
fn machine_reset_equals_fresh_machine_kernel_and_user() {
    for mode in [Mode::Kernel, Mode::User] {
        let mut machine = Machine::new(MicroArch::Skylake, mode, 77);
        let base = machine.alloc_region(1 << 16);
        let first = drive(&mut machine, base);

        // Reset + rerun on the same machine must replay bit-identically:
        // after the first reset, which rewinds every cache set, and after
        // the next, which rewinds only the sets the rerun touched.
        for pass in 0..2 {
            machine.reset();
            assert_eq!(
                drive(&mut machine, base),
                first,
                "{mode:?}: reset + rerun {pass}"
            );
        }

        // And equal a fresh machine making the same allocation calls.
        let mut fresh = Machine::new(MicroArch::Skylake, mode, 77);
        let fresh_base = fresh.alloc_region(1 << 16);
        assert_eq!(fresh_base, base, "{mode:?}: allocation addresses");
        if mode == Mode::User {
            // The frame scattering must replay identically too.
            for page in 0..16u64 {
                assert_eq!(
                    machine.translate(base + page * 4096),
                    fresh.translate(base + page * 4096),
                    "{mode:?}: page {page}"
                );
            }
        }
        assert_eq!(drive(&mut fresh, fresh_base), first, "{mode:?}: fresh");
    }
}

#[test]
fn machine_reset_with_seed_matches_fresh_seed() {
    // Resetting to a *different* seed must equal a fresh machine built
    // with that seed (same allocation calls), including user-mode page
    // scattering and the interrupt stream.
    for mode in [Mode::Kernel, Mode::User] {
        let mut machine = Machine::new(MicroArch::Skylake, mode, 77);
        let base = machine.alloc_region(1 << 16);
        let _ = drive(&mut machine, base);
        machine.reset_with_seed(1234);

        let mut fresh = Machine::new(MicroArch::Skylake, mode, 1234);
        let fresh_base = fresh.alloc_region(1 << 16);
        assert_eq!(fresh_base, base);
        let expected = drive(&mut fresh, fresh_base);
        assert_eq!(drive(&mut machine, base), expected, "{mode:?}");
        // A second reset to that seed rewinds only the sets the run touched.
        machine.reset_with_seed(1234);
        assert_eq!(drive(&mut machine, base), expected, "{mode:?}: again");
    }
}

/// An e10-shaped batch: measured programs on core 0 with co-runners
/// looping on cores 1..3 (same-line stores and a streaming walk).
fn multicore_specs() -> Vec<BenchSpec> {
    // Every session allocates identically, so the R14 arena sits at the
    // same address in every campaign worker — probe it once.
    let arena = Session::kernel(MicroArch::Skylake)
        .arena_base(Gpr::R14)
        .unwrap();
    let mut specs = Vec::new();
    for (asm, init) in [
        ("mov r14, [r14]", Some("mov [r14], r14")),
        ("mov rax, [r14]", Some("mov [r14], r14")),
        ("add rax, rax", None),
    ] {
        let mut spec = BenchSpec::new();
        spec.asm(asm)
            .unwrap()
            .unroll_count(40)
            .loop_count(8)
            .warm_up_count(1)
            .n_measurements(3);
        if let Some(init) = init {
            spec.asm_init(init).unwrap();
        }
        // Co-runner 1: false-sharing stores into the line the measured
        // code self-chases. Co-runner 2: a short streaming loop.
        spec.corunner_asm(&format!("mov [{0:#x}], rbx; mov [{0:#x}], rbx", arena + 8))
            .unwrap();
        spec.corunner_asm(
            "mov rbx, 0x60000000; mov rax, [rbx]; add rbx, 64; \
             mov rax, [rbx]; add rbx, 64; mov rax, [rbx]",
        )
        .unwrap();
        specs.push(spec);
    }
    specs
}

#[test]
fn multicore_campaign_is_bit_identical_across_worker_counts() {
    let specs = multicore_specs();
    let campaign = |workers| {
        Campaign::kernel(MicroArch::Skylake)
            .cores(3)
            .workers(workers)
            .run_all(&specs)
            .unwrap()
    };
    let sequential = campaign(1);
    for workers in [2usize, 8] {
        assert_eq!(campaign(workers), sequential, "{workers} workers");
    }
    // And equal to per-job fresh multi-core sessions.
    for (j, spec) in specs.iter().enumerate() {
        let mut fresh =
            Session::with_seed_cores(MicroArch::Skylake, Mode::Kernel, NB_SEED ^ j as u64, 3);
        assert_eq!(sequential[j], fresh.run(spec).unwrap(), "job {j}");
    }
}

#[test]
fn multicore_machine_reset_equals_fresh_machine() {
    // Interfered runs must replay bit-identically after Machine::reset,
    // and equal a fresh machine making the same calls.
    let drive_interfered = |machine: &mut Machine, base: u64| -> Vec<u64> {
        machine.state_mut().set_gpr(Gpr::R14, base);
        let init = machine.decode(&parse_asm("mov [r14], r14").unwrap());
        machine.run_plan(&init).unwrap();
        let chase = machine.decode(&parse_asm(&"mov r14, [r14]; ".repeat(60)).unwrap());
        let store =
            machine.decode(&parse_asm(&format!("mov [{:#x}], rax", base + 8).repeat(1)).unwrap());
        let stream = machine.decode(
            &parse_asm("mov rbx, 0x60000000; mov rax, [rbx]; add rbx, 64; mov rax, [rbx]").unwrap(),
        );
        let mut observed = Vec::new();
        for _ in 0..3 {
            let stats = machine
                .run_plan_with_corunners(&chase, &[&store, &stream])
                .unwrap();
            observed.extend([stats.instructions, stats.cycles, stats.end_cycle]);
        }
        observed.push(machine.cycle_of(1));
        observed.push(machine.cycle_of(2));
        observed.push(machine.hierarchy().invalidations());
        observed.extend(machine.hierarchy().snoop_hits().iter().copied());
        let l1 = machine.hierarchy().l1_stats_of(1);
        observed.extend([l1.hits, l1.misses]);
        observed
    };

    let mut machine = Machine::with_cores(MicroArch::Skylake, Mode::Kernel, 77, 3);
    let base = machine.alloc_region(1 << 16);
    let first = drive_interfered(&mut machine, base);
    assert!(
        *first.last().unwrap() > 0 || first.iter().any(|v| *v > 0),
        "the interfered run must actually run"
    );

    machine.reset();
    assert_eq!(
        drive_interfered(&mut machine, base),
        first,
        "reset + rerun must replay the interfered workload bit-identically"
    );

    let mut fresh = Machine::with_cores(MicroArch::Skylake, Mode::Kernel, 77, 3);
    let fresh_base = fresh.alloc_region(1 << 16);
    assert_eq!(fresh_base, base);
    assert_eq!(drive_interfered(&mut fresh, fresh_base), first, "fresh");
}

#[test]
fn session_reset_replays_noisy_user_benchmarks() {
    // User mode injects interrupts from the machine's random stream; a
    // reset must rewind that stream so even *noisy* results replay.
    let mut spec = BenchSpec::new();
    spec.asm("add rax, rax")
        .unwrap()
        .unroll_count(50)
        .loop_count(800)
        .n_measurements(6);
    let mut session = Session::user(MicroArch::Skylake);
    let first = session.run(&spec).unwrap();
    session.reset();
    assert_eq!(session.run(&spec).unwrap(), first);
}

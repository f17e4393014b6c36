//! Heap allocations and simulated work as exact counts: a plan-cache hit
//! must not build the program it replays, the simulated memory path must
//! not allocate per access, building, parsing and decoding a program must
//! not allocate per instruction, one steady-state run of each engine and
//! memory-path shape does a pinned amount of work, and a reset rewinds a
//! pinned number of cache sets. A counting global
//! allocator tallies allocations on the current thread only, so the tests
//! of this binary can run in parallel.

use nanobench_cache::presets::cpu_by_microarch;
use nanobench_cache_tools::{AccessSeq, CacheSeq, Level};
use nanobench_core::session::PLAN_CACHE_INSTRUCTIONS;
use nanobench_core::{BenchSpec, Session};
use nanobench_machine::{Machine, Mode};
use nanobench_uarch::port::MicroArch;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::{Gpr, Instruction, Mnemonic, Operand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones returned; the counter update neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn plan_cache_hits_allocate_independently_of_program_size() {
    // The measured window also rebuilds the body from fresh instructions:
    // neither building it nor replaying its plans allocates per
    // instruction. Fresh instructions of an equal program must be equal
    // plan-cache keys, so the rebuilt body must hit.
    let warm_rebuild_and_run = |len: usize| {
        let body = || -> Vec<Instruction> {
            (0..len)
                .map(|_| Instruction::binary(Mnemonic::Mov, Gpr::Rax, Operand::mem(Gpr::R14)))
                .collect()
        };
        let mut session = Session::kernel(MicroArch::Skylake);
        let mut spec = BenchSpec::new();
        spec.code(body());
        session.run(&spec).unwrap();
        let allocations = allocations_in(|| {
            spec.code(body());
            session.run(&spec).unwrap()
        });
        // Both unroll versions were replayed from the cache.
        assert_eq!(session.plan_cache_stats(), (2, 2));
        allocations
    };
    assert_eq!(warm_rebuild_and_run(100), warm_rebuild_and_run(2_000));
}

#[test]
fn plan_cache_hit_checks_compare_only_code_the_spec_does_not_share() {
    let body = || -> Vec<Instruction> {
        (0..500)
            .map(|_| Instruction::binary(Mnemonic::Mov, Gpr::Rax, Operand::mem(Gpr::R14)))
            .collect()
    };
    let mut session = Session::kernel(MicroArch::Skylake);
    let mut spec = BenchSpec::new();
    spec.code(body());
    let run = |session: &mut Session, spec: &BenchSpec| {
        session.run(spec).unwrap();
        let ledger = session.plan_cache_ledger();
        (ledger.hits, ledger.misses, ledger.compared)
    };
    assert_eq!(run(&mut session, &spec), (0, 2, 0));
    // A repeated run of one spec compares nothing: the cached requests
    // hold the spec's own code lists.
    assert_eq!(run(&mut session, &spec), (2, 2, 0));
    // A rebuilt equal spec compares its 500-instruction body once per
    // unroll version, not the 599- and 1,099-instruction programs.
    spec.code(body());
    assert_eq!(run(&mut session, &spec), (4, 2, 1_000));
}

#[test]
fn cacheseq_repeats_decode_once_and_the_cache_stays_bounded() {
    // Figure 1's target: Ivy Bridge L3 set 800, slice 0, whose eviction
    // pads make each access about 35 instructions long.
    let cpu = cpu_by_microarch("Ivy Bridge").unwrap();
    let mut cs = CacheSeq::new(&cpu, Level::L3, 800, Some(0), 12 + 120 + 1, 1).unwrap();
    // `<WBINVD> B0 .. B11 F0 .. F(n-1) B0?`
    let seq = |n: usize| {
        let mut blocks: Vec<usize> = (0..12 + n).collect();
        blocks.push(0);
        let mut seq = AccessSeq::measured_all(&blocks);
        for item in &mut seq.items[..12 + n] {
            item.measured = false;
        }
        seq
    };
    let ledger = |cs: &mut CacheSeq| cs.session_mut().plan_cache_ledger();
    cs.run_hits(&seq(0)).unwrap();
    let first = ledger(&mut cs);
    assert_eq!((first.hits, first.misses), (0, 2));
    // A repeat decodes nothing and compares nothing.
    cs.run_hits(&seq(0)).unwrap();
    let repeat = ledger(&mut cs);
    assert_eq!((repeat.hits, repeat.misses, repeat.compared), (2, 2, 0));
    // Thirteen sequences of 420 to 4,600 instructions, each run twice,
    // hold more than the bound together. Each new one is decoded once
    // (the code-free baseline version hits throughout, its WBINVD init
    // kept), nothing is compared, and the plans held stay within the
    // bound.
    for n in (0..=120).step_by(10) {
        cs.run_hits(&seq(n)).unwrap();
        cs.run_hits(&seq(n)).unwrap();
        let held = ledger(&mut cs).instructions;
        assert!(held <= PLAN_CACHE_INSTRUCTIONS, "{held} instructions held");
    }
    let last = ledger(&mut cs);
    assert_eq!((last.hits, last.misses, last.compared), (42, 14, 0));
    assert!(last.plans < 14, "{} plans: nothing was evicted", last.plans);
}

#[test]
fn l2_missing_load_stream_allocates_independently_of_its_length() {
    // Skylake's L2 is QLRU_H00_M1_R2_U1 (not UMO), and all four
    // prefetchers are on: each run starts cold, its loads walk one new
    // line per iteration, miss into the L2 and feed the L1 and L2
    // prefetchers, whose lines fill the L2 as well.
    let mut machine = Machine::new(MicroArch::Skylake, Mode::Kernel, 1);
    let base = machine.alloc_region(1 << 16);
    let stream = |iterations: u64| {
        machine.decode(
            &parse_asm(&format!(
                "wbinvd; mov r14, {base:#x}; mov r15, {iterations}; \
                 l: mov rax, [r14]; add r14, 64; dec r15; jnz l"
            ))
            .unwrap(),
        )
    };
    let (short, long) = (stream(10), stream(20));
    machine.run_plan(&long).unwrap();
    // Allocations and L2 misses of one run.
    let mut run = |plan| {
        let before = machine.hierarchy().l2_stats().misses;
        let allocations = allocations_in(|| machine.run_plan(plan).unwrap());
        (allocations, machine.hierarchy().l2_stats().misses - before)
    };
    let (short_allocations, short_misses) = run(&short);
    let (long_allocations, long_misses) = run(&long);
    assert!(0 < short_misses && short_misses < long_misses);
    assert_eq!(short_allocations, long_allocations);
}

#[test]
fn decoding_a_program_does_not_allocate_per_instruction() {
    let machine = Machine::new(MicroArch::Skylake, Mode::Kernel, 1);
    let program = parse_asm(
        &"mov rax, [r14]; add rax, rbx; imul rcx, rdx; mov [r14+8], rcx; \
          vaddps ymm0, ymm1, ymm2\n"
            .repeat(400),
    )
    .unwrap();
    assert_eq!(program.len(), 2_000);
    let allocations = allocations_in(|| machine.decode(&program));
    assert!(allocations < 100, "{allocations} allocations");
}

#[test]
fn parsing_asm_makes_a_few_allocations_per_statement() {
    let statements = 2_000;
    let text: String = (0..statements)
        .map(|k| format!("mov rax, [r14+{}]\n", 8 * k))
        .collect();
    let allocations = allocations_in(|| parse_asm(&text).unwrap());
    assert!(
        allocations < 10 * statements,
        "{allocations} allocations for {statements} statements"
    );
}

/// The 8-instruction ALU+memory body: dependency chains, a store, a load
/// and a read-modify-write, the shape of a generated benchmark's measured
/// region.
const ALU_MEM_BODY: &str = "add rax, 1; mov [r14], rax; mov rbx, [r14]; imul rbx, rbx; \
                            add [r14+64], rbx; xor rcx, rbx; lea rdx, [rcx+rbx]; sub r9, rdx";

/// `body` looped 200 times behind a `dec`/`jnz` loop close.
fn looped(body: &str) -> String {
    format!("mov r15, 200; l: {body}; dec r15; jnz l")
}

/// What one `Machine::run_plan` did.
#[derive(Debug, PartialEq)]
struct Work {
    instructions: u64,
    cycles: u64,
    /// `Machine::mem_path_counters`: address translations and hierarchy
    /// walks.
    translations: u64,
    walks: u64,
    /// `(hits, misses)` of core 0's L1 and L2 and of the L3.
    l1: (u64, u64),
    l2: (u64, u64),
    l3: (u64, u64),
    allocations: u64,
}

/// The work of the run after `warm` runs of `program` on a kernel-mode
/// Skylake machine (32 KiB L1, 256 KiB L2, 8 MiB L3) whose `R14` points
/// at the first of `ring` cache lines, each holding the address of the
/// next (no ring for 0).
fn steady_state_work(program: &str, ring: u64, warm: usize) -> Work {
    let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
    let base = m.alloc_region((ring * 64).max(1 << 20));
    for i in 0..ring {
        m.write_mem(base + i * 64, 8, base + (i + 1) % ring * 64)
            .unwrap();
    }
    m.state_mut().set_gpr(Gpr::R14, base);
    let plan = m.decode(&parse_asm(program).unwrap());
    for _ in 0..warm {
        m.run_plan(&plan).unwrap();
    }
    let counts = |m: &Machine| {
        let h = m.hierarchy();
        let (translations, walks) = m.mem_path_counters();
        [h.l1_stats(), h.l2_stats(), h.l3_stats()]
            .map(|s| (s.hits, s.misses))
            .into_iter()
            .chain([(translations, walks)])
            .collect::<Vec<_>>()
    };
    let before = counts(&m);
    let mut stats = None;
    let allocations = allocations_in(|| stats = Some(m.run_plan(&plan).unwrap()));
    let stats = stats.unwrap();
    let d: Vec<(u64, u64)> = counts(&m)
        .iter()
        .zip(&before)
        .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
        .collect();
    Work {
        instructions: stats.instructions,
        cycles: stats.cycles,
        translations: d[3].0,
        walks: d[3].1,
        l1: d[0],
        l2: d[1],
        l3: d[2],
        allocations,
    }
}

#[test]
fn engine_and_memory_shapes_do_pinned_work_per_run() {
    let chase = looped(&"mov r14, [r14]; ".repeat(8));
    let stores: String = (0..8)
        .map(|i| format!("mov [r14 + {}], rax; ", i * 64))
        .collect();
    let work = |instructions, cycles, translations, walks, l1, l2, l3| Work {
        instructions,
        cycles,
        translations,
        walks,
        l1,
        l2,
        l3,
        allocations: 0,
    };
    // (shape, program, ring lines, warm-up runs, work of the next run).
    // The 2 MiB chase is L3-resident only once it has wrapped its ring:
    // its first 20 runs miss the L3 800 times each.
    #[rustfmt::skip]
    let shapes = [
        ("looped ALU+mem", looped(ALU_MEM_BODY), 0, 10, work(2_001, 969, 800, 600, (600, 0), (0, 0), (0, 0))),
        ("unrolled ALU+mem", format!("{ALU_MEM_BODY}; ").repeat(100), 0, 10, work(800, 505, 400, 300, (300, 0), (0, 0), (0, 0))),
        ("L1 chase", chase.clone(), 1, 10, work(2_001, 6_400, 1_600, 1_600, (1_600, 0), (0, 0), (0, 0))),
        ("L2 chase", chase.clone(), 2_048, 10, work(2_001, 15_000, 1_600, 1_600, (525, 1_075), (1_075, 0), (0, 0))),
        ("L3 chase", chase, 32_768, 25, work(2_001, 39_000, 1_600, 1_600, (525, 1_075), (275, 800), (800, 0))),
        ("streaming stores", looped(&stores), 0, 10, work(2_001, 966, 1_600, 1_600, (1_600, 0), (0, 0), (0, 0))),
    ];
    let mut moved = Vec::new();
    for (shape, program, ring, warm, pinned) in shapes {
        let measured = steady_state_work(&program, ring, warm);
        if measured != pinned {
            moved.push(format!(
                "{shape}: pinned {pinned:?}\n  measured {measured:?}"
            ));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// Cache sets a reset of `session` rewinds.
fn sets_rewound(session: &mut Session, reset: impl FnOnce(&mut Session)) -> u64 {
    let before = session.machine().hierarchy().reset_sets();
    reset(session);
    session.machine().hierarchy().reset_sets() - before
}

#[test]
fn a_same_seed_reset_rewinds_only_the_sets_a_run_touched() {
    // Skylake with one core: 64 L1, 1,024 L2 and 2 x 2,048 L3 sets.
    const ALL_SETS: u64 = 5_184;
    // The throughput run of case study I's "MOV load (r64, m64)" row.
    let mut spec = BenchSpec::new();
    spec.asm("mov rax, [r14]; mov rbx, [r14+64]; mov rcx, [r14+128]; mov rdx, [r14+192]")
        .unwrap()
        .asm_init("mov [r14], r14")
        .unwrap()
        .unroll_count(50)
        .warm_up_count(2)
        .n_measurements(5);
    let mut session = Session::kernel(MicroArch::Skylake);
    // The first reset after the build rewinds every set.
    assert_eq!(sets_rewound(&mut session, Session::reset), ALL_SETS);
    // One run fills 37 sets across the three levels; a reset with nothing
    // run since rewinds none.
    session.run(&spec).unwrap();
    assert_eq!(sets_rewound(&mut session, Session::reset), 37);
    assert_eq!(sets_rewound(&mut session, Session::reset), 0);
    // A new seed rewinds every set, however few the run touched.
    session.run(&spec).unwrap();
    assert_eq!(
        sets_rewound(&mut session, |s| s.reset_with_seed(0x5EED)),
        ALL_SETS
    );
}

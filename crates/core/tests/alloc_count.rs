//! Heap allocations as exact counts: a plan-cache hit must not build the
//! program it replays, the simulated memory path must not allocate per
//! access, and building, parsing and decoding a program must not allocate
//! per instruction. A counting global allocator tallies allocations on
//! the current thread only, so the tests of this binary can run in
//! parallel.

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

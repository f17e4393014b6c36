//! Reusable benchmark sessions and parallel campaigns.
//!
//! nanoBench's point is *low per-invocation overhead* (§III-K), and both
//! case studies are campaigns of thousands of invocations (§V, §VI-C).
//! This module separates the expensive part — building the simulated
//! machine and the dedicated memory areas of §III-G — from the cheap part,
//! the per-benchmark configuration:
//!
//! * [`Session`] owns the [`Machine`], the §III-G arenas and a default
//!   counter configuration. [`Session::reset`] restores the deterministic
//!   initial state *without reallocation*, so one session can run an
//!   entire campaign.
//! * [`BenchSpec`] is one benchmark: code, init, events, loop/unroll,
//!   warm-up and aggregate settings. Cheap to build and [`Clone`].
//! * [`Campaign`] runs many specs (or arbitrary session-based jobs) across
//!   `std::thread` workers. Job *j* always runs on a session reseeded to
//!   `base_seed ^ j`, so results are bit-identical regardless of the
//!   worker count and identical to running the jobs sequentially.
//!
//! The legacy [`crate::NanoBench`] builder is a thin facade over a
//! `Session` plus a `BenchSpec`.

use crate::codegen::{
    self, hash_key, Arenas, CodegenRequest, SharedCode, ARENA_REGS, ARENA_SIZE, NO_MEM_ACC_REGS,
};
use crate::error::NbError;
use crate::result::{BenchmarkResult, FIXED_COUNTER_NAMES};
use crate::runner::{measure, user_syscall_stub, Aggregate};
use nanobench_analysis::{
    analyze_corunner, analyze_spec, has_errors, AnalysisEnv, Diagnostic, Severity,
};
use nanobench_cache::hierarchy::CoherenceViolation;
use nanobench_machine::{Machine, Mode};
use nanobench_pmu::{parse_config, PerfEvent};
use nanobench_uarch::plan::DecodedProgram;
use nanobench_uarch::port::MicroArch;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::encode::decode_program;
use nanobench_x86::inst::Instruction;
use std::collections::HashMap;

/// Deterministic default machine seed ("NB").
pub const NB_SEED: u64 = 0x4E42;

/// Decoded instructions the plan cache may hold. Past the bound, the
/// least-recently-used plans are evicted, in a deterministic order (use
/// ticks are a per-session sequence, so the victims never depend on map
/// iteration order or host timing). A plan of the current batch is never
/// evicted, and a plan larger than the bound is still admitted.
pub const PLAN_CACHE_INSTRUCTIONS: usize = 16_384;

/// Most instructions the init part and the unrolled body may add to one
/// generated program: far above any shipped spec (the longest, Figure 1's
/// `<WBINVD> B0 .. B11 F0 .. F199 Bb?`, adds 13,784), and far below what
/// would exhaust host memory in codegen and decode.
pub const MAX_PROGRAM_INSTRUCTIONS: usize = 1 << 20;

/// Most measured runs, and separately most warm-up runs, one unroll
/// version may ask for (shipped specs ask for at most 10 and 2). Each run
/// replays the whole program, and the measured ones each keep a sample.
pub const MAX_RUNS: usize = 1 << 16;

/// What a cached plan was decoded from. A hit needs the new source to
/// equal the cached one, field by field (derived equality), so no part of
/// a request can be left out of the check.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PlanSource {
    /// The request whose generated program the plan runs.
    Generated(CodegenRequest),
    /// A co-runner program, as the spec gives it.
    Corunner(SharedCode),
}

impl PlanSource {
    fn decode(&self, machine: &Machine) -> DecodedProgram {
        match self {
            PlanSource::Generated(request) => machine.decode(&codegen::generate(request)),
            PlanSource::Corunner(program) => machine.decode(program),
        }
    }

    /// Instructions a hit check of `self` against the equal `cached`
    /// compared by content: those of its code parts that are not `cached`'s
    /// own lists (one list is equal by pointer alone).
    fn compared(&self, cached: &PlanSource) -> u64 {
        let by_content = |a: &SharedCode, b: &SharedCode| {
            if SharedCode::ptr_eq(a, b) {
                0
            } else {
                a.len() as u64
            }
        };
        match (self, cached) {
            (PlanSource::Generated(a), PlanSource::Generated(b)) => {
                by_content(&a.init, &b.init) + by_content(&a.code, &b.code)
            }
            (PlanSource::Corunner(a), PlanSource::Corunner(b)) => by_content(a, b),
            _ => 0,
        }
    }
}

/// A cached plan, its source and the session-monotonic tick of its last
/// use (the LRU eviction key).
#[derive(Debug)]
struct CachedPlan {
    source: PlanSource,
    plan: DecodedProgram,
    last_used: u64,
}

/// Session-level cache of decoded execution plans, keyed by the
/// [`hash_key`] of each plan's [`PlanSource`]. A hit is checked against
/// the cached source, so a key collision re-decodes into the slot instead
/// of aliasing two programs.
#[derive(Debug, Default)]
struct PlanCache {
    plans: HashMap<u64, CachedPlan>,
    /// Decoded instructions the plans hold, at most
    /// [`PLAN_CACHE_INSTRUCTIONS`] outside one batch's own plans.
    held: usize,
    hits: u64,
    misses: u64,
    /// Instructions hit checks compared by content.
    compared: u64,
    /// Monotonic use counter driving LRU eviction.
    tick: u64,
    /// The first tick of the current batch; plans used since are kept.
    batch_start: u64,
}

impl PlanCache {
    /// Starts a batch: the plans ensured from here until the next batch
    /// are all kept, so they can be borrowed out together.
    fn begin_batch(&mut self) {
        self.batch_start = self.tick + 1;
    }

    /// Makes `key`'s plan present and most recently used. A cached plan
    /// whose source equals `source` is a hit; otherwise `decode` runs, into
    /// the colliding slot or a new one, and least-recently-used plans of
    /// earlier batches are evicted until the new plan fits the bound.
    fn ensure(&mut self, key: u64, source: &PlanSource, decode: impl FnOnce() -> DecodedProgram) {
        self.tick += 1;
        if let Some(cached) = self.plans.get_mut(&key) {
            if cached.source == *source {
                cached.last_used = self.tick;
                self.hits += 1;
                self.compared += source.compared(&cached.source);
                return;
            }
        }
        self.misses += 1;
        let plan = decode();
        if let Some(collided) = self.plans.remove(&key) {
            self.held -= collided.plan.len();
        }
        while self.held + plan.len() > PLAN_CACHE_INSTRUCTIONS {
            let Some(victim) = self
                .plans
                .iter()
                .filter(|(_, c)| c.last_used < self.batch_start)
                .min_by_key(|(_, c)| c.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let evicted = self.plans.remove(&victim).expect("victim is cached");
            self.held -= evicted.plan.len();
        }
        self.held += plan.len();
        self.plans.insert(
            key,
            CachedPlan {
                source: source.clone(),
                plan,
                last_used: self.tick,
            },
        );
    }
}

/// The plan cache's row of the layer ledger
/// ([`Session::plan_cache_ledger`]). Plans hold no machine state, so the
/// cache and its counters survive [`Session::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheLedger {
    /// Plan lookups (one per unroll version and co-runner of a run) that
    /// found their plan.
    pub hits: u64,
    /// Plan lookups that decoded their plan.
    pub misses: u64,
    /// Plans held.
    pub plans: usize,
    /// Decoded instructions the plans hold.
    pub instructions: usize,
    /// Instructions hit checks compared by content: a code list the spec
    /// shares with the cached request compares none.
    pub compared: u64,
}

/// What a [`Session`] does with the static analyzer's verdict before
/// running a spec (the `-lint` shell option maps to `Deny`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LintGate {
    /// Run without analyzing (the default — linting costs a dataflow pass
    /// per run, which campaigns re-running one spec thousands of times
    /// should opt into deliberately).
    #[default]
    Off,
    /// Print every diagnostic to stderr, then run anyway.
    Warn,
    /// Print warnings to stderr; refuse to run a spec with error-severity
    /// diagnostics ([`NbError::Lint`]).
    Deny,
}

/// Number of programmable counters readable per round in noMem mode
/// (three fixed + three programmable fit in R8–R13).
const NO_MEM_PROG_PER_ROUND: usize = NO_MEM_ACC_REGS.len() - FIXED_COUNTER_NAMES.len();

/// One microbenchmark: everything `nanoBench.sh` takes per invocation
/// (§III-E), with none of the machine state. Building one is cheap;
/// running it needs a [`Session`].
///
/// The init part, the main part and the co-runners are [`SharedCode`]
/// lists, made (and hashed) once when they are set. Cloning a spec shares
/// them, and a session that runs an unchanged spec again finds its cached
/// plans by pointer, without hashing or comparing the code.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Initialization part (`-asm_init`, not measured).
    pub init: SharedCode,
    /// The main part of the microbenchmark.
    pub code: SharedCode,
    /// Performance events; empty uses the session's default configuration.
    pub events: Vec<PerfEvent>,
    /// `loopCount` (§III-F); 0 omits the loop.
    pub loop_count: u64,
    /// `unrollCount` (§III-F).
    pub unroll_count: usize,
    /// Number of measured runs (Algorithm 2).
    pub n_measurements: usize,
    /// Number of discarded warm-up runs (§III-H).
    pub warm_up_count: usize,
    /// Aggregate function (§III-C).
    pub aggregate: Aggregate,
    /// noMem mode: counter values kept in registers R8–R13 (§III-I).
    pub no_mem: bool,
    /// Use a `localUnrollCount` of 0 for the baseline run (§III-C).
    pub basic_mode: bool,
    /// Interference programs for multi-core sessions: while the measured
    /// code runs on core 0, co-runner `i` loops on core `i + 1` (programs
    /// cycle if the session's machine has more spare cores). Empty — the
    /// default — measures without interference; specs with co-runners need
    /// a session built with [`Session::with_seed_cores`] (on a single-core
    /// machine co-runners are ignored).
    pub corunners: Vec<SharedCode>,
}

impl Default for BenchSpec {
    fn default() -> BenchSpec {
        BenchSpec {
            init: SharedCode::default(),
            code: SharedCode::default(),
            events: Vec::new(),
            loop_count: 0,
            unroll_count: 1,
            n_measurements: 10,
            warm_up_count: 0,
            aggregate: Aggregate::Median,
            no_mem: false,
            basic_mode: false,
            corunners: Vec::new(),
        }
    }
}

impl BenchSpec {
    /// An empty spec with nanoBench's default settings.
    pub fn new() -> BenchSpec {
        BenchSpec::default()
    }

    /// Sets the main part from Intel-syntax assembly.
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Asm`] on parse failure.
    pub fn asm(&mut self, text: &str) -> Result<&mut BenchSpec, NbError> {
        self.code = parse_asm(text)?.into();
        Ok(self)
    }

    /// Sets the initialization part from Intel-syntax assembly.
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Asm`] on parse failure.
    pub fn asm_init(&mut self, text: &str) -> Result<&mut BenchSpec, NbError> {
        self.init = parse_asm(text)?.into();
        Ok(self)
    }

    /// Sets the main part from raw machine code (§III-E); magic
    /// pause/resume byte sequences (§III-I) are recognized.
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Decode`] for undecodable bytes.
    pub fn code_bytes(&mut self, bytes: &[u8]) -> Result<&mut BenchSpec, NbError> {
        self.code = decode_program(bytes)?.into();
        Ok(self)
    }

    /// Sets the initialization part from raw machine code (§III-E).
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Decode`] for undecodable bytes.
    pub fn init_bytes(&mut self, bytes: &[u8]) -> Result<&mut BenchSpec, NbError> {
        self.init = decode_program(bytes)?.into();
        Ok(self)
    }

    /// Sets the main part directly from instructions.
    pub fn code(&mut self, code: Vec<Instruction>) -> &mut BenchSpec {
        self.code = code.into();
        self
    }

    /// Sets the init part directly from instructions.
    pub fn init(&mut self, init: Vec<Instruction>) -> &mut BenchSpec {
        self.init = init.into();
        self
    }

    /// Parses a performance-counter configuration (§III-J).
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Config`] on parse failure.
    pub fn config_str(&mut self, text: &str) -> Result<&mut BenchSpec, NbError> {
        self.events = parse_config(text)?;
        Ok(self)
    }

    /// Sets the events directly.
    pub fn events(&mut self, events: Vec<PerfEvent>) -> &mut BenchSpec {
        self.events = events;
        self
    }

    /// Sets `loopCount` (§III-F).
    pub fn loop_count(&mut self, n: u64) -> &mut BenchSpec {
        self.loop_count = n;
        self
    }

    /// Sets `unrollCount` (§III-F).
    pub fn unroll_count(&mut self, n: usize) -> &mut BenchSpec {
        self.unroll_count = n.max(1);
        self
    }

    /// Sets the number of measured runs (Algorithm 2).
    pub fn n_measurements(&mut self, n: usize) -> &mut BenchSpec {
        self.n_measurements = n.max(1);
        self
    }

    /// Sets the number of discarded warm-up runs (§III-H).
    pub fn warm_up_count(&mut self, n: usize) -> &mut BenchSpec {
        self.warm_up_count = n;
        self
    }

    /// Sets the aggregate function (§III-C).
    pub fn aggregate(&mut self, agg: Aggregate) -> &mut BenchSpec {
        self.aggregate = agg;
        self
    }

    /// Enables noMem mode (§III-I).
    pub fn no_mem(&mut self, on: bool) -> &mut BenchSpec {
        self.no_mem = on;
        self
    }

    /// Uses a `localUnrollCount` of 0 for the baseline run (§III-C).
    pub fn basic_mode(&mut self, on: bool) -> &mut BenchSpec {
        self.basic_mode = on;
        self
    }

    /// Adds an interference co-runner from Intel-syntax assembly; it loops
    /// on a spare core while the main part is measured on core 0.
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Asm`] on parse failure.
    pub fn corunner_asm(&mut self, text: &str) -> Result<&mut BenchSpec, NbError> {
        self.corunners.push(parse_asm(text)?.into());
        Ok(self)
    }

    /// Adds an interference co-runner directly from instructions.
    pub fn corunner(&mut self, program: Vec<Instruction>) -> &mut BenchSpec {
        self.corunners.push(program.into());
        self
    }
}

/// A reusable benchmark session: the machine, the §III-G memory areas and
/// a default counter configuration, built once and reused across many
/// [`BenchSpec`] runs.
///
/// The session caches the decoded plan of each program it runs, keyed by
/// the codegen request that generated it, and checks every hit against
/// that request. Re-running an unchanged spec costs the same whatever its
/// code's length: the request's code lists are the spec's own, equal by
/// pointer. The cache holds at most [`PLAN_CACHE_INSTRUCTIONS`] decoded
/// instructions beside the plans of the run in progress.
///
/// # Examples
///
/// The §III-A example, then a second benchmark on the *same* machine:
///
/// ```
/// use nanobench_core::{BenchSpec, Session};
/// use nanobench_uarch::port::MicroArch;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut session = Session::kernel(MicroArch::Skylake);
/// let mut spec = BenchSpec::new();
/// spec.asm("mov R14, [R14]")?
///     .asm_init("mov [R14], R14")?
///     .config_str(nanobench_pmu::config::cfg_example())?
///     .unroll_count(100)
///     .warm_up_count(1);
/// assert_eq!(session.run(&spec)?.core_cycles(), Some(4.0));
///
/// session.reset(); // back to the deterministic initial state, no realloc
/// let mut add = BenchSpec::new();
/// add.asm("add rax, rax")?.unroll_count(100).warm_up_count(1);
/// assert_eq!(session.run(&add)?.core_cycles(), Some(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    machine: Machine,
    arenas: Arenas,
    /// Default events used by specs whose own event list is empty.
    default_events: Vec<PerfEvent>,
    /// Scratch buffer for aggregate computation (avoids per-run allocs).
    scratch: Vec<i64>,
    /// Decoded-plan cache: repeated runs of the same generated program
    /// (both counter halves, identical specs re-run across seeds) skip
    /// codegen and decode. Plans hold no machine state, so the cache
    /// survives [`Session::reset`].
    plan_cache: PlanCache,
    /// Decoded user-mode syscall stub (§III-K), built lazily.
    user_stub_plan: Option<DecodedProgram>,
    /// What [`Session::run`] does with the analyzer's verdict.
    lint_gate: LintGate,
}

impl Session {
    /// Creates a session over an existing machine, allocating the
    /// dedicated memory areas of §III-G.
    pub fn with_machine(mut machine: Machine) -> Session {
        let control = machine.alloc_region(4096);
        let mut arena_bases = [0u64; 5];
        for base in arena_bases.iter_mut() {
            *base = machine.alloc_region(ARENA_SIZE);
        }
        let arenas = Arenas {
            save_area: control,
            scratch: control + 0x100,
            m1: control + 0x200,
            m2: control + 0x300,
            arena_bases,
        };
        Session {
            machine,
            arenas,
            default_events: Vec::new(),
            scratch: Vec::new(),
            plan_cache: PlanCache::default(),
            user_stub_plan: None,
            lint_gate: LintGate::default(),
        }
    }

    /// A kernel-space session (`kernel-nanoBench.sh`, §III-D).
    pub fn kernel(uarch: MicroArch) -> Session {
        Session::with_seed(uarch, Mode::Kernel, NB_SEED)
    }

    /// A user-space session (`nanoBench.sh`).
    pub fn user(uarch: MicroArch) -> Session {
        Session::with_seed(uarch, Mode::User, NB_SEED)
    }

    /// A session with an explicit mode and machine seed (what
    /// [`Campaign`] uses for its per-job seeding).
    pub fn with_seed(uarch: MicroArch, mode: Mode, seed: u64) -> Session {
        Session::with_seed_cores(uarch, mode, seed, 1)
    }

    /// A session over a multi-core machine: core 0 runs the measured
    /// code, cores 1..`n_cores` run a spec's co-runners. With `n_cores`
    /// = 1 this is exactly [`Session::with_seed`].
    pub fn with_seed_cores(uarch: MicroArch, mode: Mode, seed: u64, n_cores: usize) -> Session {
        Session::with_machine(Machine::with_cores(uarch, mode, seed, n_cores))
    }

    /// Restores the deterministic initial state — registers, PMU, caches,
    /// branch predictor, memory contents, interrupt and random streams —
    /// without reallocating the machine or the arenas.
    pub fn reset(&mut self) {
        self.machine.reset();
    }

    /// Like [`Session::reset`], but restarts the machine's random streams
    /// from `seed`, as if it had been built with that seed. This is how a
    /// campaign worker turns into "the session for job *j*".
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.machine.reset_with_seed(seed);
    }

    /// Sets the default counter configuration used by specs that do not
    /// carry their own (§III-J).
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Config`] on parse failure.
    pub fn config_str(&mut self, text: &str) -> Result<&mut Session, NbError> {
        self.default_events = parse_config(text)?;
        Ok(self)
    }

    /// Sets the default events directly.
    pub fn default_events(&mut self, events: Vec<PerfEvent>) -> &mut Session {
        self.default_events = events;
        self
    }

    /// The underlying machine (e.g. for pre-writing data areas).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Read access to the machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Audits every valid line in the machine's cache hierarchy against
    /// the MESI safety invariants (single writer, E-uniqueness, inclusive
    /// L3 — the properties the `nbverify` model checker proves on the
    /// bounded abstract protocol). The debug-build runtime monitor checks
    /// these per access; this is the on-demand release-build entry point,
    /// e.g. between the phases of a cacheSeq campaign.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoherenceViolation`] found.
    pub fn coherence_audit(&self) -> Result<(), CoherenceViolation> {
        self.machine.hierarchy().check_invariants()
    }

    /// The base address of the memory area register `reg` points into, if
    /// it is one of the dedicated arena registers (§III-G).
    pub fn arena_base(&self, reg: nanobench_x86::reg::Gpr) -> Option<u64> {
        ARENA_REGS
            .iter()
            .position(|r| *r == reg)
            .map(|i| self.arenas.arena_bases[i])
    }

    /// Runs the static analyzer over `spec` under this session's
    /// environment: mode (kernel/user, §III-D), noMem (§III-I), looping
    /// (§III-F), the §III-G arena registers, and the machine's mapped
    /// memory regions. Returns the diagnostics sorted errors-first; an
    /// empty vector means the spec lints clean.
    pub fn analyze(&self, spec: &BenchSpec) -> Vec<Diagnostic> {
        let env = AnalysisEnv {
            user_mode: self.machine.mode() == Mode::User,
            no_mem: spec.no_mem,
            looped: spec.loop_count > 0,
            arena_size: ARENA_SIZE,
            arena_regs: ARENA_REGS.to_vec(),
            regions: self.machine.mapped_regions(),
            arena_bases: self.arenas.arena_bases.to_vec(),
        };
        let mut diags = analyze_spec(&spec.init, &spec.code, &env);
        for (i, corunner) in spec.corunners.iter().enumerate() {
            diags.extend(analyze_corunner(i, corunner, &spec.init, &spec.code, &env));
        }
        diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
        diags
    }

    /// Sets what [`Session::run`] does with the analyzer's verdict
    /// (default [`LintGate::Off`]).
    pub fn lint(&mut self, gate: LintGate) -> &mut Session {
        self.lint_gate = gate;
        self
    }

    /// Runs one benchmark: generates both unroll versions (§III-C), runs
    /// them per Algorithm 2, multiplexes counters across rounds if the
    /// configuration has more events than programmable counters (§III-J),
    /// and reports per-repetition values.
    ///
    /// The session state is *not* reset first — state carried over from
    /// earlier runs is exactly what warm-up effects (§III-H) and the
    /// cacheSeq tools rely on. Call [`Session::reset`] between unrelated
    /// benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`NbError::Limit`] before generating anything if the spec
    /// asks for more than [`MAX_PROGRAM_INSTRUCTIONS`] or [`MAX_RUNS`].
    /// Propagates CPU faults (e.g. privileged instructions in user mode)
    /// and configuration errors; with a [`LintGate::Deny`] gate, specs the
    /// analyzer rejects fail with [`NbError::Lint`] before running.
    pub fn run(&mut self, spec: &BenchSpec) -> Result<BenchmarkResult, NbError> {
        check_limits(spec)?;
        if self.lint_gate != LintGate::Off {
            let mut diags = self.analyze(spec);
            for d in diags.iter().filter(|d| d.severity == Severity::Warning) {
                eprintln!("nblint: {d}");
            }
            match self.lint_gate {
                LintGate::Deny if has_errors(&diags) => {
                    diags.retain(|d| d.severity == Severity::Error);
                    return Err(NbError::Lint(diags));
                }
                LintGate::Warn => {
                    for d in diags.iter().filter(|d| d.severity == Severity::Error) {
                        eprintln!("nblint: {d}");
                    }
                }
                _ => {}
            }
        }
        let denom = (spec.loop_count.max(1) as f64) * (spec.unroll_count.max(1) as f64);
        let n_prog = self.machine.pmu().n_programmable();
        let per_round = if spec.no_mem {
            NO_MEM_PROG_PER_ROUND.min(n_prog)
        } else {
            n_prog
        };

        let events: &[PerfEvent] = if spec.events.is_empty() {
            &self.default_events
        } else {
            &spec.events
        };
        let chunks: Vec<Vec<PerfEvent>> = if events.is_empty() {
            vec![Vec::new()]
        } else {
            events
                .chunks(per_round)
                .map(<[PerfEvent]>::to_vec)
                .collect()
        };

        let mut fixed_values = [0.0f64; 3];
        let mut prog_entries: Vec<(String, f64)> = Vec::new();

        for (round, chunk) in chunks.iter().enumerate() {
            for i in 0..n_prog {
                let sel = chunk.get(i).map(|e| e.code);
                self.machine.pmu_mut().configure(i, sel);
            }
            let mut selectors: Vec<u32> = (0..3).map(|i| (1 << 30) | i).collect();
            selectors.extend((0..chunk.len()).map(|i| i as u32));

            let (unroll_a, unroll_b) = if spec.basic_mode {
                (0, spec.unroll_count.max(1))
            } else {
                (spec.unroll_count.max(1), 2 * spec.unroll_count.max(1))
            };
            let arenas = self.arenas;
            let request = |local_unroll: usize| CodegenRequest {
                init: spec.init.clone(),
                code: if local_unroll > 0 {
                    spec.code.clone()
                } else {
                    SharedCode::default()
                },
                local_unroll,
                loop_count: spec.loop_count,
                selectors: selectors.clone(),
                no_mem: spec.no_mem,
                arenas,
            };
            let agg_a = self.measure_version(spec, request(unroll_a))?;
            let agg_b = self.measure_version(spec, request(unroll_b))?;

            for (slot, value) in agg_b
                .iter()
                .zip(agg_a.iter())
                .enumerate()
                .map(|(slot, (b, a))| (slot, (b - a) / denom))
            {
                if slot < 3 {
                    if round == 0 {
                        fixed_values[slot] = value;
                    }
                } else {
                    let event = &chunk[slot - 3];
                    prog_entries.push((event.name.clone(), value));
                }
            }
        }

        let mut entries = Vec::with_capacity(3 + prog_entries.len());
        for (i, name) in FIXED_COUNTER_NAMES.iter().enumerate() {
            entries.push(((*name).to_string(), fixed_values[i]));
        }
        entries.extend(prog_entries);
        Ok(BenchmarkResult::new(entries))
    }

    /// Decoded-plan cache statistics: `(hits, misses)`. A hit means a
    /// generated program was replayed without re-decoding it. The stats
    /// accumulate across [`Session::reset`] (plans hold no machine state,
    /// so the cache and its counters survive resets by design).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.plan_cache.hits, self.plan_cache.misses)
    }

    /// The plan cache's work counts and what it holds.
    pub fn plan_cache_ledger(&self) -> PlanCacheLedger {
        let cache = &self.plan_cache;
        PlanCacheLedger {
            hits: cache.hits,
            misses: cache.misses,
            plans: cache.plans.len(),
            instructions: cache.held,
            compared: cache.compared,
        }
    }

    /// Number of plans currently cached. Together they hold at most
    /// [`PLAN_CACHE_INSTRUCTIONS`] decoded instructions, unless the plans
    /// of one run alone hold more.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.plans.len()
    }

    /// Runs the program `request` generates per Algorithm 2, with `spec`'s
    /// co-runners and run counts. On a plan-cache hit nothing is built;
    /// the program is generated and decoded on a miss.
    fn measure_version(
        &mut self,
        spec: &BenchSpec,
        request: CodegenRequest,
    ) -> Result<Vec<f64>, NbError> {
        let slots = request.selectors.len();
        // Ensure every plan this run needs (measured program first, then
        // co-runners) before borrowing any of them out of the cache.
        let machine = &self.machine;
        let cache = &mut self.plan_cache;
        cache.begin_batch();
        let mut ensure = |source: PlanSource| {
            let key = hash_key(&source);
            cache.ensure(key, &source, || source.decode(machine));
            key
        };
        let key = ensure(PlanSource::Generated(request));
        let corunner_keys: Vec<u64> = spec
            .corunners
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| ensure(PlanSource::Corunner(p.clone())))
            .collect();
        let plan = &self.plan_cache.plans[&key].plan;
        let corunner_plans: Vec<&DecodedProgram> = corunner_keys
            .iter()
            .map(|k| &self.plan_cache.plans[k].plan)
            .collect();

        let stub_plan = if self.machine.mode() == Mode::User {
            Some(
                self.user_stub_plan
                    .get_or_insert_with(|| self.machine.decode(&user_syscall_stub()))
                    as &DecodedProgram,
            )
        } else {
            None
        };

        measure(
            &mut self.machine,
            slots,
            spec.no_mem,
            plan,
            &corunner_plans,
            stub_plan,
            &self.arenas,
            spec.warm_up_count,
            spec.n_measurements.max(1),
            spec.aggregate,
            &mut self.scratch,
        )
    }
}

/// Refuses a spec whose generated program or run counts exceed
/// [`MAX_PROGRAM_INSTRUCTIONS`] or [`MAX_RUNS`], naming the option that
/// asks for it. The program's own frame (register saves, counter reads)
/// adds fewer than 200 instructions and is not counted.
fn check_limits(spec: &BenchSpec) -> Result<(), NbError> {
    let local_unroll = if spec.basic_mode {
        spec.unroll_count
    } else {
        spec.unroll_count.saturating_mul(2)
    };
    let body = spec.code.len().saturating_mul(local_unroll);
    let added = body.saturating_add(spec.init.len());
    if added > MAX_PROGRAM_INSTRUCTIONS {
        let option = if spec.init.len() > body {
            "-asm_init"
        } else if spec.unroll_count > 1 {
            "-unroll_count"
        } else {
            "-asm"
        };
        return Err(NbError::Limit {
            option,
            what: "generated instructions",
            requested: added as u64,
            limit: MAX_PROGRAM_INSTRUCTIONS as u64,
        });
    }
    for (option, runs) in [
        ("-n_measurements", spec.n_measurements),
        ("-warm_up_count", spec.warm_up_count),
    ] {
        if runs > MAX_RUNS {
            return Err(NbError::Limit {
                option,
                what: "runs",
                requested: runs as u64,
                limit: MAX_RUNS as u64,
            });
        }
    }
    Ok(())
}

/// A batch of benchmark jobs fanned out across worker threads, one
/// [`Session`] per worker.
///
/// Determinism: job *j* always runs on a session reset to seed
/// `base_seed ^ j`, whatever worker picks it up — so the output is
/// byte-identical for 1, 2 or N workers, and identical to running every
/// job sequentially on fresh sessions with those seeds.
#[derive(Debug, Clone)]
pub struct Campaign {
    uarch: MicroArch,
    mode: Mode,
    workers: usize,
    base_seed: u64,
    cores: usize,
    lint: LintGate,
}

impl Campaign {
    /// A campaign of kernel-space sessions (§III-D) with the default seed
    /// and one worker per available CPU.
    pub fn kernel(uarch: MicroArch) -> Campaign {
        Campaign {
            uarch,
            mode: Mode::Kernel,
            workers: 0,
            base_seed: NB_SEED,
            cores: 1,
            lint: LintGate::default(),
        }
    }

    /// A campaign of user-space sessions.
    pub fn user(uarch: MicroArch) -> Campaign {
        Campaign {
            mode: Mode::User,
            ..Campaign::kernel(uarch)
        }
    }

    /// Sets the worker-thread count; 0 (the default) uses the available
    /// parallelism. The results do not depend on this — only the
    /// wall-clock time does.
    pub fn workers(mut self, n: usize) -> Campaign {
        self.workers = n;
        self
    }

    /// Sets the base seed; job *j* runs with seed `base_seed ^ j`.
    pub fn base_seed(mut self, seed: u64) -> Campaign {
        self.base_seed = seed;
        self
    }

    /// Sets the lint gate every worker session runs with (default
    /// [`LintGate::Off`]): `Deny` makes the campaign fail on the
    /// lowest-indexed spec the analyzer rejects, before simulating it.
    pub fn lint(mut self, gate: LintGate) -> Campaign {
        self.lint = gate;
        self
    }

    /// Sets the simulated core count of every worker's machine (default
    /// 1). Specs with co-runners need at least 2. Worker count shards
    /// *jobs* across host threads; this is the number of *simulated*
    /// cores inside each job's machine — results never depend on the
    /// former and always on the latter.
    pub fn cores(mut self, n: usize) -> Campaign {
        self.cores = n.max(1);
        self
    }

    /// The microarchitecture the campaign's sessions simulate.
    pub fn uarch(&self) -> MicroArch {
        self.uarch
    }

    /// The effective worker count for `n_jobs` jobs. Unspecified (or 0)
    /// workers default to [`auto_workers`] — the available parallelism —
    /// not 1.
    pub fn effective_workers(&self, n_jobs: usize) -> usize {
        let w = if self.workers == 0 {
            auto_workers()
        } else {
            self.workers
        };
        w.clamp(1, n_jobs.max(1))
    }

    /// Runs every spec and returns the results in spec order.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing job (deterministic
    /// regardless of worker count).
    pub fn run_all(&self, specs: &[BenchSpec]) -> Result<Vec<BenchmarkResult>, NbError> {
        self.run_map(specs, |session, spec, _| session.run(spec))
    }

    /// Runs an arbitrary session-based job for every element of `jobs`,
    /// sharded across workers, returning results in job order. The closure
    /// receives a session already reset to the job's seed, the job, and
    /// its index.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing job.
    pub fn run_map<J, T, F>(&self, jobs: &[J], f: F) -> Result<Vec<T>, NbError>
    where
        J: Sync,
        T: Send,
        F: Fn(&mut Session, &J, usize) -> Result<T, NbError> + Sync,
    {
        shard_map(
            self.effective_workers(jobs.len()),
            jobs.len(),
            || {
                let mut session =
                    Session::with_seed_cores(self.uarch, self.mode, self.base_seed, self.cores);
                session.lint(self.lint);
                session
            },
            |session, j| {
                session.reset_with_seed(self.base_seed ^ j as u64);
                f(session, &jobs[j], j)
            },
        )
    }
}

/// The worker count an unspecified (0) setting resolves to: the host's
/// available parallelism, or 1 if it cannot be determined. This is what
/// [`Campaign`]s and [`parallel_map`] use by default, and what experiment
/// binaries should report as the effective worker count in artifacts.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fans arbitrary (non-session) jobs out across `workers` threads,
/// returning results in job order; the campaign analogue for jobs that
/// build their own machinery (e.g. one policy inference per CPU model).
/// `workers == 0` uses [`auto_workers`].
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing job.
pub fn parallel_map<J, T, F>(workers: usize, jobs: &[J], f: F) -> Result<Vec<T>, NbError>
where
    J: Sync,
    T: Send,
    F: Fn(&J, usize) -> Result<T, NbError> + Sync,
{
    let workers = if workers == 0 {
        auto_workers()
    } else {
        workers
    }
    .clamp(1, jobs.len().max(1));
    shard_map(workers, jobs.len(), || (), |(), j| f(&jobs[j], j))
}

/// The shared sharding engine behind [`Campaign::run_map`] and
/// [`parallel_map`]: splits job indices `0..n_jobs` into contiguous
/// chunks, one worker thread per chunk, each with its own state from
/// `make_state`, and returns the per-job results in job order. Collecting
/// in job order also makes the reported error the lowest-indexed one,
/// independent of thread timing.
fn shard_map<S, T>(
    workers: usize,
    n_jobs: usize,
    make_state: impl Fn() -> S + Sync,
    run_one: impl Fn(&mut S, usize) -> Result<T, NbError> + Sync,
) -> Result<Vec<T>, NbError>
where
    T: Send,
{
    if workers <= 1 {
        let mut state = make_state();
        return (0..n_jobs).map(|j| run_one(&mut state, j)).collect();
    }
    let mut slots: Vec<Option<Result<T, NbError>>> = Vec::new();
    slots.resize_with(n_jobs, || None);
    let chunk = n_jobs.div_ceil(workers);
    std::thread::scope(|scope| {
        // Hand each worker a disjoint slice of the result buffer; jobs
        // are sharded contiguously so the slices line up.
        let mut rest = slots.as_mut_slice();
        let mut start = 0usize;
        let mut handles = Vec::new();
        for _ in 0..workers {
            let take = chunk.min(rest.len());
            if take == 0 {
                break;
            }
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let first = start;
            start += take;
            let (make_state, run_one) = (&make_state, &run_one);
            handles.push(scope.spawn(move || {
                let mut state = make_state();
                for (offset, slot) in mine.iter_mut().enumerate() {
                    *slot = Some(run_one(&mut state, first + offset));
                }
            }));
        }
        for handle in handles {
            handle.join().expect("campaign worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_x86::inst::Mnemonic;

    fn nop_spec() -> BenchSpec {
        let mut spec = BenchSpec::new();
        spec.asm("add rax, rax")
            .unwrap()
            .unroll_count(50)
            .warm_up_count(1)
            .n_measurements(3);
        spec
    }

    #[test]
    fn session_reuse_matches_fresh_sessions() {
        let spec = nop_spec();
        let mut fresh = Session::kernel(MicroArch::Skylake);
        let expected = fresh.run(&spec).unwrap();
        let mut reused = Session::kernel(MicroArch::Skylake);
        for _ in 0..3 {
            let got = reused.run(&spec).unwrap();
            assert_eq!(got, expected);
            reused.reset();
        }
    }

    /// The source of `code`'s program at `local_unroll`.
    fn generated(code: &str, local_unroll: usize) -> PlanSource {
        let session = Session::kernel(MicroArch::Skylake);
        PlanSource::Generated(CodegenRequest {
            init: SharedCode::default(),
            code: parse_asm(code).unwrap().into(),
            local_unroll,
            loop_count: 0,
            selectors: vec![1 << 30],
            no_mem: false,
            arenas: session.arenas,
        })
    }

    #[test]
    fn a_colliding_key_re_decodes_into_its_slot() {
        let machine = Machine::new(MicroArch::Skylake, Mode::Kernel, NB_SEED);
        let (add, imul) = (generated("add rax, rax", 2), generated("imul rax, rax", 2));
        let mut cache = PlanCache::default();
        cache.begin_batch();
        cache.ensure(7, &add, || add.decode(&machine));
        cache.ensure(7, &add, || unreachable!("a hit decodes nothing"));
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // Another request under the same key is a miss, decoded into the
        // slot in place of the first request's plan.
        cache.ensure(7, &imul, || imul.decode(&machine));
        assert_eq!((cache.hits, cache.misses, cache.plans.len()), (1, 2, 1));
        let slot = &cache.plans[&7];
        assert_eq!(slot.source, imul);
        let imuls = slot.plan.instructions().iter();
        assert_eq!(imuls.filter(|i| i.mnemonic == Mnemonic::Imul).count(), 2);
        assert_eq!(cache.held, slot.plan.len());
        // The first request no longer hits.
        cache.ensure(7, &add, || add.decode(&machine));
        assert_eq!((cache.hits, cache.misses), (1, 3));
        assert_eq!(cache.plans[&7].source, add);
    }

    #[test]
    fn a_batch_keeps_its_plans_past_the_bound() {
        let machine = Machine::new(MicroArch::Skylake, Mode::Kernel, NB_SEED);
        // Two plans of 10,000 nops each: together past the bound, each
        // within it.
        let nops = PlanSource::Corunner(vec![Instruction::new(Mnemonic::Nop); 10_000].into());
        let pauses = PlanSource::Corunner(vec![Instruction::new(Mnemonic::Pause); 10_000].into());
        let mut cache = PlanCache::default();
        cache.begin_batch();
        cache.ensure(1, &nops, || nops.decode(&machine));
        cache.ensure(2, &pauses, || pauses.decode(&machine));
        assert_eq!((cache.plans.len(), cache.held), (2, 20_000));
        // The next batch evicts the least recently used plan to make room.
        cache.begin_batch();
        cache.ensure(2, &pauses, || unreachable!("a hit decodes nothing"));
        cache.ensure(3, &generated("nop", 1), || {
            generated("nop", 1).decode(&machine)
        });
        assert!(!cache.plans.contains_key(&1));
        assert!(cache.held <= PLAN_CACHE_INSTRUCTIONS);
        // A plan larger than the bound is admitted, and evicts the rest.
        let big = PlanSource::Corunner(
            vec![Instruction::new(Mnemonic::Nop); PLAN_CACHE_INSTRUCTIONS + 1].into(),
        );
        cache.begin_batch();
        cache.ensure(4, &big, || big.decode(&machine));
        assert_eq!(cache.plans.keys().collect::<Vec<_>>(), [&4]);
        assert_eq!(cache.held, PLAN_CACHE_INSTRUCTIONS + 1);
    }

    #[test]
    fn campaign_results_keep_job_order() {
        let mut specs = Vec::new();
        for chain in ["add rax, rax", "imul rax, rax", "mov rax, rax"] {
            let mut spec = nop_spec();
            spec.asm(chain).unwrap();
            specs.push(spec);
        }
        let results = Campaign::kernel(MicroArch::Skylake)
            .workers(2)
            .run_all(&specs)
            .unwrap();
        assert_eq!(results.len(), 3);
        // Job j must equal a fresh session seeded NB_SEED ^ j, in order.
        for (j, spec) in specs.iter().enumerate() {
            let mut fresh =
                Session::with_seed(MicroArch::Skylake, Mode::Kernel, NB_SEED ^ j as u64);
            assert_eq!(results[j], fresh.run(spec).unwrap(), "job {j}");
        }
        let add = results[0].core_cycles().unwrap();
        assert!((add - 1.0).abs() < 0.05, "1 cycle/add, got {add}");
    }

    #[test]
    fn campaign_propagates_lowest_indexed_error() {
        // Job 1 faults (privileged instruction in user mode); jobs 0 and 2
        // are fine. Any worker count must surface job 1's error.
        let mut specs = vec![nop_spec(), nop_spec(), nop_spec()];
        specs[1].asm("wbinvd").unwrap();
        for workers in [1, 3] {
            let err = Campaign::user(MicroArch::Skylake)
                .workers(workers)
                .run_all(&specs)
                .unwrap_err();
            assert!(matches!(err, NbError::Fault(_)), "workers {workers}: {err}");
        }
    }

    #[test]
    fn unset_workers_default_to_available_parallelism() {
        // Regression pin: an unspecified worker count means "all cores",
        // not 1 — clamped to the job count.
        let campaign = Campaign::kernel(MicroArch::Skylake);
        let auto = auto_workers();
        assert!(auto >= 1);
        assert_eq!(campaign.effective_workers(1024), auto.min(1024));
        assert_eq!(campaign.effective_workers(1), 1);
        assert_eq!(campaign.clone().workers(3).effective_workers(1024), 3);
    }

    #[test]
    fn parallel_map_orders_and_errors() {
        let jobs: Vec<u64> = (0..17).collect();
        let doubled = parallel_map(4, &jobs, |j, idx| {
            assert_eq!(*j, idx as u64);
            Ok(j * 2)
        })
        .unwrap();
        assert_eq!(doubled, (0..17).map(|j| j * 2).collect::<Vec<_>>());
        let err = parallel_map(3, &jobs, |j, _| {
            if *j == 5 {
                Err(NbError::InvalidOption("boom".into()))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
    }
}

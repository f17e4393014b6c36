//! The out-of-order timing engine.
//!
//! Functional-first, timing-directed: instructions execute architecturally
//! in program order (via [`crate::exec`]) while a dataflow model computes
//! cycle timing — operand-ready times per register/flag, per-port
//! availability, a four-wide front end, LFENCE dispatch serialization
//! (§IV-A1), branch prediction with persistent state (§III-H), AVX warm-up
//! (§III-H), and user-mode interrupt injection (§III-D / §IV-A2).
//!
//! The interpreter runs over a [`DecodedProgram`] (see [`crate::plan`]):
//! all per-instruction analysis — descriptor lookups, port-class
//! resolution, memory-operand classification, dependency extraction,
//! *and* step-kind dispatch — is hoisted into a one-shot decode pass. The
//! steady-state loop is an indirect call through a per-bus-type dispatch
//! table ([`Handlers`]) indexed by the plan's precomputed handler byte:
//! no branching on instruction kind, no heap allocation, and (for a
//! concrete [`Bus`] implementation) no virtual calls — the whole
//! interpreter monomorphizes over the bus type. PMU increments accumulate
//! in a per-context [`PmuBatch`] and flush only at architectural
//! observation points, and runs of straight-line ALU, load, store and
//! read-modify-write instructions step as fused superblocks (see
//! [`crate::plan`] for the fusion rules).
//! [`Engine::decode`] plus [`Engine::run_plan`] (or the stepping API the
//! multi-core scheduler drives) is the only way to execute a program.

use crate::bpred::BranchPredictor;
use crate::bus::{Bus, CpuFault};
use crate::exec::{self, Next};
use crate::plan::{
    handler, meta, DecodedProgram, FastCc, FastOp, FastSrc, HotEntry, PlanBody, ResolvedUop,
};
use crate::port::{MicroArch, PortConfig, PortSet};
use crate::state::CpuState;
use nanobench_cache::hierarchy::{HitLevel, MemAccessResult, SnoopResult};
use nanobench_pmu::event::events;
use nanobench_pmu::Pmu;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Flag, Gpr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;

use crate::descriptor::DescriptorTable;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Front-end bubble after a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Safety limit on retired instructions per run.
    pub max_instructions: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            mispredict_penalty: 15,
            max_instructions: 200_000_000,
        }
    }
}

/// Result of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed in this run.
    pub cycles: u64,
    /// Absolute end cycle (feed as `start_cycle` of the next run so the
    /// PMU's cycle counters stay monotonic).
    pub end_cycle: u64,
}

/// Per-run dataflow timing state.
#[derive(Debug)]
struct Timing {
    reg: [u64; 16],
    vreg: [u64; 32],
    flags: u64,
    port_free: [u64; 8],
    alloc_cycle: u64,
    alloc_slots: u64,
    issue_width: u64,
    barrier: u64,
    max_complete: u64,
    rr: usize,
    /// Bounded stepping only ([`Engine::step_plan`]): the turn lasts while
    /// `now() < turn_end` ([`RunContext::set_turn_limit`]), and
    /// `turn_budget` is how many instructions the engine's
    /// `max_instructions` still allows this run. `run_plan` never reads
    /// either.
    turn_end: u64,
    turn_budget: u64,
}

impl Timing {
    fn new(start: u64, issue_width: u64) -> Timing {
        Timing {
            reg: [start; 16],
            vreg: [start; 32],
            flags: start,
            port_free: [start; 8],
            alloc_cycle: start,
            alloc_slots: 0,
            issue_width,
            barrier: start,
            max_complete: start,
            rr: 0,
            turn_end: u64::MAX,
            turn_budget: 0,
        }
    }

    fn now(&self) -> u64 {
        self.max_complete.max(self.alloc_cycle)
    }

    /// Whether the context's turn still runs: its clock has not reached
    /// the turn limit.
    fn in_turn(&self) -> bool {
        self.now() < self.turn_end
    }

    fn alloc_uop(&mut self) -> u64 {
        if self.alloc_slots >= self.issue_width {
            self.alloc_cycle += 1;
            self.alloc_slots = 0;
        }
        self.alloc_slots += 1;
        self.alloc_cycle
    }

    /// Issues and dispatches one µop; returns its dispatch cycle.
    fn dispatch(&mut self, ports: PortSet, ready: u64, recip: u64, batch: &mut PmuBatch) -> u64 {
        let alloc = self.alloc_uop();
        let ready = ready.max(self.barrier).max(alloc);
        batch.uops_issued += 1;
        if ports.is_empty() {
            self.max_complete = self.max_complete.max(ready);
            return ready;
        }
        let n = ports.len();
        if n == 1 {
            // Single-candidate port (e.g. the store-data port): the
            // round-robin scan below degenerates to this.
            let p = ports.0.trailing_zeros() as usize;
            let t = self.port_free[p].max(ready);
            self.rr = self.rr.wrapping_add(1);
            self.port_free[p] = t + recip.max(1);
            batch.port[p] += 1;
            return t;
        }
        // Scan the candidate ports in round-robin order starting at
        // position `rr % n` without materializing a list: the ports at
        // positions `start..n` are considered before those at `0..start`,
        // and the first port with the minimal free time wins — port
        // selection is identical to rotating an explicit candidate list.
        // Every real port set has a power-of-two candidate count, so the
        // rotation mask avoids a hardware divide on the dispatch path.
        let start = if n.is_power_of_two() {
            self.rr & (n - 1)
        } else {
            self.rr % n
        };
        let mut tail = (0u8, u64::MAX);
        let mut head = (0u8, u64::MAX);
        let mut pos = 0usize;
        let mut bits = ports.0;
        while bits != 0 {
            let p = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            let t = self.port_free[p as usize].max(ready);
            if pos >= start {
                if t < tail.1 {
                    tail = (p, t);
                }
            } else if t < head.1 {
                head = (p, t);
            }
            pos += 1;
        }
        let (best_port, best_time) = if head.1 < tail.1 { head } else { tail };
        self.rr = self.rr.wrapping_add(1);
        self.port_free[best_port as usize] = best_time + recip.max(1);
        batch.port[best_port as usize] += 1;
        best_time
    }

    fn complete(&mut self, cycle: u64) {
        self.max_complete = self.max_complete.max(cycle);
    }

    /// Serialization point: no later µop dispatches before `cycle`, and the
    /// front end resumes allocation there (a stalled allocator cannot run
    /// arbitrarily far behind execution).
    fn set_barrier(&mut self, cycle: u64) {
        self.barrier = cycle;
        self.complete(cycle);
        if self.alloc_cycle < cycle {
            self.alloc_cycle = cycle;
            self.alloc_slots = 0;
        }
    }

    // One timing rule per µop kind: every handler times its µops through
    // these and `Engine::{timed_load, store_uops, store_access, branch_uop}`.

    /// Operand readiness: the barrier, the input GPRs and the flags if read.
    #[inline(always)]
    fn inputs_ready(&self, body: &PlanBody, hot: &HotEntry) -> u64 {
        let mut ready = self.barrier;
        for &r in hot.in_regs.slice(&body.regs) {
            ready = ready.max(self.reg[r as usize]);
        }
        if hot.has(meta::FLAGS_READ) {
            ready = ready.max(self.flags);
        }
        ready
    }

    /// Compute µops, ready at `ready`, with latencies scaled by the AVX
    /// warm-up `factor`; returns the first one's (the result's) completion.
    #[inline(always)]
    fn compute_uops(
        &mut self,
        uops: &[ResolvedUop],
        ready: u64,
        factor: u64,
        batch: &mut PmuBatch,
    ) -> Option<u64> {
        let mut first = None;
        for u in uops {
            let done = self.dispatch(u.ports, ready, u.recip, batch) + u.latency * factor;
            self.complete(done);
            first.get_or_insert(done);
        }
        first
    }

    /// Output publication: the output GPRs and written flags are `ready`.
    #[inline(always)]
    fn write_outputs(&mut self, body: &PlanBody, hot: &HotEntry, ready: u64) {
        for &r in hot.out_regs.slice(&body.regs) {
            self.reg[r as usize] = ready;
        }
        if hot.has(meta::FLAGS_WRITTEN) {
            self.flags = ready;
        }
    }

    /// A serializing µop: waits for all earlier µops and `ready`, completes
    /// `cost` cycles later, and holds every later µop until then (§IV-A1).
    #[inline(always)]
    fn serialize(&mut self, ready: u64, cost: u64, batch: &mut PmuBatch) -> u64 {
        let done = self.max_complete.max(ready).max(self.alloc_uop()) + cost;
        batch.uops_issued += 1;
        self.set_barrier(done);
        done
    }
}

/// When an entry's result is ready: its first compute µop's completion but
/// not before its loads; without µops, its loads' or else its inputs'.
#[inline(always)]
fn result_ready(first_uop: Option<u64>, load_done: u64, input_ready: u64) -> u64 {
    match first_uop {
        Some(done) => done.max(load_done),
        None if load_done > 0 => load_done,
        None => input_ready,
    }
}

/// Deferred PMU increments.
///
/// The hot loop accumulates event counts here and flushes them in bulk at
/// architectural observation points: counter reads/writes (`RDPMC`,
/// `RDMSR`, `WRMSR`), counting toggles (the magic pause/resume markers),
/// faults ([`Engine::abandon_plan`]), and run completion. Counter
/// addition commutes and [`Pmu`] masks to the 48-bit width only at
/// reads/writes, so batched delivery is bit-identical to per-µop delivery
/// — including wraparound past 2^48 mid-batch — *provided* the PMU's
/// counting gate does not change while a batch is open. Every
/// `set_counting` toggle is therefore preceded by a flush.
#[derive(Debug, Default)]
struct PmuBatch {
    retired: u64,
    uops_issued: u64,
    port: [u64; 8],
    l1_hit: u64,
    l1_miss: u64,
    l2_hit: u64,
    l2_miss: u64,
    l3_hit: u64,
    l3_miss: u64,
    l2_refs: u64,
    xsnp_hit: u64,
    xsnp_hitm: u64,
    br_retired: u64,
    br_misp: u64,
    rfo: u64,
}

impl PmuBatch {
    /// Delivers all accumulated counts to the PMU and empties the batch.
    fn flush(&mut self, pmu: &mut Pmu) {
        if self.retired > 0 {
            pmu.retire_instructions(self.retired);
        }
        if self.uops_issued > 0 {
            pmu.count(events::UOPS_ISSUED_ANY, self.uops_issued);
        }
        for p in 0..8u8 {
            let n = self.port[p as usize];
            if n > 0 {
                pmu.count(events::uops_dispatched_port(p), n);
            }
        }
        if self.l1_hit > 0 {
            pmu.count(events::MEM_LOAD_L1_HIT, self.l1_hit);
        }
        if self.l1_miss > 0 {
            pmu.count(events::MEM_LOAD_L1_MISS, self.l1_miss);
        }
        if self.l2_hit > 0 {
            pmu.count(events::MEM_LOAD_L2_HIT, self.l2_hit);
        }
        if self.l2_miss > 0 {
            pmu.count(events::MEM_LOAD_L2_MISS, self.l2_miss);
        }
        if self.l3_hit > 0 {
            pmu.count(events::MEM_LOAD_L3_HIT, self.l3_hit);
        }
        if self.l3_miss > 0 {
            pmu.count(events::MEM_LOAD_L3_MISS, self.l3_miss);
        }
        if self.l2_refs > 0 {
            pmu.count(events::L2_RQSTS_REFERENCES, self.l2_refs);
        }
        if self.xsnp_hit > 0 {
            pmu.count(events::MEM_LOAD_XSNP_HIT, self.xsnp_hit);
        }
        if self.xsnp_hitm > 0 {
            pmu.count(events::MEM_LOAD_XSNP_HITM, self.xsnp_hitm);
        }
        if self.br_retired > 0 {
            pmu.count(events::BR_INST_RETIRED, self.br_retired);
        }
        if self.br_misp > 0 {
            pmu.count(events::BR_MISP_RETIRED, self.br_misp);
        }
        if self.rfo > 0 {
            pmu.count(events::OFFCORE_DEMAND_RFO, self.rfo);
        }
        *self = PmuBatch::default();
    }

    /// Accounting for a store's coherence side effects: a store whose
    /// access had to snoop other cores (invalidate their copies or upgrade
    /// a shared line) is a demand RFO through the uncore. On a 1-core
    /// machine the snoop is always `Miss` and nothing is counted.
    fn count_store_coherence(&mut self, res: &MemAccessResult) {
        if res.snoop != SnoopResult::Miss || res.invalidated > 0 {
            self.rfo += 1;
        }
    }

    /// Cache-level and snoop accounting for one load.
    fn record_load(&mut self, res: &MemAccessResult) {
        match res.level {
            HitLevel::L1 => self.l1_hit += 1,
            HitLevel::L2 => {
                self.l1_miss += 1;
                self.l2_hit += 1;
                self.l2_refs += 1;
            }
            HitLevel::L3 => {
                self.l1_miss += 1;
                self.l2_miss += 1;
                self.l3_hit += 1;
                self.l2_refs += 1;
            }
            HitLevel::Memory => {
                self.l1_miss += 1;
                self.l2_miss += 1;
                self.l3_miss += 1;
                self.l2_refs += 1;
            }
        }
        match res.snoop {
            SnoopResult::Miss => {}
            SnoopResult::Hit => self.xsnp_hit += 1,
            SnoopResult::HitM => self.xsnp_hitm += 1,
        }
    }
}

/// The in-flight execution state of one program on one core.
///
/// A context is created by [`Engine::begin_plan`], advanced one
/// instruction (or fused superblock) at a time by [`Engine::step_plan`],
/// and turned into [`RunStats`] by [`Engine::finish_plan`] (or, after a
/// fault, [`Engine::abandon_plan`]). Keeping it outside the engine lets a
/// multi-core machine interleave several cores deterministically: the
/// scheduler gives a turn to whichever core's context has the smallest
/// local cycle and bounds the turn with [`RunContext::set_turn_limit`].
/// [`Engine::run_plan`] is the same loop without a turn limit, so stepped
/// execution is bit-identical to a monolithic run.
#[derive(Debug)]
pub struct RunContext {
    t: Timing,
    pc: usize,
    instructions: u64,
    start_cycle: u64,
    batch: PmuBatch,
    fuse: bool,
}

impl RunContext {
    /// The context's current local cycle (the scheduling key for
    /// round-robin interleaving).
    pub fn now(&self) -> u64 {
        self.t.now()
    }

    /// Bounds the context's turn: a fused [`Engine::step_plan`] runs a
    /// superblock entry after the first (or its loop-close branch) only
    /// while [`RunContext::now`] is below `cycle`, so no instruction starts
    /// at or past the limit except the step's first. `u64::MAX`, the
    /// default, means no limit.
    pub fn set_turn_limit(&mut self, cycle: u64) {
        self.t.turn_end = cycle;
    }

    /// Instructions retired so far in this run.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Rewinds the program counter so the plan restarts from its first
    /// instruction; timing and counters carry over. This is how co-runner
    /// programs loop for as long as the measured core runs.
    pub fn restart(&mut self) {
        self.pc = 0;
    }

    /// Turns off superblock fusion for this context: every dispatched step
    /// executes exactly one instruction, so `Bus::poll_interrupt` runs
    /// once per instruction. The measured core of a multi-core run uses
    /// this (its user-mode interrupts land where one-instruction stepping
    /// puts them), and so does the unfused side of the fusion pair.
    pub fn disable_fusion(&mut self) {
        self.fuse = false;
    }
}

/// Everything a step handler touches besides the engine itself: the plan,
/// its instructions, the current program counter, and mutable views of the
/// timing state, architectural state, PMU (plus its batch), and bus.
struct StepArgs<'a, B: Bus + ?Sized> {
    body: &'a PlanBody,
    insts: &'a [Instruction],
    pc: usize,
    /// Whether superblock fusion is active for this context (see
    /// [`RunContext::disable_fusion`]).
    fuse: bool,
    t: &'a mut Timing,
    state: &'a mut CpuState,
    pmu: &'a mut Pmu,
    batch: &'a mut PmuBatch,
    bus: &'a mut B,
}

/// What one dispatched step did: where control flows next, how many
/// consecutive plan entries it consumed (> 1 only for fused superblocks,
/// whose entries mix ALU, load, store and RMW shapes), how many of those
/// retire architecturally, and — for a
/// fault in the middle of a superblock — the fault to raise *after* the
/// completed prefix is accounted.
struct StepOutcome {
    next: Next,
    consumed: u32,
    retired: u32,
    fault: Option<CpuFault>,
}

impl StepOutcome {
    /// A single-entry step.
    fn one(next: Next, retires: bool) -> StepOutcome {
        StepOutcome {
            next,
            consumed: 1,
            retired: u32::from(retires),
            fault: None,
        }
    }

    /// A superblock step that falls through after `len` entries, all of
    /// which retire, then raises `fault` if there is one.
    fn block(len: usize, fault: Option<CpuFault>) -> StepOutcome {
        StepOutcome {
            next: Next::Seq,
            consumed: len as u32,
            retired: len as u32,
            fault,
        }
    }
}

type StepFn<B> = fn(&mut Engine, &mut StepArgs<'_, B>) -> Result<StepOutcome, CpuFault>;

/// The dispatch table, monomorphized per bus type.
///
/// Generic statics are not a thing in Rust, but an associated `const` on a
/// generic carrier struct is: `Handlers::<B, BOUNDED>::TABLE` materializes
/// one table of concrete function pointers per bus type the engine runs
/// against, so the steady-state loop is `TABLE[entry.handler](...)` with
/// every handler fully monomorphized over `B`. `BOUNDED` selects the
/// superblock handler that honours the turn limit ([`Engine::step_plan`]);
/// [`Engine::run_plan`]'s table never evaluates it.
struct Handlers<B: Bus + ?Sized, const BOUNDED: bool>(PhantomData<fn(&mut B)>);

impl<B: Bus + ?Sized, const BOUNDED: bool> Handlers<B, BOUNDED> {
    /// Order must match the index constants in [`handler`].
    const TABLE: [StepFn<B>; handler::COUNT] = [
        step_generic::<B>,
        step_block::<B, BOUNDED>, // ALU_BLOCK
        step_block::<B, BOUNDED>, // LOAD
        step_block::<B, BOUNDED>, // STORE
        step_block::<B, BOUNDED>, // RMW
        step_branch::<B, true>,   // COND_BRANCH
        step_branch::<B, false>,  // JUMP
        step_nop::<B>,
        step_lfence::<B>,
        step_fence::<B>,
        step_cpuid::<B>,
        step_rdtsc::<B>,
        step_rdpmc::<B>,
        step_rdmsr::<B>,
        step_wrmsr::<B>,
        step_wbinvd::<B>,
        step_clflush::<B>,
        step_prefetch::<B>,
        step_set_if::<B, false>, // CLI
        step_set_if::<B, true>,  // STI
        step_serialize::<B>,
        step_rdrand::<B>,
        step_nb_marker::<B, false>, // NB_PAUSE
        step_nb_marker::<B, true>,  // NB_RESUME
        step_push::<B>,
        step_pop::<B>,
    ];
}

/// The simulated core's execution engine.
///
/// Branch-predictor and AVX warm-up state persist across runs, which is
/// what gives nanoBench's warm-up runs (§III-H) their effect.
#[derive(Debug)]
pub struct Engine {
    uarch: MicroArch,
    table: DescriptorTable,
    ports: PortConfig,
    config: EngineConfig,
    /// Branch predictor (persistent; public so tools can reset it).
    pub bpred: BranchPredictor,
    rng: SmallRng,
    avx_cold: bool,
    non_avx_streak: u64,
    avx_penalty_uops: u64,
    /// Scratch for uncore-lookup drains (reused so the hot loop does not
    /// allocate).
    uncore_buf: Vec<u64>,
}

/// Instructions executed since the last AVX µop before the upper vector
/// unit powers down.
const AVX_IDLE_LIMIT: u64 = 50_000;
/// Number of AVX µops that run slowly after a cold start.
const AVX_WARMUP_UOPS: u64 = 150;
/// Latency multiplier for cold AVX µops.
const AVX_COLD_FACTOR: u64 = 4;

impl Engine {
    /// Creates an engine for a microarchitecture. `seed` drives the
    /// CPUID-latency jitter and RDRAND values.
    pub fn new(uarch: MicroArch, seed: u64) -> Engine {
        Engine {
            uarch,
            table: DescriptorTable::for_uarch(uarch),
            ports: PortConfig::for_uarch(uarch),
            config: EngineConfig::default(),
            bpred: BranchPredictor::new(),
            rng: SmallRng::seed_from_u64(seed),
            avx_cold: true,
            non_avx_streak: 0,
            avx_penalty_uops: 0,
            uncore_buf: Vec::new(),
        }
    }

    /// Creates an engine with custom tuning.
    pub fn with_config(uarch: MicroArch, seed: u64, config: EngineConfig) -> Engine {
        Engine {
            config,
            ..Engine::new(uarch, seed)
        }
    }

    /// The microarchitecture being simulated.
    pub fn uarch(&self) -> MicroArch {
        self.uarch
    }

    /// The descriptor table (ground truth for case study I).
    pub fn table(&self) -> &DescriptorTable {
        &self.table
    }

    /// Restores the just-constructed state for `seed` without touching the
    /// descriptor table or port configuration: forgets all branch-predictor
    /// history, rewinds the jitter/RDRAND random stream, and powers the
    /// upper vector unit back down (AVX warm-up state, §III-H).
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.bpred.reset();
        self.rng = SmallRng::seed_from_u64(seed);
        self.avx_cold = true;
        self.non_avx_streak = 0;
        self.avx_penalty_uops = 0;
    }

    /// Decodes `program` into a reusable execution plan for this engine's
    /// microarchitecture (descriptor table and port configuration). The
    /// plan holds no machine state and can be replayed any number of
    /// times via [`Engine::run_plan`].
    pub fn decode(&self, program: &[Instruction]) -> DecodedProgram {
        DecodedProgram::new(program, &self.table)
    }

    /// Runs a decoded plan to completion.
    ///
    /// `start_cycle` is the absolute cycle the run begins at; pass the
    /// previous run's [`RunStats::end_cycle`] to keep PMU time monotonic.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault`] on privilege violations, page faults, divide
    /// errors, or when the instruction limit is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if the plan was decoded for a different microarchitecture —
    /// its port sets and latencies would be silently wrong on this
    /// engine. (One enum compare per run, not per instruction.)
    pub fn run_plan<B: Bus + ?Sized>(
        &mut self,
        plan: &DecodedProgram,
        state: &mut CpuState,
        pmu: &mut Pmu,
        bus: &mut B,
        start_cycle: u64,
    ) -> Result<RunStats, CpuFault> {
        assert_eq!(
            plan.uarch(),
            self.uarch,
            "plan decoded for a different microarchitecture"
        );
        let (body, insts) = (plan.body(), plan.instructions());
        let mut ctx = self.begin_plan(start_cycle);
        loop {
            match self.step_decoded::<B, false>(&mut ctx, body, insts, state, pmu, bus) {
                Ok(true) => {}
                Ok(false) => return Ok(self.finish_plan(&mut ctx, pmu)),
                Err(f) => {
                    self.abandon_plan(&mut ctx, pmu);
                    return Err(f);
                }
            }
        }
    }

    /// Creates a fresh execution context for a run beginning at
    /// `start_cycle` (pass the previous run's [`RunStats::end_cycle`]).
    pub fn begin_plan(&self, start_cycle: u64) -> RunContext {
        RunContext {
            t: Timing::new(start_cycle, self.uarch.issue_width()),
            pc: 0,
            instructions: 0,
            start_cycle,
            batch: PmuBatch::default(),
            fuse: true,
        }
    }

    /// Advances a context by one dispatched step — one instruction, or one
    /// fused superblock cut at the context's turn limit
    /// ([`RunContext::set_turn_limit`]) and at the engine's instruction
    /// limit. Returns `Ok(true)` if anything was executed and `Ok(false)`
    /// if the program had already completed (the context is unchanged in
    /// that case).
    ///
    /// PMU counts stay in the context's batch between steps; the handlers
    /// that observe counters (`RDPMC`, `RDMSR`, `WRMSR`, the pause/resume
    /// markers) flush it themselves, and [`Engine::finish_plan`] or, on a
    /// fault, [`Engine::abandon_plan`] delivers the rest. A fault returned
    /// here has already been abandoned: the context's batch is delivered.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault`] exactly as one-instruction stepping would at
    /// the same point in the program.
    pub fn step_plan<B: Bus + ?Sized>(
        &mut self,
        ctx: &mut RunContext,
        plan: &DecodedProgram,
        state: &mut CpuState,
        pmu: &mut Pmu,
        bus: &mut B,
    ) -> Result<bool, CpuFault> {
        debug_assert_eq!(
            plan.uarch(),
            self.uarch,
            "plan decoded for a different microarchitecture"
        );
        let r =
            self.step_decoded::<B, true>(ctx, plan.body(), plan.instructions(), state, pmu, bus);
        if r.is_err() {
            self.abandon_plan(ctx, pmu);
        }
        r
    }

    /// Converts a completed context into [`RunStats`], flushing its
    /// pending PMU batch and syncing the PMU's cycle counters to the
    /// context's end cycle.
    pub fn finish_plan(&self, ctx: &mut RunContext, pmu: &mut Pmu) -> RunStats {
        ctx.batch.flush(pmu);
        let end = ctx.t.now();
        pmu.sync_cycles(end);
        RunStats {
            instructions: ctx.instructions,
            cycles: end - ctx.start_cycle,
            end_cycle: end,
        }
    }

    /// The fault path's counterpart of [`Engine::finish_plan`]: delivers a
    /// context's pending PMU batch without syncing the cycle counters, so
    /// the PMU holds every event counted up to the fault. A multi-core run
    /// abandons every core's context when any core faults.
    pub fn abandon_plan(&self, ctx: &mut RunContext, pmu: &mut Pmu) {
        ctx.batch.flush(pmu);
    }

    /// One dispatched step. `BOUNDED` is [`Engine::step_plan`]'s form: its
    /// superblocks stop at the turn limit and the instruction budget;
    /// [`Engine::run_plan`] compiles the unbounded form. Kept out of line
    /// so that each form keeps the single-form code's shape: a step loop
    /// calling this, which polls for interrupts inline and dispatches.
    #[inline(never)]
    fn step_decoded<B: Bus + ?Sized, const BOUNDED: bool>(
        &mut self,
        ctx: &mut RunContext,
        body: &PlanBody,
        insts: &[Instruction],
        state: &mut CpuState,
        pmu: &mut Pmu,
        bus: &mut B,
    ) -> Result<bool, CpuFault> {
        if ctx.pc >= insts.len() {
            return Ok(false);
        }
        if ctx.instructions >= self.config.max_instructions {
            return Err(CpuFault::RunawayExecution);
        }
        if BOUNDED {
            ctx.t.turn_budget = self.config.max_instructions - ctx.instructions;
        }
        if let Some(intr) = bus.poll_interrupt(ctx.t.now()) {
            // The handler runs in the middle of the benchmark: it
            // consumes cycles, retires instructions, and perturbs the
            // counters (§IV-A2; the kernel version avoids this).
            let resume = ctx.t.now() + intr.cycles;
            ctx.t.alloc_cycle = resume;
            ctx.t.barrier = resume;
            ctx.t.complete(resume);
            ctx.batch.retired += intr.instructions;
            ctx.batch.uops_issued += intr.uops;
        }
        let hot = &body.hot[ctx.pc];
        if hot.has(meta::PRIVILEGED) && !bus.is_kernel() {
            return Err(CpuFault::PrivilegedInstruction(insts[ctx.pc].mnemonic));
        }
        // Checked-interpreter mode: debug builds re-assert the verifier's
        // facts at the dispatch site (release trusts the verified plan).
        debug_assert!(
            (hot.handler as usize) < Handlers::<B, BOUNDED>::TABLE.len(),
            "plan handler index {} out of dispatch-table range",
            hot.handler
        );
        debug_assert_eq!(
            hot.has(meta::PRIVILEGED),
            insts[ctx.pc].mnemonic.is_privileged(),
            "plan privilege bit disagrees with the instruction at {}",
            ctx.pc
        );
        let step = Handlers::<B, BOUNDED>::TABLE[hot.handler as usize];
        let mut args = StepArgs {
            body,
            insts,
            pc: ctx.pc,
            fuse: ctx.fuse,
            t: &mut ctx.t,
            state,
            pmu,
            batch: &mut ctx.batch,
            bus,
        };
        let out = step(self, &mut args)?;
        // Every consumed entry counts toward the run's instructions; the
        // magic pause/resume markers are byte sequences consumed by the
        // tool, not instructions the benchmark retires (§III-I), so
        // `retired` may be smaller.
        ctx.instructions += u64::from(out.consumed);
        ctx.batch.retired += u64::from(out.retired);
        if let Some(f) = out.fault {
            return Err(f);
        }
        ctx.pc = match out.next {
            Next::Seq => ctx.pc + out.consumed as usize,
            Next::Jump(target) => target,
        };
        Ok(true)
    }

    /// AVX warm-up bookkeeping; returns the latency multiplier for this
    /// instruction's µops.
    fn avx_factor(&mut self, is_avx: bool) -> u64 {
        if is_avx {
            self.non_avx_streak = 0;
            if self.avx_cold {
                self.avx_cold = false;
                self.avx_penalty_uops = AVX_WARMUP_UOPS;
            }
            if self.avx_penalty_uops > 0 {
                self.avx_penalty_uops -= 1;
                return AVX_COLD_FACTOR;
            }
        } else {
            self.non_avx_streak += 1;
            if self.non_avx_streak > AVX_IDLE_LIMIT {
                self.avx_cold = true;
            }
        }
        1
    }

    /// The non-AVX half of [`Engine::avx_factor`] for `n` consecutive
    /// instructions of fast handlers, whose shapes are never AVX. Equivalent
    /// to `n` single calls: nothing reads `avx_cold` before the next AVX
    /// instruction, which can never be inside a fused block.
    #[inline]
    fn note_non_avx_n(&mut self, n: u64) {
        self.non_avx_streak += n;
        if self.non_avx_streak > AVX_IDLE_LIMIT {
            self.avx_cold = true;
        }
    }

    /// The load rule: the bus access, then the load µop, so a faulting
    /// load leaves no µop in the PMU. Returns the completion cycle and, if
    /// `FUSED`, the quadword read in the same bus operation
    /// ([`Bus::load_fused`]). `is_write` marks the load half of an RMW
    /// access: the walk runs write coherence and the RFO is counted here,
    /// since the covered store never touches the bus.
    #[allow(clippy::too_many_arguments)] // timing + batch + bus is the full hot-path context
    fn timed_load<B: Bus + ?Sized, const FUSED: bool>(
        &mut self,
        t: &mut Timing,
        vaddr: u64,
        addr_ready: u64,
        is_write: bool,
        batch: &mut PmuBatch,
        pmu: &mut Pmu,
        bus: &mut B,
    ) -> Result<(u64, u64), CpuFault> {
        let (res, value) = if FUSED {
            bus.load_fused(vaddr, 8, is_write)?
        } else {
            (bus.access(vaddr, is_write)?, 0)
        };
        if is_write {
            batch.count_store_coherence(&res);
        }
        if res.slice.is_some() {
            // Only accesses that reached the L3 generate uncore lookups;
            // private-cache hits leave the C-Box counters untouched, and
            // the architectural read points (RDPMC/RDMSR) drain anyway.
            self.drain_uncore(pmu, bus);
        }
        batch.record_load(&res);
        let dispatch = t.dispatch(self.ports.load, addr_ready, 1, batch);
        let done = dispatch + res.latency;
        t.complete(done);
        Ok((done, value))
    }

    /// The store rule, µop half: store address and store data. Both
    /// dispatch before the bus access, so a faulting store leaves both in
    /// the PMU.
    #[inline(always)]
    fn store_uops(&self, t: &mut Timing, addr_ready: u64, data_ready: u64, batch: &mut PmuBatch) {
        t.dispatch(self.ports.store_addr, addr_ready, 1, batch);
        t.dispatch(self.ports.store_data, data_ready, 1, batch);
    }

    /// The store rule, access half: after the bus access, the demand RFO
    /// and, if the access reached the L3, the C-Box lookups it caused.
    #[inline(always)]
    fn store_access<B: Bus + ?Sized>(
        &mut self,
        res: &MemAccessResult,
        batch: &mut PmuBatch,
        pmu: &mut Pmu,
        bus: &mut B,
    ) {
        batch.count_store_coherence(res);
        if res.slice.is_some() {
            self.drain_uncore(pmu, bus);
        }
    }

    /// The branch rule: a branch-port µop and a retired branch. A
    /// conditional one (`cond`: pc, taken) trains the predictor; a
    /// mispredict stalls the front end for the penalty after it resolves.
    #[inline(always)]
    fn branch_uop(
        &mut self,
        t: &mut Timing,
        ready: u64,
        cond: Option<(usize, bool)>,
        batch: &mut PmuBatch,
    ) {
        let done = t.dispatch(self.ports.branch, ready, 1, batch) + 1;
        t.complete(done);
        batch.br_retired += 1;
        if let Some((pc, taken)) = cond {
            if self.bpred.update(pc, taken) {
                batch.br_misp += 1;
                t.alloc_cycle = t.alloc_cycle.max(done + self.config.mispredict_penalty);
                t.alloc_slots = 0;
            }
        }
    }

    fn drain_uncore<B: Bus + ?Sized>(&mut self, pmu: &mut Pmu, bus: &mut B) {
        self.uncore_buf.clear();
        bus.drain_uncore_lookups(&mut self.uncore_buf);
        for (slice, n) in self.uncore_buf.iter().enumerate() {
            if *n > 0 {
                // The hierarchy and the PMU are built from the same
                // slice count, so a mismatch is a machine-construction
                // bug; fail loudly in every profile rather than
                // misattribute or drop slice counts.
                pmu.count_uncore(slice, *n)
                    .expect("hierarchy slice count matches the PMU's uncore counters");
            }
        }
    }
}

fn addr_ready(t: &Timing, mem: &MemRef) -> u64 {
    let mut ready = t.barrier;
    if let Some(b) = mem.base {
        ready = ready.max(t.reg[b.number() as usize]);
    }
    if let Some((i, _)) = mem.index {
        ready = ready.max(t.reg[i.number() as usize]);
    }
    ready
}

// ---- step handlers --------------------------------------------------------
//
// One function per dispatch-table slot (see `plan::handler` for the index
// assignment). Each advances the timing model and then executes the
// instruction architecturally; the caller accounts `StepOutcome`.

/// Full dataflow path: correct for every non-special instruction. The only
/// handler that reads the cold entry arena (vector dependencies) or the
/// AVX warm-up factor.
fn step_generic<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let body = a.body;
    let hot = &body.hot[a.pc];
    let cold = &body.cold[a.pc];
    let inst = &a.insts[a.pc];
    let factor = eng.avx_factor(hot.has(meta::IS_AVX));

    let mut input_ready = a.t.inputs_ready(body, hot);
    for &v in cold.in_vregs.slice(&body.regs) {
        input_ready = input_ready.max(a.t.vreg[v as usize]);
    }

    // Loads. A load that covers an RMW store is the instruction's only
    // cache access (the store below skips the bus), so it must perform
    // the write side of the coherence protocol — read-for-ownership —
    // or read-modify-writes would never invalidate remote copies.
    let writes = hot.writes.slice(&body.writes);
    let mut load_done = 0u64;
    for mem in hot.reads.slice(&body.reads) {
        let a_ready = addr_ready(a.t, mem);
        let vaddr = exec::mem_vaddr(a.state, mem);
        let rmw = writes.iter().any(|w| w.covered_by_read && w.mem == *mem);
        let (done, _) =
            eng.timed_load::<B, false>(a.t, vaddr, a_ready, rmw, a.batch, a.pmu, a.bus)?;
        load_done = load_done.max(done);
    }
    let compute_ready = input_ready.max(load_done);
    let uops = hot.uops.slice(&body.uops);
    let first = a.t.compute_uops(uops, compute_ready, factor, a.batch);
    let result_ready = result_ready(first, load_done, compute_ready);

    for store in writes {
        let a_ready = addr_ready(a.t, &store.mem);
        eng.store_uops(a.t, a_ready, result_ready, a.batch);
        // RMW accesses already touched the line via the load.
        if !store.covered_by_read {
            let vaddr = exec::mem_vaddr(a.state, &store.mem);
            let res = a.bus.access(vaddr, true)?;
            eng.store_access(&res, a.batch, a.pmu, a.bus);
        }
    }

    // Branches: prediction bookkeeping before the semantic jump.
    if hot.has(meta::IS_BRANCH) {
        let taken = exec::branch_taken(inst, a.state);
        let cond = hot.has(meta::CONDITIONAL).then_some((a.pc, taken));
        eng.branch_uop(a.t, compute_ready, cond, a.batch);
    }

    a.t.write_outputs(body, hot, result_ready);
    if let Some(v) = cold.out_vreg {
        a.t.vreg[v as usize] = result_ready;
    }

    let next = exec::execute(inst, a.pc, a.state, a.bus)?;
    Ok(StepOutcome::one(next, hot.has(meta::RETIRES)))
}

/// Fused superblock of straight-line entries (ALU, load, store, RMW):
/// `fuse_len` consecutive instructions with no branch, vector register, or
/// privilege, stepped in one dispatch. Interrupt polling and the
/// instruction-limit check run once per dispatched block. A fault from any
/// entry ends the block after the completed prefix
/// (`StepOutcome::consumed`), matching the per-instruction path's
/// accounting exactly.
///
/// `BOUNDED` ([`Engine::step_plan`]) cuts the block the same way at the
/// context's turn limit: an entry after the first runs only while
/// `now() < turn_end`, exactly when a scheduler stepping one instruction at
/// a time would still pick this context. The block is also capped at the
/// instructions `max_instructions` still allows, so `RunawayExecution`
/// fires at the same instruction as one-instruction stepping.
fn step_block<B: Bus + ?Sized, const BOUNDED: bool>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let mut n = if a.fuse {
        a.body.hot[a.pc].fuse_len as usize
    } else {
        1
    };
    if BOUNDED && a.t.turn_budget < n as u64 {
        // `step_decoded` refused a run with no budget left, so n stays ≥ 1.
        n = a.t.turn_budget as usize;
    }
    // Checked-interpreter mode: the superblock about to run inline must
    // satisfy the fusion-legality invariants `plan::verify_plan` certifies
    // (fusable members only, no branch/privileged/AVX entry, cap obeyed).
    #[cfg(debug_assertions)]
    {
        debug_assert!(
            (1..=crate::plan::FUSE_CAP as usize).contains(&n) && a.pc + n <= a.body.hot.len(),
            "superblock [{}, {}) violates the fusion cap or program bounds",
            a.pc,
            a.pc + n
        );
        for h in &a.body.hot[a.pc..a.pc + n] {
            debug_assert!(
                handler::is_fusable(h.handler)
                    && !h.has(meta::IS_BRANCH)
                    && !h.has(meta::PRIVILEGED)
                    && !h.has(meta::IS_AVX),
                "illegal superblock member (handler {})",
                h.handler
            );
        }
    }
    for i in 0..n {
        if BOUNDED && i > 0 && !a.t.in_turn() {
            // The turn ended: the entries so far are the whole step.
            eng.note_non_avx_n(i as u64);
            return Ok(StepOutcome::block(i, None));
        }
        let pc = a.pc + i;
        let r = match a.body.hot[pc].handler {
            handler::ALU_BLOCK => alu_entry(a, pc),
            handler::LOAD => match &a.body.fast[pc] {
                FastOp::LoadQ { dst } => load_q_entry(eng, a, pc, *dst),
                _ => mem_entry::<B, true, false>(eng, a, pc),
            },
            handler::STORE => match &a.body.fast[pc] {
                FastOp::StoreQ { src } => store_q_entry(eng, a, pc, *src),
                _ => mem_entry::<B, false, true>(eng, a, pc),
            },
            _ => mem_entry::<B, true, true>(eng, a, pc), // RMW
        };
        if let Err(f) = r {
            // The faulting entry counts toward the non-AVX streak, just
            // as on the per-instruction path.
            eng.note_non_avx_n(i as u64 + 1);
            return Ok(StepOutcome::block(i, Some(f)));
        }
    }
    // Loop-close fusion: a certified conditional branch directly behind
    // the block runs in the same dispatch, so a benchmark loop iteration
    // costs one step instead of two. The timing below is `step_branch`'s;
    // the pre-decoded condition and target make the generic executor
    // redundant. Under a turn limit the branch is one more entry: it runs
    // only inside the turn and the budget.
    if a.fuse && (!BOUNDED || ((n as u64) < a.t.turn_budget && a.t.in_turn())) {
        let bpc = a.pc + n;
        if let Some(&FastOp::CondJump { target, cc }) = a.body.fast.get(bpc) {
            let body = a.body;
            let hot = &body.hot[bpc];
            // Checked-interpreter mode: `fast_branch_op` certified these.
            debug_assert!(
                hot.has(meta::IS_BRANCH)
                    && hot.has(meta::CONDITIONAL)
                    && hot.has(meta::RETIRES)
                    && !hot.has(meta::PRIVILEGED)
                    && !hot.has(meta::FLAGS_WRITTEN)
                    && hot.out_regs.slice(&body.regs).is_empty()
                    && hot.reads.is_empty()
                    && hot.writes.is_empty(),
                "CondJump entry violates the certified loop-close shape"
            );
            let input_ready = a.t.inputs_ready(body, hot);
            a.t.compute_uops(hot.uops.slice(&body.uops), input_ready, 1, a.batch);
            let taken = match cc {
                FastCc::Z => a.state.flag(Flag::Zf),
                FastCc::Nz => !a.state.flag(Flag::Zf),
                FastCc::C => a.state.flag(Flag::Cf),
                FastCc::Nc => !a.state.flag(Flag::Cf),
            };
            eng.branch_uop(a.t, input_ready, Some((bpc, taken)), a.batch);
            eng.note_non_avx_n(n as u64 + 1);
            let next = if taken {
                Next::Jump(target as usize)
            } else {
                Next::Seq
            };
            return Ok(StepOutcome {
                next,
                ..StepOutcome::block(n + 1, None)
            });
        }
    }
    eng.note_non_avx_n(n as u64);
    Ok(StepOutcome::block(n, None))
}

/// One register-only ALU entry inside a superblock.
///
/// The superblock entries are inlined into both forms of [`step_block`]:
/// each has two callers, and left to itself the compiler calls them out of
/// line, which slows the unbounded form `run_plan` uses.
#[inline(always)]
fn alu_entry<B: Bus + ?Sized>(a: &mut StepArgs<'_, B>, pc: usize) -> Result<(), CpuFault> {
    let body = a.body;
    let hot = &body.hot[pc];
    let input_ready = a.t.inputs_ready(body, hot);
    let uops = hot.uops.slice(&body.uops);
    let result_ready =
        a.t.compute_uops(uops, input_ready, 1, a.batch)
            .unwrap_or(input_ready);
    a.t.write_outputs(body, hot, result_ready);
    let fast = &body.fast[pc];
    if matches!(fast, FastOp::None) {
        exec::execute(&a.insts[pc], pc, a.state, a.bus)?;
    } else {
        // Pre-decoded register-only semantics: cannot fault.
        exec::execute_fast(fast, a.state);
    }
    Ok(())
}

/// One LOAD / STORE / RMW entry inside a superblock: the generic path
/// specialized to "no vector registers, no AVX, no branch", with the
/// memory sides selected by const generics (`READS`/`WRITES`; both set is
/// the covered read-modify-write shape). These shapes always fall through
/// (`Next::Seq`) and always retire, so the block loop accounts for them
/// uniformly.
#[inline(always)]
fn mem_entry<B: Bus + ?Sized, const READS: bool, const WRITES: bool>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
    pc: usize,
) -> Result<(), CpuFault> {
    let body = a.body;
    let hot = &body.hot[pc];
    let input_ready = a.t.inputs_ready(body, hot);

    // Pre-decoded shapes fuse timing and data into one bus operation, so
    // a translating environment resolves each memory µop's address once.
    let fast = body.fast[pc];
    let fast_load = matches!(
        fast,
        FastOp::LoadQ { .. } | FastOp::LoadAlu { .. } | FastOp::RmwAlu { .. }
    );

    let mut load_done = 0u64;
    let mut loaded = 0u64;
    if READS {
        for mem in hot.reads.slice(&body.reads) {
            let a_ready = addr_ready(a.t, mem);
            let vaddr = exec::mem_vaddr(a.state, mem);
            // In the RMW shape the (single) write is covered by this read.
            let (done, value) = if fast_load {
                eng.timed_load::<B, true>(a.t, vaddr, a_ready, WRITES, a.batch, a.pmu, a.bus)?
            } else {
                eng.timed_load::<B, false>(a.t, vaddr, a_ready, WRITES, a.batch, a.pmu, a.bus)?
            };
            loaded = value;
            load_done = load_done.max(done);
        }
    }
    let compute_ready = input_ready.max(load_done);
    let uops = hot.uops.slice(&body.uops);
    let first = a.t.compute_uops(uops, compute_ready, 1, a.batch);
    let result_ready = result_ready(first, load_done, compute_ready);

    if WRITES {
        for store in hot.writes.slice(&body.writes) {
            let a_ready = addr_ready(a.t, &store.mem);
            eng.store_uops(a.t, a_ready, result_ready, a.batch);
            if !store.covered_by_read {
                let vaddr = exec::mem_vaddr(a.state, &store.mem);
                let res = if let FastOp::StoreQ { src, .. } = fast {
                    a.bus
                        .store_fused(vaddr, 8, exec::fast_src_val(a.state, src))?
                } else {
                    a.bus.access(vaddr, true)?
                };
                eng.store_access(&res, a.batch, a.pmu, a.bus);
            }
        }
    }

    a.t.write_outputs(body, hot, result_ready);

    // Semantic completion. The data side of every pre-decoded shape went
    // through the fused bus operations above; only the register/flag
    // effects (and the RMW write-back) remain. Must stay bit-identical to
    // [`exec::execute`] on the same instruction (pinned by the oracle
    // tests, which compare the engine with an `exec::execute` stepping
    // loop from random register and flag states).
    match fast {
        FastOp::None => {
            let next = exec::execute(&a.insts[pc], pc, a.state, a.bus)?;
            debug_assert!(matches!(next, Next::Seq), "mem shapes never branch");
        }
        FastOp::LoadQ { dst, .. } => a.state.set_gpr(dst, loaded),
        FastOp::LoadAlu { op, dst, .. } => {
            let acc = a.state.gpr(dst);
            let r = exec::fast_mem_alu(a.state, op, acc, loaded);
            a.state.set_gpr(dst, r);
        }
        FastOp::StoreQ { .. } => {} // written via the fused store above
        FastOp::RmwAlu { op, mem, src } => {
            let b = exec::fast_src_val(a.state, src);
            let r = exec::fast_mem_alu(a.state, op, loaded, b);
            // The address registers are untouched by the ALU step, so this
            // recomputes the exact vaddr the covering load walked.
            a.bus.write(exec::mem_vaddr(a.state, &mem), 8, r)?;
        }
        _ => unreachable!("mem entries carry memory-shape fast ops or None"),
    }
    debug_assert!(hot.has(meta::RETIRES), "mem shapes always retire");
    Ok(())
}

/// One pre-decoded quadword load (`FastOp::LoadQ`, i.e. `mov r64, [m64]`)
/// inside a superblock: [`mem_entry`] specialized to the shape's statics —
/// one fused load, no stores, no flag effects, the destination register as
/// the only timing output — so the per-entry arena scans the generic entry
/// pays disappear. An entry whose decode carries compute µops or more than
/// one memory read (no shipping descriptor does for this shape) takes the
/// generic entry unchanged.
#[inline(always)]
fn load_q_entry<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
    pc: usize,
    dst: Gpr,
) -> Result<(), CpuFault> {
    let body = a.body;
    let hot = &body.hot[pc];
    let reads = hot.reads.slice(&body.reads);
    // Checked-interpreter mode: `certify_fast_mem` demoted any entry that
    // does not satisfy these statics back to the generic path.
    debug_assert!(
        hot.uops.is_empty()
            && reads.len() == 1
            && hot.out_regs.slice(&body.regs) == [dst.number()]
            && !hot.has(meta::FLAGS_WRITTEN),
        "LoadQ entry violates the certified fast-load shape"
    );
    let mem = &reads[0];
    let a_ready = addr_ready(a.t, mem);
    let vaddr = exec::mem_vaddr(a.state, mem);
    let (done, value) =
        eng.timed_load::<B, true>(a.t, vaddr, a_ready, false, a.batch, a.pmu, a.bus)?;
    // `result_ready` without compute µops; only the zero-latency corner
    // (configurable latencies can be 0 at cycle 0) reads the inputs.
    let result_ready = if done > 0 {
        done
    } else {
        a.t.inputs_ready(body, hot)
    };
    a.t.reg[dst.number() as usize] = result_ready;
    a.state.set_gpr(dst, value);
    debug_assert!(hot.has(meta::RETIRES), "mem shapes always retire");
    Ok(())
}

/// One pre-decoded quadword store (`FastOp::StoreQ`, i.e. `mov [m64],
/// r64/imm64`) inside a superblock: [`mem_entry`] specialized the same way
/// as [`load_q_entry`] — one uncovered fused store, no loads, no compute
/// µops, no register or flag outputs.
#[inline(always)]
fn store_q_entry<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
    pc: usize,
    src: FastSrc,
) -> Result<(), CpuFault> {
    let body = a.body;
    let hot = &body.hot[pc];
    let writes = hot.writes.slice(&body.writes);
    // Checked-interpreter mode: `certify_fast_mem` demoted any entry that
    // does not satisfy these statics back to the generic path.
    debug_assert!(
        hot.uops.is_empty()
            && writes.len() == 1
            && !writes[0].covered_by_read
            && hot.out_regs.is_empty()
            && !hot.has(meta::FLAGS_WRITTEN),
        "StoreQ entry violates the certified fast-store shape"
    );
    let input_ready = a.t.inputs_ready(body, hot);
    let store = &writes[0];
    let a_ready = addr_ready(a.t, &store.mem);
    eng.store_uops(a.t, a_ready, input_ready, a.batch);
    let vaddr = exec::mem_vaddr(a.state, &store.mem);
    let res = a
        .bus
        .store_fused(vaddr, 8, exec::fast_src_val(a.state, src))?;
    eng.store_access(&res, a.batch, a.pmu, a.bus);
    debug_assert!(hot.has(meta::RETIRES), "mem shapes always retire");
    Ok(())
}

/// Register-only branches (`COND` selects the predictor-feeding
/// conditional shape; unconditional jumps only count as retired).
fn step_branch<B: Bus + ?Sized, const COND: bool>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let body = a.body;
    let hot = &body.hot[a.pc];
    let inst = &a.insts[a.pc];
    eng.note_non_avx_n(1);
    let input_ready = a.t.inputs_ready(body, hot);
    let uops = hot.uops.slice(&body.uops);
    let result_ready =
        a.t.compute_uops(uops, input_ready, 1, a.batch)
            .unwrap_or(input_ready);
    let taken = exec::branch_taken(inst, a.state);
    eng.branch_uop(a.t, input_ready, COND.then_some((a.pc, taken)), a.batch);
    a.t.write_outputs(body, hot, result_ready);
    let next = exec::execute(inst, a.pc, a.state, a.bus)?;
    Ok(StepOutcome::one(next, hot.has(meta::RETIRES)))
}

// ---- special-mnemonic handlers (the former `step_special` match arms) ----

fn step_nop<B: Bus + ?Sized>(
    _eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    a.t.dispatch(PortSet::NONE, a.t.barrier, 1, a.batch);
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_lfence<B: Bus + ?Sized>(
    _eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    // "LFENCE does not execute until all prior instructions have completed
    // locally, and no later instruction begins execution until LFENCE
    // completes" (§IV-A1).
    a.t.serialize(0, 0, a.batch);
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_fence<B: Bus + ?Sized>(
    _eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let cost = if a.insts[a.pc].mnemonic == Mnemonic::Mfence {
        33
    } else {
        2
    };
    a.t.serialize(0, cost, a.batch);
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_cpuid<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    // Fully serializing but with variable latency and µop count, both
    // depending on RAX and run-to-run jitter (Paoloni's observation,
    // §IV-A1).
    let rax = a.state.gpr(Gpr::Rax);
    let latency = 95 + (rax & 0xF) * 23 + eng.rng.gen_range(0..=50);
    let n_uops = 20 + (rax & 0x3) * 10;
    for _ in 0..n_uops {
        let ready = a.t.max_complete;
        a.t.dispatch(eng.ports.alu, ready, 1, a.batch);
    }
    let done = a.t.max_complete.max(a.t.alloc_cycle) + latency;
    a.t.set_barrier(done);
    // Leaf outputs (model identification values).
    a.state.set_gpr(Gpr::Rax, 0x0005_06E3);
    a.state.set_gpr(Gpr::Rbx, u64::from_le_bytes(*b"nanoBen\0"));
    a.state.set_gpr(Gpr::Rcx, 0x7FFA_FBBF);
    a.state.set_gpr(Gpr::Rdx, 0xBFEB_FBFF);
    for r in [Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx] {
        a.t.reg[r.number() as usize] = done;
    }
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_rdtsc<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let tsc = a.t.dispatch(eng.ports.int_mul, a.t.barrier, 25, a.batch);
    let done = tsc + 25;
    a.t.complete(done);
    a.state.set_gpr(Gpr::Rax, tsc & 0xFFFF_FFFF);
    a.state.set_gpr(Gpr::Rdx, tsc >> 32);
    a.t.reg[Gpr::Rax.number() as usize] = done;
    a.t.reg[Gpr::Rdx.number() as usize] = done;
    if a.insts[a.pc].mnemonic == Mnemonic::Rdtscp {
        a.state.set_gpr(Gpr::Rcx, 0);
        a.t.reg[Gpr::Rcx.number() as usize] = done;
    }
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_rdpmc<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    if !a.bus.is_kernel() && !a.bus.rdpmc_allowed() {
        return Err(CpuFault::RdpmcNotAllowed);
    }
    let ready = a.t.reg[Gpr::Rcx.number() as usize];
    // ~10 µops; the dependency-carrying one reads the counter.
    for _ in 0..9 {
        a.t.dispatch(eng.ports.alu, ready, 1, a.batch);
    }
    let dispatch = a.t.dispatch(eng.ports.int_mul, ready, 20, a.batch);
    let done = dispatch + 25;
    a.t.complete(done);
    eng.drain_uncore(a.pmu, a.bus);
    // Architectural counter read: pending batched counts must land first.
    a.batch.flush(a.pmu);
    a.pmu.sync_cycles(dispatch);
    let ecx = a.state.gpr(Gpr::Rcx) as u32;
    let value = a.pmu.rdpmc(ecx).ok_or(CpuFault::BadMsr { addr: ecx })?;
    a.state.set_gpr(Gpr::Rax, value & 0xFFFF_FFFF);
    a.state.set_gpr(Gpr::Rdx, value >> 32);
    a.t.reg[Gpr::Rax.number() as usize] = done;
    a.t.reg[Gpr::Rdx.number() as usize] = done;
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_rdmsr<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let ready = a.t.reg[Gpr::Rcx.number() as usize];
    let dispatch = a.t.dispatch(eng.ports.int_mul, ready, 100, a.batch);
    let done = dispatch + 100;
    a.t.complete(done);
    eng.drain_uncore(a.pmu, a.bus);
    a.batch.flush(a.pmu);
    a.pmu.sync_cycles(dispatch);
    let addr = a.state.gpr(Gpr::Rcx) as u32;
    let value = match a.pmu.rdmsr(addr) {
        Some(v) => v,
        None => a.bus.rdmsr(addr)?,
    };
    a.state.set_gpr(Gpr::Rax, value & 0xFFFF_FFFF);
    a.state.set_gpr(Gpr::Rdx, value >> 32);
    a.t.reg[Gpr::Rax.number() as usize] = done;
    a.t.reg[Gpr::Rdx.number() as usize] = done;
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_wrmsr<B: Bus + ?Sized>(
    _eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let ready = a.t.reg[Gpr::Rcx.number() as usize]
        .max(a.t.reg[Gpr::Rax.number() as usize])
        .max(a.t.reg[Gpr::Rdx.number() as usize]);
    // WRMSR is serializing.
    let done = a.t.serialize(ready, 150, a.batch);
    let addr = a.state.gpr(Gpr::Rcx) as u32;
    let value = (a.state.gpr(Gpr::Rdx) << 32) | (a.state.gpr(Gpr::Rax) & 0xFFFF_FFFF);
    // Architectural counter write: pending counts must land before the
    // write replaces the counter value.
    a.batch.flush(a.pmu);
    a.pmu.sync_cycles(done);
    if !a.pmu.wrmsr(addr, value) {
        a.bus.wrmsr(addr, value)?;
    }
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_wbinvd<B: Bus + ?Sized>(
    _eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    a.t.serialize(0, 5000, a.batch);
    a.bus.wbinvd();
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_clflush<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let mem = a.insts[a.pc]
        .dst()
        .and_then(|o| o.as_mem())
        .expect("clflush takes a memory operand");
    // Not `store_uops`: the address µop occupies its port for 6 cycles,
    // and the flush completes 2 cycles after it dispatches.
    let ready = addr_ready(a.t, &mem);
    let dispatch = a.t.dispatch(eng.ports.store_addr, ready, 6, a.batch);
    a.t.dispatch(eng.ports.store_data, ready, 1, a.batch);
    a.t.complete(dispatch + 2);
    let vaddr = exec::mem_vaddr(a.state, &mem);
    a.bus.clflush(vaddr);
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_prefetch<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let mem = a.insts[a.pc]
        .dst()
        .and_then(|o| o.as_mem())
        .expect("prefetch takes a memory operand");
    let ready = addr_ready(a.t, &mem);
    let dispatch = a.t.dispatch(eng.ports.load, ready, 1, a.batch);
    a.t.complete(dispatch + 1);
    let vaddr = exec::mem_vaddr(a.state, &mem);
    a.bus.prefetch(vaddr);
    Ok(StepOutcome::one(Next::Seq, true))
}

/// CLI (`SET` clear) and STI (`SET` set): one ALU µop.
fn step_set_if<B: Bus + ?Sized, const SET: bool>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    a.bus.set_interrupt_flag(SET);
    a.t.dispatch(eng.ports.alu, a.t.barrier, 1, a.batch);
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_serialize<B: Bus + ?Sized>(
    _eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    // HLT / SWAPGS / MOV CR3 / INVLPG: modeled as serializing, fixed-cost
    // kernel operations. (TLBs are not modeled; an INVLPG flush is a
    // timing event only.)
    a.t.serialize(0, 100, a.batch);
    Ok(StepOutcome::one(Next::Seq, true))
}

fn step_rdrand<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let uops = a.body.hot[a.pc].uops.slice(&a.body.uops);
    let done = a.t.compute_uops(uops, a.t.barrier, 1, a.batch);
    let done = done.expect("the plan resolves RDRAND's descriptor µop");
    let value: u64 = eng.rng.gen();
    if let Some(Operand::Gpr(g)) = a.insts[a.pc].dst() {
        a.state.set_gpr_part(*g, value);
        a.t.reg[g.reg.number() as usize] = done;
    }
    a.state.set_flag(Flag::Cf, true);
    Ok(StepOutcome::one(Next::Seq, true))
}

/// The magic markers (§III-I): pause (`ON` clear) or resume counting, at
/// no cost beyond the sync point. The batch lands before the gate moves;
/// counts made while paused are dropped by the closed gate at flush time,
/// exactly as per-µop delivery would have dropped them.
fn step_nb_marker<B: Bus + ?Sized, const ON: bool>(
    _eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    a.batch.flush(a.pmu);
    a.pmu.sync_cycles(a.t.now());
    a.pmu.set_counting(ON);
    Ok(StepOutcome::one(Next::Seq, false))
}

fn step_push<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let inst = &a.insts[a.pc];
    let data_ready = match inst.dst() {
        Some(Operand::Gpr(g)) => a.t.reg[g.reg.number() as usize],
        _ => a.t.barrier,
    };
    let rsp_ready = a.t.reg[Gpr::Rsp.number() as usize];
    let rsp_done = a.t.dispatch(eng.ports.alu, rsp_ready, 1, a.batch) + 1;
    a.t.reg[Gpr::Rsp.number() as usize] = rsp_done;
    eng.store_uops(a.t, rsp_done, data_ready, a.batch);
    a.t.complete(rsp_done);
    let vaddr = a.state.gpr(Gpr::Rsp).wrapping_sub(8);
    // Register and immediate sources never touch the bus, so their pushes
    // fuse timing and data into one store operation (one translation);
    // memory-source pushes keep the generic access + execute path.
    let fused_value = match inst.dst() {
        Some(Operand::Gpr(g)) => Some(a.state.gpr_part(*g)),
        Some(Operand::Imm(v)) => Some(*v as u64),
        _ => None,
    };
    let res = match fused_value {
        Some(value) => a.bus.store_fused(vaddr, 8, value)?,
        None => a.bus.access(vaddr, true)?,
    };
    eng.store_access(&res, a.batch, a.pmu, a.bus);
    let next = if fused_value.is_some() {
        a.state.set_gpr(Gpr::Rsp, vaddr);
        Next::Seq
    } else {
        exec::execute(inst, a.pc, a.state, a.bus)?
    };
    Ok(StepOutcome::one(next, true))
}

fn step_pop<B: Bus + ?Sized>(
    eng: &mut Engine,
    a: &mut StepArgs<'_, B>,
) -> Result<StepOutcome, CpuFault> {
    let inst = &a.insts[a.pc];
    let rsp_ready = a.t.reg[Gpr::Rsp.number() as usize];
    let vaddr = a.state.gpr(Gpr::Rsp);
    // Register destinations fuse the timing walk with the data read (one
    // translation); memory destinations keep the generic path.
    let dst = inst.dst().and_then(|o| o.as_gpr());
    let (load_done, value) = if dst.is_some() {
        eng.timed_load::<B, true>(a.t, vaddr, rsp_ready, false, a.batch, a.pmu, a.bus)?
    } else {
        eng.timed_load::<B, false>(a.t, vaddr, rsp_ready, false, a.batch, a.pmu, a.bus)?
    };
    let rsp_done = a.t.dispatch(eng.ports.alu, rsp_ready, 1, a.batch) + 1;
    a.t.reg[Gpr::Rsp.number() as usize] = rsp_done;
    a.t.complete(load_done);
    let next = match dst {
        Some(g) => {
            a.t.reg[g.reg.number() as usize] = load_done;
            // RSP before the destination, so `pop rsp` keeps the loaded
            // value.
            a.state.set_gpr(Gpr::Rsp, vaddr.wrapping_add(8));
            a.state.set_gpr_part(g, value);
            Next::Seq
        }
        None => exec::execute(inst, a.pc, a.state, a.bus)?,
    };
    Ok(StepOutcome::one(next, true))
}

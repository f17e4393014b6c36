//! The virtual machine: one or more simulated cores plus their shared
//! environment, in kernel or user mode (§III-D of the paper).
//!
//! Core 0 is the *measured* core — [`Machine::run_plan`] and the
//! register/PMU accessors operate on it, so a 1-core machine behaves
//! bit-identically to the historical single-core model. Programs run as
//! plans: [`Machine::decode`] once, then run the plan any number of times.
//! Additional cores ([`Machine::with_cores`]) run *co-runner*
//! programs via [`Machine::run_plan_with_corunners`], contending for the
//! shared L3 through the MESI coherence layer of `nanobench-cache`.

use crate::alloc::{AllocError, KernelAllocator};
use crate::phys::{IntMap, PhysMem, PAGE_SIZE};
use nanobench_cache::hierarchy::{CacheHierarchy, HierarchyConfig, MemAccessResult};
use nanobench_cache::presets::{table1_cpus, CpuSpec};
use nanobench_pmu::Pmu;
use nanobench_uarch::bus::{Bus, CpuFault, InterruptEvent};
use nanobench_uarch::engine::{Engine, RunContext, RunStats};
use nanobench_uarch::plan::DecodedProgram;
use nanobench_uarch::port::MicroArch;
use nanobench_uarch::state::CpuState;
use nanobench_x86::inst::Instruction;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Execution mode of the machine (§III-D: nanoBench has a user-space and a
/// kernel-space version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CPL 0: privileged instructions allowed, interrupts disabled during
    /// measurements, physically-contiguous allocation available.
    Kernel,
    /// CPL 3: privileged instructions fault, timer interrupts and
    /// preemptions perturb measurements, pages map to scattered frames.
    User,
}

/// Mean cycles between user-mode interrupts.
const INTERRUPT_MEAN: u64 = 120_000;

/// Entries in the per-machine direct-mapped micro-TLB (a power of two).
const TLB_ENTRIES: usize = 64;

/// A direct-mapped vaddr-page → frame cache in front of the user-mode
/// page map, so the memory fast path stops hashing on every access. It
/// is a pure memo over `user_map`: entries are filled on lookup and the
/// whole array is flushed whenever the map could change (`alloc_region`
/// in user mode, machine reset) — there is no partial invalidation, so
/// it can never return a stale frame.
#[derive(Debug)]
struct MicroTlb {
    /// Page number per entry; `u64::MAX` (no valid page for 64-bit
    /// vaddrs) marks an empty slot.
    pages: [u64; TLB_ENTRIES],
    frames: [u64; TLB_ENTRIES],
}

impl MicroTlb {
    fn new() -> MicroTlb {
        MicroTlb {
            pages: [u64::MAX; TLB_ENTRIES],
            frames: [0; TLB_ENTRIES],
        }
    }

    fn flush(&mut self) {
        self.pages = [u64::MAX; TLB_ENTRIES];
    }
}

/// The environment shared by all cores: memory, caches, privilege,
/// interrupts. `current_core` routes each access to the right private
/// L1/L2 inside the coherent hierarchy; the scheduler sets it before
/// stepping a core.
#[derive(Debug)]
pub struct Env {
    mode: Mode,
    phys: PhysMem,
    hierarchy: CacheHierarchy,
    alloc: KernelAllocator,
    user_map: IntMap<u64>,
    /// Interrupt-arrival randomness. Kept separate from `alloc_rng` so a
    /// reset can rewind the interrupt stream while page mappings persist.
    rng: SmallRng,
    /// Frame-scattering randomness for user-mode `alloc_region`.
    alloc_rng: SmallRng,
    interrupts_enabled: bool,
    cr4_pce: bool,
    next_interrupt: u64,
    /// The core whose accesses the bus currently serves.
    current_core: usize,
    /// Per-core snapshot of the C-Box lookup counters at that core's last
    /// drain (each core's PMU sees the deltas since *its* last read).
    uncore_seen: Vec<Vec<u64>>,
    /// Per-core snapshot of the lookup total at the last drain; lets the
    /// per-access drain poll return without touching the per-slice counts
    /// when no uncore traffic happened (the common L1-hit case).
    uncore_seen_total: Vec<u64>,
    /// Direct-mapped translation memo for the user-mode page map.
    tlb: MicroTlb,
    /// Address translations performed on behalf of the core (demand
    /// reads/writes/accesses, fused or not — never host-side readback).
    /// Diagnostic only; pinned by the fast-lane invariant tests.
    translations: u64,
    /// Hierarchy walks performed for demand accesses (not prefetches or
    /// interrupt-handler traffic). Diagnostic only.
    walks: u64,
}

impl Env {
    fn translate(&self, vaddr: u64) -> Option<u64> {
        match self.mode {
            Mode::Kernel => Some(vaddr),
            Mode::User => {
                let page = vaddr / PAGE_SIZE;
                let frame = self.user_map.get(&page)?;
                Some(frame * PAGE_SIZE + vaddr % PAGE_SIZE)
            }
        }
    }

    /// [`Env::translate`] through the micro-TLB (fills the entry on a
    /// miss). The core's demand-access paths use this; `&self` readback
    /// helpers keep using the uncached `translate`.
    #[inline]
    fn translate_mut(&mut self, vaddr: u64) -> Option<u64> {
        self.translations += 1;
        match self.mode {
            Mode::Kernel => Some(vaddr),
            Mode::User => {
                let page = vaddr / PAGE_SIZE;
                let idx = (page & (TLB_ENTRIES as u64 - 1)) as usize;
                if self.tlb.pages[idx] == page {
                    return Some(self.tlb.frames[idx] * PAGE_SIZE + vaddr % PAGE_SIZE);
                }
                let frame = *self.user_map.get(&page)?;
                self.tlb.pages[idx] = page;
                self.tlb.frames[idx] = frame;
                Some(frame * PAGE_SIZE + vaddr % PAGE_SIZE)
            }
        }
    }

    #[inline]
    fn translate_or_fault(&mut self, vaddr: u64) -> Result<u64, CpuFault> {
        self.translate_mut(vaddr)
            .ok_or(CpuFault::PageFault { vaddr })
    }

    /// Delivers the interrupt due at `cycle`: the rare half of
    /// [`Bus::poll_interrupt`], kept out of line so that the poll every
    /// instruction pays stays three compares wherever the engine inlines
    /// it.
    #[cold]
    #[inline(never)]
    fn take_interrupt(&mut self, cycle: u64) -> InterruptEvent {
        self.next_interrupt = cycle + INTERRUPT_MEAN / 2 + self.rng.gen_range(0..INTERRUPT_MEAN);
        // The handler touches memory, perturbing the cache state the
        // benchmark's init phase may have established (§I, §IV-A2).
        for _ in 0..16 {
            let addr = (self.rng.gen_range(0u64..1 << 20)) * 64;
            self.hierarchy.access(addr);
        }
        InterruptEvent {
            cycles: 2_000 + self.rng.gen_range(0..4_000),
            instructions: 500 + self.rng.gen_range(0..1_500),
            uops: 700 + self.rng.gen_range(0..2_000),
        }
    }
}

impl Bus for Env {
    #[inline]
    fn read(&mut self, vaddr: u64, len: u8) -> Result<u64, CpuFault> {
        let paddr = self.translate_or_fault(vaddr)?;
        Ok(self.phys.read(paddr, len))
    }

    #[inline]
    fn write(&mut self, vaddr: u64, len: u8, value: u64) -> Result<(), CpuFault> {
        let paddr = self.translate_or_fault(vaddr)?;
        self.phys.write(paddr, len, value);
        Ok(())
    }

    #[inline]
    fn access(&mut self, vaddr: u64, is_write: bool) -> Result<MemAccessResult, CpuFault> {
        let paddr = self.translate_or_fault(vaddr)?;
        self.walks += 1;
        Ok(self
            .hierarchy
            .access_from(self.current_core, paddr, is_write)
            .expect("current_core is bounded by Machine::with_cores"))
    }

    #[inline]
    fn load_fused(
        &mut self,
        vaddr: u64,
        len: u8,
        is_write: bool,
    ) -> Result<(MemAccessResult, u64), CpuFault> {
        // One translation serves both the hierarchy walk and the data
        // read; walk first, exactly like the unfused access-then-read
        // sequence this replaces.
        let paddr = self.translate_or_fault(vaddr)?;
        self.walks += 1;
        let res = self
            .hierarchy
            .access_from(self.current_core, paddr, is_write)
            .expect("current_core is bounded by Machine::with_cores");
        let value = self.phys.read(paddr, len);
        Ok((res, value))
    }

    #[inline]
    fn store_fused(
        &mut self,
        vaddr: u64,
        len: u8,
        value: u64,
    ) -> Result<MemAccessResult, CpuFault> {
        let paddr = self.translate_or_fault(vaddr)?;
        self.walks += 1;
        let res = self
            .hierarchy
            .access_from(self.current_core, paddr, true)
            .expect("current_core is bounded by Machine::with_cores");
        self.phys.write(paddr, len, value);
        Ok(res)
    }

    fn is_kernel(&self) -> bool {
        self.mode == Mode::Kernel
    }

    fn rdpmc_allowed(&self) -> bool {
        self.cr4_pce
    }

    fn rdmsr(&mut self, addr: u32) -> Result<u64, CpuFault> {
        match addr {
            nanobench_pmu::msr::MSR_MISC_FEATURE_CONTROL => Ok(self
                .hierarchy
                .prefetchers_of_mut(self.current_core)
                .disable_bits()),
            _ => Err(CpuFault::BadMsr { addr }),
        }
    }

    fn wrmsr(&mut self, addr: u32, value: u64) -> Result<(), CpuFault> {
        match addr {
            nanobench_pmu::msr::MSR_MISC_FEATURE_CONTROL => {
                self.hierarchy
                    .prefetchers_of_mut(self.current_core)
                    .set_disable_bits(value);
                Ok(())
            }
            _ => Err(CpuFault::BadMsr { addr }),
        }
    }

    fn wbinvd(&mut self) {
        self.hierarchy.wbinvd();
    }

    fn clflush(&mut self, vaddr: u64) {
        if let Some(paddr) = self.translate(vaddr) {
            self.hierarchy.clflush(paddr);
        }
    }

    fn prefetch(&mut self, vaddr: u64) {
        if let Some(paddr) = self.translate(vaddr) {
            self.hierarchy.access(paddr);
        }
    }

    #[inline(always)]
    fn poll_interrupt(&mut self, cycle: u64) -> Option<InterruptEvent> {
        // Only the measured core takes interrupts: delivering the shared
        // random stream to co-runner cores would make the measured core's
        // interrupt arrivals depend on the interleaving. (Co-runner cores
        // are modeled as running with interrupts masked.)
        if self.current_core != 0 || !self.interrupts_enabled || cycle < self.next_interrupt {
            return None;
        }
        Some(self.take_interrupt(cycle))
    }

    fn set_interrupt_flag(&mut self, enabled: bool) {
        self.interrupts_enabled = enabled;
    }

    fn drain_uncore_lookups(&mut self, out: &mut Vec<u64>) {
        let total = self.hierarchy.uncore_total();
        if self.uncore_seen_total[self.current_core] == total {
            return; // nothing new: every delta is zero
        }
        self.uncore_seen_total[self.current_core] = total;
        let current = self.hierarchy.uncore_lookups();
        let seen = &mut self.uncore_seen[self.current_core];
        out.extend(current.iter().zip(seen.iter()).map(|(c, s)| c - s));
        seen.copy_from_slice(current);
    }
}

/// One simulated core: its out-of-order engine, architectural state,
/// per-core PMU, and local cycle clock.
#[derive(Debug)]
struct Core {
    engine: Engine,
    state: CpuState,
    pmu: Pmu,
    cycle: u64,
}

/// Seed salt separating core `i`'s engine random stream from core 0's;
/// core 0's salt is 0, so a 1-core machine replays the historical stream.
fn engine_seed(seed: u64, core: usize) -> u64 {
    seed ^ 0xE ^ ((core as u64) << 32)
}

/// One scan of the co-runner schedule: the runnable core with the
/// smallest `(now, index)` key, and the cycle its turn ends at — the first
/// of its own cycles at which its key is no longer below the runner-up's
/// (the runner-up's clock, plus one if the chosen core has the lower
/// index and so wins a tie).
fn next_turn(ctxs: &[RunContext], runnable: impl Fn(usize) -> bool) -> (usize, u64) {
    let mut best = (u64::MAX, usize::MAX);
    let mut runner_up = (u64::MAX, usize::MAX);
    for (i, ctx) in ctxs.iter().enumerate().filter(|&(i, _)| runnable(i)) {
        let key = (ctx.now(), i);
        if key < best {
            runner_up = best;
            best = key;
        } else if key < runner_up {
            runner_up = key;
        }
    }
    let limit = runner_up.0.saturating_add(u64::from(best.1 < runner_up.1));
    (best.1, limit)
}

/// A complete simulated machine: one or more cores + per-core PMUs +
/// coherent caches + memory + OS-ish environment.
#[derive(Debug)]
pub struct Machine {
    cores: Vec<Core>,
    env: Env,
    uarch: MicroArch,
    cpu: CpuSpec,
    seed: u64,
    user_next_vaddr: u64,
    kernel_next_region: u64,
    /// `(base page, page count)` of every user-mode `alloc_region` call,
    /// in order — replayed by [`Machine::reset_with_seed`] so the frame
    /// scattering matches a fresh machine making the same calls.
    user_region_log: Vec<(u64, u64)>,
    /// `(base, size)` of every `alloc_region` call in either mode — the
    /// virtual ranges the benchmark owns, for tools (e.g. the static
    /// analyzer) that need to know what is mapped.
    region_log: Vec<(u64, u64)>,
}

impl Machine {
    /// Creates a single-core machine for a Table I CPU model.
    pub fn from_cpu(cpu: &CpuSpec, mode: Mode, seed: u64) -> Machine {
        Machine::from_cpu_with_cores(cpu, mode, seed, 1)
    }

    /// Creates a machine for a Table I CPU model with `n_cores` cores.
    pub fn from_cpu_with_cores(cpu: &CpuSpec, mode: Mode, seed: u64, n_cores: usize) -> Machine {
        let uarch = MicroArch::parse(cpu.microarch).unwrap_or(MicroArch::Skylake);
        Machine::build(
            uarch,
            cpu.clone(),
            &cpu.hierarchy_config(),
            mode,
            seed,
            n_cores,
        )
    }

    /// Creates a single-core machine for a microarchitecture, using its
    /// Table I cache preset (or Skylake's geometry if the
    /// microarchitecture has no row).
    pub fn new(uarch: MicroArch, mode: Mode, seed: u64) -> Machine {
        Machine::with_cores(uarch, mode, seed, 1)
    }

    /// Like [`Machine::new`] but with `n_cores` cores sharing the L3.
    /// Core 0 is the measured core; a 1-core machine is bit-identical to
    /// [`Machine::new`].
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or greater than 8.
    pub fn with_cores(uarch: MicroArch, mode: Mode, seed: u64, n_cores: usize) -> Machine {
        let cpu = table1_cpus()
            .into_iter()
            .find(|c| MicroArch::parse(c.microarch) == Some(uarch))
            .unwrap_or_else(|| {
                table1_cpus()
                    .into_iter()
                    .find(|c| c.microarch == "Skylake")
                    .expect("Skylake preset exists")
            });
        let cfg = cpu.hierarchy_config();
        Machine::build(uarch, cpu, &cfg, mode, seed, n_cores)
    }

    fn build(
        uarch: MicroArch,
        cpu: CpuSpec,
        cfg: &HierarchyConfig,
        mode: Mode,
        seed: u64,
        n_cores: usize,
    ) -> Machine {
        let slices = cfg.slice_count();
        Machine {
            cores: (0..n_cores)
                .map(|core| Core {
                    engine: Engine::new(uarch, engine_seed(seed, core)),
                    state: CpuState::new(),
                    pmu: Pmu::new(uarch.n_prog_counters(), slices),
                    cycle: 0,
                })
                .collect(),
            env: Env {
                mode,
                phys: PhysMem::new(),
                hierarchy: CacheHierarchy::new_multi(cfg, seed, n_cores),
                alloc: KernelAllocator::new(seed ^ 0xA),
                user_map: IntMap::default(),
                rng: SmallRng::seed_from_u64(seed ^ 0x1),
                alloc_rng: SmallRng::seed_from_u64(seed ^ 0x3),
                interrupts_enabled: mode == Mode::User,
                cr4_pce: true,
                next_interrupt: INTERRUPT_MEAN,
                current_core: 0,
                uncore_seen: vec![vec![0; slices]; n_cores],
                uncore_seen_total: vec![0; n_cores],
                tlb: MicroTlb::new(),
                translations: 0,
                walks: 0,
            },
            uarch,
            cpu,
            seed,
            user_next_vaddr: 0x7000_0000,
            kernel_next_region: 0x4000_0000,
            user_region_log: Vec::new(),
            region_log: Vec::new(),
        }
    }

    /// Number of simulated cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Restores the deterministic initial state for the seed the machine
    /// was built with, keeping every allocation. See
    /// [`Machine::reset_with_seed`].
    pub fn reset(&mut self) {
        self.reset_with_seed(self.seed);
    }

    /// Restores the machine to the state a fresh `Machine` built with
    /// `seed` would reach after making the same `alloc_region` calls —
    /// without dropping allocations. Registers, PMU counters, caches (tags
    /// *and* replacement state, including probabilistic policies' random
    /// streams), branch predictor, AVX warm-up, prefetchers, interrupt
    /// stream, memory contents, and the cycle counter are all rewound;
    /// region mappings keep their addresses (user-mode frame scattering is
    /// replayed from the new seed so it matches a fresh machine).
    ///
    /// The kernel heap cursor ([`Machine::alloc_contiguous`]) is the one
    /// piece that persists: contiguous allocations stay reserved, though
    /// the allocator's random stream is rewound.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.seed = seed;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.engine.reset_with_seed(engine_seed(seed, i));
            core.state = CpuState::new();
            core.pmu.reset();
            core.cycle = 0;
        }
        let env = &mut self.env;
        env.phys.zero_all();
        env.hierarchy.reset(seed);
        env.alloc.reseed(seed ^ 0xA);
        env.rng = SmallRng::seed_from_u64(seed ^ 0x1);
        env.alloc_rng = SmallRng::seed_from_u64(seed ^ 0x3);
        env.interrupts_enabled = env.mode == Mode::User;
        env.cr4_pce = true;
        env.next_interrupt = INTERRUPT_MEAN;
        env.current_core = 0;
        for seen in &mut env.uncore_seen {
            seen.fill(0);
        }
        env.uncore_seen_total.fill(0);
        for &(base_page, pages) in &self.user_region_log {
            for i in 0..pages {
                let frame = env.alloc_rng.gen_range(0x1000u64..0x80000);
                env.user_map.insert(base_page + i, frame);
            }
        }
        // The replay above re-scatters frames, so every memoized
        // translation is suspect.
        env.tlb.flush();
    }

    /// The seed the machine's random streams are currently derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decodes `program` into a reusable execution plan for this machine's
    /// engines (all cores share one descriptor table and port
    /// configuration, so one plan serves any core).
    pub fn decode(&self, program: &[Instruction]) -> DecodedProgram {
        self.cores[0].engine.decode(program)
    }

    /// Runs a decoded plan to completion on core 0, on the current
    /// architectural state.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuFault`]s — notably privileged instructions in user
    /// mode (§III-D).
    pub fn run_plan(&mut self, plan: &DecodedProgram) -> Result<RunStats, CpuFault> {
        self.env.current_core = 0;
        let core = &mut self.cores[0];
        let stats = core.engine.run_plan(
            plan,
            &mut core.state,
            &mut core.pmu,
            &mut self.env,
            core.cycle,
        )?;
        core.cycle = stats.end_cycle;
        Ok(stats)
    }

    /// Runs `plan` to completion on core 0 while cores 1..N loop the
    /// co-runner plans (core `i` runs `corunners[(i - 1) % len]`,
    /// restarting from the top whenever it completes), contending for the
    /// shared L3 through the coherence layer.
    ///
    /// Every core, core 0 included, starts at the latest clock any core
    /// has reached. Scheduling is deterministic cycle interleaving: the
    /// instructions of all cores run in the order of their
    /// `(local cycle before the instruction, core index)` keys, so results
    /// are bit-identical for a given machine state regardless of host
    /// threading. The scheduler produces that order in turns: the core
    /// with the smallest key keeps running — co-runners in fused
    /// superblocks cut at the turn limit, core 0 one instruction at a time
    /// — until its key reaches the runner-up's.
    ///
    /// With no co-runners (or a 1-core machine) this is exactly
    /// [`Machine::run_plan`]. Empty co-runner programs are skipped.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuFault`] raised by *any* core, in
    /// scheduling order (deterministic). Every core's PMU then holds the
    /// events counted up to the fault; no core's clock advances.
    pub fn run_plan_with_corunners(
        &mut self,
        plan: &DecodedProgram,
        corunners: &[&DecodedProgram],
    ) -> Result<RunStats, CpuFault> {
        let assignments: Vec<Option<&DecodedProgram>> = (1..self.cores.len())
            .map(|i| {
                if corunners.is_empty() {
                    None
                } else {
                    Some(corunners[(i - 1) % corunners.len()])
                        .filter(|p| !p.instructions().is_empty())
                }
            })
            .collect();
        if assignments.iter().all(Option::is_none) {
            return self.run_plan(plan);
        }

        // Parked cores' clocks kept ticking: everyone resumes at the
        // latest clock any core reached.
        let start = self.cores.iter().map(|c| c.cycle).max().expect("core 0");
        let mut ctxs: Vec<RunContext> = self
            .cores
            .iter()
            .map(|c| c.engine.begin_plan(c.cycle.max(start)))
            .collect();
        // Core 0 polls for interrupts before every instruction, so it
        // steps unfused; co-runners never take interrupts and fuse.
        ctxs[0].disable_fusion();

        let result = 'run: loop {
            let (best, limit) = next_turn(&ctxs, |i| i == 0 || assignments[i - 1].is_some());
            let chosen_plan = if best == 0 {
                plan
            } else {
                assignments[best - 1].expect("only runnable cores are picked")
            };
            self.env.current_core = best;
            let core = &mut self.cores[best];
            let ctx = &mut ctxs[best];
            ctx.set_turn_limit(limit);
            loop {
                match core.engine.step_plan(
                    ctx,
                    chosen_plan,
                    &mut core.state,
                    &mut core.pmu,
                    &mut self.env,
                ) {
                    Err(fault) => break 'run Err(fault),
                    Ok(true) => {}
                    Ok(false) if best == 0 => break 'run Ok(()),
                    Ok(false) => ctx.restart(),
                }
                if ctx.now() >= limit {
                    break;
                }
            }
        };
        self.env.current_core = 0;
        if let Err(fault) = result {
            // The faulting core's step already delivered its counts, so
            // abandoning it again delivers nothing.
            for (core, ctx) in self.cores.iter_mut().zip(ctxs.iter_mut()) {
                core.engine.abandon_plan(ctx, &mut core.pmu);
            }
            return Err(fault);
        }

        let mut stats0 = None;
        for (i, (core, ctx)) in self.cores.iter_mut().zip(ctxs.iter_mut()).enumerate() {
            let stats = core.engine.finish_plan(ctx, &mut core.pmu);
            core.cycle = stats.end_cycle;
            if i == 0 {
                stats0 = Some(stats);
            }
        }
        Ok(stats0.expect("core 0 exists"))
    }

    /// Allocates a virtual memory region of `size` bytes and returns its
    /// base address.
    ///
    /// In kernel mode the region is identity-mapped (virtually *and*
    /// physically contiguous). In user mode pages are backed by
    /// pseudo-randomly scattered physical frames — which is why cache
    /// experiments that need control over physical addresses require the
    /// kernel version (§III-G / §IV-D).
    pub fn alloc_region(&mut self, size: u64) -> u64 {
        let pages = size.div_ceil(PAGE_SIZE);
        let base = match self.env.mode {
            Mode::Kernel => {
                let base = self.kernel_next_region;
                self.kernel_next_region += (pages + 16) * PAGE_SIZE;
                base
            }
            Mode::User => {
                let base = self.user_next_vaddr;
                for i in 0..pages {
                    let frame = self.env.alloc_rng.gen_range(0x1000u64..0x80000);
                    self.env.user_map.insert(base / PAGE_SIZE + i, frame);
                }
                // The page map changed; drop every memoized translation.
                self.env.tlb.flush();
                self.user_region_log.push((base / PAGE_SIZE, pages));
                self.user_next_vaddr += (pages + 16) * PAGE_SIZE;
                base
            }
        };
        self.region_log.push((base, pages * PAGE_SIZE));
        base
    }

    /// Kernel-only: allocates a physically-contiguous region via the greedy
    /// algorithm of §IV-D and returns its (identity-mapped) address.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] in user mode (modeled as `TooLarge(0)`),
    /// for oversize single allocations, or when memory is too fragmented
    /// (the "please reboot" case).
    pub fn alloc_contiguous(&mut self, size: u64) -> Result<u64, AllocError> {
        if self.env.mode != Mode::Kernel {
            return Err(AllocError::TooLarge { requested: 0 });
        }
        self.env.alloc.alloc_contiguous(size, 256)
    }

    /// Translates a virtual address (None if unmapped in user mode).
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        self.env.translate(vaddr)
    }

    /// `(translations, hierarchy walks)` performed for the core's demand
    /// accesses so far — the fast-lane invariant is one of each per
    /// memory µop (two translations for a read-modify-write, whose store
    /// side re-translates but never re-walks).
    pub fn mem_path_counters(&self) -> (u64, u64) {
        (self.env.translations, self.env.walks)
    }

    /// The `[start, end)` virtual ranges of every region handed out by
    /// [`Machine::alloc_region`], in allocation order. In user mode these
    /// are exactly the pages that will not fault; in kernel mode the
    /// identity map covers everything, but these are still the only
    /// ranges the benchmark owns.
    pub fn mapped_regions(&self) -> Vec<(u64, u64)> {
        self.region_log.iter().map(|&(b, s)| (b, b + s)).collect()
    }

    /// The execution mode.
    pub fn mode(&self) -> Mode {
        self.env.mode
    }

    /// The microarchitecture.
    pub fn uarch(&self) -> MicroArch {
        self.uarch
    }

    /// The Table I CPU model this machine simulates.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }

    /// Current absolute cycle of core 0 (the measured core).
    pub fn cycle(&self) -> u64 {
        self.cores[0].cycle
    }

    /// Current absolute cycle of `core`.
    pub fn cycle_of(&self, core: usize) -> u64 {
        self.cores[core].cycle
    }

    /// Core 0's architectural register state.
    pub fn state(&self) -> &CpuState {
        &self.cores[0].state
    }

    /// Core 0's mutable architectural register state.
    pub fn state_mut(&mut self) -> &mut CpuState {
        &mut self.cores[0].state
    }

    /// Architectural register state of `core`.
    pub fn state_of(&self, core: usize) -> &CpuState {
        &self.cores[core].state
    }

    /// Core 0's PMU.
    pub fn pmu(&self) -> &Pmu {
        &self.cores[0].pmu
    }

    /// Core 0's mutable PMU (for configuring counters).
    pub fn pmu_mut(&mut self) -> &mut Pmu {
        &mut self.cores[0].pmu
    }

    /// The PMU of `core` (co-runner cores count their own events).
    pub fn pmu_of(&self, core: usize) -> &Pmu {
        &self.cores[core].pmu
    }

    /// The cache hierarchy (for experiment instrumentation).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.env.hierarchy
    }

    /// Mutable cache hierarchy.
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.env.hierarchy
    }

    /// Core 0's engine (branch predictor state, descriptor table).
    pub fn engine(&self) -> &Engine {
        &self.cores[0].engine
    }

    /// Core 0's mutable engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.cores[0].engine
    }

    /// Reads memory through the current mapping without touching cache or
    /// timing state (host-side readback of result areas).
    pub fn read_mem(&mut self, vaddr: u64, len: u8) -> Option<u64> {
        let paddr = self.env.translate(vaddr)?;
        Some(self.env.phys.read(paddr, len))
    }

    /// Writes memory through the current mapping without touching cache or
    /// timing state (host-side setup of data areas).
    pub fn write_mem(&mut self, vaddr: u64, len: u8, value: u64) -> Option<()> {
        let paddr = self.env.translate(vaddr)?;
        self.env.phys.write(paddr, len, value);
        Some(())
    }

    /// Whether `RDPMC` is enabled for user space (`CR4.PCE`).
    pub fn set_cr4_pce(&mut self, enabled: bool) {
        self.env.cr4_pce = enabled;
    }

    /// Simulates heap fragmentation from long uptime (for §IV-D).
    pub fn fragment_memory(&mut self) {
        self.env.alloc.fragment();
    }

    /// Simulates a reboot: resets the kernel heap (§IV-D).
    pub fn reboot(&mut self) {
        self.env.alloc.reboot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_uarch::plan::DecodedProgram;
    use nanobench_x86::asm::parse_asm;
    use nanobench_x86::reg::Gpr;

    /// Decodes `asm` and runs it on core 0.
    fn run(m: &mut Machine, asm: &str) -> Result<RunStats, CpuFault> {
        let plan = m.decode(&parse_asm(asm).unwrap());
        m.run_plan(&plan)
    }

    #[test]
    fn kernel_machine_runs_privileged_code() {
        let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
        let stats = run(&mut m, "wbinvd; mov rax, 5; add rax, 3").unwrap();
        assert_eq!(m.state().gpr(Gpr::Rax), 8);
        assert_eq!(stats.instructions, 3);
        assert!(stats.cycles >= 5000, "wbinvd costs thousands of cycles");
    }

    #[test]
    fn user_machine_faults_on_privileged_code() {
        let mut m = Machine::new(MicroArch::Skylake, Mode::User, 7);
        assert!(matches!(
            run(&mut m, "wbinvd"),
            Err(CpuFault::PrivilegedInstruction(_))
        ));
    }

    #[test]
    fn user_pages_fault_when_unmapped() {
        let mut m = Machine::new(MicroArch::Skylake, Mode::User, 7);
        assert!(matches!(
            run(&mut m, "mov rax, [0x1234000]"),
            Err(CpuFault::PageFault { .. })
        ));
        // After mapping, the same access works.
        let base = m.alloc_region(4096);
        run(&mut m, &format!("mov rax, [{base:#x}]")).unwrap();
    }

    /// What the PMU holds after a user-mode page fault, per memory path.
    /// A load's bus access comes before its µop dispatch, so a faulting
    /// load leaves no µop behind; a store's address and data µops dispatch
    /// before its bus access, so a faulting store leaves both. Each
    /// program first retires `mov rsp` and an `add`, whose instructions
    /// and µops the PMU must also hold.
    #[test]
    fn handler_timing_after_page_faults() {
        use nanobench_pmu::event::events;
        const HOLE: u64 = 0x1234000;
        let passes = [
            [
                events::UOPS_ISSUED_ANY,
                events::uops_dispatched_port(4),
                events::uops_dispatched_port(7),
                events::uops_dispatched_port(0),
            ],
            [
                events::uops_dispatched_port(2),
                events::uops_dispatched_port(3),
                events::MEM_LOAD_L1_HIT,
                events::MEM_LOAD_L3_MISS,
            ],
        ];
        let read = |body: &str| -> String {
            let mut seen = Vec::new();
            for pass in &passes {
                let mut m = Machine::new(MicroArch::Skylake, Mode::User, 7);
                for (i, code) in pass.iter().enumerate() {
                    m.pmu_mut().configure(i, Some(*code));
                }
                let asm = format!("mov rsp, {:#x}; add rax, 1; {body}", HOLE + 8);
                let fault = run(&mut m, &asm).unwrap_err();
                assert_eq!(fault, CpuFault::PageFault { vaddr: HOLE }, "{body}");
                if seen.is_empty() {
                    seen.push(m.pmu().rdpmc(1 << 30).unwrap());
                }
                seen.extend((0..4).map(|c| m.pmu().rdpmc(c).unwrap()));
            }
            format!("{seen:?}")
        };
        // [instructions, uops issued, p4, p7, p0, p2, p3, L1 hits, L3 misses]
        for (body, expected) in [
            // Stores: the address and data µops are counted.
            ("mov [0x1234000], rax", "[2, 4, 1, 1, 1, 0, 0, 0, 0]"),
            (
                "mov dword ptr [0x1234000], eax",
                "[2, 4, 1, 1, 1, 0, 0, 0, 0]",
            ),
            ("movaps [0x1234000], xmm0", "[2, 4, 1, 1, 1, 0, 0, 0, 0]"),
            ("push rax", "[2, 5, 1, 0, 1, 1, 0, 0, 0]"),
            // Loads: nothing past the ALU µops before them.
            ("mov rax, [0x1234000]", "[2, 2, 0, 0, 1, 0, 0, 0, 0]"),
            ("add rax, [0x1234000]", "[2, 2, 0, 0, 1, 0, 0, 0, 0]"),
            (
                "movzx eax, byte ptr [0x1234000]",
                "[2, 2, 0, 0, 1, 0, 0, 0, 0]",
            ),
            ("add [0x1234000], rax", "[2, 2, 0, 0, 1, 0, 0, 0, 0]"),
            ("addps xmm0, [0x1234000]", "[2, 2, 0, 0, 1, 0, 0, 0, 0]"),
            ("mov rsp, 0x1234000; pop rax", "[3, 3, 0, 0, 1, 0, 0, 0, 0]"),
        ] {
            assert_eq!(read(body), expected, "{body}");
        }
    }

    #[test]
    fn kernel_regions_are_physically_contiguous_user_not() {
        let mut k = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
        let base = k.alloc_region(64 * 1024);
        let p0 = k.translate(base).unwrap();
        let p1 = k.translate(base + 8 * PAGE_SIZE).unwrap();
        assert_eq!(p1 - p0, 8 * PAGE_SIZE);

        let mut u = Machine::new(MicroArch::Skylake, Mode::User, 7);
        let base = u.alloc_region(64 * 1024);
        let contiguous = (0..15u64).all(|i| {
            let a = u.translate(base + i * PAGE_SIZE).unwrap();
            let b = u.translate(base + (i + 1) * PAGE_SIZE).unwrap();
            b == a + PAGE_SIZE
        });
        assert!(!contiguous, "user frames should be scattered");
    }

    #[test]
    fn pointer_chase_measures_l1_latency() {
        // The §III-A example end to end on the raw machine: a chain of
        // dependent L1 loads costs 4 cycles each.
        let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
        let base = m.alloc_region(1 << 20);
        m.state_mut().set_gpr(Gpr::R14, base);
        run(&mut m, "mov [R14], R14").unwrap();
        // Warm the cache once.
        run(&mut m, "mov R14, [R14]").unwrap();
        let chain = "mov R14, [R14]; ".repeat(100);
        let before = m.cycle();
        run(&mut m, &chain).unwrap();
        let cycles = m.cycle() - before;
        let per_load = cycles as f64 / 100.0;
        assert!(
            (3.9..4.3).contains(&per_load),
            "L1 latency should be ~4 cycles per load, got {per_load}"
        );
    }

    #[test]
    fn contiguous_alloc_only_in_kernel() {
        let mut u = Machine::new(MicroArch::Skylake, Mode::User, 7);
        assert!(u.alloc_contiguous(8 * 1024 * 1024).is_err());
        let mut k = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
        let addr = k.alloc_contiguous(8 * 1024 * 1024).unwrap();
        assert_eq!(k.translate(addr), Some(addr));
    }

    #[test]
    fn false_sharing_corunner_slows_the_measured_core() {
        // Measured core: dependent loads of one line. Co-runner: stores to
        // the same line from another core — every store invalidates core
        // 0's copy, so its loads keep snoop-missing and re-fetching.
        let run = |n_cores: usize, with_corunner: bool| {
            let mut m = Machine::with_cores(MicroArch::Skylake, Mode::Kernel, 7, n_cores);
            let base = m.alloc_region(4096);
            m.state_mut().set_gpr(Gpr::R14, base);
            run(&mut m, "mov [R14], R14").unwrap();
            let chase = m.decode(&parse_asm(&"mov R14, [R14]; ".repeat(100)).unwrap());
            // The co-runner stores to a *different word of the same line*,
            // so it invalidates core 0's copy without clobbering the
            // chase pointer at [base].
            let store =
                m.decode(&parse_asm(&format!("mov [{:#x}], rax; ", base + 8).repeat(8)).unwrap());
            let corunners: Vec<&nanobench_uarch::plan::DecodedProgram> =
                if with_corunner { vec![&store] } else { vec![] };
            let stats = m.run_plan_with_corunners(&chase, &corunners).unwrap();
            let inval = m.hierarchy().invalidations();
            (stats, inval)
        };
        let (solo, solo_inval) = run(2, false);
        assert_eq!(solo_inval, 0);
        let (contended, inval) = run(2, true);
        assert!(inval > 0, "false sharing must invalidate remote copies");
        assert!(
            contended.cycles > solo.cycles * 2,
            "false sharing must slow the measured core substantially \
             (solo {} vs contended {})",
            solo.cycles,
            contended.cycles
        );
        // Deterministic: an identical fresh machine replays bit-identically.
        let (again, inval_again) = run(2, true);
        assert_eq!(again, contended);
        assert_eq!(inval_again, inval);
    }

    #[test]
    fn rmw_corunner_participates_in_coherence() {
        // A read-modify-write co-runner (`add [line], rbx`) never issues
        // a separate store bus access — its covering load must run the
        // write side of the protocol, or RMW false sharing would be
        // silently absent while `mov`-store co-runners model it.
        let mut m = Machine::with_cores(MicroArch::Skylake, Mode::Kernel, 7, 2);
        let base = m.alloc_region(4096);
        m.state_mut().set_gpr(Gpr::R14, base);
        run(&mut m, "mov [R14], R14").unwrap();
        let chase = m.decode(&parse_asm(&"mov R14, [R14]; ".repeat(100)).unwrap());
        let rmw = m.decode(&parse_asm(&format!("add [{:#x}], rbx; ", base + 8).repeat(4)).unwrap());
        let stats = m.run_plan_with_corunners(&chase, &[&rmw]).unwrap();
        assert!(
            m.hierarchy().invalidations() > 0,
            "RMW stores must invalidate the measured core's copies"
        );
        assert!(
            stats.cycles > 100 * 8,
            "RMW false sharing must slow the chase (got {} cycles)",
            stats.cycles
        );
    }

    #[test]
    fn single_core_machine_ignores_corunner_api() {
        let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
        let plan = m.decode(&parse_asm("add rax, rax; add rax, rax").unwrap());
        let a = m.run_plan_with_corunners(&plan, &[]).unwrap();
        let mut m2 = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
        let b = m2.run_plan(&plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn msr_0x1a4_controls_prefetchers() {
        let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
        run(
            &mut m,
            "mov rcx, 0x1A4; mov rax, 0xF; mov rdx, 0; wrmsr; rdmsr",
        )
        .unwrap();
        assert_eq!(m.state().gpr(Gpr::Rax), 0xF);
        assert_eq!(m.hierarchy().prefetchers().disable_bits(), 0xF);
    }

    /// The memory fast lane's core invariant: a fused load or store costs
    /// exactly one address translation and one hierarchy walk; a
    /// read-modify-write re-translates for its store side but never walks
    /// the hierarchy twice (the covering load ran write coherence).
    #[test]
    fn fast_lane_one_translation_one_walk_per_memory_uop() {
        for mode in [Mode::Kernel, Mode::User] {
            let mut m = Machine::new(MicroArch::Skylake, mode, 7);
            let base = m.alloc_region(4096);
            m.state_mut().set_gpr(Gpr::R14, base);
            m.write_mem(base, 8, base).unwrap();

            let (t0, w0) = m.mem_path_counters();
            run(&mut m, &"mov R14, [R14]; ".repeat(10)).unwrap();
            let (t1, w1) = m.mem_path_counters();
            assert_eq!(
                (t1 - t0, w1 - w0),
                (10, 10),
                "{mode:?}: a fused load is one translation + one walk"
            );

            run(&mut m, &"mov [R14+64], rax; ".repeat(10)).unwrap();
            let (t2, w2) = m.mem_path_counters();
            assert_eq!(
                (t2 - t1, w2 - w1),
                (10, 10),
                "{mode:?}: a fused store is one translation + one walk"
            );

            run(&mut m, &"add [R14+128], rax; ".repeat(10)).unwrap();
            let (t3, w3) = m.mem_path_counters();
            assert_eq!(
                (t3 - t2, w3 - w2),
                (20, 10),
                "{mode:?}: RMW re-translates for the store, walks once"
            );
        }
    }

    /// The reference co-runner scheduler: before every instruction, scan
    /// every core and step the runnable one with the smallest
    /// `(now, index)` key, one unfused `step_plan` per pick. This is the
    /// order `run_plan_with_corunners` must reproduce in turns.
    fn run_one_at_a_time(
        m: &mut Machine,
        plan: &DecodedProgram,
        corunners: &[&DecodedProgram],
    ) -> Result<RunStats, CpuFault> {
        let assignments: Vec<Option<&DecodedProgram>> = (1..m.cores.len())
            .map(|i| {
                let p = corunners.get((i - 1) % corunners.len().max(1))?;
                Some(*p).filter(|p| !p.instructions().is_empty())
            })
            .collect();
        if assignments.iter().all(Option::is_none) {
            return m.run_plan(plan);
        }
        let start = m.cores.iter().map(|c| c.cycle).max().unwrap();
        let mut ctxs: Vec<RunContext> = m
            .cores
            .iter()
            .map(|c| {
                let mut ctx = c.engine.begin_plan(c.cycle.max(start));
                ctx.disable_fusion();
                ctx
            })
            .collect();
        let result = loop {
            let mut best = 0;
            for i in 1..ctxs.len() {
                if assignments[i - 1].is_some() && ctxs[i].now() < ctxs[best].now() {
                    best = i;
                }
            }
            let chosen = if best == 0 {
                plan
            } else {
                assignments[best - 1].unwrap()
            };
            m.env.current_core = best;
            let core = &mut m.cores[best];
            match core.engine.step_plan(
                &mut ctxs[best],
                chosen,
                &mut core.state,
                &mut core.pmu,
                &mut m.env,
            ) {
                Err(fault) => break Err(fault),
                Ok(true) => {}
                Ok(false) if best == 0 => break Ok(()),
                Ok(false) => ctxs[best].restart(),
            }
        };
        m.env.current_core = 0;
        let mut stats0 = None;
        for (core, ctx) in m.cores.iter_mut().zip(ctxs.iter_mut()) {
            if result.is_err() {
                core.engine.abandon_plan(ctx, &mut core.pmu);
            } else {
                let stats = core.engine.finish_plan(ctx, &mut core.pmu);
                core.cycle = stats.end_cycle;
                stats0.get_or_insert(stats);
            }
        }
        result.map(|()| stats0.unwrap())
    }

    /// Everything a schedule can change: every core's registers, clock and
    /// PMU readings (fixed, programmed, APERF/MPERF and the C-Box
    /// counters), the hierarchy's coherence counters and the memory-path
    /// counters.
    fn observe(m: &Machine) -> Vec<String> {
        use nanobench_pmu::msr;
        let mut seen: Vec<String> = (0..m.core_count())
            .map(|i| {
                let pmu = m.pmu_of(i);
                let fixed = (0..3).map(|c| pmu.rdpmc((1 << 30) | c));
                let prog = (0..pmu.n_programmable() as u32).map(|c| pmu.rdpmc(c));
                let msrs = [msr::IA32_APERF, msr::IA32_MPERF]
                    .into_iter()
                    .chain((0..8).map(|s| msr::MSR_UNC_CBO_PERFCTR0 + s))
                    .map(|a| pmu.rdmsr(a));
                let pmu: Vec<Option<u64>> = fixed.chain(prog).chain(msrs).collect();
                format!(
                    "core {i}: cycle {} pmu {pmu:?} state {:?}",
                    m.cycle_of(i),
                    m.state_of(i)
                )
            })
            .collect();
        let h = m.hierarchy();
        seen.push(format!(
            "invalidations {} snoop hits {:?} mem path {:?}",
            h.invalidations(),
            h.snoop_hits(),
            m.mem_path_counters()
        ));
        seen
    }

    fn assert_same(a: &Machine, b: &Machine, at: &str) {
        for (x, y) in observe(a).iter().zip(observe(b)) {
            assert_eq!(x, &y, "{at}");
        }
    }

    /// The events every core counts in the schedule differential.
    const SCHEDULE_EVENTS: [nanobench_pmu::EventCode; 4] = [
        nanobench_pmu::event::events::UOPS_ISSUED_ANY,
        nanobench_pmu::event::events::MEM_LOAD_XSNP_HITM,
        nanobench_pmu::event::events::MEM_LOAD_L1_HIT,
        nanobench_pmu::event::events::OFFCORE_DEMAND_RFO,
    ];

    /// A co-runner schedule under test: core count, measured program and
    /// co-runner programs, given the chase chain's base address and a
    /// second region for streaming.
    struct Shape {
        name: &'static str,
        cores: usize,
        measured: fn(u64) -> String,
        corunners: fn(u64, u64) -> Vec<String>,
    }

    /// Core 0's chase: `loads` dependent loads along the chain from its
    /// head, so every run after the first revisits cached lines.
    fn chase(base: u64, loads: usize) -> String {
        format!(
            "mov r14, {base:#x}; mov r15, {}; l: {}dec r15; jnz l",
            loads / 8,
            "mov r14, [r14]; ".repeat(8)
        )
    }

    /// e10's throttled streamer over `span` bytes at `buf`, one line in four.
    fn streamer(buf: u64, span: u64) -> String {
        format!(
            "mov rbx, {buf:#x}; mov rcx, {}; l: mov rax, [rbx]; add rbx, 256; {}dec rcx; jnz l",
            span / 256,
            "imul rdx, rdx; ".repeat(8)
        )
    }

    /// Stores to a second word of every 16th line of the chase (false
    /// sharing with core 0's loads), one `op` per line for `lines` lines.
    fn false_sharing(base: u64, op: &str, lines: u64) -> String {
        (0..lines)
            .map(|j| format!("{op} [{:#x}], rbx; ", base + j * 16 * CHAIN_STEP + 8))
            .collect()
    }

    /// Core 0's first interrupt in user mode, early enough to land inside
    /// the first run.
    const FIRST_INTERRUPT: u64 = 10_000;

    /// Chain stride: 65 lines, coprime with the 1 MB chain's 16,384 lines.
    const CHAIN_STEP: u64 = 65 * 64;

    /// One of a pair of twin machines for `shape`: the same seed, chain,
    /// programs and events on every core each time it is called.
    fn twin(shape: &Shape, mode: Mode) -> (Machine, DecodedProgram, Vec<DecodedProgram>) {
        let mut m = Machine::with_cores(MicroArch::Skylake, mode, 11, shape.cores);
        let base = m.alloc_region(1 << 20);
        let stream = m.alloc_region(2 << 20);
        let mut addr = 0;
        loop {
            let next = (addr + CHAIN_STEP) % (1 << 20);
            m.write_mem(base + addr, 8, base + next).unwrap();
            if next == 0 {
                break;
            }
            addr = next;
        }
        // Bring core 0's first interrupt into the first run.
        m.env.next_interrupt = FIRST_INTERRUPT;
        for core in &mut m.cores {
            for (i, ev) in SCHEDULE_EVENTS.into_iter().enumerate() {
                core.pmu.configure(i, Some(ev));
            }
        }
        let plan = m.decode(&parse_asm(&(shape.measured)(base)).unwrap());
        let corunners = (shape.corunners)(base, stream)
            .iter()
            .map(|asm| m.decode(&parse_asm(asm).unwrap()))
            .collect();
        (m, plan, corunners)
    }

    /// Runs each shape three times in a row on twin machines, one under
    /// the turn scheduler and one under the reference, and requires every
    /// run to complete with the same `RunStats` and the same observations.
    /// Returns how many shapes saw core 0 take an interrupt.
    fn schedule_differential(shapes: &[Shape], mode: Mode) -> u64 {
        let mut interrupts = 0;
        for shape in shapes {
            let (mut turns, plan, corunners) = twin(shape, mode);
            let (mut reference, ..) = twin(shape, mode);
            let corunners: Vec<&DecodedProgram> = corunners.iter().collect();
            for run in 0..3 {
                let got = turns.run_plan_with_corunners(&plan, &corunners);
                let want = run_one_at_a_time(&mut reference, &plan, &corunners);
                let at = format!("{} ({mode:?}, run {run})", shape.name);
                assert!(got.is_ok(), "{at}: {got:?}");
                assert_eq!(got, want, "{at}: RunStats");
                assert_same(&turns, &reference, &at);
            }
            if turns.env.next_interrupt != FIRST_INTERRUPT {
                interrupts += 1;
            }
        }
        interrupts
    }

    fn schedule_shapes() -> Vec<Shape> {
        vec![
            Shape {
                name: "interference",
                cores: 4,
                measured: |base| chase(base, 128),
                corunners: |base, stream| {
                    vec![
                        streamer(stream, 1 << 20),
                        streamer(stream + (1 << 20) + 64, 1 << 20),
                        false_sharing(base, "mov", 8),
                    ]
                },
            },
            Shape {
                name: "rmw co-runner",
                cores: 2,
                measured: |base| chase(base, 128),
                corunners: |base, _| vec![false_sharing(base, "add", 4)],
            },
            Shape {
                name: "alu loop co-runner",
                cores: 2,
                measured: |base| chase(base, 128),
                corunners: |_, _| vec!["mov rcx, 1000; l: dec rcx; jnz l".into()],
            },
            Shape {
                name: "empty co-runner beside a real one",
                cores: 3,
                measured: |base| chase(base, 128),
                corunners: |base, _| vec![String::new(), false_sharing(base, "mov", 4)],
            },
            Shape {
                name: "more co-runners than spare cores",
                cores: 2,
                measured: |base| chase(base, 128),
                corunners: |base, stream| {
                    vec![
                        streamer(stream, 1 << 20),
                        false_sharing(base, "mov", 8),
                        false_sharing(base, "add", 8),
                    ]
                },
            },
        ]
    }

    /// The turn scheduler — co-runners in fused superblocks cut at the
    /// runner-up's key, no PMU flush between steps — equals
    /// one-instruction-at-a-time scheduling bit for bit.
    #[test]
    fn turn_schedule_equals_one_instruction_at_a_time_kernel() {
        schedule_differential(&schedule_shapes(), Mode::Kernel);
    }

    /// The same in user mode, where core 0 takes interrupts mid-run.
    #[test]
    fn turn_schedule_equals_one_instruction_at_a_time_user() {
        let taken = schedule_differential(&schedule_shapes(), Mode::User);
        assert!(taken > 0, "core 0 must take interrupts in user mode");
    }

    /// Faults end a multi-core run the same way under both schedulers:
    /// core 0 dividing by zero mid-run, and a user-mode co-runner reaching
    /// a privileged instruction. The error and every core's PMU match.
    #[test]
    fn turn_schedule_faults_equal_one_instruction_at_a_time() {
        let div = Shape {
            name: "core 0 divides by zero",
            cores: 4,
            measured: |base| format!("{}; xor rcx, rcx; div rcx; mov r14, [r14]", chase(base, 64)),
            corunners: |base, stream| {
                vec![
                    streamer(stream, 1 << 20),
                    "mov rcx, 1000; l: add rax, rcx; dec rcx; jnz l".into(),
                    false_sharing(base, "mov", 8),
                ]
            },
        };
        let privileged = Shape {
            name: "co-runner runs wbinvd",
            cores: 3,
            measured: |base| chase(base, 128),
            corunners: |base, _| {
                vec![
                    false_sharing(base, "mov", 4),
                    "mov rcx, 300; l: add rax, rcx; dec rcx; jnz l; wbinvd".into(),
                ]
            },
        };
        for (shape, mode, fault) in [
            (&div, Mode::Kernel, CpuFault::DivideError),
            (&div, Mode::User, CpuFault::DivideError),
            (
                &privileged,
                Mode::User,
                CpuFault::PrivilegedInstruction(nanobench_x86::inst::Mnemonic::Wbinvd),
            ),
        ] {
            let (mut turns, plan, corunners) = twin(shape, mode);
            let (mut reference, ..) = twin(shape, mode);
            let corunners: Vec<&DecodedProgram> = corunners.iter().collect();
            for run in 0..3 {
                let got = turns.run_plan_with_corunners(&plan, &corunners);
                let want = run_one_at_a_time(&mut reference, &plan, &corunners);
                let at = format!("{} ({mode:?}, run {run})", shape.name);
                assert_eq!(got, Err(fault.clone()), "{at}");
                assert_eq!(want, Err(fault.clone()), "{at}");
                assert_same(&turns, &reference, &at);
            }
        }
    }

    /// Two pages whose page numbers collide in the direct-mapped micro-TLB
    /// (64 entries apart) keep translating correctly while evicting each
    /// other's memoized entry.
    #[test]
    fn micro_tlb_collisions_still_translate_correctly() {
        let mut u = Machine::new(MicroArch::Skylake, Mode::User, 7);
        let base = u.alloc_region(65 * PAGE_SIZE);
        let far = base + 64 * PAGE_SIZE;
        u.write_mem(base, 8, 0x1111).unwrap();
        u.write_mem(far, 8, 0x2222).unwrap();
        run(
            &mut u,
            &format!("mov rax, [{base:#x}]; mov rbx, [{far:#x}]; mov rcx, [{base:#x}]"),
        )
        .unwrap();
        assert_eq!(u.state().gpr(Gpr::Rax), 0x1111);
        assert_eq!(u.state().gpr(Gpr::Rbx), 0x2222);
        assert_eq!(u.state().gpr(Gpr::Rcx), 0x1111);
    }
}

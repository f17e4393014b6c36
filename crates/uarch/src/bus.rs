//! The bus trait connecting the core to its environment (memory, caches,
//! MSRs, interrupts) and the CPU fault model.
//!
//! The environment is implemented by `nanobench-machine`, which provides
//! the user-space and kernel-space variants (§III-D of the paper): address
//! translation, privilege checks, interrupt injection and MSR dispatch all
//! live behind this trait. [`TestBus`] is a small deterministic stand-in
//! for engine tests.

use nanobench_cache::cache::CacheConfig;
use nanobench_cache::hierarchy::{
    CacheHierarchy, HierarchyConfig, L3Config, L3PolicyConfig, Latencies, MemAccessResult,
};
use nanobench_cache::policy::PolicyKind;
use nanobench_x86::inst::Mnemonic;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A fault raised by the simulated CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuFault {
    /// A privileged instruction was executed outside kernel mode (#GP).
    PrivilegedInstruction(Mnemonic),
    /// `RDPMC` executed in user mode with `CR4.PCE` clear (#GP).
    RdpmcNotAllowed,
    /// Access to an unmapped virtual address (#PF).
    PageFault {
        /// The faulting virtual address.
        vaddr: u64,
    },
    /// `RDMSR`/`WRMSR` on an unknown MSR (#GP).
    BadMsr {
        /// The MSR address in `ECX`.
        addr: u32,
    },
    /// Integer division by zero (#DE).
    DivideError,
    /// The instruction-count safety limit was exceeded (runaway loop).
    RunawayExecution,
}

impl fmt::Display for CpuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuFault::PrivilegedInstruction(m) => {
                write!(f, "privileged instruction `{m}` in user mode (#GP)")
            }
            CpuFault::RdpmcNotAllowed => {
                write!(f, "rdpmc in user mode without CR4.PCE (#GP)")
            }
            CpuFault::PageFault { vaddr } => write!(f, "page fault at {vaddr:#x}"),
            CpuFault::BadMsr { addr } => write!(f, "access to unknown MSR {addr:#x} (#GP)"),
            CpuFault::DivideError => write!(f, "divide error (#DE)"),
            CpuFault::RunawayExecution => write!(f, "instruction limit exceeded"),
        }
    }
}

impl Error for CpuFault {}

/// An asynchronous interruption of the benchmark (timer interrupt or
/// preemption), possible only in user mode (§IV-A2: the kernel version
/// disables interrupts and preemptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptEvent {
    /// Cycles consumed by the handler.
    pub cycles: u64,
    /// Instructions retired by the handler (perturbs the counters).
    pub instructions: u64,
    /// µops issued by the handler.
    pub uops: u64,
}

/// The environment of the simulated core.
pub trait Bus {
    /// Semantically reads `len` bytes (1/2/4/8) at a virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault::PageFault`] for unmapped addresses.
    fn read(&mut self, vaddr: u64, len: u8) -> Result<u64, CpuFault>;

    /// Semantically writes `len` bytes at a virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault::PageFault`] for unmapped addresses.
    fn write(&mut self, vaddr: u64, len: u8, value: u64) -> Result<(), CpuFault>;

    /// Performs the *timing* access for a load or store: walks the cache
    /// hierarchy, updates replacement state, and reports where the data
    /// was found.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault::PageFault`] for unmapped addresses.
    fn access(&mut self, vaddr: u64, is_write: bool) -> Result<MemAccessResult, CpuFault>;

    /// Fused timing + data load: one hierarchy walk plus the semantic
    /// read of the same address, in that order. The default composes
    /// [`Bus::access`] and [`Bus::read`]; environments that translate
    /// addresses override it to translate once per memory µop.
    /// `is_write` marks the covering load of a read-modify-write, which
    /// runs the write side of the coherence protocol.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault::PageFault`] for unmapped addresses.
    fn load_fused(
        &mut self,
        vaddr: u64,
        len: u8,
        is_write: bool,
    ) -> Result<(MemAccessResult, u64), CpuFault> {
        let res = self.access(vaddr, is_write)?;
        let value = self.read(vaddr, len)?;
        Ok((res, value))
    }

    /// Fused timing + data store: one hierarchy walk (as a write) plus
    /// the semantic write of the same address, in that order. The default
    /// composes [`Bus::access`] and [`Bus::write`]; environments that
    /// translate addresses override it to translate once per memory µop.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault::PageFault`] for unmapped addresses.
    fn store_fused(
        &mut self,
        vaddr: u64,
        len: u8,
        value: u64,
    ) -> Result<MemAccessResult, CpuFault> {
        let res = self.access(vaddr, true)?;
        self.write(vaddr, len, value)?;
        Ok(res)
    }

    /// Whether the core runs at CPL 0 (the kernel-space version, §III-D).
    fn is_kernel(&self) -> bool;

    /// Whether `RDPMC` is allowed from user space (`CR4.PCE`, §II).
    fn rdpmc_allowed(&self) -> bool;

    /// `RDMSR` dispatch (PMU MSRs, prefetch control, ...).
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault::BadMsr`] for unknown MSRs.
    fn rdmsr(&mut self, addr: u32) -> Result<u64, CpuFault>;

    /// `WRMSR` dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`CpuFault::BadMsr`] for unknown MSRs.
    fn wrmsr(&mut self, addr: u32, value: u64) -> Result<(), CpuFault>;

    /// Flushes all caches (`WBINVD`).
    fn wbinvd(&mut self);

    /// Invalidates one cache line (`CLFLUSH`).
    fn clflush(&mut self, vaddr: u64);

    /// Prefetches a line into the hierarchy (PREFETCHhx instructions).
    fn prefetch(&mut self, vaddr: u64);

    /// Polls for an asynchronous interrupt at the given absolute cycle.
    /// Returns `None` when interrupts are disabled (kernel mode with IF=0)
    /// or no interrupt is due.
    fn poll_interrupt(&mut self, cycle: u64) -> Option<InterruptEvent>;

    /// Sets the interrupt flag (`CLI`/`STI`).
    fn set_interrupt_flag(&mut self, enabled: bool);

    /// Appends the per-slice C-Box lookup deltas since the last call to
    /// `out` (drained into the PMU's uncore counters by the engine). The
    /// caller clears and reuses `out`, so the engine's hot loop performs
    /// no allocation; implementations push one delta per slice.
    fn drain_uncore_lookups(&mut self, out: &mut Vec<u64>);
}

/// A deterministic environment for engine tests: flat byte-addressed
/// memory with no page faults, a small real cache hierarchy (every level,
/// two L3 slices), no MSRs beyond the PMU's, and — in user mode — a fixed
/// interrupt schedule.
///
/// Two buses fed the same call sequence evolve identically, so differential
/// tests give each side its own bus and compare what the sides observe.
/// Unwritten bytes read as a fixed hash of their address, so loads return
/// varied data without any set-up.
#[derive(Debug)]
pub struct TestBus {
    /// Every byte written so far, by virtual address.
    pub mem: HashMap<u64, u8>,
    /// Interrupts delivered so far; each one is [`TestBus::INTERRUPT`].
    pub interrupts_taken: u64,
    hierarchy: CacheHierarchy,
    kernel: bool,
    interrupts_enabled: bool,
    next_interrupt: u64,
    uncore_seen: Vec<u64>,
}

impl TestBus {
    /// The interrupt delivered in user mode.
    pub const INTERRUPT: InterruptEvent = InterruptEvent {
        cycles: 400,
        instructions: 30,
        uops: 45,
    };
    /// Cycle the first user-mode interrupt is due at.
    const FIRST_INTERRUPT: u64 = 200;
    /// Cycles from one interrupt to the next: well past the handler's own
    /// 400, so the program makes progress between interrupts.
    const INTERRUPT_PERIOD: u64 = 1_000;

    /// A bus at CPL 0 (`kernel`, interrupts masked) or CPL 3 (interrupts
    /// on; mask them with [`Bus::set_interrupt_flag`]).
    pub fn new(kernel: bool) -> TestBus {
        let config = HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 4 * 1024,
                assoc: 8,
                policy: PolicyKind::Plru,
            },
            l2: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                policy: PolicyKind::Plru,
            },
            l3: L3Config {
                size_bytes: 256 * 1024,
                assoc: 16,
                slices: 2,
                policy: L3PolicyConfig::Uniform(PolicyKind::Lru),
            },
            latencies: Latencies::default(),
            inclusive_l3: true,
        };
        TestBus {
            mem: HashMap::new(),
            interrupts_taken: 0,
            uncore_seen: vec![0; config.slice_count()],
            hierarchy: CacheHierarchy::new(&config, 11),
            kernel,
            interrupts_enabled: !kernel,
            next_interrupt: TestBus::FIRST_INTERRUPT,
        }
    }

    /// Number of L3 slices (the PMU's uncore counter count).
    pub fn slice_count(&self) -> usize {
        self.uncore_seen.len()
    }
}

impl Bus for TestBus {
    fn read(&mut self, vaddr: u64, len: u8) -> Result<u64, CpuFault> {
        let mut v = 0u64;
        for i in (0..u64::from(len)).rev() {
            let addr = vaddr.wrapping_add(i);
            let byte = match self.mem.get(&addr) {
                Some(b) => *b,
                None => (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8,
            };
            v = (v << 8) | u64::from(byte);
        }
        Ok(v)
    }

    fn write(&mut self, vaddr: u64, len: u8, value: u64) -> Result<(), CpuFault> {
        for i in 0..u64::from(len) {
            self.mem
                .insert(vaddr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
        Ok(())
    }

    fn access(&mut self, vaddr: u64, _is_write: bool) -> Result<MemAccessResult, CpuFault> {
        Ok(self.hierarchy.access(vaddr))
    }

    fn is_kernel(&self) -> bool {
        self.kernel
    }

    fn rdpmc_allowed(&self) -> bool {
        true
    }

    fn rdmsr(&mut self, addr: u32) -> Result<u64, CpuFault> {
        Err(CpuFault::BadMsr { addr })
    }

    fn wrmsr(&mut self, addr: u32, _value: u64) -> Result<(), CpuFault> {
        Err(CpuFault::BadMsr { addr })
    }

    fn wbinvd(&mut self) {
        self.hierarchy.wbinvd();
    }

    fn clflush(&mut self, vaddr: u64) {
        self.hierarchy.clflush(vaddr);
    }

    fn prefetch(&mut self, vaddr: u64) {
        self.hierarchy.access(vaddr);
    }

    fn poll_interrupt(&mut self, cycle: u64) -> Option<InterruptEvent> {
        if !self.interrupts_enabled || cycle < self.next_interrupt {
            return None;
        }
        self.next_interrupt = cycle + TestBus::INTERRUPT_PERIOD;
        self.interrupts_taken += 1;
        Some(TestBus::INTERRUPT)
    }

    fn set_interrupt_flag(&mut self, enabled: bool) {
        self.interrupts_enabled = enabled;
    }

    fn drain_uncore_lookups(&mut self, out: &mut Vec<u64>) {
        let current = self.hierarchy.uncore_lookups();
        out.extend(
            current
                .iter()
                .zip(self.uncore_seen.iter())
                .map(|(c, s)| c - s),
        );
        self.uncore_seen.copy_from_slice(current);
    }
}

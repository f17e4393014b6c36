//! The simulated machine for the nanoBench reproduction: a core
//! (`nanobench-uarch`) wired to physical memory, a cache hierarchy, a PMU,
//! and an OS-like environment with kernel/user modes (§III-D of the
//! paper), kmalloc plus the greedy physically-contiguous allocator
//! (§IV-D), user-mode interrupt injection (§IV-A2) and MSR dispatch.
//!
//! # Examples
//!
//! ```
//! use nanobench_machine::{Machine, Mode};
//! use nanobench_uarch::port::MicroArch;
//! use nanobench_x86::asm::parse_asm;
//! use nanobench_x86::reg::Gpr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 42);
//! let plan = m.decode(&parse_asm("mov rax, 6; add rax, 7")?);
//! m.run_plan(&plan)?;
//! assert_eq!(m.state().gpr(Gpr::Rax), 13);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod machine;
pub mod phys;

pub use alloc::{AllocError, KernelAllocator, KMALLOC_MAX};
pub use machine::{Env, Machine, Mode};
pub use phys::{PhysMem, PAGE_SIZE};

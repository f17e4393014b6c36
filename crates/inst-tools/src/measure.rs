//! Measurement of latency, throughput and port usage for one instruction
//! variant (§V).
//!
//! * **Latency**: a chain of copies of the instruction with a dependency
//!   between output and input operands, unrolled `unrollCount` times; the
//!   per-repetition core-cycle count is the latency. Implicit dependencies
//!   (flags, RAX/RDX for divisions) are respected by choosing chain forms
//!   whose destination feeds the next copy.
//! * **Throughput**: several *independent* copies using disjoint registers,
//!   unrolled; cycles per instruction is the reciprocal throughput. Only
//!   unrolling is used (no loop), since "for a benchmark that measures the
//!   port usage of an instruction, using only unrolling is better" (§III-F).
//! * **Port usage**: the `UOPS_DISPATCHED_PORT.PORT_x` counters from the
//!   throughput run, normalized per instruction.

use nanobench_core::{Aggregate, BenchSpec, NbError, Session};
use nanobench_uarch::port::MicroArch;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::encode::encode_program;

/// Counter configuration with the port-pressure and µop events.
const PORTS_CONFIG: &str = "\
0E.01 UOPS_ISSUED.ANY
A1.01 UOPS_DISPATCHED_PORT.PORT_0
A1.02 UOPS_DISPATCHED_PORT.PORT_1
A1.04 UOPS_DISPATCHED_PORT.PORT_2
A1.08 UOPS_DISPATCHED_PORT.PORT_3
A1.10 UOPS_DISPATCHED_PORT.PORT_4
A1.20 UOPS_DISPATCHED_PORT.PORT_5
A1.40 UOPS_DISPATCHED_PORT.PORT_6
A1.80 UOPS_DISPATCHED_PORT.PORT_7
";

/// A benchmark specification for one instruction variant.
#[derive(Debug, Clone)]
pub struct InstSpec {
    /// Display name, e.g. `"ADD (r64, r64)"`.
    pub name: String,
    /// Self-dependent chain form, e.g. `"add rax, rax"`; `None` when the
    /// instruction has no register dependency to chain (e.g. NOP).
    pub latency_asm: Option<String>,
    /// Initialization for the chain (registers, valid memory).
    pub latency_init: String,
    /// Independent copies on disjoint registers, `;`-separated.
    pub throughput_asm: String,
    /// Initialization for the throughput run.
    pub throughput_init: String,
    /// Number of instructions per `throughput_asm` statement list.
    pub throughput_copies: usize,
}

impl InstSpec {
    /// A simple spec where chain and throughput forms share an empty init.
    pub fn new(
        name: impl Into<String>,
        latency_asm: Option<&str>,
        throughput_asm: &str,
        copies: usize,
    ) -> InstSpec {
        InstSpec {
            name: name.into(),
            latency_asm: latency_asm.map(str::to_string),
            latency_init: String::new(),
            throughput_asm: throughput_asm.to_string(),
            throughput_init: String::new(),
            throughput_copies: copies,
        }
    }

    /// Adds initialization code to both runs.
    pub fn with_init(mut self, init: &str) -> InstSpec {
        self.latency_init = init.to_string();
        self.throughput_init = init.to_string();
        self
    }
}

/// The measured characteristics of one instruction variant.
#[derive(Debug, Clone, PartialEq)]
pub struct InstMeasurement {
    /// Variant name.
    pub name: String,
    /// Chain latency in cycles (`None` if the variant has no chain form).
    pub latency: Option<f64>,
    /// Reciprocal throughput in cycles per instruction.
    pub throughput: f64,
    /// µops issued per instruction.
    pub uops: f64,
    /// Per-port pressure, `ports[i]` = µops on port *i* per instruction.
    pub ports: Vec<f64>,
}

impl InstMeasurement {
    /// uops.info-style port string, e.g. `"1*p23"` for a load that uses
    /// ports 2 and 3 interchangeably. Groups of ports with (nearly) equal
    /// pressure come in descending order of pressure, and each group lists
    /// its ports in ascending order (`p015`, as uops.info writes it).
    pub fn port_usage_string(&self) -> String {
        let mut groups: Vec<(String, f64)> = Vec::new();
        let mut used: Vec<(u8, f64)> = self
            .ports
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.05)
            .map(|(p, v)| (p as u8, *v))
            .collect();
        used.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("port pressure is finite"));
        while let Some(&(_, v0)) = used.first() {
            let (mut same, rest): (Vec<_>, Vec<_>) =
                used.iter().partition(|(_, v)| (v - v0).abs() < 0.1);
            // The total sums in pressure order; only the names go by port.
            let total: f64 = same.iter().map(|(_, v)| v).sum();
            same.sort_by_key(|&(p, _)| p);
            let names: String = same.iter().map(|(p, _)| p.to_string()).collect();
            groups.push((format!("p{names}"), total));
            used = rest;
        }
        if groups.is_empty() {
            return "-".to_string();
        }
        groups
            .iter()
            .map(|(g, total)| format!("{:.2}*{}", total, g))
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// Measures one instruction variant on the given microarchitecture,
/// building (and discarding) a fresh kernel session.
///
/// Campaigns over many variants should build one [`Session`] per worker
/// and call [`measure_instruction_on`] instead — the machine construction
/// dominates a single measurement's cost.
///
/// # Errors
///
/// Propagates assembly and CPU faults (e.g. privileged variants must run
/// on the kernel version, which this uses).
pub fn measure_instruction(uarch: MicroArch, spec: &InstSpec) -> Result<InstMeasurement, NbError> {
    let mut session = Session::kernel(uarch);
    measure_instruction_on(&mut session, spec)
}

/// Measures one instruction variant on a reusable session. The session is
/// reset (to its current seed) before the latency run and again before the
/// throughput run, so results are identical to measuring on fresh
/// machines — the pre-session behaviour — while skipping the rebuilds.
///
/// # Errors
///
/// Propagates assembly and CPU faults.
pub fn measure_instruction_on(
    session: &mut Session,
    spec: &InstSpec,
) -> Result<InstMeasurement, NbError> {
    measure_with(session, spec, false)
}

/// Like [`measure_instruction_on`], but routes the benchmark through the
/// §III-E binary code-input path: the assembly is assembled, *encoded to
/// machine-code bytes*, and handed to the session as raw bytes
/// ([`BenchSpec::code_bytes`]). Since decode(encode(code)) reproduces the
/// instruction list exactly, the results are bit-identical to the asm path —
/// the e5 experiment pins this for every vector variant of the suite.
///
/// # Errors
///
/// Propagates assembly, encoding and CPU faults.
pub fn measure_instruction_via_bytes_on(
    session: &mut Session,
    spec: &InstSpec,
) -> Result<InstMeasurement, NbError> {
    measure_with(session, spec, true)
}

/// Sets a benchmark's main and init parts either as assembly or through the
/// encode-to-bytes-and-decode path.
fn set_code(bench: &mut BenchSpec, code: &str, init: &str, via_bytes: bool) -> Result<(), NbError> {
    if via_bytes {
        let (code_bytes, _) = encode_program(&parse_asm(code)?)?;
        let (init_bytes, _) = encode_program(&parse_asm(init)?)?;
        bench.code_bytes(&code_bytes)?.init_bytes(&init_bytes)?;
    } else {
        bench.asm(code)?.asm_init(init)?;
    }
    Ok(())
}

fn measure_with(
    session: &mut Session,
    spec: &InstSpec,
    via_bytes: bool,
) -> Result<InstMeasurement, NbError> {
    // Latency: dependency chain.
    let latency = match &spec.latency_asm {
        Some(chain) => {
            session.reset();
            let mut bench = BenchSpec::new();
            set_code(&mut bench, chain, &spec.latency_init, via_bytes)?;
            bench
                .config_str("0E.01 UOPS_ISSUED.ANY")?
                .unroll_count(100)
                .warm_up_count(2)
                .n_measurements(5)
                .aggregate(Aggregate::Median);
            session.run(&bench)?.core_cycles()
        }
        None => None,
    };

    // Throughput and port usage: independent copies, unrolled only.
    session.reset();
    let mut bench = BenchSpec::new();
    set_code(
        &mut bench,
        &spec.throughput_asm,
        &spec.throughput_init,
        via_bytes,
    )?;
    bench
        .config_str(PORTS_CONFIG)?
        .unroll_count(50)
        .warm_up_count(2)
        .n_measurements(5)
        .aggregate(Aggregate::Median);
    let result = session.run(&bench)?;
    let copies = spec.throughput_copies as f64;
    let throughput = result.core_cycles().unwrap_or(0.0) / copies;
    let uops = result.get("UOPS_ISSUED.ANY").unwrap_or(0.0) / copies;
    let ports: Vec<f64> = (0..8)
        .map(|p| {
            result
                .get(&format!("UOPS_DISPATCHED_PORT.PORT_{p}"))
                .unwrap_or(0.0)
                / copies
        })
        .collect();

    Ok(InstMeasurement {
        name: spec.name.clone(),
        latency: latency.map(|l| l.max(0.0)),
        throughput: throughput.max(0.0),
        uops: uops.max(0.0),
        ports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_groups_list_their_ports_in_ascending_order() {
        // Skylake's MOV load, MOV store and PADDD pressures, near-equal
        // within a group and given out of port order within it.
        let label = |ports: [f64; 8]| {
            InstMeasurement {
                name: String::new(),
                latency: None,
                throughput: 0.0,
                uops: 0.0,
                ports: ports.to_vec(),
            }
            .port_usage_string()
        };
        assert_eq!(
            label([0.0, 0.0, 0.47, 0.50, 0.0, 0.0, 0.0, 0.0]),
            "0.97*p23"
        );
        assert_eq!(
            label([0.0, 0.0, 0.31, 0.35, 1.0, 0.0, 0.0, 0.33]),
            "1.00*p4 + 0.99*p237"
        );
        assert_eq!(
            label([0.32, 0.33, 0.0, 0.0, 0.0, 0.35, 0.0, 0.0]),
            "1.00*p015"
        );
        assert_eq!(label([0.0; 8]), "-");
    }

    #[test]
    fn add_r64_characteristics() {
        let spec = InstSpec::new(
            "ADD (r64, r64)",
            Some("add rax, rax"),
            "add rax, rax; add rbx, rbx; add rcx, rcx; add rdx, rdx",
            4,
        );
        let m = measure_instruction(MicroArch::Skylake, &spec).unwrap();
        assert_eq!(m.latency, Some(1.0));
        assert!(
            (0.2..0.3).contains(&m.throughput),
            "ADD throughput 0.25 on 4 ALU ports, got {}",
            m.throughput
        );
        assert!((m.uops - 1.0).abs() < 0.05, "1 µop, got {}", m.uops);
        // Pressure spread over the four ALU ports p0156.
        for p in [0usize, 1, 5, 6] {
            assert!(m.ports[p] > 0.15, "port {p}: {:?}", m.ports);
        }
        assert!(m.ports[2] < 0.05);
    }

    #[test]
    fn imul_uses_port1_with_latency_3() {
        let spec = InstSpec::new(
            "IMUL (r64, r64)",
            Some("imul rax, rax"),
            "imul rax, rax; imul rbx, rbx; imul rcx, rcx; imul rdx, rdx",
            4,
        );
        let m = measure_instruction(MicroArch::Skylake, &spec).unwrap();
        assert_eq!(m.latency, Some(3.0));
        assert!(
            (m.throughput - 1.0).abs() < 0.1,
            "p1-bound: {}",
            m.throughput
        );
        assert!(m.ports[1] > 0.9, "{:?}", m.ports);
        assert_eq!(m.port_usage_string(), "1.00*p1");

        // `imul r, r/m, imm` writes its destination from the source alone:
        // one port-1 µop of latency 3, so independent copies run one per
        // cycle and a chain through RAX takes three cycles per link.
        let run = |asm: &str| {
            let mut bench = BenchSpec::new();
            bench
                .asm(asm)
                .unwrap()
                .config_str(PORTS_CONFIG)
                .unwrap()
                .unroll_count(100);
            let out = Session::kernel(MicroArch::Skylake).run(&bench).unwrap();
            let port1 = out.get("UOPS_DISPATCHED_PORT.PORT_1").unwrap();
            (out.core_cycles().unwrap(), port1)
        };
        // (core cycles, port-1 µops) per run of the body.
        assert_eq!(run("imul rax, rsi, 3"), (1.0, 1.0));
        assert_eq!(
            run("imul rax, rsi, 3; imul rbx, rsi, 3; imul rcx, rsi, 3; imul rdx, rsi, 3"),
            (4.0, 4.0)
        );
        assert_eq!(run("imul rax, rax, 3"), (3.0, 1.0));
    }

    #[test]
    fn load_latency_4_ports_23() {
        let spec = InstSpec::new(
            "MOV (r64, m64)",
            Some("mov r14, [r14]"),
            "mov rax, [r14]; mov rbx, [r14+8]; mov rcx, [r14+16]; mov rdx, [r14+24]",
            4,
        )
        .with_init("mov [r14], r14");
        let m = measure_instruction(MicroArch::Skylake, &spec).unwrap();
        assert_eq!(m.latency, Some(4.0), "L1 load-to-use latency");
        assert!(
            (m.throughput - 0.5).abs() < 0.1,
            "two load ports: {}",
            m.throughput
        );
        assert!((m.ports[2] - 0.5).abs() < 0.1, "{:?}", m.ports);
        assert!((m.ports[3] - 0.5).abs() < 0.1, "{:?}", m.ports);
    }

    #[test]
    fn session_reuse_matches_fresh_machines() {
        // One session measuring three variants back to back must give the
        // same numbers as three throwaway sessions (the pre-session path).
        let specs = [
            InstSpec::new(
                "ADD (r64, r64)",
                Some("add rax, rax"),
                "add rax, rax; add rbx, rbx; add rcx, rcx; add rdx, rdx",
                4,
            ),
            InstSpec::new(
                "IMUL (r64, r64)",
                Some("imul rax, rax"),
                "imul rax, rax; imul rbx, rbx; imul rcx, rcx; imul rdx, rdx",
                4,
            ),
            InstSpec::new("NOP", None, "nop; nop; nop; nop", 4),
        ];
        let mut session = Session::kernel(MicroArch::Skylake);
        for spec in &specs {
            let reused = measure_instruction_on(&mut session, spec).unwrap();
            let fresh = measure_instruction(MicroArch::Skylake, spec).unwrap();
            assert_eq!(reused, fresh, "{}", spec.name);
        }
    }

    #[test]
    fn byte_path_matches_asm_path_for_vector_variants() {
        // §III-E: a benchmark supplied as machine-code bytes must measure
        // exactly like the same benchmark supplied as assembly — including
        // SSE and VEX-coded forms.
        let specs = [
            InstSpec::new(
                "MULPS (xmm, xmm)",
                Some("mulps xmm0, xmm0"),
                "mulps xmm0, xmm1; mulps xmm2, xmm3; mulps xmm4, xmm5; mulps xmm6, xmm7",
                4,
            ),
            InstSpec::new(
                "VFMADD231PS (ymm)",
                Some("vfmadd231ps ymm0, ymm0, ymm1"),
                "vfmadd231ps ymm0, ymm1, ymm2; vfmadd231ps ymm3, ymm4, ymm5",
                2,
            ),
        ];
        let mut session = Session::kernel(MicroArch::Skylake);
        for spec in &specs {
            let asm = measure_instruction_on(&mut session, spec).unwrap();
            let bytes = measure_instruction_via_bytes_on(&mut session, spec).unwrap();
            assert_eq!(asm, bytes, "{}", spec.name);
        }
    }

    #[test]
    fn privileged_instruction_measurable_in_kernel_mode() {
        // §V: "Of particular use is nanoBench's ability to benchmark
        // privileged instructions."
        let spec =
            InstSpec::new("RDMSR (APERF)", None, "rdmsr", 1).with_init("mov rcx, 0xE8; mov rdx, 0");
        let m = measure_instruction(MicroArch::Skylake, &spec).unwrap();
        assert!(m.throughput > 50.0, "RDMSR is slow: {}", m.throughput);
    }
}

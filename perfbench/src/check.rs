//! Output checking and scoring, run after the timed region.
//!
//! Every output is run against its source on the reference interpreter
//! (`bpf_interp`, not the JIT the search used) over seeded inputs whose
//! packet lengths cycle through short, header-sized and long packets, and
//! must be accepted by the kernel-checker model. Scores follow the paper:
//! instruction reduction against the best baseline (Table 1) and program
//! cycles per packet on the DUT model (Table 3).

use bpf_interp::InputGenerator;
use bpf_isa::Program;
use bpf_safety::{LinuxVerifier, LinuxVerifierConfig};
use k2_api::OptimizeResponse;
use k2_netsim::{DutConfig, DutModel};

/// Inputs each output is run on.
const CHECK_INPUTS: usize = 48;

/// Packet lengths the check inputs cycle through.
const PACKET_LENS: [usize; 12] = [14, 1, 34, 42, 54, 60, 64, 90, 128, 256, 512, 1500];

/// How one output scored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Instructions of the output.
    pub insns: usize,
    /// Instruction reduction against the source, percent.
    pub compression_pct: f64,
    /// Program cycles per packet of the output over those of the source.
    pub latency_ratio: f64,
}

/// Program cycles per packet on the DUT model (driver overhead excluded).
pub fn program_cycles(prog: &Program) -> f64 {
    let config = DutConfig::default();
    DutModel::measure(prog, config).cycles_per_packet - config.driver_overhead_cycles
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(text.get(i..i + 2)?, 16).ok())
        .collect()
}

/// The output program of a response, with the source's maps.
pub fn output_program(src: &Program, response: &OptimizeResponse) -> Result<Program, String> {
    if !response.ok {
        return Err(format!(
            "error response: {}",
            response.error.as_deref().unwrap_or("(no message)")
        ));
    }
    let bytes = hex_decode(&response.insns_hex).ok_or("insns_hex is not hex")?;
    let insns = bpf_isa::wire::decode_bytes(&bytes).map_err(|e| format!("insns_hex: {e}"))?;
    let out = src.with_insns(insns);
    if out.real_len() as u64 != response.insns_after {
        return Err(format!(
            "insns_after says {} but the program has {}",
            response.insns_after,
            out.real_len()
        ));
    }
    Ok(out)
}

/// Check one response against its source and score it. `src_cycles` is
/// [`program_cycles`] of `src`.
pub fn check(
    src: &Program,
    src_cycles: f64,
    response: &OptimizeResponse,
    seed: u64,
) -> Result<Score, String> {
    let out = output_program(src, response)?;
    let (verdict, _) = LinuxVerifier::new(LinuxVerifierConfig::default()).load(&out);
    if !verdict.is_accept() {
        return Err(format!("kernel checker rejects the output: {verdict:?}"));
    }
    let mut generator = InputGenerator::new(seed);
    let mut compared = 0;
    for i in 0..CHECK_INPUTS {
        generator.packet_len = PACKET_LENS[i % PACKET_LENS.len()];
        let input = generator.generate(src);
        // Inputs the source traps on are outside its defined behaviour.
        let Ok(expected) = bpf_interp::run(src, &input) else {
            continue;
        };
        match bpf_interp::run(&out, &input) {
            Ok(actual) if actual.output == expected.output => compared += 1,
            Ok(_) => return Err(format!("output differs on input {i}")),
            Err(trap) => return Err(format!("output traps on input {i}: {trap}")),
        }
    }
    if compared == 0 {
        return Err("the source traps on every check input".into());
    }
    let src_len = src.real_len() as f64;
    Ok(Score {
        insns: out.real_len(),
        compression_pct: (src_len - out.real_len() as f64) / src_len * 100.0,
        latency_ratio: program_cycles(&out) / src_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    fn response_for(src: &Program, out: &Program) -> OptimizeResponse {
        let result = k2_api::K2Result {
            best: out.clone(),
            best_cost: out.real_len() as f64,
            top: vec![],
            chains: vec![],
            improved: true,
            rejected_by_kernel_checker: 0,
            report: Default::default(),
        };
        OptimizeResponse::from_result(None, src, &result)
    }

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    #[test]
    fn equivalent_output_passes_and_scores() {
        let src = xdp("mov64 r0, 1\nadd64 r0, 1\nexit");
        let out = xdp("mov64 r0, 2\nexit");
        let score = check(&src, program_cycles(&src), &response_for(&src, &out), 1).unwrap();
        assert_eq!(score.insns, 2);
        assert!((score.compression_pct - 100.0 / 3.0).abs() < 1e-9);
        assert!(score.latency_ratio < 1.0);
    }

    #[test]
    fn wrong_output_is_caught() {
        let src = xdp("ldxw r0, [r1+0]\nexit");
        let out = xdp("mov64 r0, 2\nexit");
        let err = check(&src, program_cycles(&src), &response_for(&src, &out), 1).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }

    #[test]
    fn unsafe_output_is_rejected() {
        let src = xdp("mov64 r0, 2\nexit");
        let out = xdp("ldxdw r0, [r10+8]\nexit");
        let err = check(&src, program_cycles(&src), &response_for(&src, &out), 1).unwrap_err();
        assert!(err.contains("kernel checker"), "{err}");
    }

    #[test]
    fn error_responses_fail() {
        let src = xdp("mov64 r0, 2\nexit");
        let response = OptimizeResponse::from_error(None, "boom");
        assert!(check(&src, 1.0, &response, 1).unwrap_err().contains("boom"));
    }
}

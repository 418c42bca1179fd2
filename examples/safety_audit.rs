//! Audit programs with K2's safety checker and the Linux kernel-checker
//! model: see exactly which §6 property each unsafe program violates.
//!
//! ```text
//! cargo run --release --example safety_audit
//! ```

use bpf_isa::{asm, MapDef, Program, ProgramType};
use bpf_safety::{LinuxVerifier, SafetyChecker};

fn main() {
    let cases: Vec<(&str, Program)> = vec![
        (
            "packet read with a bounds check (safe)",
            xdp(
                "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r4, r2\nadd64 r4, 14\nmov64 r0, 1\njgt r4, r3, +1\nldxb r0, [r2+13]\nexit",
                vec![],
            ),
        ),
        (
            "packet read without a bounds check (unsafe)",
            xdp("ldxdw r2, [r1+0]\nldxb r0, [r2+13]\nexit", vec![]),
        ),
        (
            "map lookup with a null check (safe)",
            xdp(
                "mov64 r1, 0\nstxw [r10-4], r1\nld_map_fd r1, 0\nmov64 r2, r10\nadd64 r2, -4\ncall map_lookup_elem\njeq r0, 0, +1\nldxdw r0, [r0+0]\nmov64 r0, 2\nexit",
                vec![MapDef::array(0, 8, 4)],
            ),
        ),
        (
            "map lookup without a null check (unsafe)",
            xdp(
                "mov64 r1, 0\nstxw [r10-4], r1\nld_map_fd r1, 0\nmov64 r2, r10\nadd64 r2, -4\ncall map_lookup_elem\nldxdw r0, [r0+0]\nexit",
                vec![MapDef::array(0, 8, 4)],
            ),
        ),
        (
            "stack read before write (unsafe)",
            xdp("ldxdw r0, [r10-8]\nexit", vec![]),
        ),
        (
            "misaligned stack store (unsafe)",
            xdp("stdw [r10-12], 1\nmov64 r0, 0\nexit", vec![]),
        ),
        (
            "loop via a backward jump (unsafe)",
            Program::new(
                ProgramType::Xdp,
                vec![
                    bpf_isa::Insn::mov64_imm(bpf_isa::Reg::R0, 0),
                    bpf_isa::Insn::Ja { off: -2 },
                    bpf_isa::Insn::Exit,
                ],
            ),
        ),
    ];

    let mut k2_checker = SafetyChecker::default();
    let kernel = LinuxVerifier::default();
    for (label, prog) in &cases {
        let k2_verdict = k2_checker.check(prog);
        let (kernel_verdict, stats) = kernel.load(prog);
        println!("{label}:");
        match k2_verdict {
            Ok(_) => println!("  K2 safety checker: safe"),
            Err(e) => println!("  K2 safety checker: UNSAFE — {e}"),
        }
        println!(
            "  kernel checker model: {} ({} instructions examined, {} paths)",
            if kernel_verdict.is_accept() {
                "accepted"
            } else {
                "rejected"
            },
            stats.insns_examined,
            stats.paths
        );
    }
    println!(
        "\nchecked {} programs: {} safe, {} unsafe",
        k2_checker.stats.checked, k2_checker.stats.safe, k2_checker.stats.unsafe_found
    );
}

fn xdp(text: &str, maps: Vec<MapDef>) -> Program {
    Program::with_maps(ProgramType::Xdp, asm::assemble(text).unwrap(), maps)
}

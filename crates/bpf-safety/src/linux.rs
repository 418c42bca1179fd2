//! A model of the Linux in-kernel BPF checker, used for K2's post-processing
//! pass: every program K2 wants to emit is "loaded" into this verifier and
//! dropped if rejected (paper §6, Table 5).

use bpf_analysis::{analyze, AbsintConfig, AbsintStats, Verdict};
use bpf_isa::Program;

/// Configuration mirroring the kernel limits the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinuxVerifierConfig {
    /// Instruction limit for unprivileged program types (4096) — privileged
    /// programs on modern kernels only face the complexity limit.
    pub max_insns: usize,
    /// The 1-million-instruction complexity limit of kernels ≥ 5.2.
    pub complexity_limit: usize,
}

impl Default for LinuxVerifierConfig {
    fn default() -> Self {
        LinuxVerifierConfig {
            max_insns: 4096,
            complexity_limit: 1_000_000,
        }
    }
}

/// The kernel-checker model.
#[derive(Debug, Clone, Default)]
pub struct LinuxVerifier {
    /// Configuration in effect.
    pub config: LinuxVerifierConfig,
}

impl LinuxVerifier {
    /// Create a verifier with the given configuration.
    pub fn new(config: LinuxVerifierConfig) -> LinuxVerifier {
        LinuxVerifier { config }
    }

    /// Attempt to "load" a program: returns the verdict and the verifier
    /// statistics (instructions examined, paths explored).
    pub fn load(&self, prog: &Program) -> (Verdict, AbsintStats) {
        let result = analyze(
            prog,
            &AbsintConfig {
                max_insns: self.config.max_insns,
                complexity_limit: self.config.complexity_limit,
                ..AbsintConfig::default()
            },
        );
        (result.verdict, result.stats)
    }

    /// Whether the kernel checker would accept the program.
    pub fn accepts(&self, prog: &Program) -> bool {
        self.load(prog).0.is_accept()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_analysis::VerifierError;
    use bpf_isa::{asm, Insn, MapDef, ProgramType, Reg};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn xdp_maps(text: &str, maps: Vec<MapDef>) -> Program {
        Program::with_maps(ProgramType::Xdp, asm::assemble(text).unwrap(), maps)
    }

    fn accept(prog: &Program) -> bool {
        LinuxVerifier::default().accepts(prog)
    }

    fn reject_with(prog: &Program) -> VerifierError {
        match LinuxVerifier::default().load(prog).0 {
            Verdict::Accept => panic!("expected rejection"),
            Verdict::Reject(e) => e,
        }
    }

    #[test]
    fn accepts_well_formed_xdp_program() {
        let prog = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +2
            mov64 r1, 1
            xadddw [r0+0], r1
            mov64 r0, 2
            exit
        ",
            vec![MapDef::array(0, 8, 4)],
        );
        assert!(accept(&prog));
    }

    #[test]
    fn rejects_unsafe_program() {
        assert!(!accept(&xdp("ldxdw r2, [r1+0]\nldxdw r0, [r2+0]\nexit")));
    }

    #[test]
    fn reports_examined_instruction_counts() {
        // The constant branch is decided (always taken): one path of three
        // instructions.
        let (verdict, stats) =
            LinuxVerifier::default().load(&xdp("mov64 r0, 1\njeq r0, 1, +1\nmov64 r0, 2\nexit"));
        assert!(verdict.is_accept());
        assert_eq!(stats.insns_examined, 3);
        assert_eq!(stats.paths, 1);
        // A branch on an unknown value explores both edges.
        let (verdict, stats) = LinuxVerifier::default().load(&xdp(
            "call get_prandom_u32\njeq r0, 1, +1\nmov64 r0, 2\nexit",
        ));
        assert!(verdict.is_accept());
        assert_eq!(stats.paths, 2);
    }

    #[test]
    fn trivial_program_accepted() {
        assert!(accept(&xdp("mov64 r0, 2\nexit")));
    }

    #[test]
    fn uninitialized_register_rejected() {
        let e = reject_with(&xdp("mov64 r0, r5\nexit"));
        assert!(matches!(
            e,
            VerifierError::UninitRegister { reg: Reg::R5, .. }
        ));
        let e2 = reject_with(&xdp("exit"));
        assert!(matches!(
            e2,
            VerifierError::UninitRegister { reg: Reg::R0, .. }
        ));
    }

    #[test]
    fn loops_rejected() {
        let prog = Program::new(
            ProgramType::Xdp,
            vec![
                Insn::mov64_imm(Reg::R0, 0),
                Insn::Ja { off: -2 },
                Insn::Exit,
            ],
        );
        assert_eq!(reject_with(&prog), VerifierError::Loop);
    }

    #[test]
    fn fall_off_end_rejected() {
        let prog = Program::new(ProgramType::Xdp, vec![Insn::mov64_imm(Reg::R0, 0)]);
        assert_eq!(reject_with(&prog), VerifierError::FallOffEnd);
    }

    #[test]
    fn unreachable_code_rejected() {
        let e = reject_with(&xdp("mov64 r0, 0\nexit\nmov64 r0, 1\nexit"));
        assert!(matches!(e, VerifierError::UnreachableCode { at: 2 }));
    }

    #[test]
    fn frame_pointer_write_rejected() {
        let e = reject_with(&xdp("mov64 r10, 0\nmov64 r0, 0\nexit"));
        assert!(matches!(e, VerifierError::FramePointerWrite { at: 0 }));
    }

    #[test]
    fn stack_read_before_write_rejected() {
        let e = reject_with(&xdp("ldxdw r0, [r10-8]\nexit"));
        assert!(matches!(
            e,
            VerifierError::StackReadBeforeWrite { off: -8, .. }
        ));
        assert!(accept(&xdp("stdw [r10-8], 1\nldxdw r0, [r10-8]\nexit")));
    }

    #[test]
    fn stack_bounds_and_alignment() {
        let e = reject_with(&xdp("stdw [r10-520], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e, VerifierError::StackOutOfBounds { .. }));
        // 8-byte store at a non-8-aligned offset.
        let e2 = reject_with(&xdp("stdw [r10-12], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e2, VerifierError::Misaligned { .. }));
        // An 8-byte store at -4 also overruns the top of the frame.
        let e2b = reject_with(&xdp("stdw [r10-4], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e2b, VerifierError::StackOutOfBounds { .. }));
        // Positive offsets above r10 are out of bounds too.
        let e3 = reject_with(&xdp("stdw [r10+8], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e3, VerifierError::StackOutOfBounds { .. }));
    }

    #[test]
    fn packet_access_requires_bounds_check() {
        let unchecked = xdp("ldxdw r2, [r1+0]\nldxb r0, [r2+0]\nexit");
        assert!(matches!(
            reject_with(&unchecked),
            VerifierError::PacketOutOfBounds { .. }
        ));

        let checked = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 14
            mov64 r0, 1
            jgt r4, r3, +2
            ldxb r0, [r2+13]
            mov64 r0, 2
            exit
        ");
        assert!(accept(&checked));

        // Reading beyond what the check proved is still rejected.
        let overread = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 14
            mov64 r0, 1
            jgt r4, r3, +2
            ldxb r0, [r2+20]
            mov64 r0, 2
            exit
        ");
        assert!(matches!(
            reject_with(&overread),
            VerifierError::PacketOutOfBounds { .. }
        ));
    }

    #[test]
    fn context_is_read_only_and_bounded() {
        let e = reject_with(&xdp("stdw [r1+0], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(
            e,
            VerifierError::CtxStoreImm { .. } | VerifierError::CtxWrite { .. }
        ));
        let e2 = reject_with(&xdp("ldxdw r0, [r1+64]\nexit"));
        assert!(matches!(e2, VerifierError::CtxOutOfBounds { .. }));
        assert!(accept(&xdp("ldxw r0, [r1+24]\nexit")));
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let maps = vec![MapDef::array(0, 8, 4)];
        let unchecked = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            ldxdw r0, [r0+0]
            exit
        ",
            maps.clone(),
        );
        assert!(matches!(
            reject_with(&unchecked),
            VerifierError::PossibleNullDeref { .. }
        ));

        let checked = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+0]
            mov64 r0, 2
            exit
        ",
            maps.clone(),
        );
        assert!(accept(&checked));

        // Reading past the declared value size is rejected even after the
        // null check.
        let oob = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+8]
            mov64 r0, 2
            exit
        ",
            maps,
        );
        assert!(matches!(
            reject_with(&oob),
            VerifierError::MapValueOutOfBounds { .. }
        ));
    }

    #[test]
    fn helper_key_must_be_initialized() {
        let maps = vec![MapDef::array(0, 8, 4)];
        let bad = xdp_maps(
            "ld_map_fd r1, 0\nmov64 r2, r10\nadd64 r2, -4\ncall map_lookup_elem\nmov64 r0, 0\nexit",
            maps,
        );
        assert!(matches!(
            reject_with(&bad),
            VerifierError::StackReadBeforeWrite { .. }
        ));
    }

    #[test]
    fn caller_saved_registers_unreadable_after_call() {
        let e = reject_with(&xdp("call ktime_get_ns\nmov64 r0, r1\nexit"));
        assert!(matches!(
            e,
            VerifierError::UninitRegister { reg: Reg::R1, .. }
        ));
        assert!(accept(&xdp(
            "mov64 r6, 5\ncall ktime_get_ns\nmov64 r0, r6\nexit"
        )));
    }

    #[test]
    fn pointer_arithmetic_restrictions() {
        let e = reject_with(&xdp("mov64 r2, r10\nmul64 r2, 4\nmov64 r0, 0\nexit"));
        assert!(matches!(e, VerifierError::PointerArithmetic { .. }));
        let e2 = reject_with(&xdp("add32 r1, 4\nmov64 r0, 0\nexit"));
        assert!(matches!(e2, VerifierError::PointerArithmetic { .. }));
        // add/sub with constants is fine.
        assert!(accept(&xdp(
            "mov64 r2, r10\nadd64 r2, -8\nstdw [r2+0], 1\nmov64 r0, 0\nexit"
        )));
    }

    #[test]
    fn unknown_pointer_dereference_rejected() {
        let e = reject_with(&xdp("lddw r2, 0xdeadbeef\nldxdw r0, [r2+0]\nexit"));
        assert!(matches!(e, VerifierError::UnknownPointerDeref { .. }));
    }

    #[test]
    fn unknown_helper_rejected() {
        let prog = xdp("mov64 r1, 0\nmov64 r2, 0\nmov64 r3, 0\nmov64 r4, 0\nmov64 r5, 0\ncall helper_999\nmov64 r0, 0\nexit");
        assert!(matches!(
            reject_with(&prog),
            VerifierError::UnknownHelper { .. }
        ));
    }

    #[test]
    fn program_size_limit_enforced() {
        let mut text = String::new();
        for _ in 0..5000 {
            text.push_str("mov64 r0, 1\n");
        }
        text.push_str("exit");
        assert!(matches!(
            reject_with(&xdp(&text)),
            VerifierError::TooManyInstructions { .. }
        ));
    }

    #[test]
    fn complexity_limit_enforced() {
        // 14 branches on an unknown value, each skipping a distinct add:
        // 2^14 paths whose states never subsume each other, far beyond a
        // tiny budget. (A constant branch condition would be decided and
        // explore a single path.)
        let mut text = String::new();
        text.push_str("mov64 r6, 0\ncall get_prandom_u32\nmov64 r7, r0\ncall get_prandom_u32\n");
        for i in 0..14u64 {
            text.push_str(&format!("jeq r0, r7, +1\nadd64 r6, {}\n", 1u64 << i));
        }
        text.push_str("mov64 r0, r6\nexit");
        let verifier = LinuxVerifier::new(LinuxVerifierConfig {
            complexity_limit: 1000,
            ..LinuxVerifierConfig::default()
        });
        let (verdict, stats) = verifier.load(&xdp(&text));
        assert_eq!(
            verdict,
            Verdict::Reject(VerifierError::ComplexityExceeded { limit: 1000 })
        );
        assert_eq!(stats.insns_examined, 1000);
    }

    #[test]
    fn adjust_head_invalidates_packet_pointers() {
        let prog = xdp(r"
            ldxdw r6, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r6
            add64 r4, 2
            mov64 r0, 1
            jgt r4, r3, +4
            mov64 r2, -8
            call xdp_adjust_head
            ldxb r0, [r6+0]
            mov64 r0, 2
            exit
        ");
        // After adjust_head the old packet pointer r6 must not be usable.
        let e = reject_with(&prog);
        assert!(matches!(
            e,
            VerifierError::PacketOutOfBounds { .. } | VerifierError::UnknownPointerDeref { .. }
        ));
    }
}

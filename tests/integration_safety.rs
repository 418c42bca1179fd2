//! Cross-crate agreement between the static safety checkers and the dynamic
//! behaviour observed by the interpreter.

use bpf_interp::{run, InputGenerator};
use bpf_isa::{asm, MapDef, Program, ProgramType};
use bpf_safety::{LinuxVerifier, SafetyChecker, Verdict};

fn xdp(text: &str, maps: Vec<MapDef>) -> Program {
    Program::with_maps(ProgramType::Xdp, asm::assemble(text).unwrap(), maps)
}

#[test]
fn programs_accepted_by_the_checker_never_trap_in_the_interpreter() {
    // Soundness direction of the checker model: accepted programs must not
    // exhibit unsafe behaviour on any generated input.
    let mut checker = SafetyChecker::default();
    for bench in bpf_bench_suite::all() {
        assert!(
            checker.is_safe(&bench.prog),
            "{} should be safe",
            bench.name
        );
        let mut generator = InputGenerator::new(17 + bench.row as u64);
        for input in generator.generate_suite(&bench.prog, 6) {
            run(&bench.prog, &input)
                .unwrap_or_else(|e| panic!("{} trapped despite being accepted: {e}", bench.name));
        }
    }
}

#[test]
fn unsafe_programs_are_rejected_and_do_trap() {
    let cases = vec![
        ("unchecked packet read", xdp("ldxdw r2, [r1+0]\nldxb r0, [r2+100]\nexit", vec![])),
        ("uninitialized stack read", xdp("ldxdw r0, [r10-16]\nexit", vec![])),
        (
            "null map value dereference",
            xdp(
                "mov64 r1, 77\nstxw [r10-4], r1\nld_map_fd r1, 0\nmov64 r2, r10\nadd64 r2, -4\ncall map_lookup_elem\nldxdw r0, [r0+0]\nexit",
                vec![MapDef::array(0, 8, 4)],
            ),
        ),
    ];
    let verifier = LinuxVerifier::default();
    for (label, prog) in cases {
        let (verdict, _) = verifier.load(&prog);
        assert!(
            matches!(verdict, Verdict::Reject(_)),
            "{label} should be rejected"
        );
        // The same hazard is observable dynamically on at least one input.
        let mut generator = InputGenerator::new(3);
        let trapped = generator
            .generate_suite(&prog, 16)
            .iter()
            .any(|input| run(&prog, input).is_err());
        assert!(trapped, "{label} never trapped dynamically");
    }
}

#[test]
fn kernel_checker_and_k2_safety_checker_agree_on_the_benchmarks() {
    let mut k2 = SafetyChecker::default();
    let kernel = LinuxVerifier::default();
    for bench in bpf_bench_suite::all() {
        assert_eq!(
            k2.is_safe(&bench.prog),
            kernel.accepts(&bench.prog),
            "checkers disagree on {}",
            bench.name
        );
    }
}

#[test]
fn checker_statistics_reflect_path_exploration() {
    let bench = bpf_bench_suite::by_name("xdp_fw").unwrap();
    let (verdict, stats) = LinuxVerifier::default().load(&bench.prog);
    assert!(verdict.is_accept());
    assert!(
        stats.paths >= 2,
        "a branching program explores multiple paths"
    );
    assert!(stats.insns_examined >= bench.prog.real_len());
}

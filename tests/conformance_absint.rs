//! Kernel-verifier conformance of the abstract interpreter (`bpf-analysis`),
//! the engine behind every safety verdict of `bpf-safety`.
//!
//! Three layers pin the tnum + range analysis to observable behaviour:
//!
//! * **Dynamic soundness** — a program the abstract interpreter accepts must
//!   never trap in the reference interpreter, on the full benchmark suite and
//!   on a deterministic sweep of 1000 generated programs. Where the
//!   analysis exports a scalar fact for `r0` at an `exit`, the observed
//!   return value must be a member of that fact (tnum and both ranges).
//! * **Proposal-stream sweep** — every candidate the search's proposal
//!   generator produces from the benchmark baselines that [`SafetyChecker`]
//!   accepts must run without a trap, with packet lengths cycled from 1 to
//!   1500 bytes.
//! * **Must-reject corpus** — a fixed corpus of unsafe probes, with the
//!   verdict recorded next to each, that both checkers must reject with
//!   exactly that error.

use bpf_analysis::{analyze, AbsintConfig, ScalarRange};
use bpf_interp::{run, InputGenerator};
use bpf_isa::{asm, AluOp, Insn, JmpOp, MemSize, Program, ProgramType, Reg, Src};
use bpf_safety::{LinuxVerifier, SafetyChecker, SafetyConfig, Verdict};
use k2_core::proposals::RuleProbabilities;
use k2_core::ProposalGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether the concrete value `v` is a member of the abstract scalar.
fn fact_contains(f: &ScalarRange, v: u64) -> bool {
    f.umin <= v && v <= f.umax && f.smin <= v as i64 && (v as i64) <= f.smax && f.tnum.contains(v)
}

/// Run `prog` on `n` generated inputs and assert it never traps; where the
/// analysis has an `r0` fact at every `exit`, the return value must satisfy
/// at least one of them (the executed path went through *some* exit).
fn assert_dynamically_sound(name: &str, prog: &Program, seed: u64, n: usize) {
    let result = analyze(prog, &AbsintConfig::default());
    assert!(
        result.verdict.is_accept(),
        "{name}: expected accept, got {:?}",
        result.verdict
    );
    let exit_facts: Vec<Option<ScalarRange>> = prog
        .insns
        .iter()
        .enumerate()
        .filter(|(_, insn)| matches!(insn, Insn::Exit))
        .map(|(pc, _)| result.facts.fact(pc, Reg::R0))
        .collect();
    let all_exits_have_facts = !exit_facts.is_empty() && exit_facts.iter().all(Option::is_some);
    let mut generator = InputGenerator::new(seed);
    for input in generator.generate_suite(prog, n) {
        let output = run(prog, &input)
            .unwrap_or_else(|e| panic!("{name} trapped despite absint accept: {e}"));
        if all_exits_have_facts {
            assert!(
                exit_facts
                    .iter()
                    .flatten()
                    .any(|f| fact_contains(f, output.output.ret)),
                "{name}: return value {:#x} outside every exit fact {exit_facts:?}",
                output.output.ret
            );
        }
    }
}

#[test]
fn bench_suite_is_dynamically_sound() {
    for bench in bpf_bench_suite::all() {
        assert_dynamically_sound(bench.name, &bench.prog, 17 + bench.row as u64, 6);
    }
}

// ---------------------------------------------------------------------------
// Deterministic 1000-program sweep: dynamic soundness of accepts.
// ---------------------------------------------------------------------------

const SCALARS: [Reg; 6] = [Reg::R0, Reg::R2, Reg::R3, Reg::R6, Reg::R7, Reg::R8];

/// A random program biased toward — but not restricted to — verifier-safe
/// shapes: initialized scalars, a store prefix feeding aligned stack loads,
/// in-range forward branches. Roughly a quarter still get rejected (wild
/// stack offsets, reads of registers a helper call clobbered), so the sweep
/// exercises both sides of every verdict.
fn random_program(rng: &mut StdRng) -> Program {
    let mut insns: Vec<Insn> = Vec::new();
    for &r in &SCALARS {
        insns.push(Insn::mov64_imm(r, rng.gen_range(-64..1024)));
    }
    // Store prefix: aligned dword slots the body may load from.
    let mut stored: Vec<i16> = Vec::new();
    for _ in 0..rng.gen_range(0..3) {
        let off = -8 * rng.gen_range(1i16..64);
        let src = SCALARS[rng.gen_range(0..SCALARS.len())];
        insns.push(Insn::store(MemSize::Dword, Reg::R10, off, src));
        stored.push(off);
    }
    let body_len = rng.gen_range(1usize..16);
    let base = insns.len();
    for i in 0..body_len {
        let dst = SCALARS[rng.gen_range(0..SCALARS.len())];
        let src_reg = SCALARS[rng.gen_range(0..SCALARS.len())];
        let imm: i32 = match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(-16..16),
            2 => rng.gen_range(0..4096),
            _ => rng.gen(),
        };
        let src = if rng.gen_bool(0.5) {
            Src::Reg(src_reg)
        } else {
            Src::Imm(imm)
        };
        // `neg` has no source operand; keep the canonical immediate form
        // (the assembler cannot produce a register-sourced `neg` either).
        let alu = |op: AluOp, src: Src| {
            if op == AluOp::Neg {
                (op, Src::Imm(0))
            } else {
                (op, src)
            }
        };
        insns.push(match rng.gen_range(0..10) {
            0..=4 => {
                let (op, src) = alu(AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())], src);
                Insn::Alu64 { op, dst, src }
            }
            5 => {
                let (op, src) = alu(AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())], src);
                Insn::Alu32 { op, dst, src }
            }
            6..=7 => {
                // Forward conditional jump whose target stays inside the
                // program (the final `exit` included).
                let room = (body_len - 1 - i) as i16;
                Insn::Jmp {
                    op: JmpOp::ALL[rng.gen_range(0..JmpOp::ALL.len())],
                    dst,
                    src,
                    off: rng.gen_range(0..=room.max(0)),
                }
            }
            8 => {
                // Mostly reloads of stored slots; occasionally a wild offset
                // the checker must reject (uninitialized or out of bounds).
                let off = if !stored.is_empty() && rng.gen_bool(0.8) {
                    stored[rng.gen_range(0..stored.len())]
                } else {
                    -rng.gen_range(-8i16..526)
                };
                Insn::load(MemSize::Dword, dst, Reg::R10, off)
            }
            _ => Insn::Call {
                helper: bpf_isa::HelperId::GetPrandomU32,
            },
        });
    }
    let _ = base;
    insns.push(Insn::Exit);
    Program::new(ProgramType::Xdp, insns)
}

#[test]
fn random_sweep_is_dynamically_sound() {
    let mut rng = StdRng::seed_from_u64(0x5eed_ab51);
    let mut generator = InputGenerator::new(0xab51);
    let mut checker = SafetyChecker::new(SafetyConfig::default());
    for case in 0..1_000usize {
        let prog = random_program(&mut rng);
        if checker.is_safe(&prog) {
            for input in generator.generate_suite(&prog, 3) {
                run(&prog, &input).unwrap_or_else(|e| {
                    panic!("case {case} trapped despite being accepted: {e}\n{prog}")
                });
            }
        }
    }
    // The sweep must be non-vacuous on both sides.
    assert!(
        checker.stats.safe >= 100,
        "only {} accepted",
        checker.stats.safe
    );
    assert!(
        checker.stats.unsafe_found >= 100,
        "only {} rejected",
        checker.stats.unsafe_found
    );
}

// ---------------------------------------------------------------------------
// Proposal-stream sweep: the candidates the search actually checks.
// ---------------------------------------------------------------------------

/// Packet lengths the accepted candidates run on, cycled per input: from a
/// one-byte packet (every header read out of bounds) to a full MTU.
const PACKET_LENS: [usize; 10] = [1, 14, 18, 34, 42, 54, 60, 64, 256, 1500];

#[test]
fn proposal_stream_accepts_never_trap() {
    let mut checker = SafetyChecker::new(SafetyConfig::default());
    let mut runs = 0u64;
    for bench in bpf_bench_suite::all() {
        let (_, baseline) = k2::baseline::best_baseline(&bench.prog);
        for seed in 0..2u64 {
            let mut proposals = ProposalGenerator::new(
                &baseline,
                RuleProbabilities::default(),
                0x5eed + 1000 * seed + bench.row as u64,
            );
            let mut inputs = InputGenerator::new(seed);
            let mut current = baseline.insns.clone();
            for step in 0..150usize {
                let (proposal, _, _) = proposals.propose(&current);
                let cand = baseline.with_insns(proposal.clone());
                if !checker.is_safe(&cand) {
                    continue;
                }
                for i in 0..4 {
                    inputs.packet_len = PACKET_LENS[(step + i) % PACKET_LENS.len()];
                    let input = inputs.generate(&cand);
                    runs += 1;
                    run(&cand, &input).unwrap_or_else(|e| {
                        panic!(
                            "{} step {step}: accepted candidate trapped on a {}-byte packet: \
                             {e}\n{cand}",
                            bench.name, inputs.packet_len
                        )
                    });
                }
                // Walk the stream through accepted candidates so it drifts
                // away from the baseline, as a search chain does.
                if step % 3 == 0 {
                    current = proposal;
                }
            }
        }
    }
    // Non-vacuous on both sides: the stream produces plenty of safe and
    // unsafe candidates.
    assert!(
        checker.stats.safe >= 1_000,
        "only {} accepted",
        checker.stats.safe
    );
    assert!(
        checker.stats.unsafe_found >= 1_000,
        "only {} rejected",
        checker.stats.unsafe_found
    );
    assert_eq!(runs, 4 * checker.stats.safe);
}

// ---------------------------------------------------------------------------
// Must-reject corpus: unsafe probes with the verdict recorded verbatim when
// the corpus was frozen; both checkers must reject each one with exactly
// that error.
// ---------------------------------------------------------------------------

#[test]
fn must_reject_corpus_matches_the_legacy_checker() {
    // (label, program text, checker verdict as recorded at the time the
    // corpus was frozen). `Display` of `VerifierError`.
    let corpus: Vec<(&str, &str, &str)> = vec![
        (
            "read of never-written register",
            "mov64 r0, r2\nexit",
            "read of uninitialized r2 at 0",
        ),
        (
            "read of caller-saved register after helper call",
            "mov64 r0, 0\ncall get_prandom_u32\nmov64 r0, r3\nexit",
            "read of uninitialized r3 at 2",
        ),
        (
            "read of uninitialized stack slot",
            "ldxdw r0, [r10-16]\nexit",
            "stack offset -16 read before write (insn 0)",
        ),
        (
            "stack access below the frame",
            "mov64 r2, 1\nstxdw [r10-520], r2\nmov64 r0, 0\nexit",
            "stack access at offset -520 out of bounds (insn 1)",
        ),
        (
            "misaligned stack store",
            "mov64 r2, 1\nstxdw [r10-12], r2\nmov64 r0, 0\nexit",
            "misaligned 8-byte stack access at offset -12 (insn 1)",
        ),
        (
            "fall off the end without exit",
            "mov64 r0, 0",
            "control may fall off the end of the program",
        ),
        (
            "jump past the end",
            "mov64 r0, 0\njgt r0, 2, +5\nexit",
            "jump out of range at 1",
        ),
        (
            "unreachable tail",
            "mov64 r0, 0\nexit\nmov64 r0, 1\nexit",
            "unreachable instruction at 2",
        ),
        (
            "self loop",
            "mov64 r0, 0\nja -1\nexit",
            "back-edge detected (program may loop)",
        ),
        (
            "multiplication on a stack pointer",
            "mov64 r2, r10\nmul64 r2, 4\nldxdw r0, [r2-8]\nexit",
            "disallowed arithmetic on a pointer at 1",
        ),
        (
            "immediate store through the context pointer",
            "stdw [r1+0], 42\nmov64 r0, 0\nexit",
            "immediate store into PTR_TO_CTX at 0",
        ),
    ];

    let mut checker = SafetyChecker::new(SafetyConfig::default());
    let kernel = LinuxVerifier::default();
    for (label, text, recorded) in corpus {
        let prog = Program::new(ProgramType::Xdp, asm::assemble(text).unwrap());

        let err = checker
            .check(&prog)
            .expect_err(&format!("{label}: the safety checker must reject"));
        assert_eq!(err.to_string(), recorded, "{label}: verdict drifted");

        match kernel.load(&prog).0 {
            Verdict::Reject(e) => assert_eq!(e, err, "{label}: checkers disagree"),
            Verdict::Accept => panic!("{label}: the kernel-checker model accepted"),
        }
    }
}

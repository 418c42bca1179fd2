//! Integration tests of window-based (modular) verification — the paper's
//! optimization IV, wired through proposals → equivalence checker → engine →
//! configuration.
//!
//! The contract under test: window verification is a *pure* solver-work
//! optimization. With the same seed, a search with windows on must walk the
//! exact same trajectory (same accepted proposals, same best programs, same
//! counterexamples) as one with windows off — only full-program solver query
//! counts and timing may differ, and queries must never increase.

use bpf_isa::{asm, Program, ProgramType};
use k2::api::K2Session;
use k2_core::{optimize_with, ChainStats, CompilerOptions, K2Result, SearchParams};

fn xdp(text: &str) -> Program {
    Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
}

/// A program with straight-line rewrite opportunities (foldable constants,
/// a dead store) so the search exercises localized rewrites.
fn test_program() -> Program {
    xdp(
        "mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nmov64 r2, 5\nadd64 r2, 7\n\
         mov64 r0, r2\nadd64 r0, 0\nexit",
    )
}

fn optimize(seed: u64, windows: bool) -> K2Result {
    let options = CompilerOptions {
        iterations: 600,
        num_tests: 8,
        seed,
        params: SearchParams::table8().into_iter().take(2).collect(),
        window_verification: windows,
        ..CompilerOptions::default()
    };
    optimize_with(&options, &test_program())
}

/// `ChainStats` minus wall-clock time, which legitimately differs run-to-run.
fn logical_stats(stats: &ChainStats) -> ChainStats {
    ChainStats {
        time_us: 0,
        ..*stats
    }
}

#[test]
fn windows_on_and_off_walk_identical_trajectories() {
    let on = optimize(7, true);
    let off = optimize(7, false);

    // Bit-identical results and search trajectories.
    assert_eq!(on.best.insns, off.best.insns, "best programs differ");
    assert_eq!(on.best_cost, off.best_cost);
    assert_eq!(on.improved, off.improved);
    assert_eq!(on.chains.len(), off.chains.len());
    for ((ida, costa, sa), (idb, costb, sb)) in on.chains.iter().zip(&off.chains) {
        assert_eq!(ida, idb);
        assert_eq!(costa, costb, "per-chain best costs differ (chain {ida})");
        assert_eq!(
            logical_stats(sa),
            logical_stats(sb),
            "trajectories differ (chain {ida})"
        );
    }
    // The exchanged-counterexample flow is identical too: window hits only
    // replace queries whose full-check verdict would have been Equivalent
    // (which never produce counterexamples).
    assert_eq!(
        on.report.counterexamples_exchanged,
        off.report.counterexamples_exchanged
    );
    assert_eq!(on.report.epochs_run, off.report.epochs_run);

    // Differences are confined to solver-work counters: windows resolved
    // some checks and full-program queries went strictly down.
    assert!(
        on.report.equiv.window_hits > 0,
        "windowed path never engaged: {:?}",
        on.report.equiv
    );
    assert_eq!(off.report.equiv.window_hits, 0);
    assert_eq!(off.report.equiv.window_fallbacks, 0);
    assert!(
        on.report.equiv.queries < off.report.equiv.queries,
        "windows on must issue strictly fewer full-program queries \
         ({} vs {})",
        on.report.equiv.queries,
        off.report.equiv.queries
    );
}

#[test]
fn windows_on_is_reproducible_same_seed() {
    let a = optimize(11, true);
    let b = optimize(11, true);
    assert_eq!(a.best.insns, b.best.insns);
    assert_eq!(a.best_cost, b.best_cost);
    assert_eq!(a.report.equiv.queries, b.report.equiv.queries);
    assert_eq!(a.report.equiv.window_hits, b.report.equiv.window_hits);
    assert_eq!(
        a.report.equiv.window_fallbacks,
        b.report.equiv.window_fallbacks
    );
}

#[test]
fn windowed_verdicts_match_the_full_check_on_real_proposal_streams() {
    // The strongest form of the purity contract, checked candidate by
    // candidate: replay proposal streams on real benchmark baselines through
    // a windowed checker and a full-only checker, and require identical
    // verdicts on every candidate. (A verdict flip here is exactly the bug
    // class where an unsound window precondition/postcondition lets a
    // behaviour-changing rewrite through — e.g. the helper-read stack-byte
    // liveness hole.)
    use bpf_equiv::{EquivChecker, EquivOptions, Window};
    use k2_core::proposals::RuleProbabilities;
    use k2_core::ProposalGenerator;

    // (program, steps). recvmsg4 has the most live stack bytes, and
    // xdp_redirect and from-network the most constants that only the
    // abstract interpreter finds (14 each); their full checks are slow, so
    // their streams are shorter.
    let picks = [
        ("xdp_pktcntr", 30),
        ("xdp_cpumap_enqueue", 30),
        ("xdp_exception", 30),
        ("recvmsg4", 4),
        ("xdp_redirect", 4),
        ("from-network", 6),
    ];
    let mut window_attempts = 0u64;
    for bench in bpf_bench_suite::all() {
        let Some(&(_, steps)) = picks.iter().find(|(name, _)| *name == bench.name) else {
            continue;
        };
        let (_, baseline) = k2::baseline::best_baseline(&bench.prog);
        let mut generator = ProposalGenerator::new(
            &baseline,
            RuleProbabilities::default(),
            0xabc + bench.row as u64,
        );
        let opts = EquivOptions {
            enable_cache: false,
            ..EquivOptions::default()
        };
        let mut windowed = EquivChecker::new(opts);
        let mut full = EquivChecker::new(EquivOptions {
            window_verification: false,
            ..opts
        });
        let mut current = baseline.insns.clone();
        for step in 0..steps {
            let (proposal, _rule, region) = generator.propose(&current);
            let cand = baseline.with_insns(proposal.clone());
            let w = windowed.check_in_window(
                &baseline,
                &cand,
                Some(Window {
                    start: region.start,
                    end: region.end,
                }),
            );
            let f = full.check(&baseline, &cand);
            assert_eq!(
                w.is_equivalent(),
                f.is_equivalent(),
                "verdict flip on {} step {step}: window {w:?} vs full {}",
                bench.name,
                f.is_equivalent()
            );
            // Walk to diversify the candidates the stream produces.
            if step % 3 == 0 {
                current = proposal;
            }
        }
        window_attempts += windowed.stats.window_hits + windowed.stats.window_fallbacks;
    }
    assert!(window_attempts > 0, "the windowed path never engaged");
}

#[test]
fn window_knob_resolves_through_the_session_layers() {
    // Builder override (layer 4) wins and reaches the engine options.
    let off = K2Session::builder()
        .iterations(50)
        .window_verification(false)
        .build()
        .expect("session builds");
    assert!(!off.config().window_verification);
    assert!(!off.options().window_verification);
    let on = K2Session::builder()
        .iterations(50)
        .build()
        .expect("session builds");
    // Default is on unless the ambient environment (e.g. the CI run with
    // K2_WINDOW=0) turned it off — either way the config and the
    // materialized options agree.
    assert_eq!(
        on.config().window_verification,
        on.options().window_verification
    );
}

#[test]
fn window_stats_flow_into_the_protocol_report() {
    use k2::api::OptimizeRequest;

    let session = K2Session::builder()
        .iterations(300)
        .num_tests(8)
        .seed(3)
        .params(SearchParams::table8().into_iter().take(2).collect())
        .build()
        .expect("session builds");
    let mut request = OptimizeRequest::from_asm(
        "mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nmov64 r0, 2\nexit",
    );
    request.id = Some("w".into());
    let response = session.optimize(&request);
    assert!(response.ok, "error: {:?}", response.error);
    // The versioned report carries the window counters and round-trips.
    let line = response.to_json_string();
    let parsed = k2::api::OptimizeResponse::from_json_str(&line).unwrap();
    assert_eq!(parsed.report.window_hits, response.report.window_hits);
    assert_eq!(
        parsed.report.window_fallbacks,
        response.report.window_fallbacks
    );
    if session.config().window_verification {
        assert!(
            response.report.window_hits > 0,
            "expected window hits in {:?}",
            response.report
        );
    } else {
        assert_eq!(response.report.window_hits, 0);
    }
}

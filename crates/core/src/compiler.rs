//! The K2 compiler driver: the epoch-based search engine, top-k selection,
//! and the kernel-checker post-processing pass.

use crate::engine::{run_search, EngineReport, EventSinkRef};
use crate::params::{EngineConfig, SearchParams};
use crate::search::ChainStats;
use bpf_interp::BackendKind;
use bpf_isa::Program;
use bpf_safety::{LinuxVerifier, LinuxVerifierConfig};
use k2_telemetry::TelemetryRef;
use serde::{Deserialize, Serialize};

/// What the search optimizes for (§3.2's two performance cost functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizationGoal {
    /// Minimize the number of instructions (`perf_inst`).
    InstructionCount,
    /// Minimize the estimated latency under the per-opcode cost model
    /// (`perf_lat`).
    Latency,
}

/// Options for one compilation.
#[derive(Debug, Clone)]
pub struct CompilerOptions {
    /// Optimization goal.
    pub goal: OptimizationGoal,
    /// Iterations per Markov chain.
    pub iterations: u64,
    /// Parameter settings to run (one chain per setting). Defaults to the
    /// five best settings from Table 8.
    pub params: Vec<SearchParams>,
    /// Number of test cases generated up front.
    pub num_tests: usize,
    /// Base RNG seed (chains derive their own seeds from it).
    pub seed: u64,
    /// How many of the best programs to return (`top-k`, §8: k = 1 for the
    /// instruction-count goal, k = 5 for the latency goal).
    pub top_k: usize,
    /// Run the chains on multiple threads.
    pub parallel: bool,
    /// Execution backend for candidate evaluation. The `K2_BACKEND`
    /// environment override is applied by the `k2::api` configuration
    /// layering before these options are built, not here.
    ///
    /// This and the next four fields are the verification pipeline: one
    /// choice per compilation, read by every chain's
    /// [`crate::cost::CostFunction`] (chains differ only in their
    /// [`SearchParams`]).
    pub backend: BackendKind,
    /// Window-based (modular) equivalence verification — the paper's
    /// optimization IV, on by default. A pure solver-work optimization:
    /// results are bit-identical with it on or off. The `K2_WINDOW`
    /// environment override is applied by the `k2::api` layering.
    pub window_verification: bool,
    /// Size of the pre-SMT refutation batch: cache-miss candidates are first
    /// run on this many deterministic random inputs on the fast execution
    /// backend and refuted without a solver query when any output diverges.
    /// `0` disables the stage; refutation never flips a verdict the solver
    /// would have reached. The batch seed is drawn from the chain's RNG
    /// stream (only when the stage is on), so same-seed runs stay
    /// bit-identical. The `K2_REFUTE_INPUTS` environment override is applied
    /// by the `k2::api` layering.
    pub refute_inputs: usize,
    /// Incremental SAT solving for full-program equivalence queries: the
    /// source CNF and learned clauses stay warm in a per-source solver
    /// context. A pure solver-work optimization: verdicts and
    /// counterexamples are bit-identical with it on or off. The
    /// `K2_INCREMENTAL_SAT` environment override is applied by the `k2::api`
    /// layering.
    pub incremental_sat: bool,
    /// Range facts of the abstract interpreter as window preconditions (see
    /// [`bpf_equiv::EquivOptions::static_analysis`]). This knob only affects
    /// solver work, so search trajectories are bit-identical with it on or
    /// off. The `K2_STATIC_ANALYSIS` environment override is applied by the
    /// `k2::api` layering.
    pub static_analysis: bool,
    /// Engine-level knobs: epochs, cross-chain sharing, convergence, the
    /// wall-clock budget, and the batch worker pool. Values are taken as
    /// given; the `K2_*` environment overrides are resolved by `k2::api`.
    pub engine: EngineConfig,
    /// Observer of the engine's streaming [`crate::engine::SearchEvent`]s.
    /// Defaults to no sink (zero overhead).
    pub sink: EventSinkRef,
    /// Telemetry recorder handle. When attached, the engine collects a
    /// per-compilation [`k2_telemetry::TelemetrySnapshot`] (surfaced on
    /// [`EngineReport::telemetry`] and as a
    /// [`crate::engine::SearchEvent::Telemetry`] event) and folds it into
    /// this recorder at the end of the run. Defaults to no recorder (zero
    /// overhead). Telemetry never feeds back into search decisions: results
    /// are bit-identical with it on or off. The `K2_TELEMETRY` /
    /// `K2_TELEMETRY_JSON` environment overrides are resolved by the
    /// `k2::api` configuration layering, not here.
    pub telemetry: TelemetryRef,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            goal: OptimizationGoal::InstructionCount,
            iterations: 20_000,
            params: SearchParams::table8(),
            num_tests: 16,
            seed: 0x6b32, // "k2"
            top_k: 1,
            parallel: true,
            backend: BackendKind::Auto,
            window_verification: true,
            refute_inputs: 64,
            incremental_sat: true,
            static_analysis: true,
            engine: EngineConfig::default(),
            sink: EventSinkRef::none(),
            telemetry: TelemetryRef::none(),
        }
    }
}

/// The result of one compilation.
#[derive(Debug, Clone)]
pub struct K2Result {
    /// The best program (smallest performance cost) that is formally
    /// equivalent, safe, and accepted by the kernel-checker model. Falls back
    /// to the source program when the search finds nothing better.
    pub best: Program,
    /// Performance cost of `best` under the chosen goal.
    pub best_cost: f64,
    /// The top-k distinct programs, best first.
    pub top: Vec<(Program, f64)>,
    /// Per-chain results: (parameter id, best cost found, statistics).
    pub chains: Vec<(usize, Option<f64>, ChainStats)>,
    /// Whether the best program differs from the source.
    pub improved: bool,
    /// Number of output candidates rejected by the kernel-checker model in
    /// post-processing (the paper reports zero).
    pub rejected_by_kernel_checker: usize,
    /// Aggregated engine statistics: epochs run, solver queries, verdict
    /// cache hit rates (private and cross-chain shared layers),
    /// counterexample exchange, and time-to-best.
    pub report: EngineReport,
}

/// Optimize one program under the given options: run the epoch-based search
/// engine, then filter the chain winners through the kernel-checker model
/// and rank them.
///
/// This is the engine-level driver. User code should normally go through
/// `k2::api::K2Session`, which layers configuration (defaults → config file
/// → environment → builder overrides) on top and speaks the versioned
/// request/response types.
pub fn optimize_with(options: &CompilerOptions, src: &Program) -> K2Result {
    let opts = options;
    let outcome = run_search(src, opts);

    // Collect candidates, filter through the kernel-checker model, rank.
    let verifier = LinuxVerifier::new(LinuxVerifierConfig::default());
    let mut rejected = 0usize;
    let mut candidates: Vec<(Program, f64)> = Vec::new();
    for chain in &outcome.chains {
        if let Some((prog, cost)) = &chain.best {
            if verifier.accepts(prog) {
                if !candidates.iter().any(|(p, _)| p.insns == prog.insns) {
                    candidates.push((prog.clone(), *cost));
                }
            } else {
                rejected += 1;
            }
        }
    }
    // total_cmp, not partial_cmp: a NaN cost (which would mean a bug
    // upstream) must not be able to scramble the top-k order — under
    // total order NaNs sort after every real cost and the sort stays a
    // strict weak ordering.
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
    candidates.truncate(opts.top_k.max(1));

    let fallback_cost = match opts.goal {
        OptimizationGoal::InstructionCount => src.real_len() as f64,
        OptimizationGoal::Latency => bpf_interp::CostModel::default().program_cost(src) as f64,
    };
    let (best, best_cost) = candidates
        .first()
        .cloned()
        .unwrap_or_else(|| (src.clone(), fallback_cost));
    let improved = best.insns != src.insns && best_cost < fallback_cost;

    K2Result {
        best,
        best_cost,
        top: candidates,
        chains: outcome
            .chains
            .into_iter()
            .map(|c| (c.param_id, c.best.map(|(_, cost)| cost), c.stats))
            .collect(),
        improved,
        rejected_by_kernel_checker: rejected,
        report: outcome.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_batch, BatchJob};
    use bpf_equiv::{check_equivalence, EquivOptions};
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn small_options(iterations: u64) -> CompilerOptions {
        CompilerOptions {
            iterations,
            params: SearchParams::table8().into_iter().take(2).collect(),
            num_tests: 8,
            parallel: true,
            ..CompilerOptions::default()
        }
    }

    #[test]
    fn compiler_shrinks_redundant_code() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nmov64 r3, 1\nexit");
        let result = optimize_with(&small_options(3000), &src);
        assert!(
            result.best.real_len() < src.real_len(),
            "not improved: {}",
            result.best
        );
        assert!(result.improved);
        // The output must be formally equivalent to the input.
        let (outcome, _) = check_equivalence(&src, &result.best, &EquivOptions::default());
        assert!(outcome.is_equivalent());
        // And accepted by the kernel checker model (it was filtered already).
        assert_eq!(result.rejected_by_kernel_checker, 0);
    }

    #[test]
    fn compiler_returns_source_when_nothing_better_exists() {
        let src = xdp("mov64 r0, 2\nexit");
        let result = optimize_with(&small_options(300), &src);
        assert_eq!(result.best.real_len(), 2);
        assert!(!result.improved);
    }

    #[test]
    fn chain_results_are_reported_per_parameter_setting() {
        let src = xdp("mov64 r0, 1\nmov64 r2, 3\nexit");
        let result = optimize_with(&small_options(200), &src);
        assert_eq!(result.chains.len(), 2);
        for (_, _, stats) in &result.chains {
            assert_eq!(stats.iterations, 200);
        }
    }

    #[test]
    fn sequential_and_parallel_runs_agree() {
        let src = xdp("mov64 r0, 9\nmov64 r4, 4\nexit");
        let mut opts = small_options(500);
        opts.parallel = false;
        let seq = optimize_with(&opts, &src);
        opts.parallel = true;
        let par = optimize_with(&opts, &src);
        assert_eq!(seq.best.insns, par.best.insns);
    }

    #[test]
    fn pipeline_settings_reach_the_stages_they_control() {
        // Each verification-pipeline setting is read from the options by
        // every chain: turned off, the stage it controls leaves its counter
        // at zero; with the defaults every counter moves. `r6` is bounded
        // but not constant, so windows after the `and` get range facts.
        let src =
            xdp("call get_prandom_u32\nmov64 r6, r0\nand64 r6, 7\nrsh64 r6, 3\nmov64 r0, r6\nexit");
        let run = |opts: CompilerOptions| {
            let opts = CompilerOptions {
                telemetry: TelemetryRef::collector(),
                ..opts
            };
            let report = optimize_with(&opts, &src).report;
            let inc_queries = report.telemetry.counter("bitsmt.inc.queries");
            (report.equiv, inc_queries)
        };
        let windows = |e: &bpf_equiv::EquivStats| e.window_hits + e.window_fallbacks;
        let refuter = |e: &bpf_equiv::EquivStats| e.refuted_by_testing + e.smt_escalations;

        let (on, inc_on) = run(small_options(600));
        assert!(windows(&on) > 0, "{on:?}");
        assert!(refuter(&on) > 0, "{on:?}");
        assert!(on.static_window_facts > 0, "{on:?}");
        assert!(inc_on > 0);

        let (off, _) = run(CompilerOptions {
            window_verification: false,
            ..small_options(600)
        });
        assert_eq!(windows(&off), 0, "{off:?}");
        let (off, _) = run(CompilerOptions {
            refute_inputs: 0,
            ..small_options(600)
        });
        assert_eq!(refuter(&off), 0, "{off:?}");
        let (off, _) = run(CompilerOptions {
            static_analysis: false,
            ..small_options(600)
        });
        assert_eq!(off.static_window_facts, 0, "{off:?}");
        let (_, inc_off) = run(CompilerOptions {
            incremental_sat: false,
            ..small_options(600)
        });
        assert_eq!(inc_off, 0);
    }

    #[test]
    fn batch_jobs_match_optimize_with() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit");
        let options = small_options(400);
        let direct = optimize_with(&options, &src);
        let jobs = (0..2)
            .map(|_| BatchJob {
                program: src.clone(),
                options: options.clone(),
            })
            .collect();
        for batched in run_batch(jobs, 2) {
            assert_eq!(direct.best.insns, batched.best.insns);
            assert_eq!(direct.best_cost, batched.best_cost);
            assert_eq!(direct.chains.len(), batched.chains.len());
        }
    }
}

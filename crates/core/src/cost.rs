//! The cost function of §3.2: error cost (tests + formal equivalence),
//! performance cost (instruction count or estimated latency), and safety
//! cost.

use crate::compiler::{CompilerOptions, OptimizationGoal};
use bpf_equiv::{
    CacheStats, EquivCache, EquivChecker, EquivOptions, EquivOutcome, EquivStats, Refuter,
};
use bpf_interp::{
    BackendKind, CostModel, ExecBackend, InputGenerator, ProgramInput, ProgramOutput,
};
use bpf_isa::Program;
use bpf_safety::SafetyChecker;
use k2_telemetry::TelemetryRef;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Safety cost assigned to unsafe candidates (`ERR_MAX` in the paper): large
/// enough that unsafe programs are almost never accepted, small enough that
/// the chain can still pass through them occasionally.
pub const ERR_MAX: f64 = 100.0;

/// The semantic distance between two outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiffMetric {
    /// Number of differing bits (`diff_pop`).
    Popcount,
    /// Absolute numeric difference (`diff_abs`).
    Abs,
}

/// How per-test-case errors are weighted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorNormalization {
    /// Each test contributes its full error (`c = 1`).
    Full,
    /// Errors are averaged over the test suite (`c = 1/|T|`).
    Average,
}

/// Which test count is added to the error cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestCountMode {
    /// The number of failed test cases (STOKE's variant).
    Failed,
    /// The number of passed test cases (distinguishes "passes all tests" from
    /// "formally equivalent").
    Passed,
}

/// Error-cost variant plus the weights combining the three components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostSettings {
    /// Semantic distance.
    pub diff: DiffMetric,
    /// Per-test weighting.
    pub normalization: ErrorNormalization,
    /// Which count is added.
    pub test_count: TestCountMode,
    /// Weight of the error cost (α).
    pub alpha: f64,
    /// Weight of the performance cost (β).
    pub beta: f64,
    /// Weight of the safety cost (γ).
    pub gamma: f64,
}

impl Default for CostSettings {
    fn default() -> Self {
        CostSettings {
            diff: DiffMetric::Abs,
            normalization: ErrorNormalization::Full,
            test_count: TestCountMode::Failed,
            alpha: 0.5,
            beta: 5.0,
            gamma: 1.0,
        }
    }
}

/// The evaluated cost of one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostValue {
    /// Error component (0 iff formally equivalent).
    pub error: f64,
    /// Performance component.
    pub perf: f64,
    /// Safety component (0 or [`ERR_MAX`]).
    pub safety: f64,
    /// Weighted total.
    pub total: f64,
    /// Whether the candidate is formally equivalent to the source.
    pub equivalent: bool,
    /// Whether the candidate passed the safety checker.
    pub safe: bool,
}

/// Statistics of cost evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Candidates evaluated.
    pub evaluations: u64,
    /// Candidates that failed at least one test case.
    pub failed_tests: u64,
    /// Formal equivalence queries issued (i.e. candidates passing all tests).
    pub equivalence_checks: u64,
    /// Counterexamples added to the test suite.
    pub counterexamples: u64,
    /// Candidates rejected as unsafe.
    pub unsafe_candidates: u64,
    /// Executions of the *source* program. The source's expected outputs are
    /// precomputed once at construction and reused for every candidate;
    /// afterwards the source only runs again to grade a fresh counterexample.
    /// Regression guard for an easy-to-reintroduce inefficiency: re-running
    /// the unchanged source per candidate inside `evaluate`.
    pub src_executions: u64,
}

/// The cost function: owns the test suite, the equivalence checker, the
/// safety checker, and the source program's reference outputs.
pub struct CostFunction {
    /// Settings in effect.
    pub settings: CostSettings,
    /// Optimization goal (instruction count vs estimated latency).
    pub goal: OptimizationGoal,
    src: Program,
    tests: Vec<ProgramInput>,
    expected: Vec<Option<ProgramOutput>>,
    equiv: EquivChecker,
    safety: SafetyChecker,
    cost_model: CostModel,
    src_perf: f64,
    /// Backend selection policy in effect, fixed for the lifetime of this
    /// cost function.
    backend: BackendKind,
    /// Size of the pre-SMT refutation batch ([`CompilerOptions::refute_inputs`]).
    refute_inputs: usize,
    /// The prepared executor for the source program, built once at
    /// construction (for the JIT backend this holds the compiled code page)
    /// and reused whenever a counterexample must be graded.
    src_exec: Box<dyn ExecBackend>,
    /// Counterexamples discovered since the last [`Self::take_counterexamples`]
    /// call, in discovery order — the outbox of the cross-chain exchange.
    pending_cex: Vec<ProgramInput>,
    /// Statistics.
    pub stats: CostStats,
    /// Telemetry recorder handle (no-op by default); also threaded into the
    /// equivalence checker and, through it, the SMT solver.
    telemetry: TelemetryRef,
}

impl CostFunction {
    /// Build the cost function for a source program: generate the initial
    /// test suite and record the source outputs. The goal, the test count
    /// and the verification pipeline (backend, window verification,
    /// refutation batch, incremental SAT, static analysis) come from the
    /// compilation's `opts`; `settings` is the chain's own cost variant.
    pub fn new(
        src: &Program,
        opts: &CompilerOptions,
        settings: CostSettings,
        seed: u64,
    ) -> CostFunction {
        Self::with_shared_cache(src, opts, settings, seed, None)
    }

    /// Like [`CostFunction::new`], but the equivalence checker additionally
    /// reads verdicts from a shared cross-chain cache (the search engine's
    /// [`crate::engine::SearchContext`]). The shared layer must be keyed to
    /// the same source program.
    pub fn with_shared_cache(
        src: &Program,
        opts: &CompilerOptions,
        settings: CostSettings,
        seed: u64,
        shared_cache: Option<Arc<EquivCache>>,
    ) -> CostFunction {
        let mut generator = InputGenerator::new(seed);
        let tests = generator.generate_suite(src, opts.num_tests.max(1));
        // Prepare the source executor a single time: its expected outputs
        // are computed here and never re-derived per candidate.
        let src_exec = bpf_jit::backend_for(src, opts.backend);
        let mut stats = CostStats::default();
        let expected: Vec<Option<ProgramOutput>> = tests
            .iter()
            .map(|t| {
                stats.src_executions += 1;
                src_exec.run(t).ok().map(|r| r.output)
            })
            .collect();
        let cost_model = CostModel::default();
        let src_perf = match opts.goal {
            OptimizationGoal::InstructionCount => src.real_len() as f64,
            OptimizationGoal::Latency => cost_model.program_cost(src) as f64,
        };
        let equiv_options = EquivOptions {
            window_verification: opts.window_verification,
            incremental_solving: opts.incremental_sat,
            static_analysis: opts.static_analysis,
            ..EquivOptions::default()
        };
        let equiv = match shared_cache {
            Some(shared) => EquivChecker::with_shared_cache(equiv_options, shared),
            None => EquivChecker::new(equiv_options),
        };
        CostFunction {
            settings,
            goal: opts.goal,
            src: src.clone(),
            tests,
            expected,
            equiv,
            safety: SafetyChecker::default(),
            cost_model,
            src_perf,
            backend: opts.backend,
            refute_inputs: opts.refute_inputs,
            src_exec,
            pending_cex: Vec::new(),
            stats,
            telemetry: TelemetryRef::none(),
        }
    }

    /// Attach a telemetry recorder and thread it into the equivalence
    /// checker (and through it, the SMT solver). Recording is write-only:
    /// costs and verdicts are identical with or without a recorder.
    pub fn set_telemetry(&mut self, telemetry: TelemetryRef) {
        self.equiv.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The telemetry handle in effect (the no-op handle by default).
    pub fn telemetry(&self) -> &TelemetryRef {
        &self.telemetry
    }

    /// Whether a pre-SMT refutation batch is configured
    /// ([`CompilerOptions::refute_inputs`] is non-zero), i.e. whether
    /// [`Self::install_refuter`] does anything.
    pub fn has_refuter_batch(&self) -> bool {
        self.refute_inputs > 0
    }

    /// Install the pre-SMT refutation stage: build a batch of
    /// [`CompilerOptions::refute_inputs`] deterministic inputs from `seed`
    /// (drawn by the caller from the chain's RNG stream) together with the
    /// source's outputs on them, and hand it to the equivalence checker.
    /// No-op when no batch is configured.
    pub fn install_refuter(&mut self, seed: u64) {
        if !self.has_refuter_batch() {
            return;
        }
        let refuter = Refuter::new(&self.src, self.backend, self.refute_inputs, seed);
        self.equiv.set_refuter(refuter);
    }

    /// The backend selection policy this cost function was built with.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Name of the executor grading candidates ("interp" or "jit").
    pub fn backend_name(&self) -> &'static str {
        self.src_exec.name()
    }

    /// The source program this cost function compares against.
    pub fn source(&self) -> &Program {
        &self.src
    }

    /// Number of test cases currently in the suite.
    pub fn num_tests(&self) -> usize {
        self.tests.len()
    }

    /// Access the equivalence checker (for cache statistics).
    pub fn equivalence_checker(&self) -> &EquivChecker {
        &self.equiv
    }

    /// Accumulated statistics of the per-chain safety checker (screens,
    /// screen rejections, budget-exhausted screens).
    pub fn safety_stats(&self) -> bpf_safety::SafetyStats {
        self.safety.stats
    }

    /// Mutable access to the per-chain safety checker. The checker is
    /// constructed once with the cost function and reused for every
    /// candidate — callers wanting a safety verdict should borrow it here
    /// rather than constructing a fresh one.
    pub fn safety_checker_mut(&mut self) -> &mut SafetyChecker {
        &mut self.safety
    }

    /// Accumulated equivalence-checker statistics (solver queries, cache
    /// hits per layer, solver time).
    pub fn equiv_stats(&self) -> EquivStats {
        self.equiv.stats
    }

    /// Hit/miss statistics of the checker's private cache layer.
    pub fn cache_stats(&self) -> CacheStats {
        self.equiv.cache().stats()
    }

    /// Publish the private equivalence-cache delta into the shared
    /// cross-chain layer (no-op without one). Returns the entries moved.
    /// Call only at the engine's epoch barriers.
    pub fn publish_cache(&mut self) -> usize {
        self.equiv.publish_cache()
    }

    /// Drain the counterexamples discovered since the last call (the outbox
    /// of the cross-chain exchange), in discovery order.
    pub fn take_counterexamples(&mut self) -> Vec<ProgramInput> {
        std::mem::take(&mut self.pending_cex)
    }

    /// Add one test case to the suite unless an identical input is already
    /// present. The expected output is graded with the cached source
    /// executor. Returns whether the suite grew.
    pub fn add_test(&mut self, input: &ProgramInput) -> bool {
        if self.tests.contains(input) {
            return false;
        }
        self.stats.src_executions += 1;
        let expected = self.src_exec.run(input).ok().map(|r| r.output);
        self.tests.push(input.clone());
        self.expected.push(expected);
        true
    }

    /// Add every input of a (merged, deduplicated) counterexample pool that
    /// is not yet in the suite. Returns how many tests were added.
    pub fn add_tests(&mut self, inputs: &[ProgramInput]) -> usize {
        inputs.iter().filter(|i| self.add_test(i)).count()
    }

    /// Performance cost of a candidate (absolute, not relative to the
    /// source; the relative formulation only shifts every candidate by the
    /// same constant and does not change the search).
    pub fn perf_cost(&self, cand: &Program) -> f64 {
        match self.goal {
            OptimizationGoal::InstructionCount => cand.real_len() as f64,
            OptimizationGoal::Latency => self.cost_model.program_cost(cand) as f64,
        }
    }

    /// Performance cost of the source program.
    pub fn src_perf_cost(&self) -> f64 {
        self.src_perf
    }

    /// Evaluate the full cost of a candidate.
    pub fn evaluate(&mut self, cand: &Program) -> CostValue {
        self.evaluate_with_region(cand, None)
    }

    /// [`CostFunction::evaluate`] for a candidate produced by a localized
    /// rewrite: `region` is the instruction span the proposal touched
    /// ([`crate::proposals::RewriteRegion`]). When window verification is
    /// enabled, the equivalence check first tries the window-local formula
    /// over the candidate's actual deviation from the source and only falls
    /// back to the full program pair when that is inconclusive. Costs are
    /// identical to [`CostFunction::evaluate`] — only solver work differs.
    pub fn evaluate_with_region(
        &mut self,
        cand: &Program,
        region: Option<crate::proposals::RewriteRegion>,
    ) -> CostValue {
        self.stats.evaluations += 1;
        let perf = self.perf_cost(cand);

        // Safety first: unsafe candidates get the ERR_MAX safety cost but we
        // still compute an error estimate from the test cases so the chain
        // has a gradient to follow.
        let safe = self.safety.is_safe(cand);
        if !safe {
            self.stats.unsafe_candidates += 1;
        }

        // Test-case execution. The candidate's executor is prepared once and
        // reused for the whole corpus, so under the JIT backend the
        // translation cost amortizes across all test inputs.
        let telemetry = self.telemetry.clone();
        let eval_span = telemetry.span(match self.src_exec.name() {
            "jit" => "core.eval.jit",
            _ => "core.eval.interp",
        });
        let cand_exec = bpf_jit::backend_for(cand, self.backend);
        let mut total_diff = 0.0f64;
        let mut failed = 0usize;
        let mut passed = 0usize;
        for (input, expected) in self.tests.iter().zip(&self.expected) {
            let Some(expected) = expected else { continue };
            match cand_exec.run(input) {
                Ok(result) => {
                    let diff = match self.settings.diff {
                        DiffMetric::Popcount => result.output.diff_popcount(expected) as f64,
                        DiffMetric::Abs => result.output.diff_abs(expected) as f64,
                    };
                    if diff == 0.0 {
                        passed += 1;
                    } else {
                        failed += 1;
                        total_diff += diff;
                    }
                }
                Err(_) => {
                    failed += 1;
                    total_diff += 64.0;
                }
            }
        }
        eval_span.finish();

        let c = match self.settings.normalization {
            ErrorNormalization::Full => 1.0,
            ErrorNormalization::Average => 1.0 / self.tests.len().max(1) as f64,
        };

        // Formal equivalence only when every test passes (it is expensive).
        let mut equivalent = false;
        let unequal = if failed == 0 {
            self.stats.equivalence_checks += 1;
            let window = region.map(bpf_equiv::Window::from);
            match self.equiv.check_in_window(&self.src, cand, window) {
                EquivOutcome::Equivalent => {
                    equivalent = true;
                    0.0
                }
                EquivOutcome::NotEquivalent(Some(counterexample)) => {
                    // Feed the counterexample back into the test suite,
                    // grading it with the cached source executor (the only
                    // post-construction source execution).
                    self.stats.src_executions += 1;
                    if let Ok(expected) = self.src_exec.run(&counterexample) {
                        self.pending_cex.push((*counterexample).clone());
                        self.tests.push(*counterexample);
                        self.expected.push(Some(expected.output));
                        self.stats.counterexamples += 1;
                    }
                    1.0
                }
                EquivOutcome::NotEquivalent(None) | EquivOutcome::Unknown(_) => 1.0,
            }
        } else {
            self.stats.failed_tests += 1;
            1.0
        };

        let count_term = match self.settings.test_count {
            TestCountMode::Failed => failed as f64,
            TestCountMode::Passed => {
                if equivalent {
                    0.0
                } else {
                    passed as f64
                }
            }
        };
        let error = c * total_diff + unequal * count_term + unequal;
        let safety = if safe { 0.0 } else { ERR_MAX };
        let total =
            self.settings.alpha * error + self.settings.beta * perf + self.settings.gamma * safety;
        CostValue {
            error,
            perf,
            safety,
            total,
            equivalent,
            safe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn cost_fn(src: &Program) -> CostFunction {
        let opts = CompilerOptions {
            num_tests: 8,
            ..CompilerOptions::default()
        };
        CostFunction::new(src, &opts, CostSettings::default(), 1)
    }

    #[test]
    fn source_program_costs_zero_error() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let mut f = cost_fn(&src);
        let v = f.evaluate(&src);
        assert_eq!(v.error, 0.0);
        assert!(v.equivalent);
        assert!(v.safe);
        assert_eq!(v.perf, 3.0);
    }

    #[test]
    fn equivalent_smaller_program_has_lower_total_cost() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let cand = xdp("mov64 r0, 12\nexit");
        let mut f = cost_fn(&src);
        let v_src = f.evaluate(&src);
        let v_cand = f.evaluate(&cand);
        assert!(v_cand.equivalent);
        assert!(v_cand.total < v_src.total);
    }

    #[test]
    fn wrong_program_pays_error_cost() {
        let src = xdp("mov64 r0, 5\nexit");
        let wrong = xdp("mov64 r0, 6\nexit");
        let mut f = cost_fn(&src);
        let v = f.evaluate(&wrong);
        assert!(v.error > 0.0);
        assert!(!v.equivalent);
    }

    #[test]
    fn unsafe_program_pays_safety_cost() {
        let src = xdp("mov64 r0, 5\nexit");
        let unsafe_p = xdp("ldxdw r0, [r10-8]\nexit");
        let mut f = cost_fn(&src);
        let v = f.evaluate(&unsafe_p);
        assert!(!v.safe);
        assert_eq!(v.safety, ERR_MAX);
        assert!(v.total >= ERR_MAX * f.settings.gamma);
    }

    #[test]
    fn counterexamples_grow_the_test_suite() {
        // A candidate that agrees with the source on every generated test
        // (which use 64-byte packets) but differs on other packet lengths:
        // the formal check must find the difference and add a test.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut f = cost_fn(&src);
        let before = f.num_tests();
        let v = f.evaluate(&cand);
        assert!(!v.equivalent);
        assert!(f.num_tests() > before || v.error > 0.0);
    }

    #[test]
    fn refuter_counterexamples_feed_the_test_suite_without_solver_queries() {
        // The candidate agrees with the source on every generated test (the
        // suite uses fixed 64-byte packets) but not on other packet lengths.
        // With a refuter installed the divergence is found by execution: the
        // verdict is NotEquivalent, the witness grows the suite, and the
        // solver is never consulted.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut f = cost_fn(&src);
        f.install_refuter(0xbeef);
        let before = f.num_tests();
        let v = f.evaluate(&cand);
        assert!(!v.equivalent);
        let stats = f.equiv_stats();
        assert_eq!(stats.refuted_by_testing, 1);
        assert_eq!(stats.smt_escalations, 0);
        assert_eq!(stats.queries, 0, "refuted without a solver query");
        assert_eq!(f.num_tests(), before + 1, "witness joined the suite");
        assert_eq!(f.stats.counterexamples, 1);
    }

    #[test]
    fn latency_goal_uses_cost_model() {
        let src = xdp("stdw [r10-8], 0\nldxdw r0, [r10-8]\nexit");
        let opts = CompilerOptions {
            goal: OptimizationGoal::Latency,
            num_tests: 4,
            ..CompilerOptions::default()
        };
        let f = CostFunction::new(&src, &opts, CostSettings::default(), 1);
        // Memory operations cost more than 1 each under the latency model.
        assert!(f.src_perf_cost() > 3.0);
    }

    #[test]
    fn source_outputs_are_computed_once_not_per_candidate() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let mut f = cost_fn(&src);
        let after_construction = f.stats.src_executions;
        assert_eq!(after_construction, f.num_tests() as u64);
        // Ten candidate evaluations that add no counterexamples: the source
        // must not run again — its expected outputs were cached up front.
        for imm in 0..10 {
            let _ = f.evaluate(&xdp(&format!("mov64 r0, {imm}\nexit")));
        }
        assert_eq!(
            f.stats.src_executions,
            after_construction + f.stats.counterexamples
        );
    }

    #[test]
    fn counterexamples_are_graded_with_the_cached_source_executor() {
        // A candidate that agrees on every generated test but not formally:
        // the counterexample path must account exactly one source execution.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut f = cost_fn(&src);
        let base = f.stats.src_executions;
        let _ = f.evaluate(&cand);
        assert_eq!(f.stats.src_executions, base + f.stats.counterexamples);
    }

    #[test]
    fn backends_produce_identical_costs() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit");
        let candidates = [
            xdp("mov64 r0, 12\nexit"),
            xdp("mov64 r0, 11\nexit"),
            xdp("ldxdw r0, [r10-8]\nexit"),
            xdp("mov64 r0, 5\nadd64 r0, 7\nexit"),
        ];
        let mut opts = CompilerOptions {
            backend: BackendKind::Interp,
            num_tests: 8,
            ..CompilerOptions::default()
        };
        let mut interp_fn = CostFunction::new(&src, &opts, CostSettings::default(), 1);
        opts.backend = BackendKind::Jit;
        let mut jit_fn = CostFunction::new(&src, &opts, CostSettings::default(), 1);
        for cand in &candidates {
            assert_eq!(interp_fn.evaluate(cand), jit_fn.evaluate(cand));
        }
        // The configured kind is authoritative: no environment override can
        // change which executor a constructed cost function uses.
        assert_eq!(interp_fn.backend_name(), "interp");
        if bpf_jit::jit_available() {
            assert_eq!(jit_fn.backend_name(), "jit");
        }
    }

    #[test]
    fn stats_are_tracked() {
        let src = xdp("mov64 r0, 5\nexit");
        let mut f = cost_fn(&src);
        let _ = f.evaluate(&src);
        let _ = f.evaluate(&xdp("mov64 r0, 9\nexit"));
        assert_eq!(f.stats.evaluations, 2);
        assert!(f.stats.equivalence_checks >= 1);
        assert!(f.stats.failed_tests >= 1);
    }
}

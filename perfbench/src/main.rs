//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <solver_bound|search_bound|service_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload with telemetry off and prints the
//! end-to-end metrics; `--trace 1` runs it untraced and then traced twice,
//! checks that all three runs agree, and prints the per-layer metrics.
//! Every output is checked after the timed region. The last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! exit code is non-zero when any request failed or any check did not
//! hold. See `README.md` next to this file.

mod check;
mod plan;
mod stats;
mod sys;

use bpf_equiv::{EquivChecker, EquivOptions, Refuter};
use bpf_isa::Program;
use k2_api::{
    BackendKind, EngineConfig, K2Config, K2Session, OptimizationGoal, OptimizeRequest,
    OptimizeResponse, SearchParams,
};
use k2_core::{Recorder, Telemetry, TelemetryRef, TelemetrySnapshot};
use plan::{Plan, Workload};
use stats::{median, percentile_reportable, quantile, Metrics, SelfTimes, SpanTotals};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The untraced run serves the plan in this many consecutive slices, with
/// a set-up window before each slice and one after the last, so that
/// set-up is timed at many moments of the run.
const SEGMENTS: usize = 12;

/// A set-up window repeats the set-up at least [`SETUP_MIN_REPS`] times and
/// for at least [`SETUP_MIN_S`] seconds. `setup_s` is the
/// [`SETUP_QUANTILE`] of all repetitions of a run. A shared machine
/// alternates, over seconds, between its normal speed and phases about
/// 1.7 times slower. One set-up takes milliseconds, so the median of the
/// repetitions follows whether the run happened to be in a slow phase,
/// while their lower decile is the set-up at normal speed as long as a
/// tenth of them ran at normal speed.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.1;
const SETUP_QUANTILE: f64 = 0.1;

/// An explicit, empty config file: it takes the place of any `K2_CONFIG`
/// file, and builder overrides then pin every knob over the environment.
const PINNED_CONFIG_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pinned-config.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The resolved configuration every session must end up with.
fn pinned_config(goal: OptimizationGoal, iterations: u64, seed: u64, telemetry: bool) -> K2Config {
    K2Config {
        goal,
        iterations,
        num_tests: 16,
        seed,
        top_k: 1,
        parallel: false,
        backend: BackendKind::Jit,
        window_verification: true,
        refute_inputs: 64,
        incremental_sat: true,
        static_analysis: true,
        engine: EngineConfig {
            num_epochs: 4,
            shared_cache: true,
            exchange_counterexamples: true,
            restart_from_best: false,
            stall_epochs: None,
            time_budget_ms: None,
            batch_workers: 1,
        },
        telemetry,
        telemetry_json: None,
    }
}

/// Build a session whose every knob is a builder override, and verify that
/// the resolved configuration is exactly `config`.
fn pinned_session(config: &K2Config) -> Result<K2Session, String> {
    let e = &config.engine;
    let session = K2Session::builder()
        .config_file(PINNED_CONFIG_FILE)
        .goal(config.goal)
        .iterations(config.iterations)
        .num_tests(config.num_tests)
        .seed(config.seed)
        .top_k(config.top_k)
        .parallel(config.parallel)
        .backend(config.backend)
        .window_verification(config.window_verification)
        .refute_inputs(config.refute_inputs)
        .incremental_sat(config.incremental_sat)
        .static_analysis(config.static_analysis)
        .epochs(e.num_epochs)
        .shared_cache(e.shared_cache)
        .exchange_counterexamples(e.exchange_counterexamples)
        .restart_from_best(e.restart_from_best)
        .stall_epochs(e.stall_epochs.unwrap_or(0))
        .time_budget_ms(e.time_budget_ms.unwrap_or(0))
        .batch_workers(e.batch_workers)
        .telemetry(config.telemetry)
        .telemetry_json("")
        .params(SearchParams::table8())
        .build()
        .map_err(|e| format!("session: {e}"))?;
    if session.config() != config {
        return Err(format!(
            "resolved config {:?} differs from the pinned {config:?}",
            session.config()
        ));
    }
    Ok(session)
}

/// One request, ready to serve.
struct Prepared {
    /// The best baseline of the suite program: K2's input and the
    /// comparison point of every score.
    src: Program,
    /// The encoded v:1 request line.
    json: String,
    /// The session that serves it, pinned to the request's goal, budget
    /// and seed.
    session: K2Session,
}

/// Everything the timed region needs.
struct Setup {
    requests: Vec<Prepared>,
    baseline_s: f64,
}

fn setup(plan: &Plan, telemetry: bool) -> Result<Setup, String> {
    let baseline_start = Instant::now();
    let mut baselines: BTreeMap<&str, Program> = BTreeMap::new();
    for request in &plan.requests {
        if !baselines.contains_key(request.program) {
            let bench = bpf_bench_suite::by_name(request.program)
                .ok_or(format!("unknown program {}", request.program))?;
            baselines.insert(request.program, k2_baseline::best_baseline(&bench.prog).1);
        }
    }
    let baseline_s = baseline_start.elapsed().as_secs_f64();
    let mut requests = Vec::with_capacity(plan.requests.len());
    for request in &plan.requests {
        let src = baselines[request.program].clone();
        let mut wire = OptimizeRequest::from_program(&src);
        wire.id = Some(request.id.clone());
        wire.goal = Some(request.goal);
        wire.iterations = Some(request.iterations);
        wire.seed = Some(request.seed);
        let config = pinned_config(request.goal, request.iterations, request.seed, telemetry);
        requests.push(Prepared {
            src,
            json: wire.to_json_string(),
            session: pinned_session(&config)?,
        });
    }
    Ok(Setup {
        requests,
        baseline_s,
    })
}

/// Set-up and baseline times of every repetition of a run.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    baseline_s: Vec<f64>,
}

impl SetupTimes {
    /// One window of repeated set-ups; returns the last set-up.
    fn window(&mut self, plan: &Plan) -> Result<Setup, String> {
        let (mut reps, mut spent) = (0, 0.0);
        loop {
            let start = Instant::now();
            let s = setup(plan, false)?;
            let elapsed = start.elapsed().as_secs_f64();
            self.setup_s.push(elapsed);
            self.baseline_s.push(s.baseline_s);
            reps += 1;
            spent += elapsed;
            if reps >= SETUP_MIN_REPS && spent >= SETUP_MIN_S {
                return Ok(s);
            }
        }
    }
}

/// A served request, as its client saw it.
struct Done {
    response: OptimizeResponse,
    /// Client-side latency: request decode through response decode.
    latency_s: f64,
    decode_s: f64,
    encode_s: f64,
    /// Traced runs: span totals of this request.
    spans: Option<SpanTotals>,
}

/// One execution of the whole plan.
struct Run {
    /// Per-request outcomes, in plan order.
    results: Vec<Result<Done, String>>,
    /// Wall time of serving the requests, set-up windows excluded.
    wall_s: f64,
    /// Process CPU time over the same spans.
    cpu_s: f64,
    /// Traced runs: every session's telemetry, merged.
    telemetry: Option<TelemetrySnapshot>,
}

/// Timer `(count, total seconds)` and counter values of a snapshot.
fn timers_and_counters(
    s: &TelemetrySnapshot,
) -> (BTreeMap<String, (u64, f64)>, BTreeMap<String, u64>) {
    let timers = s
        .timers
        .iter()
        .map(|(name, t)| (name.clone(), (t.count, t.total_us as f64 / 1e6)))
        .collect();
    (timers, s.counters.iter().cloned().collect())
}

/// Span totals of the telemetry recorded between two snapshots.
fn span_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    request_s: f64,
    chains: u64,
) -> SpanTotals {
    // `source_check_s` is filled in after the traced run.
    let (t0, c0) = timers_and_counters(before);
    let (t1, c1) = timers_and_counters(after);
    let timer = |pred: &dyn Fn(&str) -> bool| {
        t1.iter().filter(|(name, _)| pred(name)).fold(
            (0u64, 0.0f64),
            |(n, s), (name, (count, total))| {
                let (count0, total0) = t0.get(name).copied().unwrap_or((0, 0.0));
                (n + count - count0, s + total - total0)
            },
        )
    };
    let counter =
        |name: &str| c1.get(name).copied().unwrap_or(0) - c0.get(name).copied().unwrap_or(0);
    let named = |name: &'static str| timer(&|n| n == name).1;
    let (exec_calls, exec_s) = timer(&|n| n == "core.eval.jit" || n == "core.eval.interp");
    SpanTotals {
        request_s,
        chain_epoch_s: named("core.chain_epoch"),
        rule_eval_s: timer(&|n| n.starts_with("core.rule.") && n.ends_with(".eval")).1,
        exec_s,
        exec_calls,
        steps: counter("core.steps"),
        check_s: named("equiv.check"),
        window_s: named("equiv.window"),
        refute_s: named("equiv.refute"),
        encode_s: named("equiv.encode"),
        bitblast_s: named("bitsmt.bitblast"),
        solve_s: named("bitsmt.solve"),
        chains,
        source_check_s: 0.0,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Serve one request: decode the v:1 request line, compile, encode the
/// v:1 response line, and decode it as the client would.
fn serve(prepared: &Prepared, traced: bool) -> Result<Done, String> {
    let session = &prepared.session;
    let before = traced.then(|| session.telemetry_snapshot().unwrap_or_default());
    let start = Instant::now();
    let request =
        OptimizeRequest::from_json_str(&prepared.json).map_err(|e| format!("request: {e}"))?;
    // The v:1 schema carries no map definitions; the server attaches the
    // ones registered for the program.
    let wire_program = request.program().map_err(|e| format!("request: {e}"))?;
    let program = Program::with_maps(
        wire_program.prog_type,
        wire_program.insns,
        prepared.src.maps.clone(),
    );
    let config = session.config();
    if program != prepared.src
        || request.goal != Some(config.goal)
        || request.iterations != Some(config.iterations)
        || request.seed != Some(config.seed)
    {
        return Err("the request did not survive the v:1 round trip".into());
    }
    let decoded = Instant::now();
    let result = session.optimize_program(&program);
    let optimized = Instant::now();
    let line = OptimizeResponse::from_result(request.id, &program, &result).to_json_string();
    let encoded = Instant::now();
    let response = OptimizeResponse::from_json_str(&line).map_err(|e| format!("response: {e}"))?;
    let end = Instant::now();
    let optimize_s = (optimized - decoded).as_secs_f64();
    let spans = before.map(|before| {
        let after = session.telemetry_snapshot().unwrap_or_default();
        span_delta(&before, &after, optimize_s, response.chains.len() as u64)
    });
    Ok(Done {
        response,
        latency_s: (end - start).as_secs_f64(),
        decode_s: (decoded - start + (end - encoded)).as_secs_f64(),
        encode_s: (encoded - optimized).as_secs_f64(),
        spans,
    })
}

/// Run the plan in `segments` consecutive slices, calling `between` before
/// every slice but the first, outside the timed spans. Within a slice,
/// `plan.clients` closed-loop clients each take the next request when idle.
fn execute(
    plan: &Plan,
    setup: &Setup,
    traced: bool,
    segments: usize,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Run, String> {
    let slots: Vec<Mutex<Option<Result<Done, String>>>> =
        plan.requests.iter().map(|_| Mutex::new(None)).collect();
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let per_segment = plan.requests.len().div_ceil(segments).max(1);
    for (segment, first) in (0..plan.requests.len()).step_by(per_segment).enumerate() {
        if segment > 0 {
            between()?;
        }
        let end = (first + per_segment).min(plan.requests.len());
        let next = AtomicUsize::new(first);
        let cpu_start = sys::cpu_s();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..plan.clients {
                let (next, slots) = (&next, &slots);
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= end {
                        break;
                    }
                    let result =
                        catch_unwind(AssertUnwindSafe(|| serve(&setup.requests[index], traced)))
                            .unwrap_or_else(|payload| {
                                Err(format!("panic: {}", panic_message(payload)))
                            });
                    *slots[index]
                        .lock()
                        .expect("no client panics holding a slot") = Some(result);
                });
            }
        });
        wall_s += start.elapsed().as_secs_f64();
        cpu_s += sys::cpu_s() - cpu_start;
    }
    let telemetry = traced.then(|| {
        let mut merged = TelemetrySnapshot::default();
        for prepared in &setup.requests {
            if let Some(snapshot) = prepared.session.telemetry_snapshot() {
                merged.absorb(&snapshot);
            }
        }
        merged
    });
    Ok(Run {
        results: slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no client panics holding a slot")
                    .expect("every request served")
            })
            .collect(),
        wall_s,
        cpu_s,
        telemetry,
    })
}

/// Per-request check outcomes of a run.
struct Checked {
    scores: Vec<Option<check::Score>>,
    failures: Vec<String>,
}

fn check_run(plan: &Plan, setup: &Setup, run: &Run) -> Checked {
    let mut cycles: BTreeMap<&str, f64> = BTreeMap::new();
    let mut scores = Vec::with_capacity(run.results.len());
    let mut failures = Vec::new();
    for ((request, prepared), result) in plan.requests.iter().zip(&setup.requests).zip(&run.results)
    {
        let src = &prepared.src;
        let src_cycles = *cycles
            .entry(request.program)
            .or_insert_with(|| check::program_cycles(src));
        let outcome = result.as_ref().map_err(String::clone).and_then(|done| {
            check::check(src, src_cycles, &done.response, plan::mix(request.seed))
        });
        match outcome {
            Ok(score) => scores.push(Some(score)),
            Err(e) => {
                failures.push(format!("{}: {e}", request.id));
                scores.push(None);
            }
        }
    }
    Checked { scores, failures }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Output programs of a run, for the traced-vs-untraced comparison.
fn outputs(run: &Run) -> Vec<Option<String>> {
    run.results
        .iter()
        .map(|r| r.as_ref().ok().map(|d| d.response.insns_hex.clone()))
        .collect()
}

/// Client-side latencies of a run's served requests.
fn latencies(run: &Run) -> Vec<f64> {
    run.results
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|d| d.latency_s))
        .collect()
}

fn end_to_end(plan: &Plan, run: &Run, checked: &Checked, setup_s: f64) -> Metrics {
    let scores = || checked.scores.iter().flatten();
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("wall_s", run.wall_s, "s");
    m.push("cpu_s", run.cpu_s, "s");
    m.push("compile_s_p50", median(&latencies(run)), "s");
    m.push(
        "requests_per_s",
        plan.requests.len() as f64 / run.wall_s,
        "1/s",
    );
    m.push(
        "compression_pct",
        mean(scores().map(|s| s.compression_pct)),
        "%",
    );
    m.push(
        "latency_ratio",
        mean(scores().map(|s| s.latency_ratio)),
        "ratio",
    );
    m
}

/// What a chain's set-up equivalence check of its source against itself
/// costs.
#[derive(Debug, Clone, Copy)]
struct SourceCheck {
    /// Seconds of the whole check.
    check_s: f64,
    /// Seconds of it spent in `bitsmt.solve`.
    solve_s: f64,
}

/// Time a chain's set-up check of `src` against itself: a fresh checker
/// with the pinned solver pipeline and refutation batch, as each chain has
/// at set-up, with its own recorder for the solver share. Medians of three.
fn source_check(src: &Program) -> SourceCheck {
    let config = pinned_config(OptimizationGoal::InstructionCount, 1, 0, false);
    let (check, solve): (Vec<f64>, Vec<f64>) = (0..3)
        .map(|seed| {
            let mut checker = EquivChecker::new(EquivOptions {
                window_verification: config.window_verification,
                incremental_solving: config.incremental_sat,
                static_analysis: config.static_analysis,
                ..EquivOptions::default()
            });
            checker.set_refuter(Refuter::new(
                src,
                config.backend,
                config.refute_inputs,
                seed,
            ));
            let recorder = Arc::new(Telemetry::new());
            checker.set_telemetry(TelemetryRef::new(recorder.clone()));
            let start = Instant::now();
            checker.check_in_window(src, src, None);
            let check_s = start.elapsed().as_secs_f64();
            let solve_s = recorder
                .snapshot()
                .timer("bitsmt.solve")
                .map_or(0.0, |t| t.total_us as f64 / 1e6);
            (check_s, solve_s)
        })
        .unzip();
    SourceCheck {
        check_s: median(&check),
        solve_s: median(&solve),
    }
}

/// Per-layer metrics of a traced run; `untraced_wall_s` is the wall time
/// of the untraced run of the same plan.
fn per_layer(
    plan: &Plan,
    setup: &Setup,
    traced: &Run,
    untraced_wall_s: f64,
    baseline_s: f64,
) -> (Metrics, SelfTimes) {
    let snap = traced.telemetry.clone().unwrap_or_default();
    let done: Vec<&Done> = traced
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    let mut source_checks: BTreeMap<&str, SourceCheck> = BTreeMap::new();
    let mut layers = SelfTimes::default();
    // Solver time inside the chain loop: each request's total less one
    // set-up proof of the source per chain.
    let mut solve_loop_s = 0.0;
    for ((request, prepared), result) in plan
        .requests
        .iter()
        .zip(&setup.requests)
        .zip(&traced.results)
    {
        if let Some(spans) = result.as_ref().ok().and_then(|d| d.spans) {
            let source = *source_checks
                .entry(request.program)
                .or_insert_with(|| source_check(&prepared.src));
            layers.add(&SelfTimes::split(&SpanTotals {
                source_check_s: source.check_s,
                ..spans
            }));
            solve_loop_s += (spans.solve_s - spans.chains as f64 * source.solve_s).max(0.0);
        }
    }
    for (program, source) in &source_checks {
        println!(
            "source check of {program}: {:.4} s, {:.4} s of it in bitsmt.solve",
            source.check_s, source.solve_s
        );
    }
    let reports = || done.iter().map(|d| &d.response.report);
    let sum = |f: &dyn Fn(&k2_api::ReportSummary) -> u64| reports().map(f).sum::<u64>();
    let counter = |name: &str| snap.counter(name);
    // Tail of a telemetry histogram, in ms: p90 when at least 10 samples
    // lie beyond it, else the median.
    let tail_ms = |name: &str| {
        snap.timer(name).map_or(0.0, |t| {
            let pct = if percentile_reportable(90.0, t.count as usize) {
                0.90
            } else {
                0.50
            };
            t.quantile_us(pct) as f64 / 1000.0
        })
    };

    let mut m = Metrics::default();
    // bitsmt
    m.push("bitsmt.solve_s", layers.solve, "s");
    m.push("bitsmt.solve_loop_s", solve_loop_s, "s");
    m.push("bitsmt.bitblast_s", layers.bitblast, "s");
    m.push("bitsmt.solve_ms_p90", tail_ms("bitsmt.solve"), "ms");
    let queries = counter("bitsmt.queries");
    let inc_queries = counter("bitsmt.inc.queries");
    m.count("bitsmt.queries", queries);
    m.count("bitsmt.inc_queries", inc_queries);
    m.count("bitsmt.cold_queries", queries.saturating_sub(inc_queries));
    m.count("bitsmt.conflicts", counter("bitsmt.conflicts"));
    m.count("bitsmt.propagations", counter("bitsmt.propagations"));
    m.count("bitsmt.cnf_clauses", counter("bitsmt.cnf_clauses"));
    // bpf-equiv
    m.push("equiv.check.self_s", layers.check_self, "s");
    m.push("equiv.encode_s", layers.encode, "s");
    m.push("equiv.window_s", layers.window, "s");
    m.push("equiv.refute_s", layers.refute, "s");
    m.count("equiv.queries", sum(&|r| r.solver_queries));
    m.push("equiv.check_ms_p90", tail_ms("equiv.check"), "ms");
    let checks = snap.timer("equiv.check").map_or(0, |t| t.count);
    let private_hits = counter("equiv.check.private_hit");
    let shared_hits = counter("equiv.check.shared_hit");
    m.ratio(
        "equiv.cache_hit_ratio",
        ("equiv.cache_hits", private_hits + shared_hits),
        ("equiv.checks", checks),
    );
    m.ratio(
        "equiv.shared_hit_ratio",
        ("equiv.shared_hits", shared_hits),
        ("equiv.checks", checks),
    );
    m.ratio(
        "equiv.window_hit_ratio",
        ("equiv.window_hits", counter("equiv.check.window_hit")),
        ("equiv.checks", checks),
    );
    let refuted = sum(&|r| r.refuted_by_testing);
    m.ratio(
        "equiv.refute_yield",
        ("equiv.refuted", refuted),
        ("equiv.refute_runs", refuted + sum(&|r| r.smt_escalations)),
    );
    // bpf-jit / bpf-interp
    m.push("core.eval.exec_s", layers.exec, "s");
    // core cost and bpf-safety
    let steps = counter("core.steps");
    m.push("core.cost.self_s", layers.cost_self, "s");
    m.ratio(
        "core.cost.test_pass_ratio",
        ("equiv.checks", checks),
        ("core.steps", steps),
    );
    m.ratio(
        "safety.screen_reject_ratio",
        ("safety.screen_rejects", sum(&|r| r.safety_screen_rejects)),
        ("safety.screens", sum(&|r| r.safety_screens)),
    );
    // core proposals
    m.push("core.proposals.self_s", layers.proposals_self, "s");
    let accepted: u64 = done
        .iter()
        .flat_map(|d| &d.response.chains)
        .map(|c| c.accepted)
        .sum();
    m.ratio(
        "core.accept_ratio",
        ("core.accepted", accepted),
        ("core.steps", steps),
    );
    // core engine
    m.push("core.engine.setup_s", layers.engine_setup, "s");
    // api
    let per_request_us = |f: &dyn Fn(&Done) -> f64| mean(done.iter().map(|d| f(d) * 1e6));
    m.push("api.decode_us", per_request_us(&|d| d.decode_s), "us");
    m.push("api.encode_us", per_request_us(&|d| d.encode_s), "us");
    // baseline
    m.push("baseline_s", baseline_s, "s");
    // process
    m.push("peak_rss_mb", sys::peak_rss_mb(), "MB");
    // trace bookkeeping: self times plus protocol time over client time
    let api_s: f64 = done.iter().map(|d| d.decode_s + d.encode_s).sum();
    let client_s = traced.wall_s * plan.clients as f64;
    m.push(
        "trace.coverage_pct",
        (layers.total() + api_s) / client_s * 100.0,
        "%",
    );
    m.push(
        "trace.overhead_pct",
        (traced.wall_s / untraced_wall_s - 1.0) * 100.0,
        "%",
    );
    (m, layers)
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .list
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Per-program summary of a run: requests, mean latency and scores.
fn print_programs(plan: &Plan, run: &Run, checked: &Checked) {
    let mut rows: BTreeMap<&str, Vec<(f64, check::Score)>> = BTreeMap::new();
    for ((request, result), score) in plan.requests.iter().zip(&run.results).zip(&checked.scores) {
        if let (Ok(done), Some(score)) = (result, score) {
            rows.entry(request.program)
                .or_default()
                .push((done.latency_s, *score));
        }
    }
    println!(
        "program                 n  latency_s  max_lat_s  insns  compression_pct  latency_ratio"
    );
    for (program, row) in rows {
        let m = |f: &dyn Fn(&(f64, check::Score)) -> f64| mean(row.iter().map(f));
        println!(
            "  {program:<20} {:>3} {:>10.4} {:>10.4} {:>6.1} {:>16.3} {:>14.4}",
            row.len(),
            m(&|r| r.0),
            row.iter().map(|r| r.0).fold(0.0, f64::max),
            m(&|r| r.1.insns as f64),
            m(&|r| r.1.compression_pct),
            m(&|r| r.1.latency_ratio),
        );
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let plan = plan::build(args.workload, args.seed, args.seconds);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} requests={} clients={}",
        plan.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.requests.len(),
        plan.clients,
    );

    // The last set-up of the first window serves the run; the others are
    // only timed.
    let mut times = SetupTimes::default();
    let prepared = times.window(&plan)?;
    if let Some(first) = prepared.requests.first() {
        println!(
            "config: {:?}, chains: {} (Table 8 settings), cpus: {}",
            first.session.config(),
            SearchParams::table8().len(),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
    }
    let run = execute(&plan, &prepared, false, SEGMENTS, || {
        times.window(&plan).map(drop)
    })?;
    times.window(&plan)?;
    println!(
        "set-up: {} repetitions, lower decile {} s, median {} s",
        times.setup_s.len(),
        quantile(&times.setup_s, SETUP_QUANTILE),
        median(&times.setup_s)
    );
    let checked = check_run(&plan, &prepared, &run);
    let mut failures = checked.failures.clone();

    let metrics = if args.trace {
        // Two traced runs of the same plan. Telemetry only records, so both
        // must return the untraced run's programs and scores; the search is
        // deterministic, so both must record the same counts.
        let traced_setup = setup(&plan, true)?;
        let traced = execute(&plan, &traced_setup, true, 1, || Ok(()))?;
        let again_setup = setup(&plan, true)?;
        let again = execute(&plan, &again_setup, true, 1, || Ok(()))?;
        for (label, other, other_setup) in [
            ("traced", &traced, &traced_setup),
            ("second traced", &again, &again_setup),
        ] {
            if outputs(other) != outputs(&run) {
                failures.push(format!(
                    "{label} and untraced runs returned different programs"
                ));
            }
            let other_checked = check_run(&plan, other_setup, other);
            if other_checked.scores != checked.scores {
                failures.push(format!("{label} and untraced runs scored differently"));
            }
            failures.extend(
                other_checked
                    .failures
                    .iter()
                    .map(|f| format!("{label} {f}")),
            );
        }
        let counts = |r: &Run| r.telemetry.clone().unwrap_or_default().counts_only();
        if counts(&traced) != counts(&again) {
            failures.push("same-seed traced runs recorded different counts".into());
        }
        let (m, layers) = per_layer(
            &plan,
            &traced_setup,
            &traced,
            run.wall_s,
            quantile(&times.baseline_s, SETUP_QUANTILE),
        );
        let mut named = layers.named();
        named.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("layers (self seconds, largest first):");
        for (name, secs) in named {
            println!("  {name:<24} {secs:>10.4}");
        }
        m
    } else {
        end_to_end(
            &plan,
            &run,
            &checked,
            quantile(&times.setup_s, SETUP_QUANTILE),
        )
    };

    let latencies = latencies(&run);
    println!("compile latency over {} requests:", latencies.len());
    println!("  p50: {} s", median(&latencies));
    if let Some(pct) = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&pct| percentile_reportable(pct, latencies.len()))
    {
        println!("  p{pct}: {} s", quantile(&latencies, pct / 100.0));
    }
    for m in &metrics.list {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    print_programs(&plan, &run, &checked);
    let attempted = plan.requests.len();
    let failed = checked.scores.iter().filter(|s| s.is_none()).count();
    println!("error_rate: {}", failed as f64 / attempted as f64);
    for failure in &failures {
        println!("FAILED {failure}");
    }
    let correct = failures.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <solver_bound|search_bound|service_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        let line = result_line(true, 3, 0, &m);
        let json = k2_api::Json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(0));
        let wall = json.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn pinned_sessions_resolve_to_the_pinned_config() {
        let config = pinned_config(OptimizationGoal::Latency, 9, 5, true);
        let session = pinned_session(&config).unwrap();
        assert_eq!(session.config(), &config);
        assert!(session.telemetry_snapshot().is_some());
    }

    #[test]
    fn span_deltas_subtract_earlier_requests() {
        let rec = k2_core::Telemetry::new();
        rec.time_us("equiv.check", 100);
        rec.count("core.steps", 4);
        let before = rec.snapshot();
        rec.time_us("equiv.check", 250);
        rec.time_us("core.rule.replace_by_nop.eval", 300);
        rec.time_us("core.rule.replace_operand.eval", 200);
        rec.count("core.steps", 6);
        let t = span_delta(&before, &rec.snapshot(), 1.0, 5);
        assert!((t.check_s - 250e-6).abs() < 1e-12);
        assert!((t.rule_eval_s - 500e-6).abs() < 1e-12);
        assert_eq!(t.steps, 6);
        assert_eq!(t.chains, 5);
    }
}

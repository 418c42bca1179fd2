//! Pure helpers: percentiles and the percentile-reporting rule, per-layer
//! self-time bookkeeping, and the metric list that keeps every ratio next to
//! the counts it was computed from.

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples that lie strictly beyond the `pct`-th percentile of `n` samples.
pub fn samples_beyond(pct: f64, n: usize) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).min(n)
}

/// The percentile rule: a tail percentile is reported only when at least
/// 10 samples lie beyond it, so it is never an alias for the maximum. The
/// median is always reported.
pub fn percentile_reportable(pct: f64, n: usize) -> bool {
    n > 0 && (pct <= 50.0 || samples_beyond(pct, n) >= 10)
}

/// Wall-clock totals, in seconds, of the telemetry spans one compilation
/// (or a sum of compilations) recorded, plus the counts the self-time
/// split needs. Every field is a sum over requests.
///
/// Span nesting, as recorded by the pipeline:
///
/// ```text
/// request (the benchmark's own timer around the public optimize call)
/// ├─ core.chain_epoch                 one per chain and epoch
/// │  ├─ proposal, best tracking, accept/reject        (proposals self)
/// │  └─ core.rule.*.eval              one per step
/// │     ├─ safety check, perf model                   (cost self)
/// │     ├─ core.eval.jit | core.eval.interp           (test execution)
/// │     └─ equiv.check
/// │        ├─ equiv.window | equiv.refute
/// │        ├─ equiv.encode
/// │        └─ bitsmt.bitblast, bitsmt.solve
/// └─ outside the chain loop: test generation, chain set-up, barriers,
///    kernel-checker filter, response (engine set-up); chain set-up and
///    barrier refreshes also evaluate programs, so a few core.eval.* and
///    equiv.check spans run here too
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Wall time of the optimize calls.
    pub request_s: f64,
    /// `core.chain_epoch`.
    pub chain_epoch_s: f64,
    /// All `core.rule.*.eval` spans.
    pub rule_eval_s: f64,
    /// `core.eval.jit` + `core.eval.interp`.
    pub exec_s: f64,
    /// Number of `core.eval.*` observations.
    pub exec_calls: u64,
    /// MCMC steps (one rule evaluation and one `core.eval.*` each).
    pub steps: u64,
    /// `equiv.check`.
    pub check_s: f64,
    /// `equiv.window`.
    pub window_s: f64,
    /// `equiv.refute`.
    pub refute_s: f64,
    /// `equiv.encode`.
    pub encode_s: f64,
    /// `bitsmt.bitblast`.
    pub bitblast_s: f64,
    /// `bitsmt.solve`.
    pub solve_s: f64,
    /// Chains whose set-up evaluated the source outside the chain loop.
    pub chains: u64,
    /// Seconds one chain's set-up equivalence check of the source against
    /// itself takes (measured separately by the benchmark).
    pub source_check_s: f64,
}

/// Disjoint per-layer self times, in seconds. Their sum equals
/// [`SpanTotals::request_s`] whenever no clamp applies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTimes {
    /// `bitsmt.solve`.
    pub solve: f64,
    /// `bitsmt.bitblast`.
    pub bitblast: f64,
    /// `equiv.encode`.
    pub encode: f64,
    /// `equiv.window`.
    pub window: f64,
    /// `equiv.refute`.
    pub refute: f64,
    /// `equiv.check` minus its nested spans (cache lookups, bookkeeping).
    pub check_self: f64,
    /// Test execution (`core.eval.*`).
    pub exec: f64,
    /// Rule evaluation minus the test execution and equivalence checks it
    /// ran: safety and the perf model.
    pub cost_self: f64,
    /// `core.chain_epoch` minus rule evaluation: proposals, canonicalizing
    /// new bests, acceptance.
    pub proposals_self: f64,
    /// Request time outside the chain loop, minus the test execution and
    /// equivalence checks that ran there.
    pub engine_setup: f64,
}

impl SelfTimes {
    /// Split one request's span totals into disjoint layers.
    ///
    /// `core.eval.*` and `equiv.check` also fire outside `core.chain_epoch`
    /// (each chain evaluates the source at set-up, and barriers re-evaluate
    /// chains whose test suite grew), so subtracting their totals from rule
    /// evaluation would count that time twice. The out-of-loop share is
    /// apportioned instead: test executions by count (every step runs
    /// exactly one, so `exec_calls - steps` ran outside the loop, at their
    /// mean cost), and equivalence time as one source-against-itself check
    /// per chain at its separately measured cost (barrier re-evaluations
    /// hit the verdict cache). Both are capped by the time actually spent
    /// outside the loop.
    pub fn split(t: &SpanTotals) -> SelfTimes {
        let nested = t.window_s + t.refute_s + t.encode_s + t.bitblast_s + t.solve_s;
        let exec_out = if t.exec_calls == 0 {
            0.0
        } else {
            t.exec_s * t.exec_calls.saturating_sub(t.steps) as f64 / t.exec_calls as f64
        };
        let outside_loop = (t.request_s - t.chain_epoch_s).max(0.0);
        let check_out = (t.chains as f64 * t.source_check_s)
            .min(t.check_s)
            .min((outside_loop - exec_out).max(0.0));
        SelfTimes {
            solve: t.solve_s,
            bitblast: t.bitblast_s,
            encode: t.encode_s,
            window: t.window_s,
            refute: t.refute_s,
            check_self: (t.check_s - nested).max(0.0),
            exec: t.exec_s,
            cost_self: (t.rule_eval_s - (t.exec_s - exec_out) - (t.check_s - check_out)).max(0.0),
            proposals_self: (t.chain_epoch_s - t.rule_eval_s).max(0.0),
            engine_setup: (outside_loop - exec_out - check_out).max(0.0),
        }
    }

    /// Fold another split into this one.
    pub fn add(&mut self, o: &SelfTimes) {
        self.solve += o.solve;
        self.bitblast += o.bitblast;
        self.encode += o.encode;
        self.window += o.window;
        self.refute += o.refute;
        self.check_self += o.check_self;
        self.exec += o.exec;
        self.cost_self += o.cost_self;
        self.proposals_self += o.proposals_self;
        self.engine_setup += o.engine_setup;
    }

    /// Sum of all layers.
    pub fn total(&self) -> f64 {
        self.solve
            + self.bitblast
            + self.encode
            + self.window
            + self.refute
            + self.check_self
            + self.exec
            + self.cost_self
            + self.proposals_self
            + self.engine_setup
    }

    /// The layers as `(metric name, seconds)`, for the largest-layer check.
    pub fn named(&self) -> [(&'static str, f64); 10] {
        [
            ("bitsmt.solve_s", self.solve),
            ("bitsmt.bitblast_s", self.bitblast),
            ("equiv.encode_s", self.encode),
            ("equiv.window_s", self.window),
            ("equiv.refute_s", self.refute),
            ("equiv.check.self_s", self.check_self),
            ("core.eval.exec_s", self.exec),
            ("core.cost.self_s", self.cost_self),
            ("core.proposals.self_s", self.proposals_self),
            ("core.engine.setup_s", self.engine_setup),
        ]
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered metric list. Ratios go in only through [`Metrics::ratio`],
/// which emits the numerator and denominator counts alongside.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Metrics in emission order.
    pub list: Vec<Metric>,
}

impl Metrics {
    /// Add one metric. A name may be added again (two ratios can share a
    /// base count), but only with the same value and unit.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.list.iter().find(|m| m.name == name) {
            Some(m) => assert!(
                m.value == value && m.unit == unit,
                "metric {name} added as {value} {unit} after {} {}",
                m.value,
                m.unit
            ),
            None => self.list.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    /// Add a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count");
    }

    /// Add `num / den` (0 when `den` is 0) together with both counts.
    pub fn ratio(&mut self, name: &str, num: (&str, u64), den: (&str, u64)) {
        self.count(num.0, num.1);
        self.count(den.0, den.1);
        let value = if den.1 == 0 {
            0.0
        } else {
            num.1 as f64 / den.1 as f64
        };
        self.push(name, value, "ratio");
    }

    /// Look a metric up by name.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(samples_beyond(90.0, 100), 10);
        assert_eq!(samples_beyond(90.0, 99), 9);
        assert!(percentile_reportable(90.0, 100));
        assert!(!percentile_reportable(90.0, 99));
        assert!(!percentile_reportable(99.0, 999));
        assert!(percentile_reportable(99.0, 1000));
        // The median needs no tail.
        assert!(percentile_reportable(50.0, 3));
        assert!(!percentile_reportable(50.0, 0));
    }

    fn totals() -> SpanTotals {
        SpanTotals {
            request_s: 10.0,
            chain_epoch_s: 7.0,
            rule_eval_s: 6.0,
            exec_s: 1.1,
            exec_calls: 110,
            steps: 100,
            check_s: 6.0,
            window_s: 0.2,
            refute_s: 0.3,
            encode_s: 0.5,
            bitblast_s: 0.5,
            solve_s: 4.0,
            chains: 5,
            source_check_s: 0.5,
        }
    }

    #[test]
    fn self_times_partition_the_request() {
        let t = totals();
        let s = SelfTimes::split(&t);
        // Nested equivalence spans come off equiv.check exactly once.
        assert!((s.check_self - 0.5).abs() < 1e-9);
        // 10 of 110 executions ran outside the loop: 0.1 s.
        // One source check per chain (5 x 0.5 s) ran outside the loop.
        assert!((s.engine_setup - (3.0 - 0.1 - 2.5)).abs() < 1e-9);
        assert!((s.cost_self - (6.0 - 1.0 - 3.5)).abs() < 1e-9);
        assert!((s.proposals_self - 1.0).abs() < 1e-9);
        assert!((s.total() - t.request_s).abs() < 1e-9);
    }

    #[test]
    fn self_times_never_go_negative() {
        // More out-of-loop solver work claimed than the loop-external wall
        // can hold: the estimate is capped, not allowed to go negative.
        let t = SpanTotals {
            chain_epoch_s: 9.9,
            rule_eval_s: 8.9,
            ..totals()
        };
        let s = SelfTimes::split(&t);
        assert!(s.named().iter().all(|(_, v)| *v >= 0.0));
        assert!(s.total() <= t.request_s + 1e-9);
    }

    #[test]
    fn self_times_add_up_across_requests() {
        let mut sum = SelfTimes::default();
        sum.add(&SelfTimes::split(&totals()));
        sum.add(&SelfTimes::split(&totals()));
        assert!((sum.total() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn every_ratio_is_emitted_with_its_counts() {
        let ratios = [
            (
                "core.accept_ratio",
                ("core.accepted", 3),
                ("core.steps", 12),
            ),
            (
                "equiv.refute_yield",
                ("equiv.refuted", 0),
                ("equiv.refute_runs", 0),
            ),
            // Shares its denominator with the first ratio.
            (
                "core.cost.test_pass_ratio",
                ("equiv.checks", 6),
                ("core.steps", 12),
            ),
        ];
        let mut m = Metrics::default();
        for (name, num, den) in ratios {
            m.ratio(name, num, den);
        }
        for (name, num, den) in ratios {
            assert!(m.get(name).is_some(), "{name} missing");
            assert_eq!(m.get(num.0), Some(num.1 as f64), "{}", num.0);
            assert_eq!(m.get(den.0), Some(den.1 as f64), "{}", den.0);
        }
        assert_eq!(m.get("core.accept_ratio"), Some(0.25));
        assert_eq!(m.get("equiv.refute_yield"), Some(0.0));
        // A count shared by two ratios is emitted once.
        assert_eq!(m.list.iter().filter(|x| x.name == "core.steps").count(), 1);
    }

    #[test]
    #[should_panic(expected = "metric core.steps added as 13")]
    fn a_name_cannot_carry_two_values() {
        let mut m = Metrics::default();
        m.ratio(
            "core.accept_ratio",
            ("core.accepted", 3),
            ("core.steps", 12),
        );
        m.ratio(
            "core.cost.test_pass_ratio",
            ("equiv.checks", 6),
            ("core.steps", 13),
        );
    }
}

//! The K2-side safety checker used inside the stochastic search (paper §6).

use bpf_analysis::{analyze, AbsintConfig, AbsintStats, Verdict, VerifierError};
use bpf_isa::Program;

/// Configuration of the K2 safety checker.
///
/// K2 evaluates a candidate at every search step, so its complexity budget is
/// lower than the kernel's: an exploding candidate should be given up on
/// quickly (it would be rejected by the kernel anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyConfig {
    /// Budget of instructions examined across all paths.
    pub complexity_limit: usize,
    /// Maximum program length (wire slots).
    pub max_insns: usize,
    /// Enforce size-aligned stack accesses.
    pub enforce_stack_alignment: bool,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        let AbsintConfig {
            max_insns,
            complexity_limit,
            enforce_stack_alignment,
        } = AbsintConfig::default();
        SafetyConfig {
            complexity_limit,
            max_insns,
            enforce_stack_alignment,
        }
    }
}

/// The K2 safety checker: control-flow safety, memory safety, and the
/// kernel-checker-specific constraints, evaluated on every candidate program.
#[derive(Debug, Clone, Default)]
pub struct SafetyChecker {
    /// Configuration in effect.
    pub config: SafetyConfig,
    /// Accumulated statistics.
    pub stats: SafetyStats,
}

/// Accumulated statistics of a [`SafetyChecker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SafetyStats {
    /// Candidates checked.
    pub checked: u64,
    /// Candidates found safe.
    pub safe: u64,
    /// Candidates found unsafe.
    pub unsafe_found: u64,
    /// Total instructions examined by the abstract interpreter.
    pub insns_examined: u64,
}

impl SafetyStats {
    /// Fold another checker's counters into this one (used when aggregating
    /// per-chain statistics into an engine-level report).
    pub fn absorb(&mut self, other: &SafetyStats) {
        self.checked += other.checked;
        self.safe += other.safe;
        self.unsafe_found += other.unsafe_found;
        self.insns_examined += other.insns_examined;
    }
}

impl SafetyChecker {
    /// Create a checker with the given configuration.
    pub fn new(config: SafetyConfig) -> SafetyChecker {
        SafetyChecker {
            config,
            stats: SafetyStats::default(),
        }
    }

    /// Check one candidate. `Ok` (the run's statistics) means safe; `Err`
    /// carries the first violated property (which the search turns into the
    /// `ERR_MAX` safety cost of §3.2).
    pub fn check(&mut self, prog: &Program) -> Result<AbsintStats, VerifierError> {
        self.stats.checked += 1;
        let result = analyze(
            prog,
            &AbsintConfig {
                max_insns: self.config.max_insns,
                complexity_limit: self.config.complexity_limit,
                enforce_stack_alignment: self.config.enforce_stack_alignment,
            },
        );
        self.stats.insns_examined += result.stats.insns_examined as u64;
        match result.verdict {
            Verdict::Accept => {
                self.stats.safe += 1;
                Ok(result.stats)
            }
            Verdict::Reject(e) => {
                self.stats.unsafe_found += 1;
                Err(e)
            }
        }
    }

    /// Convenience: just the boolean verdict.
    pub fn is_safe(&mut self, prog: &Program) -> bool {
        self.check(prog).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinuxVerifier;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    #[test]
    fn stats_accumulate() {
        let mut checker = SafetyChecker::new(SafetyConfig::default());
        let safe = xdp("mov64 r0, 0\nexit");
        let unsafe_p = xdp("ldxdw r0, [r10-8]\nexit");
        assert!(checker.is_safe(&safe));
        assert!(!checker.is_safe(&unsafe_p));
        assert_eq!(checker.stats.checked, 2);
        assert_eq!(checker.stats.safe, 1);
        assert_eq!(checker.stats.unsafe_found, 1);
        assert!(checker.stats.insns_examined > 0);
    }

    #[test]
    fn default_config_matches_paper_constraints() {
        let cfg = SafetyConfig::default();
        assert_eq!(cfg.max_insns, 4096);
        assert_eq!(cfg.complexity_limit, 100_000);
        assert!(cfg.enforce_stack_alignment);
    }

    #[test]
    fn probes_agree_with_the_kernel_checker_model() {
        // Probe corpus spanning accepts and every major rejection family:
        // the search-side checker and the kernel-checker model run the same
        // engine and differ only in their complexity limit.
        let probes = [
            "mov64 r0, 0\nexit",
            "ldxdw r0, [r10-8]\nexit",
            "mov64 r0, r5\nexit",
            "ldxdw r2, [r1+0]\nldxb r0, [r2+0]\nexit",
            "stdw [r10-8], 1\nldxdw r0, [r10-8]\nexit",
            "mov64 r2, r10\nmul64 r2, 4\nmov64 r0, 0\nexit",
            "mov64 r0, 0\nexit\nmov64 r0, 1\nexit",
            "stdw [r10-520], 1\nmov64 r0, 0\nexit",
        ];
        let mut checker = SafetyChecker::new(SafetyConfig::default());
        let kernel = LinuxVerifier::default();
        for text in probes {
            let prog = xdp(text);
            let kernel_err = match kernel.load(&prog).0 {
                Verdict::Accept => None,
                Verdict::Reject(e) => Some(e),
            };
            assert_eq!(
                checker.check(&prog).err(),
                kernel_err,
                "verdict diverged on: {text}"
            );
        }
        assert_eq!(checker.stats.safe, 2);
        assert_eq!(checker.stats.unsafe_found, probes.len() as u64 - 2);
    }

    #[test]
    fn complexity_limit_rejects() {
        let mut checker = SafetyChecker::new(SafetyConfig {
            complexity_limit: 1,
            ..SafetyConfig::default()
        });
        assert_eq!(
            checker.check(&xdp("mov64 r0, 0\nexit")).unwrap_err(),
            VerifierError::ComplexityExceeded { limit: 1 }
        );
        assert_eq!(checker.stats.unsafe_found, 1);
        assert_eq!(checker.stats.insns_examined, 1);
    }
}

//! # bpf-safety
//!
//! Safety checking for BPF programs (paper §6) and a model of the Linux
//! kernel checker used for K2's post-processing pass.
//!
//! Two entry points share one engine:
//!
//! * [`SafetyChecker`] — the checks K2 applies to every candidate inside the
//!   stochastic search: control-flow safety (no loops, no out-of-bounds
//!   jumps, no unreachable blocks), memory accesses within bounds for every
//!   memory region, stack read-before-write, access alignment, and the
//!   kernel-checker-specific restrictions the paper lists (no ALU on
//!   pointers, no immediate stores through context pointers, `r1`–`r5`
//!   unreadable after a helper call, `r10` read-only).
//! * [`LinuxVerifier`] — the same engine configured like the in-kernel
//!   checker: the kernel's complexity limit (instructions examined) and
//!   program-size limit, used to reproduce the paper's Table 5 ("all K2
//!   outputs pass the kernel checker").
//!
//! The engine is the kernel-conformant abstract interpreter
//! [`bpf_analysis::analyze`]: a path-sensitive walk over tnums,
//! signed/unsigned ranges and pointer provenance with bounded offsets,
//! which skips branch edges its ranges prove infeasible (the kernel's
//! `is_branch_taken`). Each check runs it once and returns its verdict; a
//! run that exhausts the complexity limit is rejected with
//! [`VerifierError::ComplexityExceeded`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linux;
pub mod safety;

pub use bpf_analysis::{AbsintStats, Verdict, VerifierError};
pub use linux::{LinuxVerifier, LinuxVerifierConfig};
pub use safety::{SafetyChecker, SafetyConfig, SafetyStats};

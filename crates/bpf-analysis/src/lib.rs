//! # bpf-analysis
//!
//! Static analyses over BPF programs, shared by the equivalence checker
//! (`bpf-equiv`), the safety checker (`bpf-safety`), the rule-based baseline
//! optimizer (`k2-baseline`) and the K2 search itself (`k2-core`):
//!
//! * [`mod@cfg`] — control-flow graph over basic blocks, reachability,
//!   topological order, back-edge (loop) detection, and dominators,
//! * [`liveness`] — per-instruction live register sets, used for dead-code
//!   elimination, and live stack bytes resolved through [`absint`]'s
//!   provenance facts, used for K2's window-based verification
//!   postconditions,
//! * [`dce`] — nop stripping, unreachable-code removal, dead-code
//!   elimination and program canonicalization (used by the equivalence-cache
//!   and to clean up synthesized outputs),
//! * [`tnum`] — the kernel's tristate-number (known-bits) domain with the
//!   `kernel/bpf/tnum.c` transfer functions,
//! * [`absint`] — the kernel-conformant abstract interpreter combining
//!   tnums, signed/unsigned value ranges and pointer provenance with
//!   bounded offsets; the only safety engine (it decides every verdict of
//!   `bpf-safety`) and the only per-program-point analysis: its
//!   [`ProgramFacts`] (each register's range or pointer provenance) give
//!   `bpf-equiv` its window preconditions and stack liveness (the paper's
//!   §5.IV) and `k2-baseline` its constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cfg;
pub mod dce;
pub mod liveness;
pub mod tnum;

pub use absint::{
    analyze, AbsReg, AbsintConfig, AbsintResult, AbsintStats, ProgramFacts, Provenance,
    ScalarRange, Verdict, VerifierError,
};
pub use cfg::{BasicBlock, Cfg, CfgError};
pub use dce::{canonicalize, dead_code_elim, strip_nops};
pub use liveness::{LiveMap, Liveness, RegSet};
pub use tnum::Tnum;

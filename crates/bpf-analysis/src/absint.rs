//! Kernel-conformant abstract interpreter: tnum + value-range analysis over
//! BPF programs, and the only safety engine in the workspace.
//!
//! [`analyze`] is a path-sensitive forward walk that tracks, per register,
//! the kernel verifier's value domains — tristate numbers ([`Tnum`], known
//! bits), signed/unsigned 64-bit ranges ([`ScalarRange`]), and pointer
//! provenance with offsets (stack / ctx / packet / packet-end / map-value),
//! including *bounded* variable offsets for packet and map-value pointers.
//! Its [`Verdict`] is the safety verdict of both `bpf_safety::SafetyChecker`
//! (every search candidate) and `bpf_safety::LinuxVerifier` (the
//! kernel-checker model of the post-processing pass).
//!
//! Like the kernel's checker, the walk decides a conditional branch when the
//! tracked ranges fix its outcome (the kernel's `is_branch_taken`) and then
//! explores only the feasible edge, so an error on a path no concrete
//! execution can take does not reject the program. An accepting run also
//! exports per-program-point **facts** through [`ProgramFacts`]: each
//! register's scalar range or pointer provenance, joined over all paths.
//! They are the window preconditions and the stack liveness of the
//! equivalence checker and the constants of the rule-based baseline.
//!
//! # Termination and budget
//!
//! Programs with loops are rejected structurally, so the path walk
//! terminates. Exponential path growth is bounded two ways: a
//! `states_equal`-style pruning cap (a new state subsumed by an
//! already-explored, error-free state at the same block start is skipped)
//! and a complexity limit on the instructions examined across all paths. A
//! run that exhausts the limit is rejected with
//! [`VerifierError::ComplexityExceeded`], as the kernel rejects a program it
//! cannot finish verifying. Facts are joined at every visited program point
//! and widened after repeated joins so fact collection converges quickly
//! even on branch-heavy programs.

use crate::cfg::Cfg;
use crate::tnum::Tnum;
use bpf_isa::{AluOp, HelperId, Insn, JmpOp, MapId, MemSize, Program, ProgramType, Reg, Src};
use std::collections::VecDeque;
use std::fmt;

/// Maximum number of states remembered per block start for subsumption
/// pruning; beyond the cap further states explore without being recorded.
const PRUNE_CAP: usize = 32;

/// Number of fact joins at one program point before switching from join to
/// widening (bounds that still move are dropped to their extremes).
const WIDEN_AFTER: u32 = 16;

// ---------------------------------------------------------------------------
// Errors / verdicts / config
// ---------------------------------------------------------------------------

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifierError {
    /// The program contains a loop (back edge in the CFG).
    Loop,
    /// A jump targets an instruction outside the program.
    JumpOutOfRange {
        /// Index of the jump.
        at: usize,
    },
    /// An instruction can never be reached from the entry.
    UnreachableCode {
        /// Index of the unreachable instruction.
        at: usize,
    },
    /// Control can fall off the end of the program without `exit`.
    FallOffEnd,
    /// A register is read before ever being written (including `r1`–`r5`
    /// after a helper call).
    UninitRegister {
        /// The register.
        reg: Reg,
        /// Instruction index.
        at: usize,
    },
    /// The frame pointer `r10` is written.
    FramePointerWrite {
        /// Instruction index.
        at: usize,
    },
    /// A stack access is outside the 512-byte frame.
    StackOutOfBounds {
        /// Offset relative to `r10`.
        off: i64,
        /// Instruction index.
        at: usize,
    },
    /// A stack slot is read before it is written.
    StackReadBeforeWrite {
        /// Offset relative to `r10`.
        off: i64,
        /// Instruction index.
        at: usize,
    },
    /// A stack access is not aligned to its size.
    Misaligned {
        /// Offset relative to `r10`.
        off: i64,
        /// Access size in bytes.
        size: usize,
        /// Instruction index.
        at: usize,
    },
    /// A packet access is not covered by a bounds check.
    PacketOutOfBounds {
        /// Instruction index.
        at: usize,
    },
    /// A context access is outside the context structure.
    CtxOutOfBounds {
        /// Instruction index.
        at: usize,
    },
    /// An immediate store through a context pointer.
    CtxStoreImm {
        /// Instruction index.
        at: usize,
    },
    /// Any store through a context pointer.
    CtxWrite {
        /// Instruction index.
        at: usize,
    },
    /// A map-value access beyond the declared value size.
    MapValueOutOfBounds {
        /// Instruction index.
        at: usize,
    },
    /// A map-lookup result is used without a null check.
    PossibleNullDeref {
        /// Instruction index.
        at: usize,
    },
    /// Disallowed arithmetic on a pointer.
    PointerArithmetic {
        /// Instruction index.
        at: usize,
    },
    /// A load or store through a non-pointer value.
    UnknownPointerDeref {
        /// Instruction index.
        at: usize,
    },
    /// A helper was called with a bad argument.
    BadHelperArgument {
        /// Instruction index.
        at: usize,
        /// Description.
        what: &'static str,
    },
    /// A helper this model does not know.
    UnknownHelper {
        /// Instruction index.
        at: usize,
    },
    /// The program exceeds the instruction-count limit.
    TooManyInstructions {
        /// Actual length in wire slots.
        len: usize,
        /// The limit.
        limit: usize,
    },
    /// The complexity limit (instructions examined across all paths) is
    /// exhausted before every path was verified.
    ComplexityExceeded {
        /// The limit.
        limit: usize,
    },
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifierError::Loop => write!(f, "back-edge detected (program may loop)"),
            VerifierError::JumpOutOfRange { at } => write!(f, "jump out of range at {at}"),
            VerifierError::UnreachableCode { at } => write!(f, "unreachable instruction at {at}"),
            VerifierError::FallOffEnd => write!(f, "control may fall off the end of the program"),
            VerifierError::UninitRegister { reg, at } => {
                write!(f, "read of uninitialized {reg} at {at}")
            }
            VerifierError::FramePointerWrite { at } => write!(f, "write to r10 at {at}"),
            VerifierError::StackOutOfBounds { off, at } => {
                write!(f, "stack access at offset {off} out of bounds (insn {at})")
            }
            VerifierError::StackReadBeforeWrite { off, at } => {
                write!(f, "stack offset {off} read before write (insn {at})")
            }
            VerifierError::Misaligned { off, size, at } => {
                write!(
                    f,
                    "misaligned {size}-byte stack access at offset {off} (insn {at})"
                )
            }
            VerifierError::PacketOutOfBounds { at } => {
                write!(f, "packet access not covered by a bounds check (insn {at})")
            }
            VerifierError::CtxOutOfBounds { at } => {
                write!(f, "context access out of bounds at {at}")
            }
            VerifierError::CtxStoreImm { at } => {
                write!(f, "immediate store into PTR_TO_CTX at {at}")
            }
            VerifierError::CtxWrite { at } => write!(f, "store into read-only context at {at}"),
            VerifierError::MapValueOutOfBounds { at } => {
                write!(f, "map value access out of bounds at {at}")
            }
            VerifierError::PossibleNullDeref { at } => {
                write!(f, "possible NULL dereference of map value at {at}")
            }
            VerifierError::PointerArithmetic { at } => {
                write!(f, "disallowed arithmetic on a pointer at {at}")
            }
            VerifierError::UnknownPointerDeref { at } => {
                write!(f, "dereference of a non-pointer value at {at}")
            }
            VerifierError::BadHelperArgument { at, what } => {
                write!(f, "bad helper argument at {at}: {what}")
            }
            VerifierError::UnknownHelper { at } => write!(f, "unknown helper at {at}"),
            VerifierError::TooManyInstructions { len, limit } => {
                write!(f, "program has {len} instructions, limit is {limit}")
            }
            VerifierError::ComplexityExceeded { limit } => {
                write!(
                    f,
                    "verifier complexity limit of {limit} examined instructions exceeded"
                )
            }
        }
    }
}

impl std::error::Error for VerifierError {}

/// Verdict of a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every feasible path was explored without error.
    Accept,
    /// The program is rejected with the first error found.
    Reject(VerifierError),
}

impl Verdict {
    /// Whether the program was accepted.
    pub fn is_accept(&self) -> bool {
        matches!(self, Verdict::Accept)
    }
}

/// Configuration of the abstract interpreter: its limits and whether stack
/// accesses must be size-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsintConfig {
    /// Maximum program length in wire slots.
    pub max_insns: usize,
    /// Budget of instructions examined across all explored paths; when
    /// exhausted the program is rejected with
    /// [`VerifierError::ComplexityExceeded`].
    pub complexity_limit: usize,
    /// Enforce size-aligned stack accesses.
    pub enforce_stack_alignment: bool,
}

/// The search's safety budget: `bpf_safety::SafetyChecker` defaults to it,
/// and the equivalence checker's source analysis runs under it, so a source
/// that passes the safety check always gets its facts.
impl Default for AbsintConfig {
    fn default() -> Self {
        AbsintConfig {
            max_insns: 4096,
            complexity_limit: 100_000,
            enforce_stack_alignment: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar domain: tnum + signed/unsigned ranges
// ---------------------------------------------------------------------------

/// Abstract scalar: known bits plus unsigned and signed 64-bit ranges,
/// kept mutually consistent by [`ScalarRange::normalize`] (the kernel's
/// `reg_bounds_sync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarRange {
    /// Known-bits domain.
    pub tnum: Tnum,
    /// Minimum as an unsigned 64-bit value.
    pub umin: u64,
    /// Maximum as an unsigned 64-bit value.
    pub umax: u64,
    /// Minimum as a signed 64-bit value.
    pub smin: i64,
    /// Maximum as a signed 64-bit value.
    pub smax: i64,
}

impl ScalarRange {
    /// The completely unknown scalar.
    pub fn unknown() -> ScalarRange {
        ScalarRange {
            tnum: Tnum::unknown(),
            umin: 0,
            umax: u64::MAX,
            smin: i64::MIN,
            smax: i64::MAX,
        }
    }

    /// The constant `v`.
    pub fn constant(v: u64) -> ScalarRange {
        ScalarRange {
            tnum: Tnum::constant(v),
            umin: v,
            umax: v,
            smin: v as i64,
            smax: v as i64,
        }
    }

    /// The constant, when the scalar is fully determined.
    pub fn as_const(&self) -> Option<u64> {
        if self.umin == self.umax {
            Some(self.umin)
        } else {
            None
        }
    }

    /// A value loaded from memory at the given width (zero-extended).
    pub fn from_load(size: MemSize) -> ScalarRange {
        if size == MemSize::Dword {
            return ScalarRange::unknown();
        }
        let mask = size.mask();
        ScalarRange {
            tnum: Tnum::new(0, mask),
            umin: 0,
            umax: mask,
            smin: 0,
            smax: mask as i64,
        }
    }

    /// Construct from parts and normalize; a contradiction (impossible in a
    /// sound transfer, kept defensive) degrades to the fully unknown scalar.
    fn from_parts(tnum: Tnum, umin: u64, umax: u64, smin: i64, smax: i64) -> ScalarRange {
        let mut s = ScalarRange {
            tnum,
            umin,
            umax,
            smin,
            smax,
        };
        if s.normalize() {
            s
        } else {
            ScalarRange::unknown()
        }
    }

    /// Propagate information between the tnum and the two range views.
    /// Returns `false` when the views contradict (the value set is empty) —
    /// meaningful during branch refinement, where it proves the refined
    /// edge infeasible.
    pub fn normalize(&mut self) -> bool {
        // tnum -> unsigned range.
        self.umin = self.umin.max(self.tnum.umin());
        self.umax = self.umax.min(self.tnum.umax());
        if self.umin > self.umax {
            return false;
        }
        // signed -> unsigned (valid when the signed range has one sign; the
        // `as u64` cast is monotone on either half-line).
        if self.smin >= 0 || self.smax < 0 {
            self.umin = self.umin.max(self.smin as u64);
            self.umax = self.umax.min(self.smax as u64);
        }
        if self.umin > self.umax {
            return false;
        }
        // unsigned -> signed (valid when the unsigned range has one sign bit).
        if self.umax <= i64::MAX as u64 || self.umin > i64::MAX as u64 {
            self.smin = self.smin.max(self.umin as i64);
            self.smax = self.smax.min(self.umax as i64);
        }
        if self.smin > self.smax {
            return false;
        }
        // range -> tnum.
        if self.umin == self.umax {
            match self.tnum.intersect(Tnum::constant(self.umin)) {
                Some(t) => self.tnum = t,
                None => return false,
            }
        }
        true
    }

    /// Least upper bound of the two scalars.
    pub fn join(&self, other: &ScalarRange) -> ScalarRange {
        ScalarRange {
            tnum: self.tnum.join(other.tnum),
            umin: self.umin.min(other.umin),
            umax: self.umax.max(other.umax),
            smin: self.smin.min(other.smin),
            smax: self.smax.max(other.smax),
        }
    }

    /// Widening: any bound still moving between `self` (previous) and
    /// `other` (incoming) is dropped to its extreme so repeated joins
    /// converge. Only used for fact accumulation.
    pub fn widen(&self, other: &ScalarRange) -> ScalarRange {
        ScalarRange {
            tnum: self.tnum.join(other.tnum),
            umin: if other.umin < self.umin { 0 } else { self.umin },
            umax: if other.umax > self.umax {
                u64::MAX
            } else {
                self.umax
            },
            smin: if other.smin < self.smin {
                i64::MIN
            } else {
                self.smin
            },
            smax: if other.smax > self.smax {
                i64::MAX
            } else {
                self.smax
            },
        }
    }

    /// Whether every concrete value of `other` is contained in `self`.
    pub fn subsumes(&self, other: &ScalarRange) -> bool {
        self.umin <= other.umin
            && self.umax >= other.umax
            && self.smin <= other.smin
            && self.smax >= other.smax
            && self.tnum.subsumes(other.tnum)
    }
}

impl fmt::Display for ScalarRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.as_const() {
            write!(f, "{c:#x}")
        } else {
            write!(
                f,
                "u[{},{}] s[{},{}] {}",
                self.umin, self.umax, self.smin, self.smax, self.tnum
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Register domain: provenance-tracked values
// ---------------------------------------------------------------------------

/// Abstract value of a register: scalar with ranges, or a pointer with
/// tracked provenance. The `*Var` variants carry a bounded variable offset
/// (the kernel's `var_off` refinement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsReg {
    /// Never written on this path.
    Uninit,
    /// A non-pointer value.
    Scalar(ScalarRange),
    /// Stack pointer at an exact offset from `r10`.
    PtrStack(i64),
    /// Context pointer at an exact offset.
    PtrCtx(i64),
    /// Packet pointer at an exact offset from the packet start, or with the
    /// offset lost (`None`, rejects every dereference — the collapse target
    /// for `ptr + unbounded scalar`).
    PtrPacket(Option<i64>),
    /// Packet pointer at a *bounded* variable offset `[min, max]`.
    PtrPacketVar {
        /// Smallest possible offset from the packet start.
        min: i64,
        /// Largest possible offset from the packet start.
        max: i64,
    },
    /// The packet-end pointer.
    PtrPacketEnd,
    /// Possibly-NULL result of a map lookup.
    PtrMapValueOrNull {
        /// Map id.
        map: u32,
        /// Offset into the value.
        off: i64,
    },
    /// Non-null map value pointer at an exact offset.
    PtrMapValue {
        /// Map id.
        map: u32,
        /// Offset into the value.
        off: i64,
    },
    /// Map value pointer at a bounded variable offset.
    PtrMapValueVar {
        /// Map id.
        map: u32,
        /// Smallest possible offset into the value.
        min: i64,
        /// Largest possible offset into the value.
        max: i64,
    },
    /// A loaded map handle (`ld_map_fd`).
    MapHandle(u32),
}

impl AbsReg {
    /// Whether the value is a pointer (map handles are not).
    pub fn is_pointer(self) -> bool {
        matches!(
            self,
            AbsReg::PtrStack(_)
                | AbsReg::PtrCtx(_)
                | AbsReg::PtrPacket(_)
                | AbsReg::PtrPacketVar { .. }
                | AbsReg::PtrPacketEnd
                | AbsReg::PtrMapValueOrNull { .. }
                | AbsReg::PtrMapValue { .. }
                | AbsReg::PtrMapValueVar { .. }
        )
    }

    /// The scalar view, when the value is a scalar.
    pub fn scalar(&self) -> Option<&ScalarRange> {
        match self {
            AbsReg::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// Whether exploring from `self` covers every error `other` could
    /// raise downstream (the `states_equal` pruning order). `Uninit` is the
    /// most error-prone value (any use errors); a lost packet pointer
    /// covers every packet-family pointer (all its dereferences error);
    /// scalars and bounded pointers cover by range inclusion; everything
    /// else must match exactly. A scalar never covers a map handle: a
    /// handle errors under pointer arithmetic where a scalar does not.
    fn subsumes(&self, other: &AbsReg) -> bool {
        match (self, other) {
            (AbsReg::Uninit, _) => true,
            (AbsReg::Scalar(a), AbsReg::Scalar(b)) => a.subsumes(b),
            (
                AbsReg::PtrPacket(None),
                AbsReg::PtrPacket(_)
                | AbsReg::PtrPacketVar { .. }
                | AbsReg::PtrPacketEnd
                | AbsReg::PtrMapValueVar { .. },
            ) => true,
            (AbsReg::PtrPacketVar { min, max }, AbsReg::PtrPacket(Some(k))) => {
                *min <= *k && *k <= *max
            }
            (
                AbsReg::PtrPacketVar { min, max },
                AbsReg::PtrPacketVar {
                    min: omin,
                    max: omax,
                },
            ) => min <= omin && max >= omax,
            (AbsReg::PtrMapValueVar { map, min, max }, AbsReg::PtrMapValue { map: omap, off }) => {
                map == omap && *min <= *off && *off <= *max
            }
            (
                AbsReg::PtrMapValueVar { map, min, max },
                AbsReg::PtrMapValueVar {
                    map: omap,
                    min: omin,
                    max: omax,
                },
            ) => map == omap && min <= omin && max >= omax,
            _ => self == other,
        }
    }
}

// ---------------------------------------------------------------------------
// Facts exported to the equivalence checker
// ---------------------------------------------------------------------------

/// Pointer provenance of a register that every path reaching a program
/// point agrees on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A stack pointer at this offset from `r10`, or at an unknown offset
    /// (`None`) when paths disagree on it.
    Stack(Option<i64>),
    /// A pointer that never points into the stack: context, packet, packet
    /// end or map value (possibly NULL).
    NonStack,
    /// A map handle loaded by `ld_map_fd`, with its map id.
    MapHandle(u32),
}

impl Provenance {
    /// The provenance of one path's register value. A lost pointer
    /// (`ptr + unbounded scalar`) may have been a stack pointer, so it has
    /// none; every dereference of it is rejected anyway.
    fn of(reg: &AbsReg) -> Option<Provenance> {
        match *reg {
            AbsReg::PtrStack(o) => Some(Provenance::Stack(Some(o))),
            AbsReg::PtrCtx(_)
            | AbsReg::PtrPacket(Some(_))
            | AbsReg::PtrPacketVar { .. }
            | AbsReg::PtrPacketEnd
            | AbsReg::PtrMapValueOrNull { .. }
            | AbsReg::PtrMapValue { .. }
            | AbsReg::PtrMapValueVar { .. } => Some(Provenance::NonStack),
            AbsReg::MapHandle(m) => Some(Provenance::MapHandle(m)),
            AbsReg::PtrPacket(None) | AbsReg::Uninit | AbsReg::Scalar(_) => None,
        }
    }

    /// Join across paths; `None` when the paths hold different kinds.
    fn join(self, other: Provenance) -> Option<Provenance> {
        match (self, other) {
            (Provenance::Stack(a), Provenance::Stack(b)) => {
                Some(Provenance::Stack(if a == b { a } else { None }))
            }
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }
}

/// Per-register fact accumulation at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactCell {
    /// No state has reached this point yet.
    NotSeen,
    /// Every state so far held a scalar; the join (count tracks widening).
    Scalar(ScalarRange, u32),
    /// Every state so far held a pointer or map handle of this provenance.
    Ptr(Provenance),
    /// The states disagree on the kind of value, or one held no fact (an
    /// uninitialized register, a lost pointer).
    Mixed,
}

/// Per-program-point facts derived by a [`Verdict::Accept`] run: the
/// scalar range or the pointer provenance of each register, joined over
/// every path reaching the point. Facts over-approximate every concrete
/// execution, so they are sound to assume as preconditions. A rejecting
/// run exports empty facts (everything unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramFacts {
    /// Per-pc, per-register fact *before* executing the instruction.
    cells: Vec<[FactCell; 11]>,
}

impl ProgramFacts {
    /// Empty facts for a program of `len` instructions: nothing known.
    pub fn empty(len: usize) -> ProgramFacts {
        ProgramFacts {
            cells: vec![[FactCell::NotSeen; 11]; len],
        }
    }

    /// The scalar fact holding for `reg` just before instruction `pc`, if
    /// every path reaching `pc` carries a scalar there.
    pub fn fact(&self, pc: usize, reg: Reg) -> Option<ScalarRange> {
        match self.cells.get(pc)?[reg.index()] {
            FactCell::Scalar(s, _) => Some(s),
            _ => None,
        }
    }

    /// The pointer provenance of `reg` just before instruction `pc`, if
    /// every path reaching `pc` carries a pointer or map handle of one kind
    /// there.
    pub fn provenance(&self, pc: usize, reg: Reg) -> Option<Provenance> {
        match self.cells.get(pc)?[reg.index()] {
            FactCell::Ptr(p) => Some(p),
            _ => None,
        }
    }

    fn observe(&mut self, pc: usize, regs: &[AbsReg; 11]) {
        let row = &mut self.cells[pc];
        for (cell, reg) in row.iter_mut().zip(regs.iter()) {
            *cell = match (*cell, reg) {
                (FactCell::Mixed, _) => FactCell::Mixed,
                (FactCell::NotSeen, AbsReg::Scalar(s)) => FactCell::Scalar(*s, 1),
                (FactCell::NotSeen, _) => {
                    Provenance::of(reg).map_or(FactCell::Mixed, FactCell::Ptr)
                }
                (FactCell::Scalar(prev, n), AbsReg::Scalar(s)) => {
                    let merged = if n >= WIDEN_AFTER {
                        prev.widen(s)
                    } else {
                        prev.join(s)
                    };
                    FactCell::Scalar(merged, n.saturating_add(1))
                }
                (FactCell::Scalar(..), _) => FactCell::Mixed,
                (FactCell::Ptr(p), _) => Provenance::of(reg)
                    .and_then(|q| p.join(q))
                    .map_or(FactCell::Mixed, FactCell::Ptr),
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Run statistics and result
// ---------------------------------------------------------------------------

/// Statistics of one abstract-interpretation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsintStats {
    /// Instructions examined across all explored paths.
    pub insns_examined: usize,
    /// Worklist states popped and walked.
    pub states_explored: usize,
    /// States skipped because an explored state subsumed them.
    pub states_pruned: usize,
    /// Complete paths walked to `exit`.
    pub paths: usize,
    /// Conditional-branch visits decided one way by range analysis.
    pub branches_decided: usize,
}

/// Result of [`analyze`]: verdict, exported facts and run statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsintResult {
    /// Accept / reject.
    pub verdict: Verdict,
    /// Derived facts; empty unless the verdict is accept.
    pub facts: ProgramFacts,
    /// Run statistics.
    pub stats: AbsintStats,
}

// ---------------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct AbsState {
    pc: usize,
    regs: [AbsReg; 11],
    stack_init: [bool; 512],
    /// Packet bytes proven readable by bounds checks on this path.
    verified_pkt: i64,
}

impl AbsState {
    fn entry() -> AbsState {
        let mut regs = [AbsReg::Uninit; 11];
        regs[Reg::R1.index()] = AbsReg::PtrCtx(0);
        regs[Reg::R10.index()] = AbsReg::PtrStack(0);
        AbsState {
            pc: 0,
            regs,
            stack_init: [false; 512],
            verified_pkt: 0,
        }
    }

    /// Whether exploring from `self` (error-free) makes exploring `other`
    /// redundant: pointwise register subsumption, `self` at most as
    /// initialized, `self` with at most as many proven packet bytes.
    fn subsumes(&self, other: &AbsState) -> bool {
        self.verified_pkt <= other.verified_pkt
            && self
                .regs
                .iter()
                .zip(other.regs.iter())
                .all(|(a, b)| a.subsumes(b))
            && self
                .stack_init
                .iter()
                .zip(other.stack_init.iter())
                .all(|(a, b)| !*a || *b)
    }
}

/// Run the abstract interpreter over a program.
pub fn analyze(prog: &Program, config: &AbsintConfig) -> AbsintResult {
    let mut stats = AbsintStats::default();
    let mut facts = ProgramFacts::empty(prog.insns.len());
    let verdict = match walk(prog, config, &mut stats, &mut facts) {
        Ok(()) => Verdict::Accept,
        Err(e) => {
            // Facts are only sound when every path was walked to completion.
            facts = ProgramFacts::empty(prog.insns.len());
            Verdict::Reject(e)
        }
    };
    AbsintResult {
        verdict,
        facts,
        stats,
    }
}

fn walk(
    prog: &Program,
    config: &AbsintConfig,
    stats: &mut AbsintStats,
    facts: &mut ProgramFacts,
) -> Result<(), VerifierError> {
    if prog.insns.is_empty() {
        return Err(VerifierError::FallOffEnd);
    }
    if prog.slot_len() > config.max_insns {
        return Err(VerifierError::TooManyInstructions {
            len: prog.slot_len(),
            limit: config.max_insns,
        });
    }
    let cfg = match Cfg::build(&prog.insns) {
        Ok(c) => c,
        Err(crate::cfg::CfgError::JumpOutOfRange { at, .. }) => {
            return Err(VerifierError::JumpOutOfRange { at })
        }
        Err(_) => return Err(VerifierError::FallOffEnd),
    };
    if cfg.has_loop() {
        return Err(VerifierError::Loop);
    }
    let reach = cfg.reachable();
    for (idx, insn) in prog.insns.iter().enumerate() {
        if !reach[cfg.block_of_insn[idx]] && !matches!(insn, Insn::Nop) {
            return Err(VerifierError::UnreachableCode { at: idx });
        }
    }
    let mut is_block_start = vec![false; prog.insns.len()];
    for block in &cfg.blocks {
        if block.start < is_block_start.len() {
            is_block_start[block.start] = true;
        }
    }

    let ctx_size = prog.prog_type.ctx_size() as i64;
    let mut visited: Vec<Vec<AbsState>> = vec![Vec::new(); prog.insns.len()];
    let mut work: VecDeque<AbsState> = VecDeque::new();
    work.push_back(AbsState::entry());
    while let Some(mut state) = work.pop_front() {
        stats.states_explored += 1;
        loop {
            if stats.insns_examined >= config.complexity_limit {
                return Err(VerifierError::ComplexityExceeded {
                    limit: config.complexity_limit,
                });
            }
            let at = state.pc;
            let insn = match prog.insns.get(at) {
                Some(i) => *i,
                None => return Err(VerifierError::FallOffEnd),
            };
            // Record facts before the prune check so pruned states still
            // contribute their values at this point.
            facts.observe(at, &state.regs);
            if is_block_start[at] {
                if visited[at].iter().any(|v| v.subsumes(&state)) {
                    stats.states_pruned += 1;
                    break;
                }
                if visited[at].len() < PRUNE_CAP {
                    visited[at].push(state.clone());
                }
            }
            stats.insns_examined += 1;

            // The reference interpreter reads an ALU source register even
            // for `neg`, which ignores it (`Insn::uses` leaves it out), so
            // an uninitialized one traps there. The kernel rejects any
            // register-sourced `neg` ("BPF_NEG uses reserved fields").
            let alu_src = match insn {
                Insn::Alu64 {
                    src: Src::Reg(r), ..
                }
                | Insn::Alu32 {
                    src: Src::Reg(r), ..
                } => Some(r),
                _ => None,
            };
            for r in insn.uses().into_iter().chain(alu_src) {
                if state.regs[r.index()] == AbsReg::Uninit {
                    return Err(VerifierError::UninitRegister { reg: r, at });
                }
            }
            if insn.def() == Some(Reg::R10) {
                return Err(VerifierError::FramePointerWrite { at });
            }

            match insn {
                Insn::Exit => {
                    stats.paths += 1;
                    break;
                }
                Insn::Ja { .. } => {
                    state.pc = insn.jump_target(at).expect("ja target") as usize;
                }
                Insn::Jmp { op, dst, src, .. } | Insn::Jmp32 { op, dst, src, .. } => {
                    let is32 = matches!(insn, Insn::Jmp32 { .. });
                    let taken_pc = insn.jump_target(at).expect("jmp target") as usize;
                    let fall_pc = at + 1;
                    match eval_branch(&state, op, dst, src, is32) {
                        Some(true) => {
                            stats.branches_decided += 1;
                            state.pc = taken_pc;
                        }
                        Some(false) => {
                            stats.branches_decided += 1;
                            state.pc = fall_pc;
                        }
                        None => {
                            let (taken, fall) = branch_refine(&state, op, dst, src, is32);
                            match (taken, fall) {
                                (Some(mut t), Some(f)) => {
                                    t.pc = taken_pc;
                                    work.push_back(t);
                                    state = f;
                                    state.pc = fall_pc;
                                }
                                (Some(mut t), None) => {
                                    stats.branches_decided += 1;
                                    t.pc = taken_pc;
                                    state = t;
                                }
                                (None, Some(f)) => {
                                    stats.branches_decided += 1;
                                    state = f;
                                    state.pc = fall_pc;
                                }
                                (None, None) => {
                                    // Both refinements contradict: the state
                                    // itself is empty, so the path ends.
                                    break;
                                }
                            }
                        }
                    }
                }
                _ => {
                    step(&mut state, &insn, at, prog, ctx_size, config)?;
                    state.pc = at + 1;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Branch evaluation and refinement
// ---------------------------------------------------------------------------

fn scalar_operand(state: &AbsState, src: Src) -> Option<ScalarRange> {
    match src {
        Src::Imm(i) => Some(ScalarRange::constant(i as i64 as u64)),
        Src::Reg(r) => state.regs[r.index()].scalar().copied(),
    }
}

/// Decide the branch when the ranges admit only one outcome. 32-bit
/// compares are decided only for fully constant operands (exact `eval32`);
/// anything touching a pointer is never decided here.
fn eval_branch(state: &AbsState, op: JmpOp, dst: Reg, src: Src, is32: bool) -> Option<bool> {
    let d = state.regs[dst.index()].scalar().copied()?;
    let s = scalar_operand(state, src)?;
    if is32 {
        return match (d.as_const(), s.as_const()) {
            (Some(a), Some(b)) => Some(op.eval32(a as u32, b as u32)),
            _ => None,
        };
    }
    if let (Some(a), Some(b)) = (d.as_const(), s.as_const()) {
        return Some(op.eval64(a, b));
    }
    let ranges_disjoint = d.umax < s.umin || s.umax < d.umin || d.smax < s.smin || s.smax < d.smin;
    let tnum_disjoint = d.tnum.intersect(s.tnum).is_none();
    match op {
        JmpOp::Eq => {
            if ranges_disjoint || tnum_disjoint {
                Some(false)
            } else {
                None
            }
        }
        JmpOp::Ne => {
            if ranges_disjoint || tnum_disjoint {
                Some(true)
            } else {
                None
            }
        }
        JmpOp::Gt => decide(d.umin > s.umax, d.umax <= s.umin),
        JmpOp::Ge => decide(d.umin >= s.umax, d.umax < s.umin),
        JmpOp::Lt => decide(d.umax < s.umin, d.umin >= s.umax),
        JmpOp::Le => decide(d.umax <= s.umin, d.umin > s.umax),
        JmpOp::Sgt => decide(d.smin > s.smax, d.smax <= s.smin),
        JmpOp::Sge => decide(d.smin >= s.smax, d.smax < s.smin),
        JmpOp::Slt => decide(d.smax < s.smin, d.smin >= s.smax),
        JmpOp::Sle => decide(d.smax <= s.smin, d.smin > s.smax),
        JmpOp::Set => {
            if d.tnum.value & s.tnum.value != 0 {
                Some(true)
            } else if (d.tnum.value | d.tnum.mask) & (s.tnum.value | s.tnum.mask) == 0 {
                Some(false)
            } else {
                None
            }
        }
    }
}

fn decide(always: bool, never: bool) -> Option<bool> {
    if always {
        Some(true)
    } else if never {
        Some(false)
    } else {
        None
    }
}

/// Refine the register state along both edges of an undecided branch.
/// Returns `None` for an edge whose refinement contradicts (proven
/// infeasible): null checks, packet bounds checks and scalar ranges.
fn branch_refine(
    state: &AbsState,
    op: JmpOp,
    dst: Reg,
    src: Src,
    is32: bool,
) -> (Option<AbsState>, Option<AbsState>) {
    let mut taken = state.clone();
    let mut fall = state.clone();
    let d = state.regs[dst.index()];

    // NULL-check refinement for map-lookup results (applies to 32-bit
    // compares too).
    if let AbsReg::PtrMapValueOrNull { map, off } = d {
        if let Src::Imm(0) = src {
            match op {
                JmpOp::Eq => {
                    taken.regs[dst.index()] = AbsReg::Scalar(ScalarRange::constant(0));
                    fall.regs[dst.index()] = AbsReg::PtrMapValue { map, off };
                }
                JmpOp::Ne => {
                    taken.regs[dst.index()] = AbsReg::PtrMapValue { map, off };
                    fall.regs[dst.index()] = AbsReg::Scalar(ScalarRange::constant(0));
                }
                _ => {}
            }
        }
    }

    // Packet bounds-check refinement, extended to bounded variable offsets:
    // a check on `pkt + [min,max]` still proves `min` bytes from the packet
    // start.
    let proven_bytes = |r: AbsReg| -> Option<i64> {
        match r {
            AbsReg::PtrPacket(Some(k)) => Some(k),
            AbsReg::PtrPacketVar { min, .. } => Some(min),
            _ => None,
        }
    };
    if let (Some(k), Src::Reg(s)) = (proven_bytes(d), src) {
        if state.regs[s.index()] == AbsReg::PtrPacketEnd {
            match op {
                JmpOp::Gt | JmpOp::Ge => fall.verified_pkt = fall.verified_pkt.max(k),
                JmpOp::Le | JmpOp::Lt => taken.verified_pkt = taken.verified_pkt.max(k),
                _ => {}
            }
        }
    }
    if let (AbsReg::PtrPacketEnd, Src::Reg(s)) = (d, src) {
        if let Some(k) = proven_bytes(state.regs[s.index()]) {
            match op {
                JmpOp::Lt | JmpOp::Le => fall.verified_pkt = fall.verified_pkt.max(k),
                JmpOp::Ge | JmpOp::Gt => taken.verified_pkt = taken.verified_pkt.max(k),
                _ => {}
            }
        }
    }

    // Scalar range refinement: 64-bit compares between scalars only.
    if !is32 {
        if let (Some(ds), Some(ss)) = (d.scalar().copied(), scalar_operand(state, src)) {
            let taken_ok = refine_edge(&mut taken, dst, src, op, ds, ss);
            let fall_ok = match op.negate() {
                Some(neg) => refine_edge(&mut fall, dst, src, neg, ds, ss),
                None => true,
            };
            return (taken_ok.then_some(taken), fall_ok.then_some(fall));
        }
    }
    (Some(taken), Some(fall))
}

/// Refine `state` under the assumption `d <op> s` holds; write the refined
/// operands back. Returns `false` when the assumption contradicts the
/// current ranges (the edge is infeasible).
fn refine_edge(
    state: &mut AbsState,
    dst: Reg,
    src: Src,
    op: JmpOp,
    mut d: ScalarRange,
    mut s: ScalarRange,
) -> bool {
    if !refine_true(op, &mut d, &mut s) {
        return false;
    }
    state.regs[dst.index()] = AbsReg::Scalar(d);
    if let Src::Reg(r) = src {
        state.regs[r.index()] = AbsReg::Scalar(s);
    }
    true
}

fn refine_true(op: JmpOp, d: &mut ScalarRange, s: &mut ScalarRange) -> bool {
    match op {
        JmpOp::Eq => {
            let tnum = match d.tnum.intersect(s.tnum) {
                Some(t) => t,
                None => return false,
            };
            let merged = ScalarRange {
                tnum,
                umin: d.umin.max(s.umin),
                umax: d.umax.min(s.umax),
                smin: d.smin.max(s.smin),
                smax: d.smax.min(s.smax),
            };
            *d = merged;
            *s = merged;
        }
        JmpOp::Ne => {
            if let Some(c) = s.as_const() {
                if d.as_const() == Some(c) {
                    return false;
                }
                if d.umin == c {
                    d.umin += 1;
                }
                if d.umax == c {
                    d.umax -= 1;
                }
                if d.smin == c as i64 {
                    d.smin += 1;
                }
                if d.smax == c as i64 {
                    d.smax -= 1;
                }
            }
            if let Some(c) = d.as_const() {
                if s.umin == c {
                    s.umin += 1;
                }
                if s.umax == c {
                    s.umax -= 1;
                }
                if s.smin == c as i64 {
                    s.smin += 1;
                }
                if s.smax == c as i64 {
                    s.smax -= 1;
                }
            }
        }
        JmpOp::Gt => {
            if s.umin == u64::MAX || d.umax == 0 {
                return false;
            }
            d.umin = d.umin.max(s.umin + 1);
            s.umax = s.umax.min(d.umax - 1);
        }
        JmpOp::Ge => {
            d.umin = d.umin.max(s.umin);
            s.umax = s.umax.min(d.umax);
        }
        JmpOp::Lt => {
            if d.umin == u64::MAX || s.umax == 0 {
                return false;
            }
            d.umax = d.umax.min(s.umax - 1);
            s.umin = s.umin.max(d.umin + 1);
        }
        JmpOp::Le => {
            d.umax = d.umax.min(s.umax);
            s.umin = s.umin.max(d.umin);
        }
        JmpOp::Sgt => {
            if s.smin == i64::MAX || d.smax == i64::MIN {
                return false;
            }
            d.smin = d.smin.max(s.smin + 1);
            s.smax = s.smax.min(d.smax - 1);
        }
        JmpOp::Sge => {
            d.smin = d.smin.max(s.smin);
            s.smax = s.smax.min(d.smax);
        }
        JmpOp::Slt => {
            if d.smin == i64::MAX || s.smax == i64::MIN {
                return false;
            }
            d.smax = d.smax.min(s.smax - 1);
            s.smin = s.smin.max(d.smin + 1);
        }
        JmpOp::Sle => {
            d.smax = d.smax.min(s.smax);
            s.smin = s.smin.max(d.smin);
        }
        JmpOp::Set => {}
    }
    d.normalize() && s.normalize()
}

// ---------------------------------------------------------------------------
// Instruction transfer
// ---------------------------------------------------------------------------

fn operand(state: &AbsState, src: Src) -> AbsReg {
    match src {
        Src::Reg(r) => state.regs[r.index()],
        Src::Imm(i) => AbsReg::Scalar(ScalarRange::constant(i as i64 as u64)),
    }
}

#[allow(clippy::too_many_lines)]
fn step(
    state: &mut AbsState,
    insn: &Insn,
    at: usize,
    prog: &Program,
    ctx_size: i64,
    config: &AbsintConfig,
) -> Result<(), VerifierError> {
    match *insn {
        Insn::Alu64 { op, dst, src } => {
            let d = state.regs[dst.index()];
            let s = operand(state, src);
            state.regs[dst.index()] = alu64_abs(op, d, s, at)?;
        }
        Insn::Alu32 { op, dst, src } => {
            let d = state.regs[dst.index()];
            let s = operand(state, src);
            if d.is_pointer() || s.is_pointer() {
                return Err(VerifierError::PointerArithmetic { at });
            }
            state.regs[dst.index()] = AbsReg::Scalar(alu32_scalar(op, &d, &s));
        }
        Insn::Endian { order, width, dst } => {
            let d = state.regs[dst.index()];
            if d.is_pointer() {
                return Err(VerifierError::PointerArithmetic { at });
            }
            let result = match d.scalar().and_then(ScalarRange::as_const) {
                Some(c) => ScalarRange::constant(order.apply(c, width)),
                None if width < 64 => {
                    let mask = (1u64 << width) - 1;
                    ScalarRange::from_parts(Tnum::new(0, mask), 0, mask, 0, mask as i64)
                }
                None => ScalarRange::unknown(),
            };
            state.regs[dst.index()] = AbsReg::Scalar(result);
        }
        Insn::Load {
            size,
            dst,
            base,
            off,
        } => {
            let value = check_mem_access(
                state,
                base,
                off,
                size,
                at,
                prog,
                ctx_size,
                config,
                Access::Load,
            )?;
            state.regs[dst.index()] = value;
        }
        Insn::Store {
            size, base, off, ..
        } => {
            check_mem_access(
                state,
                base,
                off,
                size,
                at,
                prog,
                ctx_size,
                config,
                Access::Store,
            )?;
        }
        Insn::StoreImm {
            size, base, off, ..
        } => {
            if matches!(state.regs[base.index()], AbsReg::PtrCtx(_)) {
                return Err(VerifierError::CtxStoreImm { at });
            }
            check_mem_access(
                state,
                base,
                off,
                size,
                at,
                prog,
                ctx_size,
                config,
                Access::Store,
            )?;
        }
        Insn::AtomicAdd {
            size, base, off, ..
        } => {
            check_mem_access(
                state,
                base,
                off,
                size,
                at,
                prog,
                ctx_size,
                config,
                Access::Atomic,
            )?;
        }
        Insn::LoadImm64 { dst, imm } => {
            state.regs[dst.index()] = AbsReg::Scalar(ScalarRange::constant(imm as u64));
        }
        Insn::LoadMapFd { dst, map_id } => {
            if prog.map(MapId(map_id)).is_none() {
                return Err(VerifierError::BadHelperArgument {
                    at,
                    what: "undeclared map id",
                });
            }
            state.regs[dst.index()] = AbsReg::MapHandle(map_id);
        }
        Insn::Call { helper } => {
            check_helper_call(state, helper, at, prog)?;
        }
        Insn::Nop | Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Jmp32 { .. } | Insn::Exit => {}
    }
    Ok(())
}

/// Pointer arithmetic: a constant delta moves the exact offset; a
/// non-constant delta gives packet and map-value pointers a *bounded*
/// variable offset. Where no bound exists (unbounded delta, stack or ctx
/// base) the result is a lost pointer that every dereference rejects.
fn ptr_add(p: AbsReg, delta: AbsReg, sign: i64, at: usize) -> Result<AbsReg, VerifierError> {
    let sc = match delta {
        AbsReg::Scalar(sc) => sc,
        _ => return Err(VerifierError::PointerArithmetic { at }),
    };
    // Signed displacement bounds of the delta (negated for subtraction).
    let (dmin, dmax) = if sign >= 0 {
        (sc.smin, sc.smax)
    } else {
        match (sc.smax.checked_neg(), sc.smin.checked_neg()) {
            (Some(a), Some(b)) => (a, b),
            _ => (i64::MIN, i64::MAX),
        }
    };
    let k = sc.as_const().map(|c| (c as i64).wrapping_mul(sign));
    let lost = AbsReg::PtrPacket(None);
    let shift_var = |min: i64, max: i64| -> AbsReg {
        match (min.checked_add(dmin), max.checked_add(dmax)) {
            (Some(a), Some(b)) => AbsReg::PtrPacketVar { min: a, max: b },
            _ => lost,
        }
    };
    Ok(match (p, k) {
        (AbsReg::PtrStack(o), Some(k)) => AbsReg::PtrStack(o.wrapping_add(k)),
        (AbsReg::PtrCtx(o), Some(k)) => AbsReg::PtrCtx(o.wrapping_add(k)),
        (AbsReg::PtrPacket(Some(o)), Some(k)) => AbsReg::PtrPacket(Some(o.wrapping_add(k))),
        (AbsReg::PtrPacket(Some(o)), None) => shift_var(o, o),
        (AbsReg::PtrPacketVar { min, max }, Some(k)) => {
            match (min.checked_add(k), max.checked_add(k)) {
                (Some(a), Some(b)) => AbsReg::PtrPacketVar { min: a, max: b },
                _ => lost,
            }
        }
        (AbsReg::PtrPacketVar { min, max }, None) => shift_var(min, max),
        (AbsReg::PtrPacket(None), _) => lost,
        (AbsReg::PtrMapValue { map, off }, Some(k)) => AbsReg::PtrMapValue {
            map,
            off: off.wrapping_add(k),
        },
        (AbsReg::PtrMapValue { map, off }, None) => {
            match (off.checked_add(dmin), off.checked_add(dmax)) {
                (Some(a), Some(b)) => AbsReg::PtrMapValueVar {
                    map,
                    min: a,
                    max: b,
                },
                _ => lost,
            }
        }
        (AbsReg::PtrMapValueVar { map, min, max }, _) => {
            let (lo, hi) = match k {
                Some(k) => (k, k),
                None => (dmin, dmax),
            };
            match (min.checked_add(lo), max.checked_add(hi)) {
                (Some(a), Some(b)) => AbsReg::PtrMapValueVar {
                    map,
                    min: a,
                    max: b,
                },
                _ => lost,
            }
        }
        (AbsReg::PtrMapValueOrNull { .. }, _) => {
            return Err(VerifierError::PossibleNullDeref { at })
        }
        (AbsReg::PtrPacketEnd, _) => AbsReg::PtrPacketEnd,
        (AbsReg::PtrStack(_) | AbsReg::PtrCtx(_), None) => lost,
        _ => AbsReg::Scalar(ScalarRange::unknown()),
    })
}

fn alu64_abs(op: AluOp, d: AbsReg, s: AbsReg, at: usize) -> Result<AbsReg, VerifierError> {
    match op {
        AluOp::Mov => Ok(s),
        AluOp::Add => {
            if d.is_pointer() && s.is_pointer() {
                return Err(VerifierError::PointerArithmetic { at });
            }
            if d.is_pointer() {
                ptr_add(d, s, 1, at)
            } else if s.is_pointer() {
                ptr_add(s, d, 1, at)
            } else {
                Ok(AbsReg::Scalar(scalar_transfer(op, &d, &s)))
            }
        }
        AluOp::Sub => {
            if d.is_pointer() && s.is_pointer() {
                // ptr - ptr yields a scalar length (allowed for packet maths).
                return Ok(AbsReg::Scalar(ScalarRange::unknown()));
            }
            if d.is_pointer() {
                ptr_add(d, s, -1, at)
            } else if s.is_pointer() {
                Err(VerifierError::PointerArithmetic { at })
            } else {
                Ok(AbsReg::Scalar(scalar_transfer(op, &d, &s)))
            }
        }
        _ => {
            if d.is_pointer() || s.is_pointer() {
                return Err(VerifierError::PointerArithmetic { at });
            }
            Ok(AbsReg::Scalar(scalar_transfer(op, &d, &s)))
        }
    }
}

fn as_scalar(r: &AbsReg) -> ScalarRange {
    r.scalar().copied().unwrap_or_else(ScalarRange::unknown)
}

/// 64-bit scalar transfer. Both-constant operands fold exactly through the
/// shared `eval64` semantics.
#[allow(clippy::too_many_lines)]
fn scalar_transfer(op: AluOp, dr: &AbsReg, sr: &AbsReg) -> ScalarRange {
    let a = as_scalar(dr);
    let b = as_scalar(sr);
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return ScalarRange::constant(op.eval64(x, y));
    }
    let full_u = (0u64, u64::MAX);
    let full_s = (i64::MIN, i64::MAX);
    match op {
        AluOp::Add => {
            let t = a.tnum.add(b.tnum);
            let (umin, umax) = match (a.umin.checked_add(b.umin), a.umax.checked_add(b.umax)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => full_u,
            };
            let (smin, smax) = match (a.smin.checked_add(b.smin), a.smax.checked_add(b.smax)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => full_s,
            };
            ScalarRange::from_parts(t, umin, umax, smin, smax)
        }
        AluOp::Sub => {
            let t = a.tnum.sub(b.tnum);
            let (umin, umax) = if a.umin >= b.umax {
                (a.umin - b.umax, a.umax.saturating_sub(b.umin))
            } else {
                full_u
            };
            let (smin, smax) = match (a.smin.checked_sub(b.smax), a.smax.checked_sub(b.smin)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => full_s,
            };
            ScalarRange::from_parts(t, umin, umax, smin, smax)
        }
        AluOp::Mul => {
            let t = a.tnum.mul(b.tnum);
            let (umin, umax) = match (a.umin.checked_mul(b.umin), a.umax.checked_mul(b.umax)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => full_u,
            };
            ScalarRange::from_parts(t, umin, umax, full_s.0, full_s.1)
        }
        AluOp::Div => {
            // Unsigned division; division by zero yields zero, so a
            // possibly-zero divisor widens to [0, a.umax].
            let (umin, umax) = match (a.umin.checked_div(b.umax), a.umax.checked_div(b.umin)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (0, a.umax),
            };
            ScalarRange::from_parts(Tnum::unknown(), umin, umax, full_s.0, full_s.1)
        }
        AluOp::Mod => {
            // x % 0 == x, so a possibly-zero divisor keeps the dividend.
            let umax = if b.umin > 0 {
                a.umax.min(b.umax - 1)
            } else {
                a.umax
            };
            ScalarRange::from_parts(Tnum::unknown(), 0, umax, full_s.0, full_s.1)
        }
        AluOp::And => {
            let t = a.tnum.and(b.tnum);
            ScalarRange::from_parts(
                t,
                t.umin(),
                a.umax.min(b.umax).min(t.umax()),
                full_s.0,
                full_s.1,
            )
        }
        AluOp::Or => {
            let t = a.tnum.or(b.tnum);
            ScalarRange::from_parts(
                t,
                a.umin.max(b.umin).max(t.umin()),
                t.umax(),
                full_s.0,
                full_s.1,
            )
        }
        AluOp::Xor => {
            let t = a.tnum.xor(b.tnum);
            ScalarRange::from_parts(t, t.umin(), t.umax(), full_s.0, full_s.1)
        }
        AluOp::Lsh => {
            let t = a.tnum.lsh(b.tnum);
            let (umin, umax) = match b.as_const() {
                Some(c) => {
                    let c = (c & 63) as u32;
                    if a.umax.leading_zeros() >= c {
                        (a.umin << c, a.umax << c)
                    } else {
                        full_u
                    }
                }
                None => full_u,
            };
            ScalarRange::from_parts(t, umin, umax, full_s.0, full_s.1)
        }
        AluOp::Rsh => {
            let t = a.tnum.rsh(b.tnum);
            let (umin, umax) = match b.as_const() {
                Some(c) => {
                    let c = (c & 63) as u32;
                    (a.umin >> c, a.umax >> c)
                }
                None if b.umax < 64 => (a.umin >> b.umax, a.umax >> b.umin),
                None => (0, t.umax()),
            };
            ScalarRange::from_parts(t, umin, umax, full_s.0, full_s.1)
        }
        AluOp::Arsh => {
            let t = a.tnum.arsh(b.tnum, 64);
            let (smin, smax) = match b.as_const() {
                Some(c) => {
                    let c = (c & 63) as u32;
                    (a.smin >> c, a.smax >> c)
                }
                None => full_s,
            };
            ScalarRange::from_parts(t, full_u.0, full_u.1, smin, smax)
        }
        AluOp::Neg => {
            let t = Tnum::constant(0).sub(a.tnum);
            let (smin, smax) = match (a.smax.checked_neg(), a.smin.checked_neg()) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => full_s,
            };
            ScalarRange::from_parts(t, full_u.0, full_u.1, smin, smax)
        }
        AluOp::Mov => b,
    }
}

/// 32-bit ALU transfer: operate on the low 32 bits through the tnum domain
/// and zero-extend. Constant operands fold exactly through `eval32`.
fn alu32_scalar(op: AluOp, dr: &AbsReg, sr: &AbsReg) -> ScalarRange {
    let a = as_scalar(dr);
    let b = as_scalar(sr);
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return ScalarRange::constant(op.eval32(x as u32, y as u32) as u64);
    }
    let a32 = a.tnum.cast32();
    let b32 = b.tnum.cast32();
    let count = b32.and(Tnum::constant(31));
    let t = match op {
        AluOp::Add => a32.add(b32),
        AluOp::Sub => a32.sub(b32),
        AluOp::Mul => a32.mul(b32),
        AluOp::And => a32.and(b32),
        AluOp::Or => a32.or(b32),
        AluOp::Xor => a32.xor(b32),
        AluOp::Lsh => a32.lsh(count),
        AluOp::Rsh => a32.rsh(count),
        AluOp::Arsh => a32.arsh(count, 32),
        AluOp::Neg => Tnum::constant(0).sub(a32),
        AluOp::Mov => b32,
        AluOp::Div | AluOp::Mod => Tnum::unknown(),
    }
    .cast32();
    ScalarRange::from_parts(t, t.umin(), t.umax(), 0, u32::MAX as i64)
}

// ---------------------------------------------------------------------------
// Memory and helper checks
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Load,
    Store,
    Atomic,
}

#[allow(clippy::too_many_arguments)]
fn check_mem_access(
    state: &mut AbsState,
    base: Reg,
    off: i16,
    size: MemSize,
    at: usize,
    prog: &Program,
    ctx_size: i64,
    config: &AbsintConfig,
    access: Access,
) -> Result<AbsReg, VerifierError> {
    let b = state.regs[base.index()];
    let nbytes = size.bytes() as i64;
    match b {
        AbsReg::PtrStack(reg_off) => {
            let start = reg_off + off as i64;
            if start < -512 || start + nbytes > 0 {
                return Err(VerifierError::StackOutOfBounds { off: start, at });
            }
            if config.enforce_stack_alignment && start.rem_euclid(nbytes) != 0 {
                return Err(VerifierError::Misaligned {
                    off: start,
                    size: size.bytes(),
                    at,
                });
            }
            let lo = (512 + start) as usize;
            match access {
                Access::Load | Access::Atomic => {
                    for i in lo..lo + size.bytes() {
                        if !state.stack_init[i] {
                            return Err(VerifierError::StackReadBeforeWrite { off: start, at });
                        }
                    }
                }
                Access::Store => {}
            }
            if matches!(access, Access::Store | Access::Atomic) {
                for i in lo..lo + size.bytes() {
                    state.stack_init[i] = true;
                }
            }
            Ok(AbsReg::Scalar(ScalarRange::from_load(size)))
        }
        AbsReg::PtrCtx(reg_off) => {
            if matches!(access, Access::Store | Access::Atomic) {
                return Err(VerifierError::CtxWrite { at });
            }
            let start = reg_off + off as i64;
            if start < 0 || start + nbytes > ctx_size {
                return Err(VerifierError::CtxOutOfBounds { at });
            }
            if size == MemSize::Dword
                && matches!(
                    prog.prog_type,
                    ProgramType::Xdp | ProgramType::SocketFilter | ProgramType::SchedCls
                )
            {
                return Ok(match start {
                    0 | 16 => AbsReg::PtrPacket(Some(0)),
                    8 => AbsReg::PtrPacketEnd,
                    _ => AbsReg::Scalar(ScalarRange::from_load(size)),
                });
            }
            Ok(AbsReg::Scalar(ScalarRange::from_load(size)))
        }
        AbsReg::PtrPacket(Some(reg_off)) => {
            let start = reg_off + off as i64;
            if start < 0 || start + nbytes > state.verified_pkt {
                return Err(VerifierError::PacketOutOfBounds { at });
            }
            Ok(AbsReg::Scalar(ScalarRange::from_load(size)))
        }
        AbsReg::PtrPacketVar { min, max } => {
            // Every concrete offset lies in [min, max]; the access is safe
            // when the worst cases on both sides are in bounds. Saturating
            // arithmetic is sound here: saturation only occurs for offsets
            // far outside any verified window, which stay rejected.
            let lo = min.saturating_add(off as i64);
            let hi = max.saturating_add(off as i64);
            if lo < 0 || hi.saturating_add(nbytes) > state.verified_pkt {
                return Err(VerifierError::PacketOutOfBounds { at });
            }
            Ok(AbsReg::Scalar(ScalarRange::from_load(size)))
        }
        AbsReg::PtrPacket(None) | AbsReg::PtrPacketEnd => {
            Err(VerifierError::PacketOutOfBounds { at })
        }
        AbsReg::PtrMapValue { map, off: reg_off } => {
            let def = prog
                .map(MapId(map))
                .ok_or(VerifierError::BadHelperArgument {
                    at,
                    what: "undeclared map",
                })?;
            let start = reg_off + off as i64;
            if start < 0 || start + nbytes > def.value_size as i64 {
                return Err(VerifierError::MapValueOutOfBounds { at });
            }
            Ok(AbsReg::Scalar(ScalarRange::from_load(size)))
        }
        AbsReg::PtrMapValueVar { map, min, max } => {
            let def = prog
                .map(MapId(map))
                .ok_or(VerifierError::BadHelperArgument {
                    at,
                    what: "undeclared map",
                })?;
            let lo = min.saturating_add(off as i64);
            let hi = max.saturating_add(off as i64);
            if lo < 0 || hi.saturating_add(nbytes) > def.value_size as i64 {
                return Err(VerifierError::MapValueOutOfBounds { at });
            }
            Ok(AbsReg::Scalar(ScalarRange::from_load(size)))
        }
        AbsReg::PtrMapValueOrNull { .. } => Err(VerifierError::PossibleNullDeref { at }),
        AbsReg::Uninit => Err(VerifierError::UninitRegister { reg: base, at }),
        AbsReg::Scalar(_) | AbsReg::MapHandle(_) => Err(VerifierError::UnknownPointerDeref { at }),
    }
}

fn check_helper_call(
    state: &mut AbsState,
    helper: HelperId,
    at: usize,
    prog: &Program,
) -> Result<(), VerifierError> {
    let ret = match helper {
        HelperId::MapLookup | HelperId::MapUpdate | HelperId::MapDelete => {
            let map = match state.regs[Reg::R1.index()] {
                AbsReg::MapHandle(m) => m,
                _ => {
                    return Err(VerifierError::BadHelperArgument {
                        at,
                        what: "r1 is not a map",
                    })
                }
            };
            let def = prog
                .map(MapId(map))
                .ok_or(VerifierError::BadHelperArgument {
                    at,
                    what: "undeclared map",
                })?;
            check_buffer_arg(state, Reg::R2, def.key_size as i64, at)?;
            if helper == HelperId::MapUpdate {
                check_buffer_arg(state, Reg::R3, def.value_size as i64, at)?;
            }
            if helper == HelperId::MapLookup {
                AbsReg::PtrMapValueOrNull { map, off: 0 }
            } else {
                AbsReg::Scalar(ScalarRange::unknown())
            }
        }
        HelperId::KtimeGetNs
        | HelperId::GetPrandomU32
        | HelperId::GetSmpProcessorId
        | HelperId::GetCurrentPidTgid
        | HelperId::PerfEventOutput
        | HelperId::CsumDiff => AbsReg::Scalar(ScalarRange::unknown()),
        HelperId::XdpAdjustHead => {
            if !matches!(state.regs[Reg::R1.index()], AbsReg::PtrCtx(_)) {
                return Err(VerifierError::BadHelperArgument {
                    at,
                    what: "r1 is not the context",
                });
            }
            // Adjusting the head invalidates derived packet pointers.
            state.verified_pkt = 0;
            for rv in state.regs.iter_mut() {
                if matches!(
                    rv,
                    AbsReg::PtrPacket(_) | AbsReg::PtrPacketVar { .. } | AbsReg::PtrPacketEnd
                ) {
                    *rv = AbsReg::Scalar(ScalarRange::unknown());
                }
            }
            AbsReg::Scalar(ScalarRange::unknown())
        }
        HelperId::RedirectMap => {
            if !matches!(state.regs[Reg::R1.index()], AbsReg::MapHandle(_)) {
                return Err(VerifierError::BadHelperArgument {
                    at,
                    what: "r1 is not a map",
                });
            }
            AbsReg::Scalar(ScalarRange::unknown())
        }
        HelperId::Unknown(_) => return Err(VerifierError::UnknownHelper { at }),
    };
    state.regs[Reg::R0.index()] = ret;
    for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
        state.regs[r.index()] = AbsReg::Uninit;
    }
    Ok(())
}

/// A helper buffer argument must point to `len` readable, initialized
/// bytes; bounded-offset pointers must be in range at both extremes.
fn check_buffer_arg(state: &AbsState, reg: Reg, len: i64, at: usize) -> Result<(), VerifierError> {
    match state.regs[reg.index()] {
        AbsReg::PtrStack(off) => {
            if off < -512 || off + len > 0 {
                return Err(VerifierError::StackOutOfBounds { off, at });
            }
            for i in 0..len {
                if !state.stack_init[(512 + off + i) as usize] {
                    return Err(VerifierError::StackReadBeforeWrite { off: off + i, at });
                }
            }
            Ok(())
        }
        AbsReg::PtrPacket(Some(off)) => {
            if off < 0 || off + len > state.verified_pkt {
                return Err(VerifierError::PacketOutOfBounds { at });
            }
            Ok(())
        }
        AbsReg::PtrPacketVar { min, max } => {
            if min < 0 || max.saturating_add(len) > state.verified_pkt {
                return Err(VerifierError::PacketOutOfBounds { at });
            }
            Ok(())
        }
        AbsReg::PtrMapValue { .. } | AbsReg::PtrMapValueVar { .. } | AbsReg::PtrCtx(_) => Ok(()),
        AbsReg::Uninit => Err(VerifierError::UninitRegister { reg, at }),
        _ => Err(VerifierError::BadHelperArgument {
            at,
            what: "buffer argument is not a pointer",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, MapDef};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn xdp_maps(text: &str, maps: Vec<MapDef>) -> Program {
        Program::with_maps(ProgramType::Xdp, asm::assemble(text).unwrap(), maps)
    }

    fn run(prog: &Program) -> AbsintResult {
        analyze(prog, &AbsintConfig::default())
    }

    fn accept(prog: &Program) -> bool {
        run(prog).verdict.is_accept()
    }

    fn reject_with(prog: &Program) -> VerifierError {
        match run(prog).verdict {
            Verdict::Reject(e) => e,
            v => panic!("expected rejection, got {v:?}"),
        }
    }

    // ---- kernel-checker restrictions ---------------------------------------

    #[test]
    fn trivial_program_accepted() {
        assert!(accept(&xdp("mov64 r0, 2\nexit")));
    }

    #[test]
    fn uninitialized_register_rejected() {
        assert!(matches!(
            reject_with(&xdp("mov64 r0, r5\nexit")),
            VerifierError::UninitRegister { reg: Reg::R5, .. }
        ));
        assert!(matches!(
            reject_with(&xdp("exit")),
            VerifierError::UninitRegister { reg: Reg::R0, .. }
        ));
    }

    #[test]
    fn neg_with_uninitialized_source_register_rejected() {
        // `neg` ignores its source, but the interpreter still reads it.
        let prog = Program::new(
            ProgramType::Xdp,
            vec![
                Insn::mov64_imm(Reg::R0, 1),
                Insn::Alu64 {
                    op: AluOp::Neg,
                    dst: Reg::R0,
                    src: Src::Reg(Reg::R3),
                },
                Insn::Exit,
            ],
        );
        assert_eq!(
            reject_with(&prog),
            VerifierError::UninitRegister {
                reg: Reg::R3,
                at: 1
            }
        );
    }

    #[test]
    fn loops_and_structure_rejected() {
        let looping = Program::new(
            ProgramType::Xdp,
            vec![
                Insn::mov64_imm(Reg::R0, 0),
                Insn::Ja { off: -2 },
                Insn::Exit,
            ],
        );
        assert_eq!(reject_with(&looping), VerifierError::Loop);
        let falls = Program::new(ProgramType::Xdp, vec![Insn::mov64_imm(Reg::R0, 0)]);
        assert_eq!(reject_with(&falls), VerifierError::FallOffEnd);
        assert!(matches!(
            reject_with(&xdp("mov64 r0, 0\nexit\nmov64 r0, 1\nexit")),
            VerifierError::UnreachableCode { at: 2 }
        ));
    }

    #[test]
    fn frame_pointer_write_rejected() {
        assert!(matches!(
            reject_with(&xdp("mov64 r10, 0\nmov64 r0, 0\nexit")),
            VerifierError::FramePointerWrite { at: 0 }
        ));
    }

    #[test]
    fn stack_discipline_enforced() {
        assert!(matches!(
            reject_with(&xdp("ldxdw r0, [r10-8]\nexit")),
            VerifierError::StackReadBeforeWrite { off: -8, .. }
        ));
        assert!(accept(&xdp("stdw [r10-8], 1\nldxdw r0, [r10-8]\nexit")));
        assert!(matches!(
            reject_with(&xdp("stdw [r10-520], 1\nmov64 r0, 0\nexit")),
            VerifierError::StackOutOfBounds { .. }
        ));
        assert!(matches!(
            reject_with(&xdp("stdw [r10-12], 1\nmov64 r0, 0\nexit")),
            VerifierError::Misaligned { .. }
        ));
    }

    #[test]
    fn packet_access_requires_bounds_check() {
        let unchecked = xdp("ldxdw r2, [r1+0]\nldxb r0, [r2+0]\nexit");
        assert!(matches!(
            reject_with(&unchecked),
            VerifierError::PacketOutOfBounds { .. }
        ));
        let checked = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 14
            mov64 r0, 1
            jgt r4, r3, +2
            ldxb r0, [r2+13]
            mov64 r0, 2
            exit
        ");
        assert!(accept(&checked));
        let overread = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 14
            mov64 r0, 1
            jgt r4, r3, +2
            ldxb r0, [r2+20]
            mov64 r0, 2
            exit
        ");
        assert!(matches!(
            reject_with(&overread),
            VerifierError::PacketOutOfBounds { .. }
        ));
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let maps = vec![MapDef::array(0, 8, 4)];
        let unchecked = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            ldxdw r0, [r0+0]
            exit
        ",
            maps.clone(),
        );
        assert!(matches!(
            reject_with(&unchecked),
            VerifierError::PossibleNullDeref { .. }
        ));
        let checked = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+0]
            mov64 r0, 2
            exit
        ",
            maps.clone(),
        );
        assert!(accept(&checked));
        let oob = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+8]
            mov64 r0, 2
            exit
        ",
            maps,
        );
        assert!(matches!(
            reject_with(&oob),
            VerifierError::MapValueOutOfBounds { .. }
        ));
    }

    #[test]
    fn caller_saved_registers_unreadable_after_call() {
        assert!(matches!(
            reject_with(&xdp("call ktime_get_ns\nmov64 r0, r1\nexit")),
            VerifierError::UninitRegister { reg: Reg::R1, .. }
        ));
        assert!(accept(&xdp(
            "mov64 r6, 5\ncall ktime_get_ns\nmov64 r0, r6\nexit"
        )));
    }

    #[test]
    fn pointer_arithmetic_restrictions() {
        assert!(matches!(
            reject_with(&xdp("mov64 r2, r10\nmul64 r2, 4\nmov64 r0, 0\nexit")),
            VerifierError::PointerArithmetic { .. }
        ));
        assert!(matches!(
            reject_with(&xdp("add32 r1, 4\nmov64 r0, 0\nexit")),
            VerifierError::PointerArithmetic { .. }
        ));
        assert!(accept(&xdp(
            "mov64 r2, r10\nadd64 r2, -8\nstdw [r2+0], 1\nmov64 r0, 0\nexit"
        )));
    }

    #[test]
    fn unknown_pointer_and_helper_rejected() {
        assert!(matches!(
            reject_with(&xdp("lddw r2, 0xdeadbeef\nldxdw r0, [r2+0]\nexit")),
            VerifierError::UnknownPointerDeref { .. }
        ));
        let prog = xdp("mov64 r1, 0\nmov64 r2, 0\nmov64 r3, 0\nmov64 r4, 0\nmov64 r5, 0\ncall helper_999\nmov64 r0, 0\nexit");
        assert!(matches!(
            reject_with(&prog),
            VerifierError::UnknownHelper { .. }
        ));
    }

    #[test]
    fn adjust_head_invalidates_packet_pointers() {
        let prog = xdp(r"
            ldxdw r6, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r6
            add64 r4, 2
            mov64 r0, 1
            jgt r4, r3, +4
            mov64 r2, -8
            call xdp_adjust_head
            ldxb r0, [r6+0]
            mov64 r0, 2
            exit
        ");
        assert!(matches!(
            reject_with(&prog),
            VerifierError::PacketOutOfBounds { .. } | VerifierError::UnknownPointerDeref { .. }
        ));
    }

    // ---- bounded variable offsets and range analysis -----------------------

    #[test]
    fn bounded_variable_packet_offset_accepted() {
        // r5 = first payload byte & 7 -> packet pointer at offset 14+[0,7];
        // the bounds check proves 14+7+1 = 22 bytes, so a byte load through
        // the variable pointer is in range.
        let prog = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 22
            mov64 r0, 1
            jgt r4, r3, +5
            ldxb r5, [r2+0]
            and64 r5, 7
            add64 r2, r5
            ldxb r0, [r2+14]
            mov64 r0, 2
            exit
        ");
        assert!(accept(&prog));
    }

    #[test]
    fn unbounded_variable_packet_offset_rejected() {
        // Same shape but the added scalar is a full unknown 64-bit value:
        // no bound, so the dereference must be rejected. The packet pointer
        // lives in callee-saved r6 so the helper call does not clobber it.
        let prog = xdp(r"
            ldxdw r6, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r6
            add64 r4, 22
            mov64 r0, 1
            jgt r4, r3, +4
            call ktime_get_ns
            add64 r6, r0
            ldxb r0, [r6+14]
            mov64 r0, 2
            exit
        ");
        assert!(matches!(
            reject_with(&prog),
            VerifierError::PacketOutOfBounds { .. }
        ));
    }

    #[test]
    fn bounded_map_value_offset_accepted_unbounded_rejected() {
        let maps = vec![MapDef::array(0, 16, 4)];
        let bounded = xdp_maps(
            r"
            mov64 r6, 0
            stxw [r10-4], r6
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +4
            ldxb r6, [r0+0]
            and64 r6, 7
            add64 r0, r6
            ldxb r0, [r0+8]
            exit
        ",
            maps.clone(),
        );
        assert!(accept(&bounded));
        // Unbounded scalar offset into the map value: must reject.
        let unbounded = xdp_maps(
            r"
            mov64 r6, 0
            stxw [r10-4], r6
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +4
            mov64 r7, r0
            call ktime_get_ns
            add64 r7, r0
            ldxb r0, [r7+0]
            exit
        ",
            maps,
        );
        assert!(matches!(
            reject_with(&unbounded),
            VerifierError::PacketOutOfBounds { .. } | VerifierError::MapValueOutOfBounds { .. }
        ));
    }

    #[test]
    fn range_analysis_decides_branches() {
        // r2 = load byte (<= 255), so `jgt r2, 300` can never be taken: the
        // uninitialized-use of r9 on the taken edge is unreachable.
        let prog = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 2
            mov64 r0, 1
            jgt r4, r3, +4
            ldxb r2, [r2+0]
            jgt r2, 300, +1
            ja +1
            mov64 r0, r9
            exit
        ");
        let result = run(&prog);
        assert!(result.verdict.is_accept(), "got {:?}", result.verdict);
        assert!(result.stats.branches_decided >= 1);
        // The taken target of the deciding branch (insn 7) is never reached.
        assert_eq!(result.facts.fact(9, Reg::R2), None);
    }

    #[test]
    fn branch_refinement_constrains_ranges() {
        // After `jgt r2, 7` falls through, r2 <= 7, so r10 + (r2 - 8) stays
        // in frame... instead keep it scalar: check the exported fact.
        let prog = xdp(r"
            call get_prandom_u32
            mov64 r2, r0
            and64 r2, 255
            jgt r2, 7, +1
            exit
            mov64 r0, r2
            exit
        ");
        let result = run(&prog);
        assert!(result.verdict.is_accept());
        // Fall-through of insn 3 is insn 4 (`exit`): there r2 in [0, 7].
        let fact = result.facts.fact(4, Reg::R2).expect("fact for r2");
        assert!(fact.umax <= 7, "umax {}", fact.umax);
        // Taken target is insn 5: there r2 in [8, 255].
        let fact = result.facts.fact(5, Reg::R2).expect("fact for r2");
        assert!(fact.umin >= 8 && fact.umax <= 255, "{fact}");
    }

    #[test]
    fn constant_facts_exported() {
        let prog = xdp("mov64 r2, 42\nmov64 r0, 0\nexit");
        let result = run(&prog);
        assert!(result.verdict.is_accept());
        assert_eq!(
            result.facts.fact(1, Reg::R2).and_then(|f| f.as_const()),
            Some(42)
        );
        // r2 is uninitialized at pc 0: no fact.
        assert_eq!(result.facts.fact(0, Reg::R2), None);
    }

    #[test]
    fn same_stack_offset_on_two_paths_is_exact() {
        let prog = xdp(r"
            call get_prandom_u32
            mov64 r6, r10
            jeq r0, 0, +2
            add64 r6, -8
            ja +1
            add64 r6, -8
            mov64 r0, 0
            exit
        ");
        let result = run(&prog);
        assert!(result.verdict.is_accept());
        assert_eq!(
            result.facts.provenance(6, Reg::R6),
            Some(Provenance::Stack(Some(-8)))
        );
        assert_eq!(result.facts.fact(6, Reg::R6), None);
        assert_eq!(
            result.facts.provenance(0, Reg::R10),
            Some(Provenance::Stack(Some(0)))
        );
    }

    #[test]
    fn different_stack_offsets_lose_the_offset() {
        // r6 is r10-8 on one path and r10-16 on the other: a stack pointer
        // at an unknown offset, so a load through it keeps the whole frame
        // live.
        let prog = xdp(r"
            call get_prandom_u32
            stdw [r10-16], 0
            stdw [r10-8], 0
            mov64 r6, r10
            add64 r6, -8
            jeq r0, 0, +1
            add64 r6, -8
            ldxdw r0, [r6+0]
            exit
        ");
        let result = run(&prog);
        assert!(result.verdict.is_accept());
        assert_eq!(
            result.facts.provenance(7, Reg::R6),
            Some(Provenance::Stack(None))
        );
        let cfg = Cfg::build(&prog.insns).unwrap();
        let live =
            crate::Liveness::new().analyze_with_facts(&prog.insns, &cfg, &result.facts, &prog.maps);
        assert_eq!(live.stack_live_out[2].len(), 512);
    }

    #[test]
    fn packet_and_map_value_pointers_are_non_stack() {
        // r6 is a packet pointer, r0 a map value (or NULL) after the
        // lookup, r1 the context and then a map handle; r7 joins a packet
        // pointer and a map-value pointer, which is still not a stack
        // pointer.
        let prog = xdp_maps(
            r"
            ldxdw r6, [r1+0]
            stw [r10-4], 0
            ld_map_fd r1, 1
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            mov64 r7, r6
            jeq r0, 0, +1
            mov64 r7, r0
            mov64 r0, 0
            exit
        ",
            vec![MapDef::array(1, 8, 4)],
        );
        let result = run(&prog);
        assert!(result.verdict.is_accept());
        let facts = &result.facts;
        assert_eq!(facts.provenance(0, Reg::R1), Some(Provenance::NonStack));
        assert_eq!(facts.provenance(1, Reg::R6), Some(Provenance::NonStack));
        assert_eq!(facts.provenance(3, Reg::R1), Some(Provenance::MapHandle(1)));
        assert_eq!(
            facts.provenance(5, Reg::R2),
            Some(Provenance::Stack(Some(-4)))
        );
        assert_eq!(facts.provenance(6, Reg::R0), Some(Provenance::NonStack));
        assert_eq!(facts.provenance(8, Reg::R0), Some(Provenance::NonStack));
        assert_eq!(facts.provenance(9, Reg::R7), Some(Provenance::NonStack));
    }

    #[test]
    fn register_uninitialized_on_one_path_has_no_fact() {
        let prog = xdp(r"
            call get_prandom_u32
            jeq r0, 0, +2
            mov64 r6, r10
            mov64 r7, 1
            mov64 r0, 0
            exit
        ");
        let result = run(&prog);
        assert!(result.verdict.is_accept());
        assert_eq!(
            result.facts.provenance(3, Reg::R6),
            Some(Provenance::Stack(Some(0)))
        );
        assert_eq!(result.facts.provenance(4, Reg::R6), None);
        assert_eq!(result.facts.fact(4, Reg::R7), None);
    }

    #[test]
    fn rejected_programs_export_no_provenance() {
        let result = run(&xdp("mov64 r6, r10
mov64 r0, r5
exit"));
        assert!(!result.verdict.is_accept());
        assert_eq!(result.facts.provenance(1, Reg::R6), None);
        assert_eq!(result.facts.provenance(0, Reg::R10), None);
    }

    #[test]
    fn complexity_limit_rejects() {
        // Each undecided branch doubles the state set: the skipped adds give
        // r6 a distinct constant per path, so no state subsumes another and
        // the walk must hit the configured limit.
        let mut text = String::new();
        text.push_str("mov64 r6, 0\ncall get_prandom_u32\nmov64 r7, r0\ncall get_prandom_u32\n");
        for i in 0..14u64 {
            text.push_str(&format!("jeq r0, r7, +1\nadd64 r6, {}\n", 1u64 << i));
        }
        text.push_str("mov64 r0, r6\nexit");
        let prog = xdp(&text);
        let config = AbsintConfig {
            complexity_limit: 500,
            ..AbsintConfig::default()
        };
        let result = analyze(&prog, &config);
        assert_eq!(
            result.verdict,
            Verdict::Reject(VerifierError::ComplexityExceeded { limit: 500 })
        );
        assert_eq!(result.stats.insns_examined, 500);
        // Facts from a partial walk are not exported.
        assert_eq!(result.facts.fact(1, Reg::R6), None);
    }

    #[test]
    fn subsumption_prunes_equivalent_states() {
        // Diamond: both sides write the same constant, so the join point
        // sees an identical state twice and prunes the second visit.
        let prog = xdp(r"
            call get_prandom_u32
            jeq r0, 1, +2
            mov64 r2, 5
            ja +1
            mov64 r2, 5
            mov64 r0, r2
            exit
        ");
        let result = run(&prog);
        assert!(result.verdict.is_accept());
        assert!(result.stats.states_pruned >= 1, "{:?}", result.stats);
    }

    #[test]
    fn unsafe_probes_rejected() {
        let probes = [
            "ldxdw r2, [r1+0]\nldxb r0, [r2+0]\nexit",
            "mov64 r0, r7\nexit",
            "ldxdw r0, [r10-16]\nexit",
        ];
        for text in probes {
            assert!(!accept(&xdp(text)), "probe unexpectedly accepted: {text}");
        }
    }

    #[test]
    fn scalar_range_normalize_and_subsume() {
        let mut s = ScalarRange::unknown();
        s.tnum = Tnum::new(0, 0xff);
        assert!(s.normalize());
        assert_eq!(s.umax, 0xff);
        assert_eq!(s.smax, 0xff);
        assert!(ScalarRange::unknown().subsumes(&ScalarRange::constant(7)));
        assert!(!ScalarRange::constant(7).subsumes(&ScalarRange::unknown()));
        let mut contradict = ScalarRange::constant(3);
        contradict.umin = 4;
        assert!(!contradict.normalize());
    }
}

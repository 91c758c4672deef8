//! Bytecode verifier: independent static proofs about compiled kernels.
//!
//! The optimizer ([`crate::opt`]) and the typed specializer
//! ([`crate::CompiledKernel::specialize`]) *construct* kernels they believe
//! are well-formed — stack-safe, init-before-use, jump-targets in range —
//! and the evaluation loops in [`crate::compile`] rely on those invariants
//! with `debug_assert!`-backed accesses instead of per-op runtime checks.
//! This module is the independent checker that justifies that reliance: an
//! abstract interpreter over the [`Op`] (and [`TypedOp`]) stream that
//! *proves*, for every reachable instruction on every path:
//!
//! * **Stack-depth safety** — every pop finds an operand; the operand stack
//!   never exceeds the kernel's declared `max_stack`; control-flow joins
//!   agree on the stack depth; the kernel exits with exactly one result.
//! * **Local init-before-use** — no `Local` read can observe an
//!   uninitialized register on any path.
//! * **Jump-target validity** — every jump lands on an instruction or on
//!   the exit point (`ops.len()`), never past it.
//! * **Index bounds** — slot and local indices stay within the kernel's
//!   declared counts.
//! * **Type-flow soundness** — an abstract type lattice mirroring the
//!   [`crate::Value`] promotion rules (and therefore `specialize`'s `SType`
//!   rules, which are a refinement of them) flows through the stack, the
//!   locals, and every join. Unlike `specialize`, mixed-type joins are
//!   *legal* here — the dynamic `Value` path handles them — and widen to
//!   [`AbstractType::Any`].
//!
//! On success the verifier returns a [`KernelJudgment`]: the exact reachable
//! stack bound plus conservative **infallibility** (no reachable division
//! can take the integer-division-by-zero path), **purity** (no local
//! mutation — the property if-conversion requires of speculated regions),
//! and **branch-freedom** (no jump survived if-conversion) verdicts.
//! The judgment is what the program-level analyzer (`stencilflow-analysis`)
//! turns into diagnostics, and what tier admission can consult instead of
//! trusting optimizer bookkeeping.
//!
//! The verifier runs automatically in debug builds: after every optimizer
//! pass (`crate::opt::PassManager::run`), after lowering
//! ([`crate::CompiledKernel::compile`]), and after typed specialization —
//! so a miscompiled stream is caught at the pass that produced it, not
//! cells later in an eval loop.

use crate::ast::BinOp;
use crate::compile::{Op, TypedOp};
use crate::types::DataType;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Abstract scalar type of one stack position or local register.
///
/// The lattice is flat with a single top: two different concrete types join
/// to [`AbstractType::Any`]. This mirrors [`DataType::promote`] closely
/// enough to decide infallibility (a division is total unless its promoted
/// operand type may be an integer) while tolerating the mixed-type joins
/// that the dynamic `Value` path evaluates happily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractType {
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// Boolean.
    Bool,
    /// Unknown / mixed (lattice top).
    Any,
}

impl AbstractType {
    /// Abstract the concrete type of a slot or literal.
    pub(crate) fn from_data_type(dtype: DataType) -> AbstractType {
        match dtype {
            DataType::Int32 => AbstractType::I32,
            DataType::Int64 => AbstractType::I64,
            DataType::Float32 => AbstractType::F32,
            DataType::Float64 => AbstractType::F64,
            DataType::Bool => AbstractType::Bool,
        }
    }

    /// Least upper bound of two abstract types.
    pub(crate) fn join(self, other: AbstractType) -> AbstractType {
        if self == other {
            self
        } else {
            AbstractType::Any
        }
    }

    /// Whether this type is definitely a float.
    pub(crate) fn is_float(self) -> bool {
        matches!(self, AbstractType::F32 | AbstractType::F64)
    }

    /// Whether this type may be an integer (`Any` may).
    pub(crate) fn may_be_integer(self) -> bool {
        matches!(
            self,
            AbstractType::I32 | AbstractType::I64 | AbstractType::Any
        )
    }

    /// Result type of `+ - * /`, mirroring [`DataType::promote`]: floats
    /// dominate (widest first), booleans are transparent, two booleans stay
    /// boolean, and anything involving `Any` that a float does not pin down
    /// widens to `Any`.
    pub(crate) fn arithmetic(l: AbstractType, r: AbstractType) -> AbstractType {
        use AbstractType::*;
        match (l, r) {
            (F64, _) | (_, F64) => F64,
            (F32, _) | (_, F32) => F32,
            (Any, _) | (_, Any) => Any,
            (Bool, Bool) => Bool,
            (Bool, t) | (t, Bool) => t,
            (I64, _) | (_, I64) => I64,
            (I32, I32) => I32,
        }
    }

    /// Whether a division of these operands may raise the integer
    /// division-by-zero error (the language's only runtime error). A float
    /// operand makes the promoted division IEEE-total.
    pub(crate) fn division_may_fail(l: AbstractType, r: AbstractType) -> bool {
        !(l.is_float() || r.is_float()) && (l.may_be_integer() || r.may_be_integer())
    }

    /// Result type of a math-function call, mirroring
    /// [`crate::eval::eval_math_fn`]: the promoted argument type when it is
    /// a float, otherwise `f64` (math functions always produce floats).
    pub(crate) fn math_result(a: AbstractType, b: Option<AbstractType>) -> AbstractType {
        let promoted = match b {
            None => a,
            Some(b) => AbstractType::arithmetic(a, b),
        };
        match promoted {
            AbstractType::F32 | AbstractType::F64 => promoted,
            // `Any` could be either float width; everything else maps to f64.
            AbstractType::Any => AbstractType::Any,
            _ => AbstractType::F64,
        }
    }
}

impl fmt::Display for AbstractType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AbstractType::I32 => "i32",
            AbstractType::I64 => "i64",
            AbstractType::F32 => "f32",
            AbstractType::F64 => "f64",
            AbstractType::Bool => "bool",
            AbstractType::Any => "any",
        };
        f.write_str(name)
    }
}

/// A violation found by the verifier. Each variant carries the instruction
/// index (`pc`) it was detected at and maps to a stable diagnostic code
/// (see [`VerifyError::code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An instruction pops more operands than the stack holds on some path.
    StackUnderflow {
        /// Instruction index of the underflowing op.
        pc: usize,
        /// Rendered opcode.
        op: String,
    },
    /// Two paths reach the same instruction with different stack depths.
    DepthMismatch {
        /// Instruction index of the join.
        pc: usize,
        /// Depth recorded by the first path.
        expected: usize,
        /// Depth found on the conflicting path.
        found: usize,
    },
    /// A `Local` read may observe an uninitialized register on some path.
    UninitializedLocal {
        /// Instruction index of the read.
        pc: usize,
        /// Register index.
        local: u16,
    },
    /// A local register index is out of the kernel's declared range.
    LocalOutOfBounds {
        /// Instruction index of the access.
        pc: usize,
        /// Register index.
        local: u16,
        /// Declared register count.
        local_count: usize,
    },
    /// A slot index is out of the kernel's declared range.
    SlotOutOfBounds {
        /// Instruction index of the access.
        pc: usize,
        /// Slot index.
        slot: u16,
        /// Declared slot count.
        slot_count: usize,
    },
    /// A jump targets past the exit point (`ops.len()` itself is the valid
    /// exit).
    JumpOutOfBounds {
        /// Instruction index of the jump.
        pc: usize,
        /// Target instruction index.
        target: u32,
        /// Instruction count of the kernel.
        len: usize,
    },
    /// The kernel can exit with a stack depth other than exactly one
    /// result.
    BadExitDepth {
        /// Observed exit depth.
        depth: usize,
    },
    /// A logical `&&`/`||` survived as a `Binary` op; the lowering always
    /// expands these to short-circuit jumps and the eval loop cannot
    /// execute them.
    UnloweredLogicalOp {
        /// Instruction index of the op.
        pc: usize,
    },
    /// The kernel's declared `max_stack` is smaller than a reachable depth.
    DeclaredMaxStackTooSmall {
        /// Declared bound.
        declared: usize,
        /// Reachable depth proven by the verifier.
        required: usize,
    },
    /// The kernel's declared `local_count` is smaller than a register it
    /// uses.
    DeclaredLocalCountTooSmall {
        /// Declared count.
        declared: usize,
        /// Register count the stream actually touches.
        required: usize,
    },
}

impl VerifyError {
    /// Stable diagnostic code for this violation (the `SF01xx` range of the
    /// registry in `docs/analysis.md`).
    pub fn code(&self) -> &'static str {
        match self {
            VerifyError::StackUnderflow { .. } => "SF0101",
            VerifyError::DepthMismatch { .. } => "SF0102",
            VerifyError::UninitializedLocal { .. } => "SF0103",
            VerifyError::LocalOutOfBounds { .. } => "SF0104",
            VerifyError::SlotOutOfBounds { .. } => "SF0105",
            VerifyError::JumpOutOfBounds { .. } => "SF0106",
            VerifyError::BadExitDepth { .. } => "SF0107",
            VerifyError::UnloweredLogicalOp { .. } => "SF0108",
            VerifyError::DeclaredMaxStackTooSmall { .. }
            | VerifyError::DeclaredLocalCountTooSmall { .. } => "SF0109",
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::StackUnderflow { pc, op } => {
                write!(f, "stack underflow at op {pc} ({op})")
            }
            VerifyError::DepthMismatch {
                pc,
                expected,
                found,
            } => write!(
                f,
                "inconsistent stack depth at op {pc}: {expected} vs {found}"
            ),
            VerifyError::UninitializedLocal { pc, local } => {
                write!(f, "local {local} may be read uninitialized at op {pc}")
            }
            VerifyError::LocalOutOfBounds {
                pc,
                local,
                local_count,
            } => write!(
                f,
                "local {local} out of bounds at op {pc} (local_count {local_count})"
            ),
            VerifyError::SlotOutOfBounds {
                pc,
                slot,
                slot_count,
            } => write!(
                f,
                "slot {slot} out of bounds at op {pc} (slot_count {slot_count})"
            ),
            VerifyError::JumpOutOfBounds { pc, target, len } => {
                write!(f, "jump at op {pc} targets {target}, past exit {len}")
            }
            VerifyError::BadExitDepth { depth } => {
                write!(f, "kernel exits with stack depth {depth}, expected 1")
            }
            VerifyError::UnloweredLogicalOp { pc } => {
                write!(f, "unlowered logical operator at op {pc}")
            }
            VerifyError::DeclaredMaxStackTooSmall { declared, required } => {
                write!(
                    f,
                    "declared max_stack {declared} below reachable depth {required}"
                )
            }
            VerifyError::DeclaredLocalCountTooSmall { declared, required } => {
                write!(
                    f,
                    "declared local_count {declared} below used registers {required}"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// What the verifier proved about an accepted kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelJudgment {
    /// Exact maximum reachable operand-stack depth (≤ the linear-scan bound
    /// the compiler declares).
    pub max_stack: usize,
    /// Local registers the stream actually touches.
    pub local_count: usize,
    /// Slots the stream actually reads (highest index + 1).
    pub slot_count: usize,
    /// No reachable division can take the integer-division-by-zero path:
    /// evaluation never returns an error. Conservative — `false` means
    /// "could not prove", not "will fail". Precise only when slot types
    /// are supplied; without them every slot is `Any` and any division
    /// over slot-derived operands demotes to fallible.
    pub infallible: bool,
    /// No `Store` instructions: the kernel never mutates a register. This
    /// is the purity notion if-conversion requires of speculated regions.
    pub pure: bool,
    /// No control-flow instructions (`Select` is branch-free and allowed).
    /// A typed kernel has the property by type — [`TypedOp`] cannot jump —
    /// so this describes the `Value` bytecode only, where a division in an
    /// arm keeps its diamond.
    pub branch_free: bool,
    /// Abstract result type of the kernel.
    pub result: AbstractType,
}

/// Abstract machine state at one instruction: typed operand stack plus
/// per-register initialization-and-type. `None` means "may be
/// uninitialized on some path reaching here".
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    stack: Vec<AbstractType>,
    locals: Vec<Option<AbstractType>>,
}

impl AbsState {
    /// Merge `other` into `self`; `Ok(true)` when `self` changed. Depth
    /// mismatches are hard errors (the eval loop's stack discipline relies
    /// on every join agreeing on depth); type disagreements widen.
    fn merge(&mut self, other: &AbsState, pc: usize) -> Result<bool, VerifyError> {
        if self.stack.len() != other.stack.len() {
            return Err(VerifyError::DepthMismatch {
                pc,
                expected: self.stack.len(),
                found: other.stack.len(),
            });
        }
        let mut changed = false;
        for (mine, theirs) in self.stack.iter_mut().zip(&other.stack) {
            let joined = mine.join(*theirs);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        for (mine, theirs) in self.locals.iter_mut().zip(&other.locals) {
            let joined = match (*mine, *theirs) {
                (Some(a), Some(b)) => Some(a.join(b)),
                // Initialized on only one path: a later read must not
                // trust it.
                _ => None,
            };
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        Ok(changed)
    }
}

/// Slot count an instruction stream requires (highest slot index + 1).
pub(crate) fn slot_count_of(ops: &[Op]) -> usize {
    ops.iter()
        .map(|op| match op {
            Op::Slot(ix) => *ix as usize + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Verify an untyped instruction stream against declared slot/local counts.
///
/// `slot_types` refines the judgment: with concrete types the infallibility
/// verdict is precise per the promotion rules; without, every slot is
/// [`AbstractType::Any`] and divisions over slot-derived operands are
/// conservatively fallible. `slot_types`, when given, must have
/// `slot_count` entries.
///
/// # Errors
///
/// Returns the first [`VerifyError`] proving the stream unsafe for the
/// unchecked eval loop; see the module docs for the properties checked.
pub(crate) fn verify_ops(
    ops: &[Op],
    slot_count: usize,
    local_count: usize,
    slot_types: Option<&[DataType]>,
) -> Result<KernelJudgment, VerifyError> {
    if let Some(types) = slot_types {
        assert_eq!(types.len(), slot_count, "one slot type per slot");
    }
    if ops.is_empty() {
        // No instruction can have left a result on the stack.
        return Err(VerifyError::BadExitDepth { depth: 0 });
    }
    let slot_abs = |ix: usize| -> AbstractType {
        slot_types
            .map(|t| AbstractType::from_data_type(t[ix]))
            .unwrap_or(AbstractType::Any)
    };

    // Structural scan: bounds and lowering invariants that need no flow
    // analysis, plus the effect-free judgment components.
    let mut pure = true;
    let mut branch_free = true;
    for (pc, op) in ops.iter().enumerate() {
        match *op {
            Op::Slot(ix) if ix as usize >= slot_count => {
                return Err(VerifyError::SlotOutOfBounds {
                    pc,
                    slot: ix,
                    slot_count,
                });
            }
            Op::Slot(_) => {}
            Op::Local(ix) | Op::Store(ix) => {
                if ix as usize >= local_count {
                    return Err(VerifyError::LocalOutOfBounds {
                        pc,
                        local: ix,
                        local_count,
                    });
                }
                if matches!(op, Op::Store(_)) {
                    pure = false;
                }
            }
            Op::Binary(BinOp::And | BinOp::Or) => {
                return Err(VerifyError::UnloweredLogicalOp { pc });
            }
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndShortCircuit(t) | Op::OrShortCircuit(t) => {
                branch_free = false;
                if t as usize > ops.len() {
                    return Err(VerifyError::JumpOutOfBounds {
                        pc,
                        target: t,
                        len: ops.len(),
                    });
                }
            }
            _ => {}
        }
    }

    // Worklist abstract interpretation. States ascend a finite lattice
    // (fixed depth per pc, types widen toward `Any`, init-sets shrink), so
    // the fixpoint terminates even for irreducible or backward control
    // flow (which the lowering never emits, but the verifier must not
    // assume that — it is the checker, not the compiler).
    let mut states: BTreeMap<usize, AbsState> = BTreeMap::new();
    let mut worklist: VecDeque<usize> = VecDeque::new();
    states.insert(
        0,
        AbsState {
            stack: Vec::new(),
            locals: vec![None; local_count],
        },
    );
    worklist.push_back(0);

    let mut max_depth = 0usize;
    let mut infallible = true;
    let mut exit: Option<AbsState> = None;

    let underflow = |pc: usize| VerifyError::StackUnderflow {
        pc,
        op: format!("{:?}", ops[pc]),
    };

    // Merge `state` into the in-state of `target` (or the exit record when
    // `target == ops.len()`), enqueueing on change.
    fn flow_to(
        states: &mut BTreeMap<usize, AbsState>,
        worklist: &mut VecDeque<usize>,
        exit: &mut Option<AbsState>,
        len: usize,
        target: usize,
        state: AbsState,
    ) -> Result<(), VerifyError> {
        if target == len {
            match exit {
                Some(existing) => {
                    existing.merge(&state, target)?;
                }
                None => *exit = Some(state),
            }
            return Ok(());
        }
        match states.get_mut(&target) {
            Some(existing) => {
                if existing.merge(&state, target)? {
                    worklist.push_back(target);
                }
            }
            None => {
                states.insert(target, state);
                worklist.push_back(target);
            }
        }
        Ok(())
    }

    while let Some(pc) = worklist.pop_front() {
        let mut state = states
            .get(&pc)
            .expect("worklist entries have states")
            .clone();
        max_depth = max_depth.max(state.stack.len());
        let op = ops[pc];
        // Successor on the fall-through path unless the op redirects.
        let mut next = pc + 1;
        let mut extra: Option<(usize, AbsState)> = None;
        match op {
            Op::Const(v) => state
                .stack
                .push(AbstractType::from_data_type(v.data_type())),
            Op::Slot(ix) => state.stack.push(slot_abs(ix as usize)),
            Op::Local(ix) => {
                let t = state.locals[ix as usize]
                    .ok_or(VerifyError::UninitializedLocal { pc, local: ix })?;
                state.stack.push(t);
            }
            Op::Store(ix) => {
                let t = state.stack.pop().ok_or_else(|| underflow(pc))?;
                state.locals[ix as usize] = Some(t);
            }
            Op::Pop => {
                state.stack.pop().ok_or_else(|| underflow(pc))?;
            }
            Op::Unary(crate::ast::UnOp::Neg) => {
                let t = state.stack.pop().ok_or_else(|| underflow(pc))?;
                state.stack.push(match t {
                    // Negating a boolean promotes to int64 (Value::neg).
                    AbstractType::Bool => AbstractType::I64,
                    AbstractType::Any => AbstractType::Any,
                    other => other,
                });
            }
            Op::Unary(crate::ast::UnOp::Not) => {
                state.stack.pop().ok_or_else(|| underflow(pc))?;
                state.stack.push(AbstractType::Bool);
            }
            Op::Binary(binop) => {
                let r = state.stack.pop().ok_or_else(|| underflow(pc))?;
                let l = state.stack.pop().ok_or_else(|| underflow(pc))?;
                match binop {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        if binop == BinOp::Div && AbstractType::division_may_fail(l, r) {
                            infallible = false;
                        }
                        state.stack.push(AbstractType::arithmetic(l, r));
                    }
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        state.stack.push(AbstractType::Bool);
                    }
                    BinOp::And | BinOp::Or => unreachable!("rejected by the structural scan"),
                }
            }
            Op::Call1(_) => {
                let a = state.stack.pop().ok_or_else(|| underflow(pc))?;
                state.stack.push(AbstractType::math_result(a, None));
            }
            Op::Call2(_) => {
                let b = state.stack.pop().ok_or_else(|| underflow(pc))?;
                let a = state.stack.pop().ok_or_else(|| underflow(pc))?;
                state.stack.push(AbstractType::math_result(a, Some(b)));
            }
            Op::Jump(t) => next = t as usize,
            Op::JumpIfFalse(t) => {
                state.stack.pop().ok_or_else(|| underflow(pc))?;
                extra = Some((t as usize, state.clone()));
            }
            Op::AndShortCircuit(t) => {
                state.stack.pop().ok_or_else(|| underflow(pc))?;
                let mut taken = state.clone();
                taken.stack.push(AbstractType::Bool);
                extra = Some((t as usize, taken));
            }
            Op::OrShortCircuit(t) => {
                state.stack.pop().ok_or_else(|| underflow(pc))?;
                let mut taken = state.clone();
                taken.stack.push(AbstractType::Bool);
                extra = Some((t as usize, taken));
            }
            Op::ToBool => {
                state.stack.pop().ok_or_else(|| underflow(pc))?;
                state.stack.push(AbstractType::Bool);
            }
            Op::Select => {
                let otherwise = state.stack.pop().ok_or_else(|| underflow(pc))?;
                let then = state.stack.pop().ok_or_else(|| underflow(pc))?;
                state.stack.pop().ok_or_else(|| underflow(pc))?; // condition
                state.stack.push(then.join(otherwise));
            }
        }
        max_depth = max_depth.max(state.stack.len());
        if let Some((target, taken)) = extra {
            flow_to(
                &mut states,
                &mut worklist,
                &mut exit,
                ops.len(),
                target,
                taken,
            )?;
        }
        flow_to(
            &mut states,
            &mut worklist,
            &mut exit,
            ops.len(),
            next,
            state,
        )?;
    }

    let exit = exit.ok_or(VerifyError::BadExitDepth { depth: 0 })?;
    if exit.stack.len() != 1 {
        return Err(VerifyError::BadExitDepth {
            depth: exit.stack.len(),
        });
    }
    Ok(KernelJudgment {
        max_stack: max_depth,
        local_count,
        slot_count,
        infallible,
        pure,
        branch_free,
        result: exit.stack[0],
    })
}

/// Verify a compiled kernel end to end: run `verify_ops` over its stream
/// and additionally check the declared `max_stack` / `local_count` bounds
/// cover every reachable state (the eval loops size their scratch from
/// those declarations).
///
/// # Errors
///
/// Same failure modes as `verify_ops`, plus the declared-bound checks.
pub fn verify_kernel(
    kernel: &crate::CompiledKernel,
    slot_types: Option<&[DataType]>,
) -> Result<KernelJudgment, VerifyError> {
    let judgment = verify_ops(
        kernel.ops(),
        kernel.slots().len(),
        kernel.local_count(),
        slot_types,
    )?;
    if judgment.max_stack > kernel.max_stack() {
        return Err(VerifyError::DeclaredMaxStackTooSmall {
            declared: kernel.max_stack(),
            required: judgment.max_stack,
        });
    }
    Ok(judgment)
}

/// What the verifier proved about an accepted typed stream. Typed kernels
/// are infallible (division is always float) and branch-free (no
/// [`TypedOp`] jumps) by construction, so the judgment carries only the
/// structural facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedJudgment {
    /// Exact maximum reachable operand-stack depth.
    pub max_stack: usize,
    /// Local registers the stream actually touches.
    pub local_count: usize,
}

/// Verify a [`TypedOp`] stream: stack-depth safety, init-before-use, bounds,
/// and single-result exit — the invariants the unchecked lane eval loop
/// relies on. Types need no tracking (every typed stack slot is a raw
/// `f64`).
///
/// # Errors
///
/// Returns the first [`VerifyError`] proving the stream unsafe.
pub(crate) fn verify_typed_ops(
    ops: &[TypedOp],
    slot_count: usize,
    local_count: usize,
) -> Result<TypedJudgment, VerifyError> {
    // Reuse the full abstract interpreter by projecting every TypedOp onto
    // an untyped Op with the same stack/locals behavior. `round`
    // flags and concrete functions are irrelevant to the structural
    // properties; placeholder choices below preserve arity exactly.
    let projected: Vec<Op> = ops
        .iter()
        .map(|op| match *op {
            TypedOp::Const(v) => Op::Const(crate::Value::F64(v)),
            TypedOp::Slot(ix) => Op::Slot(ix),
            TypedOp::Local(ix) => Op::Local(ix),
            TypedOp::Store(ix) => Op::Store(ix),
            TypedOp::Pop => Op::Pop,
            TypedOp::Neg { .. } => Op::Unary(crate::ast::UnOp::Neg),
            TypedOp::Not => Op::Unary(crate::ast::UnOp::Not),
            TypedOp::Add { .. } => Op::Binary(BinOp::Add),
            TypedOp::Sub { .. } => Op::Binary(BinOp::Sub),
            TypedOp::Mul { .. } => Op::Binary(BinOp::Mul),
            // Typed division is float division; project to Mul so the
            // untyped interpreter does not demote infallibility (the
            // stack behavior is identical).
            TypedOp::Div { .. } => Op::Binary(BinOp::Mul),
            TypedOp::Compare(_) => Op::Binary(BinOp::Lt),
            TypedOp::Call1(f, _) => Op::Call1(f),
            TypedOp::Call2(f, _) => Op::Call2(f),
            TypedOp::ToBool => Op::ToBool,
            TypedOp::Select => Op::Select,
        })
        .collect();
    let judgment = verify_ops(&projected, slot_count, local_count, None)?;
    Ok(TypedJudgment {
        max_stack: judgment.max_stack,
        local_count: judgment.local_count,
    })
}

/// Verify a specialized kernel end to end, including its declared bounds.
///
/// # Errors
///
/// Same failure modes as `verify_typed_ops`, plus the declared-bound
/// check.
pub fn verify_typed(kernel: &crate::TypedKernel) -> Result<TypedJudgment, VerifyError> {
    let judgment = verify_typed_ops(kernel.ops(), kernel.slot_count(), kernel.local_count())?;
    if judgment.max_stack > kernel.max_stack() {
        return Err(VerifyError::DeclaredMaxStackTooSmall {
            declared: kernel.max_stack(),
            required: judgment.max_stack,
        });
    }
    Ok(judgment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{MathFn, UnOp};
    use crate::parser::parse_program;
    use crate::value::Value;
    use crate::CompiledKernel;

    fn compile(code: &str) -> CompiledKernel {
        CompiledKernel::compile(&parse_program(code).unwrap()).unwrap()
    }

    fn compile_unopt(code: &str) -> CompiledKernel {
        CompiledKernel::compile_unoptimized(&parse_program(code).unwrap()).unwrap()
    }

    #[test]
    fn accepts_all_lowered_forms() {
        for code in [
            "a[i] * 2.0 + 1.0",
            "x = a[i-1] + a[i+1]; y = x * dt; y - a[i]",
            "(a[i] > 0.0) ? a[i] / 2.0 : -a[i]",
            "(a[i] > 0.0 && a[i-1] < 1.0) ? 1.0 : 0.0",
            "(a[i] > 0.0 || a[i-1] < 1.0) ? 1.0 : 0.0",
            "sqrt(abs(a[i+1])) + min(a[i], max(a[i-1], dt))",
            "x = a[i]; x * x + x",
        ] {
            for kernel in [compile(code), compile_unopt(code)] {
                let judgment = verify_kernel(&kernel, None)
                    .unwrap_or_else(|e| panic!("rejected `{code}`: {e}"));
                assert!(judgment.max_stack <= kernel.max_stack());
            }
        }
    }

    #[test]
    fn judgment_tracks_infallibility_with_slot_types() {
        let kernel = compile("a[i] / b[i]");
        // Unknown slot types: the division may be integer-typed.
        assert!(!verify_kernel(&kernel, None).unwrap().infallible);
        // Float slots: IEEE-total division.
        let floats = vec![DataType::Float64; kernel.slots().len()];
        assert!(verify_kernel(&kernel, Some(&floats)).unwrap().infallible);
        // Integer slots: provably fallible path.
        let ints = vec![DataType::Int64; kernel.slots().len()];
        assert!(!verify_kernel(&kernel, Some(&ints)).unwrap().infallible);
        // Constant-only arithmetic folds away; a kernel with no division
        // at all is infallible even with unknown slots.
        assert!(
            verify_kernel(&compile("a[i] + 1.0"), None)
                .unwrap()
                .infallible
        );
    }

    #[test]
    fn judgment_tracks_purity_and_branch_freedom() {
        let pure = verify_kernel(&compile("a[i] + 1.0"), None).unwrap();
        assert!(pure.pure);
        assert!(pure.branch_free);
        let stored = verify_kernel(&compile_unopt("x = a[i]; x + x"), None).unwrap();
        assert!(!stored.pure);
        let branchy = verify_kernel(&compile_unopt("(a[i] > 0.0) ? 1.0 : 2.0"), None).unwrap();
        assert!(!branchy.branch_free);
        // If-conversion turns the diamond into a Select, which is
        // branch-free.
        let converted = verify_kernel(&compile("(a[i] > 0.0) ? 1.0 : 2.0"), None).unwrap();
        assert!(converted.branch_free);
    }

    #[test]
    fn mixed_type_joins_widen_instead_of_rejecting() {
        // `specialize` rejects arms of different types; the verifier must
        // accept them (the Value path evaluates this fine) and widen.
        let kernel = compile_unopt("(a[i] > 0.0) ? 1.0 : 2");
        let judgment = verify_kernel(&kernel, None).unwrap();
        assert_eq!(judgment.result, AbstractType::Any);
    }

    #[test]
    fn rejects_stack_underflow() {
        let err = verify_ops(&[Op::Pop], 0, 0, None).unwrap_err();
        assert_eq!(err.code(), "SF0101");
        let err = verify_ops(
            &[Op::Const(Value::F64(1.0)), Op::Binary(BinOp::Add)],
            0,
            0,
            None,
        )
        .unwrap_err();
        assert_eq!(err.code(), "SF0101");
    }

    #[test]
    fn rejects_depth_mismatched_join() {
        // JumpIfFalse skips a push: the two paths reach op 3 with depths
        // 2 and 1.
        let ops = [
            Op::Const(Value::Bool(true)),
            Op::JumpIfFalse(3),
            Op::Const(Value::F64(1.0)),
            Op::Const(Value::F64(2.0)),
            Op::Binary(BinOp::Add),
        ];
        let err = verify_ops(&ops, 0, 0, None).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::DepthMismatch { .. } | VerifyError::StackUnderflow { .. }
        ));
    }

    #[test]
    fn rejects_uninitialized_local_read() {
        let err = verify_ops(&[Op::Local(0)], 0, 1, None).unwrap_err();
        assert_eq!(err.code(), "SF0103");
        // Initialized on only one branch: still an error after the join.
        let ops = [
            Op::Const(Value::Bool(true)),
            Op::JumpIfFalse(4),
            Op::Const(Value::F64(1.0)),
            Op::Store(0),
            Op::Local(0),
        ];
        let err = verify_ops(&ops, 0, 1, None).unwrap_err();
        assert_eq!(err.code(), "SF0103");
        // Initialized on both branches: fine.
        let ops = [
            Op::Const(Value::Bool(true)),
            Op::JumpIfFalse(5),
            Op::Const(Value::F64(1.0)),
            Op::Store(0),
            Op::Jump(7),
            Op::Const(Value::F64(2.0)),
            Op::Store(0),
            Op::Local(0),
        ];
        verify_ops(&ops, 0, 1, None).unwrap();
    }

    #[test]
    fn rejects_bounds_violations() {
        assert_eq!(
            verify_ops(&[Op::Slot(3)], 2, 0, None).unwrap_err().code(),
            "SF0105"
        );
        assert_eq!(
            verify_ops(&[Op::Store(1)], 0, 1, None).unwrap_err().code(),
            "SF0104"
        );
        assert_eq!(
            verify_ops(&[Op::Jump(9), Op::Const(Value::F64(0.0))], 0, 0, None)
                .unwrap_err()
                .code(),
            "SF0106"
        );
    }

    #[test]
    fn rejects_bad_exit_depth_and_unlowered_logicals() {
        let two = [Op::Const(Value::F64(1.0)), Op::Const(Value::F64(2.0))];
        assert_eq!(verify_ops(&two, 0, 0, None).unwrap_err().code(), "SF0107");
        assert_eq!(verify_ops(&[], 0, 0, None).unwrap_err().code(), "SF0107");
        let logical = [
            Op::Const(Value::Bool(true)),
            Op::Const(Value::Bool(true)),
            Op::Binary(BinOp::And),
        ];
        assert_eq!(
            verify_ops(&logical, 0, 0, None).unwrap_err().code(),
            "SF0108"
        );
    }

    #[test]
    fn typed_verification_accepts_specialized_kernels() {
        for code in [
            "a[i] * 2.0 + 1.0",
            "(a[i] > 0.0) ? a[i] / 2.0 : -a[i]",
            "x = a[i-1] + a[i+1]; x * 0.5",
            "exp(a[i]) + pow(a[i], 2.0)",
        ] {
            let kernel = compile(code);
            let types = vec![DataType::Float64; kernel.slots().len()];
            let typed = kernel.specialize(&types).expect("float kernel specializes");
            let judgment =
                verify_typed(&typed).unwrap_or_else(|e| panic!("rejected `{code}`: {e}"));
            assert!(judgment.max_stack <= typed.max_stack());
            assert_eq!(judgment.local_count, typed.local_count());
        }
    }

    #[test]
    fn typed_verification_rejects_malformed_streams() {
        let err = verify_typed_ops(&[TypedOp::Pop], 0, 0).unwrap_err();
        assert_eq!(err.code(), "SF0101");
        let err = verify_typed_ops(&[TypedOp::Const(1.0), TypedOp::Local(0)], 0, 1).unwrap_err();
        assert_eq!(err.code(), "SF0103");
    }

    #[test]
    fn max_stack_judgment_is_exact_on_jumpy_kernels() {
        // The linear-scan bound over-counts jump-based ternaries (both
        // arms contribute); the verifier's reachable bound must be ≤ it
        // and still cover every path.
        let kernel = compile_unopt("(a[i] > 0.0) ? a[i] + 1.0 : a[i] - 1.0");
        let judgment = verify_kernel(&kernel, None).unwrap();
        assert!(judgment.max_stack <= kernel.max_stack());
        assert!(judgment.max_stack >= 2);
    }

    #[test]
    fn verifier_is_a_fixpoint_on_backward_jumps() {
        // The lowering never emits loops, but the verifier must terminate
        // (and judge) arbitrary streams. A back-edge forming an infinite
        // loop never reaches the exit: depth mismatch or bad exit.
        let ops = [Op::Const(Value::F64(1.0)), Op::Pop, Op::Jump(0)];
        assert!(verify_ops(&ops, 0, 0, None).is_err());
        // A benign back-edge with consistent depth converges.
        let ops = [
            Op::Const(Value::Bool(true)),
            Op::JumpIfFalse(0),
            Op::Const(Value::F64(1.0)),
        ];
        verify_ops(&ops, 0, 0, None).unwrap();
    }

    #[test]
    fn abstract_type_promotion_mirrors_value_semantics() {
        use AbstractType::*;
        for (l, r, want) in [
            (F64, F32, F64),
            (F32, I64, F32),
            (Bool, Bool, Bool),
            (Bool, I64, I64),
            (I32, I32, I32),
            (I32, I64, I64),
            (Any, F64, F64),
            (Any, Bool, Any),
        ] {
            assert_eq!(AbstractType::arithmetic(l, r), want, "{l} ∘ {r}");
        }
        assert!(AbstractType::division_may_fail(I64, I64));
        assert!(AbstractType::division_may_fail(Any, Any));
        assert!(AbstractType::division_may_fail(Bool, I32));
        assert!(!AbstractType::division_may_fail(F32, Any));
        assert!(!AbstractType::division_may_fail(Bool, Bool));
        assert_eq!(AbstractType::math_result(Bool, None), F64);
        assert_eq!(AbstractType::math_result(F32, Some(Bool)), F32);
        assert_eq!(AbstractType::math_result(I64, Some(I32)), F64);
    }

    #[test]
    fn verifies_handwritten_math_and_unary_streams() {
        let ops = [
            Op::Const(Value::F64(4.0)),
            Op::Call1(MathFn::Sqrt),
            Op::Unary(UnOp::Neg),
        ];
        let judgment = verify_ops(&ops, 0, 0, None).unwrap();
        assert_eq!(judgment.result, AbstractType::F64);
        assert!(judgment.infallible);
    }
}

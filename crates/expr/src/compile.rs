//! Compilation of stencil code segments to slot-resolved bytecode.
//!
//! The tree-walking [`crate::eval::Evaluator`] is the semantic reference for
//! the expression language, but it is far too slow for the hot path of the
//! stack: the reference executor and the functional mode of the spatial
//! simulator evaluate a code segment **once per cell of the iteration
//! space**, and the evaluator heap-allocates an offset vector and performs a
//! string-keyed resolver lookup for every field access of every cell, plus a
//! `BTreeMap` of locals per evaluation.
//!
//! [`CompiledKernel`] removes all of that from the inner loop:
//!
//! * The statement list is lowered **once** into a flat, postorder
//!   instruction array ([`Op`]) executed by a small stack machine over
//!   [`Value`]s. Locals become register indices, math functions dispatch on
//!   the [`MathFn`] enum, and constants are pre-folded by the bit-exact
//!   [`crate::fold`] pass.
//! * Every distinct field access `(field, offsets)` — and every scalar
//!   symbol — becomes an [`AccessSlot`] with a dense index. Consumers
//!   resolve each slot to their own storage **once per plan** (the reference
//!   executor binds slots to grids and flat-offset deltas; the simulator
//!   binds them to sliding-window taps) and then feed the kernel a plain
//!   `&[Value]` per cell: no strings, no allocation, no hashing.
//!
//! Evaluation semantics are identical to the evaluator bit for bit —
//! including type promotion, `f32` rounding, short-circuit logic, lazy
//! ternary branches, and integer-division errors — which the golden
//! equivalence suite checks exhaustively.
//!
//! On top of the slot-resolved bytecode, [`CompiledKernel::specialize`]
//! produces a [`TypedKernel`] when every instruction's result type can be
//! resolved statically from the slot types: evaluation then runs on raw
//! `f64`s with compile-time `f32` rounding flags, skipping `Value` tagging
//! and per-op promotion entirely (again bit-identical by construction).

use crate::ast::{BinOp, Expr, Index, MathFn, Program, Stmt, UnOp};
use crate::error::{ExprError, Result};
use crate::eval::{eval_math_fn, math_fn_raw, AccessResolver};
use crate::fold::fold_changed;
use crate::types::DataType;
use crate::value::{CompareOp, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One distinct access of a compiled kernel: a field (or scalar symbol) at a
/// fixed constant-offset vector. Scalar symbols have empty `offsets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSlot {
    /// Field or scalar symbol name.
    pub field: String,
    /// Constant offsets of the access (one per index used; empty for
    /// scalars).
    pub offsets: Vec<i64>,
    /// Index variables of the access, parallel to `offsets`.
    pub index_vars: Vec<String>,
}

impl AccessSlot {
    /// Whether this slot is a scalar symbol reference.
    pub fn is_scalar(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// One instruction of the compiled kernel's stack machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push a literal value.
    Const(Value),
    /// Push the pre-resolved value of an access slot.
    Slot(u16),
    /// Push the value of a local register.
    Local(u16),
    /// Pop into a local register.
    Store(u16),
    /// Pop and discard (anonymous non-final statements).
    Pop,
    /// Unary operation on the stack top.
    Unary(UnOp),
    /// Binary (non-logical) operation on the two topmost values.
    Binary(BinOp),
    /// Math function of one argument.
    Call1(MathFn),
    /// Math function of two arguments.
    Call2(MathFn),
    /// Unconditional jump to an instruction index.
    Jump(u32),
    /// Pop; jump when false (ternary conditions).
    JumpIfFalse(u32),
    /// Pop; on false push `Bool(false)` and jump (short-circuit `&&`).
    AndShortCircuit(u32),
    /// Pop; on true push `Bool(true)` and jump (short-circuit `||`).
    OrShortCircuit(u32),
    /// Pop and push the value coerced to `Bool` (logical-operator results).
    ToBool,
    /// Branch-free conditional: pop `otherwise`, `then`, `cond` (in that
    /// order) and push `then` when `cond` is truthy, `otherwise` when it is
    /// not. Produced only by the if-conversion pass
    /// (`crate::opt::IfConversion`), which proves both arms side-effect
    /// free before rewriting a jump diamond into this form.
    Select,
}

/// Reusable evaluation scratch space; one per worker thread.
///
/// Holding the operand stack and local registers outside the kernel keeps
/// [`CompiledKernel::eval_slots`] allocation-free after the first call and
/// lets one immutable kernel be shared across threads.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    stack: Vec<Value>,
    locals: Vec<Value>,
}

/// A code segment lowered to slot-resolved bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    ops: Vec<Op>,
    slots: Vec<AccessSlot>,
    local_count: usize,
    max_stack: usize,
}

impl CompiledKernel {
    /// Lower a parsed code segment.
    ///
    /// The program is first constant-folded (bit-exactly); every remaining
    /// distinct access becomes an [`AccessSlot`].
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::EmptyProgram`] for empty programs. Unresolvable
    /// symbols are *not* detected here — they surface when the consumer
    /// binds slots (mirroring the evaluator, which fails on first use).
    pub fn compile(program: &Program) -> Result<CompiledKernel> {
        Self::compile_with(program, &crate::opt::PassManager::standard())
    }

    /// Lower a parsed code segment and run `passes` over it (see
    /// [`crate::opt::PassManager`]): the standard pipeline for
    /// [`CompiledKernel::compile`], the empty one for the raw lowering of
    /// [`CompiledKernel::compile_unoptimized`].
    fn compile_with(program: &Program, passes: &crate::opt::PassManager) -> Result<CompiledKernel> {
        if program.statements.is_empty() {
            return Err(ExprError::EmptyProgram);
        }
        // Statements with nothing to fold are lowered from the AST itself.
        let folded: Vec<Option<Expr>> = (program.statements.iter())
            .map(|stmt| fold_changed(&stmt.value))
            .collect();
        let mut compiler = Compiler::default();
        let last = program.statements.len() - 1;
        for (idx, (stmt, folded)) in program.statements.iter().zip(&folded).enumerate() {
            compiler.lower_stmt(stmt, folded.as_ref().unwrap_or(&stmt.value), idx == last);
        }
        let mut ops = compiler.ops;
        passes.run(&mut ops);
        let max_stack = max_stack_of(&ops);
        let local_count = local_count_of(&ops);
        let kernel = CompiledKernel {
            ops,
            slots: compiler.slots,
            local_count,
            max_stack,
        };
        // Debug builds independently verify the finished kernel (the pass
        // manager already verified after each pass); the eval loops rely on
        // the proven invariants with debug-only checks.
        #[cfg(debug_assertions)]
        if let Err(e) = crate::verify::verify_kernel(&kernel, None) {
            panic!("compiled kernel failed verification: {e}");
        }
        Ok(kernel)
    }

    /// Lower a parsed code segment without running any optimization pass:
    /// ternaries and short-circuit logic stay jump-based. This is the
    /// semantic anchor the optimized form is differentially tested against.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CompiledKernel::compile`].
    pub fn compile_unoptimized(program: &Program) -> Result<CompiledKernel> {
        Self::compile_with(program, &crate::opt::PassManager::new())
    }

    /// The distinct accesses of this kernel, indexed by slot number.
    pub fn slots(&self) -> &[AccessSlot] {
        &self.slots
    }

    /// The lowered instruction stream.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of local registers the kernel uses.
    pub(crate) fn local_count(&self) -> usize {
        self.local_count
    }

    /// Maximum operand-stack depth, statically determined.
    pub(crate) fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Evaluate with pre-resolved slot values (the hot path).
    ///
    /// `slot_values[i]` must hold the value of `self.slots()[i]` for the
    /// current cell. After `scratch` has warmed up (first call), this
    /// performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic failures (integer division by zero), exactly
    /// like the tree-walking evaluator.
    pub fn eval_slots(&self, slot_values: &[Value], scratch: &mut EvalScratch) -> Result<Value> {
        debug_assert_eq!(slot_values.len(), self.slots.len());
        let stack = &mut scratch.stack;
        stack.clear();
        stack.reserve(self.max_stack);
        scratch.locals.resize(self.local_count, Value::F64(0.0));
        let locals = &mut scratch.locals;

        let ops = &self.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            match ops[pc] {
                Op::Const(v) => stack.push(v),
                Op::Slot(ix) => stack.push(slot_values[ix as usize]),
                Op::Local(ix) => stack.push(locals[ix as usize]),
                Op::Store(ix) => {
                    locals[ix as usize] = pop_verified(stack, Value::F64(0.0), "Store")
                }
                Op::Pop => {
                    pop_verified(stack, Value::F64(0.0), "Pop");
                }
                Op::Unary(op) => {
                    let v = pop_verified(stack, Value::F64(0.0), "Unary");
                    stack.push(match op {
                        UnOp::Neg => v.neg(),
                        UnOp::Not => v.not(),
                    });
                }
                Op::Binary(op) => {
                    let r = pop_verified(stack, Value::F64(0.0), "Binary rhs");
                    let l = pop_verified(stack, Value::F64(0.0), "Binary lhs");
                    stack.push(match op {
                        BinOp::Add => l.add(r),
                        BinOp::Sub => l.sub(r),
                        BinOp::Mul => l.mul(r),
                        BinOp::Div => l.div(r)?,
                        BinOp::Lt => l.compare(r, CompareOp::Lt),
                        BinOp::Gt => l.compare(r, CompareOp::Gt),
                        BinOp::Le => l.compare(r, CompareOp::Le),
                        BinOp::Ge => l.compare(r, CompareOp::Ge),
                        BinOp::Eq => l.compare(r, CompareOp::Eq),
                        BinOp::Ne => l.compare(r, CompareOp::Ne),
                        BinOp::And | BinOp::Or => {
                            unreachable!("logical operators lower to jumps")
                        }
                    });
                }
                Op::Call1(func) => {
                    let a = pop_verified(stack, Value::F64(0.0), "Call1");
                    stack.push(eval_math_fn(func, &[a]));
                }
                Op::Call2(func) => {
                    let b = pop_verified(stack, Value::F64(0.0), "Call2 arg 2");
                    let a = pop_verified(stack, Value::F64(0.0), "Call2 arg 1");
                    stack.push(eval_math_fn(func, &[a, b]));
                }
                Op::Jump(target) => {
                    pc = target as usize;
                    continue;
                }
                Op::JumpIfFalse(target) => {
                    let c = pop_verified(stack, Value::F64(0.0), "JumpIfFalse");
                    if !c.as_bool() {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::AndShortCircuit(target) => {
                    let l = pop_verified(stack, Value::F64(0.0), "AndShortCircuit");
                    if !l.as_bool() {
                        stack.push(Value::Bool(false));
                        pc = target as usize;
                        continue;
                    }
                }
                Op::OrShortCircuit(target) => {
                    let l = pop_verified(stack, Value::F64(0.0), "OrShortCircuit");
                    if l.as_bool() {
                        stack.push(Value::Bool(true));
                        pc = target as usize;
                        continue;
                    }
                }
                Op::ToBool => {
                    let v = pop_verified(stack, Value::F64(0.0), "ToBool");
                    stack.push(Value::Bool(v.as_bool()));
                }
                Op::Select => {
                    let otherwise = pop_verified(stack, Value::F64(0.0), "Select otherwise");
                    let then = pop_verified(stack, Value::F64(0.0), "Select then");
                    let cond = pop_verified(stack, Value::F64(0.0), "Select cond");
                    stack.push(if cond.as_bool() { then } else { otherwise });
                }
            }
            pc += 1;
        }
        stack.pop().ok_or(ExprError::EmptyProgram)
    }

    /// Specialize this kernel for the given slot data types, producing a
    /// [`TypedKernel`] that evaluates over raw `f64`s with **no `Value`
    /// tagging and no per-op promotion**.
    ///
    /// Specialization performs a static type-propagation pass over the
    /// bytecode: given the (bind-time) type of every slot, the result type
    /// of each instruction is determined by the same promotion rules the
    /// [`Value`] arithmetic applies dynamically. Every instruction is
    /// lowered to [`TypedOp`]s carrying a compile-time "round through
    /// `f32`" flag, and the typed evaluation loop is bit-identical to
    /// [`CompiledKernel::eval_slots`] by construction.
    ///
    /// One kind of value has no static type and specializes all the same:
    /// a select whose arms are floats of different width (`delta > 4.0 ?
    /// 4.0 : delta` over an `f32` field joins an `f64` literal with an
    /// `f32`). Its width is carried at run time in a flag local — `1.0`
    /// for `f64`, `0.0` for `f32`, picked by the select's own condition —
    /// and every rounding-sensitive instruction consuming it computes
    /// unrounded and then rounds by select,
    /// `Select(flag, x, round32(x))`, with the flag of the promoted type
    /// (`f64` absorbs the flag; two flagged operands are `f64` if either
    /// is). Only existing instructions are used (`round32(x)` is
    /// `Mul { round: true }` by `1.0`), so lane batching, the typed
    /// verifier and the C emitter see nothing new. A flag no instruction
    /// reads is never computed: a join in tail position, or one that only
    /// feeds compares and other joins, lowers to the plain `Select` it
    /// would be with uniform slot types — the grid store rounds the result
    /// through the output type exactly as the `Value` path's final cast
    /// does.
    ///
    /// **Division is speculated at specialization time.** The optimizer
    /// keeps any diamond with a division in an arm — in the `Value`
    /// bytecode it may be the integer variant, whose division-by-zero error
    /// lazy evaluation would have skipped — so before typing, the stream
    /// goes through the same if-conversion once more with division treated
    /// as total (`opt::speculate_division`). That is sound because
    /// the converted stream is used only if typing then succeeds, which
    /// proves every instruction float: float division is IEEE-total, the
    /// discarded arm can only produce an unobserved inf or NaN, and the
    /// arms' instructions (and so their rounding flags) are kept verbatim.
    /// An integer slot or literal anywhere makes typing fail, and the
    /// kernel stays on its unconverted, lazy `Value` bytecode. A
    /// [`TypedKernel`] therefore never jumps.
    ///
    /// Returns `None` — and consumers keep the dynamic `Value` path — when
    /// the kernel cannot be typed even so: integer-typed slots or literals
    /// (integer division can fail, which the infallible typed loop cannot
    /// express), arithmetic on two booleans, negation of a boolean (which
    /// promotes to `int64`), or a select with a boolean arm against a float
    /// arm.
    pub fn specialize(&self, slot_types: &[DataType]) -> Option<TypedKernel> {
        assert_eq!(
            slot_types.len(),
            self.slots.len(),
            "one data type per access slot"
        );
        let slot_stypes: Vec<SType> = slot_types
            .iter()
            .map(|&t| SType::from_data_type(t))
            .collect::<Option<_>>()?;
        // Sound only because everything below returns `None` unless it
        // proves every instruction float.
        let ops = crate::opt::speculate_division(&self.ops);

        // The first pass materializes the flag of every mixed join. A flag
        // costs a spilled condition, and a `Select` whose operands went
        // through locals no longer reads as a clamp to the C emitter, so
        // when some flag turns out to have no reader the stream is typed
        // again with only the flags that have one.
        let mut typed = self.type_ops(&ops, &slot_stypes, None)?;
        let wanted = typed.wanted_flags();
        if wanted.contains(&false) {
            typed = self.type_ops(&ops, &slot_stypes, Some(&wanted))?;
        }
        Some(debug_verified_typed(TypedKernel {
            max_stack: typed_max_stack_of(&typed.ops),
            ops: typed.ops,
            slot_count: self.slots.len(),
            local_count: typed.next_local as usize,
        }))
    }

    /// One static type-propagation pass over `ops`, this kernel's bytecode
    /// after [`crate::opt::speculate_division`] (see
    /// [`CompiledKernel::specialize`]). `wanted[k]` says whether the `k`-th
    /// runtime type flag gets a local; `None` materializes all of them.
    fn type_ops<'a>(
        &self,
        ops: &[Op],
        slot_stypes: &[SType],
        wanted: Option<&'a [bool]>,
    ) -> Option<Typer<'a>> {
        let mut typer = Typer {
            ops: Vec::with_capacity(ops.len()),
            next_local: u16::try_from(self.local_count).ok()?,
            temps: [None; 3],
            flags: Vec::new(),
            wanted,
        };
        let mut stack: Vec<SType> = Vec::new();
        let mut locals: Vec<Option<SType>> = vec![None; self.local_count];

        for op in ops {
            match *op {
                Op::Const(v) => {
                    stack.push(SType::from_data_type(v.data_type())?);
                    typer.ops.push(TypedOp::Const(v.as_f64()));
                }
                Op::Slot(ix) => {
                    stack.push(slot_stypes[ix as usize]);
                    typer.ops.push(TypedOp::Slot(ix));
                }
                Op::Local(ix) => {
                    stack.push(locals[ix as usize]?);
                    typer.ops.push(TypedOp::Local(ix));
                }
                Op::Store(ix) => {
                    let t = stack.pop()?;
                    match locals[ix as usize] {
                        Some(previous) if previous != t => return None,
                        _ => locals[ix as usize] = Some(t),
                    }
                    typer.ops.push(TypedOp::Store(ix));
                }
                Op::Pop => {
                    stack.pop()?;
                    typer.ops.push(TypedOp::Pop);
                }
                Op::Unary(UnOp::Neg) => {
                    let t = stack.pop()?;
                    if t == SType::Bool {
                        // Negating a boolean promotes to int64.
                        return None;
                    }
                    stack.push(t);
                    // Negation is exact: the negative of an `f32` value
                    // is one, so a `Dyn` operand needs no rounding by flag.
                    typer.ops.push(TypedOp::Neg {
                        round: t == SType::F32,
                    });
                }
                Op::Unary(UnOp::Not) => {
                    stack.pop()?;
                    stack.push(SType::Bool);
                    typer.ops.push(TypedOp::Not);
                }
                Op::Binary(binop) => {
                    let r = stack.pop()?;
                    let l = stack.pop()?;
                    match binop {
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                            // `Bool ∘ Bool` stays boolean under promotion
                            // (the result is re-coerced through
                            // `from_f64`), which the typed loop does not
                            // model — reject it.
                            let t = match typer.promote(l, r)? {
                                SType::Bool => return None,
                                t => t,
                            };
                            stack.push(t);
                            typer.rounded(t, |round| match binop {
                                BinOp::Add => TypedOp::Add { round },
                                BinOp::Sub => TypedOp::Sub { round },
                                BinOp::Mul => TypedOp::Mul { round },
                                _ => TypedOp::Div { round },
                            })?;
                        }
                        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                            stack.push(SType::Bool);
                            typer.ops.push(TypedOp::Compare(match binop {
                                BinOp::Lt => CompareOp::Lt,
                                BinOp::Gt => CompareOp::Gt,
                                BinOp::Le => CompareOp::Le,
                                BinOp::Ge => CompareOp::Ge,
                                BinOp::Eq => CompareOp::Eq,
                                BinOp::Ne => CompareOp::Ne,
                                _ => unreachable!(),
                            }));
                        }
                        BinOp::And | BinOp::Or => {
                            unreachable!("logical operators lower to jumps")
                        }
                    }
                }
                Op::Call1(func) => {
                    let a = stack.pop()?;
                    let t = SType::math_result(a);
                    stack.push(t);
                    typer.rounded(t, |round| TypedOp::Call1(func, round))?;
                }
                Op::Call2(func) => {
                    let b = stack.pop()?;
                    let a = stack.pop()?;
                    let t = SType::math_result(typer.promote(a, b)?);
                    stack.push(t);
                    typer.rounded(t, |round| TypedOp::Call2(func, round))?;
                }
                // A jump that resisted even the division-speculating
                // if-conversion: no typed kernel, the `Value` path runs it.
                Op::Jump(_)
                | Op::JumpIfFalse(_)
                | Op::AndShortCircuit(_)
                | Op::OrShortCircuit(_) => return None,
                Op::ToBool => {
                    stack.pop()?;
                    stack.push(SType::Bool);
                    typer.ops.push(TypedOp::ToBool);
                }
                Op::Select => {
                    let otherwise = stack.pop()?;
                    let then = stack.pop()?;
                    stack.pop()?; // condition: any type (truthiness).
                    stack.push(typer.select(then, otherwise)?);
                }
            }
        }
        if stack.is_empty() {
            return None;
        }
        Some(typer)
    }

    /// Convenience evaluation through an [`AccessResolver`]: resolves every
    /// slot, then runs the bytecode. Used by tests and one-off evaluations;
    /// hot paths should pre-bind slots and call
    /// [`CompiledKernel::eval_slots`].
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::UnresolvedSymbol`] if the resolver cannot supply
    /// a slot, and propagates arithmetic failures.
    pub fn eval<R: AccessResolver + ?Sized>(&self, resolver: &R) -> Result<Value> {
        let mut values = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let value = resolver
                .resolve(&slot.field, &slot.offsets)
                .ok_or_else(|| ExprError::UnresolvedSymbol {
                    name: if slot.is_scalar() {
                        slot.field.clone()
                    } else {
                        format!("{}{:?}", slot.field, slot.offsets)
                    },
                })?;
            values.push(value);
        }
        self.eval_slots(&values, &mut EvalScratch::default())
    }
}

/// Static type of one stack position / local register in a specialized
/// kernel. Booleans are represented as `0.0` / `1.0`, matching
/// [`Value::as_f64`], so every slot of the typed stack is a plain `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SType {
    /// 32-bit float: every producing operation rounds through `f32`.
    F32,
    /// 64-bit float: no intermediate rounding.
    F64,
    /// Boolean (comparison / logic results), stored as `0.0` / `1.0`.
    Bool,
    /// A float whose width is only known at run time: the result of a
    /// select (or a chain of them) whose arms are `f32` on one side and
    /// `f64` on the other, as in `delta > 4.0 ? 4.0 : delta` over an `f32`
    /// field. The value is still one raw `f64`; the numbered runtime type
    /// flag ([`Flag`]) is `1.0` when the `Value` path would hold an `f64`
    /// here and `0.0` when it would hold an `f32`. Two `Dyn`s are the same
    /// type only when they share the flag.
    Dyn(u16),
}

impl SType {
    fn from_data_type(dtype: DataType) -> Option<SType> {
        match dtype {
            DataType::Float32 => Some(SType::F32),
            DataType::Float64 => Some(SType::F64),
            DataType::Bool => Some(SType::Bool),
            // Integer arithmetic can fail (division by zero) and truncates
            // through `from_f64`; keep it on the fallible Value path.
            DataType::Int32 | DataType::Int64 => None,
        }
    }

    /// Result type of a math-function call on arguments of promoted type
    /// `promoted`, mirroring [`crate::eval::eval_math_fn`]: the promoted
    /// argument type if it is a float, otherwise `f64`.
    fn math_result(promoted: SType) -> SType {
        match promoted {
            SType::Bool => SType::F64,
            t => t,
        }
    }
}

/// One runtime type flag of a specialization pass (see [`SType::Dyn`]).
struct Flag {
    /// The local register holding the flag; `None` when nothing reads it.
    local: Option<u16>,
    /// The flags this one is computed from.
    sources: [Option<u16>; 2],
    /// Whether an instruction rounds by this flag.
    read: bool,
}

/// The output side of one specialization pass: the typed stream so far and
/// the runtime type flags behind its [`SType::Dyn`] values.
struct Typer<'a> {
    ops: Vec<TypedOp>,
    /// Next free local register (the untyped kernel's come first).
    next_local: u16,
    /// Scratch registers shared by every spill sequence, made on first use.
    temps: [Option<u16>; 3],
    flags: Vec<Flag>,
    /// Which flags get a local, by number; `None` gives every flag one.
    wanted: Option<&'a [bool]>,
}

impl Typer<'_> {
    fn fresh_local(&mut self) -> Option<u16> {
        let local = self.next_local;
        self.next_local = local.checked_add(1)?;
        Some(local)
    }

    fn temp(&mut self, ix: usize) -> Option<u16> {
        if self.temps[ix].is_none() {
            self.temps[ix] = Some(self.fresh_local()?);
        }
        self.temps[ix]
    }

    /// Number a new flag computed from the flags of `a` and `b` (when they
    /// have one) and give it a local if it is wanted. Returns the flag and
    /// its local.
    fn new_flag(&mut self, a: SType, b: SType) -> Option<(u16, Option<u16>)> {
        let flag = u16::try_from(self.flags.len()).ok()?;
        let wanted = self.wanted.is_none_or(|w| w[flag as usize]);
        let local = if wanted {
            Some(self.fresh_local()?)
        } else {
            None
        };
        let source = |t| match t {
            SType::Dyn(f) => Some(f),
            _ => None,
        };
        self.flags.push(Flag {
            local,
            sources: [source(a), source(b)],
            read: false,
        });
        Some((flag, local))
    }

    /// Which flags need a local: the ones an instruction rounds by, and
    /// the ones those are computed from (always lower-numbered).
    fn wanted_flags(&self) -> Vec<bool> {
        let mut wanted: Vec<bool> = self.flags.iter().map(|f| f.read).collect();
        for ix in (0..wanted.len()).rev() {
            if wanted[ix] {
                for source in self.flags[ix].sources.into_iter().flatten() {
                    wanted[source as usize] = true;
                }
            }
        }
        wanted
    }

    /// Push "is a value of type `t` an `f64` at run time" as `1.0` / `0.0`.
    fn push_is_f64(&mut self, t: SType) -> Option<()> {
        self.ops.push(match t {
            SType::F64 => TypedOp::Const(1.0),
            SType::Dyn(flag) => TypedOp::Local(self.flags[flag as usize].local?),
            SType::F32 | SType::Bool => TypedOp::Const(0.0),
        });
        Some(())
    }

    /// Operand type of `l ∘ r` for arithmetic and two-argument math
    /// functions, mirroring [`DataType::promote`]: `f64` absorbs
    /// everything, a boolean takes the other side's type, and two values
    /// with different runtime flags are `f64` when either is.
    fn promote(&mut self, l: SType, r: SType) -> Option<SType> {
        Some(match (l, r) {
            (SType::F64, _) | (_, SType::F64) => SType::F64,
            (SType::Dyn(f), SType::Dyn(g)) if f != g => {
                let (flag, local) = self.new_flag(l, r)?;
                if let Some(local) = local {
                    self.push_is_f64(l)?;
                    self.ops.push(TypedOp::Const(1.0));
                    self.push_is_f64(r)?;
                    self.ops.extend([TypedOp::Select, TypedOp::Store(local)]);
                }
                SType::Dyn(flag)
            }
            (SType::Dyn(f), _) | (_, SType::Dyn(f)) => SType::Dyn(f),
            (SType::F32, _) | (_, SType::F32) => SType::F32,
            (SType::Bool, SType::Bool) => SType::Bool,
        })
    }

    /// Emit a rounding-sensitive instruction producing type `t`. A static
    /// type fixes the `round` flag; a runtime-typed result is computed
    /// unrounded and then replaced by its `f32` rounding unless the flag
    /// says `f64`: `x -> Select(flag, x, x * 1.0 rounded)`. The product by
    /// one is exact, so the rounded arm is `Value::from_f64(x, Float32)`
    /// bit for bit.
    fn rounded(&mut self, t: SType, make: impl Fn(bool) -> TypedOp) -> Option<()> {
        let SType::Dyn(flag) = t else {
            self.ops.push(make(t == SType::F32));
            return Some(());
        };
        self.flags[flag as usize].read = true;
        let x = self.temp(0)?;
        self.ops.extend([make(false), TypedOp::Store(x)]);
        self.push_is_f64(t)?;
        self.ops.extend([
            TypedOp::Local(x),
            TypedOp::Local(x),
            TypedOp::Const(1.0),
            TypedOp::Mul { round: true },
            TypedOp::Select,
        ]);
        Some(())
    }

    /// Emit a select whose arms have types `then` and `otherwise`
    /// (condition and both arms are on the stack) and return its type.
    fn select(&mut self, then: SType, otherwise: SType) -> Option<SType> {
        if then == otherwise {
            self.ops.push(TypedOp::Select);
            return Some(then);
        }
        if then == SType::Bool || otherwise == SType::Bool {
            // A boolean arm against a float arm: the result is not even
            // always a float.
            return None;
        }
        // Floats of different (or differently flagged) width: the result's
        // flag is the taken arm's, chosen by the same condition.
        let (flag, local) = self.new_flag(then, otherwise)?;
        if let Some(local) = local {
            let [c, t, e] = [self.temp(0)?, self.temp(1)?, self.temp(2)?];
            self.ops.extend([
                TypedOp::Store(e),
                TypedOp::Store(t),
                TypedOp::Store(c),
                TypedOp::Local(c),
            ]);
            match (then, otherwise) {
                (SType::F64, SType::F32) => self.ops.push(TypedOp::ToBool),
                (SType::F32, SType::F64) => self.ops.push(TypedOp::Not),
                _ => {
                    self.push_is_f64(then)?;
                    self.push_is_f64(otherwise)?;
                    self.ops.push(TypedOp::Select);
                }
            }
            self.ops.extend([
                TypedOp::Store(local),
                TypedOp::Local(c),
                TypedOp::Local(t),
                TypedOp::Local(e),
            ]);
        }
        self.ops.push(TypedOp::Select);
        Some(SType::Dyn(flag))
    }
}

/// One instruction of a type-specialized kernel. Arithmetic ops carry a
/// statically resolved `round` flag (`true` when the result type is `f32`);
/// comparisons push `0.0` / `1.0`; truthiness is `!= 0.0`. There is no
/// control flow: a conditional is a [`TypedOp::Select`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypedOp {
    /// Push a literal.
    Const(f64),
    /// Push a pre-resolved slot value.
    Slot(u16),
    /// Push a local register.
    Local(u16),
    /// Pop into a local register.
    Store(u16),
    /// Pop and discard.
    Pop,
    /// Arithmetic negation.
    Neg {
        /// Round the result through `f32`.
        round: bool,
    },
    /// Logical negation (pushes `0.0` / `1.0`).
    Not,
    /// Addition.
    Add {
        /// Round the result through `f32`.
        round: bool,
    },
    /// Subtraction.
    Sub {
        /// Round the result through `f32`.
        round: bool,
    },
    /// Multiplication.
    Mul {
        /// Round the result through `f32`.
        round: bool,
    },
    /// Division (always IEEE; integer kernels never specialize).
    Div {
        /// Round the result through `f32`.
        round: bool,
    },
    /// Comparison; pushes `0.0` / `1.0`.
    Compare(CompareOp),
    /// Math function of one argument; `true` rounds through `f32`.
    Call1(MathFn, bool),
    /// Math function of two arguments; `true` rounds through `f32`.
    Call2(MathFn, bool),
    /// Pop and push its truthiness as `0.0` / `1.0`.
    ToBool,
    /// Branch-free conditional: pop `otherwise`, `then`, `cond`; push `then`
    /// when `cond` is non-zero, `otherwise` when it is zero.
    Select,
}

/// Reusable scratch space for [`TypedKernel::eval_slots`], the one-cell
/// form of the lane evaluation; one per worker thread.
pub type TypedScratch = LaneScratch<1>;

/// Default lane width used by the lane-batched consumers of [`TypedKernel`]
/// (the reference executor's interior sweep and the simulator's batched
/// window taps). Eight `f64` lanes fill one 512-bit vector register and
/// still map cleanly onto two 256-bit (AVX) or four 128-bit (SSE/NEON)
/// operations.
pub const KERNEL_LANES: usize = 8;

/// Wide lane width for kernels whose every operation rounds through `f32`
/// (see the reference executor's width dispatch): each `f32`-rounding op
/// appends a double `f64 ↔ f32` conversion to the dependency chain, so
/// narrow batches of such kernels are *latency*-bound — widening the batch
/// gives the conversion chain independent work to overlap with. Measured
/// on the Jacobi/chain kernels, 16 lanes run the f32 variants ~1.4-1.6x
/// faster per cell than 8 (and the once-proposed *narrowing* to 4 lanes
/// for f64 kernels measures strictly slower at every width below 8: lanes
/// are `f64`-typed regardless of the element type, so shrinking the batch
/// only sheds dispatch amortization). Wide batches only pay off when rows
/// are long enough that full batches dominate; the dispatch in
/// `stencilflow_reference` guards on the row length.
pub const KERNEL_LANES_WIDE: usize = 16;

/// Reusable scratch space for [`TypedKernel::eval_lanes`]; one per worker
/// thread.
#[derive(Debug, Clone)]
pub struct LaneScratch<const LANES: usize> {
    stack: Vec<[f64; LANES]>,
    locals: Vec<[f64; LANES]>,
}

impl<const LANES: usize> Default for LaneScratch<LANES> {
    fn default() -> Self {
        LaneScratch {
            stack: Vec::new(),
            locals: Vec::new(),
        }
    }
}

/// A [`CompiledKernel`] monomorphized for fixed slot types (see
/// [`CompiledKernel::specialize`]): evaluation runs entirely on raw `f64`s
/// with statically resolved rounding, skipping `Value` tagging and per-op
/// promotion. Specialized kernels are infallible — integer division (the
/// only failing operation) never specializes — and branch-free: `specialize`
/// types only a stream whose every jump diamond became a select.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedKernel {
    ops: Vec<TypedOp>,
    slot_count: usize,
    local_count: usize,
    max_stack: usize,
}

impl TypedKernel {
    /// Number of access slots (same layout and indices as the kernel this
    /// was specialized from).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Number of local registers the kernel uses.
    pub fn local_count(&self) -> usize {
        self.local_count
    }

    /// Maximum operand-stack depth, statically determined.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// The specialized instruction stream.
    pub fn ops(&self) -> &[TypedOp] {
        &self.ops
    }

    /// Always `true`: a typed kernel never carries control flow, so there
    /// is nothing to ask. Retained only because the frozen benchmark adapter
    /// (`benchmark/src/sut.rs`) calls it; goes at the next re-anchor.
    pub fn supports_lanes(&self) -> bool {
        true
    }

    /// Evaluate one cell with pre-resolved raw slot values: the per-cell
    /// form of [`TypedKernel::eval_lanes`] (tests and the simulator's oracle
    /// use it; sweeps batch).
    ///
    /// `slot_values[i]` must hold the value of slot `i` for the current
    /// cell, already representable in the slot's type (grid storage
    /// guarantees this: every store rounds through the element type).
    /// Booleans are `0.0` / `1.0`. After `scratch` has warmed up, this
    /// performs no heap allocation.
    pub fn eval_slots(&self, slot_values: &[f64], scratch: &mut TypedScratch) -> f64 {
        debug_assert_eq!(slot_values.len(), self.slot_count);
        self.eval_lanes_with(|ix| [slot_values[ix]], scratch)[0]
    }

    /// Evaluate `LANES` cells per bytecode pass (the lane-batched hot path).
    ///
    /// `slot_values[i][lane]` must hold the value of slot `i` for lane
    /// `lane`, under the same preconditions as
    /// [`TypedKernel::eval_slots`]. Every instruction applies the identical
    /// scalar `f64` computation (including the static `f32`-rounding flags)
    /// independently per lane, so lane `l` of the result is bit-identical to
    /// a scalar evaluation of lane `l`'s slot values — the per-lane loops
    /// over plain `[f64; LANES]` arrays are written so rustc autovectorizes
    /// them, and the bytecode-dispatch cost is amortized over all lanes.
    pub fn eval_lanes<const LANES: usize>(
        &self,
        slot_values: &[[f64; LANES]],
        scratch: &mut LaneScratch<LANES>,
    ) -> [f64; LANES] {
        debug_assert_eq!(slot_values.len(), self.slot_count);
        self.eval_lanes_with(|ix| slot_values[ix], scratch)
    }

    /// [`TypedKernel::eval_lanes`] with the slot gather supplied as a
    /// callback: `load(i)` returns the lane batch of slot `i`, letting
    /// consumers that hold slot data in contiguous storage (the fused
    /// tile sweep) construct each batch directly on the operand stack
    /// instead of staging it through a slot-value array. `load` may be
    /// called several times for the same slot (CSE re-emits leaf taps);
    /// it must be pure.
    pub fn eval_lanes_with<const LANES: usize>(
        &self,
        load: impl Fn(usize) -> [f64; LANES],
        scratch: &mut LaneScratch<LANES>,
    ) -> [f64; LANES] {
        #[inline]
        fn finish<const LANES: usize>(v: &mut [f64; LANES], round: bool) {
            if round {
                for lane in v.iter_mut() {
                    *lane = *lane as f32 as f64;
                }
            }
        }
        let stack = &mut scratch.stack;
        stack.clear();
        stack.reserve(self.max_stack);
        scratch.locals.clear();
        scratch.locals.resize(self.local_count, [0.0; LANES]);
        let locals = &mut scratch.locals;

        for op in &self.ops {
            match *op {
                TypedOp::Const(v) => stack.push([v; LANES]),
                TypedOp::Slot(ix) => stack.push(load(ix as usize)),
                TypedOp::Local(ix) => stack.push(locals[ix as usize]),
                TypedOp::Store(ix) => {
                    locals[ix as usize] = pop_verified(stack, [0.0; LANES], "Store");
                }
                TypedOp::Pop => {
                    pop_verified(stack, [0.0; LANES], "Pop");
                }
                TypedOp::Neg { round } => {
                    let v = top_verified(stack, "Neg");
                    for lane in v.iter_mut() {
                        *lane = -*lane;
                    }
                    finish(v, round);
                }
                TypedOp::Not => {
                    let v = top_verified(stack, "Not");
                    for lane in v.iter_mut() {
                        *lane = if *lane != 0.0 { 0.0 } else { 1.0 };
                    }
                }
                TypedOp::Add { round } => {
                    let r = pop_verified(stack, [0.0; LANES], "Add rhs");
                    let l = top_verified(stack, "Add lhs");
                    for (a, b) in l.iter_mut().zip(r.iter()) {
                        *a += b;
                    }
                    finish(l, round);
                }
                TypedOp::Sub { round } => {
                    let r = pop_verified(stack, [0.0; LANES], "Sub rhs");
                    let l = top_verified(stack, "Sub lhs");
                    for (a, b) in l.iter_mut().zip(r.iter()) {
                        *a -= b;
                    }
                    finish(l, round);
                }
                TypedOp::Mul { round } => {
                    let r = pop_verified(stack, [0.0; LANES], "Mul rhs");
                    let l = top_verified(stack, "Mul lhs");
                    for (a, b) in l.iter_mut().zip(r.iter()) {
                        *a *= b;
                    }
                    finish(l, round);
                }
                TypedOp::Div { round } => {
                    let r = pop_verified(stack, [0.0; LANES], "Div rhs");
                    let l = top_verified(stack, "Div lhs");
                    for (a, b) in l.iter_mut().zip(r.iter()) {
                        *a /= b;
                    }
                    finish(l, round);
                }
                TypedOp::Compare(cmp) => {
                    let r = pop_verified(stack, [0.0; LANES], "Compare rhs");
                    let l = top_verified(stack, "Compare lhs");
                    for (a, b) in l.iter_mut().zip(r.iter()) {
                        let result = match cmp {
                            CompareOp::Lt => *a < *b,
                            CompareOp::Gt => *a > *b,
                            CompareOp::Le => *a <= *b,
                            CompareOp::Ge => *a >= *b,
                            CompareOp::Eq => *a == *b,
                            CompareOp::Ne => *a != *b,
                        };
                        *a = if result { 1.0 } else { 0.0 };
                    }
                }
                TypedOp::Call1(func, round) => {
                    let v = top_verified(stack, "Call1");
                    for lane in v.iter_mut() {
                        *lane = math_fn_raw(func, *lane, 0.0);
                    }
                    finish(v, round);
                }
                TypedOp::Call2(func, round) => {
                    let b = pop_verified(stack, [0.0; LANES], "Call2 arg 2");
                    let a = top_verified(stack, "Call2 arg 1");
                    for (x, y) in a.iter_mut().zip(b.iter()) {
                        *x = math_fn_raw(func, *x, *y);
                    }
                    finish(a, round);
                }
                TypedOp::ToBool => {
                    let v = top_verified(stack, "ToBool");
                    for lane in v.iter_mut() {
                        *lane = if *lane != 0.0 { 1.0 } else { 0.0 };
                    }
                }
                TypedOp::Select => {
                    let otherwise = pop_verified(stack, [0.0; LANES], "Select otherwise");
                    let then = pop_verified(stack, [0.0; LANES], "Select then");
                    let cond = top_verified(stack, "Select cond");
                    for ((c, t), e) in cond.iter_mut().zip(then.iter()).zip(otherwise.iter()) {
                        *c = if *c != 0.0 { *t } else { *e };
                    }
                }
            }
        }
        pop_verified(stack, [0.0; LANES], "result")
    }
}

/// In debug builds, run the bytecode verifier over a freshly specialized
/// stream — specialization bugs surface at the construction site rather
/// than cells later in an eval loop. Release builds pass the kernel through untouched.
fn debug_verified_typed(kernel: TypedKernel) -> TypedKernel {
    #[cfg(debug_assertions)]
    if let Err(e) = crate::verify::verify_typed(&kernel) {
        panic!("specialized kernel failed verification: {e}");
    }
    kernel
}

/// Pop an operand the bytecode verifier proved present.
///
/// Every kernel entering an eval loop has passed [`crate::verify`] — run
/// after lowering, after every optimizer pass, and after specialization in
/// debug builds — which proves no reachable instruction underflows the
/// operand stack and that the kernel exits with exactly one result. The
/// `debug_assert!` restates that invariant at the call site; release
/// builds take the `unwrap_or` path, which carries no panic machinery
/// (`zero` is unreachable by the proof above).
#[inline(always)]
fn pop_verified<T>(stack: &mut Vec<T>, zero: T, what: &str) -> T {
    debug_assert!(!stack.is_empty(), "stack underflow: {what}");
    stack.pop().unwrap_or(zero)
}

/// Borrow the stack top the bytecode verifier proved present (see
/// [`pop_verified`] for the invariant). The `len - 1` index is trivially
/// in bounds under that proof; no `expect` payload is carried.
#[inline(always)]
fn top_verified<'a, T>(stack: &'a mut [T], what: &str) -> &'a mut T {
    debug_assert!(!stack.is_empty(), "stack underflow: {what}");
    let ix = stack.len().wrapping_sub(1);
    &mut stack[ix]
}

/// The key of one access slot, borrowed from the AST: a field (or scalar
/// symbol) and its index expressions, ordered by the field and then the
/// offsets; the index variables do not take part.
#[derive(Clone, Copy)]
struct SlotKey<'a> {
    field: &'a str,
    indices: &'a [Index],
}

impl Ord for SlotKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let offsets = |key: &Self| key.indices.iter().map(|ix| ix.offset);
        (self.field.cmp(other.field)).then_with(|| offsets(self).cmp(offsets(other)))
    }
}

impl PartialOrd for SlotKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SlotKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SlotKey<'_> {}

/// Lowering state; its maps borrow their keys from the program lowered.
#[derive(Default)]
struct Compiler<'a> {
    ops: Vec<Op>,
    slots: Vec<AccessSlot>,
    slot_index: BTreeMap<SlotKey<'a>, u16>,
    locals: BTreeMap<&'a str, u16>,
}

impl<'a> Compiler<'a> {
    /// Lower one statement whose (folded) right-hand side is `value`.
    fn lower_stmt(&mut self, stmt: &'a Stmt, value: &'a Expr, is_last: bool) {
        self.lower_expr(value);
        if is_last {
            // The final statement's value is the kernel result: leave it on
            // the stack (even when named — nothing can read the local).
            return;
        }
        match &stmt.name {
            Some(name) => {
                let next = self.locals.len() as u16;
                let register = *self.locals.entry(name).or_insert(next);
                self.ops.push(Op::Store(register));
            }
            None => self.ops.push(Op::Pop),
        }
    }

    fn slot_for(&mut self, field: &'a str, indices: &'a [Index]) -> u16 {
        let key = SlotKey { field, indices };
        if let Some(&ix) = self.slot_index.get(&key) {
            return ix;
        }
        let ix = u16::try_from(self.slots.len()).expect("more than 65535 distinct accesses");
        self.slots.push(AccessSlot {
            field: field.to_string(),
            offsets: indices.iter().map(|ix| ix.offset).collect(),
            index_vars: indices.iter().map(|ix| ix.var.clone()).collect(),
        });
        self.slot_index.insert(key, ix);
        ix
    }

    fn lower_expr(&mut self, expr: &'a Expr) {
        match expr {
            Expr::IntLit(v) => self.ops.push(Op::Const(Value::I64(*v))),
            Expr::FloatLit(v) => self.ops.push(Op::Const(Value::F64(*v))),
            Expr::Var(name) => {
                if let Some(&register) = self.locals.get(name.as_str()) {
                    self.ops.push(Op::Local(register));
                } else {
                    // Scalar symbol: resolved by the consumer at bind time.
                    let slot = self.slot_for(name, &[]);
                    self.ops.push(Op::Slot(slot));
                }
            }
            Expr::FieldAccess { field, indices } => {
                let slot = self.slot_for(field, indices);
                self.ops.push(Op::Slot(slot));
            }
            Expr::Unary { op, operand } => {
                self.lower_expr(operand);
                self.ops.push(Op::Unary(*op));
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.lower_expr(lhs);
                    let patch = self.ops.len();
                    self.ops.push(Op::AndShortCircuit(0));
                    self.lower_expr(rhs);
                    self.ops.push(Op::ToBool);
                    let end = self.ops.len() as u32;
                    self.ops[patch] = Op::AndShortCircuit(end);
                }
                BinOp::Or => {
                    self.lower_expr(lhs);
                    let patch = self.ops.len();
                    self.ops.push(Op::OrShortCircuit(0));
                    self.lower_expr(rhs);
                    self.ops.push(Op::ToBool);
                    let end = self.ops.len() as u32;
                    self.ops[patch] = Op::OrShortCircuit(end);
                }
                _ => {
                    self.lower_expr(lhs);
                    self.lower_expr(rhs);
                    self.ops.push(Op::Binary(*op));
                }
            },
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                self.lower_expr(cond);
                let patch_else = self.ops.len();
                self.ops.push(Op::JumpIfFalse(0));
                self.lower_expr(then);
                let patch_end = self.ops.len();
                self.ops.push(Op::Jump(0));
                let else_target = self.ops.len() as u32;
                self.ops[patch_else] = Op::JumpIfFalse(else_target);
                self.lower_expr(otherwise);
                let end_target = self.ops.len() as u32;
                self.ops[patch_end] = Op::Jump(end_target);
            }
            Expr::Call { func, args } => {
                for arg in args {
                    self.lower_expr(arg);
                }
                match args.len() {
                    1 => self.ops.push(Op::Call1(*func)),
                    2 => self.ops.push(Op::Call2(*func)),
                    n => unreachable!("math functions have arity 1 or 2, got {n}"),
                }
            }
        }
    }
}

/// Statically determine the maximum operand-stack depth of an instruction
/// stream by abstract execution over instruction effects (jumps only ever
/// skip pushes, so a linear scan upper-bounds the true depth). Shared by the
/// lowering and by the optimization passes, which rewrite the stream.
pub(crate) fn max_stack_of(ops: &[Op]) -> usize {
    let mut depth = 0i64;
    let mut max = 0i64;
    for op in ops {
        depth += op_stack_effect(op);
        max = max.max(depth);
    }
    max.max(1) as usize
}

/// Net stack effect of one instruction on the fall-through path (an upper
/// bound for conditional control flow; see [`max_stack_of`]).
pub(crate) fn op_stack_effect(op: &Op) -> i64 {
    match op {
        Op::Const(_) | Op::Slot(_) | Op::Local(_) => 1,
        Op::Store(_) | Op::Pop | Op::Binary(_) | Op::Call2(_) | Op::JumpIfFalse(_) => -1,
        Op::Unary(_) | Op::Call1(_) | Op::Jump(_) | Op::ToBool => 0,
        // Short-circuit ops pop the lhs and conditionally push the result;
        // net effect on the fall-through path is -1, and the taken path
        // pushes one back, so 0 is the safe upper bound.
        Op::AndShortCircuit(_) | Op::OrShortCircuit(_) => 0,
        Op::Select => -2,
    }
}

/// Operand-stack depth of a typed instruction stream. Not the untyped
/// kernel's: a select evaluates both arms where the diamond it came from
/// ran one, and runtime-type-flag code runs above the operands it serves.
fn typed_max_stack_of(ops: &[TypedOp]) -> usize {
    let mut depth = 0i64;
    let mut max = 0i64;
    for op in ops {
        depth += match op {
            TypedOp::Const(_) | TypedOp::Slot(_) | TypedOp::Local(_) => 1,
            TypedOp::Store(_)
            | TypedOp::Pop
            | TypedOp::Add { .. }
            | TypedOp::Sub { .. }
            | TypedOp::Mul { .. }
            | TypedOp::Div { .. }
            | TypedOp::Compare(_)
            | TypedOp::Call2(..) => -1,
            TypedOp::Neg { .. } | TypedOp::Not | TypedOp::Call1(..) | TypedOp::ToBool => 0,
            TypedOp::Select => -2,
        };
        max = max.max(depth);
    }
    max.max(1) as usize
}

/// Number of local registers an instruction stream uses (registers are
/// allocated densely from zero by both the lowering and the optimizer).
pub(crate) fn local_count_of(ops: &[Op]) -> usize {
    ops.iter()
        .map(|op| match op {
            Op::Store(ix) | Op::Local(ix) => *ix as usize + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, MapResolver};
    use crate::parser::parse_program;

    fn compile(code: &str) -> CompiledKernel {
        CompiledKernel::compile(&parse_program(code).unwrap()).unwrap()
    }

    fn check_matches_evaluator(code: &str, resolver: &MapResolver) {
        let program = parse_program(code).unwrap();
        let interpreted = Evaluator::new(resolver).eval_program(&program);
        let compiled = CompiledKernel::compile(&program).unwrap().eval(resolver);
        match (interpreted, compiled) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.data_type(), b.data_type(), "type mismatch for `{code}`");
                assert!(
                    a.as_f64().to_bits() == b.as_f64().to_bits()
                        || (a.as_f64().is_nan() && b.as_f64().is_nan()),
                    "value mismatch for `{code}`: {a:?} vs {b:?}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "error mismatch for `{code}`"),
            (a, b) => panic!("outcome mismatch for `{code}`: {a:?} vs {b:?}"),
        }
    }

    fn resolver_f32() -> MapResolver {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(3.5));
        r.insert_access("a", &[-1], Value::F32(1.25));
        r.insert_access("a", &[1], Value::F32(-2.0));
        r.insert_access("b", &[0], Value::F32(0.0));
        r.insert_scalar("dt", Value::F32(0.25));
        r
    }

    #[test]
    fn matches_evaluator_on_arithmetic_and_locals() {
        let r = resolver_f32();
        for code in [
            "a[i] * 2.0 + 1.0",
            "x = a[i-1] + a[i+1]; y = x * dt; y - a[i]",
            "(a[i] + a[i-1]) / (a[i+1] - 2.0)",
            "-a[i] + -(a[i-1] * dt)",
            "sqrt(abs(a[i+1])) + min(a[i], max(a[i-1], dt))",
            "pow(a[i], 2.0) + exp(b[i]) + log(a[i]) + floor(a[i]) + ceil(dt)",
            "a[i] + 0.0",
            "1.0 * a[i] - 0.0",
        ] {
            check_matches_evaluator(code, &r);
        }
    }

    #[test]
    fn matches_evaluator_on_branches_and_logic() {
        let r = resolver_f32();
        for code in [
            "a[i] > 0.0 ? a[i] : -a[i]",
            "a[i+1] > 0.0 ? a[i] : -a[i]",
            "b[i] != 0.0 && 1 / 0 > 0 ? 1.0 : 2.0",
            "a[i] > 0.0 || 1 / 0 > 0 ? 1.0 : 2.0",
            "!(a[i] > 0.0) ? dt : a[i-1]",
            "(a[i] > 0.0 && a[i-1] > 0.0) ? (a[i+1] > 0.0 ? 1.0 : 2.0) : 3.0",
        ] {
            check_matches_evaluator(code, &r);
        }
    }

    #[test]
    fn matches_evaluator_on_errors() {
        let r = resolver_f32();
        // Integer division by zero errors identically in both paths.
        check_matches_evaluator("1 / 0", &r);
        check_matches_evaluator("x = 1 / 0; a[i]", &r);
        // Float division by zero is IEEE in both paths.
        check_matches_evaluator("a[i] / b[i]", &r);
    }

    #[test]
    fn slots_are_deduplicated() {
        let kernel = compile("u[i,j] * u[i,j] + u[i-1,j] + dt * dt");
        assert_eq!(kernel.slots().len(), 3);
        assert!(kernel
            .slots()
            .iter()
            .any(|s| s.is_scalar() && s.field == "dt"));
        let u_center = kernel
            .slots()
            .iter()
            .find(|s| s.field == "u" && s.offsets == vec![0, 0])
            .unwrap();
        assert_eq!(u_center.index_vars, vec!["i", "j"]);
    }

    #[test]
    fn constants_are_folded_at_compile_time() {
        let kernel = compile("a[i] * (2.0 * 3.0 + 4.0)");
        // 2*3+4 folds into a single constant: slot, const, mul.
        assert_eq!(kernel.ops().len(), 3);
        assert!(kernel.ops().contains(&Op::Const(Value::F64(10.0))));
    }

    #[test]
    fn unresolved_slots_error_at_bind_time() {
        let kernel = compile("missing[i] + 1.0");
        let r = MapResolver::new();
        assert!(matches!(
            kernel.eval(&r),
            Err(ExprError::UnresolvedSymbol { .. })
        ));
    }

    #[test]
    fn eval_slots_reuses_scratch_without_allocation_growth() {
        let kernel = compile("x = a[i-1] + a[i+1]; 0.5 * x + a[i]");
        let values = [Value::F32(1.0), Value::F32(2.0), Value::F32(3.0)];
        let mut scratch = EvalScratch::default();
        let first = kernel.eval_slots(&values, &mut scratch).unwrap();
        let stack_cap = scratch.stack.capacity();
        let locals_cap = scratch.locals.capacity();
        for _ in 0..100 {
            let again = kernel.eval_slots(&values, &mut scratch).unwrap();
            assert_eq!(again, first);
        }
        assert_eq!(scratch.stack.capacity(), stack_cap);
        assert_eq!(scratch.locals.capacity(), locals_cap);
    }

    #[test]
    fn max_stack_bounds_actual_depth() {
        let kernel = compile("((a[i] + a[i-1]) * (a[i+1] + dt)) / (a[i] - dt)");
        assert!(kernel.max_stack() >= 3);
        assert!(kernel.max_stack() <= 8);
        assert_eq!(kernel.local_count(), 0);
    }

    #[test]
    fn empty_program_is_rejected() {
        let program = Program { statements: vec![] };
        assert!(matches!(
            CompiledKernel::compile(&program),
            Err(ExprError::EmptyProgram)
        ));
    }

    /// Specialize `code` for slots uniformly typed `dtype`, evaluate both
    /// paths on the same resolver values, and require identical bits.
    fn check_typed_matches_value_path(code: &str, dtype: DataType, resolver: &MapResolver) {
        let kernel = compile(code);
        let slot_types: Vec<DataType> = kernel.slots().iter().map(|_| dtype).collect();
        let typed = kernel
            .specialize(&slot_types)
            .unwrap_or_else(|| panic!("`{code}` should specialize for {dtype}"));
        let mut values = Vec::new();
        let mut raw = Vec::new();
        for slot in kernel.slots() {
            let v = resolver
                .resolve(&slot.field, &slot.offsets)
                .unwrap_or_else(|| panic!("missing resolver entry for `{}`", slot.field));
            let v = Value::from_f64(v.as_f64(), dtype);
            raw.push(v.as_f64());
            values.push(v);
        }
        let reference = kernel
            .eval_slots(&values, &mut EvalScratch::default())
            .unwrap();
        let specialized = typed.eval_slots(&raw, &mut TypedScratch::default());
        assert!(
            reference.as_f64().to_bits() == specialized.to_bits()
                || (reference.as_f64().is_nan() && specialized.is_nan()),
            "typed mismatch for `{code}` ({dtype}): {reference:?} vs {specialized:?}"
        );
    }

    #[test]
    fn typed_kernels_match_value_path_bitwise() {
        for dtype in [DataType::Float32, DataType::Float64] {
            let r = resolver_f32();
            for code in [
                "0.125 * (a[i] + a[i-1] + a[i+1] + b[i] + dt)",
                "x = a[i-1] + a[i+1]; y = x * dt; y - a[i]",
                "(a[i] + a[i-1]) / (a[i+1] - 2.0)",
                "-a[i] + -(a[i-1] * dt)",
                "sqrt(abs(a[i+1])) + min(a[i], max(a[i-1], dt))",
                "pow(a[i], 2.0) + exp(b[i]) + log(a[i]) + floor(a[i]) + ceil(dt)",
                "a[i] > 0.0 ? a[i] : -a[i]",
                "b[i] != 0.0 && a[i] > 0.0 ? a[i] : a[i-1]",
                "a[i] > 0.0 || b[i] > 0.0 ? a[i] : a[i-1]",
                "!(a[i] > 0.0) ? dt : a[i-1]",
                "a[i] / b[i]",
                "(a[i] > 0.0) + a[i-1]",
            ] {
                check_typed_matches_value_path(code, dtype, &r);
            }
        }
    }

    #[test]
    fn typed_f32_rounds_per_operation() {
        // 1/3 is inexact: an f32 addition must round before the f64 scale,
        // exactly like the Value path (adds are f32, the literal multiply
        // promotes to f64).
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(1.0 / 3.0));
        r.insert_access("a", &[-1], Value::F32(2.0 / 3.0));
        check_typed_matches_value_path("0.1 * (a[i] + a[i-1])", DataType::Float32, &r);
        let kernel = compile("0.1 * (a[i] + a[i-1])");
        let typed = kernel
            .specialize(&[DataType::Float32, DataType::Float32])
            .unwrap();
        // The add is f32-typed, the multiply (f64 literal) is not.
        assert!(typed.ops().contains(&TypedOp::Add { round: true }));
        assert!(typed.ops().contains(&TypedOp::Mul { round: false }));
    }

    #[test]
    fn all_f64_kernels_never_round() {
        let kernel = compile("0.25 * (a[i-1] + a[i+1]) - a[i]");
        let typed = kernel.specialize(&[DataType::Float64; 3]).unwrap();
        assert!(typed.ops().iter().all(|op| !matches!(
            op,
            TypedOp::Add { round: true }
                | TypedOp::Sub { round: true }
                | TypedOp::Mul { round: true }
                | TypedOp::Div { round: true }
        )));
    }

    #[test]
    fn unspecializable_kernels_fall_back() {
        // Integer literals make integer arithmetic (and its division error)
        // possible: no specialization.
        let kernel = compile("a[i] + 1 / 2");
        assert!(kernel.specialize(&[DataType::Float32]).is_none());
        // Integer-typed slots: no specialization.
        let kernel = compile("a[i] * 2.0");
        assert!(kernel.specialize(&[DataType::Int32]).is_none());
        // Ternary arms of different float widths used to be the third
        // case. They specialize now: the select is typed `Dyn`, and in
        // tail position that costs nothing — the stream is the one the
        // all-f64 slots get.
        let kernel = compile("a[i] > 0.0 ? a[i] : 0.5");
        let mixed = kernel.specialize(&[DataType::Float32]).unwrap();
        let uniform = kernel.specialize(&[DataType::Float64]).unwrap();
        assert_eq!(mixed.ops(), uniform.ops());
        // A boolean arm against a float arm is still out: the result is
        // not always a float.
        let kernel = compile("a[i] > 0.0 ? a[i] : a[i] < 1.0");
        assert!(kernel.specialize(&[DataType::Float32]).is_none());
        // A mixed-width join with a division in an arm keeps its jumps in
        // the `Value` bytecode. Division is speculated before typing, so
        // it is a `Dyn` select like the one above; in tail position, the
        // all-f64 stream again.
        let kernel = compile("a[i] > 0.0 ? a[i] / 3.0 : a[i]");
        assert!(kernel.ops().iter().any(|op| matches!(op, Op::Jump(_))));
        let mixed = kernel.specialize(&[DataType::Float32]).unwrap();
        let uniform = kernel.specialize(&[DataType::Float64]).unwrap();
        assert_eq!(mixed.ops(), uniform.ops());
        // An integer division in a speculated arm never gets that far.
        let kernel = compile("a[i] > 0.0 ? 1 / 0 : a[i]");
        assert!(kernel.specialize(&[DataType::Float32]).is_none());
    }

    /// The two limiter shapes of `workloads::horizontal_diffusion`.
    const FLUX: &str = "delta = a[i+1] - a[i]; lim = delta > 4.0 ? 4.0 : delta; \
                        lim * (b[i+1] - b[i]) > 0.0 ? 0.0 : lim";
    const UPDATE: &str = "res = a[i] - b[i] * (a[i+1] - a[i-1]); res > 100000.0 ? 100000.0 : res";

    /// Typed, lane and `Value` results of `code` on `LANES` rows of f32
    /// slot values, compared bit for bit.
    fn check_mixed_rows<const LANES: usize>(code: &str, rows: [&[f32]; LANES]) -> TypedKernel {
        let kernel = compile(code);
        let slots = kernel.slots().len();
        let typed = kernel
            .specialize(&vec![DataType::Float32; slots])
            .unwrap_or_else(|| panic!("`{code}` should specialize"));
        let lanes: Vec<[f64; LANES]> = (0..slots)
            .map(|s| std::array::from_fn(|lane| rows[lane][s] as f64))
            .collect();
        let batched = typed.eval_lanes(&lanes, &mut LaneScratch::default());
        for (lane, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), slots, "one value per slot of `{code}`");
            let values: Vec<Value> = row.iter().map(|&v| Value::F32(v)).collect();
            let raw: Vec<f64> = row.iter().map(|&v| v as f64).collect();
            let reference = kernel
                .eval_slots(&values, &mut EvalScratch::default())
                .unwrap()
                .as_f64();
            let scalar = typed.eval_slots(&raw, &mut TypedScratch::default());
            for (tier, got) in [("typed", scalar), ("lane", batched[lane])] {
                assert!(
                    reference.to_bits() == got.to_bits() || (reference.is_nan() && got.is_nan()),
                    "{tier} mismatch for `{code}` on {row:?}: {reference:?} vs {got:?}"
                );
            }
        }
        typed
    }

    #[test]
    fn mixed_width_joins_specialize_bitwise() {
        // Slots of FLUX: a[i+1], a[i], b[i+1], b[i]. Rows cover: limiter
        // taken (lim is the f64 literal, the product stays unrounded) and
        // not taken (lim is f32, the product rounds); a product that is
        // positive in f64 but rounds to zero in f32, which flips the outer
        // condition; signed zeros, infinities, NaN and subnormals.
        let tiny = f32::MIN_POSITIVE;
        let typed = check_mixed_rows(
            FLUX,
            [
                &[9.0, 1.0, 2.0, 1.0],
                &[9.0, 1.0, 1.0, 2.0],
                &[1.3, 1.0, 1.7, 1.1],
                &[1.3, 1.0, 1.1, 1.7],
                &[tiny, 0.0, tiny, 0.0],
                &[1e-30, 0.0, 1e-30, 0.0],
                &[-0.0, 0.0, 0.0, -0.0],
                &[f32::INFINITY, 1.0, f32::NEG_INFINITY, 1.0],
                &[f32::NAN, 1.0, 2.0, 1.0],
                &[1.0, f32::NAN, f32::NAN, 1.0],
                &[f32::from_bits(1), 0.0, f32::from_bits(7), 0.0],
                &[5.0 + tiny, 1.0, 3.0e38, -3.0e38],
            ],
        );
        // One flag (lim's, read by the product) is materialized; the tail
        // select's is not, and stays a plain compare-and-select.
        let stores = |ops: &[TypedOp]| {
            ops.iter()
                .filter(|op| matches!(op, TypedOp::Store(_)))
                .count()
        };
        // delta, lim, the flag, the three select spills, the product.
        assert_eq!(stores(typed.ops()), 7);
        let n = typed.ops().len();
        assert_eq!(
            typed.ops()[n - 5..],
            [
                TypedOp::Const(0.0),
                TypedOp::Compare(CompareOp::Gt),
                TypedOp::Const(0.0),
                TypedOp::Local(1),
                TypedOp::Select
            ]
        );
        // A join nobody computes with costs nothing at all.
        let typed = check_mixed_rows(
            UPDATE,
            [
                &[1.0, 0.5, 2.0, 3.0],
                &[3.0e38, -1.0, 3.0e38, 0.0],
                &[f32::NAN, 1.0, 1.0, 1.0],
                &[-0.0, 0.0, 0.0, 0.0],
            ],
        );
        let kernel = compile(UPDATE);
        let uniform = kernel.specialize(&[DataType::Float64; 4]).unwrap();
        assert_eq!(typed.ops().len(), uniform.ops().len());
        assert_eq!(stores(typed.ops()), 1);
    }

    #[test]
    fn runtime_width_follows_value_promotion() {
        // Every consumer rule, each on both arm choices (a[i] = 3.5 takes
        // the f64 literal 0.1, a[i] = -3.5 the f32 slot): Dyn with f64 is
        // f64, with f32 or a boolean stays Dyn, with another Dyn is f64 if
        // either is; compares, calls, negation, stores and nested joins.
        for code in [
            "x = a[i] > 0.0 ? 0.1 : b[i]; x * b[i]",
            "x = a[i] > 0.0 ? b[i] : 0.1; b[i] / x",
            "x = a[i] > 0.0 ? 0.1 : b[i]; x + 0.7",
            "x = a[i] > 0.0 ? 0.1 : b[i]; x * (b[i] > 0.0)",
            "x = a[i] > 0.0 ? 0.1 : b[i]; y = b[i] > 0.3 ? b[i] : 0.7; x * y",
            "x = a[i] > 0.0 ? 0.1 : b[i]; y = x * b[i]; y * x - y",
            "x = a[i] > 0.0 ? 0.1 : b[i]; sqrt(x) + min(x, b[i]) * max(0.3, x)",
            "x = a[i] > 0.0 ? 0.1 : b[i]; pow(x, x) - -x",
            "x = a[i] > 0.0 ? 0.1 : b[i]; x * b[i] > 0.033 ? x : x * x",
            "x = a[i] > 0.0 ? 0.1 : b[i]; y = b[i] > 0.3 ? x : 0.7; z = y < 0.5 ? b[i] : y; z * b[i]",
            "x = a[i] > 0.0 ? 0.1 : b[i]; y = b[i] > 0.3 ? x : b[i] * b[i]; y / b[i]",
        ] {
            check_mixed_rows(
                code,
                [
                    &[3.5, 0.33],
                    &[-3.5, 0.33],
                    &[3.5, 0.29],
                    &[-3.5, 0.29],
                    &[f32::NAN, 1.0e-30],
                    &[-1.0, 1.0e-30],
                ],
            );
        }
    }

    #[test]
    fn typed_scratch_reuse_does_not_allocate() {
        let kernel = compile("x = a[i-1] + a[i+1]; 0.5 * x + a[i]");
        let typed = kernel.specialize(&[DataType::Float32; 3]).unwrap();
        let raw = [1.0, 2.0, 3.0];
        let mut scratch = TypedScratch::default();
        let first = typed.eval_slots(&raw, &mut scratch);
        let stack_cap = scratch.stack.capacity();
        let locals_cap = scratch.locals.capacity();
        for _ in 0..100 {
            assert_eq!(typed.eval_slots(&raw, &mut scratch), first);
        }
        assert_eq!(scratch.stack.capacity(), stack_cap);
        assert_eq!(scratch.locals.capacity(), locals_cap);
    }

    /// Branch-free codes used by the lane-batching tests: arithmetic,
    /// locals, math functions, comparisons used as values, `!`, and —
    /// since the if-conversion pass — ternaries and short-circuit logic
    /// lowered to selects.
    const LANE_CODES: &[&str] = &[
        "0.125 * (a[i] + a[i-1] + a[i+1] + b[i] + dt)",
        "x = a[i-1] + a[i+1]; y = x * dt; y - a[i]",
        "(a[i] + a[i-1]) / (a[i+1] - 2.0)",
        "-a[i] + -(a[i-1] * dt)",
        "sqrt(abs(a[i+1])) + min(a[i], max(a[i-1], dt))",
        "pow(a[i], 2.0) + exp(b[i]) + log(a[i]) + floor(a[i]) + ceil(dt)",
        "(a[i] > 0.0) + a[i-1]",
        "!(a[i] > 0.0) + a[i-1] * (b[i] <= dt)",
        "a[i] > 0.0 ? a[i] : -a[i]",
        "b[i] != 0.0 && a[i] > 0.0 ? a[i] * dt : a[i-1]",
        "u = a[i] > dt ? a[i] - a[i-1] : a[i+1] - a[i]; u * u + b[i]",
    ];

    #[test]
    fn lane_batched_matches_scalar_typed_bitwise() {
        // Each lane of `eval_lanes` must reproduce the scalar typed result
        // bit for bit, for f32 (per-op rounding) and f64 slot types.
        const LANES: usize = 8;
        for dtype in [DataType::Float32, DataType::Float64] {
            for code in LANE_CODES {
                let kernel = compile(code);
                let slot_types: Vec<DataType> = kernel.slots().iter().map(|_| dtype).collect();
                let typed = kernel
                    .specialize(&slot_types)
                    .unwrap_or_else(|| panic!("`{code}` should specialize for {dtype}"));
                // Distinct per-lane values, rounded through the slot type as
                // grid storage would round them.
                let lanes: Vec<[f64; LANES]> = (0..kernel.slots().len())
                    .map(|s| {
                        let mut row = [0.0; LANES];
                        for (lane, value) in row.iter_mut().enumerate() {
                            let raw = (s as f64 + 1.0) * 0.37 + lane as f64 * 0.61 - 1.7;
                            *value = Value::from_f64(raw, dtype).as_f64();
                        }
                        row
                    })
                    .collect();
                let batched = typed.eval_lanes(&lanes, &mut LaneScratch::default());
                let mut scratch = TypedScratch::default();
                for lane in 0..LANES {
                    let scalar_slots: Vec<f64> = lanes.iter().map(|row| row[lane]).collect();
                    let scalar = typed.eval_slots(&scalar_slots, &mut scratch);
                    assert!(
                        scalar.to_bits() == batched[lane].to_bits()
                            || (scalar.is_nan() && batched[lane].is_nan()),
                        "lane {lane} mismatch for `{code}` ({dtype}): \
                         {scalar:?} vs {:?}",
                        batched[lane]
                    );
                }
            }
        }
    }

    #[test]
    fn no_jump_survives_specialization() {
        // Jump-based diamonds survive in the *untyped* bytecode of the
        // unoptimized lowering, and `specialize` speculates them away
        // regardless of the untyped pipeline: the typed stream is the one
        // the optimized kernel gets, a select per diamond.
        let selects = |typed: &TypedKernel| {
            typed
                .ops()
                .iter()
                .filter(|op| **op == TypedOp::Select)
                .count()
        };
        for (code, diamonds) in [
            ("a[i] > 0.0 ? a[i] : -a[i]", 1),
            ("b[i] != 0.0 && a[i] > 0.0 ? a[i] : a[i-1]", 2),
            ("a[i] > 0.0 || b[i] > 0.0 ? a[i] : a[i-1]", 2),
        ] {
            let program = parse_program(code).unwrap();
            let kernel = CompiledKernel::compile_unoptimized(&program).unwrap();
            assert!(
                kernel
                    .ops()
                    .iter()
                    .any(|op| matches!(op, Op::Jump(_) | Op::JumpIfFalse(_))
                        || matches!(op, Op::AndShortCircuit(_) | Op::OrShortCircuit(_))),
                "unoptimized `{code}` should keep its jumps in the Value bytecode"
            );
            let slot_types: Vec<DataType> =
                kernel.slots().iter().map(|_| DataType::Float64).collect();
            let typed = kernel
                .specialize(&slot_types)
                .unwrap_or_else(|| panic!("`{code}` should specialize"));
            assert_eq!(selects(&typed), diamonds, "`{code}`");
            let optimized = CompiledKernel::compile(&program).unwrap();
            assert!(optimized.specialize(&slot_types).is_some());
        }
        // A division in an arm resists the optimizer (the `Value` bytecode
        // keeps its jumps, in case the division is an integer one);
        // specialization speculates it and then proves it float.
        let program = parse_program("a[i] > 0.0 ? a[i] / b[i] : a[i]").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        assert!(kernel
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Jump(_) | Op::JumpIfFalse(_))));
        let typed = kernel.specialize(&[DataType::Float64; 2]).unwrap();
        assert_eq!(
            typed.ops(),
            [
                TypedOp::Slot(0),
                TypedOp::Const(0.0),
                TypedOp::Compare(CompareOp::Gt),
                TypedOp::Slot(0),
                TypedOp::Slot(1),
                TypedOp::Div { round: false },
                TypedOp::Slot(0),
                TypedOp::Select,
            ]
        );
    }

    #[test]
    fn speculated_division_diamonds_match_the_value_path() {
        // Division-carrying ternaries: the untyped bytecode must stay
        // lazy (integer division could error), the typed stream is
        // selects — and stays bit-identical to the jump-based `Value`
        // evaluation, division-by-zero arms (quiet inf/NaN) included.
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(3.5));
        r.insert_access("a", &[-1], Value::F32(-1.25));
        r.insert_access("b", &[0], Value::F32(0.0));
        r.insert_scalar("dt", Value::F32(0.25));
        for code in [
            "a[i] > 0.0 ? a[i] / b[i] : a[i]",
            "b[i] > 0.0 ? a[i] / b[i] : a[i]",
            "a[i] / (b[i] != 0.0 ? b[i] : dt)",
            "u = a[i] > 0.0 ? a[i-1] / dt : dt / a[i]; u + a[i]",
            "b[i] != 0.0 && a[i] / b[i] > 1.0 ? 1.5 : 2.5",
            "a[i] > 0.0 || a[i] / b[i] > 1.0 ? 1.5 : 2.5",
        ] {
            for dtype in [DataType::Float32, DataType::Float64] {
                check_typed_matches_value_path(code, dtype, &r);
            }
        }
    }

    #[test]
    fn selects_of_speculated_arms_recompute_the_stack_bound() {
        // The select form evaluates both arms before selecting: the
        // jump-based bound (arms never coexist) would under-reserve.
        let code = "a[i] > 0.0 ? (a[i] + a[i-1]) / (b[i] + dt) : a[i] / b[i]";
        let kernel = compile(code);
        let typed = kernel.specialize(&[DataType::Float32; 4]).unwrap();
        // cond + both arms' peak operands live together.
        assert!(typed.max_stack >= 4);
        // Deep nesting still evaluates correctly through the recomputed
        // reservation.
        let raw = vec![2.0, 1.0, 3.0, 0.5];
        let scalar = typed.eval_slots(&raw, &mut TypedScratch::default());
        let lanes: Vec<[f64; 4]> = raw.iter().map(|&v| [v; 4]).collect();
        let batched = typed.eval_lanes(&lanes, &mut LaneScratch::<4>::default());
        for lane in batched {
            assert_eq!(lane.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn lane_scratch_reuse_does_not_allocate() {
        const LANES: usize = KERNEL_LANES;
        let kernel = compile("x = a[i-1] + a[i+1]; 0.5 * x + a[i]");
        let typed = kernel.specialize(&[DataType::Float32; 3]).unwrap();
        let lanes = vec![[1.0; LANES], [2.0; LANES], [3.0; LANES]];
        let mut scratch = LaneScratch::default();
        let first = typed.eval_lanes(&lanes, &mut scratch);
        let stack_cap = scratch.stack.capacity();
        let locals_cap = scratch.locals.capacity();
        for _ in 0..100 {
            assert_eq!(typed.eval_lanes(&lanes, &mut scratch), first);
        }
        assert_eq!(scratch.stack.capacity(), stack_cap);
        assert_eq!(scratch.locals.capacity(), locals_cap);
    }

    #[test]
    fn locals_shadow_scalars() {
        // `t` is a local after its assignment; before that it would be a
        // scalar — the language only allows use after definition, and the
        // compiled kernel mirrors the evaluator's scoping.
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(2.0));
        check_matches_evaluator("t = a[i] * 3.0; t + t", &r);
    }
}

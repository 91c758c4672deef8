//! Pass-based optimization pipeline over the slot-resolved bytecode.
//!
//! The paper defers common-subexpression elimination and branch flattening
//! to the downstream HLS compiler after fusion (§V-B). In this reproduction
//! nobody sits downstream: the reference executor, the cycle simulator, and
//! the C/OpenCL emitters all consume the compiled bytecode directly, so
//! these optimizations have to happen here — once, in a shared pipeline —
//! or not at all. The pipeline runs inside [`CompiledKernel::compile`](crate::CompiledKernel::compile), so
//! every consumer automatically evaluates (and emits code for) the
//! optimized form.
//!
//! Two passes are provided, run in a fixed order by a `PassManager`
//! (`CompiledKernel::compile` runs both,
//! `CompiledKernel::compile_unoptimized` none):
//!
//! * `IfConversion` — rewrites the jump diamonds produced by ternaries
//!   (and the conditional skips produced by short-circuit `&&`/`||`) into
//!   the branch-free [`Op::Select`] opcode, evaluating both arms
//!   unconditionally and selecting one result. A [`TypedKernel`](crate::TypedKernel)
//!   is built only from a stream this rewrite has left jump-free, which is
//!   what makes every typed kernel lane-batchable.
//! * `Cse` — common-subexpression elimination over pure operations
//!   (taps, arithmetic, math functions): the bytecode is value-numbered
//!   into a DAG and re-emitted with shared subcomputations held in local
//!   registers. The re-emission starts from the result and the discarded
//!   values that can fail, so it is also the dead-code elimination:
//!   unreferenced locals and discarded statement results are never
//!   emitted.
//!
//! # Legality and bit-identity
//!
//! Every pass preserves the observable semantics of the kernel **bit for
//! bit**, including error outcomes, which the equivalence suites check
//! against the tree-walking interpreter:
//!
//! * If-conversion fires only when both arms are provably side-effect-free
//!   and infallible under unconditional evaluation: no stores, no control
//!   flow, and — crucially — no division, whose integer variant can raise
//!   an error that lazy evaluation would have skipped (the language's one
//!   runtime error). Math functions evaluate unconditionally without harm:
//!   domain misses (e.g. `sqrt` of a negative) produce quiet NaNs that the
//!   select discards, never errors. The per-operation `f32`-rounding flags
//!   are untouched — the arms' instructions are kept verbatim, only the
//!   jumps around them are replaced — so the typed specialization of the
//!   select form rounds exactly like the jump form would.
//!   [`CompiledKernel::specialize`](crate::CompiledKernel::specialize) runs
//!   the same rewrite once more with division speculated too: it uses the
//!   result only after proving every instruction float-typed, and float
//!   division is IEEE-total.
//! * CSE merges only pure operations; two occurrences of the same
//!   operation on the same operands produce identical bits (and identical
//!   errors — division deduplicates against itself). Re-emission preserves
//!   per-operand evaluation order inside every expression.
//! * The rebuild never drops a computation that could fail: discarded
//!   results whose subtrees contain a division are kept alive as explicit
//!   evaluate-and-pop statements, so `x = 1 / 0; a[i]` still errors
//!   exactly like the interpreter.
//!
//! Kernels that still carry jumps after if-conversion (an arm with a
//! division keeps its diamond in the `Value` bytecode) skip CSE
//! entirely — the passes return the stream unchanged, which is always
//! legal.

use crate::ast::BinOp;
use crate::compile::{local_count_of, Op};
use crate::types::DataType;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One transformation over the compiled instruction stream. Implementations
/// must preserve kernel semantics bit for bit (see the module docs for the
/// legality obligations this entails).
pub(crate) trait Pass {
    /// Stable pass name used in reports and dumps.
    fn name(&self) -> &'static str;
    /// Transform `ops` in place; return whether anything changed.
    fn run(&self, ops: &mut Vec<Op>) -> bool;
}

/// Ordered pipeline of [`Pass`]es over a kernel's instruction stream.
pub(crate) struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline; add passes with [`PassManager::with_pass`].
    pub(crate) fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The standard pipeline in its canonical order — if-conversion first
    /// (selects expose the arms to value numbering), then CSE, whose one
    /// rebuild also drops what is dead.
    pub(crate) fn standard() -> Self {
        PassManager::new()
            .with_pass(Box::new(IfConversion))
            .with_pass(Box::new(Cse))
    }

    /// Append a pass to the pipeline.
    pub(crate) fn with_pass(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Run every pass in order.
    ///
    /// In debug builds every pass that changed the stream is immediately
    /// re-verified by the bytecode verifier ([`crate::verify`]): a pass
    /// that breaks stack discipline, jump targets, or init-before-use
    /// panics here, at the pass that produced the bad stream, instead of
    /// corrupting evaluation later.
    pub(crate) fn run(&self, ops: &mut Vec<Op>) {
        for pass in &self.passes {
            let changed = pass.run(ops);
            if cfg!(debug_assertions) && changed {
                if let Err(e) = crate::verify::verify_ops(
                    ops,
                    crate::verify::slot_count_of(ops),
                    local_count_of(ops),
                    None,
                ) {
                    panic!("pass `{}` produced an invalid stream: {e}", pass.name());
                }
            }
        }
    }
}

/// What if-conversion may assume about a division it would speculate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Division {
    /// Nothing: the integer variant raises the language's only runtime
    /// error, which speculation would make appear. The optimizer pipeline's
    /// setting — the `Value` bytecode runs on slots of any type.
    MayFail,
    /// It is IEEE float division, total. Only
    /// [`CompiledKernel::specialize`](crate::CompiledKernel::specialize)
    /// says so, and it discards the converted stream unless typing then
    /// proves every instruction float (an integer slot or literal makes it
    /// return `None`).
    Total,
}

/// Whether an instruction is pure and infallible — safe to evaluate
/// speculatively. Division is only under [`Division::Total`].
fn pure_infallible(op: &Op, division: Division) -> bool {
    match op {
        Op::Const(_)
        | Op::Slot(_)
        | Op::Local(_)
        | Op::Unary(_)
        | Op::Call1(_)
        | Op::Call2(_)
        | Op::ToBool
        | Op::Select => true,
        Op::Binary(BinOp::Div) => division == Division::Total,
        Op::Binary(_) => true,
        Op::Store(_)
        | Op::Pop
        | Op::Jump(_)
        | Op::JumpIfFalse(_)
        | Op::AndShortCircuit(_)
        | Op::OrShortCircuit(_) => false,
    }
}

/// Operand/result arity of a pure instruction (`None` for impure ops).
fn pure_arity(op: &Op, division: Division) -> Option<(usize, usize)> {
    if !pure_infallible(op, division) {
        return None;
    }
    Some(match op {
        Op::Const(_) | Op::Slot(_) | Op::Local(_) => (0, 1),
        Op::Unary(_) | Op::Call1(_) | Op::ToBool => (1, 1),
        Op::Binary(_) | Op::Call2(_) => (2, 1),
        Op::Select => (3, 1),
        _ => unreachable!("pure ops only"),
    })
}

/// Whether `ops` is a pure, infallible region that consumes nothing below
/// its own stack frame and leaves exactly one value — the shape of a
/// ternary arm or a short-circuit right-hand side.
fn produces_one_pure_value(ops: &[Op], division: Division) -> bool {
    let mut depth = 0i64;
    for op in ops {
        let Some((pops, pushes)) = pure_arity(op, division) else {
            return false;
        };
        depth -= pops as i64;
        if depth < 0 {
            return false;
        }
        depth += pushes as i64;
    }
    depth == 1
}

/// If-conversion: rewrite jump diamonds into the branch-free
/// [`Op::Select`].
///
/// Two shapes are recognized, both produced by the lowering in
/// [`crate::compile`]:
///
/// * **Ternary diamonds** `cond; JumpIfFalse(E); then…; Jump(end); else…`
///   become `cond; then…; else…; Select` — both arms evaluate
///   unconditionally and the select picks one result.
/// * **Short-circuit skips** `lhs; AndShortCircuit(t); rhs…; ToBool`
///   become `lhs; rhs…; ToBool; Const(false); Select` (dually with
///   `Const(true)` pushed before the right-hand side for `||`), preserving
///   the `Bool` result type of the logical operators.
///
/// A diamond converts only when its speculated region is pure and
/// infallible (`pure_infallible`); nested diamonds convert innermost
/// first, so an outer ternary whose arm contains an inner ternary becomes
/// convertible once the inner one has been flattened. A diamond with a
/// division in an arm keeps its jumps in the `Value` bytecode; the typed
/// specialization of the kernel converts it all the same (see
/// `speculate_division`).
pub(crate) struct IfConversion;

/// One applicable rewrite found by the candidate scan.
enum Rewrite {
    /// `JumpIfFalse` at `jif` (targeting `jump + 1`), `Jump` at `jump`
    /// targeting `end`.
    Ternary { jif: usize, jump: usize, end: usize },
    /// `AndShortCircuit` / `OrShortCircuit` at `sc` targeting `end`.
    And { sc: usize, end: usize },
    /// See [`Rewrite::And`].
    Or { sc: usize, end: usize },
}

impl Pass for IfConversion {
    fn name(&self) -> &'static str {
        "if-conversion"
    }

    fn run(&self, ops: &mut Vec<Op>) -> bool {
        let mut changed = false;
        while let Some(rewrite) = find_rewrite(ops, Division::MayFail) {
            apply_rewrite(ops, rewrite);
            changed = true;
        }
        changed
    }
}

/// If-conversion with division speculated ([`Division::Total`]), to a
/// fixpoint; borrows `ops` back when there was nothing to convert. Every arm
/// the lowering produces is an expression — no stores, and inner diamonds
/// convert first — so the result is jump-free.
pub(crate) fn speculate_division(ops: &[Op]) -> Cow<'_, [Op]> {
    let mut ops = Cow::Borrowed(ops);
    while let Some(rewrite) = find_rewrite(&ops, Division::Total) {
        apply_rewrite(ops.to_mut(), rewrite);
    }
    ops
}

/// Jump target of a control-flow op, if any.
fn jump_target(op: &Op) -> Option<usize> {
    match op {
        Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndShortCircuit(t) | Op::OrShortCircuit(t) => {
            Some(*t as usize)
        }
        _ => None,
    }
}

/// No jump outside the candidate's own (to-be-removed) control ops may
/// target the interior of the rewritten span: the lowering never produces
/// such jumps, but bail rather than miscompile if one appears.
fn region_is_isolated(ops: &[Op], removed: &[usize], lo: usize, hi: usize) -> bool {
    ops.iter().enumerate().all(|(ix, op)| {
        removed.contains(&ix) || jump_target(op).is_none_or(|target| target <= lo || target >= hi)
    })
}

/// Find the first applicable rewrite, scanning left to right. Inner
/// diamonds are found before the outer diamonds that contain them, because
/// an outer arm still holding jumps fails the purity check until its inner
/// diamond has been converted.
fn find_rewrite(ops: &[Op], division: Division) -> Option<Rewrite> {
    for (ix, op) in ops.iter().enumerate() {
        match op {
            Op::JumpIfFalse(else_target) => {
                let else_start = *else_target as usize;
                if else_start < ix + 2 || else_start > ops.len() {
                    continue;
                }
                let Op::Jump(end) = ops[else_start - 1] else {
                    continue;
                };
                let end = end as usize;
                if end < else_start || end > ops.len() {
                    continue;
                }
                let then_arm = &ops[ix + 1..else_start - 1];
                let else_arm = &ops[else_start..end];
                if produces_one_pure_value(then_arm, division)
                    && produces_one_pure_value(else_arm, division)
                    && region_is_isolated(ops, &[ix, else_start - 1], ix, end)
                {
                    return Some(Rewrite::Ternary {
                        jif: ix,
                        jump: else_start - 1,
                        end,
                    });
                }
            }
            Op::AndShortCircuit(target) | Op::OrShortCircuit(target) => {
                let end = *target as usize;
                if end <= ix + 1 || end > ops.len() {
                    continue;
                }
                let rhs = &ops[ix + 1..end];
                if produces_one_pure_value(rhs, division) && region_is_isolated(ops, &[ix], ix, end)
                {
                    return Some(match op {
                        Op::AndShortCircuit(_) => Rewrite::And { sc: ix, end },
                        _ => Rewrite::Or { sc: ix, end },
                    });
                }
            }
            _ => {}
        }
    }
    None
}

/// Splice one rewrite into the stream and remap every remaining jump
/// target through the old-position → new-position mapping.
fn apply_rewrite(ops: &mut Vec<Op>, rewrite: Rewrite) {
    let old = std::mem::take(ops);
    // `shift(pos)` gives the new index of old position `pos` for positions
    // outside the rewritten span (targets inside it were verified not to
    // exist; the span boundaries map onto the replacement code, which
    // consumes the same stack shape).
    let (new, lo, hi, shift): (Vec<Op>, usize, usize, i64) = match rewrite {
        Rewrite::Ternary { jif, jump, end } => {
            let mut new = Vec::with_capacity(old.len() - 1);
            new.extend_from_slice(&old[..jif]);
            new.extend_from_slice(&old[jif + 1..jump]);
            new.extend_from_slice(&old[jump + 1..end]);
            new.push(Op::Select);
            new.extend_from_slice(&old[end..]);
            // Removed two jumps, added one select: suffix shifts by -1.
            (new, jif, end, -1)
        }
        Rewrite::And { sc, end } => {
            let mut new = Vec::with_capacity(old.len() + 1);
            new.extend_from_slice(&old[..sc]);
            new.extend_from_slice(&old[sc + 1..end]);
            new.push(Op::Const(Value::Bool(false)));
            new.push(Op::Select);
            new.extend_from_slice(&old[end..]);
            (new, sc, end, 1)
        }
        Rewrite::Or { sc, end } => {
            let mut new = Vec::with_capacity(old.len() + 1);
            new.extend_from_slice(&old[..sc]);
            new.push(Op::Const(Value::Bool(true)));
            new.extend_from_slice(&old[sc + 1..end]);
            new.push(Op::Select);
            new.extend_from_slice(&old[end..]);
            (new, sc, end, 1)
        }
    };
    *ops = new;
    for op in ops.iter_mut() {
        let remap = |target: u32| -> u32 {
            let t = target as usize;
            if t <= lo {
                target
            } else {
                debug_assert!(t >= hi, "jump into a converted region");
                (t as i64 + shift) as u32
            }
        };
        match op {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndShortCircuit(t) | Op::OrShortCircuit(t) => {
                *t = remap(*t);
            }
            _ => {}
        }
    }
}

/// Common-subexpression elimination over pure operations.
///
/// Branch-free streams (which is what if-conversion leaves behind for
/// eligible kernels) are value-numbered into a DAG — every operation keyed
/// by its opcode and operand value numbers, constants by their exact bit
/// pattern — and re-emitted with multiply-used interior nodes held in
/// local registers. Only what the result and the fallible discarded values
/// reach is re-emitted, so unreferenced locals and discarded statement
/// results vanish, except for computations that could fail (division),
/// which are kept as explicit evaluate-and-discard statements. Streams
/// still containing jumps are left untouched.
pub(crate) struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, ops: &mut Vec<Op>) -> bool {
        let Some(rebuilt) = dag_rebuild(ops) else {
            return false;
        };
        if rebuilt == *ops {
            return false;
        }
        *ops = rebuilt;
        true
    }
}

/// Value-numbering key of one DAG node. Constants key on their type and
/// the exact bit pattern of their **native** payload ([`const_payload`]):
/// float bits keep `0.0` and `-0.0` (equal under `PartialEq`, distinct
/// under division) apart, and integer constants use their own 64-bit
/// value — keying them through `as_f64` would merge distinct integers
/// above 2^53.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    Const(DataType, u64),
    Slot(u16),
    Unary(crate::ast::UnOp, usize),
    Binary(BinOp, usize, usize),
    Call1(crate::ast::MathFn, usize),
    Call2(crate::ast::MathFn, usize, usize),
    ToBool(usize),
    Select(usize, usize, usize),
}

/// Exact 64-bit payload of a constant for value numbering: float bits for
/// floats (f32 widens losslessly), the two's-complement value for
/// integers, 0/1 for booleans. Paired with the constant's [`DataType`] in
/// [`NodeKey::Const`], two constants get one key iff they are the same
/// value of the same type.
fn const_payload(v: Value) -> u64 {
    match v {
        Value::F32(x) => (x as f64).to_bits(),
        Value::F64(x) => x.to_bits(),
        Value::I32(x) => x as i64 as u64,
        Value::I64(x) => x as u64,
        Value::Bool(b) => b as u64,
    }
}

/// A multiply-xor hasher for [`NodeKey`]s (opcodes, value numbers and
/// constant payloads), hashed once per instruction of every kernel.
/// `finish` rotates the well-mixed high bits of the last product down to
/// the low bits the table indexes by, so constants that differ only in
/// their high bits (float literals that differ in the exponent) do not
/// share a bucket. It is not keyed: a program that picks its literals'
/// bits to collide makes its own rebuild quadratic in their number, as
/// if-conversion's rescans already are in its diamond count.
#[derive(Default)]
struct MulXorHasher(u64);

impl Hasher for MulXorHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// One node of the expression DAG: the original instruction (re-emitted
/// verbatim), its operand nodes (at most three, inline), and whether its
/// subtree can fail.
struct Node {
    op: Op,
    args: [usize; 3],
    arity: u8,
    fallible: bool,
}

impl Node {
    fn args(&self) -> &[usize] {
        &self.args[..usize::from(self.arity)]
    }
}

/// Rebuild a branch-free stream through the expression DAG: identical pure
/// subcomputations merge, and only what the result and the fallible
/// discarded values reach is emitted. Jump-carrying streams return `None`.
fn dag_rebuild(ops: &[Op]) -> Option<Vec<Op>> {
    let mut nodes: Vec<Node> = Vec::with_capacity(ops.len());
    let mut memo: HashMap<NodeKey, usize, BuildHasherDefault<MulXorHasher>> =
        HashMap::with_capacity_and_hasher(ops.len(), Default::default());
    let mut stack: Vec<usize> = Vec::new();
    let mut locals: Vec<Option<usize>> = vec![None; local_count_of(ops)];
    // Values the original program computed and then discarded (anonymous
    // statements, dead or overwritten stores): candidates for elimination,
    // kept alive below when their subtree can fail.
    let mut discarded: Vec<usize> = Vec::new();

    let mut intern = |nodes: &mut Vec<Node>, op: &Op, args: &[usize]| -> usize {
        let key = match (op, args) {
            (Op::Const(v), []) => NodeKey::Const(v.data_type(), const_payload(*v)),
            (Op::Slot(ix), []) => NodeKey::Slot(*ix),
            (Op::Unary(f), &[a]) => NodeKey::Unary(*f, a),
            (Op::Binary(f), &[a, b]) => NodeKey::Binary(*f, a, b),
            (Op::Call1(f), &[a]) => NodeKey::Call1(*f, a),
            (Op::Call2(f), &[a, b]) => NodeKey::Call2(*f, a, b),
            (Op::ToBool, &[a]) => NodeKey::ToBool(a),
            (Op::Select, &[c, t, e]) => NodeKey::Select(c, t, e),
            _ => unreachable!("interned ops are pure"),
        };
        if let Some(&hit) = memo.get(&key) {
            return hit;
        }
        let fallible =
            matches!(op, Op::Binary(BinOp::Div)) || args.iter().any(|&a| nodes[a].fallible);
        let id = nodes.len();
        let mut inline = [0; 3];
        inline[..args.len()].copy_from_slice(args);
        nodes.push(Node {
            op: *op,
            args: inline,
            arity: args.len() as u8,
            fallible,
        });
        memo.insert(key, id);
        id
    };

    for op in ops {
        match op {
            Op::Const(_) | Op::Slot(_) => {
                let id = intern(&mut nodes, op, &[]);
                stack.push(id);
            }
            Op::Local(ix) => stack.push(locals[*ix as usize]?),
            Op::Store(ix) => {
                let value = stack.pop()?;
                if let Some(previous) = locals[*ix as usize].replace(value) {
                    discarded.push(previous);
                }
            }
            Op::Pop => discarded.push(stack.pop()?),
            Op::Unary(_) | Op::Call1(_) | Op::ToBool => {
                let a = stack.pop()?;
                let id = intern(&mut nodes, op, &[a]);
                stack.push(id);
            }
            Op::Binary(_) | Op::Call2(_) => {
                let b = stack.pop()?;
                let a = stack.pop()?;
                let id = intern(&mut nodes, op, &[a, b]);
                stack.push(id);
            }
            Op::Select => {
                let otherwise = stack.pop()?;
                let then = stack.pop()?;
                let cond = stack.pop()?;
                let id = intern(&mut nodes, op, &[cond, then, otherwise]);
                stack.push(id);
            }
            // Control flow: the DAG form cannot represent it; skip the
            // kernel (if-conversion left these jumps behind on purpose).
            Op::Jump(_) | Op::JumpIfFalse(_) | Op::AndShortCircuit(_) | Op::OrShortCircuit(_) => {
                return None;
            }
        }
    }
    let result = stack.pop()?;
    if !stack.is_empty() {
        return None;
    }
    // Stored-but-never-overwritten locals are discard candidates too.
    discarded.extend(locals.iter().flatten().copied());

    // Keep-alive side statements: discarded subtrees that can fail and are
    // not already executed as part of the result. Order follows discovery
    // order; the language's only error is uniform ("integer division by
    // zero"), so relative error order cannot be observed.
    let mut reachable = vec![false; nodes.len()];
    mark_reachable(&nodes, result, &mut reachable);
    let mut side_roots: Vec<usize> = Vec::new();
    for &node in &discarded {
        if nodes[node].fallible && !reachable[node] && !side_roots.contains(&node) {
            mark_reachable(&nodes, node, &mut reachable);
            side_roots.push(node);
        }
    }

    // Use counts over everything emitted decide which interior nodes get a
    // register (leaves re-emit: a register round-trip costs more than a
    // constant or slot push).
    let mut uses = vec![0usize; nodes.len()];
    for &root in side_roots.iter().chain(std::iter::once(&result)) {
        uses[root] += 1;
        count_uses(&nodes, root, &mut uses);
    }

    let mut out = Vec::with_capacity(ops.len());
    let mut registers: Vec<Option<u16>> = vec![None; nodes.len()];
    let mut next_register: u16 = 0;
    for &root in &side_roots {
        emit_node(
            &nodes,
            &uses,
            root,
            &mut out,
            &mut registers,
            &mut next_register,
        );
        out.push(Op::Pop);
    }
    emit_node(
        &nodes,
        &uses,
        result,
        &mut out,
        &mut registers,
        &mut next_register,
    );
    Some(out)
}

fn mark_reachable(nodes: &[Node], root: usize, reachable: &mut [bool]) {
    if reachable[root] {
        return;
    }
    reachable[root] = true;
    for &arg in nodes[root].args() {
        mark_reachable(nodes, arg, reachable);
    }
}

fn count_uses(nodes: &[Node], root: usize, uses: &mut [usize]) {
    for &arg in nodes[root].args() {
        uses[arg] += 1;
        // Count through an argument only on its first use: later uses read
        // the shared register (or re-push the leaf) without re-evaluating.
        if uses[arg] == 1 {
            count_uses(nodes, arg, uses);
        }
    }
}

fn emit_node(
    nodes: &[Node],
    uses: &[usize],
    node: usize,
    out: &mut Vec<Op>,
    registers: &mut Vec<Option<u16>>,
    next_register: &mut u16,
) {
    if let Some(register) = registers[node] {
        out.push(Op::Local(register));
        return;
    }
    for &arg in nodes[node].args() {
        emit_node(nodes, uses, arg, out, registers, next_register);
    }
    out.push(nodes[node].op);
    let is_leaf = nodes[node].arity == 0;
    if uses[node] > 1 && !is_leaf {
        let register = *next_register;
        *next_register += 1;
        out.push(Op::Store(register));
        out.push(Op::Local(register));
        registers[node] = Some(register);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompiledKernel, EvalScratch};
    use crate::eval::{Evaluator, MapResolver};
    use crate::parser::parse_program;

    fn optimized(code: &str) -> CompiledKernel {
        CompiledKernel::compile(&parse_program(code).unwrap()).unwrap()
    }

    fn unoptimized(code: &str) -> CompiledKernel {
        CompiledKernel::compile_unoptimized(&parse_program(code).unwrap()).unwrap()
    }

    fn resolver() -> MapResolver {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(3.5));
        r.insert_access("a", &[-1], Value::F32(1.25));
        r.insert_access("a", &[1], Value::F32(-2.0));
        r.insert_access("b", &[0], Value::F32(0.0));
        r.insert_scalar("dt", Value::F32(0.25));
        r
    }

    fn has_jumps(kernel: &CompiledKernel) -> bool {
        kernel.ops().iter().any(|op| jump_target(op).is_some())
    }

    /// Both compilation modes must agree with the interpreter exactly —
    /// value bits, result type, and error outcomes.
    fn check_all_paths_agree(code: &str) {
        let program = parse_program(code).unwrap();
        let r = resolver();
        let interpreted = Evaluator::new(&r).eval_program(&program);
        for kernel in [
            CompiledKernel::compile(&program).unwrap(),
            CompiledKernel::compile_unoptimized(&program).unwrap(),
        ] {
            let compiled = kernel.eval(&r);
            match (&interpreted, &compiled) {
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
    }

    #[test]
    fn ternaries_if_convert_to_selects() {
        let kernel = optimized("a[i] > 0.0 ? a[i] : -a[i]");
        assert!(!has_jumps(&kernel));
        assert!(kernel.ops().contains(&Op::Select));
        // The unoptimized lowering keeps the diamond.
        let raw = unoptimized("a[i] > 0.0 ? a[i] : -a[i]");
        assert!(has_jumps(&raw));
        check_all_paths_agree("a[i] > 0.0 ? a[i] : -a[i]");
    }

    #[test]
    fn nested_ternaries_convert_innermost_first() {
        // Three diamonds: one in the condition, one in the then-arm, and
        // the outer ternary itself.
        let code = "(a[i] > 0.0 ? a[i] : -a[i]) > 1.0 ? (b[i] > 0.0 ? 1.5 : 2.5) : dt";
        let kernel = optimized(code);
        assert!(!has_jumps(&kernel));
        assert_eq!(
            kernel.ops().iter().filter(|op| **op == Op::Select).count(),
            3
        );
        check_all_paths_agree(code);
    }

    #[test]
    fn short_circuit_logic_converts_when_rhs_is_pure() {
        for code in [
            "(a[i] > 0.0 && b[i] > 0.0) ? 1.0 : 2.0",
            "(a[i] > 0.0 || b[i] > 0.0) ? 1.0 : 2.0",
            "!(a[i] > 0.0 && a[i-1] > 0.0) + dt",
        ] {
            let kernel = optimized(code);
            assert!(!has_jumps(&kernel), "`{code}` should be branch-free");
            check_all_paths_agree(code);
        }
    }

    #[test]
    fn fallible_arms_keep_their_jumps() {
        // Integer division in the lazily-skipped region must stay lazy:
        // speculating it would turn a clean run into an error.
        for code in [
            "b[i] != 0.0 && 1 / 0 > 0 ? 1.0 : 2.0",
            "a[i] > 0.0 ? a[i] : 1 / 0",
            "a[i] > 0.0 || 1 / 0 > 0 ? 1.0 : 2.0",
        ] {
            let kernel = optimized(code);
            assert!(has_jumps(&kernel), "`{code}` must not speculate");
            check_all_paths_agree(code);
        }
    }

    #[test]
    fn float_division_in_arms_is_not_speculated_either() {
        // Statically we cannot distinguish float from integer division on
        // the untyped bytecode, so any division blocks conversion.
        let kernel = optimized("a[i] > 0.0 ? a[i] / b[i] : a[i]");
        assert!(has_jumps(&kernel));
        check_all_paths_agree("a[i] > 0.0 ? a[i] / b[i] : a[i]");
    }

    #[test]
    fn cse_merges_repeated_subexpressions() {
        let redundant = "(a[i-1] + a[i+1]) * (a[i-1] + a[i+1])";
        let kernel = optimized(redundant);
        // One shared add: slot, slot, add, store, local, local, mul.
        let adds = kernel
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Binary(BinOp::Add)))
            .count();
        assert_eq!(
            adds,
            1,
            "CSE should share the repeated add:\n{:#?}",
            kernel.ops()
        );
        check_all_paths_agree(redundant);
        // Without CSE both adds stay (the program has no ternary, so the
        // raw lowering differs from the optimized one by CSE alone).
        let raw = CompiledKernel::compile_unoptimized(&parse_program(redundant).unwrap()).unwrap();
        let raw_adds = raw
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Binary(BinOp::Add)))
            .count();
        assert_eq!(raw_adds, 2);
    }

    #[test]
    fn cse_shares_taps_across_select_arms() {
        // After if-conversion both arms are visible to value numbering: the
        // `a[i]` tap appears once even though three sites reference it.
        let code = "a[i] > 0.0 ? a[i] * dt : a[i] * 2.0";
        let kernel = optimized(code);
        assert!(!has_jumps(&kernel));
        check_all_paths_agree(code);
    }

    #[test]
    fn cse_does_not_merge_distinct_constant_bit_patterns() {
        // 0.0 and -0.0 compare equal but divide differently; bit-keyed
        // constants must keep them apart.
        let code = "x = 1.0 / 0.0; y = 1.0 / -0.0; x + y";
        let r = MapResolver::new();
        let program = parse_program(code).unwrap();
        let value = CompiledKernel::compile(&program).unwrap().eval(&r).unwrap();
        // inf + -inf = NaN; merging the constants would give inf + inf.
        assert!(value.as_f64().is_nan());
    }

    #[test]
    fn cse_does_not_merge_large_integer_constants() {
        // 2^53 and 2^53 + 1 are distinct i64 values that collapse to the
        // same f64; keying constants through `as_f64` bits would merge
        // them and collapse the select's arms.
        let code = "a[i] > 0.0 ? 9007199254740993 : 9007199254740992";
        let program = parse_program(code).unwrap();
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F64(-1.0));
        let interpreted = Evaluator::new(&r).eval_program(&program).unwrap();
        let optimized = CompiledKernel::compile(&program).unwrap().eval(&r).unwrap();
        assert_eq!(interpreted, Value::I64(9007199254740992));
        assert_eq!(optimized, interpreted);
    }

    #[test]
    fn dce_drops_dead_locals_but_keeps_fallible_ones() {
        // A dead pure local vanishes entirely.
        let kernel = optimized("x = a[i-1] + a[i+1]; a[i] * 2.0");
        assert!(!kernel.ops().iter().any(|op| matches!(op, Op::Store(_))));
        assert!(!kernel
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Binary(BinOp::Add))));
        // A dead local that can fail still executes (and still errors).
        check_all_paths_agree("x = 1 / 0; a[i]");
        let kernel = optimized("x = 1 / 0; a[i]");
        assert!(kernel
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Binary(BinOp::Div))));
    }

    #[test]
    fn dce_preserves_live_locals() {
        let code = "x = a[i-1] + a[i+1]; y = x * dt; y - a[i]";
        let kernel = optimized(code);
        assert!(kernel
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Binary(BinOp::Add))));
        check_all_paths_agree(code);
    }

    #[test]
    fn optimizer_is_idempotent() {
        for code in [
            "a[i] > 0.0 ? a[i] : -a[i]",
            "(a[i-1] + a[i+1]) * (a[i-1] + a[i+1])",
            "x = a[i] * dt; x + x",
        ] {
            let kernel = optimized(code);
            let mut ops = kernel.ops().to_vec();
            PassManager::standard().run(&mut ops);
            assert_eq!(ops, kernel.ops(), "second pipeline run changed `{code}`");
        }
    }

    #[test]
    fn optimized_kernels_reuse_scratch_without_allocation() {
        let kernel = optimized("t = a[i-1] + a[i+1]; a[i] > 0.0 ? t : -t");
        let r = resolver();
        let mut values = Vec::new();
        for slot in kernel.slots() {
            values.push(
                crate::eval::AccessResolver::resolve(&r, &slot.field, &slot.offsets).unwrap(),
            );
        }
        let mut scratch = EvalScratch::default();
        let first = kernel.eval_slots(&values, &mut scratch).unwrap();
        for _ in 0..50 {
            assert_eq!(kernel.eval_slots(&values, &mut scratch).unwrap(), first);
        }
    }
}

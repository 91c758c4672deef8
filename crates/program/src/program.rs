//! The stencil program container and its builder.

use crate::boundary::{BoundaryCondition, BoundarySpec};
use crate::error::{ProgramError, Result};
use crate::field::{FieldDecl, IterationSpace};
use crate::graph::{NodeId, NodeKind, StencilDag};
use crate::stencil::StencilNode;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};
use stencilflow_expr::{DataType, OpCount, TypedKernel};

/// A complete stencil program: iteration space, input fields, stencil nodes,
/// and designated outputs (§II of the paper).
///
/// A program derives four things once and keeps them: its fingerprint,
/// its DAG with the two topological orders, the buffering analysis kept
/// beside the DAG ([`StencilProgram::analysis_slot`]), and (in each
/// stencil node) the compiled kernel. The `&mut` methods clear the first
/// three; a node keeps its kernel for as long as it lives. The nodes are
/// shared, so a clone costs one reference count per stencil and carries
/// everything derived. Equality and the `Debug` rendering cover the
/// program only, not what it keeps.
#[derive(Clone)]
pub struct StencilProgram {
    name: String,
    space: IterationSpace,
    inputs: BTreeMap<String, FieldDecl>,
    stencils: BTreeMap<String, Arc<StencilNode>>,
    outputs: Vec<String>,
    vectorization: usize,
    /// [`StencilProgram::fingerprint`], computed on first use.
    fingerprint: OnceLock<u64>,
    /// The DAG, its orders and the analysis slot, built on first use
    /// ([`StencilProgram::validate`] builds them at the latest).
    derived: OnceLock<Arc<Derived>>,
}

/// What a program derives from its structure: the DAG with its name
/// table and orders, and what is computed from them.
struct Derived {
    dag: StencilDag,
    /// Every DAG node in topological order, or the cycle that prevents one.
    order: Result<Vec<NodeId>>,
    /// The names of the stencils of `order`, in that order.
    stencils: Vec<String>,
    /// Per field id, the stencil node producing the field (`None` for an
    /// input).
    nodes: Vec<Option<Arc<StencilNode>>>,
    /// See [`StencilProgram::analysis_slot`].
    analysis: OnceLock<Arc<dyn Any + Send + Sync>>,
    /// See [`StencilProgram::typed_kernel`], indexed by [`NodeId`].
    typed: OnceLock<Vec<Option<TypedStencil>>>,
}

impl Derived {
    fn of(program: &StencilProgram) -> Self {
        let dag = StencilDag::from_program(program);
        let order = dag.topological_order();
        let stencils = match &order {
            Ok(order) => (order.iter())
                .filter(|&&id| dag.kind(id) == NodeKind::Stencil)
                .map(|&id| dag.name(id).to_string())
                .collect(),
            Err(_) => Vec::new(),
        };
        // Both the field ids and the stencil map follow name order.
        let mut nodes = program.stencils.iter().peekable();
        let fields = dag.nodes().take(dag.names().field_count());
        let nodes = fields
            .map(|field| {
                let (_, node) = nodes.next_if(|(name, _)| name.as_str() == field.name)?;
                (field.kind == NodeKind::Stencil).then(|| Arc::clone(node))
            })
            .collect();
        Derived {
            dag,
            order,
            stencils,
            nodes,
            analysis: OnceLock::new(),
            typed: OnceLock::new(),
        }
    }
}

/// A stencil's kernel specialized to the element types of the fields it
/// reads ([`StencilProgram::typed_kernel`]).
struct TypedStencil {
    /// The element type of each kernel slot's field, in slot order.
    slot_types: Vec<DataType>,
    /// The specialized kernel; `None` when the kernel does not specialize.
    kernel: Option<TypedKernel>,
}

impl PartialEq for StencilProgram {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.space == other.space
            && self.inputs == other.inputs
            && self.stencils == other.stencils
            && self.outputs == other.outputs
            && self.vectorization == other.vectorization
    }
}

impl fmt::Debug for StencilProgram {
    // Renders exactly what `#[derive(Debug)]` renders without what the
    // program derives and keeps.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StencilProgram")
            .field("name", &self.name)
            .field("space", &self.space)
            .field("inputs", &self.inputs)
            .field("stencils", &self.stencils)
            .field("outputs", &self.outputs)
            .field("vectorization", &self.vectorization)
            .finish()
    }
}

impl StencilProgram {
    /// The hashed structural fingerprint: a 64-bit hash of one walk over
    /// every field the program's `Debug` rendering shows (name, space,
    /// inputs, each stencil's name, code, AST, accesses, boundary and output
    /// type, outputs, vectorization), with lengths and variant tags hashed
    /// and floats by bit pattern. Two structurally identical programs hash
    /// identically. It is computed on the first call and kept (a clone
    /// carries it), so later calls cost one load; the reference executor
    /// keys its compiled-program cache off it.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::fingerprint::program_fingerprint(self))
    }

    /// Program name (used for reporting and code generation).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The common iteration space all stencils iterate over.
    pub fn space(&self) -> &IterationSpace {
        &self.space
    }

    /// The vectorization width W (§IV-C); 1 if not vectorized.
    pub fn vectorization(&self) -> usize {
        self.vectorization
    }

    /// Iterate over `(name, declaration)` of all input fields.
    pub fn inputs(&self) -> impl Iterator<Item = (&str, &FieldDecl)> {
        self.inputs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Declaration of one input field.
    pub fn input(&self, name: &str) -> Option<&FieldDecl> {
        self.inputs.get(name)
    }

    /// Iterate over all stencil nodes (in name order; use
    /// [`StencilProgram::topological_stencils`] for dependency order).
    pub fn stencils(&self) -> impl Iterator<Item = &StencilNode> {
        self.stencils.values().map(Arc::as_ref)
    }

    /// Look up a stencil node by name.
    pub fn stencil(&self, name: &str) -> Option<&StencilNode> {
        self.stencils.get(name).map(Arc::as_ref)
    }

    /// Number of stencil nodes.
    pub fn stencil_count(&self) -> usize {
        self.stencils.len()
    }

    /// Names of the program outputs (stencil results written to memory).
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    /// Whether `name` refers to an input field.
    pub fn is_input(&self, name: &str) -> bool {
        self.inputs.contains_key(name)
    }

    /// Whether `name` refers to a stencil node.
    pub fn is_stencil(&self, name: &str) -> bool {
        self.stencils.contains_key(name)
    }

    /// The dimensions spanned by a field: an input's declared dims, or the
    /// full iteration space for a stencil output.
    pub fn field_dims(&self, name: &str) -> Option<Vec<String>> {
        self.dims_of(name).map(<[String]>::to_vec)
    }

    /// [`StencilProgram::field_dims`], borrowed.
    fn dims_of(&self, name: &str) -> Option<&[String]> {
        if let Some(decl) = self.inputs.get(name) {
            Some(&decl.dims)
        } else if self.stencils.contains_key(name) {
            Some(&self.space.dims)
        } else {
            None
        }
    }

    /// The element type of a field (input declaration or stencil output).
    pub fn field_type(&self, name: &str) -> Option<DataType> {
        if let Some(decl) = self.inputs.get(name) {
            Some(decl.data_type())
        } else {
            self.stencils.get(name).map(|s| s.output_type)
        }
    }

    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| Arc::new(Derived::of(self)))
    }

    /// The dependency DAG over memories and stencils, built on first use
    /// and kept. An access to a field the program does not declare has no
    /// edge (validation rejects such a program).
    pub fn dag(&self) -> &StencilDag {
        &self.derived().dag
    }

    /// Every DAG node (input memories, stencils, output memories) in
    /// topological order, built with the DAG; [`StencilDag::name`] names
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Cycle`] if the stencil dependencies are
    /// cyclic (validation normally catches this earlier).
    pub fn topological_nodes(&self) -> Result<&[NodeId]> {
        self.derived().order.as_deref().map_err(Clone::clone)
    }

    /// Stencil names in topological (dependency) order, built with the DAG.
    ///
    /// # Errors
    ///
    /// As [`StencilProgram::topological_nodes`].
    pub fn topological_stencils(&self) -> Result<&[String]> {
        self.topological_nodes()?;
        Ok(&self.derived().stencils)
    }

    /// The stencil node whose field has id `id`, or `None` if `id` is not a
    /// stencil of this program's DAG.
    pub fn stencil_at(&self, id: NodeId) -> Option<&StencilNode> {
        self.derived().nodes.get(id.index())?.as_deref()
    }

    /// The element types of the fields stencil `id`'s kernel slots read,
    /// and the kernel specialized to them (`None` when it does not
    /// specialize: integer or boolean operands). Built for every stencil on
    /// the first call and kept beside the DAG (so `&mut` methods clear it,
    /// and clones share it). `None` if `id` is not a stencil, its kernel does
    /// not compile ([`StencilNode::kernel`] has the error), or it reads a
    /// field the program does not declare.
    pub fn typed_kernel(&self, id: NodeId) -> Option<(&[DataType], Option<&TypedKernel>)> {
        let typed = self.derived().typed.get_or_init(|| {
            (self.derived().nodes.iter())
                .map(|node| {
                    let kernel = node.as_ref()?.kernel().ok()?;
                    let slot_types: Vec<DataType> = (kernel.slots().iter())
                        .map(|slot| self.field_type(&slot.field))
                        .collect::<Option<_>>()?;
                    let kernel = kernel.specialize(&slot_types);
                    Some(TypedStencil { slot_types, kernel })
                })
                .collect()
        });
        let typed = typed.get(id.index())?.as_ref()?;
        Some((&typed.slot_types, typed.kernel.as_ref()))
    }

    /// Where `core::analyze` keeps the buffering analysis of this program
    /// object (with the configuration it was computed under), beside the
    /// DAG: `core` depends on this crate, so the slot holds the value
    /// type-erased. Clones share it; [`StencilProgram::insert_stencil`] and
    /// [`StencilProgram::remove_stencil`] clear it with the DAG; equality,
    /// `Debug` and the fingerprint do not see it. The first value set stays.
    pub fn analysis_slot(&self) -> &OnceLock<Arc<dyn Any + Send + Sync>> {
        &self.derived().analysis
    }

    /// The output-to-input feedback pairing of time stepping, `(output,
    /// input)` in output order. A single-output program pairs with its
    /// single full-rank input directly. A multi-field system must *name*
    /// the correspondence: each output pairs with the full-rank input whose
    /// name is the longest prefix of the output's name (`h -> h_next`,
    /// `h2 -> h2_next`), so no declaration or sort order can silently
    /// transpose coupled state.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Invalid`] if the program does not have exactly
    /// one full-rank input per output, if a multi-field pairing is not
    /// derivable by prefix (or two outputs claim the same input), or if an
    /// output's element type differs from the input it would feed.
    pub fn feedback_pairs(&self) -> Result<Vec<(String, String)>> {
        let (name, outputs) = (&self.name, &self.outputs);
        let full_rank = |(_, decl): &(&str, &FieldDecl)| decl.dims == self.space.dims;
        let feedback: Vec<(&str, &FieldDecl)> = self.inputs().filter(full_rank).collect();
        if feedback.len() != outputs.len() {
            return Err(ProgramError::Invalid {
                message: format!(
                    "time stepping requires one full-rank input per program output, \
                     but `{name}` has {} output(s) and {} full-rank input(s)",
                    outputs.len(),
                    feedback.len()
                ),
            });
        }
        let mut pairs = Vec::with_capacity(outputs.len());
        let mut used: Vec<Option<&str>> = vec![None; feedback.len()];
        for output in outputs {
            let target = if feedback.len() == 1 {
                0
            } else {
                let mut best: Option<usize> = None;
                for (ix, &(input, _)) in feedback.iter().enumerate() {
                    let longer = match best {
                        None => true,
                        Some(b) => input.len() > feedback[b].0.len(),
                    };
                    if longer && output.starts_with(input) {
                        best = Some(ix);
                    }
                }
                best.ok_or_else(|| ProgramError::Invalid {
                    message: format!(
                        "cannot pair output `{output}` with a state input: no full-rank \
                         input name is a prefix of it — name coupled-system outputs \
                         after their state fields (e.g. `h` -> `h_next`)"
                    ),
                })?
            };
            if let Some(previous) = used[target] {
                return Err(ProgramError::Invalid {
                    message: format!(
                        "outputs `{previous}` and `{output}` would both feed input `{}`",
                        feedback[target].0
                    ),
                });
            }
            used[target] = Some(output);
            let (input, dtype) = (feedback[target].0, feedback[target].1.data_type());
            let out_dtype = self.stencils[output].output_type;
            if out_dtype != dtype {
                return Err(ProgramError::Invalid {
                    message: format!(
                        "output `{output}` has element type {out_dtype} but would feed \
                         input `{input}` of type {dtype}"
                    ),
                });
            }
            pairs.push((output.clone(), input.to_string()));
        }
        Ok(pairs)
    }

    /// Total operation count per iteration-space cell, summed over all
    /// stencils (the "Op/cycle" figure of the paper's scaling plots).
    pub fn ops_per_cell(&self) -> OpCount {
        self.stencils.values().map(|s| s.op_count()).sum()
    }

    /// Total floating-point operations to evaluate the whole program once.
    pub fn total_flops(&self) -> u64 {
        self.ops_per_cell().flops() * self.space.num_cells() as u64
    }

    /// Bytes read from off-chip memory if every input is read exactly once
    /// (the "perfect reuse" assumption of the paper).
    pub(crate) fn input_bytes(&self) -> usize {
        self.inputs
            .values()
            .map(|decl| {
                let elems: usize = decl
                    .dims
                    .iter()
                    .map(|d| {
                        self.space
                            .dim_index(d)
                            .map(|ix| self.space.shape[ix])
                            .unwrap_or(1)
                    })
                    .product();
                elems.max(1) * decl.data_type().size_bytes()
            })
            .sum()
    }

    /// Bytes written to off-chip memory for all program outputs.
    pub(crate) fn output_bytes(&self) -> usize {
        self.outputs
            .iter()
            .map(|name| {
                let dtype = self.field_type(name).unwrap_or(DataType::Float32);
                self.space.field_bytes(dtype)
            })
            .sum()
    }

    /// Total off-chip traffic (reads + writes) under perfect reuse, in bytes.
    /// This is the denominator of the arithmetic-intensity analysis (Eq. 2).
    pub fn total_memory_bytes(&self) -> usize {
        self.input_bytes() + self.output_bytes()
    }

    /// Arithmetic intensity in operations per byte (Eq. 2 of the paper).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.total_flops() as f64 / self.total_memory_bytes() as f64
    }

    /// Remove a stencil node (used by fusion). The caller is responsible for
    /// re-validating afterwards.
    pub fn remove_stencil(&mut self, name: &str) -> Option<Arc<StencilNode>> {
        self.forget_derived();
        self.stencils.remove(name)
    }

    /// Insert or replace a stencil node (used by fusion and generators).
    pub fn insert_stencil(&mut self, node: StencilNode) {
        self.forget_derived();
        self.stencils.insert(node.name.clone(), Arc::new(node));
    }

    /// Clear what was derived from the program's structure; the nodes keep
    /// their kernels.
    fn forget_derived(&mut self) {
        self.fingerprint.take();
        self.derived.take();
    }

    /// Validate the program: name uniqueness, resolvable accesses, access
    /// ranks, boundary conditions referring to read fields, output
    /// existence, vectorization, and acyclicity.
    pub fn validate(&self) -> Result<()> {
        // Unique names across inputs and stencils.
        for name in self.stencils.keys() {
            if self.inputs.contains_key(name) {
                return Err(ProgramError::DuplicateName { name: name.clone() });
            }
        }
        // Outputs must be stencils.
        if self.outputs.is_empty() {
            return Err(ProgramError::Invalid {
                message: "program declares no outputs".into(),
            });
        }
        for (ix, output) in self.outputs.iter().enumerate() {
            if !self.stencils.contains_key(output) {
                return Err(ProgramError::UnknownOutput {
                    name: output.clone(),
                });
            }
            // Results are keyed by name: a second listing adds nothing, and
            // the generated design would declare its channel twice.
            if self.outputs[..ix].contains(output) {
                return Err(ProgramError::DuplicateOutput {
                    name: output.clone(),
                });
            }
        }
        // No field may take the name of an output's memory node in the DAG.
        for output in &self.outputs {
            let memory = StencilDag::output_node_name(output);
            if self.is_input(&memory) || self.is_stencil(&memory) {
                return Err(ProgramError::OutputMemoryName {
                    output: output.clone(),
                    field: memory,
                });
            }
        }
        // Vectorization must divide the innermost extent.
        let inner = self.space.inner_extent();
        if self.vectorization == 0 || !inner.is_multiple_of(self.vectorization) {
            return Err(ProgramError::InvalidVectorization {
                width: self.vectorization,
                inner_extent: inner,
            });
        }
        // Accesses must resolve and have consistent ranks / dimension names.
        for (name, stencil) in &self.stencils {
            for (field, info) in stencil.accesses.iter() {
                let dims = self
                    .dims_of(field)
                    .ok_or_else(|| ProgramError::UnknownField {
                        stencil: name.clone(),
                        field: field.to_string(),
                    })?;
                if info.is_scalar() {
                    // Scalar reference: the field must be 0D.
                    if !dims.is_empty() {
                        return Err(ProgramError::InvalidAccess {
                            stencil: name.clone(),
                            field: field.to_string(),
                            message: format!(
                                "field has {} dimension(s) but is accessed without indices",
                                dims.len()
                            ),
                        });
                    }
                } else {
                    if info.index_vars.len() != dims.len() {
                        return Err(ProgramError::InvalidAccess {
                            stencil: name.clone(),
                            field: field.to_string(),
                            message: format!(
                                "access uses {} indices but the field has {} dimension(s)",
                                info.index_vars.len(),
                                dims.len()
                            ),
                        });
                    }
                    for (var, dim) in info.index_vars.iter().zip(dims.iter()) {
                        if var != dim {
                            return Err(ProgramError::InvalidAccess {
                                stencil: name.clone(),
                                field: field.to_string(),
                                message: format!(
                                    "index variable `{var}` does not match field dimension `{dim}`"
                                ),
                            });
                        }
                        if self.space.dim_index(var).is_none() {
                            return Err(ProgramError::InvalidAccess {
                                stencil: name.clone(),
                                field: field.to_string(),
                                message: format!(
                                    "`{var}` is not a dimension of the iteration space"
                                ),
                            });
                        }
                    }
                }
            }
            // Boundary conditions must refer to fields the stencil reads.
            for field in stencil.boundary.per_field.keys() {
                if !stencil.accesses.contains(field) {
                    return Err(ProgramError::InvalidBoundary {
                        stencil: name.clone(),
                        field: field.clone(),
                    });
                }
            }
        }
        // Acyclicity; builds the DAG and its orders, which the program keeps.
        self.topological_nodes()?;
        Ok(())
    }
}

/// Builder for [`StencilProgram`].
///
/// See the crate-level documentation for an example.
#[derive(Debug, Clone)]
pub struct StencilProgramBuilder {
    name: String,
    dims: Vec<String>,
    shape: Vec<usize>,
    inputs: BTreeMap<String, FieldDecl>,
    /// One entry per stencil name the builder has seen, in first-seen order.
    stencils: Vec<PendingStencil>,
    /// Position in `stencils` by name.
    index: HashMap<String, usize>,
    /// Number of distinct stencils declared so far; orders declarations.
    declared: usize,
    outputs: Vec<String>,
    vectorization: usize,
}

/// What the builder knows of one stencil: its code once declared, and what
/// `boundary`, `shrink` and `output_type` set (they may come first).
#[derive(Debug, Clone)]
struct PendingStencil {
    name: String,
    /// The code, and the position of the first declaration among all
    /// stencils' (`build` parses in declaration order).
    code: Option<(String, usize)>,
    boundary: Option<BoundarySpec>,
    output_type: Option<DataType>,
}

impl StencilProgramBuilder {
    /// Start building a program with the given name and iteration-space
    /// shape. Dimension names default to `i`, `j`, `k` (up to the rank of
    /// `shape`); use [`StencilProgramBuilder::dims`] to override.
    pub fn new(name: &str, shape: &[usize]) -> Self {
        let default_names = ["i", "j", "k"];
        let dims = default_names
            .iter()
            .take(shape.len())
            .map(|d| d.to_string())
            .collect();
        StencilProgramBuilder {
            name: name.to_string(),
            dims,
            shape: shape.to_vec(),
            inputs: BTreeMap::new(),
            stencils: Vec::new(),
            index: HashMap::new(),
            declared: 0,
            outputs: Vec::new(),
            vectorization: 1,
        }
    }

    /// The entry of stencil `name`, created empty on first sight.
    fn entry(&mut self, name: &str) -> &mut PendingStencil {
        let at = match self.index.get(name) {
            Some(&at) => at,
            None => {
                self.index.insert(name.to_string(), self.stencils.len());
                self.stencils.push(PendingStencil {
                    name: name.to_string(),
                    code: None,
                    boundary: None,
                    output_type: None,
                });
                self.stencils.len() - 1
            }
        };
        &mut self.stencils[at]
    }

    /// Override the iteration-space dimension names (memory order, slowest
    /// first).
    pub fn dims(mut self, dims: &[&str]) -> Self {
        self.dims = dims.iter().map(|d| d.to_string()).collect();
        self
    }

    /// Declare an input field spanning the listed dimensions.
    pub fn input(mut self, name: &str, dtype: DataType, dims: &[&str]) -> Self {
        self.inputs
            .insert(name.to_string(), FieldDecl::new(dtype, dims));
        self
    }

    /// Declare a scalar (0D) input.
    pub fn scalar(self, name: &str, dtype: DataType) -> Self {
        self.input(name, dtype, &[])
    }

    /// Add a stencil node with the given code segment; adding a name again
    /// replaces its code and keeps its place.
    pub fn stencil(self, name: &str, code: &str) -> Self {
        self.stencil_owned(name, code.to_string())
    }

    /// [`StencilProgramBuilder::stencil`], taking the code by value.
    pub(crate) fn stencil_owned(mut self, name: &str, code: String) -> Self {
        let declared = self.declared;
        let entry = self.entry(name);
        let first = match entry.code.take() {
            Some((_, first)) => first,
            None => declared,
        };
        entry.code = Some((code, first));
        if first == declared {
            self.declared += 1;
        }
        self
    }

    /// Set the boundary condition of `field` within stencil `stencil`.
    pub fn boundary(mut self, stencil: &str, field: &str, condition: BoundaryCondition) -> Self {
        (self
            .entry(stencil)
            .boundary
            .get_or_insert_with(BoundarySpec::default))
        .per_field
        .insert(field.to_string(), condition);
        self
    }

    /// Set the whole boundary specification of stencil `stencil`, replacing
    /// what [`StencilProgramBuilder::boundary`] and
    /// [`StencilProgramBuilder::shrink`] set before; `build()` moves it into
    /// the node.
    pub(crate) fn boundary_spec(mut self, stencil: &str, spec: BoundarySpec) -> Self {
        self.entry(stencil).boundary = Some(spec);
        self
    }

    /// Mark the output of stencil `stencil` as shrunk.
    pub fn shrink(mut self, stencil: &str) -> Self {
        (self
            .entry(stencil)
            .boundary
            .get_or_insert_with(BoundarySpec::default))
        .shrink = true;
        self
    }

    /// Set the output data type of a stencil (defaults to `float32`).
    pub fn output_type(mut self, stencil: &str, dtype: DataType) -> Self {
        self.entry(stencil).output_type = Some(dtype);
        self
    }

    /// Declare a program output.
    pub fn output(mut self, name: &str) -> Self {
        self.outputs.push(name.to_string());
        self
    }

    /// Set the vectorization width W.
    pub fn vectorization(mut self, width: usize) -> Self {
        self.vectorization = width;
        self
    }

    /// Parse all code segments, assemble the program, and validate it.
    ///
    /// # Errors
    ///
    /// Returns the first validation error encountered (see
    /// [`StencilProgram::validate`]).
    pub fn build(self) -> Result<StencilProgram> {
        let dim_refs: Vec<&str> = self.dims.iter().map(String::as_str).collect();
        let space = IterationSpace::new(&dim_refs, &self.shape)?;
        // Settings for a name never declared a stencil are dropped.
        let mut pending: Vec<PendingStencil> = self
            .stencils
            .into_iter()
            .filter(|p| p.code.is_some())
            .collect();
        pending.sort_by_key(|p| p.code.as_ref().map(|&(_, at)| at));
        let mut stencils = BTreeMap::new();
        for entry in pending {
            if self.inputs.contains_key(&entry.name) {
                return Err(ProgramError::DuplicateName { name: entry.name });
            }
            let (code, _) = entry.code.expect("kept above");
            let mut node = StencilNode::parse_owned(entry.name, code)?;
            if let Some(boundary) = entry.boundary {
                node.boundary = boundary;
            }
            if let Some(dtype) = entry.output_type {
                node.output_type = dtype;
            }
            stencils.insert(node.name.clone(), Arc::new(node));
        }
        let program = StencilProgram {
            name: self.name,
            space,
            inputs: self.inputs,
            stencils,
            outputs: self.outputs,
            vectorization: self.vectorization,
            fingerprint: OnceLock::new(),
            derived: OnceLock::new(),
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> StencilProgramBuilder {
        StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,j,k] * 2.0")
            .output("b")
    }

    #[test]
    fn builds_minimal_program() {
        let program = simple().build().unwrap();
        assert_eq!(program.name(), "p");
        assert_eq!(program.stencil_count(), 1);
        assert_eq!(program.vectorization(), 1);
        assert!(program.is_input("a"));
        assert!(program.is_stencil("b"));
        assert_eq!(program.field_type("a"), Some(DataType::Float32));
        assert_eq!(program.field_dims("b").unwrap(), vec!["i", "j", "k"]);
    }

    #[test]
    fn rejects_unknown_field() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "zz[i,j,k] * 2.0")
            .output("b")
            .build();
        assert!(matches!(result, Err(ProgramError::UnknownField { .. })));
    }

    #[test]
    fn rejects_unknown_output() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,j,k]")
            .output("c")
            .build();
        assert!(matches!(result, Err(ProgramError::UnknownOutput { .. })));
    }

    #[test]
    fn rejects_an_output_listed_twice() {
        let result = StencilProgramBuilder::new("p", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i,j] + 1.0")
            .stencil("c", "b[i,j] * 2.0")
            .output("b")
            .output("c")
            .output("b")
            .build();
        match result {
            Err(ProgramError::DuplicateOutput { name }) => assert_eq!(name, "b"),
            other => panic!("expected DuplicateOutput, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_field_named_like_an_output_memory() {
        // The DAG would hold one node for both the stencil `b__out` and the
        // output memory of `b`, with the edge `b -> b__out` twice.
        let builder = StencilProgramBuilder::new("p", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i,j] + 1.0")
            .stencil("b__out", "b[i,j] * 2.0");
        match builder.clone().output("b").output("b__out").build() {
            Err(ProgramError::OutputMemoryName { output, field }) => {
                assert_eq!((output.as_str(), field.as_str()), ("b", "b__out"));
            }
            other => panic!("expected OutputMemoryName, got {other:?}"),
        }
        // The name alone is fine as long as `b` is not an output.
        let program = builder.output("b__out").build().unwrap();
        assert_eq!(program.dag().nodes().count(), 4);
    }

    #[test]
    fn rejects_missing_outputs() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,j,k]")
            .build();
        assert!(matches!(result, Err(ProgramError::Invalid { .. })));
    }

    #[test]
    fn rejects_duplicate_names() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("a", "a[i,j,k]")
            .output("a")
            .build();
        assert!(matches!(result, Err(ProgramError::DuplicateName { .. })));
    }

    #[test]
    fn rejects_rank_mismatch() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "k"])
            .stencil("b", "a[i,j,k]")
            .output("b")
            .build();
        assert!(matches!(result, Err(ProgramError::InvalidAccess { .. })));
    }

    #[test]
    fn rejects_wrong_dimension_names() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,k,j]")
            .output("b")
            .build();
        assert!(matches!(result, Err(ProgramError::InvalidAccess { .. })));
    }

    #[test]
    fn rejects_cycles() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "c[i,j,k] + a[i,j,k]")
            .stencil("c", "b[i,j,k]")
            .output("c")
            .build();
        assert!(matches!(result, Err(ProgramError::Cycle { .. })));
    }

    #[test]
    fn rejects_bad_vectorization() {
        let result = simple().vectorization(3).build();
        assert!(matches!(
            result,
            Err(ProgramError::InvalidVectorization { .. })
        ));
        let program = simple().vectorization(4).build().unwrap();
        assert_eq!(program.vectorization(), 4);
    }

    #[test]
    fn rejects_boundary_on_unread_field() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .input("z", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,j,k]")
            .boundary("b", "z", BoundaryCondition::Copy)
            .output("b")
            .build();
        assert!(matches!(result, Err(ProgramError::InvalidBoundary { .. })));
    }

    #[test]
    fn scalar_inputs_are_accessible_without_indices() {
        let program = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .scalar("dt", DataType::Float32)
            .stencil("b", "a[i,j,k] * dt")
            .output("b")
            .build()
            .unwrap();
        assert!(program.input("dt").unwrap().is_scalar());
    }

    #[test]
    fn scalar_access_to_nonscalar_field_is_rejected() {
        let result = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a * 2.0")
            .output("b")
            .build();
        assert!(matches!(result, Err(ProgramError::InvalidAccess { .. })));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let program = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("c", "b[i,j,k] * 2.0")
            .stencil("b", "a[i,j,k] + 1.0")
            .output("c")
            .build()
            .unwrap();
        let order = program.topological_stencils().unwrap();
        let pos_b = order.iter().position(|n| n == "b").unwrap();
        let pos_c = order.iter().position(|n| n == "c").unwrap();
        assert!(pos_b < pos_c);
    }

    #[test]
    fn arithmetic_intensity_and_memory_volume() {
        let program = StencilProgramBuilder::new("p", &[4, 4, 4])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,j,k] * 2.0 + 1.0")
            .output("b")
            .build()
            .unwrap();
        // 64 cells, 2 flops per cell.
        assert_eq!(program.total_flops(), 128);
        // One input field + one output field of 64 cells * 4 bytes.
        assert_eq!(program.total_memory_bytes(), 2 * 64 * 4);
        let ai = program.arithmetic_intensity();
        assert!((ai - 128.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn ops_per_cell_sums_over_stencils() {
        let program = StencilProgramBuilder::new("p", &[4, 4, 4])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,j,k] + 1.0")
            .stencil("c", "b[i,j,k] * 3.0")
            .output("c")
            .build()
            .unwrap();
        let ops = program.ops_per_cell();
        assert_eq!(ops.additions, 1);
        assert_eq!(ops.multiplications, 1);
    }

    #[test]
    fn lower_dimensional_input_bytes() {
        let program = StencilProgramBuilder::new("p", &[10, 20, 30])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .input("surf", DataType::Float32, &["i", "k"])
            .stencil("b", "a[i,j,k] + surf[i,k]")
            .output("b")
            .build()
            .unwrap();
        // a: 10*20*30 elements, surf: 10*30 elements.
        assert_eq!(program.input_bytes(), (6000 + 300) * 4);
    }

    #[test]
    fn stored_fingerprint_is_invisible_to_equality_and_rendering() {
        let program = simple().build().unwrap();
        let rendered = format!("{program:?}");
        let fingerprint = program.fingerprint();
        assert_eq!(format!("{program:?}"), rendered);
        assert_eq!(program, simple().build().unwrap());
        assert_eq!(program.clone().fingerprint.get(), Some(&fingerprint));
        // Nor do the DAG and the kernels, once derived.
        let derived = simple().build().unwrap();
        assert!(derived.derived.get().is_some(), "validation builds the DAG");
        for stencil in derived.stencils() {
            stencil.kernel().unwrap();
        }
        assert_eq!(format!("{derived:?}"), rendered);
        assert_eq!(derived, program);
        assert_eq!(derived.fingerprint(), fingerprint);
    }

    #[test]
    fn the_mut_methods_clear_the_derived_dag() {
        let mut program = simple().build().unwrap();
        let before = program.topological_nodes().unwrap().to_vec();
        program.insert_stencil(StencilNode::parse("c", "b[i,j,k] + 1.0").unwrap());
        assert!(program.derived.get().is_none());
        assert!(program.fingerprint.get().is_none());
        assert_eq!(program.topological_stencils().unwrap(), ["b", "c"]);
        program.remove_stencil("c");
        assert_eq!(program.topological_nodes().unwrap(), before);
    }
}

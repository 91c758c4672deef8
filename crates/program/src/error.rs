//! Error type for stencil program construction and validation.

use std::fmt;
use stencilflow_expr::ExprError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ProgramError>;

/// Errors raised while building, parsing, or validating a stencil program.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    /// A stencil's code segment failed to parse.
    Code {
        /// Stencil node name.
        stencil: String,
        /// Underlying expression-language error.
        source: ExprError,
    },
    /// A stencil reads a symbol that is neither an input field nor another
    /// stencil's output.
    UnknownField {
        /// Stencil performing the access.
        stencil: String,
        /// Symbol that could not be resolved.
        field: String,
    },
    /// A field or stencil name was declared more than once.
    DuplicateName {
        /// The name that was declared twice.
        name: String,
    },
    /// A program output references a stencil that does not exist.
    UnknownOutput {
        /// The missing output name.
        name: String,
    },
    /// A field is named like the DAG's memory node of a program output
    /// (`b__out` next to an output `b`), so the two would share one node.
    OutputMemoryName {
        /// The program output whose memory node is shadowed.
        output: String,
        /// The input or stencil that carries the memory node's name.
        field: String,
    },
    /// The dependency graph contains a cycle.
    Cycle {
        /// A node involved in the cycle.
        node: String,
    },
    /// The iteration-space shape is invalid (empty, zero-sized, or more than
    /// three dimensions).
    InvalidShape {
        /// Description of the problem.
        message: String,
    },
    /// A field access uses iteration variables that are not part of the
    /// program's iteration space, or the wrong number of indices.
    InvalidAccess {
        /// Stencil performing the access.
        stencil: String,
        /// Field being accessed.
        field: String,
        /// Description of the problem.
        message: String,
    },
    /// A boundary condition refers to a field the stencil does not read.
    InvalidBoundary {
        /// Stencil the condition is attached to.
        stencil: String,
        /// Field named in the boundary condition.
        field: String,
    },
    /// The program description is structurally invalid (e.g. no outputs).
    Invalid {
        /// Description of the problem.
        message: String,
    },
    /// The JSON input could not be parsed or does not follow the expected
    /// schema.
    Json {
        /// Description of the problem.
        message: String,
    },
    /// A vectorization width that does not divide the innermost dimension.
    InvalidVectorization {
        /// The requested width.
        width: usize,
        /// The innermost dimension extent.
        inner_extent: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Code { stencil, source } => {
                write!(f, "failed to parse code of stencil `{stencil}`: {source}")
            }
            ProgramError::UnknownField { stencil, field } => write!(
                f,
                "stencil `{stencil}` reads `{field}`, which is neither an input nor a stencil"
            ),
            ProgramError::DuplicateName { name } => {
                write!(f, "name `{name}` is declared more than once")
            }
            ProgramError::UnknownOutput { name } => {
                write!(f, "output `{name}` does not correspond to any stencil")
            }
            ProgramError::OutputMemoryName { output, field } => write!(
                f,
                "field `{field}` has the name of the output memory of `{output}`; rename it"
            ),
            ProgramError::Cycle { node } => {
                write!(f, "dependency graph contains a cycle through `{node}`")
            }
            ProgramError::InvalidShape { message } => {
                write!(f, "invalid iteration-space shape: {message}")
            }
            ProgramError::InvalidAccess {
                stencil,
                field,
                message,
            } => write!(
                f,
                "invalid access to `{field}` in stencil `{stencil}`: {message}"
            ),
            ProgramError::InvalidBoundary { stencil, field } => write!(
                f,
                "boundary condition on `{field}` in stencil `{stencil}` refers to a field that is not read"
            ),
            ProgramError::Invalid { message } => write!(f, "invalid program: {message}"),
            ProgramError::Json { message } => write!(f, "invalid JSON program description: {message}"),
            ProgramError::InvalidVectorization {
                width,
                inner_extent,
            } => write!(
                f,
                "vectorization width {width} does not divide the innermost dimension extent {inner_extent}"
            ),
        }
    }
}

impl std::error::Error for ProgramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgramError::Code { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ExprError> for ProgramError {
    fn from(source: ExprError) -> Self {
        ProgramError::Code {
            stencil: String::new(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ProgramError::UnknownField {
            stencil: "b1".into(),
            field: "zz".into(),
        };
        assert!(e.to_string().contains("b1"));
        assert!(e.to_string().contains("zz"));

        let e = ProgramError::InvalidVectorization {
            width: 3,
            inner_extent: 32,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains("32"));
    }

    #[test]
    fn error_trait_source_chain() {
        use std::error::Error;
        let e = ProgramError::Code {
            stencil: "b0".into(),
            source: ExprError::EmptyProgram,
        };
        assert!(e.source().is_some());
        let e = ProgramError::DuplicateName { name: "x".into() };
        assert!(e.source().is_none());
    }
}

//! File ingestion for the command-line driver: program descriptions
//! (text JSON) and grid sets (compact `SFGS` binary framing or the text
//! escape hatch, auto-detected) are loaded from disk and converted into
//! the executor's in-memory types.
//!
//! The module deliberately owns every disk-facing conversion so the CLI
//! binary stays a thin argument parser: program JSON goes through
//! [`stencilflow_program::from_json`], grid bytes through
//! [`stencilflow_json::decode_grid_set_auto`], and results come back out
//! through [`stencilflow_json::encode_grid_set`].

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use stencilflow_expr::DataType;
use stencilflow_json::{decode_grid_set_auto, encode_grid_set, FrameError, GridFrame, Json};
use stencilflow_program::{from_json, ProgramError, StencilProgram};
use stencilflow_reference::Grid;

/// Errors produced while loading jobs from disk.
#[derive(Debug)]
pub enum IngestError {
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The program description failed to parse or validate.
    Program(ProgramError),
    /// A grid set or frame failed to decode.
    Frame(FrameError),
    /// Structurally valid input that the executor cannot use
    /// (unsupported dtype, duplicate grid name, ...).
    Schema(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io { path, error } => write!(f, "{path}: {error}"),
            IngestError::Program(e) => write!(f, "program error: {e}"),
            IngestError::Frame(e) => write!(f, "grid set error: {e}"),
            IngestError::Schema(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<ProgramError> for IngestError {
    fn from(e: ProgramError) -> Self {
        IngestError::Program(e)
    }
}

impl From<FrameError> for IngestError {
    fn from(e: FrameError) -> Self {
        IngestError::Frame(e)
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, IngestError> {
    std::fs::read(path).map_err(|error| IngestError::Io {
        path: path.display().to_string(),
        error,
    })
}

/// Load and validate a program description from a text-JSON file.
pub fn load_program(path: &Path) -> Result<Arc<StencilProgram>, IngestError> {
    let bytes = read_file(path)?;
    let text = String::from_utf8(bytes).map_err(|_| {
        IngestError::Schema(format!(
            "{}: program description is not valid UTF-8",
            path.display()
        ))
    })?;
    Ok(Arc::new(from_json(&text)?))
}

/// Convert a decoded frame into an executor grid.
///
/// The frame's dtype string must name a floating-point element type
/// (the only payloads the framing defines); values are rounded through
/// that type exactly as [`Grid::from_values_typed`] does, so a
/// `float32` frame loads bit-identically to a grid built in process.
pub(crate) fn frame_to_grid(name: &str, frame: &GridFrame) -> Result<Grid, IngestError> {
    let dtype: DataType = frame.dtype.parse().map_err(|_| {
        IngestError::Schema(format!(
            "grid `{name}`: unsupported dtype `{}`",
            frame.dtype
        ))
    })?;
    let dims: Vec<&str> = frame.dims.iter().map(String::as_str).collect();
    Ok(Grid::from_values_typed(
        &dims,
        &frame.shape,
        dtype,
        &frame.values,
    ))
}

/// Convert an executor grid into a frame ready for encoding.
pub fn grid_to_frame(name: &str, grid: &Grid) -> Result<GridFrame, IngestError> {
    let dtype = match grid.data_type() {
        DataType::Float32 => "float32",
        DataType::Float64 => "float64",
        other => {
            return Err(IngestError::Schema(format!(
                "grid `{name}`: element type {other} has no frame encoding"
            )))
        }
    };
    GridFrame::new(
        dtype,
        grid.dims().to_vec(),
        grid.shape().to_vec(),
        grid.as_slice().to_vec(),
    )
    .map_err(IngestError::Frame)
}

/// Load a named grid set (binary `SFGS` or the text escape hatch,
/// auto-detected) into the executor's input map. Duplicate grid names
/// are rejected rather than last-wins.
pub fn load_grid_set(path: &Path) -> Result<BTreeMap<String, Grid>, IngestError> {
    let bytes = read_file(path)?;
    let entries = decode_grid_set_auto(&bytes)?;
    let mut grids = BTreeMap::new();
    for (name, frame) in &entries {
        let grid = frame_to_grid(name, frame)?;
        if grids.insert(name.clone(), grid).is_some() {
            return Err(IngestError::Schema(format!(
                "{}: duplicate grid `{name}`",
                path.display()
            )));
        }
    }
    Ok(grids)
}

/// Encode named grids as a binary `SFGS` grid set and write it.
pub fn write_grid_set(
    path: &Path,
    grids: impl Iterator<Item = (String, Grid)>,
) -> Result<(), IngestError> {
    let mut entries = Vec::new();
    for (name, grid) in grids {
        let frame = grid_to_frame(&name, &grid)?;
        entries.push((name, frame));
    }
    let bytes = encode_grid_set(&entries)?;
    std::fs::write(path, bytes).map_err(|error| IngestError::Io {
        path: path.display().to_string(),
        error,
    })
}

/// One entry of a serve manifest: a program, its inputs, and how the
/// job repeats.
#[derive(Debug, Clone)]
pub struct ManifestJob {
    /// Path-relative label used in reports (defaults to the program path).
    pub label: String,
    /// The validated program.
    pub program: Arc<StencilProgram>,
    /// The decoded inputs, shared across repeats.
    pub inputs: Arc<BTreeMap<String, Grid>>,
    /// Number of update sweeps per job (defaults to 1).
    pub steps: usize,
    /// Optional fixed tier name (validated by the CLI against the
    /// executor's tier table).
    pub tier: Option<String>,
    /// How many identical jobs this entry expands into (defaults to 1).
    pub count: usize,
}

/// Parse a serve manifest: a text-JSON array of
/// `{"program": PATH, "grids": PATH, "steps": N, "tier": NAME,
/// "count": N}` objects. Relative paths resolve against the manifest's
/// own directory, so a manifest can move with its data.
pub fn load_manifest(path: &Path) -> Result<Vec<ManifestJob>, IngestError> {
    let bytes = read_file(path)?;
    let text = String::from_utf8(bytes).map_err(|_| {
        IngestError::Schema(format!("{}: manifest is not valid UTF-8", path.display()))
    })?;
    let json = stencilflow_json::parse(&text)
        .map_err(|e| IngestError::Schema(format!("{}: {e}", path.display())))?;
    let entries = json.as_array().ok_or_else(|| {
        IngestError::Schema(format!(
            "{}: manifest must be a JSON array of job objects",
            path.display()
        ))
    })?;
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    let mut jobs = Vec::with_capacity(entries.len());
    for (ix, entry) in entries.iter().enumerate() {
        jobs.push(parse_manifest_entry(base, ix, entry)?);
    }
    Ok(jobs)
}

fn parse_manifest_entry(base: &Path, ix: usize, entry: &Json) -> Result<ManifestJob, IngestError> {
    let fail = |msg: String| IngestError::Schema(format!("manifest job {ix}: {msg}"));
    let object = entry
        .as_object()
        .ok_or_else(|| fail(format!("expected an object, found {}", entry.type_name())))?;
    for (key, _) in object {
        if !matches!(
            key.as_str(),
            "program" | "grids" | "steps" | "tier" | "count"
        ) {
            return Err(fail(format!("unknown key `{key}`")));
        }
    }
    let path_field = |key: &str| -> Result<std::path::PathBuf, IngestError> {
        let value = entry
            .get(key)
            .ok_or_else(|| fail(format!("missing required key `{key}`")))?;
        let s = value
            .as_str()
            .ok_or_else(|| fail(format!("`{key}` must be a path string")))?;
        Ok(base.join(s))
    };
    let program_path = path_field("program")?;
    let grids_path = path_field("grids")?;
    let steps = match entry.get("steps") {
        None => 1,
        Some(v) => v
            .as_usize()
            .filter(|&s| s >= 1)
            .ok_or_else(|| fail("`steps` must be a positive integer".to_string()))?,
    };
    let count = match entry.get("count") {
        None => 1,
        Some(v) => v
            .as_usize()
            .filter(|&c| c >= 1)
            .ok_or_else(|| fail("`count` must be a positive integer".to_string()))?,
    };
    let tier = match entry.get("tier") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| fail("`tier` must be a string".to_string()))?
                .to_string(),
        ),
    };
    let program = load_program(&program_path)?;
    let inputs = Arc::new(load_grid_set(&grids_path)?);
    Ok(ManifestJob {
        label: program_path.display().to_string(),
        program,
        inputs,
        steps,
        tier,
        count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_round_trip_through_frames_bitwise() {
        let grid = Grid::from_values_typed(
            &["i", "j"],
            &[2, 3],
            DataType::Float64,
            &[1.0, -0.0, f64::NAN, 0.5, 2.5e-300, -7.25],
        );
        let frame = grid_to_frame("a", &grid).unwrap();
        let back = frame_to_grid("a", &frame).unwrap();
        assert_eq!(back.dims(), grid.dims());
        assert_eq!(back.shape(), grid.shape());
        assert_eq!(back.data_type(), grid.data_type());
        for (x, y) in back.as_slice().iter().zip(grid.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn int_grids_are_rejected_with_a_clear_error() {
        let grid = Grid::zeros(&["i"], &[4], DataType::Int32);
        let err = grid_to_frame("counts", &grid).unwrap_err();
        assert!(matches!(err, IngestError::Schema(_)));
        assert!(err.to_string().contains("no frame encoding"));
    }
}

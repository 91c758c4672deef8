//! Compact binary grid framing for the service ingestion path.
//!
//! Text JSON is a fine control-plane format, but shipping a million-cell
//! grid as decimal literals costs ~20 bytes/cell to print and parse. This
//! module defines a little-endian, dtype-tagged frame that carries the
//! payload as raw IEEE-754 bytes, plus a text-JSON escape hatch so every
//! frame has a human-readable equivalent:
//!
//! ```text
//! grid frame ("SFGB", version 1):
//!   magic  b"SFGB"
//!   u8     version (1)
//!   u8     dtype name length, then that many UTF-8 bytes ("float32"/"float64")
//!   u8     rank
//!   per dimension: u8 name length + UTF-8 bytes
//!   per dimension: u64 LE extent
//!   payload: product(extents).max(1) values, f32 LE when dtype is
//!            "float32", f64 LE otherwise
//!
//! grid-set container ("SFGS", version 1):
//!   magic  b"SFGS"
//!   u8     version (1)
//!   u32 LE entry count
//!   per entry: u16 LE name length + UTF-8 bytes,
//!              u64 LE frame length, then the grid frame
//! ```
//!
//! The text escape hatch is an object `{"dims", "shape", "dtype",
//! "values"}` with row-major values. Binary frames round-trip every bit
//! pattern including NaN and infinities; the text path inherits JSON's
//! number model (non-finite values print as `null`), which is exactly why
//! the binary framing exists. [`detect`] sniffs the magic so ingestion
//! points can accept either encoding from the same flag.

use crate::{parse, Json, JsonError};

/// Magic prefix of a single binary grid frame.
pub(crate) const GRID_MAGIC: &[u8; 4] = b"SFGB";
/// Magic prefix of a binary grid-set container.
pub(crate) const GRID_SET_MAGIC: &[u8; 4] = b"SFGS";
/// Framing version emitted by this module.
pub(crate) const FRAME_VERSION: u8 = 1;

/// How a byte payload is encoded, as sniffed by [`detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// A single binary grid frame (`SFGB`).
    BinaryGrid,
    /// A binary grid-set container (`SFGS`).
    BinaryGridSet,
    /// Anything else: treated as text JSON.
    Text,
}

/// Sniff the encoding of an ingested payload by its magic bytes.
pub fn detect(bytes: &[u8]) -> Encoding {
    if bytes.starts_with(GRID_MAGIC) {
        Encoding::BinaryGrid
    } else if bytes.starts_with(GRID_SET_MAGIC) {
        Encoding::BinaryGridSet
    } else {
        Encoding::Text
    }
}

/// A decoding failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for FrameError {}

impl From<JsonError> for FrameError {
    fn from(err: JsonError) -> FrameError {
        FrameError {
            offset: err.position,
            message: err.message,
        }
    }
}

/// One dense row-major grid, decoupled from any executor type so the
/// framing stays dependency-free. `values` always holds
/// `shape.iter().product().max(1)` entries (a rank-0 frame is a scalar).
#[derive(Debug, Clone, PartialEq)]
pub struct GridFrame {
    /// Element type name: `"float32"` or `"float64"`.
    pub dtype: String,
    /// Dimension names, one per rank.
    pub dims: Vec<String>,
    /// Extents, one per rank.
    pub shape: Vec<usize>,
    /// Row-major cell values (f32 payloads are widened on decode).
    pub values: Vec<f64>,
}

/// Reader cursor with offset-carrying failures.
struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, offset: 0 }
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, FrameError> {
        Err(FrameError {
            offset: self.offset,
            message: message.into(),
        })
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() - self.offset < len {
            return self.fail(format!(
                "truncated frame: needed {len} bytes for {what}, {} left",
                self.bytes.len() - self.offset
            ));
        }
        let slice = &self.bytes[self.offset..self.offset + len];
        self.offset += len;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn name(&mut self, len: usize, what: &str) -> Result<String, FrameError> {
        let raw = self.take(len, what)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.fail(format!("{what} is not valid UTF-8")),
        }
    }

    fn done(&self) -> bool {
        self.offset == self.bytes.len()
    }
}

impl GridFrame {
    /// Construct a frame, validating the rank/extent/payload invariants
    /// that [`decode`](GridFrame::decode) enforces.
    pub fn new(
        dtype: impl Into<String>,
        dims: Vec<String>,
        shape: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<GridFrame, FrameError> {
        let frame = GridFrame {
            dtype: dtype.into(),
            dims,
            shape,
            values,
        };
        frame.validate()?;
        Ok(frame)
    }

    fn validate(&self) -> Result<(), FrameError> {
        let fail = |message: String| Err(FrameError { offset: 0, message });
        if self.dtype != "float32" && self.dtype != "float64" {
            return fail(format!(
                "unsupported dtype `{}` (expected float32 or float64)",
                self.dtype
            ));
        }
        if self.dims.len() != self.shape.len() {
            return fail(format!(
                "{} dimension names for rank-{} shape",
                self.dims.len(),
                self.shape.len()
            ));
        }
        if self.dims.len() > u8::MAX as usize {
            return fail(format!("rank {} exceeds the frame limit", self.dims.len()));
        }
        for name in &self.dims {
            if name.is_empty() || name.len() > u8::MAX as usize {
                return fail(format!("dimension name `{name}` length out of range"));
            }
        }
        if self.dtype.len() > u8::MAX as usize {
            return fail("dtype name too long".to_string());
        }
        let cells: usize = self.shape.iter().product::<usize>().max(1);
        if self.values.len() != cells {
            return fail(format!(
                "payload holds {} values, shape {:?} needs {cells}",
                self.values.len(),
                self.shape
            ));
        }
        Ok(())
    }

    /// Serialize to the `SFGB` binary layout.
    pub fn encode(&self) -> Vec<u8> {
        let narrow = self.dtype == "float32";
        let cell_bytes = if narrow { 4 } else { 8 };
        let mut out = Vec::with_capacity(64 + self.values.len() * cell_bytes);
        out.extend_from_slice(GRID_MAGIC);
        out.push(FRAME_VERSION);
        out.push(self.dtype.len() as u8);
        out.extend_from_slice(self.dtype.as_bytes());
        out.push(self.dims.len() as u8);
        for dim in &self.dims {
            out.push(dim.len() as u8);
            out.extend_from_slice(dim.as_bytes());
        }
        for &extent in &self.shape {
            out.extend_from_slice(&(extent as u64).to_le_bytes());
        }
        for &value in &self.values {
            if narrow {
                out.extend_from_slice(&(value as f32).to_le_bytes());
            } else {
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
        out
    }

    /// Decode one `SFGB` frame, requiring the payload to consume the whole
    /// input. Truncated, oversized, or corrupt inputs error; they never
    /// panic (fuzzed in `tests/frame_fuzz.rs`).
    pub fn decode(bytes: &[u8]) -> Result<GridFrame, FrameError> {
        let mut cursor = Cursor::new(bytes);
        let frame = GridFrame::decode_at(&mut cursor)?;
        if !cursor.done() {
            return cursor.fail("trailing bytes after grid payload");
        }
        Ok(frame)
    }

    fn decode_at(cursor: &mut Cursor<'_>) -> Result<GridFrame, FrameError> {
        if cursor.take(4, "frame magic")? != GRID_MAGIC {
            cursor.offset -= 4;
            return cursor.fail("bad magic: not an SFGB grid frame");
        }
        let version = cursor.u8("frame version")?;
        if version != FRAME_VERSION {
            return cursor.fail(format!("unsupported frame version {version}"));
        }
        let dtype_len = cursor.u8("dtype length")? as usize;
        let dtype = cursor.name(dtype_len, "dtype name")?;
        if dtype != "float32" && dtype != "float64" {
            return cursor.fail(format!("unsupported dtype `{dtype}`"));
        }
        let rank = cursor.u8("rank")? as usize;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let len = cursor.u8("dimension name length")? as usize;
            if len == 0 {
                return cursor.fail("empty dimension name");
            }
            dims.push(cursor.name(len, "dimension name")?);
        }
        let mut shape = Vec::with_capacity(rank);
        let mut cells: usize = 1;
        for _ in 0..rank {
            let extent = cursor.u64("extent")?;
            let extent = usize::try_from(extent)
                .ok()
                .filter(|&e| {
                    cells
                        .checked_mul(e.max(1))
                        .is_some_and(|c| c <= MAX_FRAME_CELLS)
                })
                .ok_or_else(|| FrameError {
                    offset: cursor.offset,
                    message: format!("extent {extent} overflows the frame cell limit"),
                })?;
            cells = cells.saturating_mul(extent.max(1));
            shape.push(extent);
        }
        let cells = shape.iter().product::<usize>().max(1);
        let narrow = dtype == "float32";
        let cell_bytes = if narrow { 4 } else { 8 };
        let payload = cursor.take(cells * cell_bytes, "cell payload")?;
        let mut values = Vec::with_capacity(cells);
        if narrow {
            for chunk in payload.chunks_exact(4) {
                values.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as f64);
            }
        } else {
            for chunk in payload.chunks_exact(8) {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(chunk);
                values.push(f64::from_le_bytes(raw));
            }
        }
        Ok(GridFrame {
            dtype,
            dims,
            shape,
            values,
        })
    }

    /// The text escape hatch: `{"dims", "shape", "dtype", "values"}`.
    /// Non-finite values degrade to `null` when printed (JSON has no NaN);
    /// use the binary frame when bit-exactness matters.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "dims".to_string(),
                Json::Array(self.dims.iter().map(|d| Json::String(d.clone())).collect()),
            ),
            (
                "shape".to_string(),
                Json::Array(self.shape.iter().map(|&e| Json::Number(e as f64)).collect()),
            ),
            ("dtype".to_string(), Json::String(self.dtype.clone())),
            (
                "values".to_string(),
                Json::Array(self.values.iter().map(|&v| Json::Number(v)).collect()),
            ),
        ])
    }

    /// Parse the text escape hatch produced by
    /// [`to_json`](GridFrame::to_json).
    pub fn from_json(json: &Json) -> Result<GridFrame, FrameError> {
        let fail = |message: String| FrameError { offset: 0, message };
        let object = json
            .as_object()
            .ok_or_else(|| fail(format!("grid must be an object, got {}", json.type_name())))?;
        for (key, _) in object {
            if !matches!(key.as_str(), "dims" | "shape" | "dtype" | "values") {
                return Err(fail(format!("unknown grid key `{key}`")));
            }
        }
        let field = |key: &str| {
            json.get(key)
                .ok_or_else(|| fail(format!("grid is missing `{key}`")))
        };
        let dims = field("dims")?
            .as_array()
            .ok_or_else(|| fail("`dims` must be an array of strings".to_string()))?
            .iter()
            .map(|d| {
                d.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| fail("`dims` must be an array of strings".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shape = field("shape")?
            .as_array()
            .ok_or_else(|| fail("`shape` must be an array of extents".to_string()))?
            .iter()
            .map(|e| {
                e.as_usize().ok_or_else(|| {
                    fail("`shape` extents must be non-negative integers".to_string())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dtype = field("dtype")?
            .as_str()
            .ok_or_else(|| fail("`dtype` must be a string".to_string()))?
            .to_string();
        let values = field("values")?
            .as_array()
            .ok_or_else(|| fail("`values` must be an array of numbers".to_string()))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| fail("`values` must be an array of numbers".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        GridFrame::new(dtype, dims, shape, values)
    }
}

/// Cells a single frame may declare (1 GiB of f64 payload); extents that
/// multiply past this are rejected before any allocation happens, so a
/// corrupt length field cannot OOM the decoder.
pub(crate) const MAX_FRAME_CELLS: usize = 1 << 27;

/// Serialize a named grid set to the `SFGS` container layout. Entries keep
/// their given order.
pub fn encode_grid_set(entries: &[(String, GridFrame)]) -> Result<Vec<u8>, FrameError> {
    let fail = |message: String| Err(FrameError { offset: 0, message });
    if entries.len() > u32::MAX as usize {
        return fail("too many grids for one container".to_string());
    }
    let mut out = Vec::new();
    out.extend_from_slice(GRID_SET_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, frame) in entries {
        frame.validate()?;
        if name.len() > u16::MAX as usize {
            return fail(format!("grid name `{name}` too long"));
        }
        let encoded = frame.encode();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
        out.extend_from_slice(&encoded);
    }
    Ok(out)
}

/// Decode an `SFGS` container back into its named frames.
pub fn decode_grid_set(bytes: &[u8]) -> Result<Vec<(String, GridFrame)>, FrameError> {
    let mut cursor = Cursor::new(bytes);
    if cursor.take(4, "container magic")? != GRID_SET_MAGIC {
        cursor.offset -= 4;
        return cursor.fail("bad magic: not an SFGS grid set");
    }
    let version = cursor.u8("container version")?;
    if version != FRAME_VERSION {
        return cursor.fail(format!("unsupported container version {version}"));
    }
    let count = cursor.u32("entry count")? as usize;
    let mut entries = Vec::new();
    for _ in 0..count {
        let name_len = cursor.u16("grid name length")? as usize;
        let name = cursor.name(name_len, "grid name")?;
        let frame_len = cursor.u64("frame length")?;
        let frame_len = usize::try_from(frame_len).map_err(|_| FrameError {
            offset: cursor.offset,
            message: format!("frame length {frame_len} out of range"),
        })?;
        let frame_bytes = cursor.take(frame_len, "grid frame")?;
        let frame = GridFrame::decode(frame_bytes).map_err(|err| FrameError {
            offset: cursor.offset - frame_len + err.offset,
            message: format!("grid `{name}`: {}", err.message),
        })?;
        entries.push((name, frame));
    }
    if !cursor.done() {
        return cursor.fail("trailing bytes after last grid");
    }
    Ok(entries)
}

/// Decode a named grid set from either encoding: `SFGS` binary or a text
/// JSON object of `{name: grid}` escape-hatch entries (object order kept).
pub fn decode_grid_set_auto(bytes: &[u8]) -> Result<Vec<(String, GridFrame)>, FrameError> {
    match detect(bytes) {
        Encoding::BinaryGridSet => decode_grid_set(bytes),
        Encoding::BinaryGrid => Err(FrameError {
            offset: 0,
            message: "expected a grid set, found a single grid frame".to_string(),
        }),
        Encoding::Text => {
            let text = std::str::from_utf8(bytes).map_err(|err| FrameError {
                offset: err.valid_up_to(),
                message: "grid set is neither SFGS binary nor UTF-8 JSON".to_string(),
            })?;
            let json = parse(text)?;
            let object = json.as_object().ok_or_else(|| FrameError {
                offset: 0,
                message: format!(
                    "text grid set must be an object of grids, got {}",
                    json.type_name()
                ),
            })?;
            object
                .iter()
                .map(|(name, grid)| {
                    GridFrame::from_json(grid)
                        .map(|frame| (name.clone(), frame))
                        .map_err(|err| FrameError {
                            offset: err.offset,
                            message: format!("grid `{name}`: {}", err.message),
                        })
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GridFrame {
        GridFrame::new(
            "float64",
            vec!["i".to_string(), "j".to_string()],
            vec![2, 3],
            vec![0.5, -1.0, f64::NAN, f64::INFINITY, 1e-300, -0.0],
        )
        .unwrap()
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let frame = sample();
        let decoded = GridFrame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded.dims, frame.dims);
        assert_eq!(decoded.shape, frame.shape);
        assert_eq!(decoded.dtype, frame.dtype);
        for (a, b) in decoded.values.iter().zip(&frame.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn float32_payload_is_four_bytes_per_cell() {
        let frame = GridFrame::new(
            "float32",
            vec!["i".to_string()],
            vec![4],
            vec![1.5, -2.25, 0.0, 3.0],
        )
        .unwrap();
        let bytes = frame.encode();
        let decoded = GridFrame::decode(&bytes).unwrap();
        assert_eq!(decoded, frame);
        // header: magic 4 + ver 1 + dtype (1+7) + rank 1 + dim (1+1) + extent 8
        assert_eq!(bytes.len(), 24 + 4 * 4);
    }

    #[test]
    fn scalar_frame_has_one_value() {
        let frame = GridFrame::new("float64", vec![], vec![], vec![42.0]).unwrap();
        let decoded = GridFrame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded.values, vec![42.0]);
        assert!(GridFrame::new("float64", vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_error() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(GridFrame::decode(&bytes[..len]).is_err(), "len {len}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(GridFrame::decode(&long).is_err());
    }

    #[test]
    fn huge_extents_are_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(GRID_MAGIC);
        bytes.push(FRAME_VERSION);
        bytes.push(7);
        bytes.extend_from_slice(b"float64");
        bytes.push(2);
        bytes.push(1);
        bytes.push(b'i');
        bytes.push(1);
        bytes.push(b'j');
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = GridFrame::decode(&bytes).unwrap_err();
        assert!(err.message.contains("overflow"), "{err}");
    }

    #[test]
    fn grid_set_round_trips_and_keeps_order() {
        let entries = vec![
            ("u".to_string(), sample()),
            (
                "coeff".to_string(),
                GridFrame::new("float32", vec!["k".to_string()], vec![2], vec![1.0, 2.0]).unwrap(),
            ),
        ];
        let bytes = encode_grid_set(&entries).unwrap();
        assert_eq!(detect(&bytes), Encoding::BinaryGridSet);
        let decoded = decode_grid_set(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, "u");
        assert_eq!(decoded[1].0, "coeff");
        assert_eq!(decoded[1].1, entries[1].1);
        // Auto-detection takes the same bytes.
        assert_eq!(decode_grid_set_auto(&bytes).unwrap().len(), 2);
    }

    #[test]
    fn text_escape_hatch_round_trips_finite_values() {
        let frame = GridFrame::new(
            "float64",
            vec!["i".to_string()],
            vec![3],
            vec![0.5, -2.0, 1e-9],
        )
        .unwrap();
        let text = frame.to_json().to_string_compact();
        let parsed = GridFrame::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, frame);
        // And through the auto-detecting set reader.
        let set_text = format!("{{\"u\": {text}}}");
        assert_eq!(detect(set_text.as_bytes()), Encoding::Text);
        let set = decode_grid_set_auto(set_text.as_bytes()).unwrap();
        assert_eq!(set[0].1, frame);
    }

    #[test]
    fn text_rejects_unknown_keys_and_bad_shapes() {
        let bad = parse("{\"dims\": [\"i\"], \"shape\": [2], \"dtype\": \"float64\", \"values\": [1], \"extra\": 0}").unwrap();
        assert!(GridFrame::from_json(&bad).is_err());
        let short =
            parse("{\"dims\": [\"i\"], \"shape\": [2], \"dtype\": \"float64\", \"values\": [1]}")
                .unwrap();
        assert!(GridFrame::from_json(&short).is_err());
    }
}

//! Versioned, checksummed weight snapshots for O(read) hot reload.
//!
//! A [`Snapshot`] packs every tensor of a trained model into **one**
//! contiguous `f32` payload plus a small header (magic, format version,
//! FNV-1a-64 checksum, string metadata, and a name → span index). The
//! payload lives behind an `Arc<[f32]>`, so N daemon workers sharing a
//! reloaded model share one copy of the weights (the vendored-shim build
//! has no mmap; `Arc` sharing gives the same one-copy property), tensor
//! reads are zero-copy slices into it, and rebuilding a detector from a
//! snapshot costs one file read plus one pass over the payload instead of
//! a retrain.
//!
//! Integer index tensors (e.g. GBDT child links) are stored as
//! `f32` **bit patterns** via `f32::from_bits`/`to_bits` — the payload is
//! only ever moved, never used in arithmetic, so the round trip is exact.
//!
//! Everything here is reachable from the serving daemon's reload path, so
//! the module is panic-free on untrusted input: corrupt bytes surface as
//! [`SnapshotError`], never as a panic.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MPSS";
/// Current format version; bumped on layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Typed failure surface for snapshot encode/decode/reload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (message carries the underlying error).
    Io(String),
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Format version newer than this build understands.
    UnsupportedVersion(u32),
    /// Stored checksum does not match the decoded bytes.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Buffer ended inside the named section.
    Truncated(&'static str),
    /// A string field was not valid UTF-8.
    BadUtf8(&'static str),
    /// A tensor span points outside the payload.
    BadSpan(String),
    /// Requested tensor is absent.
    MissingTensor(String),
    /// Requested metadata key is absent.
    MissingMeta(String),
    /// Metadata value failed to parse for its key.
    BadMeta { key: String, value: String },
    /// A tensor has the wrong element count for its declared shape.
    TensorShape { name: String, expected: usize, got: usize },
    /// The `detector` metadata names no known architecture.
    UnknownDetector(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (max {SNAPSHOT_VERSION})")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(f, "snapshot checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            SnapshotError::Truncated(section) => write!(f, "snapshot truncated in {section}"),
            SnapshotError::BadUtf8(section) => write!(f, "snapshot has invalid utf-8 in {section}"),
            SnapshotError::BadSpan(name) => write!(f, "tensor {name} span exceeds payload"),
            SnapshotError::MissingTensor(name) => write!(f, "snapshot has no tensor {name:?}"),
            SnapshotError::MissingMeta(key) => write!(f, "snapshot has no meta key {key:?}"),
            SnapshotError::BadMeta { key, value } => {
                write!(f, "snapshot meta {key:?} has unparseable value {value:?}")
            }
            SnapshotError::TensorShape { name, expected, got } => {
                write!(f, "tensor {name} has {got} elements, expected {expected}")
            }
            SnapshotError::UnknownDetector(name) => {
                write!(f, "snapshot names unknown detector architecture {name:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over `bytes` — small, dependency-free, and plenty to
/// catch torn writes and bit rot on the reload path.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Accumulates metadata and tensors, then freezes into a [`Snapshot`].
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    meta: Vec<(String, String)>,
    index: Vec<(String, usize, usize)>,
    payload: Vec<f32>,
}

impl SnapshotBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    /// Record a string metadata pair (config dims, architecture name, …).
    pub fn meta(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        self.meta.push((key.to_owned(), value.to_string()));
        self
    }

    /// Append an f32 tensor to the payload under `name`.
    pub fn tensor(&mut self, name: &str, data: &[f32]) -> &mut Self {
        let offset = self.payload.len();
        self.payload.extend_from_slice(data);
        self.index.push((name.to_owned(), offset, data.len()));
        self
    }

    /// Append a u32 tensor stored as f32 bit patterns (exact round trip;
    /// the payload is never used in arithmetic).
    pub fn tensor_u32(&mut self, name: &str, data: &[u32]) -> &mut Self {
        let offset = self.payload.len();
        self.payload.extend(data.iter().map(|&u| f32::from_bits(u)));
        self.index.push((name.to_owned(), offset, data.len()));
        self
    }

    /// Freeze into an immutable, shareable [`Snapshot`].
    pub fn finish(self) -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            meta: self.meta,
            index: self.index,
            payload: Arc::from(self.payload),
        }
    }
}

/// An immutable snapshot of trained weights: one shared payload, a tensor
/// index, and string metadata. Cloning is O(1) (the payload is `Arc`ed).
#[derive(Debug, Clone)]
pub struct Snapshot {
    version: u32,
    meta: Vec<(String, String)>,
    index: Vec<(String, usize, usize)>,
    payload: Arc<[f32]>,
}

impl Snapshot {
    /// Format version this snapshot was decoded from (or built at).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Metadata value for `key`, if present.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Metadata value for `key`, parsed as `T`.
    pub fn meta_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, SnapshotError> {
        let value = self.meta(key).ok_or_else(|| SnapshotError::MissingMeta(key.to_owned()))?;
        value.parse().map_err(|_| SnapshotError::BadMeta {
            key: key.to_owned(),
            value: value.to_owned(),
        })
    }

    /// Zero-copy view of tensor `name`.
    pub fn tensor(&self, name: &str) -> Result<&[f32], SnapshotError> {
        let (_, offset, len) = self
            .index
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| SnapshotError::MissingTensor(name.to_owned()))?;
        self.payload
            .get(*offset..offset + len)
            .ok_or_else(|| SnapshotError::BadSpan(name.to_owned()))
    }

    /// Tensor `name` with a required element count.
    pub fn tensor_sized(&self, name: &str, expected: usize) -> Result<&[f32], SnapshotError> {
        let t = self.tensor(name)?;
        if t.len() != expected {
            return Err(SnapshotError::TensorShape {
                name: name.to_owned(),
                expected,
                got: t.len(),
            });
        }
        Ok(t)
    }

    /// Tensor `name` decoded back to the u32s it was stored from.
    pub fn tensor_u32(&self, name: &str) -> Result<Vec<u32>, SnapshotError> {
        Ok(self.tensor(name)?.iter().map(|v| v.to_bits()).collect())
    }

    /// Single-element tensor `name` as a scalar.
    pub fn tensor_scalar(&self, name: &str) -> Result<f32, SnapshotError> {
        let t = self.tensor_sized(name, 1)?;
        t.first().copied().ok_or_else(|| SnapshotError::MissingTensor(name.to_owned()))
    }

    /// The shared payload; clones are O(1) handle copies onto one buffer.
    pub fn payload(&self) -> Arc<[f32]> {
        Arc::clone(&self.payload)
    }

    /// Serialize: header (magic, version, checksum of everything after
    /// the header), meta section, index section, payload words (LE).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        push_u32(&mut body, self.meta.len() as u32);
        for (k, v) in &self.meta {
            push_str(&mut body, k);
            push_str(&mut body, v);
        }
        push_u32(&mut body, self.index.len() as u32);
        for (name, offset, len) in &self.index {
            push_str(&mut body, name);
            push_u32(&mut body, *offset as u32);
            push_u32(&mut body, *len as u32);
        }
        push_u32(&mut body, self.payload.len() as u32);
        for v in self.payload.iter() {
            body.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode a snapshot, verifying magic, version, and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < 16 {
            return Err(SnapshotError::Truncated("header"));
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u32_at(bytes, 4).ok_or(SnapshotError::Truncated("header"))?;
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let stored = read_u64_at(bytes, 8).ok_or(SnapshotError::Truncated("header"))?;
        let body = &bytes[16..];
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut cursor = Cursor { bytes: body, at: 0 };
        let meta_count = cursor.u32("meta count")? as usize;
        let mut meta = Vec::with_capacity(meta_count.min(1024));
        for _ in 0..meta_count {
            let k = cursor.string("meta key")?;
            let v = cursor.string("meta value")?;
            meta.push((k, v));
        }
        let tensor_count = cursor.u32("tensor count")? as usize;
        let mut index = Vec::with_capacity(tensor_count.min(1024));
        for _ in 0..tensor_count {
            let name = cursor.string("tensor name")?;
            let offset = cursor.u32("tensor offset")? as usize;
            let len = cursor.u32("tensor length")? as usize;
            index.push((name, offset, len));
        }
        let words = cursor.u32("payload length")? as usize;
        let mut payload = Vec::new();
        payload.try_reserve_exact(words).map_err(|_| SnapshotError::Truncated("payload"))?;
        for _ in 0..words {
            payload.push(f32::from_bits(cursor.u32("payload")?));
        }
        for (name, offset, len) in &index {
            match offset.checked_add(*len) {
                Some(end) if end <= payload.len() => {}
                _ => return Err(SnapshotError::BadSpan(name.clone())),
            }
        }
        Ok(Snapshot { version, meta, index, payload: Arc::from(payload) })
    }

    /// Write the serialized snapshot to `path` (atomic enough for the
    /// reload path: a torn write fails the checksum, never half-loads).
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Read and decode a snapshot from `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Snapshot::from_bytes(&bytes)
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn read_u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let span = bytes.get(at..at + 4)?;
    Some(u32::from_le_bytes([span[0], span[1], span[2], span[3]]))
}

fn read_u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let span = bytes.get(at..at + 8)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(span);
    Some(u64::from_le_bytes(b))
}

/// Bounds-checked little-endian reader over the post-header body.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn u32(&mut self, section: &'static str) -> Result<u32, SnapshotError> {
        let v = read_u32_at(self.bytes, self.at).ok_or(SnapshotError::Truncated(section))?;
        self.at += 4;
        Ok(v)
    }

    fn string(&mut self, section: &'static str) -> Result<String, SnapshotError> {
        let len = self.u32(section)? as usize;
        let span = self
            .bytes
            .get(self.at..self.at.checked_add(len).ok_or(SnapshotError::Truncated(section))?)
            .ok_or(SnapshotError::Truncated(section))?;
        self.at += len;
        std::str::from_utf8(span)
            .map(str::to_owned)
            .map_err(|_| SnapshotError::BadUtf8(section))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut b = SnapshotBuilder::new();
        b.meta("detector", "MalConv")
            .meta("window", 16384)
            .tensor("conv.weight", &[1.5, -2.25, 0.0, f32::MIN_POSITIVE])
            .tensor("threshold", &[0.5])
            .tensor_u32("tree.left", &[0, 7, u32::MAX, 42]);
        b.finish()
    }

    #[test]
    fn round_trip_is_exact() {
        let snap = sample();
        let back = Snapshot::from_bytes(&snap.to_bytes()).expect("round trip decodes");
        assert_eq!(back.version(), SNAPSHOT_VERSION);
        assert_eq!(back.meta("detector"), Some("MalConv"));
        assert_eq!(back.meta_parsed::<usize>("window").expect("parses"), 16384);
        let w = back.tensor("conv.weight").expect("tensor present");
        for (a, b) in w.iter().zip(&[1.5f32, -2.25, 0.0, f32::MIN_POSITIVE]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.tensor_scalar("threshold").expect("scalar"), 0.5);
        // u32 bit patterns survive, including the NaN-patterned MAX.
        assert_eq!(back.tensor_u32("tree.left").expect("u32s"), vec![0, 7, u32::MAX, 42]);
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_magic_are_typed() {
        let bytes = sample().to_bytes();
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..8]),
            Err(SnapshotError::Truncated("header"))
        ));
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(matches!(Snapshot::from_bytes(&magic), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        // Version bump invalidates nothing else, so recompute the checksum
        // to isolate the version check.
        let body_hash = fnv1a64(&bytes[16..]);
        bytes[8..16].copy_from_slice(&body_hash.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(v)) if v == SNAPSHOT_VERSION + 1
        ));
    }

    #[test]
    fn missing_names_are_typed() {
        let snap = sample();
        assert_eq!(
            snap.tensor("nope"),
            Err(SnapshotError::MissingTensor("nope".to_owned()))
        );
        assert_eq!(
            snap.meta_parsed::<usize>("absent"),
            Err(SnapshotError::MissingMeta("absent".to_owned()))
        );
        assert!(matches!(
            snap.meta_parsed::<usize>("detector"),
            Err(SnapshotError::BadMeta { .. })
        ));
    }

    #[test]
    fn clones_share_one_payload() {
        let snap = sample();
        let other = snap.clone();
        assert!(Arc::ptr_eq(&snap.payload(), &other.payload()));
    }

    #[test]
    fn file_round_trip() {
        let snap = sample();
        let path = std::env::temp_dir().join(format!("mpass-snap-test-{}.bin", std::process::id()));
        snap.write_file(&path).expect("writes");
        let back = Snapshot::load_file(&path).expect("loads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.meta("detector"), Some("MalConv"));
        assert_eq!(back.tensor_u32("tree.left").expect("u32s"), vec![0, 7, u32::MAX, 42]);
    }
}

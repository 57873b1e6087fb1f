//! Snapshot wire format: a hand-rolled, versioned binary codec plus the
//! [`SnapshotRng`] capture trait.
//!
//! A snapshot must reproduce a run *bit-identically*, so the format is
//! deliberately boring: little-endian fixed-width integers, `f64` via
//! `to_bits`, explicit length prefixes, and a magic/version header. No
//! floating-point text round-trips, no map iteration order, no
//! platform-dependent widths (`usize` travels as `u64`). This module owns
//! the primitives and the error type; each layout is owned by the code
//! whose state it carries — the engine's in `engine/wire.rs`, the mapper
//! state blobs in `hcsim-core` (`Pam`, `AdaptiveController`), the service
//! checkpoint in `hcsim-service` — and all of them read and write through
//! [`ByteReader`] / [`ByteWriter`], the only byte decoder in the
//! workspace.
//!
//! **Versioning caveat**: the format is an engine-internal checkpoint, not
//! an archival interchange format. A snapshot is readable only by the same
//! `SNAPSHOT_VERSION` that wrote it; any change to engine state layout
//! bumps the version and old snapshots are rejected (never misread).

use hcsim_stats::Xoshiro256pp;

/// Magic bytes opening every snapshot.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"HCSN";

/// Current snapshot format version. Bumped on any layout change (v2:
/// departure announcements, carried migration progress, notice events).
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The buffer ended before the encoded structure did.
    Truncated,
    /// A decoded value is outside its legal range (corrupt or hand-edited
    /// snapshot).
    Corrupt(&'static str),
    /// The snapshot does not describe the system it is being restored
    /// into (machine count, queue capacity, or task-type count differ).
    SpecMismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not supported (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            SnapshotError::SpecMismatch(what) => {
                write!(f, "snapshot does not match the system spec: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// An RNG whose complete state can be captured into and restored from a
/// snapshot. The engine's generic entry points only require [`rand::Rng`];
/// the snapshot-capable session additionally requires this.
pub trait SnapshotRng: rand::Rng {
    /// Captures the full generator state.
    fn capture_state(&self) -> [u64; 4];
    /// Overwrites the generator with a previously captured state.
    fn reseat_state(&mut self, state: [u64; 4]);
}

impl SnapshotRng for Xoshiro256pp {
    fn capture_state(&self) -> [u64; 4] {
        self.state()
    }

    fn reseat_state(&mut self, state: [u64; 4]) {
        *self = Xoshiro256pp::from_state(state);
    }
}

impl<R: SnapshotRng + ?Sized> SnapshotRng for &mut R {
    fn capture_state(&self) -> [u64; 4] {
        (**self).capture_state()
    }

    fn reseat_state(&mut self, state: [u64; 4]) {
        (**self).reseat_state(state);
    }
}

/// Append-only encoder: the one writer every snapshot layout in the
/// workspace goes through (engine snapshot, mapper state blobs, service
/// checkpoint).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty, headerless stream with room for `capacity` bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity) }
    }

    /// A stream opened with the engine snapshot's magic/version header.
    #[must_use]
    pub fn with_header() -> Self {
        let mut w = Self::with_capacity(4096);
        w.magic(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w
    }

    /// The encoded stream.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Four raw format-identifying bytes.
    pub fn magic(&mut self, magic: [u8; 4]) {
        self.buf.extend_from_slice(&magic);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize`, widened to `u64`; also the length prefix of every
    /// sequence (read back with [`ByteReader::seq_len`]).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A presence flag, then the value if there is one.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based decoder over a [`ByteWriter`] stream. Every read is
/// bounds-checked and fails with a [`SnapshotError`]; nothing here panics
/// on any input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Opens a reader over a headerless stream.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Opens a reader, checking the engine snapshot's magic/version header.
    pub fn with_header(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut r = Self::new(buf);
        r.magic(SNAPSHOT_MAGIC)?;
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Consumes four bytes, failing with [`SnapshotError::BadMagic`]
    /// unless they are `magic`.
    pub fn magic(&mut self, magic: [u8; 4]) -> Result<(), SnapshotError> {
        if self.take(4)? != magic {
            return Err(SnapshotError::BadMagic);
        }
        Ok(())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A `usize` that travelled as `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("length overflows usize"))
    }

    /// An `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix for a sequence of elements each at least
    /// `min_elem_bytes` wide: rejects lengths that could not possibly fit
    /// in the remaining buffer, so corrupt lengths fail fast instead of
    /// attempting a giant allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// An optional `u64` behind its presence flag.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Corrupt("option flag")),
        }
    }

    /// A flag byte that must be 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool flag")),
        }
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// True when the whole buffer has been consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = ByteWriter::with_header();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(12345);
        w.opt_u64(None);
        w.opt_u64(Some(99));
        w.bytes(b"blob");
        w.f64(-0.0);
        let bytes = w.into_bytes();

        let mut r = ByteReader::with_header(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(99));
        assert_eq!(r.bytes().unwrap(), b"blob");
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.at_end());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            ByteReader::with_header(b"NOPE\x01\x00\x00\x00").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            ByteReader::with_header(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(999)
        );
    }

    #[test]
    fn truncation_detected_not_panicked() {
        let mut w = ByteWriter::with_header();
        w.u64(42);
        let bytes = w.into_bytes();
        // Chop the payload mid-integer.
        let mut r = ByteReader::with_header(&bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn absurd_length_prefix_fails_fast() {
        let mut w = ByteWriter::with_header();
        w.u64(u64::MAX); // a "length" no buffer can satisfy
        let bytes = w.into_bytes();
        let mut r = ByteReader::with_header(&bytes).unwrap();
        assert!(r.seq_len(8).is_err());
    }

    #[test]
    fn rng_capture_roundtrip() {
        let mut rng = Xoshiro256pp::new(5);
        let _ = rand::Rng::gen_range(&mut rng, 0..100u32);
        let state = rng.capture_state();
        let mut other = Xoshiro256pp::new(0);
        other.reseat_state(state);
        assert_eq!(rng.state(), other.state());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::Corrupt("x").to_string().contains('x'));
        assert!(SnapshotError::SpecMismatch("m".into()).to_string().contains("spec"));
    }
}

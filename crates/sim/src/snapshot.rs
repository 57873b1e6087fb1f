//! Snapshot wire format: a hand-rolled, versioned binary codec plus the
//! [`SnapshotRng`] capture trait.
//!
//! A snapshot must reproduce a run *bit-identically*, so the format is
//! deliberately boring: little-endian fixed-width integers, `f64` via
//! `to_bits`, explicit length prefixes, and a magic/version header. No
//! floating-point text round-trips, no map iteration order, no
//! platform-dependent widths (`usize` travels as `u64`).
//!
//! Every layout is declared once, through [`Wire`]: one `put` / `get` pair
//! per type, with [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) generating both directions from a
//! single field or variant list. [`ByteWriter`] / [`ByteReader`] are the
//! primitives underneath, and the only byte codec in the workspace. Each
//! layout is owned by the code whose state it carries — the engine's in
//! `engine/wire.rs`, the mapper state blobs in `hcsim-core` (`Pam`,
//! `AdaptiveController`), the service checkpoint in `hcsim-service`.
//!
//! **Versioning**: the format is an engine-internal checkpoint, not an
//! archival interchange format. One version, [`SNAPSHOT_VERSION`] in the
//! engine snapshot's header, covers every layout nested in it — the
//! engine's own and the mapper blobs (`Pam`, `AdaptiveController`), which
//! carry no version of their own. A snapshot is readable only by the
//! version that wrote it: any change to any of these layouts bumps it, and
//! older snapshots are rejected whole with
//! [`SnapshotError::UnsupportedVersion`], never half-restored.

use hcsim_model::{MachineId, TaskId, TaskTypeId};
use hcsim_stats::Xoshiro256pp;
use std::collections::VecDeque;

/// Magic bytes opening every snapshot.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"HCSN";

/// Current snapshot format version. Bumped on any layout change, nested
/// mapper blobs included (v2: departure announcements, carried migration
/// progress, notice events; v4: single-start tasks — a pending entry is
/// its task, an executing one has no earlier progress, the per-task
/// carried-progress table is gone, the PAM blob lost its own version
/// word and its preemption counter; v5: departure notices gone — no
/// announced departure on a machine, no notice event tag).
pub const SNAPSHOT_VERSION: u32 = 5;

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

    /// A length-prefixed byte string (the encoding of a `Vec<u8>`).
    pub fn bytes(&mut self, b: &[u8]) {
        b.len().put(self);
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
    /// Exclusive bounds on decoded [`MachineId`]s and [`TaskTypeId`]s
    /// (only the `u16` range until [`ByteReader::bound_ids`]).
    machines: usize,
    task_types: usize,
}

impl<'a> ByteReader<'a> {
    /// Opens a reader over a headerless stream.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, machines: usize::MAX, task_types: usize::MAX }
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

    /// Carries the system's shape from here on: every later machine id
    /// must be below `machines` and every task type id below `task_types`.
    pub fn bound_ids(&mut self, machines: usize, task_types: usize) {
        self.machines = machines;
        self.task_types = task_types;
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

    /// Rejects a count of `n` elements each at least `min_elem_bytes`
    /// wide (a type's [`Wire::MIN_BYTES`]) that could not possibly fit
    /// in the rest of the buffer, so corrupt counts fail fast instead of
    /// attempting a giant allocation.
    fn fits(&self, n: usize, min_elem_bytes: usize) -> Result<(), SnapshotError> {
        if n.saturating_mul(min_elem_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(())
    }

    /// A length-prefixed byte string, borrowed from the buffer.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = usize::get(self)?;
        self.take(n)
    }

    /// Succeeds only when the whole buffer has been consumed; `what`
    /// names the trailing bytes otherwise.
    pub fn end(&self, what: &'static str) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Corrupt(what));
        }
        Ok(())
    }

    /// A `u16` id that travelled as `u32`, below `bound` — the one range
    /// check every id type shares.
    fn id(&mut self, bound: usize, names: [&'static str; 2]) -> Result<u16, SnapshotError> {
        let id = u16::try_from(self.u32()?).map_err(|_| SnapshotError::Corrupt(names[0]))?;
        if usize::from(id) >= bound {
            return Err(SnapshotError::Corrupt(names[1]));
        }
        Ok(id)
    }
}

/// A type with one declared wire layout: `put` and `get` are the two
/// directions of the same field order.
pub trait Wire: Sized {
    /// Encoded length of the smallest value (`None` options, empty
    /// sequences, the shortest enum variant): the length guard every
    /// sequence of this type is checked against before it allocates.
    const MIN_BYTES: usize;

    /// Appends the encoding.
    fn put(&self, w: &mut ByteWriter);

    /// Decodes one value, failing (never panicking) on malformed input.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError>;

    /// Encodes `items` back to back with no length prefix — for sequences
    /// whose count the layout already carries (records, machines, …).
    fn put_all(items: &[Self], w: &mut ByteWriter) {
        for item in items {
            item.put(w);
        }
    }

    /// Decodes `n` values written by [`Wire::put_all`], rejecting counts
    /// that cannot fit in the rest of the buffer before allocating.
    fn get_n(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<Self>, SnapshotError> {
        r.fits(n, Self::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

impl Wire for u8 {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        w.u8(*self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.u8()
    }
    // Byte strings copy in one piece.
    fn put_all(items: &[Self], w: &mut ByteWriter) {
        w.buf.extend_from_slice(items);
    }
    fn get_n(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<Self>, SnapshotError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Wire for u32 {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        w.u32(*self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.u32()
    }
}

impl Wire for u64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        w.u64(*self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

/// Widened to `u64`; also every sequence's length prefix.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        w.u64(*self as u64);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        usize::try_from(r.u64()?).map_err(|_| SnapshotError::Corrupt("length overflows usize"))
    }
}

/// The exact bit pattern.
impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.to_bits());
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.u64().map(f64::from_bits)
    }
}

/// A flag byte that must be 0 or 1.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        w.u8(u8::from(*self));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool flag")),
        }
    }
}

/// A presence flag (0/1), then the value if there is one.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
            None => w.u8(0),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            _ => Err(SnapshotError::Corrupt("option flag")),
        }
    }
}

/// A `usize` length prefix, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        T::put_all(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let n = usize::get(r)?;
        T::get_n(r, n)
    }
}

/// Front to back, encoded exactly like a `Vec<T>`.
impl<T: Wire> Wire for VecDeque<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        let (front, back) = self.as_slices();
        T::put_all(front, w);
        T::put_all(back, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Vec::<T>::get(r).map(VecDeque::from)
    }
}

/// `N` elements, no prefix.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        T::put_all(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::get(r)?;
        }
        Ok(items)
    }
}

// Ids travel as u32 (wider than their u16 reprs) so the layouts survive a
// future repr widening without a format change.

impl Wire for TaskId {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        w.u32(self.0);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.u32().map(TaskId)
    }
}

/// Below the machine count the reader carries.
impl Wire for MachineId {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        w.u32(u32::from(self.0));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.id(r.machines, ["machine id overflow", "machine id out of range"]).map(MachineId)
    }
}

/// Below the task-type count the reader carries.
impl Wire for TaskTypeId {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut ByteWriter) {
        w.u32(u32::from(self.0));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.id(r.task_types, ["task type id overflow", "task type id out of range"]).map(TaskTypeId)
    }
}

/// Declares a struct's wire layout once: the fields in wire order, each
/// with its type. Generates [`Wire`] with `put` and `get` in that order
/// and `MIN_BYTES` as the sum of the fields'. Fields that never travel
/// follow `off_wire`, with the value `get` fills in. Wrapped around a
/// struct definition instead, it emits the struct and takes the layout
/// from its field order.
///
/// ```
/// use hcsim_sim::snapshot::{ByteReader, ByteWriter, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     start: u64,
///     len: u32,
///     cached: bool,
/// }
/// hcsim_sim::wire_struct!(Span { start: u64, len: u32 } off_wire { cached: false });
///
/// let mut w = ByteWriter::default();
/// Span { start: 7, len: 3, cached: true }.put(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), Span::MIN_BYTES);
/// let back = Span::get(&mut ByteReader::new(&bytes)).unwrap();
/// assert_eq!(back, Span { start: 7, len: 3, cached: false });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $ty:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty),* $(,)?
    }) => {
        $(#[$meta])* $vis struct $ty { $($(#[$fmeta])* $fvis $field: $fty),* }
        $crate::wire_struct!($ty { $($field: $fty),* });
    };
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }
        $(off_wire { $($rest:ident: $val:expr),* $(,)? })?) => {
        impl $crate::snapshot::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::snapshot::Wire>::MIN_BYTES)*;
            fn put(&self, w: &mut $crate::snapshot::ByteWriter) {
                $($crate::snapshot::Wire::put(&self.$field, w);)*
            }
            fn get(
                r: &mut $crate::snapshot::ByteReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self {
                    $($field: <$fty as $crate::snapshot::Wire>::get(r)?,)*
                    $($($rest: $val,)*)?
                })
            }
        }
    };
}

/// Declares an enum's wire layout once: a `u8` tag per variant, then the
/// variant's fields in order (named, for tuple variants, only so `put`
/// can bind them). An unknown tag fails as `Corrupt($what)`. `MIN_BYTES`
/// is the tag plus the smallest variant.
///
/// ```
/// use hcsim_sim::snapshot::{ByteReader, ByteWriter, SnapshotError, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Line(u64),
///     Box { w: u32, h: u32 },
/// }
/// hcsim_sim::wire_enum!(Shape, "shape tag" {
///     0 => Dot,
///     1 => Line(len: u64),
///     2 => Box { w: u32, h: u32 },
/// });
///
/// let mut w = ByteWriter::default();
/// Shape::Box { w: 2, h: 5 }.put(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Shape::get(&mut ByteReader::new(&bytes)), Ok(Shape::Box { w: 2, h: 5 }));
/// assert_eq!(Shape::MIN_BYTES, 1);
/// assert_eq!(Shape::get(&mut ByteReader::new(&[9])), Err(SnapshotError::Corrupt("shape tag")));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident
            $(($($tf:ident: $tty:ty),* $(,)?))?
            $({$($sf:ident: $sty:ty),* $(,)?})?),* $(,)?
    }) => {
        impl $crate::snapshot::Wire for $ty {
            const MIN_BYTES: usize = {
                let sizes = [$(0 $($(+ <$tty as $crate::snapshot::Wire>::MIN_BYTES)*)?
                    $($(+ <$sty as $crate::snapshot::Wire>::MIN_BYTES)*)?),*];
                let (mut min, mut i) = (usize::MAX, 0);
                while i < sizes.len() {
                    if sizes[i] < min {
                        min = sizes[i];
                    }
                    i += 1;
                }
                1 + min
            };
            fn put(&self, w: &mut $crate::snapshot::ByteWriter) {
                match self {
                    $(Self::$variant $(($($tf),*))? $({$($sf),*})? => {
                        w.u8($tag);
                        $($($crate::snapshot::Wire::put($tf, w);)*)?
                        $($($crate::snapshot::Wire::put($sf, w);)*)?
                    })*
                }
            }
            fn get(
                r: &mut $crate::snapshot::ByteReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snapshot::SnapshotError> {
                Ok(match r.u8()? {
                    $($tag => Self::$variant
                        $(($(<$tty as $crate::snapshot::Wire>::get(r)?),*))?
                        $({$($sf: <$sty as $crate::snapshot::Wire>::get(r)?),*})?,)*
                    _ => return Err($crate::snapshot::SnapshotError::Corrupt($what)),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = ByteWriter::with_header();
        7u8.put(&mut w);
        0xDEAD_BEEFu32.put(&mut w);
        (u64::MAX - 3).put(&mut w);
        12345usize.put(&mut w);
        None::<u64>.put(&mut w);
        Some(99u64).put(&mut w);
        w.bytes(b"blob");
        (-0.0f64).put(&mut w);
        let bytes = w.into_bytes();

        let mut r = ByteReader::with_header(&bytes).unwrap();
        assert_eq!(u8::get(&mut r).unwrap(), 7);
        assert_eq!(u32::get(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::get(&mut r).unwrap(), u64::MAX - 3);
        assert_eq!(usize::get(&mut r).unwrap(), 12345);
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), None);
        assert_eq!(Option::<u64>::get(&mut r).unwrap(), Some(99));
        assert_eq!(r.bytes().unwrap(), b"blob");
        assert_eq!(f64::get(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.end("trailing"), Ok(()));
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
        // The version before the current one included: its streams are
        // rejected whole, never half-restored.
        for version in [SNAPSHOT_VERSION - 1, 999] {
            let mut bytes = SNAPSHOT_MAGIC.to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            assert_eq!(
                ByteReader::with_header(&bytes).unwrap_err(),
                SnapshotError::UnsupportedVersion(version)
            );
        }
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
        assert_eq!(Vec::<u64>::get(&mut r), Err(SnapshotError::Truncated));
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

//! Crash-consistent binary snapshots of live simulation state.
//!
//! A *snapshot* captures the complete deterministic state of a running
//! simulation at an event boundary so that a killed, crashed, or
//! timed-out cell can resume mid-run instead of restarting from cycle 0
//! (DESIGN.md §14). The format is a versioned, std-only binary layout —
//! [`SnapshotWrite`]/[`SnapshotRead`] implementations, no serde — with
//! per-section fnv1a64 checksums, so a torn or bit-flipped file is
//! *refused with a typed error*, never silently accepted.
//!
//! Plain field lists and tagged enums get both impls from one
//! [`snapshot_codec!`](crate::snapshot_codec) invocation. Types whose
//! decode validates the bytes against the configuration (cache and
//! directory geometry, topology ranges, link bandwidth) keep
//! hand-written impls, as do the primitive and container impls here.
//!
//! Layout of an encoded snapshot:
//!
//! ```text
//! magic    8 B   "HMGSNAP1"
//! version  4 B   format version (little-endian u32)
//! identity 8 B   fnv1a64 of the producing cell's identity string
//! cycle    8 B   simulated cycle at which the state was captured
//! count    4 B   number of sections
//! per section:
//!   name_len u16, name bytes, payload_len u64, payload, fnv1a64(payload)
//! ```
//!
//! All integers are little-endian. Floating-point state round-trips
//! through `to_bits`/`from_bits` so restored timing is bit-identical.
//!
//! [`SnapshotStore`] double-buffers the last two snapshots
//! (`<base>.a` / `<base>.b`, written with atomic tmp+rename), giving the
//! resume path its fallback ladder: newest valid → older valid → from
//! scratch.

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::addr::{Addr, BlockAddr, LineAddr, PageId};
use crate::collect::{FlatKey, FlatMap, FlatSet};
use crate::time::Cycle;

/// Leading bytes of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"HMGSNAP1";

/// Current snapshot format version. Bumped on any layout change; a
/// mismatch is refused with [`SnapError::Version`] rather than decoded
/// on a guess. v2: `RunMetrics` gained `deferred_reqs` (phase-priority
/// directory arbitration).
pub const SNAP_VERSION: u32 = 2;

/// FNV-1a 64-bit hash, the per-section integrity checksum.
///
/// Matches the checksum used by the sweep checkpoint rows so the two
/// on-disk formats share one well-understood primitive.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a snapshot could not be loaded or decoded.
///
/// Every variant is a *refusal*: the resume path treats any of these as
/// "this file is unusable, fall back" and never panics on malformed
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended inside a value.
    UnexpectedEof {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The file does not begin with [`SNAP_MAGIC`].
    BadMagic,
    /// The file's format version is not [`SNAP_VERSION`].
    Version {
        /// The version found in the header.
        found: u32,
    },
    /// A section's payload does not match its stored checksum.
    Checksum {
        /// Name of the corrupt section.
        section: String,
    },
    /// The snapshot was produced by a different cell configuration
    /// (different workload/protocol/tweak/faults/seed) and must not be
    /// restored into this one.
    Identity {
        /// Identity hash the restoring cell expects.
        expected: u64,
        /// Identity hash stored in the snapshot.
        found: u64,
    },
    /// A required section is absent.
    MissingSection {
        /// Name of the missing section.
        name: String,
    },
    /// The bytes decoded, but the decoded value is impossible
    /// (out-of-range discriminant, length overflow, ...).
    Malformed(String),
    /// An underlying filesystem operation failed.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { context } => {
                write!(f, "snapshot truncated while decoding {context}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::Version { found } => write!(
                f,
                "snapshot format version {found} is not the supported {SNAP_VERSION}"
            ),
            SnapError::Checksum { section } => {
                write!(f, "snapshot section '{section}' failed its checksum")
            }
            SnapError::Identity { expected, found } => write!(
                f,
                "snapshot identity {found:#018x} does not match this cell ({expected:#018x})"
            ),
            SnapError::MissingSection { name } => {
                write!(f, "snapshot is missing required section '{name}'")
            }
            SnapError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
            SnapError::Io(what) => write!(f, "snapshot i/o error: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e.to_string())
    }
}

/// Little-endian byte sink for snapshot encoding.
///
/// # Example
///
/// ```
/// use hmg_sim::snap::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
///
/// let mut w = SnapWriter::new();
/// 7u64.write_snap(&mut w);
/// vec![1u32, 2, 3].write_snap(&mut w);
/// let bytes = w.into_bytes();
/// let mut r = SnapReader::new(&bytes);
/// assert_eq!(u64::read_snap(&mut r).unwrap(), 7);
/// assert_eq!(Vec::<u32>::read_snap(&mut r).unwrap(), vec![1, 2, 3]);
/// assert!(r.is_exhausted());
/// ```
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over an encoded snapshot section; every read is
/// bounds-checked and returns a typed error instead of panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapError::UnexpectedEof { context })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its exact bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n, "bytes")
    }

    /// Reads a `u64` length prefix, refusing lengths that exceed the
    /// remaining bytes divided by `min_elem_bytes` (an impossible
    /// length, i.e. a corrupt prefix).
    #[inline]
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_u64()?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > cap.max(1).saturating_mul(2) {
            return Err(SnapError::Malformed(format!(
                "length prefix {n} exceeds remaining payload"
            )));
        }
        usize::try_from(n).map_err(|_| SnapError::Malformed(format!("length prefix {n} overflows")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte was consumed — decoders check this to refuse
    /// payloads with trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// Types that can serialize their complete state into a snapshot.
pub trait SnapshotWrite {
    /// Appends this value's encoded state to `w`.
    fn write_snap(&self, w: &mut SnapWriter);
}

/// Types that can reconstruct themselves from snapshot bytes.
pub trait SnapshotRead: Sized {
    /// Decodes one value, consuming exactly the bytes
    /// [`SnapshotWrite::write_snap`] produced for it.
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_int {
    ($($t:ty => $put:ident / $get:ident),*) => {$(
        impl SnapshotWrite for $t {
            #[inline]
            fn write_snap(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
        }
        impl SnapshotRead for $t {
            #[inline]
            fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    )*};
}
snap_int!(u8 => put_u8/get_u8, u16 => put_u16/get_u16, u32 => put_u32/get_u32, u64 => put_u64/get_u64, f64 => put_f64/get_f64);

impl SnapshotWrite for usize {
    #[inline]
    fn write_snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
}
impl SnapshotRead for usize {
    #[inline]
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed(format!("usize {v} overflows")))
    }
}

impl SnapshotWrite for bool {
    #[inline]
    fn write_snap(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
}
impl SnapshotRead for bool {
    #[inline]
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Malformed(format!("bool byte {b}"))),
        }
    }
}

/// Implements [`SnapshotWrite`] and [`SnapshotRead`] for a type from
/// one field list, so the two directions cannot drift apart.
///
/// Three shapes are accepted:
///
/// - a named-field struct, `T { a, b, c }`: fields are encoded in the
///   listed order, and decoding builds the struct literal (so the
///   compiler refuses a list that misses a field);
/// - a tuple newtype, `T(Inner)`: the inner value alone;
/// - a tagged enum, `enum T { 0 => Unit, 1 => Tuple(x), 2 => Named { a, b } }`:
///   a `u8` tag, then the variant's fields in order. An unknown tag is
///   refused as [`SnapError::Malformed`].
///
/// Types whose decode must validate against the configuration keep
/// hand-written impls instead.
///
/// # Example
///
/// ```
/// use hmg_sim::snap::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
///
/// #[derive(Debug, PartialEq)]
/// struct Port { busy: u64, open: bool }
/// hmg_sim::snapshot_codec!(Port { busy, open });
///
/// let mut w = SnapWriter::new();
/// Port { busy: 7, open: true }.write_snap(&mut w);
/// let bytes = w.into_bytes();
/// let back = Port::read_snap(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(back, Port { busy: 7, open: true });
/// ```
#[macro_export]
macro_rules! snapshot_codec {
    (enum $t:ident {
        $($tag:literal => $v:ident $(($($tf:ident),*))? $({$($nf:ident),*})?),* $(,)?
    }) => {
        impl $crate::snap::SnapshotWrite for $t {
            fn write_snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $($t::$v $(($($tf),*))? $({$($nf),*})? => {
                        w.put_u8($tag);
                        $($($crate::snap::SnapshotWrite::write_snap($tf, w);)*)?
                        $($($crate::snap::SnapshotWrite::write_snap($nf, w);)*)?
                    })*
                }
            }
        }
        impl $crate::snap::SnapshotRead for $t {
            fn read_snap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                match r.get_u8()? {
                    $($tag => {
                        $($(let $tf = $crate::snap::SnapshotRead::read_snap(r)?;)*)?
                        $($(let $nf = $crate::snap::SnapshotRead::read_snap(r)?;)*)?
                        ::std::result::Result::Ok($t::$v $(($($tf),*))? $({$($nf),*})?)
                    })*
                    b => ::std::result::Result::Err($crate::snap::SnapError::Malformed(
                        ::std::format!("{} tag {b}", ::std::stringify!($t)),
                    )),
                }
            }
        }
    };
    ($t:ident($inner:ty)) => {
        impl $crate::snap::SnapshotWrite for $t {
            #[inline]
            fn write_snap(&self, w: &mut $crate::snap::SnapWriter) {
                $crate::snap::SnapshotWrite::write_snap(&self.0, w);
            }
        }
        impl $crate::snap::SnapshotRead for $t {
            #[inline]
            fn read_snap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                let inner = <$inner as $crate::snap::SnapshotRead>::read_snap(r)?;
                ::std::result::Result::Ok($t(inner))
            }
        }
    };
    ($t:ident { $($f:ident),* $(,)? }) => {
        impl $crate::snap::SnapshotWrite for $t {
            fn write_snap(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::SnapshotWrite::write_snap(&self.$f, w);)*
            }
        }
        impl $crate::snap::SnapshotRead for $t {
            fn read_snap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                ::std::result::Result::Ok($t {
                    $($f: $crate::snap::SnapshotRead::read_snap(r)?),*
                })
            }
        }
    };
}

snapshot_codec!(Cycle(u64));
snapshot_codec!(Addr(u64));
snapshot_codec!(LineAddr(u64));
snapshot_codec!(BlockAddr(u64));
snapshot_codec!(PageId(u64));

impl<T: SnapshotWrite> SnapshotWrite for Option<T> {
    fn write_snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.write_snap(w);
            }
        }
    }
}
impl<T: SnapshotRead> SnapshotRead for Option<T> {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::read_snap(r)?)),
            b => Err(SnapError::Malformed(format!("Option tag {b}"))),
        }
    }
}

impl<T: SnapshotWrite> SnapshotWrite for Vec<T> {
    fn write_snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.write_snap(w);
        }
    }
}
impl<T: SnapshotRead> SnapshotRead for Vec<T> {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let mut v = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            v.push(T::read_snap(r)?);
        }
        Ok(v)
    }
}

impl<T: SnapshotWrite> SnapshotWrite for VecDeque<T> {
    fn write_snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.write_snap(w);
        }
    }
}
impl<T: SnapshotRead> SnapshotRead for VecDeque<T> {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::read_snap(r)?.into())
    }
}

impl SnapshotWrite for String {
    fn write_snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
}
impl SnapshotRead for String {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let bytes = r.get_bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Malformed("non-utf8 string".into()))
    }
}

impl<A: SnapshotWrite, B: SnapshotWrite> SnapshotWrite for (A, B) {
    fn write_snap(&self, w: &mut SnapWriter) {
        self.0.write_snap(w);
        self.1.write_snap(w);
    }
}
impl<A: SnapshotRead, B: SnapshotRead> SnapshotRead for (A, B) {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::read_snap(r)?, B::read_snap(r)?))
    }
}

impl<A: SnapshotWrite, B: SnapshotWrite, C: SnapshotWrite> SnapshotWrite for (A, B, C) {
    fn write_snap(&self, w: &mut SnapWriter) {
        self.0.write_snap(w);
        self.1.write_snap(w);
        self.2.write_snap(w);
    }
}
impl<A: SnapshotRead, B: SnapshotRead, C: SnapshotRead> SnapshotRead for (A, B, C) {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::read_snap(r)?, B::read_snap(r)?, C::read_snap(r)?))
    }
}

impl<T: SnapshotWrite, const N: usize> SnapshotWrite for [T; N] {
    fn write_snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.write_snap(w);
        }
    }
}
impl<T: SnapshotRead, const N: usize> SnapshotRead for [T; N] {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::read_snap(r)?);
        }
        v.try_into()
            .map_err(|_| SnapError::Malformed("array length".into()))
    }
}

// FlatMap/FlatSet round-trip through their dense entry order, which is
// the only observable order they expose: re-inserting entries in dense
// order reproduces the exact iteration order (and therefore identical
// downstream behavior, including `remove`'s swap-removal positions).
impl<K: FlatKey + SnapshotWrite, V: SnapshotWrite> SnapshotWrite for FlatMap<K, V> {
    fn write_snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self.iter() {
            k.write_snap(w);
            v.write_snap(w);
        }
    }
}
impl<K: FlatKey + SnapshotRead, V: SnapshotRead> SnapshotRead for FlatMap<K, V> {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let mut m = FlatMap::new();
        for _ in 0..n {
            let k = K::read_snap(r)?;
            let v = V::read_snap(r)?;
            if m.insert(k, v).is_some() {
                return Err(SnapError::Malformed("duplicate FlatMap key".into()));
            }
        }
        Ok(m)
    }
}

impl<K: FlatKey + SnapshotWrite> SnapshotWrite for FlatSet<K> {
    fn write_snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for k in self.iter() {
            k.write_snap(w);
        }
    }
}
impl<K: FlatKey + SnapshotRead> SnapshotRead for FlatSet<K> {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len(1)?;
        let mut s = FlatSet::new();
        for _ in 0..n {
            if !s.insert(K::read_snap(r)?) {
                return Err(SnapError::Malformed("duplicate FlatSet key".into()));
            }
        }
        Ok(s)
    }
}

/// One decoded snapshot: identity + capture cycle + named sections.
///
/// Producers fill sections with [`Snapshot::add_section`]; consumers
/// pull them back out with [`Snapshot::section`], which hands back a
/// checksum-verified [`SnapReader`].
#[derive(Debug)]
pub struct Snapshot {
    /// Identity hash of the producing cell (see [`SnapError::Identity`]).
    pub identity: u64,
    /// Simulated cycle at which the state was captured.
    pub cycle: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot for `identity` captured at `cycle`.
    pub fn new(identity: u64, cycle: u64) -> Self {
        Snapshot {
            identity,
            cycle,
            sections: Vec::new(),
        }
    }

    /// Appends a named section holding `w`'s bytes.
    pub fn add_section(&mut self, name: &str, w: SnapWriter) {
        self.sections.push((name.to_string(), w.into_bytes()));
    }

    /// A reader over the named section's payload.
    pub fn section(&self, name: &str) -> Result<SnapReader<'_>, SnapError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bytes)| SnapReader::new(bytes))
            .ok_or_else(|| SnapError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Encodes the snapshot into its on-disk byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            40 + self
                .sections
                .iter()
                .map(|(n, b)| n.len() + b.len() + 18)
                .sum::<usize>(),
        );
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&self.identity.to_le_bytes());
        out.extend_from_slice(&self.cycle.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&section_checksum(name.as_bytes(), payload).to_le_bytes());
        }
        out
    }

    /// Decodes and fully validates an encoded snapshot: magic, version,
    /// every section checksum, and (when given) the expected identity.
    pub fn decode(bytes: &[u8], expected_identity: Option<u64>) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.get_bytes(8).map_err(|_| SnapError::BadMagic)? != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.get_u32().map_err(|_| SnapError::UnexpectedEof {
            context: "header version",
        })?;
        if version != SNAP_VERSION {
            return Err(SnapError::Version { found: version });
        }
        let identity = r.get_u64()?;
        if let Some(expected) = expected_identity {
            if identity != expected {
                return Err(SnapError::Identity {
                    expected,
                    found: identity,
                });
            }
        }
        let cycle = r.get_u64()?;
        let count = r.get_u32()?;
        let mut sections = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            let name_len = r.get_u16()? as usize;
            let name = String::from_utf8(r.get_bytes(name_len)?.to_vec())
                .map_err(|_| SnapError::Malformed("non-utf8 section name".into()))?;
            let payload_len = r.get_u64()?;
            let payload_len = usize::try_from(payload_len)
                .ok()
                .filter(|&n| n <= r.remaining())
                .ok_or(SnapError::UnexpectedEof {
                    context: "section payload",
                })?;
            let payload = r.get_bytes(payload_len)?.to_vec();
            let stored = r.get_u64()?;
            if section_checksum(name.as_bytes(), &payload) != stored {
                return Err(SnapError::Checksum { section: name });
            }
            sections.push((name, payload));
        }
        if !r.is_exhausted() {
            return Err(SnapError::Malformed(format!(
                "{} trailing bytes after final section",
                r.remaining()
            )));
        }
        Ok(Snapshot {
            identity,
            cycle,
            sections,
        })
    }

    /// Writes the snapshot to `path` atomically: the bytes land in
    /// `<path>.tmp` and are renamed into place, so a reader (or a kill
    /// at any point) sees either the old file or the new one — never a
    /// torn mix. The data is deliberately *not* fsynced: preemption
    /// (SIGKILL, OOM-kill, timeout-kill) leaves the page cache intact,
    /// and against power loss a half-written slot is caught by the
    /// per-section checksums and the double-buffered fallback ladder —
    /// so the fsync would buy nothing but a large per-capture stall on
    /// slow filesystems.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapError> {
        use std::io::Write;
        let tmp = tmp_path(path);
        // Stream the encoded layout section by section instead of going
        // through `encode()`: snapshots run to many MB, and skipping the
        // single contiguous output buffer halves the capture's transient
        // memory footprint.
        let mut f = std::io::BufWriter::new(fs::File::create(&tmp)?);
        f.write_all(&SNAP_MAGIC)?;
        f.write_all(&SNAP_VERSION.to_le_bytes())?;
        f.write_all(&self.identity.to_le_bytes())?;
        f.write_all(&self.cycle.to_le_bytes())?;
        f.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        for (name, payload) in &self.sections {
            f.write_all(&(name.len() as u16).to_le_bytes())?;
            f.write_all(name.as_bytes())?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(payload)?;
            f.write_all(&section_checksum(name.as_bytes(), payload).to_le_bytes())?;
        }
        f.into_inner().map_err(|e| SnapError::Io(e.to_string()))?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and fully validates a snapshot file.
    pub fn load(path: &Path, expected_identity: Option<u64>) -> Result<Self, SnapError> {
        let bytes = fs::read(path)?;
        Snapshot::decode(&bytes, expected_identity)
    }

    /// Reads just the header of `path`: `(identity, cycle)`. Used to
    /// pick the older double-buffer slot without decoding payloads; any
    /// failure reads as "no usable header". Only the fixed-size header
    /// is read from disk — snapshots run to many MB and `save` probes
    /// both slots on every capture, so a whole-file read here would
    /// dominate the capture cost.
    pub fn probe(path: &Path) -> Option<(u64, u64)> {
        use std::io::Read;
        let mut bytes = [0u8; 28];
        fs::File::open(path).ok()?.read_exact(&mut bytes).ok()?;
        let mut r = SnapReader::new(&bytes);
        if r.get_bytes(8).ok()? != SNAP_MAGIC || r.get_u32().ok()? != SNAP_VERSION {
            return None;
        }
        let identity = r.get_u64().ok()?;
        let cycle = r.get_u64().ok()?;
        Some((identity, cycle))
    }
}

/// Per-section checksum covering both the section name and its
/// payload, so a flipped byte anywhere in a section is refused.
/// fnv1a64, fed the name bytes then the payload bytes; the two tight
/// slice loops (rather than one chained iterator) matter because the
/// payload runs to many MB per capture.
fn section_checksum(name: &[u8], payload: &[u8]) -> u64 {
    fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    fnv1a64(fnv1a64(0xcbf2_9ce4_8422_2325, name), payload)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Last-two double-buffered snapshot storage: `<base>.a` and
/// `<base>.b`, each written atomically, with the *older* slot always
/// the one overwritten. A crash during a write therefore never damages
/// the newest complete snapshot, and the loader's fallback ladder is
/// newest valid → older valid → none.
///
/// # Example
///
/// ```no_run
/// use hmg_sim::snap::{Snapshot, SnapshotStore};
/// use std::path::PathBuf;
///
/// let store = SnapshotStore::new(PathBuf::from("/tmp/cell.snap"));
/// store.save(&Snapshot::new(0xabcd, 1000)).unwrap();
/// store.save(&Snapshot::new(0xabcd, 2000)).unwrap();
/// let (best, rejected) = store.load_latest(0xabcd);
/// assert_eq!(best.unwrap().0.cycle, 2000);
/// assert!(rejected.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    base: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `base` (slot files are `<base>.a`/`<base>.b`).
    pub fn new(base: impl Into<PathBuf>) -> Self {
        SnapshotStore { base: base.into() }
    }

    /// The two slot paths, in fixed order.
    pub fn slots(&self) -> [PathBuf; 2] {
        let slot = |suffix: &str| {
            let mut os = self.base.as_os_str().to_os_string();
            os.push(suffix);
            PathBuf::from(os)
        };
        [slot(".a"), slot(".b")]
    }

    /// Saves `snap` into the slot whose current contents are oldest
    /// (missing or unreadable slots count as oldest of all). Returns
    /// the path written.
    pub fn save(&self, snap: &Snapshot) -> Result<PathBuf, SnapError> {
        if let Some(dir) = self.base.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let slots = self.slots();
        // Prefer a slot with no usable header; otherwise the stale one.
        #[expect(
            clippy::expect_used,
            reason = "min over a fixed two-element array is always Some"
        )]
        let target = slots
            .iter()
            .min_by_key(|p| match Snapshot::probe(p) {
                None => (0u8, 0u64),
                Some((_, cycle)) => (1, cycle),
            })
            .expect("two slots")
            .clone();
        snap.write_atomic(&target)?;
        Ok(target)
    }

    /// Loads the newest fully valid snapshot matching
    /// `expected_identity`. Returns it (with its path) plus the typed
    /// reasons every other slot was rejected — the caller logs those to
    /// make the fallback ladder visible.
    #[allow(clippy::type_complexity)]
    pub fn load_latest(
        &self,
        expected_identity: u64,
    ) -> (Option<(Snapshot, PathBuf)>, Vec<(PathBuf, SnapError)>) {
        let mut best: Option<(Snapshot, PathBuf)> = None;
        let mut rejected = Vec::new();
        for path in self.slots() {
            if !path.exists() {
                continue;
            }
            match Snapshot::load(&path, Some(expected_identity)) {
                Ok(snap) => {
                    let newer = best
                        .as_ref()
                        .map(|(b, _)| snap.cycle > b.cycle)
                        .unwrap_or(true);
                    if newer {
                        if let Some(old) = best.replace((snap, path)) {
                            // The older-but-valid snapshot is not an
                            // error; only report genuinely bad slots.
                            drop(old);
                        }
                    }
                }
                Err(e) => rejected.push((path, e)),
            }
        }
        (best, rejected)
    }

    /// Removes both slots (fresh-start cleanup between unrelated runs).
    pub fn clear(&self) {
        for path in self.slots() {
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hmg-snap-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        0xabu8.write_snap(&mut w);
        0x1234u16.write_snap(&mut w);
        0xdead_beefu32.write_snap(&mut w);
        u64::MAX.write_snap(&mut w);
        true.write_snap(&mut w);
        (-0.0f64).write_snap(&mut w);
        Cycle(77).write_snap(&mut w);
        Some(5u64).write_snap(&mut w);
        Option::<u64>::None.write_snap(&mut w);
        "héllo".to_string().write_snap(&mut w);
        (1u32, 2u64).write_snap(&mut w);
        [9u64, 8, 7].write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u8::read_snap(&mut r).unwrap(), 0xab);
        assert_eq!(u16::read_snap(&mut r).unwrap(), 0x1234);
        assert_eq!(u32::read_snap(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(u64::read_snap(&mut r).unwrap(), u64::MAX);
        assert!(bool::read_snap(&mut r).unwrap());
        assert_eq!(
            f64::read_snap(&mut r).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(Cycle::read_snap(&mut r).unwrap(), Cycle(77));
        assert_eq!(Option::<u64>::read_snap(&mut r).unwrap(), Some(5));
        assert_eq!(Option::<u64>::read_snap(&mut r).unwrap(), None);
        assert_eq!(String::read_snap(&mut r).unwrap(), "héllo");
        assert_eq!(<(u32, u64)>::read_snap(&mut r).unwrap(), (1, 2));
        assert_eq!(<[u64; 3]>::read_snap(&mut r).unwrap(), [9, 8, 7]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn flat_collections_preserve_dense_order() {
        let mut m: FlatMap<u64, u32> = FlatMap::new();
        for i in 0..100u64 {
            m.insert(i * 3, i as u32);
        }
        for i in (0..100u64).step_by(4) {
            m.remove(&(i * 3)); // perturb dense order via swap-removal
        }
        let mut w = SnapWriter::new();
        m.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let m2 = FlatMap::<u64, u32>::read_snap(&mut r).unwrap();
        let a: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = m2.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b, "iteration order must survive the round trip");

        let mut s: FlatSet<u64> = FlatSet::new();
        s.insert(5);
        s.insert(1);
        s.insert(9);
        s.remove(&5);
        let mut w = SnapWriter::new();
        s.write_snap(&mut w);
        let bytes = w.into_bytes();
        let s2 = FlatSet::<u64>::read_snap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            s.iter().copied().collect::<Vec<_>>(),
            s2.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = SnapWriter::new();
        12345u64.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(matches!(
            u64::read_snap(&mut r),
            Err(SnapError::UnexpectedEof { .. })
        ));
        // A corrupt length prefix is refused, not allocated.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            Vec::<u64>::read_snap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
    }

    #[derive(Debug, PartialEq)]
    struct Id(u16);
    crate::snapshot_codec!(Id(u16));

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Tuple(u32, Id),
        Named { x: u64, flag: bool },
    }
    crate::snapshot_codec!(enum Shape {
        0 => Unit,
        1 => Tuple(n, id),
        2 => Named { x, flag },
    });

    #[derive(Debug, PartialEq)]
    struct Wrap(Shape);
    crate::snapshot_codec!(Wrap(Shape));

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        shape: Shape,
    }
    crate::snapshot_codec!(Pair { a, shape });

    /// Round-trips `v`, then checks that every strict prefix of its
    /// encoding is refused as truncated and that an unknown `Shape`
    /// tag at byte `tag_at` is refused as malformed.
    fn check_codec<T: SnapshotWrite + SnapshotRead + PartialEq + fmt::Debug>(v: T, tag_at: usize) {
        let mut w = SnapWriter::new();
        v.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::read_snap(&mut r).unwrap(), v);
        assert!(r.is_exhausted(), "{v:?}: decode consumes every byte");
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    T::read_snap(&mut SnapReader::new(&bytes[..cut])),
                    Err(SnapError::UnexpectedEof { .. })
                ),
                "{v:?}: cut at {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[tag_at] = 0xee;
        assert_eq!(
            T::read_snap(&mut SnapReader::new(&bad)).unwrap_err(),
            SnapError::Malformed("Shape tag 238".into()),
            "{v:?}"
        );
    }

    #[test]
    fn snapshot_codec_round_trips_and_refuses_bad_input() {
        check_codec(Shape::Unit, 0);
        check_codec(Shape::Tuple(0xdead_beef, Id(7)), 0);
        check_codec(Shape::Named { x: 9, flag: true }, 0);
        check_codec(Wrap(Shape::Tuple(1, Id(2))), 0);
        check_codec(
            Pair {
                a: 5,
                shape: Shape::Named { x: 3, flag: false },
            },
            8,
        );
        // Fields are encoded in list order with the primitive layouts.
        let mut w = SnapWriter::new();
        Shape::Tuple(0x0102_0304, Id(0x0506)).write_snap(&mut w);
        assert_eq!(w.into_bytes(), [1, 4, 3, 2, 1, 6, 5]);
    }

    fn sample_snapshot(identity: u64, cycle: u64) -> Snapshot {
        let mut snap = Snapshot::new(identity, cycle);
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].write_snap(&mut w);
        snap.add_section("numbers", w);
        let mut w = SnapWriter::new();
        "state".to_string().write_snap(&mut w);
        snap.add_section("label", w);
        snap
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample_snapshot(0x1122, 9876);
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes, Some(0x1122)).unwrap();
        assert_eq!(back.identity, 0x1122);
        assert_eq!(back.cycle, 9876);
        let mut r = back.section("numbers").unwrap();
        assert_eq!(Vec::<u64>::read_snap(&mut r).unwrap(), vec![1, 2, 3]);
        let mut r = back.section("label").unwrap();
        assert_eq!(String::read_snap(&mut r).unwrap(), "state");
        assert!(matches!(
            back.section("missing"),
            Err(SnapError::MissingSection { .. })
        ));
    }

    #[test]
    fn decode_refuses_bad_magic_version_identity_and_truncation() {
        let snap = sample_snapshot(7, 100);
        let good = snap.encode();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Snapshot::decode(&bad, None),
            Err(SnapError::BadMagic)
        ));

        let mut bad = good.clone();
        bad[8] = 99; // version field
        assert!(matches!(
            Snapshot::decode(&bad, None),
            Err(SnapError::Version { found: _ })
        ));

        assert!(matches!(
            Snapshot::decode(&good, Some(8)),
            Err(SnapError::Identity {
                expected: 8,
                found: 7
            })
        ));

        for cut in [3, 11, 27, good.len() - 1] {
            let e = Snapshot::decode(&good[..cut], None).unwrap_err();
            assert!(
                matches!(
                    e,
                    SnapError::UnexpectedEof { .. }
                        | SnapError::BadMagic
                        | SnapError::Checksum { .. }
                ),
                "cut at {cut}: {e}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_refused() {
        let snap = sample_snapshot(7, 100);
        let good = snap.encode();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            if bad == good {
                continue;
            }
            // Either the decode is refused, or (for a flip inside the
            // identity/cycle header fields) the identity check or the
            // caller's cycle sanity rejects it: here we just require
            // no panic and detection of every payload/checksum flip.
            if let Ok(ok) = Snapshot::decode(&bad, Some(7)) {
                // Only the cycle field (bytes 20..28) is not covered
                // by a checksum; its integrity is enforced by the
                // engine's restore-time cycle validation.
                assert!((20..28).contains(&i), "undetected flip at byte {i}");
                assert_ne!(ok.cycle, snap.cycle);
            }
        }
    }

    #[test]
    fn store_double_buffers_and_survives_corruption() {
        let dir = tmpdir("store");
        let store = SnapshotStore::new(dir.join("cell.snap"));
        assert!(store.load_latest(1).0.is_none());

        store.save(&sample_snapshot(1, 100)).unwrap();
        store.save(&sample_snapshot(1, 200)).unwrap();
        let (best, rejected) = store.load_latest(1);
        assert_eq!(best.as_ref().unwrap().0.cycle, 200);
        assert!(rejected.is_empty());

        // A third save overwrites the *older* slot.
        store.save(&sample_snapshot(1, 300)).unwrap();
        let (best, _) = store.load_latest(1);
        assert_eq!(best.unwrap().0.cycle, 300);
        let cycles: Vec<u64> = store
            .slots()
            .iter()
            .filter_map(|p| Snapshot::probe(p).map(|(_, c)| c))
            .collect();
        assert_eq!(cycles.iter().copied().max(), Some(300));
        assert!(cycles.contains(&200), "previous snapshot retained");

        // Corrupt the newest slot: the loader falls back to the older
        // one and reports the typed rejection.
        let newest = store
            .slots()
            .into_iter()
            .max_by_key(|p| Snapshot::probe(p).map(|(_, c)| c))
            .unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();
        let (best, rejected) = store.load_latest(1);
        assert_eq!(best.unwrap().0.cycle, 200, "fell back to older slot");
        assert_eq!(rejected.len(), 1);
        assert!(matches!(rejected[0].1, SnapError::Checksum { .. }));

        // Stale identity: both slots refused, clean fallback to none.
        let (best, rejected) = store.load_latest(2);
        assert!(best.is_none());
        assert_eq!(rejected.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let dir = tmpdir("atomic");
        let path = dir.join("x.snap.a");
        sample_snapshot(3, 50).write_atomic(&path).unwrap();
        assert!(path.exists());
        assert!(!tmp_path(&path).exists());
        assert_eq!(Snapshot::probe(&path), Some((3, 50)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}

//! On-disk serialization of workload traces.
//!
//! A compact little-endian binary format so traces can be generated
//! once, inspected with the `trace-tool` binary, archived alongside
//! experiment results, and replayed bit-identically — the moral
//! equivalent of the program traces that drive the paper's simulator.
//!
//! Layout:
//!
//! ```text
//! magic "HMGTRACE"  version:u32
//! name_len:u32  name:[u8]
//! kernel_count:u32
//!   per kernel: cta_count:u32
//!     per CTA: op_count:u32
//!       per op: tag:u8 payload...
//! ```

use std::io::{self, Read, Write};

use hmg_sim::Addr;

use crate::op::{Access, AccessKind};
use crate::scope::Scope;
use crate::trace::{Cta, Kernel, TraceOp, WorkloadTrace};

/// File magic.
pub const MAGIC: &[u8; 8] = b"HMGTRACE";
/// Current format version.
pub const VERSION: u32 = 1;

/// Where in a trace file a read error was detected: the byte offset the
/// reader had consumed, plus (once inside the body) the kernel/CTA/op
/// indices being decoded — so a corrupt multi-gigabyte trace archive
/// pinpoints the damaged record instead of just saying "corrupt".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TracePos {
    /// Bytes consumed from the reader when the error was detected.
    pub offset: u64,
    /// Kernel index being decoded (None while reading the header).
    pub kernel: Option<u32>,
    /// CTA index within the kernel, when applicable.
    pub cta: Option<u32>,
    /// Op index within the CTA, when applicable.
    pub op: Option<u32>,
}

impl std::fmt::Display for TracePos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}", self.offset)?;
        if let Some(k) = self.kernel {
            write!(f, ", kernel {k}")?;
        }
        if let Some(c) = self.cta {
            write!(f, ", cta {c}")?;
        }
        if let Some(o) = self.op {
            write!(f, ", op {o}")?;
        }
        Ok(())
    }
}

/// Errors reading a trace file.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure, with the position reached.
    Io(io::Error, TracePos),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not supported.
    UnsupportedVersion(u32),
    /// A field failed validation at the given position.
    Corrupt(&'static str, TracePos),
}

impl ReadTraceError {
    /// The position the error was detected at, when one is known.
    pub fn pos(&self) -> Option<TracePos> {
        match self {
            ReadTraceError::Io(_, p) | ReadTraceError::Corrupt(_, p) => Some(*p),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e, pos) => write!(f, "i/o error at {pos}: {e}"),
            ReadTraceError::BadMagic => f.write_str("not an HMG trace file"),
            ReadTraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v}")
            }
            ReadTraceError::Corrupt(what, pos) => {
                write!(f, "corrupt trace file: {what} at {pos}")
            }
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e, _) => Some(e),
            _ => None,
        }
    }
}

fn scope_tag(s: Scope) -> u8 {
    match s {
        Scope::Cta => 0,
        Scope::Gpu => 1,
        Scope::Sys => 2,
    }
}

fn scope_from(tag: u8) -> Result<Scope, &'static str> {
    Ok(match tag {
        0 => Scope::Cta,
        1 => Scope::Gpu,
        2 => Scope::Sys,
        _ => return Err("scope tag"),
    })
}

fn kind_tag(k: AccessKind) -> u8 {
    match k {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::Atomic => 2,
    }
}

fn kind_from(tag: u8) -> Result<AccessKind, &'static str> {
    Ok(match tag {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        2 => AccessKind::Atomic,
        _ => return Err("access kind tag"),
    })
}

/// Writes `trace` to `w`. A `BufWriter` is recommended; note that a
/// `&mut W` also implements `Write`, so the writer need not be consumed.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace<W: Write>(mut w: W, trace: &WorkloadTrace) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let name = trace.name.as_bytes();
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    w.write_all(&(trace.kernels.len() as u32).to_le_bytes())?;
    for k in &trace.kernels {
        w.write_all(&(k.ctas.len() as u32).to_le_bytes())?;
        for c in &k.ctas {
            w.write_all(&(c.ops.len() as u32).to_le_bytes())?;
            for op in &c.ops {
                match op {
                    TraceOp::Access(a) => {
                        w.write_all(&[0, kind_tag(a.kind), scope_tag(a.scope)])?;
                        w.write_all(&a.addr.0.to_le_bytes())?;
                    }
                    TraceOp::Delay(d) => {
                        w.write_all(&[1])?;
                        w.write_all(&d.to_le_bytes())?;
                    }
                    TraceOp::Acquire(s) => w.write_all(&[2, scope_tag(s)])?,
                    TraceOp::Release(s) => w.write_all(&[3, scope_tag(s)])?,
                    TraceOp::SetFlag(flag) => {
                        w.write_all(&[4])?;
                        w.write_all(&flag.to_le_bytes())?;
                    }
                    TraceOp::WaitFlag { flag, count } => {
                        w.write_all(&[5])?;
                        w.write_all(&flag.to_le_bytes())?;
                        w.write_all(&count.to_le_bytes())?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Reader wrapper that tracks the byte offset consumed so far and
/// carries the structural position for error reporting.
struct PosReader<R> {
    inner: R,
    pos: TracePos,
}

impl<R: Read> PosReader<R> {
    fn new(inner: R) -> Self {
        PosReader {
            inner,
            pos: TracePos::default(),
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), ReadTraceError> {
        self.inner
            .read_exact(buf)
            .map_err(|e| ReadTraceError::Io(e, self.pos))?;
        self.pos.offset += buf.len() as u64;
        Ok(())
    }

    fn corrupt(&self, what: &'static str) -> ReadTraceError {
        ReadTraceError::Corrupt(what, self.pos)
    }
}

fn read_u32<R: Read>(r: &mut PosReader<R>) -> Result<u32, ReadTraceError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut PosReader<R>) -> Result<u64, ReadTraceError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u8<R: Read>(r: &mut PosReader<R>) -> Result<u8, ReadTraceError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Sanity cap on collection sizes, to fail fast on corrupt headers
/// rather than attempting enormous allocations.
const MAX_COUNT: u32 = 64 * 1024 * 1024;

/// Reads a trace written by [`write_trace`].
///
/// # Errors
///
/// Returns [`ReadTraceError`] on I/O failure, wrong magic, unsupported
/// version, or structurally invalid content.
pub fn read_trace<R: Read>(r: R) -> Result<WorkloadTrace, ReadTraceError> {
    let mut r = PosReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| ReadTraceError::BadMagic)?;
    if &magic != MAGIC {
        return Err(ReadTraceError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(ReadTraceError::UnsupportedVersion(version));
    }
    let name_len = read_u32(&mut r)?;
    if name_len > MAX_COUNT {
        return Err(r.corrupt("name length"));
    }
    let mut name = vec![0u8; name_len as usize];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| r.corrupt("name utf8"))?;

    let kernel_count = read_u32(&mut r)?;
    if kernel_count > MAX_COUNT {
        return Err(r.corrupt("kernel count"));
    }
    let mut kernels = Vec::with_capacity(kernel_count as usize);
    for ki in 0..kernel_count {
        r.pos.kernel = Some(ki);
        r.pos.cta = None;
        r.pos.op = None;
        let cta_count = read_u32(&mut r)?;
        if cta_count > MAX_COUNT {
            return Err(r.corrupt("cta count"));
        }
        let mut ctas = Vec::with_capacity(cta_count as usize);
        for ci in 0..cta_count {
            r.pos.cta = Some(ci);
            r.pos.op = None;
            let op_count = read_u32(&mut r)?;
            if op_count > MAX_COUNT {
                return Err(r.corrupt("op count"));
            }
            let mut ops = Vec::with_capacity(op_count as usize);
            for oi in 0..op_count {
                r.pos.op = Some(oi);
                let tag = read_u8(&mut r)?;
                let op = match tag {
                    0 => {
                        let kind = kind_from(read_u8(&mut r)?).map_err(|w| r.corrupt(w))?;
                        let scope = scope_from(read_u8(&mut r)?).map_err(|w| r.corrupt(w))?;
                        let addr = Addr(read_u64(&mut r)?);
                        TraceOp::Access(Access::new(addr, kind, scope))
                    }
                    1 => TraceOp::Delay(read_u32(&mut r)?),
                    2 => TraceOp::Acquire(scope_from(read_u8(&mut r)?).map_err(|w| r.corrupt(w))?),
                    3 => TraceOp::Release(scope_from(read_u8(&mut r)?).map_err(|w| r.corrupt(w))?),
                    4 => TraceOp::SetFlag(read_u32(&mut r)?),
                    5 => {
                        let flag = read_u32(&mut r)?;
                        let count = read_u32(&mut r)?;
                        TraceOp::WaitFlag { flag, count }
                    }
                    _ => return Err(r.corrupt("op tag")),
                };
                ops.push(op);
            }
            ctas.push(Cta::new(ops));
        }
        kernels.push(Kernel::new(ctas));
    }
    Ok(WorkloadTrace::new(name, kernels))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadTrace {
        let cta = Cta::new(vec![
            TraceOp::Access(Access::load(Addr(0))),
            TraceOp::Access(Access::new(Addr(256), AccessKind::Store, Scope::Cta)),
            TraceOp::Access(Access::atomic(Addr(512), Scope::Gpu)),
            TraceOp::Delay(42),
            TraceOp::Acquire(Scope::Sys),
            TraceOp::Release(Scope::Gpu),
            TraceOp::SetFlag(7),
            TraceOp::WaitFlag { flag: 7, count: 3 },
        ]);
        WorkloadTrace::new("sample", vec![Kernel::new(vec![cta, Cta::new(vec![])])])
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write");
        let back = read_trace(buf.as_slice()).expect("read");
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOTATRACEFILE..."[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic), "{err}");
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::UnsupportedVersion(99)));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write");
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..buf.len() {
            assert!(
                read_trace(&buf[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn rejects_bad_tags() {
        let t = WorkloadTrace::new(
            "x",
            vec![Kernel::new(vec![Cta::new(vec![TraceOp::Delay(1)])])],
        );
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write");
        // The op tag is right after the three u32 counts that follow the
        // header + name.
        let tag_pos = 8 + 4 + 4 + 1 + 4 + 4 + 4;
        buf[tag_pos] = 200;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("op tag", _)), "{err}");
        let pos = err.pos().expect("corrupt errors carry a position");
        assert_eq!(pos.kernel, Some(0));
        assert_eq!(pos.cta, Some(0));
        assert_eq!(pos.op, Some(0));
        assert_eq!(pos.offset as usize, tag_pos + 1, "offset after the bad tag");
    }

    #[test]
    fn truncation_errors_carry_byte_offsets() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write");
        // Cut inside the op stream: the error must locate the record.
        let err = read_trace(&buf[..buf.len() - 2]).unwrap_err();
        let pos = err.pos().expect("i/o errors carry a position");
        assert!(pos.kernel.is_some(), "{err}");
        assert!(err.to_string().contains("byte "), "{err}");
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ReadTraceError::BadMagic.to_string().contains("HMG"));
        let pos = TracePos {
            offset: 37,
            kernel: Some(1),
            cta: Some(2),
            op: Some(3),
        };
        let msg = ReadTraceError::Corrupt("x", pos).to_string();
        assert!(msg.contains('x') && msg.contains("byte 37"), "{msg}");
        assert!(msg.contains("kernel 1") && msg.contains("cta 2") && msg.contains("op 3"));
    }
}

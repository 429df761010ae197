//! Low-level binary encoding for the durable store: little-endian
//! primitives, length-prefixed strings, CRC32-checksummed sections, and
//! codecs for the handful of engine types the store writes to disk
//! ([`crate::value::Value`], [`crate::expr::Expr`], [`crate::exec::AggSpec`],
//! sample specs).
//!
//! Every on-disk structure is built from *sections*: a `u64` payload
//! length, a CRC32 of the payload, then the payload bytes. Readers
//! verify the checksum before decoding a single field, so a flipped bit
//! anywhere inside a section surfaces as a typed
//! [`DbError::Corrupt`] — never a panic, never a silently wrong value.

use crate::error::{DbError, DbResult};
use crate::exec::{AggFunc, AggSpec};
use crate::expr::{CmpOp, Expr};
use crate::sample::SampleSpec;
use crate::value::{DataType, Value};

/// CRC32 (IEEE 802.3 polynomial, reflected) over `bytes`. Table-free
/// nibble-at-a-time variant: fast enough for checkpoint-sized payloads
/// without a 1 KiB static table.
pub fn crc32(bytes: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// A corruption error with location context.
pub fn corrupt(what: impl std::fmt::Display) -> DbError {
    DbError::Corrupt(what.to_string())
}

/// Map an I/O error into [`DbError::Io`] with path context.
pub fn io_err(path: &std::path::Path, e: std::io::Error) -> DbError {
    DbError::Io(format!("{}: {e}", path.display()))
}

/// Byte-buffer encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE-754 bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append one [`Value`].
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(2);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u8(4);
                self.u8(*b as u8);
            }
        }
    }

    /// Append one [`Expr`] tree.
    pub fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Column(name) => {
                self.u8(0);
                self.str(name);
            }
            Expr::Literal(v) => {
                self.u8(1);
                self.value(v);
            }
            Expr::Cmp { op, left, right } => {
                self.u8(2);
                self.u8(match op {
                    CmpOp::Eq => 0,
                    CmpOp::Ne => 1,
                    CmpOp::Lt => 2,
                    CmpOp::Le => 3,
                    CmpOp::Gt => 4,
                    CmpOp::Ge => 5,
                });
                self.expr(left);
                self.expr(right);
            }
            Expr::And(a, b) => {
                self.u8(3);
                self.expr(a);
                self.expr(b);
            }
            Expr::Or(a, b) => {
                self.u8(4);
                self.expr(a);
                self.expr(b);
            }
            Expr::Not(a) => {
                self.u8(5);
                self.expr(a);
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.u8(6);
                self.expr(expr);
                self.u64(list.len() as u64);
                for v in list {
                    self.value(v);
                }
                self.u8(*negated as u8);
            }
            Expr::IsNull { expr, negated } => {
                self.u8(7);
                self.expr(expr);
                self.u8(*negated as u8);
            }
        }
    }

    /// Append an optional [`Expr`].
    pub fn opt_expr(&mut self, e: &Option<Expr>) {
        match e {
            None => self.u8(0),
            Some(e) => {
                self.u8(1);
                self.expr(e);
            }
        }
    }

    /// Append one [`AggSpec`].
    pub fn agg_spec(&mut self, a: &AggSpec) {
        self.u8(match a.func {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Avg => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
        });
        self.opt_str(&a.column);
        self.opt_expr(&a.filter);
        self.opt_str(&a.alias);
    }

    /// Append an optional string.
    pub fn opt_str(&mut self, s: &Option<String>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    /// Append an optional [`SampleSpec`].
    pub fn opt_sample(&mut self, s: &Option<SampleSpec>) {
        match s {
            None => self.u8(0),
            Some(SampleSpec::Bernoulli { fraction, seed }) => {
                self.u8(1);
                self.f64(*fraction);
                self.u64(*seed);
            }
        }
    }

    /// Append a [`DataType`] tag.
    pub fn dtype(&mut self, t: DataType) {
        self.u8(match t {
            DataType::Int64 => 0,
            DataType::Float64 => 1,
            DataType::Str => 2,
            DataType::Bool => 3,
        });
    }
}

/// Cursor-based decoder over a byte slice. Every accessor returns
/// [`DbError::Corrupt`] on truncation or an invalid tag — the store
/// never panics on bad bytes.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string used in corruption messages ("manifest", file name).
    what: &'a str,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`, labelling errors with `what`.
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        Dec { buf, pos: 0, what }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end));
        match slice {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(corrupt(format!(
                "{}: truncated (wanted {n} bytes at offset {}, have {})",
                self.what,
                self.pos,
                self.buf.len().saturating_sub(self.pos)
            ))),
        }
    }

    /// Read exactly `N` bytes into an array (no panic path: the length
    /// check is `take`'s, the copy is by iterator).
    fn take_arr<const N: usize>(&mut self) -> DbResult<[u8; N]> {
        let s = self.take(N)?;
        let mut arr = [0u8; N];
        for (dst, src) in arr.iter_mut().zip(s) {
            *dst = *src;
        }
        Ok(arr)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> DbResult<u8> {
        let [b] = self.take_arr::<1>()?;
        Ok(b)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take_arr::<4>()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take_arr::<8>()?))
    }

    /// Read a byte-length prefix, rejecting absurd sizes (beyond the
    /// remaining buffer — this is what keeps a corrupted length from
    /// triggering a huge allocation).
    pub fn len_prefix(&mut self) -> DbResult<usize> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err(corrupt(format!(
                "{}: length {n} exceeds section size {}",
                self.what,
                self.buf.len()
            )));
        }
        Ok(n as usize)
    }

    /// Read a count of fixed-width items, validating against the bytes
    /// actually remaining (`width` bytes per item).
    pub fn count(&mut self, width: usize) -> DbResult<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(width as u64) > remaining {
            return Err(corrupt(format!(
                "{}: count {n} × {width}B exceeds remaining {remaining}B",
                self.what
            )));
        }
        Ok(n as usize)
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> DbResult<i64> {
        Ok(i64::from_le_bytes(self.take_arr::<8>()?))
    }

    /// Read an `f64` from its raw bits.
    pub fn f64(&mut self) -> DbResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> DbResult<&'a [u8]> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> DbResult<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| corrupt(format!("{}: invalid UTF-8 string", self.what)))
    }

    /// Read one [`Value`].
    pub fn value(&mut self) -> DbResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Str(self.str()?),
            4 => Value::Bool(self.u8()? != 0),
            t => return Err(corrupt(format!("{}: bad value tag {t}", self.what))),
        })
    }

    /// Read one [`Expr`] tree.
    pub fn expr(&mut self) -> DbResult<Expr> {
        Ok(match self.u8()? {
            0 => Expr::Column(self.str()?),
            1 => Expr::Literal(self.value()?),
            2 => {
                let op = match self.u8()? {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    5 => CmpOp::Ge,
                    t => return Err(corrupt(format!("{}: bad cmp op {t}", self.what))),
                };
                let left = Box::new(self.expr()?);
                let right = Box::new(self.expr()?);
                Expr::Cmp { op, left, right }
            }
            3 => Expr::And(Box::new(self.expr()?), Box::new(self.expr()?)),
            4 => Expr::Or(Box::new(self.expr()?), Box::new(self.expr()?)),
            5 => Expr::Not(Box::new(self.expr()?)),
            6 => {
                let expr = Box::new(self.expr()?);
                let n = self.count(1)?;
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    list.push(self.value()?);
                }
                let negated = self.u8()? != 0;
                Expr::InList {
                    expr,
                    list,
                    negated,
                }
            }
            7 => Expr::IsNull {
                expr: Box::new(self.expr()?),
                negated: self.u8()? != 0,
            },
            t => return Err(corrupt(format!("{}: bad expr tag {t}", self.what))),
        })
    }

    /// Read an optional [`Expr`].
    pub fn opt_expr(&mut self) -> DbResult<Option<Expr>> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(self.expr()?),
            t => return Err(corrupt(format!("{}: bad option tag {t}", self.what))),
        })
    }

    /// Read one [`AggSpec`].
    pub fn agg_spec(&mut self) -> DbResult<AggSpec> {
        let func = match self.u8()? {
            0 => AggFunc::Count,
            1 => AggFunc::Sum,
            2 => AggFunc::Avg,
            3 => AggFunc::Min,
            4 => AggFunc::Max,
            t => return Err(corrupt(format!("{}: bad agg func {t}", self.what))),
        };
        let column = self.opt_str()?;
        let filter = self.opt_expr()?;
        let alias = self.opt_str()?;
        Ok(AggSpec {
            func,
            column,
            filter,
            alias,
        })
    }

    /// Read an optional string.
    pub fn opt_str(&mut self) -> DbResult<Option<String>> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(self.str()?),
            t => return Err(corrupt(format!("{}: bad option tag {t}", self.what))),
        })
    }

    /// Read an optional [`SampleSpec`].
    pub fn opt_sample(&mut self) -> DbResult<Option<SampleSpec>> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(SampleSpec::Bernoulli {
                fraction: self.f64()?,
                seed: self.u64()?,
            }),
            t => return Err(corrupt(format!("{}: bad sample tag {t}", self.what))),
        })
    }

    /// Read a [`DataType`] tag.
    pub fn dtype(&mut self) -> DbResult<DataType> {
        Ok(match self.u8()? {
            0 => DataType::Int64,
            1 => DataType::Float64,
            2 => DataType::Str,
            3 => DataType::Bool,
            t => return Err(corrupt(format!("{}: bad dtype tag {t}", self.what))),
        })
    }
}

/// Frame `payload` as one checksummed section: `len u64 | crc32 u32 |
/// payload`.
pub fn frame_section(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of reading one section frame from a byte stream.
pub enum Section<'a> {
    /// A complete, checksum-verified payload (and the bytes consumed).
    Ok(&'a [u8], usize),
    /// The stream ends exactly here — no more sections.
    End,
    /// The stream ends mid-section (a torn write at the tail).
    Torn,
    /// A complete frame whose checksum does not match its payload.
    BadChecksum,
}

/// Read `N` little-endian bytes at `buf[pos..]` as an array, `None`
/// when out of range (shared with the WAL's frame scanner).
pub fn le_bytes_at<const N: usize>(buf: &[u8], pos: usize) -> Option<[u8; N]> {
    let s = pos.checked_add(N).and_then(|end| buf.get(pos..end))?;
    let mut arr = [0u8; N];
    for (dst, src) in arr.iter_mut().zip(s) {
        *dst = *src;
    }
    Some(arr)
}

/// Read the section frame starting at `buf[pos..]`.
pub fn read_section(buf: &[u8], pos: usize) -> Section<'_> {
    let Some(rest) = buf.get(pos..) else {
        return Section::Torn;
    };
    if rest.is_empty() {
        return Section::End;
    }
    let (Some(len), Some(crc)) = (
        le_bytes_at::<8>(rest, 0).map(u64::from_le_bytes),
        le_bytes_at::<4>(rest, 8).map(u32::from_le_bytes),
    ) else {
        return Section::Torn;
    };
    let len = len as usize;
    // An absurd length (beyond the buffer) reads as a torn/garbage
    // header rather than an allocation request — as does any header
    // arithmetic that leaves the buffer.
    let Some(payload) = (12usize).checked_add(len).and_then(|end| rest.get(12..end)) else {
        return Section::Torn;
    };
    if crc32(payload) != crc {
        return Section::BadChecksum;
    }
    Section::Ok(payload, 12 + len)
}

/// Read one file that holds exactly one checksummed section (manifest,
/// warm-plan files).
pub fn read_section_file(path: &std::path::Path, what: &str) -> DbResult<Vec<u8>> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    match read_section(&bytes, 0) {
        Section::Ok(payload, consumed) if consumed == bytes.len() => Ok(payload.to_vec()),
        Section::Ok(..) => Err(corrupt(format!("{what}: trailing bytes after section"))),
        Section::End | Section::Torn => Err(corrupt(format!("{what}: truncated section"))),
        Section::BadChecksum => Err(corrupt(format!("{what}: checksum mismatch"))),
    }
}

/// Write `payload` to `path` as one checksummed section, atomically:
/// write to `<path>.tmp`, fsync, rename over `path`. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
pub fn write_section_file(path: &std::path::Path, payload: &[u8]) -> DbResult<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    let framed = frame_section(payload);
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(&framed).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    // Directory sync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

/// Best-effort fsync of a directory, making its entries (file
/// creations, renames) durable against power loss. Failures are
/// ignored: the files themselves are always fsynced, and some
/// platforms cannot open directories for syncing.
pub fn sync_dir(dir: &std::path::Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.f64(-0.0);
        e.str("héllo");
        e.bytes(b"\x00\xff");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), b"\x00\xff");
        assert!(d.is_done());
    }

    #[test]
    fn values_roundtrip_bit_exact() {
        let vals = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Str("x y".into()),
            Value::Bool(true),
        ];
        let mut e = Enc::new();
        for v in &vals {
            e.value(v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        for v in &vals {
            let got = d.value().unwrap();
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, got),
            }
        }
    }

    #[test]
    fn exprs_roundtrip() {
        let e1 = Expr::col("a")
            .eq("v")
            .and(Expr::col("b").gt(3))
            .or(Expr::Not(Box::new(Expr::IsNull {
                expr: Box::new(Expr::col("c")),
                negated: true,
            })))
            .and(Expr::InList {
                expr: Box::new(Expr::col("d")),
                list: vec![Value::Int(1), Value::from("z")],
                negated: true,
            });
        let mut enc = Enc::new();
        enc.expr(&e1);
        let bytes = enc.into_bytes();
        let got = Dec::new(&bytes, "test").expr().unwrap();
        assert_eq!(e1, got);
    }

    #[test]
    fn truncation_and_bad_tags_are_corrupt_errors() {
        let mut e = Enc::new();
        e.u64(123);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..4], "t");
        assert!(matches!(d.u64(), Err(DbError::Corrupt(_))));
        let bad = [9u8]; // invalid value tag
        assert!(matches!(
            Dec::new(&bad, "t").value(),
            Err(DbError::Corrupt(_))
        ));
        // A huge length prefix is rejected, not allocated.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        assert!(matches!(
            Dec::new(&bytes, "t").bytes(),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn sections_verify_checksums() {
        let framed = frame_section(b"payload");
        match read_section(&framed, 0) {
            Section::Ok(p, n) => {
                assert_eq!(p, b"payload");
                assert_eq!(n, framed.len());
            }
            _ => panic!("good section must read"),
        }
        // Flip one payload bit: checksum failure.
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(read_section(&bad, 0), Section::BadChecksum));
        // Truncate mid-payload: torn.
        assert!(matches!(
            read_section(&framed[..framed.len() - 2], 0),
            Section::Torn
        ));
        assert!(matches!(read_section(&framed, framed.len()), Section::End));
    }
}

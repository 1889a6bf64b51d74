//! A minimal little-endian wire format for checkpoint payloads.
//!
//! The workspace has no serialization framework (the build is offline),
//! so anything that needs real bytes — the checkpoint/restart subsystem —
//! encodes by hand through these primitives. The format is
//! deliberately boring: fixed-width little-endian scalars, `u64` length
//! prefixes, one byte per bool/option marker. Readers never panic; every
//! malformed input surfaces as a typed [`WireError`].

use std::fmt;

/// Typed failure of a wire read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset the read failed at.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode failed at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for WireError {}

/// Append a bool as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an `f64` as its IEEE-754 bits, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `[f64; 3]` triple.
pub fn put_f64x3(out: &mut Vec<u8>, v: &[f64; 3]) {
    for c in v {
        put_f64(out, *c);
    }
}

/// Append a string as length + UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_usize(out, v.len());
    out.extend_from_slice(v.as_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, what: impl Into<String>) -> WireError {
        WireError {
            at: self.pos,
            what: what.into(),
        }
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.err(format!("needed {n} bytes, {} remain", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool_(&mut self) -> Result<bool, WireError> {
        match self.fixed::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a `u8`.
    pub fn u8_(&mut self) -> Result<u8, WireError> {
        Ok(self.fixed::<1>()?[0])
    }

    /// Read a `u32`.
    pub fn u32_(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }

    /// Read a `u64`.
    pub fn u64_(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }

    /// Read an `f64`.
    pub fn f64_(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.fixed()?))
    }

    /// Read a `[f64; 3]` triple.
    pub fn f64x3(&mut self) -> Result<[f64; 3], WireError> {
        Ok([self.f64_()?, self.f64_()?, self.f64_()?])
    }

    /// Read a `usize` stored as `u64`; rejects values that cannot index
    /// this platform or that exceed the remaining payload when used as a
    /// length (callers pass `bounded = true` for length prefixes so a
    /// corrupt length cannot drive a huge allocation).
    pub fn usize_(&mut self, bounded: bool) -> Result<usize, WireError> {
        let raw = self.u64_()?;
        let v = usize::try_from(raw).map_err(|_| self.err(format!("{raw} overflows usize")))?;
        if bounded && v > self.remaining() {
            return Err(self.err(format!(
                "length {v} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(v)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Result<&'a str, WireError> {
        let n = self.usize_(true)?;
        let at = self.pos;
        std::str::from_utf8(self.take(n)?).map_err(|e| WireError {
            at,
            what: format!("invalid utf-8: {e}"),
        })
    }

    /// Error unless every byte was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(self.err(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut out = Vec::new();
        put_bool(&mut out, true);
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 3);
        put_usize(&mut out, 42);
        put_f64(&mut out, -1.5);
        put_f64x3(&mut out, &[0.25, -0.5, 1e300]);
        put_str(&mut out, "tofumd");
        let mut r = WireReader::new(&out);
        assert!(r.bool_().unwrap());
        assert_eq!(r.u8_().unwrap(), 7);
        assert_eq!(r.u32_().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64_().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize_(false).unwrap(), 42);
        assert_eq!(r.f64_().unwrap(), -1.5);
        assert_eq!(r.f64x3().unwrap(), [0.25, -0.5, 1e300]);
        assert_eq!(r.str_().unwrap(), "tofumd");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_bad_bytes_are_typed() {
        let mut r = WireReader::new(&[1, 2]);
        let e = r.u32_().unwrap_err();
        assert!(e.to_string().contains("needed 4 bytes"), "{e}");
        let mut r = WireReader::new(&[9]);
        assert!(r.bool_().unwrap_err().to_string().contains("invalid bool"));
    }

    #[test]
    fn bounded_length_rejects_hostile_prefix() {
        let mut out = Vec::new();
        put_usize(&mut out, usize::MAX / 2);
        let mut r = WireReader::new(&out);
        let e = r.usize_(true).unwrap_err();
        assert!(e.to_string().contains("exceeds"), "{e}");
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = WireReader::new(&[0, 0]);
        assert_eq!(r.u8_().unwrap(), 0);
        assert!(r.finish().unwrap_err().to_string().contains("trailing"));
    }
}

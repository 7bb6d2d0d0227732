//! LEB128 variable-length integer encoding.
//!
//! Activity traces store header lengths and every nonzero column value
//! as a varint; most values are small, so they take a byte or two.

use std::io::{self, Read, Write};

/// Maximum encoded length of a `u64` (10 × 7 bits ≥ 64 bits).
pub const MAX_LEN: usize = 10;

/// Write `value` as LEB128.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_u64<W: Write>(w: &mut W, mut value: u64) -> io::Result<usize> {
    let mut buf = [0u8; MAX_LEN];
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        buf[n] = if value == 0 { byte } else { byte | 0x80 };
        n += 1;
        if value == 0 {
            break;
        }
    }
    w.write_all(&buf[..n])?;
    Ok(n)
}

/// Read a LEB128 `u64`.
///
/// # Errors
///
/// Returns `InvalidData` on a non-terminated or over-long encoding, and
/// propagates underlying I/O errors (including clean EOF as
/// `UnexpectedEof`).
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift == 63 && b > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint longer than 10 bytes",
            ));
        }
    }
}

/// Decode a LEB128 `u64` from `buf` starting at `*pos`, advancing `*pos`
/// past the encoding. Acceptance rules are identical to [`read_u64`];
/// running off the end of `buf` maps to `UnexpectedEof`.
///
/// This is the hot-path twin of [`read_u64`]: direct slice indexing
/// decodes several times faster than per-byte `Read` calls, which is what
/// lets an activity-trace replay beat a live simulation.
///
/// # Errors
///
/// Returns `InvalidData` on a non-terminated or over-long encoding and
/// `UnexpectedEof` on a truncated buffer.
#[inline]
pub fn decode_u64(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    // Single-byte fast path: most activity-trace counters are < 128, so
    // the common case is one branch and no loop.
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    decode_u64_slow(buf, pos)
}

fn decode_u64_slow(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "varint truncated",
            ));
        };
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint longer than 10 bytes",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_testkit::prop;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v).expect("write to Vec");
        read_u64(&mut &buf[..]).expect("read back")
    }

    #[test]
    fn edge_values() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn encoded_length_is_compact() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 5).expect("write");
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 300).expect("write");
        assert_eq!(buf.len(), 2);
        buf.clear();
        assert_eq!(write_u64(&mut buf, u64::MAX).expect("write"), MAX_LEN);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX)).expect("write");
        let cut = &buf[..buf.len() - 1];
        assert!(read_u64(&mut &cut[..]).is_err());
    }

    #[test]
    fn overlong_input_errors() {
        let bad = [0x80u8; 11];
        assert!(read_u64(&mut &bad[..]).is_err());
        // 10 bytes but with high bits that overflow 64.
        let mut overflow = [0xffu8; 9].to_vec();
        overflow.push(0x7f);
        assert!(read_u64(&mut &overflow[..]).is_err());
    }

    #[test]
    fn roundtrip_any() {
        prop::check("varint_roundtrip_any", prop::any_u64(), |v| {
            assert_eq!(roundtrip(v), v);
        });
    }

    #[test]
    fn truncated_any_prefix_errors() {
        // Every strict prefix of any multi-byte encoding is a clean Err.
        prop::check("varint_truncated_any_prefix", prop::any_u64(), |v| {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).expect("write to Vec");
            for cut in 0..buf.len() {
                let prefix = &buf[..cut];
                assert!(
                    read_u64(&mut &prefix[..]).is_err(),
                    "prefix of len {cut} of {v:#x} must not decode"
                );
            }
        });
    }
}

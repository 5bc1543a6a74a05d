//! LEB128 variable-length integers, the byte-level alphabet of the
//! compressed CSR blocks and the `.cldg` v2 snapshot payloads.
//!
//! [`encode_u64`] writes them and [`read_varint`] is the one decoder: the
//! compressed tier's neighbor iterators run it on every scan. It follows the
//! snapshot trust model (see [`crate::io::snapshot`]): checksums and group
//! bases are validated at load, while payload varints are only
//! bounds-checked at traversal. So the decoder bounds-checks every byte
//! access (a truncated stream panics, it never reads out of bounds) and never
//! checks canonical form.

/// Appends the LEB128 encoding of `value` to `buf`.
pub fn encode_u64(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Consumes one LEB128 varint from the front of `rest`, single-byte values
/// (the overwhelmingly common case for gaps and length prefixes) on the
/// no-loop fast path. Panics on a truncated stream, never reads out of
/// bounds.
#[inline(always)]
pub fn read_varint(rest: &mut &[u8]) -> u64 {
    // lint:allow(io-panic): a traversal-time decoder, not a load path; the
    // trust model above makes a truncated payload panic, never misread.
    let (&byte, tail) = rest.split_first().expect("truncated varint");
    *rest = tail;
    if byte & 0x80 == 0 {
        return u64::from(byte);
    }
    read_varint_cont(rest, byte)
}

/// Multi-byte continuation of [`read_varint`].
#[inline]
fn read_varint_cont(rest: &mut &[u8], first: u8) -> u64 {
    let mut value = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        // lint:allow(io-panic): as in `read_varint`.
        let (&byte, tail) = rest.split_first().expect("truncated varint");
        *rest = tail;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

/// Maps a signed value to an unsigned one with small absolute values staying
/// small: `0, -1, 1, -2, …` → `0, 1, 2, 3, …`.
#[inline(always)]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline(always)]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `value`, reads it back, and returns the encoded length.
    fn roundtrip(value: u64) -> usize {
        let mut buf = Vec::new();
        encode_u64(&mut buf, value);
        let mut rest = buf.as_slice();
        assert_eq!(read_varint(&mut rest), value, "decode of {value}");
        assert!(rest.is_empty(), "decode consumed the whole encoding of {value}");
        buf.len()
    }

    #[test]
    fn boundary_values_roundtrip() {
        assert_eq!(roundtrip(0), 1);
        assert_eq!(roundtrip(127), 1);
        assert_eq!(roundtrip(128), 2);
        for power in 1..=9u32 {
            let edge = 1u64 << (7 * power);
            roundtrip(edge - 1);
            roundtrip(edge);
            roundtrip(edge + 1);
        }
        assert_eq!(roundtrip(u64::MAX), 10, "ceil(64 / 7) bytes");
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let prefix = &buf[..cut];
            let decoded = std::panic::catch_unwind(|| read_varint(&mut &prefix[..]));
            assert!(decoded.is_err(), "prefix of length {cut} must not decode");
        }
    }

    #[test]
    fn zigzag_is_an_involution_on_boundaries() {
        for value in
            [0i64, -1, 1, -2, 2, i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1, 12345, -12345]
        {
            assert_eq!(zigzag_decode(zigzag_encode(value)), value);
        }
        // Small magnitudes stay small: one-byte varints for |v| < 64.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-64), 127);
    }
}

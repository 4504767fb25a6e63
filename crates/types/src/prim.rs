//! Endian-aware primitive reads and writes.
//!
//! Every wire format in this workspace (NDR, MPI-style packed, CDR, XML's
//! binary side) ultimately moves scalars between byte buffers in a declared
//! byte order. These helpers centralize that logic. They are deliberately
//! simple, branch-predictable and inlinable; the hot conversion paths in
//! `pbio-vrisc` compile to the same primitives.

use crate::arch::Endianness;

/// Read an unsigned integer of `bytes` width (1, 2, 4 or 8) at `buf[offset..]`.
///
/// # Panics
/// Panics if the range is out of bounds or `bytes` is not a supported width.
#[inline]
pub fn read_uint(buf: &[u8], offset: usize, bytes: u8, endian: Endianness) -> u64 {
    let s = &buf[offset..offset + bytes as usize];
    match (bytes, endian) {
        (1, _) => s[0] as u64,
        (2, Endianness::Big) => u16::from_be_bytes([s[0], s[1]]) as u64,
        (2, Endianness::Little) => u16::from_le_bytes([s[0], s[1]]) as u64,
        (4, Endianness::Big) => u32::from_be_bytes([s[0], s[1], s[2], s[3]]) as u64,
        (4, Endianness::Little) => u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as u64,
        (8, Endianness::Big) => {
            u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
        }
        (8, Endianness::Little) => {
            u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
        }
        _ => panic!("unsupported integer width {bytes}"),
    }
}

/// Read a signed integer of `bytes` width, sign-extending to i64.
#[inline]
pub fn read_int(buf: &[u8], offset: usize, bytes: u8, endian: Endianness) -> i64 {
    let raw = read_uint(buf, offset, bytes, endian);
    sign_extend(raw, bytes)
}

/// Sign-extend the low `bytes*8` bits of `raw` to a full i64.
#[inline]
fn sign_extend(raw: u64, bytes: u8) -> i64 {
    let shift = 64 - (bytes as u32) * 8;
    ((raw << shift) as i64) >> shift
}

/// Write the low `bytes*8` bits of `v` at `buf[offset..]` in `endian` order.
///
/// # Panics
/// Panics if the range is out of bounds or `bytes` is not a supported width.
#[inline]
pub fn write_uint(buf: &mut [u8], offset: usize, bytes: u8, endian: Endianness, v: u64) {
    let dst = &mut buf[offset..offset + bytes as usize];
    match (bytes, endian) {
        (1, _) => dst[0] = v as u8,
        (2, Endianness::Big) => dst.copy_from_slice(&(v as u16).to_be_bytes()),
        (2, Endianness::Little) => dst.copy_from_slice(&(v as u16).to_le_bytes()),
        (4, Endianness::Big) => dst.copy_from_slice(&(v as u32).to_be_bytes()),
        (4, Endianness::Little) => dst.copy_from_slice(&(v as u32).to_le_bytes()),
        (8, Endianness::Big) => dst.copy_from_slice(&v.to_be_bytes()),
        (8, Endianness::Little) => dst.copy_from_slice(&v.to_le_bytes()),
        _ => panic!("unsupported integer width {bytes}"),
    }
}

/// Read an IEEE-754 float of 4 or 8 bytes, widening to f64.
#[inline]
pub fn read_float(buf: &[u8], offset: usize, bytes: u8, endian: Endianness) -> f64 {
    match bytes {
        4 => f32::from_bits(read_uint(buf, offset, 4, endian) as u32) as f64,
        8 => f64::from_bits(read_uint(buf, offset, 8, endian)),
        _ => panic!("unsupported float width {bytes}"),
    }
}

/// Write an f64 as an IEEE-754 float of 4 or 8 bytes (narrowing to f32 for
/// width 4).
#[inline]
pub fn write_float(buf: &mut [u8], offset: usize, bytes: u8, endian: Endianness, v: f64) {
    match bytes {
        4 => write_uint(buf, offset, 4, endian, (v as f32).to_bits() as u64),
        8 => write_uint(buf, offset, 8, endian, v.to_bits()),
        _ => panic!("unsupported float width {bytes}"),
    }
}

/// True if `v` is exactly representable as a signed two's-complement integer
/// of `bytes` width.
#[inline]
pub fn fits_signed(v: i64, bytes: u8) -> bool {
    if bytes >= 8 {
        return true;
    }
    let bits = (bytes as u32) * 8;
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&v)
}

/// True if `v` fits in an unsigned integer of `bytes` width.
#[inline]
pub fn fits_unsigned(v: u64, bytes: u8) -> bool {
    if bytes >= 8 {
        return true;
    }
    v < (1u64 << ((bytes as u32) * 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_round_trip_both_orders() {
        let mut buf = [0u8; 16];
        for &endian in &[Endianness::Big, Endianness::Little] {
            for &bytes in &[1u8, 2, 4, 8] {
                let v = 0x0123_4567_89AB_CDEFu64 & mask(bytes);
                write_uint(&mut buf, 3, bytes, endian, v);
                assert_eq!(read_uint(&buf, 3, bytes, endian), v);
            }
        }
    }

    fn mask(bytes: u8) -> u64 {
        if bytes >= 8 {
            u64::MAX
        } else {
            (1u64 << (bytes as u32 * 8)) - 1
        }
    }

    #[test]
    fn big_endian_layout_is_msb_first() {
        let mut buf = [0u8; 4];
        write_uint(&mut buf, 0, 4, Endianness::Big, 0x0A0B0C0D);
        assert_eq!(buf, [0x0A, 0x0B, 0x0C, 0x0D]);
        write_uint(&mut buf, 0, 4, Endianness::Little, 0x0A0B0C0D);
        assert_eq!(buf, [0x0D, 0x0C, 0x0B, 0x0A]);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xFF, 1), -1);
        assert_eq!(sign_extend(0x7F, 1), 127);
        assert_eq!(sign_extend(0x8000, 2), i16::MIN as i64);
        assert_eq!(sign_extend(0xFFFF_FFFF, 4), -1);
        assert_eq!(sign_extend(u64::MAX, 8), -1);
    }

    #[test]
    fn read_int_negative_values() {
        let mut buf = [0u8; 8];
        write_uint(&mut buf, 0, 4, Endianness::Big, (-42i32) as u32 as u64);
        assert_eq!(read_int(&buf, 0, 4, Endianness::Big), -42);
    }

    #[test]
    fn float_round_trip() {
        let mut buf = [0u8; 8];
        for &endian in &[Endianness::Big, Endianness::Little] {
            write_float(&mut buf, 0, 8, endian, -1234.5678);
            assert_eq!(read_float(&buf, 0, 8, endian), -1234.5678);
            write_float(&mut buf, 0, 4, endian, 0.5);
            assert_eq!(read_float(&buf, 0, 4, endian), 0.5);
        }
    }

    #[test]
    fn float_narrowing_goes_through_f32() {
        let mut buf = [0u8; 4];
        write_float(&mut buf, 0, 4, Endianness::Big, 0.1);
        assert_eq!(read_float(&buf, 0, 4, Endianness::Big), 0.1f32 as f64);
    }

    #[test]
    fn range_checks() {
        assert!(fits_signed(127, 1));
        assert!(!fits_signed(128, 1));
        assert!(fits_signed(-128, 1));
        assert!(!fits_signed(-129, 1));
        assert!(fits_signed(i64::MIN, 8));
        assert!(fits_unsigned(255, 1));
        assert!(!fits_unsigned(256, 1));
        assert!(fits_unsigned(u64::MAX, 8));
    }
}

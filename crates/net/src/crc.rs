//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! of every session frame, store segment entry and capture record.
//!
//! The wire format must add no per-byte work a memory copy would not, so
//! the checksum runs at memory speed: on x86-64 with `pclmulqdq` and
//! `sse4.1`, inputs of at least 64 bytes are folded 64 bytes per step with
//! carry-less multiplies (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction", Intel 2009);
//! everything else — short inputs, the sub-16-byte tail of a folded one,
//! other architectures — takes a portable slice-by-16 table loop. The
//! kernel is picked from what the code can observe (CPU features, input
//! length), never from an option, and both compute the same function:
//! nothing on the wire, on disk or in a capture file can tell them apart.
//!
//! aarch64 has a `crc32x` instruction for this polynomial; it takes the
//! portable path here because no box this repo is tested on can run it.

/// Initial CRC-32 state.
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// state after byte `b` followed by `k` zero bytes, which is what lets 16
/// input bytes be looked up independently and XORed together.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Portable kernel: slice-by-16 over whole 16-byte blocks, then a byte at
/// a time over the tail.
fn update_tables(mut state: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let lane = |w: u32, k: usize| {
            TABLES[k + 3][(w & 0xFF) as usize]
                ^ TABLES[k + 2][((w >> 8) & 0xFF) as usize]
                ^ TABLES[k + 1][((w >> 16) & 0xFF) as usize]
                ^ TABLES[k][(w >> 24) as usize]
        };
        state = lane(word(0) ^ state, 12) ^ lane(word(4), 8) ^ lane(word(8), 4) ^ lane(word(12), 0);
    }
    for &b in blocks.remainder() {
        state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Shortest input the folding kernel accepts: its prologue loads four
/// 16-byte lanes before the first fold.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// Carry-less-multiply kernel: advance `state` over `bytes`, whose length
/// must be a multiple of 16 and at least `FOLD_MIN`.
///
/// Four 128-bit lanes are each carried 512 bits forward per step, then
/// merged into one lane 128 bits at a time, then reduced 128 → 64 → 32
/// bits, the last step a Barrett reduction. The constants are the paper's
/// bit-reflected ones for this polynomial.
///
/// Safe to define, `unsafe` to call from code compiled without the
/// features: the caller must have detected `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn update_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    // k1, k2: carry a lane over the three between it and its successor.
    const K1K2: (i64, i64) = (0x0001_5444_2BD4, 0x0001_C6E4_1596);
    // k3, k4: carry a lane onto the very next one.
    const K3K4: (i64, i64) = (0x0001_7519_97D0, 0x0000_CCAA_009E);
    // k5: 96 bits → 64.
    const K5: i64 = 0x0001_63CD_6124;
    // Barrett pair: the polynomial with its x^32 term, and mu = x^64 / P.
    const P_MU: (i64, i64) = (0x0001_DB71_0641, 0x0001_F701_1641);

    /// Unaligned load of one lane (SSE2, baseline on x86-64).
    #[inline(always)]
    fn load(lane: &[u8]) -> __m128i {
        let lane: &[u8; 16] = lane.try_into().expect("a lane is 16 bytes");
        // SAFETY: `lane` was just checked to be exactly 16 readable bytes,
        // and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// `x.lo·k.lo ^ x.hi·k.hi ^ next`: carry `x` forward onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    debug_assert!(bytes.len().is_multiple_of(16));
    let (head, rest) = bytes.split_at(FOLD_MIN);
    let mut x0 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(state as i32));
    let mut x1 = load(&head[16..32]);
    let mut x2 = load(&head[32..48]);
    let mut x3 = load(&head[48..]);

    let k = _mm_set_epi64x(K1K2.1, K1K2.0);
    let mut blocks = rest.chunks_exact(64);
    for block in &mut blocks {
        x0 = fold(x0, k, load(&block[..16]));
        x1 = fold(x1, k, load(&block[16..32]));
        x2 = fold(x2, k, load(&block[32..48]));
        x3 = fold(x3, k, load(&block[48..]));
    }

    let k = _mm_set_epi64x(K3K4.1, K3K4.0);
    let mut x = fold(x0, k, x1);
    x = fold(x, k, x2);
    x = fold(x, k, x3);
    for lane in blocks.remainder().chunks_exact(16) {
        x = fold(x, k, load(lane));
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );

    // Barrett reduction, 64 → 32 bits.
    let pmu = _mm_set_epi64x(P_MU.1, P_MU.0);
    let t = _mm_and_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10),
        low32,
    );
    let x = _mm_xor_si128(x, _mm_clmulepi64_si128(t, pmu, 0x00));
    _mm_extract_epi32(x, 1) as u32
}

/// Feed `bytes` into a running CRC-32 state (start from [`CRC_INIT`],
/// finish with [`crc32_finish`]). Splitting the input across calls at any
/// point gives the same state as one call over the concatenation.
#[inline]
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        let (folded, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: both features were just detected on this CPU.
        let state = unsafe { update_clmul(state, folded) };
        return update_tables(state, tail);
    }
    update_tables(state, bytes)
}

/// Finalize a CRC-32 state into the checksum value.
#[inline]
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time: what every kernel must equal.
    fn reference(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    POLY ^ (state >> 1)
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Lengths around every kernel boundary, offsets that misalign every
    /// 16-byte load, and states other than the initial one (the body is
    /// always summed from the header prefix's state, never from INIT).
    fn differential(kernel: impl Fn(u32, &[u8]) -> u32, min_len: usize, step: usize) {
        let lens = (0..700).chain([1000, 4095, 4096, 4097, 10_240, 102_400]);
        let data: Vec<u8> = (0..102_400 + 17)
            .map(|i: usize| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in lens.filter(|&l| l >= min_len && l % step == 0) {
            for offset in 0..17 {
                let bytes = &data[offset..offset + len];
                for init in [CRC_INIT, 0, 0xDEAD_BEEF] {
                    assert_eq!(
                        kernel(init, bytes),
                        reference(init, bytes),
                        "len {len} offset {offset} init {init:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_kernel_matches_the_reference() {
        differential(update_tables, 0, 1);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_matches_the_reference() {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            eprintln!("skipped: no pclmulqdq/sse4.1 on this CPU");
            return;
        }
        // SAFETY: both features were just detected on this CPU.
        differential(|s, b| unsafe { update_clmul(s, b) }, FOLD_MIN, 16);
    }

    #[test]
    fn dispatcher_matches_the_reference() {
        differential(crc32_update, 0, 1);
    }

    proptest! {
        /// The frame codec's call pattern — header prefix, then body — at
        /// arbitrary split points.
        #[test]
        fn update_is_associative_over_concatenation(
            bytes in proptest::collection::vec(any::<u8>(), 0..3000),
            split in any::<usize>(),
            init in any::<u32>(),
        ) {
            let split = split % (bytes.len() + 1);
            let (a, b) = bytes.split_at(split);
            let after_a = crc32_update(init, a);
            prop_assert_eq!(crc32_update(after_a, b), crc32_update(init, &bytes));
            prop_assert_eq!(crc32_update(init, &bytes), reference(init, &bytes));
        }
    }
}

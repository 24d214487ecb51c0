//! The SHA-256 compression function on the x86-64 SHA extensions
//! (SHA-NI), the only `unsafe` code in the workspace.
//!
//! `sha256rnds2` runs two rounds on a state split into the register
//! pair ABEF / CDGH, and `sha256msg1` / `sha256msg2` extend the message
//! schedule four words at a time. The state is shuffled into that layout
//! once per call, so a multi-block input pays for it once, not once per
//! block. Output is identical to the scalar rounds in the parent module.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Compresses `blocks` into `state` with SHA-NI and returns `true`, or
/// returns `false` without touching `state` when this CPU lacks the SHA
/// extensions. The std macro caches its CPUID probe, so the check costs
/// a few loads per call.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: `compress_blocks` needs the sha, sse2, ssse3 and sse4.1
    // target features, and the CPU reported all four just above.
    unsafe { compress_blocks(state, blocks) };
    true
}

/// The SHA-NI kernel.
///
/// # Safety
///
/// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` target
/// features.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let (halves, _) = state.as_chunks_mut::<4>();
    // SAFETY: each half of `state` is four initialised `u32`s, 16
    // readable bytes, and `loadu` has no alignment requirement.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(halves[0].as_ptr().cast()),
            _mm_loadu_si128(halves[1].as_ptr().cast()),
        )
    };
    // Shuffle (a, b, c, d), (e, f, g, h) into the ABEF / CDGH pair the
    // round instruction works on.
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (words, _) = block.as_chunks::<16>();
        let mut w0 = load_be(&words[0]);
        let mut w1 = load_be(&words[1]);
        let mut w2 = load_be(&words[2]);
        let mut w3 = load_be(&words[3]);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for group in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, group);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, group + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, group + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, group + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Shuffle back to (a, b, c, d), (e, f, g, h).
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: each half of `state` is four `u32`s, 16 writable bytes
    // borrowed mutably, and `storeu` has no alignment requirement.
    unsafe {
        _mm_storeu_si128(halves[0].as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(halves[1].as_mut_ptr().cast(), hgfe);
    }
}

/// Loads four message words, converting each from big-endian.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn load_be(bytes: &[u8; 16]) -> __m128i {
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `bytes` is 16 readable bytes and `loadu` has no alignment
    // requirement.
    let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
    _mm_shuffle_epi8(raw, byte_swap)
}

/// Message schedule words `W[t..t+4]` from the previous sixteen, given
/// as four vectors oldest first.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let sigma0 = _mm_sha256msg1_epu32(w0, w1);
    let w_minus_7 = _mm_alignr_epi8(w3, w2, 4);
    _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), w3)
}

/// Rounds `4 * group .. 4 * group + 4` over the message words `w`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
    let (k, _) = K.as_chunks::<4>();
    let k = &k[group];
    let wk = _mm_add_epi32(
        w,
        _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
    );
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

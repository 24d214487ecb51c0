//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Provides a streaming hasher ([`Sha256`]) and one-shot helpers
//! ([`sha256`], [`double_sha256`], [`sha256_concat`]), validated against
//! the FIPS 180-4 / NIST test vectors in the unit tests.
//!
//! The compression function has two paths, chosen per call by the CPU:
//! on x86-64 with the SHA extensions (SHA-NI) a hardware kernel, the
//! only `unsafe` code in the crate (module `x86`); everywhere else the
//! portable scalar rounds, which the tests also run as the oracle for
//! the kernel. Both give identical output.
//!
//! Blockchains conventionally use the *double* hash
//! `SHA-256(SHA-256(x))` for block and transaction identifiers; the DAG
//! side uses the single hash. Both are exposed here so each ledger can
//! match its reference implementation.

use crate::digest::Digest;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// SHA-256 round constants: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 prime numbers (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use dlt_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest.to_hex(),
///     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes processed so far (excluding what is
    /// buffered).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes the hash computation and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] over a given compression function (the tests
    /// pass [`compress_scalar`] to check it against the dispatched one).
    fn update_with(&mut self, mut data: &[u8], kernel: impl Fn(&mut [u32; 8], &[[u8; 64]])) {
        // Fill a partially-filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, std::slice::from_ref(&self.buf));
            self.len += 64;
            self.buf_len = 0;
        }
        // Process whole blocks directly from the input, in one call.
        let (blocks, tail) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
            self.len += 64 * blocks.len() as u64;
        }
        // Buffer the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Sha256::finalize`] over a given compression function.
    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 8], &[[u8; 64]])) -> Digest {
        let total_bits = (self.len + self.buf_len as u64).wrapping_mul(8);
        // The buffered tail, the 0x80 terminator, zeros, and the 64-bit
        // big-endian bit length: one block, or two when the tail leaves
        // no room for the terminator and the length.
        let mut pad = [[0u8; 64]; 2];
        let blocks = if self.buf_len < 56 { 1 } else { 2 };
        pad[0][..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[0][self.buf_len] = 0x80;
        pad[blocks - 1][56..].copy_from_slice(&total_bits.to_be_bytes());
        kernel(&mut self.state, &pad[..blocks]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }
}

/// The SHA-256 compression function over whole 512-bit blocks: the
/// SHA-NI kernel when this CPU has the SHA extensions, the scalar
/// rounds otherwise. Both produce identical states.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if x86::compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable compression function (FIPS 180-4 §6.2.2), one block at
/// a time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// Computes `SHA-256(data)` in one shot.
///
/// # Example
///
/// ```
/// use dlt_crypto::sha256::sha256;
/// assert_eq!(
///     sha256(b"abc").to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes the blockchain-conventional double hash `SHA-256(SHA-256(data))`.
pub fn double_sha256(data: &[u8]) -> Digest {
    sha256(sha256(data).as_bytes())
}

/// Hashes the concatenation of two digests — the Merkle-tree parent rule.
pub fn sha256_concat(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // On a CPU without the SHA extensions the dispatched `compress` is
    // `compress_scalar` itself, so these tests then compare the scalar
    // path with itself and still pass.

    /// SHA-256 of `data` on the scalar path, whatever the CPU.
    fn scalar_sha256(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update_with(data, compress_scalar);
        h.finalize_with(compress_scalar)
    }

    /// Checks a known answer on the dispatched and the scalar path.
    fn assert_vector(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_hex(), hex, "dispatched");
        assert_eq!(scalar_sha256(data).to_hex(), hex, "scalar");
    }

    #[test]
    fn empty_string_vector() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        // FIPS 180-4 test vector for a 448-bit message (forces padding
        // into a second block).
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&data);
        assert_eq!(scalar_sha256(&data), expect);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
            let mut h = Sha256::new();
            h.update_with(&data[..split], compress_scalar);
            h.update_with(&data[split..], compress_scalar);
            assert_eq!(
                h.finalize_with(compress_scalar),
                expect,
                "scalar split at {split}"
            );
        }
    }

    dlt_testkit::prop! {
        fn dispatched_compress_matches_scalar(g, cases = 256) {
            let start: [u32; 8] = std::array::from_fn(|_| g.any_u64() as u32);
            let (mut fast, mut slow) = (start, start);
            // Chain several calls of one to four blocks each, so later
            // calls start from states the kernels produced.
            for _ in 0..g.usize_in(1, 5) {
                let len = 64 * g.usize_in(1, 5);
                let bytes = g.vec_of(len, |g| g.any_u8());
                let (blocks, _) = bytes.as_chunks::<64>();
                compress(&mut fast, blocks);
                compress_scalar(&mut slow, blocks);
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn double_hash_is_hash_of_hash() {
        let d = double_sha256(b"block");
        assert_eq!(d, sha256(sha256(b"block").as_bytes()));
    }

    #[test]
    fn concat_matches_manual() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        let mut buf = Vec::new();
        buf.extend_from_slice(a.as_bytes());
        buf.extend_from_slice(b.as_bytes());
        assert_eq!(sha256_concat(&a, &b), sha256(&buf));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Known-answer computation via streaming consistency: lengths
        // 55, 56, 57, 63, 64, 65 hit every padding branch.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let one = sha256(&data);
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }
}

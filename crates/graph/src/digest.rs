//! 64-bit FNV-1a, the workspace's one non-cryptographic hash.
//!
//! It keys the daemon's result cache and poison list, folds fault-plan
//! site names into their RNG streams, checksums the chaos report's
//! partitions, and folds test outputs into golden digests. FNV-1a is
//! byte-serial and dependency-free, and its bits are fixed by the
//! published offset basis and prime, so a digest committed today still
//! holds on any host tomorrow.
//!
//! [`Fnv1a::bytes`] is the raw byte fold. The typed writers fix an
//! encoding that does not depend on the element type: [`Fnv1a::u64`]
//! writes 8 little-endian bytes, [`Fnv1a::f64`] writes a float's bits,
//! and [`Fnv1a::words`] writes a slice's length and then every element
//! widened to `u64`, so equal values fold to equal digests whatever
//! their integer type.

use crate::csr::CsrGraph;

/// The FNV-1a-64 offset basis: the state of an empty hash.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a-64 prime.
const PRIME: u64 = 0x100_0000_01b3;

/// An FNV-1a-64 hash state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// An empty hash (state = offset basis).
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Resume from a state `h`: a finished hash, or a caller's own seed.
    pub const fn from_state(h: u64) -> Self {
        Fnv1a(h)
    }

    /// Fold raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Fold a `u64` as 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a float's bit pattern.
    #[inline]
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// Fold a string: its length, then its bytes.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Fold a slice: its length, then every element as a `u64`.
    pub fn words<W: Copy + Into<u64>>(&mut self, words: &[W]) -> &mut Self {
        self.u64(words.len() as u64);
        for &w in words {
            self.u64(w.into());
        }
        self
    }

    /// Fold a CSR graph's four arrays.
    pub fn graph(&mut self, g: &CsrGraph) -> &mut Self {
        self.words(&g.xadj).words(&g.adjncy).words(&g.adjwgt).words(&g.vwgt)
    }

    /// The current state.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn folds_compose_and_resume() {
        let whole = fnv1a(b"foobar");
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        assert_eq!(Fnv1a::from_state(h.finish()).bytes(b"bar").finish(), whole);
        assert_eq!(Fnv1a::new().u64(7).finish(), fnv1a(&7u64.to_le_bytes()));
        assert_eq!(Fnv1a::new().f64(1.5).finish(), Fnv1a::new().u64(1.5f64.to_bits()).finish());
    }

    #[test]
    fn words_are_width_independent_and_length_prefixed() {
        assert_eq!(
            Fnv1a::new().words(&[1u32, 2, 3]).finish(),
            Fnv1a::new().words(&[1u64, 2, 3]).finish()
        );
        let split = Fnv1a::new().words(&[1u32]).words(&[2u32, 3]).finish();
        let joined = Fnv1a::new().words(&[1u32, 2]).words(&[3u32]).finish();
        assert_ne!(split, joined);
    }
}

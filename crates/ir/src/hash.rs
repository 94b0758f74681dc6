//! Stable content hashing for incremental analysis.
//!
//! The serve layer keys cached per-procedure summaries by the *content*
//! of the text that produced them, so the hash must be stable across
//! processes and platform word sizes — `std::hash` makes no such promise
//! (and `DefaultHasher` is explicitly randomized between releases). This
//! is FNV-1a over 128 bits: tiny, dependency-free, and wide enough that
//! accidental collisions between cache keys are not a practical concern
//! for the cache sizes a daemon holds (birthday bound ≈ 2^64 entries).
//!
//! Not cryptographic: a *malicious* client that controls procedure text
//! could engineer collisions. The daemon trusts its clients with the
//! program text anyway (they can ask for any analysis of it), so the
//! cache key only needs to be an accident-proof fingerprint.

use std::fmt;

/// Incremental 128-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv128 {
    state: u128,
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string's bytes followed by a `0xFF` terminator, so
    /// adjacent strings cannot alias across their boundary (`"ab" + "c"`
    /// vs `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xFF]);
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a previously computed digest (for Merkle-style combining).
    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// One-shot digest of a string.
pub fn hash_str(s: &str) -> u128 {
    let mut h = Fnv128::new();
    h.write_str(s);
    h.finish()
}

/// An [`fmt::Write`] sink that hashes the text written to it: its
/// [`TextHash::finish`] is the [`hash_str`] of that text, so a printer
/// can key what it prints without keeping it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TextHash(Fnv128);

impl TextHash {
    /// The digest of the text written so far, terminated as
    /// [`Fnv128::write_str`] terminates a string.
    pub(crate) fn finish(mut self) -> u128 {
        self.0.write_str("");
        self.0.finish()
    }
}

impl fmt::Write for TextHash {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// One-shot digest of a byte slice — the checksum primitive of the serve
/// summary store (per-record and whole-file integrity, not security; see
/// the module docs for the trust model).
pub fn hash_bytes(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(Fnv128::new().finish(), FNV_OFFSET);
        // Stable across calls and instances.
        assert_eq!(hash_str("proc main() { }"), hash_str("proc main() { }"));
    }

    #[test]
    fn distinguishes_content() {
        assert_ne!(hash_str("proc f(a) { }"), hash_str("proc f(b) { }"));
        assert_ne!(hash_str(""), hash_str(" "));
    }

    #[test]
    fn string_boundaries_do_not_alias() {
        let mut a = Fnv128::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv128::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_digest_matches_incremental_writes() {
        let mut h = Fnv128::new();
        h.write(b"abc");
        assert_eq!(hash_bytes(b"abc"), h.finish());
        let mut w32 = Fnv128::new();
        w32.write_u32(0x0403_0201);
        assert_eq!(hash_bytes(&[1, 2, 3, 4]), w32.finish());
    }

    #[test]
    fn merkle_combining_is_order_sensitive() {
        let (x, y) = (hash_str("x"), hash_str("y"));
        let mut a = Fnv128::new();
        a.write_u128(x);
        a.write_u128(y);
        let mut b = Fnv128::new();
        b.write_u128(y);
        b.write_u128(x);
        assert_ne!(a.finish(), b.finish());
    }
}

//! Stable content hashing for compile-cache keys.
//!
//! The compilation service (`twoqan-service`) keys its cache by a content
//! hash of everything that determines a compile's output: the canonicalized
//! workload circuit, the device topology and gate set, the calibration
//! (`Target`) snapshot, and the compiler's configuration fingerprint.  That
//! hash must be *stable* — the same inputs must produce the same key across
//! runs, processes and releases — so `std::hash` (randomly seeded, layout
//! dependent) is off the table.  [`ContentHasher`] is a 128-bit FNV-1a over
//! an explicit byte encoding: every `write_*` method appends a fixed,
//! documented byte sequence, and compound writers length-prefix variable
//! data so adjacent fields can never alias (e.g. `("ab", "c")` vs
//! `("a", "bc")`).
//!
//! 128 bits keeps accidental collisions out of reach for any realistic
//! cache population (billions of distinct keys are ~2⁻⁶⁴ likely to
//! collide); the sharded cache uses the top bits for shard selection.

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;
/// 64-bit FNV-1a offset basis.
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
/// 64-bit FNV-1a prime.
const FNV64_PRIME: u64 = 0x00000100000001b3;

/// An incremental, seed-free, platform-independent 128-bit FNV-1a hasher.
///
/// Unlike `std::collections::hash_map::DefaultHasher` the digest depends
/// only on the bytes written, so it is safe to persist and compare across
/// processes — exactly what a content-addressed compile cache needs.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        ContentHasher {
            state: FNV128_OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs a `u8` tag (e.g. a gate-kind discriminant).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to `u64` so 32- and 64-bit builds agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by its exact IEEE-754 bit pattern.  Bit-identical
    /// calibration values — and only those — hash identically; `-0.0` and
    /// `0.0` deliberately differ, as do distinct NaN payloads.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed `f64` slice.
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// Stable 64-bit FNV-1a of a string — the building block for
/// [`crate::Compiler::cache_fingerprint`] implementations.
pub fn fnv1a_64(s: &str) -> u64 {
    let mut state = FNV64_OFFSET;
    for &b in s.as_bytes() {
        state ^= b as u64;
        state = state.wrapping_mul(FNV64_PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_hashers() {
        let digest = |f: &dyn Fn(&mut ContentHasher)| {
            let mut h = ContentHasher::new();
            f(&mut h);
            h.finish()
        };
        let a = digest(&|h| {
            h.write_bytes(b"qap");
            h.write_f64(1.5);
        });
        let b = digest(&|h| {
            h.write_bytes(b"qap");
            h.write_f64(1.5);
        });
        assert_eq!(a, b);
        assert_ne!(
            a,
            digest(&|h| {
                h.write_bytes(b"qap");
                h.write_f64(1.5000001);
            })
        );
    }

    #[test]
    fn known_fnv1a_64_vectors() {
        // Reference vectors for the standard 64-bit FNV-1a parameters.
        assert_eq!(fnv1a_64(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let mut h1 = ContentHasher::new();
        h1.write_f64_slice(&[1.0, 2.0]);
        h1.write_f64_slice(&[3.0]);
        let mut h2 = ContentHasher::new();
        h2.write_f64_slice(&[1.0]);
        h2.write_f64_slice(&[2.0, 3.0]);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn f64_hashing_is_bit_exact() {
        let mut pos = ContentHasher::new();
        pos.write_f64(0.0);
        let mut neg = ContentHasher::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }
}

//! A stable, in-repo FNV-1a hasher for persistent fingerprints.
//!
//! `std::collections::hash_map::DefaultHasher` is only specified to be
//! deterministic *within one compiler release* — its algorithm (SipHash
//! with fixed keys today) is explicitly allowed to change between Rust
//! versions. Any fingerprint that leaves the process (the session snapshot
//! format's group/data/DAG fingerprints) must therefore not depend on it:
//! a toolchain upgrade would silently degrade every existing snapshot to a
//! partial warm start.
//!
//! [`frame_fingerprint`] is the whole-frame digest built on it.
//!
//! [`FnvHasher`] is the 64-bit Fowler–Noll–Vo 1a function, implemented
//! here so its output is fixed forever:
//!
//! * the byte-stream digest depends only on the fed bytes;
//! * all multi-byte integer feeds use little-endian encoding explicitly,
//!   so the digest is also identical across platforms;
//! * strings are fed as `length ‖ bytes` ([`FnvHasher::write_str_stable`])
//!   so concatenation ambiguities (`"ab","c"` vs `"a","bc"`) cannot
//!   collide.
//!
//! It also implements [`std::hash::Hasher`] for drop-in use with in-process
//! hash maps, but persistent fingerprints should stick to the explicit
//! `*_stable` feeding methods: the `Hash` **trait**'s mapping from values
//! to `write` calls is itself not guaranteed stable across std versions.

use crate::{Column, DataFrame};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a digest. See the [module docs](self) for why
/// this exists next to `DefaultHasher`.
///
/// # Examples
///
/// ```
/// use faircap_table::fnv::{fnv1a, FnvHasher};
///
/// let mut h = FnvHasher::new();
/// h.write_bytes(b"faircap");
/// assert_eq!(h.finish64(), fnv1a(b"faircap"));
/// // The digest is a constant of the algorithm, not of the toolchain.
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET_BASIS)
    }
}

impl FnvHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut state = self.0;
        for &b in bytes {
            state ^= u64::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.0 = state;
    }

    /// Feed one byte.
    pub fn write_u8_stable(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feed a `u64` as its 8 little-endian bytes (platform-independent).
    pub fn write_u64_stable(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feed an `i64` as its 8 little-endian two's-complement bytes.
    pub fn write_i64_stable(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feed a string as `length ‖ UTF-8 bytes`, making consecutive string
    /// feeds unambiguous.
    pub fn write_str_stable(&mut self, s: &str) {
        self.write_u64_stable(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current digest.
    pub fn finish64(&self) -> u64 {
        self.0
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }

    // Fix the integer feeds to little-endian so even trait-based use is
    // platform-independent (the default impls feed native-endian bytes).
    fn write_u64(&mut self, v: u64) {
        self.write_u64_stable(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64_stable(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u8_stable(v);
    }
}

/// One-shot FNV-1a digest of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::new();
    h.write_bytes(bytes);
    h.finish64()
}

/// FNV-1a digest of an entire frame: the row count, then per column its
/// name, dtype and every cell (floats as IEEE-754 bits, categorical cells
/// as their level strings). Equal digests ⇔ bit-identical data. It is the
/// one frame digest of the workspace: scenario reproducibility checks and
/// session snapshots both validate data against it.
pub fn frame_fingerprint(df: &DataFrame) -> u64 {
    let mut h = FnvHasher::new();
    h.write_u64_stable(df.n_rows() as u64);
    for name in df.names() {
        h.write_str_stable(name);
        match df.column(name).expect("name comes from the frame") {
            Column::Int(v) => {
                h.write_str_stable("int");
                for &x in v {
                    h.write_i64_stable(x);
                }
            }
            Column::Float(v) => {
                h.write_str_stable("float");
                for &x in v {
                    h.write_u64_stable(x.to_bits());
                }
            }
            Column::Bool(v) => {
                h.write_str_stable("bool");
                for &x in v {
                    h.write_u8_stable(u8::from(x));
                }
            }
            Column::Cat(c) => {
                h.write_str_stable("cat");
                for &code in c.codes() {
                    h.write_str_stable(c.value_of(code));
                }
            }
        }
    }
    h.finish64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = FnvHasher::new();
        h.write_bytes(b"foo");
        h.write_bytes(b"bar");
        assert_eq!(h.finish64(), fnv1a(b"foobar"));
    }

    #[test]
    fn string_feed_is_length_prefixed() {
        let digest = |parts: &[&str]| {
            let mut h = FnvHasher::new();
            for p in parts {
                h.write_str_stable(p);
            }
            h.finish64()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_ne!(digest(&["ab"]), digest(&["ab", ""]));
    }

    #[test]
    fn integer_feeds_are_little_endian() {
        let mut h = FnvHasher::new();
        h.write_u64_stable(0x0102_0304_0506_0708);
        assert_eq!(
            h.finish64(),
            fnv1a(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }

    #[test]
    fn hasher_trait_matches_stable_methods() {
        use std::hash::Hasher;
        let mut a = FnvHasher::new();
        Hasher::write_u64(&mut a, 42);
        let mut b = FnvHasher::new();
        b.write_u64_stable(42);
        assert_eq!(a.finish(), b.finish64());
    }
}

//! One fast hasher for the small keys the IR kernels hash: registers,
//! statement positions and [value keys](crate::value_key::ValueKey), and one
//! stable byte hash ([`fnv64`]) for everything that is persisted or seeds a
//! random stream.
//!
//! The standard library's default is a randomly seeded SipHash, built to
//! resist hash flooding by untrusted keys. The analyses and passes hash
//! register numbers and IR structure they built themselves, tens of thousands
//! of times per study, so they use this multiply-rotate hasher (the scheme
//! `rustc` uses internally) instead. It is deterministic across processes; no
//! iteration order of these maps reaches any pass output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for integer-like keys; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a of `bytes`: stable across processes, platforms and
/// toolchains (unlike `DefaultHasher`, whose algorithm is unspecified). The
/// warm-start snapshots' schedule hash and shard checksums, the compile
/// service's source names and the seeded measurement streams all use it.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_deterministic_and_spread_small_keys() {
        let build = FxBuildHasher::default();
        assert_eq!(
            build.hash_one(7u32),
            FxBuildHasher::default().hash_one(7u32)
        );
        let mut seen = FxHashSet::default();
        for reg in 0u32..1024 {
            assert!(seen.insert(build.hash_one(reg) & 0x3ff_ffff));
        }
        // Byte slices hash by content, tail included.
        assert_ne!(build.hash_one(b"abcdefghi"), build.hash_one(b"abcdefghj"));
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

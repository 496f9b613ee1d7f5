//! Address hashing for the runtime's per-address maps.
//!
//! Every registration probes a map keyed by the program's own data
//! addresses (the wait-free system's [`crate::task::BottomMap`], the
//! locking system's shard queues): a heat-stencil spawn does about a
//! dozen such probes. The replay graph builder's freeze sweep probes
//! one per recorded access. The std default, SipHash-1-3, resists
//! adversarially chosen keys — which addresses the program declares on
//! its own data are not — at several times the cost of one multiply.
//!
//! [`AddrHasher`] is a folded multiply: each word is XOR-ed into the
//! state and the 128-bit product with an odd constant is folded back to
//! 64 bits (high half XOR low half). The fold matters: a plain
//! multiplicative (Fx) hash of a page-aligned address has its low 12
//! bits all zero, and hashbrown takes the bucket index from the low bits
//! and the control tag from the top 7 — both halves must vary with every
//! address bit.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// Odd multiplier (the 64-bit golden-ratio constant).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Folded-multiply hasher for address-keyed maps (see the module doc).
#[derive(Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = fold_mul(self.0 ^ v, MUL);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`AddrHasher`].
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::BuildHasher;
    use std::collections::HashSet;

    fn hash(v: usize) -> u64 {
        BuildHasherDefault::<AddrHasher>::default().hash_one(v)
    }

    /// 2^16 addresses at each stride a program plausibly declares
    /// (scalars, cache-line blocks, pages, huge blocks): the bucket-index
    /// bits and the control-tag bits must both spread. An identity-like
    /// hash fails the page and MiB strides on the low bits.
    #[test]
    fn spreads_index_and_tag_bits_at_aligned_strides() {
        const N: usize = 1 << 16;
        let base = 0x7f3a_0000_0000usize;
        for stride in [8usize, 64, 4 << 10, 1 << 20] {
            let mut low = HashSet::new();
            let mut tag = HashSet::new();
            for i in 0..N {
                let h = hash(base + i * stride);
                low.insert(h & 0xffff);
                tag.insert(h >> 57);
            }
            assert!(
                low.len() >= 1 << 12,
                "stride {stride}: low 16 bits take only {} values",
                low.len()
            );
            assert_eq!(tag.len(), 1 << 7, "stride {stride}: top 7 bits");
        }
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash(0x1000), hash(0x1000));
        assert_ne!(hash(0x1000), hash(0x2000));
        let mut a = AddrHasher::default();
        a.write_usize(1);
        a.write_usize(2);
        let mut b = AddrHasher::default();
        b.write_usize(2);
        b.write_usize(1);
        assert_ne!(a.finish(), b.finish(), "tuple halves are ordered");
    }

    #[test]
    fn map_round_trip() {
        let mut m: AddrMap<usize, usize> = AddrMap::default();
        for i in 0..10_000usize {
            assert!(m.insert(i << 12, i).is_none());
        }
        for i in 0..10_000usize {
            assert_eq!(m.get(&(i << 12)), Some(&i));
        }
        assert_eq!(m.get(&1), None);
        let mut pairs: AddrMap<(usize, usize), u32> = AddrMap::default();
        pairs.insert((1, 0x40), 7);
        pairs.insert((0x40, 1), 9);
        assert_eq!(pairs[&(1, 0x40)], 7);
        assert_eq!(pairs[&(0x40, 1)], 9);
    }
}

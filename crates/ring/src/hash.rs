//! Id-keyed hash containers: [`IdMap`] and [`IdSet`] are std's `HashMap`
//! and `HashSet` over [`IdBuild`], a keyed hasher for integer ids.
//!
//! Overlay nodes probe `u64`-keyed tables on every message: payload ids,
//! member ids, request ids, the id → actor directory. std's default
//! SipHash-1-3 costs more than the rest of such a probe. [`IdHasher`]
//! hashes a `u64` with one folded 64×64→128-bit multiply, so every input
//! bit reaches the low (bucket) and high (tag) bits of the hash. The
//! multiply's input is XORed with a per-process secret key drawn once from
//! std's `RandomState`: payload ids arrive off the wire, and a peer that
//! chooses them but holds no key material cannot aim them at one bucket.
//!
//! Hash order therefore differs between processes. It never leaks: nothing
//! under `crates/` iterates a hash container without sorting first, and
//! the lints that enforce this see through the hasher type parameter
//! (DESIGN.md §3c).
//!
//! Ids that differ only in their low [`RUN_BITS`] bits form a *run*. The
//! multiply places the run's home, 16 adjacent buckets; the low bits pick
//! the bucket inside it, and the top (tag) bits, which std's SwissTable
//! compares before any key. Counter-assigned ids (payloads, requests)
//! arrive in runs and every node keeps them for good, so a fully random
//! placement costs one cache and TLB miss per insert into a table far
//! larger than the cache; runs touch one home per 16 ids. A run fills at
//! most its home, which is the 16-byte control group one SSE2 probe
//! reads, so a peer that picks ids inside runs gains no collisions.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by integer ids, hashed with [`IdBuild`].
pub type IdMap<K, V> = HashMap<K, V, IdBuild>;

/// A `HashSet` of integer ids, hashed with [`IdBuild`].
pub type IdSet<K> = HashSet<K, IdBuild>;

/// The multiplier of the fold: odd, and the best worst case of a search
/// over 4,000 random candidates. The 4,096 keys `k << s`, for any `s` in
/// `0..=52` and each of 1,000 random process keys, fill at least 53 % of
/// the 4,096 low-12-bit buckets; consecutive keys (`s = 0`) fill at least
/// 63 % (a uniform hash fills 63 %).
const MUL: u64 = 0x6892_5370_BE18_119D;

/// Low id bits that pick a bucket inside the run's home (see the module
/// docs): 16 buckets, one SSE2 control group.
const RUN_BITS: u32 = 4;
const LANE: u64 = (1 << RUN_BITS) - 1;

/// The high and low halves of `v · MUL`, XORed: bit `i` of `v` moves the
/// low half from bit `i` up and the high half throughout, so keys that
/// differ only in their top bits still land in different buckets.
#[inline]
fn fold_mul(v: u64) -> u64 {
    let p = u128::from(v) * u128::from(MUL);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Builds [`IdHasher`]s that share this process's secret key.
#[derive(Clone, Copy)]
pub struct IdBuild {
    key: u64,
}

impl Default for IdBuild {
    /// The process-wide key, drawn on first use.
    #[inline]
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        let key = *KEY.get_or_init(|| {
            #[expect(
                clippy::disallowed_types,
                reason = "the one key draw: it only salts bucket placement, and no code \
                          path observes hash order (every iteration is sorted first)"
            )]
            let entropy = std::collections::hash_map::RandomState::new();
            entropy.hash_one(0u64)
        });
        IdBuild { key }
    }
}

impl BuildHasher for IdBuild {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            state: 0,
            key: self.key,
        }
    }
}

/// The hasher [`IdBuild`] builds: one folded multiply per 64-bit word.
pub struct IdHasher {
    state: u64,
    key: u64,
}

impl Hasher for IdHasher {
    /// The run (`v` above its lane) goes through the fold; the lane is
    /// XORed into the bucket bits and the tag bits.
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let v = self.state ^ x ^ self.key;
        let lane = v & LANE;
        self.state = fold_mul(v >> RUN_BITS) ^ lane ^ (lane << (64 - RUN_BITS));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Any other input is hashed as little-endian 64-bit words, the last
    /// one zero-padded: correct for every key type, tuned for none (byte
    /// strings that differ only in trailing zeros collide).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of the 4,096 buckets a 4,096-slot table indexes by the low
    /// 12 bits of the hash receive at least one of `keys`. A uniform hash
    /// fills ~63 % of them.
    fn buckets_hit(hash: impl Fn(u64) -> u64, keys: impl Iterator<Item = u64>) -> usize {
        let mut hit = vec![false; 4096];
        for k in keys {
            hit[(hash(k) & 0xfff) as usize] = true;
        }
        hit.iter().filter(|&&h| h).count()
    }

    const MOST: usize = 2048;

    /// Fixed stand-ins for the process key, so the spread tests check
    /// the same placements on every run.
    fn sample_keys() -> impl Iterator<Item = IdBuild> {
        (1..=16u64).map(|i| IdBuild {
            key: fold_mul(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        })
    }

    #[test]
    fn sequential_and_high_bit_keys_spread_over_the_buckets() {
        for build in sample_keys() {
            let id_hash = |k: u64| build.hash_one(k);
            for shift in 0..=52 {
                let hit = buckets_hit(id_hash, (0..4096).map(|k| k << shift));
                assert!(hit > MOST, "keys k << {shift} hit only {hit} buckets");
            }
        }
        // The high-bit set has teeth: a multiply-only hash (rustc's Fx)
        // never moves a bit downwards, so it piles those keys into one
        // bucket.
        let fx = |k: u64| k.wrapping_mul(0x517c_c1b7_2722_0a95);
        assert!(buckets_hit(fx, 0..4096) > MOST);
        assert_eq!(buckets_hit(fx, (0..4096).map(|k| k << 40)), 1);
    }

    #[test]
    fn a_run_of_ids_fills_one_home_with_distinct_tags() {
        for build in sample_keys() {
            for start in [0u64, 16, 4_096, 1 << 40, u64::MAX - 15] {
                let hashes: Vec<u64> =
                    (start..=start + 15).map(|k| build.hash_one(k)).collect();
                let homes: IdSet<u64> = hashes.iter().map(|h| h & 0xffff_fff0).collect();
                let lanes: IdSet<u64> = hashes.iter().map(|h| h & 0xf).collect();
                let tags: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
                assert_eq!(homes.len(), 1, "run at {start} split over homes");
                assert_eq!(lanes.len(), 16, "run at {start} shares a bucket");
                assert_eq!(tags.len(), 16, "run at {start} shares a tag");
            }
        }
    }

    #[test]
    fn the_key_is_one_per_process() {
        let here = IdBuild::default().hash_one(7u64);
        assert_eq!(IdBuild::default().hash_one(7u64), here);
        let there = std::thread::spawn(|| IdBuild::default().hash_one(7u64))
            .join()
            .expect("hashing thread");
        assert_eq!(there, here);
    }

    #[test]
    fn usize_and_tuple_keys_hash_correctly() {
        let mut slots: IdMap<usize, usize> = IdMap::default();
        for i in 0..10_000 {
            slots.insert(i << 3, i);
        }
        assert_eq!(slots.len(), 10_000);
        assert!((0..10_000).all(|i| slots.get(&(i << 3)) == Some(&i)));
        assert_eq!(slots.get(&1), None);

        let build = IdBuild::default();
        let pairs: Vec<(u64, u64)> =
            (0..64).flat_map(|a| (0..64).map(move |b| (a, b))).collect();
        let pair_hash = |i: u64| build.hash_one(pairs[i as usize]);
        assert!(buckets_hit(pair_hash, 0..4096) > MOST);
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
        let set: IdSet<(u64, u64)> = pairs.iter().copied().collect();
        assert_eq!(set.len(), pairs.len());
        assert!(pairs.iter().all(|p| set.contains(p)));
    }
}

//! The one hash partitioner of the storage layer.
//!
//! Several components split keyed work across a small number of buckets:
//! [`crate::SharedPageCache`] maps buffer keys onto frame shards, and the
//! R\*-tree's sharded persistence maps subtree indices (and stray pages)
//! onto physical page files. Both need the same Fibonacci-hashing trick,
//! and two copies could drift apart; this module is the single definition.
//!
//! The scheme multiplies by the 64-bit golden-ratio constant and takes the
//! high bits — cheap, deterministic across platforms (everything is
//! wrapping integer arithmetic), and well-spread even for the dense
//! sequential keys the page allocators produce.

use crate::lru::BufKey;

/// 2⁶⁴ / φ, the Fibonacci-hashing multiplier.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Maps `key` to a bucket in `0..buckets`.
///
/// # Panics
///
/// Panics if `buckets` is zero.
#[inline]
pub fn partition(key: u64, buckets: usize) -> usize {
    assert!(buckets > 0, "cannot partition into zero buckets");
    let h = key.wrapping_mul(GOLDEN);
    (h >> 32) as usize % buckets
}

/// [`partition`] over a buffer key, packing `(store, page)` into the
/// 64-bit hash input the way the shared buffer pool always has.
#[inline]
pub fn partition_key(key: BufKey, buckets: usize) -> usize {
    partition(
        (u64::from(key.store) << 32) | u64::from(key.page.0),
        buckets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    #[test]
    fn stays_in_range_and_is_deterministic() {
        for buckets in [1usize, 2, 3, 8, 255] {
            for key in 0..1000u64 {
                let b = partition(key, buckets);
                assert!(b < buckets);
                assert_eq!(b, partition(key, buckets), "must be a pure function");
            }
        }
    }

    #[test]
    fn one_bucket_takes_everything() {
        for key in [0u64, 1, u64::MAX, 0x9e37_79b9] {
            assert_eq!(partition(key, 1), 0);
        }
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        // Page allocators hand out dense sequential ids; the partitioner
        // must not collapse them onto a few buckets.
        let buckets = 8;
        let mut counts = vec![0usize; buckets];
        for key in 0..800u64 {
            counts[partition(key, buckets)] += 1;
        }
        for (b, &n) in counts.iter().enumerate() {
            assert!(
                (50..=150).contains(&n),
                "bucket {b} got {n} of 800 sequential keys"
            );
        }
    }

    #[test]
    fn buf_keys_distinguish_stores() {
        // Same page id in different stores must be free to land apart —
        // the packing puts the store in the high half.
        let a = (u64::from(0u8) << 32) | 7;
        let b = (u64::from(1u8) << 32) | 7;
        assert_ne!(a, b);
        assert_eq!(
            partition_key(BufKey::new(0, PageId(7)), 64),
            partition(a, 64)
        );
        assert_eq!(
            partition_key(BufKey::new(1, PageId(7)), 64),
            partition(b, 64)
        );
    }
}

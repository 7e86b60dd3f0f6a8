//! Property test: [`BufferPool`] against a naive LRU.
//!
//! `OracleEngine` shares `BufferPool` with the fast engine, so
//! `engine_equivalence` cannot see a pool divergence. This test can: the
//! reference is an ordered `Vec` of `(page, dirty)` pairs, least recently
//! used first, and every operation's result — each `Access`, `used()`,
//! the hit and miss counters, and the dirty pages evicted, in order — must
//! agree. The page streams cover the page-indexed layout's edge cases:
//! pages inside one chunk, pages straddling chunk boundaries, sparse ids
//! (`k << 40`), ids next to `u64::MAX`; capacity 0, shrinking to 0 and
//! regrowing; dirtying re-accesses and re-inserts of resident pages.

use dasr_engine::bufferpool::{Access, BufferPool, CHUNK};
use proptest::prelude::*;

/// The naive reference: a list of `(page, dirty)`, LRU first.
struct NaiveLru {
    capacity: usize,
    pages: Vec<(u64, bool)>,
    hits: u64,
    misses: u64,
}

impl NaiveLru {
    fn position(&self, page: u64) -> Option<usize> {
        self.pages.iter().position(|&(p, _)| p == page)
    }

    /// Moves entry `i` to the MRU end, dirtying it if `dirty`.
    fn touch(&mut self, i: usize, dirty: bool) {
        let (page, was_dirty) = self.pages.remove(i);
        self.pages.push((page, was_dirty || dirty));
    }

    fn evict_to_capacity(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        while self.pages.len() > self.capacity {
            let (page, is_dirty) = self.pages.remove(0);
            if is_dirty {
                dirty.push(page);
            }
        }
        dirty
    }

    fn access(&mut self, page: u64, write: bool) -> Access {
        match self.position(page) {
            Some(i) => {
                self.hits += 1;
                self.touch(i, write);
                Access::Hit
            }
            None => {
                self.misses += 1;
                Access::Miss
            }
        }
    }

    fn insert(&mut self, page: u64, dirty: bool) -> Vec<u64> {
        match self.position(page) {
            Some(i) => self.touch(i, dirty),
            None => self.pages.push((page, dirty)),
        }
        self.evict_to_capacity()
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<u64> {
        self.capacity = capacity;
        self.evict_to_capacity()
    }
}

#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// A bare access (hit or miss, no fill).
    Access(u64, bool),
    /// The engine's pattern: access, then insert after the "disk read" on
    /// a miss.
    Fetch(u64, bool),
    /// An insert regardless of residency (re-inserts touch and may dirty).
    Insert(u64, bool),
    SetCapacity(usize),
}

/// Page ids drawn from a few small families, so pages recur often enough
/// to hit, dirty, re-insert and evict one another.
fn arb_page() -> impl Strategy<Value = u64> {
    let chunk = CHUNK as u64;
    prop_oneof![
        // One chunk.
        0u64..24,
        // Straddling the boundaries of the first chunks.
        (1u64..4, 0u64..8).prop_map(move |(k, d)| k * chunk - 4 + d),
        // Sparse: one page per far-apart chunk.
        (0u64..4, 0u64..3).prop_map(|(k, d)| (k << 40) + d),
        // The top of the id space.
        (0u64..6).prop_map(|d| u64::MAX - d),
    ]
}

fn arb_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (arb_page(), any::<bool>()).prop_map(|(p, w)| PoolOp::Access(p, w)),
        (arb_page(), any::<bool>()).prop_map(|(p, w)| PoolOp::Fetch(p, w)),
        (arb_page(), any::<bool>()).prop_map(|(p, w)| PoolOp::Fetch(p, w)),
        (arb_page(), any::<bool>()).prop_map(|(p, d)| PoolOp::Insert(p, d)),
        prop_oneof![0usize..1, 1usize..12].prop_map(PoolOp::SetCapacity),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every result of every operation matches the naive LRU.
    #[test]
    fn buffer_pool_matches_naive_lru(
        capacity in prop_oneof![0usize..1, 1usize..10],
        ops in prop::collection::vec(arb_op(), 1..300),
    ) {
        let mut pool = BufferPool::new(capacity);
        let mut naive = NaiveLru { capacity, pages: Vec::new(), hits: 0, misses: 0 };
        let mut dirty = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                PoolOp::Access(page, write) => {
                    prop_assert_eq!(pool.access(page, write), naive.access(page, write), "step {step}: {op:?}");
                }
                PoolOp::Fetch(page, write) => {
                    let got = pool.access(page, write);
                    prop_assert_eq!(got, naive.access(page, write), "step {step}: {op:?}");
                    if got == Access::Miss {
                        pool.insert(page, write, &mut dirty);
                        prop_assert_eq!(&dirty, &naive.insert(page, write), "step {step}: {op:?}");
                    }
                }
                PoolOp::Insert(page, is_dirty) => {
                    pool.insert(page, is_dirty, &mut dirty);
                    prop_assert_eq!(&dirty, &naive.insert(page, is_dirty), "step {step}: {op:?}");
                }
                PoolOp::SetCapacity(capacity) => {
                    pool.set_capacity(capacity, &mut dirty);
                    prop_assert_eq!(&dirty, &naive.set_capacity(capacity), "step {step}: {op:?}");
                }
            }
            prop_assert_eq!(pool.used(), naive.pages.len(), "step {step}: {op:?}");
            prop_assert_eq!(pool.hits(), naive.hits);
            prop_assert_eq!(pool.misses(), naive.misses);
        }
        // Shrinking to 0 evicts everything: the dirty victims agree in
        // LRU order.
        pool.set_capacity(0, &mut dirty);
        prop_assert_eq!(&dirty, &naive.set_capacity(0));
        prop_assert_eq!(pool.used(), 0);
    }
}

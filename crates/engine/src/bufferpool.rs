//! LRU buffer pool with ballooning support.
//!
//! The buffer pool caches data pages in the container's memory. Accesses hit
//! (free) or miss (one disk read); evicted dirty pages cost a background
//! disk write. Capacity follows the container's memory allocation, and
//! **ballooning** (§4.3) shrinks capacity gradually so the engine can
//! observe whether the working set still fits — the paper's mechanism for
//! safely probing low memory demand.
//!
//! ## Layout: page-indexed LRU nodes
//!
//! Page ids are grouped into aligned *chunks* of [`CHUNK`] consecutive ids.
//! A chunk with at least one resident page owns `CHUNK` LRU nodes (`prev`,
//! `next`, state absent / clean / dirty — 12 bytes each) in one arena, so a
//! page's node sits at a fixed place, `chunk_base + (page & (CHUNK - 1))`,
//! and the intrusive doubly-linked LRU list runs through those nodes. A
//! small directory maps `page >> CHUNK_BITS` to the chunk's arena slot:
//! `PageMap`, an open-addressed table with a Fibonacci (FxHash-style)
//! multiplicative hash and linear probing. Workloads place their hot sets
//! at low, contiguous page ids, so even a 400 k-page pool needs a few
//! hundred directory entries and the probe stays in cache: a hit costs one
//! node access instead of a page-keyed map probe plus a node access, and an
//! eviction only marks its node absent.
//!
//! **Memory is bounded by resident pages, never by page ids seen.** Each
//! chunk counts its resident pages; when the last one leaves, the chunk
//! leaves the directory and its arena slot goes to a free list for the next
//! new chunk. A new page is admitted only after the evictions it causes, so
//! the arena never holds more chunks than the highest capacity the pool
//! had. Eviction results are written into caller-owned scratch buffers, so
//! steady-state operation never allocates.

const NONE: u32 = u32::MAX;

/// Multiplier for Fibonacci hashing: `2^64 / φ`, rounded to odd. The high
/// bits of `page * FIB` are close to uniform for consecutive or strided
/// page ids, which is exactly the access pattern workloads generate.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// `log2` of the pages per chunk. Measured from 2^8 to 2^12 on the e2e
/// fleet-day (EXPERIMENTS.md, "Engine request path").
const CHUNK_BITS: u32 = 8;
/// Pages per chunk: the arena grows and recycles in units of this many
/// nodes.
pub const CHUNK: usize = 1 << CHUNK_BITS;
/// `page & OFFSET` is a page's node offset inside its chunk.
const OFFSET: u64 = CHUNK as u64 - 1;
/// Chunk slots addressable by `u32` node indices with `NONE` left free.
const MAX_CHUNKS: usize = (u32::MAX >> CHUNK_BITS) as usize;

/// Open-addressed `u64 → u32` index with linear probing and backward-shift
/// deletion. The sentinel for an empty slot lives in the *value* array
/// (`u32::MAX`, never a valid slot index), so any `u64` is a legal key.
///
/// Grows at 75% load; never shrinks (the pool's chunk count is bounded by
/// its largest capacity, and resizes reuse the high-water allocation).
#[derive(Debug)]
struct PageMap {
    keys: Vec<u64>,
    /// Value per slot, or `NONE` when the slot is empty.
    vals: Vec<u32>,
    mask: usize,
    /// `64 - log2(capacity)`: the hash keeps the *high* bits of the
    /// Fibonacci product, which are the well-mixed ones.
    shift: u32,
    len: usize,
    #[cfg(feature = "strict-invariants")]
    check_tick: u64,
}

/// Mutation count below which `strict-invariants` checks run every time
/// (small tables, unit tests); past it they sample every
/// [`CHECK_EVERY`]th mutation so the O(table) scan amortizes to ~O(1).
#[cfg(feature = "strict-invariants")]
const CHECK_ALWAYS: u64 = 64;
#[cfg(feature = "strict-invariants")]
const CHECK_EVERY: u64 = 1024;

impl PageMap {
    const MIN_CAP: usize = 16;

    fn new() -> Self {
        Self {
            keys: vec![0; Self::MIN_CAP],
            vals: vec![NONE; Self::MIN_CAP],
            mask: Self::MIN_CAP - 1,
            shift: 64 - Self::MIN_CAP.trailing_zeros(),
            len: 0,
            #[cfg(feature = "strict-invariants")]
            check_tick: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    #[cfg(any(test, feature = "strict-invariants"))]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    // dasr-lint: no-alloc
    fn get(&self, key: u64) -> Option<u32> {
        let mut i = self.home(key);
        loop {
            let v = self.vals[i];
            if v == NONE {
                return None;
            }
            if self.keys[i] == key {
                return Some(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    // dasr-lint: no-alloc
    fn insert(&mut self, key: u64, val: u32) {
        debug_assert_ne!(val, NONE);
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            // dasr-lint: allow(G2) reason="amortized doubling: grow() reallocates only when load passes 3/4, O(1) amortized per insert"
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            if self.vals[i] == NONE {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                self.debug_check();
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                self.debug_check();
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key` using backward-shift deletion: later entries in the
    /// probe chain slide back so lookups never need tombstones.
    // dasr-lint: no-alloc
    fn remove(&mut self, key: u64) {
        let mut i = self.home(key);
        loop {
            if self.vals[i] == NONE {
                return;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.vals[j] == NONE {
                self.vals[i] = NONE;
                self.debug_check();
                return;
            }
            let home = self.home(self.keys[j]);
            // Shift `j` back into the hole at `i` unless that would move it
            // before its home slot (cyclic distance comparison).
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.keys[i] = self.keys[j];
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![NONE; new_cap]);
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != NONE {
                self.insert(k, v);
            }
        }
    }

    /// Structural self-check (`strict-invariants` builds only): every live
    /// entry's probe chain from its home slot is unbroken, so `get` can
    /// always reach it — the invariant backward-shift deletion maintains.
    /// Sampled past the first [`CHECK_ALWAYS`] mutations to keep large
    /// simulations tractable.
    #[inline]
    fn debug_check(&mut self) {
        #[cfg(feature = "strict-invariants")]
        {
            self.check_tick += 1;
            if self.check_tick > CHECK_ALWAYS && !self.check_tick.is_multiple_of(CHECK_EVERY) {
                return;
            }
            let live = self.vals.iter().filter(|&&v| v != NONE).count();
            debug_assert_eq!(live, self.len, "occupied slot count must match len");
            for i in 0..self.vals.len() {
                if self.vals[i] == NONE {
                    continue;
                }
                let mut j = self.home(self.keys[i]);
                while j != i {
                    debug_assert_ne!(
                        self.vals[j], NONE,
                        "hole at slot {j} breaks the probe chain to slot {i}"
                    );
                    j = (j + 1) & self.mask;
                }
            }
        }
    }
}

/// A page's residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Absent,
    Clean,
    Dirty,
}

/// One page's LRU links, at the fixed arena index its page id implies.
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    state: State,
}

const ABSENT: Node = Node {
    prev: NONE,
    next: NONE,
    state: State::Absent,
};

/// Owner of one arena slot: the chunk id (`page >> CHUNK_BITS`) it holds
/// and how many of that chunk's pages are resident.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    id: u64,
    resident: u32,
}

/// Result of a page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page was cached; the access proceeds immediately.
    Hit,
    /// Page was not cached; the engine must read it from disk and then call
    /// [`BufferPool::insert`].
    Miss,
}

/// An LRU page cache.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Resident pages.
    len: usize,
    /// Chunk directory: `page >> CHUNK_BITS` → arena slot.
    dir: PageMap,
    /// Node arena: slot `s` owns nodes `s * CHUNK .. (s + 1) * CHUNK`.
    nodes: Vec<Node>,
    /// Per arena slot: its chunk and resident count.
    chunks: Vec<Chunk>,
    /// Arena slots with no resident page (every node absent).
    free_chunks: Vec<u32>,
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
    #[cfg(feature = "strict-invariants")]
    check_tick: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            len: 0,
            dir: PageMap::new(),
            nodes: Vec::new(),
            chunks: Vec::new(),
            free_chunks: Vec::new(),
            head: NONE,
            tail: NONE,
            hits: 0,
            misses: 0,
            #[cfg(feature = "strict-invariants")]
            check_tick: 0,
        }
    }

    /// Current capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently cached.
    pub fn used(&self) -> usize {
        self.len
    }

    /// Accesses `page`; on a hit the page is touched (moved to MRU) and
    /// marked dirty if `write`. On a miss the caller performs the disk read
    /// and then calls [`insert`](Self::insert).
    // dasr-lint: no-alloc
    pub fn access(&mut self, page: u64, write: bool) -> Access {
        match self.node_index(page) {
            // dasr-lint: allow(G3) reason="node_index only yields nodes of chunk slots the directory holds, all inside the arena"
            Some(idx) if self.nodes[idx].state != State::Absent => {
                self.hits += 1;
                if write {
                    self.nodes[idx].state = State::Dirty;
                }
                self.touch(idx as u32);
                self.debug_check();
                Access::Hit
            }
            _ => {
                self.misses += 1;
                Access::Miss
            }
        }
    }

    /// Inserts `page` after its disk read completed; evicts LRU pages while
    /// over capacity, writing the evicted *dirty* page ids into
    /// `dirty_evicted` (cleared first — the engine schedules background
    /// writebacks for them and reuses the buffer across calls, so inserting
    /// never allocates in steady state).
    ///
    /// Inserting a page already present just touches it.
    // dasr-lint: no-alloc
    pub fn insert(&mut self, page: u64, dirty: bool, dirty_evicted: &mut Vec<u64>) {
        dirty_evicted.clear();
        if let Some(idx) = self.node_index(page) {
            if self.nodes[idx].state != State::Absent {
                if dirty {
                    self.nodes[idx].state = State::Dirty;
                }
                self.touch(idx as u32);
                self.debug_check();
                return;
            }
        }
        if self.capacity == 0 {
            // Admitted and evicted at once, as the least recently used page.
            if dirty {
                dirty_evicted.push(page);
            }
            return;
        }
        // Evict before admitting, so a departing page's chunk slot can be
        // recycled for this one. The victims and their order are those of
        // admit-then-evict: the new page at the MRU end is never one.
        self.evict_to(self.capacity - 1, dirty_evicted);
        let id = page >> CHUNK_BITS;
        let slot = match self.dir.get(id) {
            Some(slot) => slot as usize,
            None => self.open_chunk(id),
        };
        self.chunks[slot].resident += 1;
        let idx = (slot << CHUNK_BITS) | (page & OFFSET) as usize;
        self.nodes[idx].state = if dirty { State::Dirty } else { State::Clean };
        self.len += 1;
        self.push_front(idx as u32);
        self.debug_check();
    }

    /// Shrinks or grows capacity; evicted dirty pages are written into
    /// `dirty_evicted` (cleared first) when shrinking. Used both for
    /// container resizes (immediate) and balloon steps (gradual, small
    /// decrements).
    // dasr-lint: no-alloc
    pub fn set_capacity(&mut self, capacity: usize, dirty_evicted: &mut Vec<u64>) {
        dirty_evicted.clear();
        self.capacity = capacity;
        self.evict_to(capacity, dirty_evicted);
        self.debug_check();
    }

    /// Cumulative hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction in `[0, 1]`; `1.0` when no accesses happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Arena index of `page`'s node, if its chunk holds an arena slot.
    #[inline]
    // dasr-lint: no-alloc
    fn node_index(&self, page: u64) -> Option<usize> {
        let slot = self.dir.get(page >> CHUNK_BITS)?;
        Some(((slot as usize) << CHUNK_BITS) | (page & OFFSET) as usize)
    }

    /// Gives chunk `id` an arena slot — a freed one when there is one (its
    /// nodes are all absent), else `CHUNK` fresh absent nodes at the end of
    /// the arena — and enters it in the directory.
    fn open_chunk(&mut self, id: u64) -> usize {
        let chunk = Chunk { id, resident: 0 };
        let slot = match self.free_chunks.pop() {
            Some(slot) => {
                self.chunks[slot as usize] = chunk;
                slot
            }
            None => {
                assert!(
                    self.chunks.len() < MAX_CHUNKS,
                    "buffer pool exceeds u32 node indices"
                );
                self.chunks.push(chunk);
                self.nodes.resize(self.nodes.len() + CHUNK, ABSENT);
                (self.chunks.len() - 1) as u32
            }
        };
        self.dir.insert(id, slot);
        slot as usize
    }

    /// Evicts LRU pages until at most `limit` remain, appending dirty
    /// victims to `dirty_evicted` (NOT cleared — callers clear before the
    /// first call). A chunk whose last resident page leaves gives its arena
    /// slot back.
    // dasr-lint: no-alloc
    fn evict_to(&mut self, limit: usize, dirty_evicted: &mut Vec<u64>) {
        while self.len > limit {
            let idx = self.tail;
            // dasr-lint: allow(G3) reason="len > 0, so tail is a linked node index; LRU links always hold live node indices"
            let state = self.nodes[idx as usize].state;
            self.unlink(idx);
            self.nodes[idx as usize].state = State::Absent;
            self.len -= 1;
            let slot = idx as usize >> CHUNK_BITS;
            let chunk = &mut self.chunks[slot];
            let page = (chunk.id << CHUNK_BITS) | (u64::from(idx) & OFFSET);
            chunk.resident -= 1;
            if chunk.resident == 0 {
                self.dir.remove(chunk.id);
                self.free_chunks.push(slot as u32);
            }
            if state == State::Dirty {
                dirty_evicted.push(page);
            }
        }
    }

    // dasr-lint: no-alloc
    fn touch(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    // dasr-lint: no-alloc
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            // dasr-lint: allow(G3) reason="intrusive-list invariant: unlink is only called with a linked node index"
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NONE {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let n = &mut self.nodes[idx as usize];
        n.prev = NONE;
        n.next = NONE;
    }

    // dasr-lint: no-alloc
    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            // dasr-lint: allow(G3) reason="intrusive-list invariant: push_front is only called with a valid node index"
            let n = &mut self.nodes[idx as usize];
            n.prev = NONE;
            n.next = old_head;
        }
        if old_head != NONE {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }

    /// Structural self-check (`strict-invariants` builds only): the LRU
    /// list links exactly `len` nodes, none of them absent, from a head
    /// with no `prev` to the tail with no `next`; every arena slot's
    /// resident counter matches its present nodes, and a slot is in the
    /// directory iff it has a resident page. A violation means a page
    /// could be lost, evicted twice, or its chunk recycled while resident.
    /// Sampled past the first [`CHECK_ALWAYS`] mutations to keep large
    /// simulations tractable.
    #[inline]
    fn debug_check(&mut self) {
        #[cfg(feature = "strict-invariants")]
        {
            self.check_tick += 1;
            if self.check_tick > CHECK_ALWAYS && !self.check_tick.is_multiple_of(CHECK_EVERY) {
                return;
            }
            let (mut linked, mut prev, mut cur) = (0usize, NONE, self.head);
            while cur != NONE && linked <= self.len {
                let node = self.nodes.get(cur as usize);
                debug_assert!(node.is_some(), "LRU link {cur} is outside the arena");
                let Some(node) = node else { break };
                debug_assert_ne!(node.state, State::Absent, "linked node {cur} is absent");
                debug_assert_eq!(node.prev, prev, "node {cur} has a broken back link");
                linked += 1;
                prev = cur;
                cur = node.next;
            }
            debug_assert_eq!(linked, self.len, "linked node count must match len");
            debug_assert_eq!(self.tail, prev, "the tail must end the LRU list");
            let mut resident = 0;
            for (slot, chunk) in self.chunks.iter().enumerate() {
                let present = self
                    .nodes
                    .iter()
                    .skip(slot << CHUNK_BITS)
                    .take(CHUNK)
                    .filter(|n| n.state != State::Absent)
                    .count();
                debug_assert_eq!(
                    present, chunk.resident as usize,
                    "arena slot {slot} miscounts its resident pages"
                );
                debug_assert_eq!(
                    self.dir.get(chunk.id) == Some(slot as u32),
                    present > 0,
                    "arena slot {slot} must be in the directory iff it has resident pages"
                );
                resident += present;
            }
            debug_assert_eq!(resident, self.len, "resident counters must sum to len");
            debug_assert_eq!(
                self.dir.len() + self.free_chunks.len(),
                self.chunks.len(),
                "every arena slot is in the directory or on the free list"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shim matching the old allocating API.
    fn insert(bp: &mut BufferPool, page: u64, dirty: bool) -> Vec<u64> {
        let mut out = Vec::new();
        bp.insert(page, dirty, &mut out);
        out
    }

    #[test]
    fn miss_then_hit() {
        let mut bp = BufferPool::new(2);
        assert_eq!(bp.access(1, false), Access::Miss);
        assert!(insert(&mut bp, 1, false).is_empty());
        assert_eq!(bp.access(1, false), Access::Hit);
        assert_eq!(bp.hits(), 1);
        assert_eq!(bp.misses(), 1);
        assert_eq!(bp.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut bp = BufferPool::new(2);
        insert(&mut bp, 1, false);
        insert(&mut bp, 2, false);
        // Touch page 1 so page 2 is now LRU.
        assert_eq!(bp.access(1, false), Access::Hit);
        insert(&mut bp, 3, false);
        assert_eq!(bp.access(2, false), Access::Miss, "2 was evicted");
        assert_eq!(bp.access(1, false), Access::Hit);
        assert_eq!(bp.access(3, false), Access::Hit);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut bp = BufferPool::new(1);
        insert(&mut bp, 1, false);
        bp.access(1, true); // dirty it
        let evicted = insert(&mut bp, 2, false);
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn clean_eviction_silent() {
        let mut bp = BufferPool::new(1);
        insert(&mut bp, 1, false);
        assert!(insert(&mut bp, 2, false).is_empty());
    }

    #[test]
    fn scratch_is_cleared_on_entry() {
        let mut bp = BufferPool::new(10);
        let mut scratch = vec![99, 98];
        bp.insert(1, false, &mut scratch);
        assert!(scratch.is_empty(), "insert clears the scratch");
        let mut scratch = vec![97];
        bp.set_capacity(10, &mut scratch);
        assert!(scratch.is_empty(), "set_capacity clears the scratch");
    }

    #[test]
    fn shrink_capacity_evicts_lru_first() {
        let mut bp = BufferPool::new(4);
        for p in 1..=4 {
            insert(&mut bp, p, p % 2 == 0); // 2 and 4 dirty
        }
        // LRU order (oldest first): 1, 2, 3, 4.
        let mut evicted = Vec::new();
        bp.set_capacity(2, &mut evicted);
        assert_eq!(evicted, vec![2], "only the dirty one among {{1,2}}");
        assert_eq!(bp.used(), 2);
        assert_eq!(bp.access(3, false), Access::Hit);
        assert_eq!(bp.access(4, false), Access::Hit);
    }

    #[test]
    fn grow_capacity_keeps_pages() {
        let mut bp = BufferPool::new(1);
        insert(&mut bp, 1, false);
        let mut evicted = Vec::new();
        bp.set_capacity(10, &mut evicted);
        assert!(evicted.is_empty());
        assert_eq!(bp.access(1, false), Access::Hit);
    }

    #[test]
    fn reinsert_touches_instead_of_duplicating() {
        let mut bp = BufferPool::new(2);
        insert(&mut bp, 1, false);
        insert(&mut bp, 2, false);
        insert(&mut bp, 1, true); // touch + dirty
        assert_eq!(bp.used(), 2);
        // Now 2 is LRU.
        insert(&mut bp, 3, false);
        assert_eq!(bp.access(2, false), Access::Miss);
    }

    #[test]
    fn zero_capacity_pool_caches_nothing() {
        let mut bp = BufferPool::new(0);
        insert(&mut bp, 1, false);
        assert_eq!(bp.used(), 0);
        assert_eq!(bp.access(1, false), Access::Miss);
    }

    #[test]
    fn hit_ratio_with_working_set_larger_than_pool() {
        let mut bp = BufferPool::new(10);
        // Cycle through 20 pages repeatedly: pure LRU with a scan pattern
        // never hits.
        for round in 0..3 {
            for p in 0..20u64 {
                if bp.access(p, false) == Access::Miss {
                    insert(&mut bp, p, false);
                } else if round == 0 {
                    panic!("unexpected hit on cold pool");
                }
            }
        }
        assert_eq!(bp.hits(), 0, "scan larger than pool never hits LRU");
    }

    #[test]
    fn slab_reuse_is_consistent() {
        let mut bp = BufferPool::new(2);
        for p in 0..100u64 {
            insert(&mut bp, p, false);
        }
        assert_eq!(bp.used(), 2);
        // Pages 0..100 share chunk 0: one arena slot, reused throughout.
        assert_eq!(bp.nodes.len(), CHUNK, "one chunk of nodes");
        assert_eq!(bp.chunks.len(), 1);
    }

    /// The memory bound: sparse page ids, one per chunk, stream through a
    /// 64-page pool. Chunks leave with their last resident page, so the
    /// arena never holds more than 64 of them.
    #[test]
    fn sparse_pages_keep_the_arena_bounded_by_capacity() {
        let mut bp = BufferPool::new(64);
        let mut dirty = Vec::new();
        for i in 0..100_000u64 {
            let page = i << 20;
            if bp.access(page, i % 3 == 0) == Access::Miss {
                bp.insert(page, i % 3 == 0, &mut dirty);
            }
        }
        assert_eq!(bp.used(), 64);
        assert!(bp.chunks.len() <= 64, "{} chunks", bp.chunks.len());
        assert!(bp.nodes.len() <= 64 * CHUNK);
        assert_eq!(bp.dir.len(), 64);
    }

    /// Proves the `strict-invariants` wiring is live: a hole punched into
    /// a probe chain must trip the structural check on the next mutation.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "occupied slot count must match len")]
    fn strict_invariants_catch_probe_chain_corruption() {
        let mut pm = PageMap::new();
        pm.insert(1, 10);
        pm.insert(2, 20);
        let hole = pm.home(1);
        pm.vals[hole] = NONE; // erase without fixing len or shifting
        pm.insert(3, 30);
    }

    /// Proves the pool's `strict-invariants` check is live: a node marked
    /// absent while still linked must trip it on the next mutation.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "is absent")]
    fn strict_invariants_catch_lru_corruption() {
        let mut bp = BufferPool::new(4);
        insert(&mut bp, 1, false);
        insert(&mut bp, 2, false);
        let idx = bp.node_index(1).unwrap();
        bp.nodes[idx].state = State::Absent; // drop residency, stay linked
        insert(&mut bp, 3, false);
    }

    /// Randomized cross-check: the open-addressed [`PageMap`] must behave
    /// exactly like `std::collections::HashMap<u64, u32>` under a mixed
    /// insert/remove/lookup stream, including adversarial keys that
    /// collide in the low bits.
    #[test]
    fn page_map_matches_std_hashmap() {
        let mut pm = PageMap::new();
        let mut oracle = std::collections::HashMap::new();
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for step in 0..20_000u32 {
            let r = next();
            // Small key space (low-bit-colliding strides) to force repeated
            // insert/remove of the same keys through probe chains.
            let key = (r % 512) * 1024;
            match r % 3 {
                0 => {
                    pm.insert(key, step);
                    oracle.insert(key, step);
                }
                1 => {
                    pm.remove(key);
                    oracle.remove(&key);
                }
                _ => {
                    assert_eq!(pm.get(key), oracle.get(&key).copied(), "key {key}");
                }
            }
            assert_eq!(pm.len(), oracle.len());
        }
        for (&k, &v) in &oracle {
            assert_eq!(pm.get(k), Some(v));
        }
    }
}

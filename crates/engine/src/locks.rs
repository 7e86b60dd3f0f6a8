//! Application-level lock manager (strict two-phase locking, FIFO grants).
//!
//! Lock waits are the paper's canonical example of a *bottleneck beyond
//! resources* (Figure 13): when >90% of wait time is lock waits, adding CPU
//! or I/O cannot improve latency, and the estimator must refuse to scale
//! up. The table grants strictly in FIFO order (no barging): a shared
//! request queued behind a waiting exclusive request waits, which avoids
//! writer starvation and keeps the simulation deterministic.

use crate::time::SimTime;
use std::collections::{HashMap, VecDeque};

/// Identifier of a lockable object.
pub type LockId = u32;

pub use crate::request::ReqId;

#[derive(Debug, Default)]
struct LockState {
    /// Current holders; either many shared or one exclusive.
    holders: Vec<(ReqId, bool)>,
    /// FIFO waiters: `(request, exclusive, since)`.
    waiters: VecDeque<(ReqId, bool, SimTime)>,
}

impl LockState {
    fn compatible(&self, exclusive: bool) -> bool {
        if exclusive {
            self.holders.is_empty()
        } else {
            self.holders.iter().all(|&(_, x)| !x)
        }
    }
}

/// A waiter that has just been granted its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantedWaiter {
    /// The resumed request.
    pub req: ReqId,
    /// How long it waited, in microseconds.
    pub wait_us: u64,
}

/// The lock table.
///
/// Empty `LockState` entries are kept in the map as a free-list of
/// allocated holder/waiter buffers: re-locking a recently released object
/// reuses its buffers instead of re-allocating, which matters on the
/// engine's lock-heavy hot path. [`active_locks`](Self::active_locks)
/// counts only non-empty states.
///
/// A request's held-lock entry is removed when it releases everything:
/// `ReqId`s carry the slab generation and are never reused, so a kept
/// entry would be a leak.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: HashMap<LockId, LockState>,
    held: HashMap<ReqId, Vec<LockId>>,
}

impl LockTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire `lock` for `req`. Returns `true` when granted
    /// immediately; otherwise the request is queued FIFO and the engine
    /// must block it.
    ///
    /// Re-acquiring a lock already held by `req` is a no-op grant (no
    /// upgrade support — workloads acquire the strongest mode first).
    // dasr-lint: no-alloc
    pub fn acquire(&mut self, req: ReqId, lock: LockId, exclusive: bool, now: SimTime) -> bool {
        let state = self.locks.entry(lock).or_default();
        if state.holders.iter().any(|&(r, _)| r == req) {
            return true;
        }
        if state.waiters.is_empty() && state.compatible(exclusive) {
            state.holders.push((req, exclusive));
            self.held.entry(req).or_default().push(lock);
            true
        } else {
            state.waiters.push_back((req, exclusive, now));
            false
        }
    }

    /// Releases one lock held by `req`, writing the waiters granted as a
    /// result into `out` (cleared first — the engine resumes them and
    /// charges their lock wait). The caller owns and reuses the buffer, so
    /// releasing never allocates.
    // dasr-lint: no-alloc
    pub fn release(
        &mut self,
        req: ReqId,
        lock: LockId,
        now: SimTime,
        out: &mut Vec<GrantedWaiter>,
    ) {
        out.clear();
        if let Some(state) = self.locks.get_mut(&lock) {
            state.holders.retain(|&(r, _)| r != req);
            if let Some(list) = self.held.get_mut(&req) {
                list.retain(|&l| l != lock);
            }
            Self::grant_from_queue(state, now, out);
            for g in out.iter() {
                self.held.entry(g.req).or_default().push(lock);
            }
        }
    }

    /// Releases every lock held by `req` (request completion under strict
    /// 2PL), writing all newly granted waiters into `out` (cleared first).
    // dasr-lint: no-alloc
    pub fn release_all(&mut self, req: ReqId, now: SimTime, out: &mut Vec<GrantedWaiter>) {
        out.clear();
        let Some(released) = self.held.remove(&req) else {
            return;
        };
        for lock in released {
            let start = out.len();
            if let Some(state) = self.locks.get_mut(&lock) {
                state.holders.retain(|&(r, _)| r != req);
                Self::grant_from_queue(state, now, out);
            }
            for g in out.iter().skip(start) {
                self.held.entry(g.req).or_default().push(lock);
            }
        }
    }

    /// Removes `req` from every wait queue (request abort/rejection).
    // dasr-lint: no-alloc
    pub fn cancel_waits(&mut self, req: ReqId) {
        // dasr-lint: allow(D2) reason="order-independent mutation: removing one request from every queue commutes across visit order"
        for state in self.locks.values_mut() {
            state.waiters.retain(|&(r, _, _)| r != req);
        }
    }

    /// Number of requests currently waiting across all locks.
    pub fn waiting(&self) -> usize {
        // dasr-lint: allow(D2) reason="order-independent fold: a sum over queue lengths is invariant to iteration order"
        self.locks.values().map(|s| s.waiters.len()).sum()
    }

    /// Locks with at least one holder or waiter. Empty states linger in
    /// the map as recycled buffers and are not counted.
    pub fn active_locks(&self) -> usize {
        self.locks
            // dasr-lint: allow(D2) reason="order-independent fold: counting non-empty states is invariant to iteration order"
            .values()
            .filter(|s| !s.holders.is_empty() || !s.waiters.is_empty())
            .count()
    }

    // dasr-lint: no-alloc
    fn grant_from_queue(state: &mut LockState, now: SimTime, out: &mut Vec<GrantedWaiter>) {
        // Strict FIFO: grant from the front while compatible.
        while let Some(&(req, exclusive, since)) = state.waiters.front() {
            if state.compatible(exclusive) {
                state.waiters.pop_front();
                state.holders.push((req, exclusive));
                out.push(GrantedWaiter {
                    req,
                    wait_us: now - since,
                });
                if exclusive {
                    break;
                }
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime(0);

    #[test]
    fn shared_locks_coexist() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10, false, T0));
        assert!(t.acquire(2, 10, false, T0));
        assert_eq!(t.waiting(), 0);
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10, true, T0));
        assert!(!t.acquire(2, 10, false, T0));
        assert!(!t.acquire(3, 10, true, T0));
        assert_eq!(t.waiting(), 2);
    }

    #[test]
    fn release_grants_fifo() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10, true, T0));
        assert!(!t.acquire(2, 10, false, SimTime(100)));
        assert!(!t.acquire(3, 10, false, SimTime(200)));
        let mut granted = Vec::new();
        t.release(1, 10, SimTime(1_000), &mut granted);
        // Both shared waiters are granted together, in order.
        assert_eq!(granted.len(), 2);
        assert_eq!(
            granted[0],
            GrantedWaiter {
                req: 2,
                wait_us: 900
            }
        );
        assert_eq!(
            granted[1],
            GrantedWaiter {
                req: 3,
                wait_us: 800
            }
        );
    }

    #[test]
    fn exclusive_waiter_granted_alone() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10, false, T0));
        assert!(!t.acquire(2, 10, true, SimTime(10)));
        assert!(
            !t.acquire(3, 10, false, SimTime(20)),
            "no barging past X waiter"
        );
        let mut granted = Vec::new();
        t.release_all(1, SimTime(500), &mut granted);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].req, 2);
        // 3 still waits until 2 releases. The scratch is cleared on entry.
        let mut granted2 = granted;
        t.release_all(2, SimTime(900), &mut granted2);
        assert_eq!(granted2.len(), 1);
        assert_eq!(
            granted2[0],
            GrantedWaiter {
                req: 3,
                wait_us: 880
            }
        );
    }

    #[test]
    fn reacquire_is_noop() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10, true, T0));
        assert!(t.acquire(1, 10, true, T0));
        assert!(t.acquire(1, 10, false, T0));
        t.release_all(1, SimTime(5), &mut Vec::new());
        assert_eq!(t.active_locks(), 0);
    }

    #[test]
    fn release_all_spans_locks() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10, true, T0));
        assert!(t.acquire(1, 11, true, T0));
        assert!(!t.acquire(2, 10, true, T0));
        assert!(!t.acquire(3, 11, true, T0));
        let mut granted = Vec::new();
        t.release_all(1, SimTime(100), &mut granted);
        let reqs: Vec<ReqId> = granted.iter().map(|g| g.req).collect();
        assert!(reqs.contains(&2) && reqs.contains(&3));
        assert_eq!(t.waiting(), 0);
    }

    #[test]
    fn cancel_waits_removes_from_queues() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10, true, T0));
        assert!(!t.acquire(2, 10, true, T0));
        t.cancel_waits(2);
        let mut granted = Vec::new();
        t.release_all(1, SimTime(100), &mut granted);
        assert!(granted.is_empty());
        assert_eq!(t.active_locks(), 0, "empty lock states are not counted");
    }

    /// `ReqId`s carry the slab generation, so no id is ever reused: the
    /// held-lock entry must leave with its request, or the map grows by one
    /// entry per lock-taking request for the whole run.
    #[test]
    fn release_all_forgets_the_request() {
        let mut t = LockTable::new();
        let mut granted = Vec::new();
        for generation in 0..10_000u64 {
            let req = generation << 32; // slab slot 0, a fresh generation
            assert!(t.acquire(req, 7, true, T0));
            t.release_all(req, SimTime(1), &mut granted);
        }
        assert!(
            t.held.is_empty(),
            "{} held-lock entries leaked",
            t.held.len()
        );
    }

    #[test]
    fn table_is_pruned_after_use() {
        let mut t = LockTable::new();
        for req in 0..100u64 {
            assert!(t.acquire(req, (req % 5) as LockId, false, T0));
        }
        let mut granted = Vec::new();
        for req in 0..100u64 {
            t.release_all(req, SimTime(10), &mut granted);
        }
        assert_eq!(t.active_locks(), 0);
    }
}

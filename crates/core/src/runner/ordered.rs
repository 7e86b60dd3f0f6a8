//! The ordered-shard driver: the one fan-out behind every parallel path
//! from the fleet to the store.
//!
//! `0..n` is cut into contiguous shards. Workers claim shards off an
//! atomic cursor (one atomic op per shard, so a straggler never stalls
//! the others), run `work` over each with a scratch value they build once
//! and reuse, and hand the shard's result to `consume` **strictly in
//! shard order**: a shard that finishes early is parked until every
//! shard before it has been delivered. With one worker there is no
//! thread, no lock and no parking — the shards run inline, in order, on
//! the caller's thread; that loop is the sequential reference the
//! equivalence tests compare every other thread count against.
//!
//! # Determinism
//!
//! This is the one place the "bit-identical at any thread and shard
//! count" contract is argued (DESIGN.md §14 builds on it):
//!
//! - *Scheduling* cannot reorder anything: `consume` sees shard `k` only
//!   after shards `0..k`, whichever worker finished first, so a consumer
//!   that appends reproduces index order exactly.
//! - *Shard boundaries* are invisible to a consumer that concatenates.
//!   A consumer that *reduces* must bring an associative combine with
//!   exact arithmetic (see [`crate::runner::shard`]) — the driver moves
//!   the boundaries, it does not hide them.
//! - `work` must be a pure function of its index range; the scratch is
//!   for buffers whose previous contents do not matter.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work` over `0..n` in `shards` contiguous shards across up to
/// `threads` workers, delivering each shard's result to `consume` in
/// shard order. `scratch` builds one reusable scratch value per worker.
///
/// `threads` and `shards` are clamped to `1..=n`. `consume` runs on
/// whichever worker closes the next gap, under a lock, so its calls
/// never overlap. A panic in `work` or `consume` propagates to the
/// caller with its original payload once the other workers have
/// stopped.
///
/// Returns the most shard results that were ever parked at once — at
/// most `shards − 1`, and 0 on the inline path: the driver's transient
/// memory, in units of one shard's result.
pub fn ordered_shards<S, A, Scratch, Work, Consume>(
    n: usize,
    threads: usize,
    shards: usize,
    scratch: Scratch,
    work: Work,
    mut consume: Consume,
) -> usize
where
    A: Send,
    Scratch: Fn() -> S + Sync,
    Work: Fn(&mut S, Range<usize>) -> A + Sync,
    Consume: FnMut(A) + Send,
{
    if n == 0 {
        return 0;
    }
    let chunk = n.div_ceil(shards.clamp(1, n));
    let shard_total = n.div_ceil(chunk);
    let range_of = |k: usize| k * chunk..((k + 1) * chunk).min(n);
    if threads.min(shard_total) <= 1 {
        let mut s = scratch();
        for k in 0..shard_total {
            consume(work(&mut s, range_of(k)));
        }
        return 0;
    }

    struct Merge<A, C> {
        /// Next shard `consume` is waiting for.
        next: usize,
        /// Finished shards waiting for the gap before them to close.
        parked: BTreeMap<usize, A>,
        max_parked: usize,
        consume: C,
    }
    let cursor = AtomicUsize::new(0);
    let merge = Mutex::new(Merge {
        next: 0,
        parked: BTreeMap::new(),
        max_parked: 0,
        consume: &mut consume,
    });
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(shard_total))
            .map(|_| {
                scope.spawn(|| {
                    let mut s = scratch();
                    loop {
                        // Relaxed: the cursor hands out indices and
                        // publishes nothing; results travel under `merge`.
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= shard_total {
                            break;
                        }
                        let out = work(&mut s, range_of(k));
                        // dasr-lint: allow(G3) reason="the lock is poisoned only if consume already panicked on another worker; failing here too stops delivery past the gap, and that first panic is the one the join loop re-raises"
                        let mut m = merge.lock().expect("a worker panicked while delivering");
                        m.parked.insert(k, out);
                        loop {
                            let next = m.next;
                            let Some(out) = m.parked.remove(&next) else {
                                break;
                            };
                            (m.consume)(out);
                            m.next += 1;
                        }
                        m.max_parked = m.max_parked.max(m.parked.len());
                    }
                })
            })
            .collect();
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    // Every worker was joined without a panic just above, so no lock
    // holder panicked.
    let m = merge.into_inner().expect("all workers joined cleanly");
    debug_assert_eq!(m.next, shard_total, "every shard was delivered");
    m.max_parked
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    /// Runs the driver with an index-collecting consumer.
    fn indices(n: usize, threads: usize, shards: usize) -> Vec<usize> {
        let mut seen = Vec::new();
        ordered_shards(
            n,
            threads,
            shards,
            || (),
            |(), range| range.collect::<Vec<_>>(),
            |part| seen.extend(part),
        );
        seen
    }

    #[test]
    fn every_index_is_consumed_once_and_in_order() {
        for n in [1usize, 2, 7, 23] {
            for threads in [1, 2, 8] {
                for shards in [1, 3, n] {
                    let expect: Vec<usize> = (0..n).collect();
                    assert_eq!(
                        indices(n, threads, shards),
                        expect,
                        "n = {n}, threads = {threads}, shards = {shards}"
                    );
                }
            }
        }
        assert!(indices(0, 4, 4).is_empty());
        // Out-of-range knobs clamp instead of dividing by zero.
        assert_eq!(indices(3, 0, 0), vec![0, 1, 2]);
        assert_eq!(indices(3, 99, 99), vec![0, 1, 2]);
    }

    #[test]
    fn a_slow_first_shard_parks_at_most_the_other_shards() {
        // Shard 0 refuses to finish until every other shard has: the
        // worst case for parking. The channel forces that interleaving.
        let shards = 6;
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let done_rx = Mutex::new(done_rx);
        let mut order = Vec::new();
        let max_parked = ordered_shards(
            shards,
            3,
            shards,
            || done_tx.clone(),
            |done, range| {
                if range.start == 0 {
                    let rx = done_rx.lock().expect("only shard 0 listens");
                    for _ in 1..shards {
                        rx.recv().expect("the other shards finish");
                    }
                } else {
                    done.send(()).expect("shard 0 is listening");
                }
                range.start
            },
            |k| order.push(k),
        );
        assert_eq!(order, (0..shards).collect::<Vec<_>>());
        assert!(
            (1..shards).contains(&max_parked),
            "parked {max_parked} of {shards} shards"
        );
        // The inline path never parks.
        assert_eq!(ordered_shards(9, 1, 3, || (), |(), _| (), |()| ()), 0);
    }

    #[test]
    fn scratch_is_built_once_per_worker_not_per_item() {
        for (threads, shards) in [(1usize, 5usize), (3, 12), (8, 40)] {
            let built = AtomicUsize::new(0);
            let mut items = 0;
            ordered_shards(
                40,
                threads,
                shards,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |buf, range| {
                    buf.clear();
                    buf.extend(range);
                    buf.len()
                },
                |len| items += len,
            );
            assert_eq!(items, 40);
            let built = built.load(Ordering::Relaxed);
            assert!(
                (1..=threads).contains(&built),
                "{built} scratches for {threads} workers"
            );
        }
    }

    #[test]
    fn a_panicking_shard_propagates_instead_of_hanging() {
        for threads in [1, 4] {
            let delivered_past_gap = AtomicBool::new(false);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ordered_shards(
                    8,
                    threads,
                    8,
                    || (),
                    |(), range| {
                        assert!(range.start != 2, "tenant 2 exploded");
                        range.start
                    },
                    |k| {
                        if k > 2 {
                            delivered_past_gap.store(true, Ordering::Relaxed);
                        }
                    },
                )
            }));
            let payload = result.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("tenant 2 exploded"), "payload: {message}");
            assert!(
                !delivered_past_gap.load(Ordering::Relaxed),
                "nothing after the failed shard may reach the consumer"
            );
        }
    }
}

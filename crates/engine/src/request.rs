//! Requests and their operations.
//!
//! A request (one transaction or query) is a sequence of [`Op`]s executed in
//! order by the engine. Workload generators (`dasr-workloads`) compose these
//! from distributions; the engine advances each request as a small state
//! machine, blocking on whichever resource an operation needs.

use crate::time::SimTime;
use crate::waits::WaitStats;

/// Request identifier, assigned by the engine at submission.
///
/// Opaque: the engine packs a slab slot index and generation into the
/// value, so ids are unique per engine but not dense or sequential.
pub type ReqId = u64;

/// One operation within a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Consume `us` core-microseconds of CPU.
    CpuBurst {
        /// Core-microseconds of work.
        us: u64,
    },
    /// Access a data page: buffer-pool hit proceeds immediately; a miss
    /// performs one disk read. `write` marks the page dirty.
    PageAccess {
        /// Page identifier within the tenant database.
        page: u64,
        /// Whether the access dirties the page.
        write: bool,
    },
    /// Append `bytes` to the transaction log (commit path).
    LogWrite {
        /// Bytes appended.
        bytes: u32,
    },
    /// Acquire an application-level lock; held until the request completes
    /// (strict two-phase locking) unless explicitly released earlier.
    ///
    /// **Deadlock avoidance is the workload's responsibility**: requests
    /// must acquire locks in increasing lock-id order and take any
    /// [`Op::MemoryGrant`] before their first lock. The engine does not run
    /// a deadlock detector (the bundled workloads all follow this
    /// discipline, as do well-behaved OLTP applications).
    LockAcquire {
        /// Lock identifier.
        lock: u32,
        /// Exclusive (`true`) or shared (`false`).
        exclusive: bool,
    },
    /// Release a previously acquired lock early.
    LockRelease {
        /// Lock identifier.
        lock: u32,
    },
    /// Reserve `mb` of query-workspace memory until the request completes
    /// (memory grant); waits when the grant pool is exhausted. One grant
    /// per request: if the request already holds a grant, further grant
    /// operations are no-ops (engines grant per statement, and this rules
    /// out grant-vs-grant deadlocks).
    MemoryGrant {
        /// Megabytes requested.
        mb: u32,
    },
    /// Passive delay (client think time / coordination stalls). Accounted
    /// as `WaitClass::Other`.
    Think {
        /// Microseconds of delay.
        us: u64,
    },
}

/// A complete request specification: the ordered operations to execute.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestSpec {
    /// Operations, executed in order.
    pub ops: Vec<Op>,
}

impl RequestSpec {
    /// Creates a spec from operations.
    pub fn new(ops: Vec<Op>) -> Self {
        Self { ops }
    }

    /// Total CPU work in the spec, in core-microseconds.
    pub fn total_cpu_us(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::CpuBurst { us } => *us,
                _ => 0,
            })
            .sum()
    }

    /// Number of page accesses in the spec.
    pub fn page_accesses(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::PageAccess { .. }))
            .count()
    }
}

/// Builder for request specs, used heavily by the workload generators.
#[derive(Debug, Default)]
pub struct RequestBuilder {
    ops: Vec<Op>,
}

impl RequestBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty builder with room for `n` ops: a generator that knows the
    /// largest op count of the request kind it builds never regrows the
    /// op vector.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ops: Vec::with_capacity(n),
        }
    }

    /// Appends a CPU burst of `us` core-microseconds.
    pub fn cpu(mut self, us: u64) -> Self {
        self.ops.push(Op::CpuBurst { us });
        self
    }

    /// Appends a read page access.
    pub fn read(mut self, page: u64) -> Self {
        self.ops.push(Op::PageAccess { page, write: false });
        self
    }

    /// Appends a write page access.
    pub fn write(mut self, page: u64) -> Self {
        self.ops.push(Op::PageAccess { page, write: true });
        self
    }

    /// Appends a log append of `bytes`.
    pub fn log(mut self, bytes: u32) -> Self {
        self.ops.push(Op::LogWrite { bytes });
        self
    }

    /// Appends a lock acquisition.
    pub fn lock(mut self, lock: u32, exclusive: bool) -> Self {
        self.ops.push(Op::LockAcquire { lock, exclusive });
        self
    }

    /// Appends an early lock release.
    pub fn unlock(mut self, lock: u32) -> Self {
        self.ops.push(Op::LockRelease { lock });
        self
    }

    /// Appends a memory-grant reservation of `mb`.
    pub fn grant(mut self, mb: u32) -> Self {
        self.ops.push(Op::MemoryGrant { mb });
        self
    }

    /// Appends think time.
    pub fn think(mut self, us: u64) -> Self {
        self.ops.push(Op::Think { us });
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> RequestSpec {
        RequestSpec::new(self.ops)
    }
}

/// A finished request, as reported in interval telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Arrival time.
    pub arrived: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// CPU service received, in core-microseconds.
    pub cpu_service_us: u64,
    /// Waits attributed to this request.
    pub waits: WaitStats,
}

impl CompletedRequest {
    /// End-to-end latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.completed - self.arrived
    }

    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_us() as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waits::WaitClass;

    #[test]
    fn builder_produces_ordered_ops() {
        let spec = RequestBuilder::new()
            .lock(1, true)
            .cpu(100)
            .read(42)
            .write(43)
            .log(512)
            .unlock(1)
            .grant(8)
            .think(10)
            .build();
        assert_eq!(spec.ops.len(), 8);
        assert_eq!(
            spec.ops[0],
            Op::LockAcquire {
                lock: 1,
                exclusive: true
            }
        );
        assert_eq!(spec.ops[4], Op::LogWrite { bytes: 512 });
    }

    #[test]
    fn spec_accessors() {
        let spec = RequestBuilder::new().cpu(100).cpu(200).read(1).build();
        assert_eq!(spec.total_cpu_us(), 300);
        assert_eq!(spec.page_accesses(), 1);
    }

    #[test]
    fn completed_latency() {
        let mut waits = WaitStats::new();
        waits.add(WaitClass::DiskIo, 400);
        let c = CompletedRequest {
            arrived: SimTime::from_micros(1_000),
            completed: SimTime::from_micros(3_500),
            cpu_service_us: 2_100,
            waits,
        };
        assert_eq!(c.latency_us(), 2_500);
        assert_eq!(c.latency_ms(), 2.5);
    }
}

//! The database-server engine: event loop, request lifecycle, telemetry.
//!
//! [`Engine`] ties the devices together. The driver (the closed-loop runner
//! in `dasr-core`) injects request arrivals with [`Engine::submit_at`],
//! advances simulated time with [`Engine::run_until`], drains per-interval
//! telemetry with [`Engine::end_interval`], and applies container resizes
//! with [`Engine::apply_resources`] — an online operation, exactly as in the
//! paper (§6).
//!
//! ## Fast path
//!
//! The engine is the inner loop of every fleet experiment (1k tenants ×
//! 1440 intervals), so its per-request path is kept cheap:
//!
//! - request state lives in a [`GenSlab`] (one array access + generation
//!   check per event) instead of `HashMap<ReqId, _>` tables, and a request
//!   enters it only when admitted;
//! - submitted arrivals wait in a lane — a `VecDeque` ordered by
//!   `(time, seq)` — beside a plain `BinaryHeap` of engine events;
//!   [`run_until`](Engine::run_until) takes whichever head is smaller by
//!   `(time, seq)`, exactly the order one queue holding both would give;
//! - every dispatch path (CPU/disk/log pumps, lock-waiter resumption,
//!   buffer-pool eviction, latency collection) writes into engine-owned
//!   scratch buffers, so steady-state operation never allocates.
//!
//! Telemetry is **bit-identical** to the pre-fast-path implementation,
//! which is preserved as [`OracleEngine`](crate::oracle::OracleEngine) and
//! enforced by the property tests in `tests/engine_equivalence.rs`.

use crate::bufferpool::{Access, BufferPool};
use crate::config::{grant_mb, pages_to_mb, pool_pages, EngineConfig};
use crate::cpu::{CpuJob, CpuScheduler};
use crate::device::{IoDevice, IoToken};
use crate::governor::Dispatched;
use crate::grants::{GrantPool, GrantedMemory};
use crate::locks::{GrantedWaiter, LockTable};
use crate::meter;
use crate::request::{CompletedRequest, Op, ReqId, RequestSpec};
use crate::slab::GenSlab;
use crate::time::SimTime;
use crate::waits::{WaitClass, WaitStats};
use dasr_containers::ResourceVector;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Fraction of current pool capacity evicted per balloon step (§4.3:
/// memory is reduced *slowly*, so the monitoring loop can abort long
/// before the working set is gone): ~0.5 %/s, so a rung takes minutes.
pub const BALLOON_STEP_FRACTION: f64 = 0.005;

/// Minimum pages evicted per balloon step.
pub const BALLOON_STEP_MIN_PAGES: usize = 256;

/// Microseconds between balloon steps.
pub const BALLOON_STEP_US: u64 = 1_000_000;

/// Dirty evicted pages coalesced into one background write (the
/// checkpointer writes multi-page extents).
pub const WRITEBACK_COALESCE: usize = 8;

const _: () = assert!(WRITEBACK_COALESCE >= 1);

/// Events in the simulation queue. Arrivals are not among them: they wait
/// in the engine's arrival lane until admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A CPU burst finishes.
    CpuDone {
        req: ReqId,
        work_us: u64,
        signal_wait_us: u64,
    },
    /// CPU governor credit becomes available.
    CpuReady(u64),
    /// A request's disk read completes.
    DiskReadDone { req: ReqId, wait_us: u64 },
    /// Disk governor credit becomes available.
    DiskReady(u64),
    /// A request's log append completes.
    LogDone { req: ReqId, wait_us: u64 },
    /// Log governor credit becomes available.
    LogReady(u64),
    /// Think time elapses.
    Wake { req: ReqId, think_us: u64 },
    /// One ballooning decrement.
    BalloonStep,
}

/// Per-request execution state of an admitted request.
#[derive(Debug)]
struct ReqState {
    spec: RequestSpec,
    op: usize,
    arrived: SimTime,
    cpu_service_us: u64,
    waits: WaitStats,
    /// Page being fetched from disk (page id, dirtying access).
    pending_page: Option<(u64, bool)>,
    /// Memory grant held (MB), released at completion.
    granted_mb: u32,
}

/// Telemetry for one billing/monitoring interval, drained by
/// [`Engine::end_interval`].
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStats {
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// CPU utilization as % of the *allocated* cores.
    pub cpu_util_pct: f64,
    /// Buffer-pool utilization as % of allocated pool pages.
    pub mem_util_pct: f64,
    /// Data-disk utilization as % of the allocated IOPS.
    pub disk_util_pct: f64,
    /// Log-device utilization as % of the allocated bandwidth.
    pub log_util_pct: f64,
    /// Buffer-pool pages in use, expressed in MB of container memory.
    pub mem_used_mb: f64,
    /// Buffer-pool capacity in MB of container memory.
    pub mem_capacity_mb: f64,
    /// Wait time accumulated during the interval, per class.
    pub waits: WaitStats,
    /// Latencies (ms) of requests completed during the interval.
    pub latencies_ms: Vec<f64>,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Disk read operations performed.
    pub disk_reads: u64,
    /// Disk write operations performed (background writebacks).
    pub disk_writes: u64,
    /// Requests still in flight at interval end.
    pub outstanding: usize,
}

impl Default for IntervalStats {
    fn default() -> Self {
        Self {
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            cpu_util_pct: 0.0,
            mem_util_pct: 0.0,
            disk_util_pct: 0.0,
            log_util_pct: 0.0,
            mem_used_mb: 0.0,
            mem_capacity_mb: 0.0,
            waits: WaitStats::new(),
            latencies_ms: Vec::new(),
            arrivals: 0,
            completed: 0,
            rejected: 0,
            disk_reads: 0,
            disk_writes: 0,
            outstanding: 0,
        }
    }
}

impl IntervalStats {
    /// Interval length in microseconds.
    pub fn interval_us(&self) -> u64 {
        self.end - self.start
    }

    /// Average disk reads per second over the interval.
    pub fn disk_reads_per_sec(&self) -> f64 {
        meter::ops_per_sec(self.disk_reads, self.interval_us())
    }
}

/// The simulated database server.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    clock: SimTime,
    seq: u64,
    /// Engine events, min-ordered by `(time µs, seq)`.
    events: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    /// Submitted, not yet arrived requests as `(time µs, seq, spec)`,
    /// ordered by `(time, seq)`.
    lane: VecDeque<(u64, u64, RequestSpec)>,
    /// Admitted requests; the slab key is the `ReqId`.
    requests: GenSlab<ReqState>,
    runnable: VecDeque<ReqId>,

    cpu: CpuScheduler,
    disk: IoDevice,
    log: IoDevice,
    pool: BufferPool,
    locks: LockTable,
    grants: GrantPool,
    resources: ResourceVector,

    /// Ballooning target in pool pages, when active (§4.3).
    balloon_target: Option<usize>,

    waits: WaitStats,
    waits_at_interval_start: WaitStats,
    /// Latencies (ms) of requests completed this interval; swapped out by
    /// [`end_interval_into`](Self::end_interval_into).
    completed_latencies_ms: Vec<f64>,
    interval_start: SimTime,
    arrivals: u64,
    rejected: u64,
    disk_reads: u64,
    disk_writes: u64,

    // Reused scratch buffers: dispatch paths write into these instead of
    // returning fresh `Vec`s, so the event loop is allocation-free in
    // steady state. Each is taken (`std::mem::take`) for the duration of
    // the call that iterates it, then restored with its capacity intact.
    cpu_scratch: Vec<Dispatched<CpuJob>>,
    disk_scratch: Vec<Dispatched<IoToken>>,
    log_scratch: Vec<Dispatched<IoToken>>,
    lock_scratch: Vec<GrantedWaiter>,
    grant_scratch: Vec<GrantedMemory>,
    evict_scratch: Vec<u64>,
}

impl Engine {
    /// Creates an engine inside a container granting `resources`.
    pub fn new(cfg: EngineConfig, resources: ResourceVector) -> Self {
        assert!(resources.cpu_cores > 0.0, "container needs CPU");
        assert!(resources.disk_iops > 0.0, "container needs disk IOPS");
        assert!(resources.log_mbps > 0.0, "container needs log bandwidth");
        Self {
            cpu: CpuScheduler::new(resources.cpu_cores),
            disk: IoDevice::disk(resources.disk_iops),
            log: IoDevice::log(resources.log_mbps),
            pool: BufferPool::new(pool_pages(resources.memory_mb)),
            locks: LockTable::new(),
            grants: GrantPool::new(grant_mb(resources.memory_mb)),
            resources,
            cfg,
            clock: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            lane: VecDeque::new(),
            requests: GenSlab::new(),
            runnable: VecDeque::new(),
            balloon_target: None,
            waits: WaitStats::new(),
            waits_at_interval_start: WaitStats::new(),
            completed_latencies_ms: Vec::new(),
            interval_start: SimTime::ZERO,
            arrivals: 0,
            rejected: 0,
            disk_reads: 0,
            disk_writes: 0,
            cpu_scratch: Vec::new(),
            disk_scratch: Vec::new(),
            log_scratch: Vec::new(),
            lock_scratch: Vec::new(),
            grant_scratch: Vec::new(),
            evict_scratch: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Current container allocation.
    pub fn resources(&self) -> &ResourceVector {
        &self.resources
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.requests.len()
    }

    /// Buffer-pool pages in use, as MB of container memory.
    pub fn pool_used_mb(&self) -> f64 {
        pages_to_mb(self.pool.used())
    }

    /// Buffer-pool capacity, as MB of container memory.
    pub fn pool_capacity_mb(&self) -> f64 {
        pages_to_mb(self.pool.capacity())
    }

    /// Pre-fills the buffer pool with pages `0..n` (clean), clamped to the
    /// pool capacity. The workloads place their hot sets at the low page
    /// ids, so this simulates attaching the auto-scaler to an
    /// already-running, warmed-up database — the paper's setting, where
    /// experiments resize a live tenant rather than cold-start one.
    pub fn prewarm(&mut self, pages: u64) {
        let n = (pages as usize).min(self.pool.capacity());
        let mut scratch = std::mem::take(&mut self.evict_scratch);
        for page in 0..n as u64 {
            self.pool.insert(page, false, &mut scratch);
        }
        self.evict_scratch = scratch;
    }

    /// Schedules `spec` to arrive at `at`.
    ///
    /// The arrival draws its `seq` now, as an event would, and waits in the
    /// lane in `(time, seq)` order: callers submit in time order, so this
    /// is an append; an earlier `at` than the lane's last is inserted at
    /// its place.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    // dasr-lint: no-alloc
    pub fn submit_at(&mut self, at: SimTime, spec: RequestSpec) {
        assert!(at >= self.clock, "arrival scheduled in the past");
        self.seq += 1;
        let at = at.as_micros();
        // Every queued seq is smaller, so ties in time go before this one.
        let pos = self.lane.partition_point(|&(t, _, _)| t <= at);
        self.lane.insert(pos, (at, self.seq, spec));
    }

    /// Processes every event with timestamp ≤ `t`, then advances the clock
    /// to `t`.
    // dasr-lint: no-alloc
    // dasr-lint: entry(G3)
    pub fn run_until(&mut self, t: SimTime) {
        let horizon = t.as_micros();
        loop {
            let arrival = self.lane.front().map(|&(at, seq, _)| (at, seq));
            let event = self.events.peek().map(|&Reverse((at, seq, _))| (at, seq));
            let (at, is_arrival) = match (arrival, event) {
                (Some(a), Some(e)) if e < a => (e.0, false),
                (Some(a), _) => (a.0, true),
                (None, Some(e)) => (e.0, false),
                (None, None) => break,
            };
            if at > horizon {
                break;
            }
            let at = SimTime::from_micros(at);
            debug_assert!(at >= self.clock, "time went backwards");
            self.clock = at;
            if is_arrival {
                if let Some((_, _, spec)) = self.lane.pop_front() {
                    self.on_arrival(spec);
                }
            } else if let Some(Reverse((_, _, ev))) = self.events.pop() {
                self.dispatch(ev);
            }
            self.drain_runnable();
        }
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Applies a container resize — an online operation: CPU and I/O
    /// governors re-rate their queued backlogs immediately; the buffer pool
    /// evicts (or gains headroom) immediately unless a balloon is active
    /// (the balloon owns capacity while probing).
    // dasr-lint: no-alloc
    pub fn apply_resources(&mut self, resources: ResourceVector) {
        assert!(resources.cpu_cores > 0.0, "container needs CPU");
        assert!(resources.disk_iops > 0.0, "container needs disk IOPS");
        assert!(resources.log_mbps > 0.0, "container needs log bandwidth");
        self.resources = resources;
        self.cpu.resize(resources.cpu_cores);
        self.disk.set_rate_per_us(resources.disk_iops / 1_000_000.0);
        self.log.set_rate_per_us(resources.log_mbps);
        self.grants.resize(grant_mb(resources.memory_mb));
        if self.balloon_target.is_none() {
            let mut dirty = std::mem::take(&mut self.evict_scratch);
            self.pool
                .set_capacity(pool_pages(resources.memory_mb), &mut dirty);
            let n = dirty.len();
            self.evict_scratch = dirty;
            self.writeback(n);
        }
        // Increased rates may admit queued work right away.
        self.pump_cpu();
        self.pump_disk();
        self.pump_log();
    }

    /// Starts ballooning toward `target_mb` of container memory (§4.3): the
    /// pool shrinks by a [`BALLOON_STEP_FRACTION`] of its capacity (at least
    /// [`BALLOON_STEP_MIN_PAGES`]) every [`BALLOON_STEP_US`] until it
    /// reaches the target or [`abort_balloon`](Self::abort_balloon) is
    /// called.
    pub fn start_balloon(&mut self, target_mb: f64) {
        let target_pages = pool_pages(target_mb);
        self.balloon_target = Some(target_pages);
        let at = self.clock + BALLOON_STEP_US;
        self.push_event(at, Ev::BalloonStep);
    }

    /// Aborts ballooning and restores the pool to the container's full
    /// allocation.
    pub fn abort_balloon(&mut self) {
        if self.balloon_target.take().is_some() {
            let mut dirty = std::mem::take(&mut self.evict_scratch);
            self.pool
                .set_capacity(pool_pages(self.resources.memory_mb), &mut dirty);
            let n = dirty.len();
            self.evict_scratch = dirty;
            self.writeback(n);
        }
    }

    /// True while a balloon is deflating the pool.
    pub fn balloon_active(&self) -> bool {
        self.balloon_target.is_some()
    }

    /// True when the balloon reached its target capacity.
    pub fn balloon_reached_target(&self) -> bool {
        self.balloon_target
            .is_some_and(|t| self.pool.capacity() <= t)
    }

    /// Ends ballooning *without* restoring capacity (the controller decided
    /// memory demand is low and will resize the container down).
    pub fn commit_balloon(&mut self) {
        self.balloon_target = None;
    }

    /// Drains telemetry for the interval since the previous call (or since
    /// simulation start).
    ///
    /// Allocates a fresh [`IntervalStats`]; hot callers should reuse one
    /// via [`end_interval_into`](Self::end_interval_into).
    pub fn end_interval(&mut self) -> IntervalStats {
        let mut out = IntervalStats::default();
        self.end_interval_into(&mut out);
        out
    }

    /// Drains telemetry for the interval since the previous call into
    /// `out`, reusing its `latencies_ms` allocation: the engine's internal
    /// latency buffer and `out.latencies_ms` are swapped (ping-pong), so a
    /// caller that reuses the same `IntervalStats` every interval incurs
    /// no allocation in steady state.
    // dasr-lint: no-alloc
    pub fn end_interval_into(&mut self, out: &mut IntervalStats) {
        let start = self.interval_start;
        let end = self.clock;
        let interval_us = (end - start).max(1);
        let waits_delta = self.waits.delta_since(&self.waits_at_interval_start);
        self.waits_at_interval_start = self.waits;
        self.interval_start = end;

        out.latencies_ms.clear();
        std::mem::swap(&mut out.latencies_ms, &mut self.completed_latencies_ms);
        out.start = start;
        out.end = end;
        out.cpu_util_pct = (self.cpu.take_work_done_us() / (self.cpu.cores() * interval_us as f64)
            * 100.0)
            .clamp(0.0, 100.0);
        out.disk_util_pct =
            (self.disk.take_consumed() / (self.disk.rate_per_us() * interval_us as f64) * 100.0)
                .clamp(0.0, 100.0);
        out.log_util_pct =
            (self.log.take_consumed() / (self.log.rate_per_us() * interval_us as f64) * 100.0)
                .clamp(0.0, 100.0);
        out.mem_util_pct = meter::memory_utilization_pct(self.pool.used(), self.pool.capacity());
        out.mem_used_mb = self.pool_used_mb();
        out.mem_capacity_mb = self.pool_capacity_mb();
        out.waits = waits_delta;
        out.completed = out.latencies_ms.len() as u64;
        out.arrivals = std::mem::take(&mut self.arrivals);
        out.rejected = std::mem::take(&mut self.rejected);
        out.disk_reads = std::mem::take(&mut self.disk_reads);
        out.disk_writes = std::mem::take(&mut self.disk_writes);
        out.outstanding = self.requests.len();
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    // dasr-lint: no-alloc
    fn push_event(&mut self, at: SimTime, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse((at.as_micros(), self.seq, ev)));
    }

    /// Schedules completions for dispatched CPU bursts plus the optional
    /// governor ready callback.
    // dasr-lint: no-alloc
    fn flush_cpu(&mut self, dispatched: &[Dispatched<CpuJob>], ready: Option<u64>) {
        for d in dispatched {
            self.push_event(
                SimTime::from_micros(d.start_us) + d.payload.work_us.max(1),
                Ev::CpuDone {
                    req: d.payload.req,
                    work_us: d.payload.work_us,
                    signal_wait_us: d.queued_wait_us,
                },
            );
        }
        if let Some(at) = ready {
            self.push_event(SimTime::from_micros(at), Ev::CpuReady(at));
        }
    }

    /// Dispatches admissible CPU bursts and schedules their completions.
    // dasr-lint: no-alloc
    fn pump_cpu(&mut self) {
        let mut buf = std::mem::take(&mut self.cpu_scratch);
        let ready = self.cpu.pump(self.clock, &mut buf);
        self.flush_cpu(&buf, ready);
        self.cpu_scratch = buf;
    }

    /// Schedules completions for dispatched disk operations (reads complete
    /// after the base latency; background writebacks complete immediately
    /// for accounting) plus the ready callback.
    // dasr-lint: no-alloc
    fn flush_disk(&mut self, dispatched: &[Dispatched<IoToken>], ready: Option<u64>) {
        let base = self.disk.base_latency_us();
        for d in dispatched {
            match d.payload {
                IoToken::Request(req) => {
                    self.push_event(
                        SimTime::from_micros(d.start_us) + base,
                        Ev::DiskReadDone {
                            req,
                            wait_us: d.queued_wait_us + base,
                        },
                    );
                }
                IoToken::Background => {
                    self.disk_writes += 1;
                }
            }
        }
        if let Some(at) = ready {
            self.push_event(SimTime::from_micros(at), Ev::DiskReady(at));
        }
    }

    /// Dispatches admissible disk I/Os and schedules their completions.
    // dasr-lint: no-alloc
    fn pump_disk(&mut self) {
        let mut buf = std::mem::take(&mut self.disk_scratch);
        let ready = self.disk.pump(self.clock, &mut buf);
        self.flush_disk(&buf, ready);
        self.disk_scratch = buf;
    }

    /// Schedules completions for dispatched log appends plus the ready
    /// callback.
    // dasr-lint: no-alloc
    fn flush_log(&mut self, dispatched: &[Dispatched<IoToken>], ready: Option<u64>) {
        let base = self.log.base_latency_us();
        for d in dispatched {
            if let IoToken::Request(req) = d.payload {
                self.push_event(
                    SimTime::from_micros(d.start_us) + base,
                    Ev::LogDone {
                        req,
                        wait_us: d.queued_wait_us + base,
                    },
                );
            }
        }
        if let Some(at) = ready {
            self.push_event(SimTime::from_micros(at), Ev::LogReady(at));
        }
    }

    /// Dispatches admissible log appends and schedules their completions.
    // dasr-lint: no-alloc
    fn pump_log(&mut self) {
        let mut buf = std::mem::take(&mut self.log_scratch);
        let ready = self.log.pump(self.clock, &mut buf);
        self.flush_log(&buf, ready);
        self.log_scratch = buf;
    }

    // dasr-lint: no-alloc
    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::CpuDone {
                req,
                work_us,
                signal_wait_us,
            } => {
                if let Some(state) = self.requests.get_mut(req) {
                    state.cpu_service_us += work_us;
                    if signal_wait_us > 0 {
                        state.waits.add(WaitClass::Cpu, signal_wait_us);
                        self.waits.add(WaitClass::Cpu, signal_wait_us);
                    }
                    state.op += 1;
                    self.runnable.push_back(req);
                }
            }
            Ev::CpuReady(at) => {
                let mut buf = std::mem::take(&mut self.cpu_scratch);
                let ready = self.cpu.on_ready(at, self.clock, &mut buf);
                self.flush_cpu(&buf, ready);
                self.cpu_scratch = buf;
            }
            Ev::DiskReadDone { req, wait_us } => {
                self.disk_reads += 1;
                let mut dirty_evicted = 0;
                if let Some(state) = self.requests.get_mut(req) {
                    state.waits.add(WaitClass::DiskIo, wait_us);
                    self.waits.add(WaitClass::DiskIo, wait_us);
                    let (page, write) = state
                        .pending_page
                        .take()
                        // dasr-lint: allow(G3) reason="event-schedule invariant: a disk completion is only queued with pending_page set; a violation is a simulator bug that must abort the run"
                        .expect("disk completion without pending page");
                    self.pool.insert(page, write, &mut self.evict_scratch);
                    dirty_evicted = self.evict_scratch.len();
                    let state = self.requests.get_mut(req).expect("request vanished");
                    state.op += 1;
                    self.runnable.push_back(req);
                }
                self.writeback(dirty_evicted);
            }
            Ev::DiskReady(at) => {
                let mut buf = std::mem::take(&mut self.disk_scratch);
                let ready = self.disk.on_ready(at, self.clock, &mut buf);
                self.flush_disk(&buf, ready);
                self.disk_scratch = buf;
            }
            Ev::LogDone { req, wait_us } => {
                if let Some(state) = self.requests.get_mut(req) {
                    state.waits.add(WaitClass::LogIo, wait_us);
                    self.waits.add(WaitClass::LogIo, wait_us);
                    state.op += 1;
                    self.runnable.push_back(req);
                }
            }
            Ev::LogReady(at) => {
                let mut buf = std::mem::take(&mut self.log_scratch);
                let ready = self.log.on_ready(at, self.clock, &mut buf);
                self.flush_log(&buf, ready);
                self.log_scratch = buf;
            }
            Ev::Wake { req, think_us } => {
                if let Some(state) = self.requests.get_mut(req) {
                    state.waits.add(WaitClass::Other, think_us);
                    self.waits.add(WaitClass::Other, think_us);
                    state.op += 1;
                    self.runnable.push_back(req);
                }
            }
            Ev::BalloonStep => self.on_balloon_step(),
        }
    }

    /// Admits `spec` into the slab, or rejects it (and drops it) when
    /// `max_outstanding` requests are in flight.
    // dasr-lint: no-alloc
    fn on_arrival(&mut self, spec: RequestSpec) {
        if self.requests.len() >= self.cfg.max_outstanding {
            self.rejected += 1;
            return;
        }
        self.arrivals += 1;
        let id = self.requests.insert(ReqState {
            spec,
            op: 0,
            arrived: self.clock,
            cpu_service_us: 0,
            waits: WaitStats::new(),
            pending_page: None,
            granted_mb: 0,
        });
        self.runnable.push_back(id);
    }

    // dasr-lint: no-alloc
    fn on_balloon_step(&mut self) {
        let Some(target) = self.balloon_target else {
            return; // balloon aborted; stale event
        };
        let cap = self.pool.capacity();
        if cap > target {
            let step = ((cap as f64 * BALLOON_STEP_FRACTION) as usize).max(BALLOON_STEP_MIN_PAGES);
            let new_cap = cap.saturating_sub(step).max(target);
            let mut dirty = std::mem::take(&mut self.evict_scratch);
            self.pool.set_capacity(new_cap, &mut dirty);
            let n = dirty.len();
            self.evict_scratch = dirty;
            self.writeback(n);
            if new_cap > target {
                let at = self.clock + BALLOON_STEP_US;
                self.push_event(at, Ev::BalloonStep);
            }
        }
    }

    /// Submits background writebacks for `n` dirty evicted pages. Dirty
    /// pages are coalesced into extent-sized writes and run at low priority
    /// so checkpoint storms never starve foreground I/O; nobody waits on
    /// them.
    // dasr-lint: no-alloc
    fn writeback(&mut self, n: usize) {
        let writes = n.div_ceil(WRITEBACK_COALESCE);
        for _ in 0..writes {
            self.disk.submit_low(IoToken::Background, 1.0, self.clock);
        }
        if writes > 0 {
            self.pump_disk();
        }
    }

    // dasr-lint: no-alloc
    fn drain_runnable(&mut self) {
        while let Some(req) = self.runnable.pop_front() {
            self.advance(req);
        }
    }

    /// Advances a request's state machine until it blocks or completes.
    // dasr-lint: no-alloc
    fn advance(&mut self, req: ReqId) {
        loop {
            let Some(state) = self.requests.get_mut(req) else {
                return;
            };
            let Some(&op) = state.spec.ops.get(state.op) else {
                self.complete_request(req);
                return;
            };
            match op {
                Op::CpuBurst { us } => {
                    self.cpu.submit(req, us, self.clock);
                    self.pump_cpu();
                    return;
                }
                Op::PageAccess { page, write } => match self.pool.access(page, write) {
                    Access::Hit => {
                        state.op += 1;
                    }
                    Access::Miss => {
                        state.pending_page = Some((page, write));
                        self.disk.submit(IoToken::Request(req), 1.0, self.clock);
                        self.pump_disk();
                        return;
                    }
                },
                Op::LogWrite { bytes } => {
                    self.log
                        .submit(IoToken::Request(req), f64::from(bytes), self.clock);
                    self.pump_log();
                    return;
                }
                Op::LockAcquire { lock, exclusive } => {
                    if self.locks.acquire(req, lock, exclusive, self.clock) {
                        state.op += 1;
                    } else {
                        return; // blocked; wait charged on grant
                    }
                }
                Op::LockRelease { lock } => {
                    state.op += 1;
                    self.locks
                        .release(req, lock, self.clock, &mut self.lock_scratch);
                    self.resume_lock_waiters();
                }
                Op::MemoryGrant { mb } => {
                    // One grant per request (as engines grant per
                    // statement): holding a grant makes further grant ops
                    // no-ops, which also rules out grant-vs-grant
                    // deadlocks.
                    if state.granted_mb > 0 {
                        state.op += 1;
                        continue;
                    }
                    let clamped = u64::from(mb).min(self.grants.pool_mb()).max(1) as u32;
                    if self.grants.acquire(req, mb, self.clock) {
                        state.granted_mb += clamped;
                        state.op += 1;
                    } else {
                        return; // blocked; wait charged on grant
                    }
                }
                Op::Think { us } => {
                    self.push_event(self.clock + us, Ev::Wake { req, think_us: us });
                    return;
                }
            }
        }
    }

    /// Resumes the waiters in `lock_scratch` (filled by the preceding
    /// `locks.release`/`release_all` call), charging their lock waits.
    // dasr-lint: no-alloc
    fn resume_lock_waiters(&mut self) {
        let buf = std::mem::take(&mut self.lock_scratch);
        for g in &buf {
            if let Some(state) = self.requests.get_mut(g.req) {
                state.waits.add(WaitClass::Lock, g.wait_us);
                self.waits.add(WaitClass::Lock, g.wait_us);
                state.op += 1;
                self.runnable.push_back(g.req);
            }
        }
        self.lock_scratch = buf;
    }

    // dasr-lint: no-alloc
    fn complete_request(&mut self, req: ReqId) {
        let state = self
            .requests
            .remove(req)
            // dasr-lint: allow(G3) reason="completion invariant: a request completes exactly once; a double-complete must abort the simulation"
            .expect("completing unknown request");
        // Strict 2PL: release everything still held.
        self.locks
            .release_all(req, self.clock, &mut self.lock_scratch);
        self.resume_lock_waiters();
        if state.granted_mb > 0 {
            self.grants
                .release(state.granted_mb, self.clock, &mut self.grant_scratch);
            let buf = std::mem::take(&mut self.grant_scratch);
            for w in &buf {
                if let Some(ws) = self.requests.get_mut(w.req) {
                    ws.waits.add(WaitClass::Memory, w.wait_us);
                    self.waits.add(WaitClass::Memory, w.wait_us);
                    ws.granted_mb += w.mb;
                    ws.op += 1;
                    self.runnable.push_back(w.req);
                }
            }
            self.grant_scratch = buf;
        }
        self.completed_latencies_ms.push(
            CompletedRequest {
                arrived: state.arrived,
                completed: self.clock,
                cpu_service_us: state.cpu_service_us,
                waits: state.waits,
            }
            .latency_ms(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DISK_BASE_LATENCY_US, LOG_BASE_LATENCY_US};
    use crate::request::RequestBuilder;

    fn small_container() -> ResourceVector {
        ResourceVector::new(1.0, 64.0, 100.0, 5.0)
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default(), small_container())
    }

    #[test]
    fn pure_cpu_request_latency_equals_service() {
        let mut e = engine();
        e.submit_at(SimTime::ZERO, RequestBuilder::new().cpu(5_000).build());
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert_eq!(s.completed, 1);
        assert_eq!(s.latencies_ms, vec![5.0]);
        assert_eq!(s.waits.total(), 0);
    }

    #[test]
    fn sustained_cpu_overload_accumulates_signal_wait() {
        let mut e = engine(); // 1 core, 50 ms allowance
        for _ in 0..5 {
            e.submit_at(SimTime::ZERO, RequestBuilder::new().cpu(100_000).build());
        }
        e.run_until(SimTime::from_secs(2));
        let s = e.end_interval();
        assert_eq!(s.completed, 5);
        // vt: -50k → dispatch at 0 (vt 50k), then ready at 50k, 150k, 250k,
        // 350k → waits 0 + 50k + 150k + 250k + 350k.
        assert_eq!(s.waits[WaitClass::Cpu], 800_000);
        let max_lat = s.latencies_ms.iter().copied().fold(0.0, f64::max);
        assert_eq!(max_lat, 450.0);
    }

    #[test]
    fn isolated_page_miss_costs_base_latency_then_hits_are_free() {
        let mut e = engine(); // 100 IOPS container
        e.submit_at(SimTime::ZERO, RequestBuilder::new().read(7).build());
        e.run_until(SimTime::from_secs(1));
        let s1 = e.end_interval();
        assert_eq!(s1.disk_reads, 1);
        assert_eq!(s1.waits[WaitClass::DiskIo], DISK_BASE_LATENCY_US);

        e.submit_at(e.now(), RequestBuilder::new().read(7).build());
        e.run_until(e.now() + 1_000_000);
        let s2 = e.end_interval();
        assert_eq!(s2.disk_reads, 0, "cached");
        assert_eq!(s2.waits[WaitClass::DiskIo], 0);
    }

    #[test]
    fn disk_overload_throttles() {
        let mut e = engine(); // 100 IOPS, 25-op burst allowance
                              // Stay under the admission limit (400 outstanding).
        for i in 0..350u64 {
            e.submit_at(SimTime::ZERO, RequestBuilder::new().read(i).build());
        }
        e.run_until(SimTime::from_secs(30));
        let s = e.end_interval();
        assert_eq!(s.completed, 350);
        let max_lat = s.latencies_ms.iter().copied().fold(0.0, f64::max);
        assert!(max_lat > 2_500.0, "tail should wait seconds: {max_lat}");
    }

    #[test]
    fn log_write_waits_on_log_device() {
        let mut e = engine();
        e.submit_at(SimTime::ZERO, RequestBuilder::new().log(1_000).build());
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert_eq!(s.waits[WaitClass::LogIo], LOG_BASE_LATENCY_US);
        assert!(s.log_util_pct > 0.0);
    }

    #[test]
    fn lock_contention_produces_lock_waits() {
        let mut e = engine();
        e.submit_at(
            SimTime::ZERO,
            RequestBuilder::new().lock(1, true).think(10_000).build(),
        );
        e.submit_at(
            SimTime::from_micros(1),
            RequestBuilder::new().lock(1, true).build(),
        );
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert_eq!(s.completed, 2);
        assert_eq!(s.waits[WaitClass::Lock], 9_999);
    }

    #[test]
    fn memory_grant_contention() {
        let mut e = engine(); // 64 MB memory => grant pool 16 MB
        e.submit_at(
            SimTime::ZERO,
            RequestBuilder::new().grant(16).think(5_000).build(),
        );
        e.submit_at(
            SimTime::from_micros(1),
            RequestBuilder::new().grant(8).build(),
        );
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert_eq!(s.completed, 2);
        assert_eq!(s.waits[WaitClass::Memory], 4_999);
    }

    #[test]
    fn wait_conservation_per_request() {
        // latency == cpu service + think + all waits, for a serial chain.
        let mut e = engine();
        let spec = RequestBuilder::new()
            .cpu(2_000)
            .read(1)
            .log(500)
            .think(1_000)
            .cpu(1_000)
            .build();
        e.submit_at(SimTime::ZERO, spec);
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert_eq!(s.completed, 1);
        let latency_us = (s.latencies_ms[0] * 1_000.0).round() as u64;
        let expected_waits = DISK_BASE_LATENCY_US + LOG_BASE_LATENCY_US + 1_000;
        assert_eq!(latency_us, 3_000 + expected_waits);
        assert_eq!(s.waits.total(), expected_waits);
    }

    #[test]
    fn cpu_utilization_is_metered() {
        let mut e = engine(); // 1 core
        e.submit_at(SimTime::ZERO, RequestBuilder::new().cpu(300_000).build());
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert!((s.cpu_util_pct - 30.0).abs() < 1.0, "{}", s.cpu_util_pct);
    }

    #[test]
    fn disk_utilization_tracks_allocation_share() {
        let mut e = engine(); // 100 IOPS
                              // 50 cold reads in a 1 s interval = 50% of 100 IOPS.
        for i in 0..50u64 {
            e.submit_at(SimTime::ZERO, RequestBuilder::new().read(i).build());
        }
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert!((s.disk_util_pct - 50.0).abs() < 2.0, "{}", s.disk_util_pct);
    }

    #[test]
    fn resize_up_rerates_queued_backlog() {
        let load = |resize: bool| -> f64 {
            let mut e = engine(); // 1 core
            for i in 0..40u64 {
                e.submit_at(
                    SimTime::from_micros(i * 1_000),
                    RequestBuilder::new().cpu(100_000).build(),
                );
            }
            e.run_until(SimTime::from_millis(200));
            if resize {
                e.apply_resources(ResourceVector::new(8.0, 64.0, 100.0, 5.0));
            }
            e.run_until(SimTime::from_secs(20));
            let s = e.end_interval();
            assert_eq!(s.completed, 40);
            s.latencies_ms.iter().copied().fold(0.0, f64::max)
        };
        let without = load(false);
        let with = load(true);
        assert!(
            with < without / 2.0,
            "resize must cut tail latency: {with} vs {without}"
        );
    }

    #[test]
    fn admission_control_rejects_over_limit() {
        let cfg = EngineConfig { max_outstanding: 2 };
        let mut e = Engine::new(cfg, small_container());
        for _ in 0..5 {
            e.submit_at(SimTime::ZERO, RequestBuilder::new().cpu(1_000_000).build());
        }
        e.run_until(SimTime::from_micros(1));
        let s = e.end_interval();
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.rejected, 3);
    }

    #[test]
    fn prewarm_fills_pool_and_avoids_cold_misses() {
        let mut e = Engine::new(
            EngineConfig::default(),
            ResourceVector::new(1.0, 256.0, 1_000.0, 5.0),
        );
        e.prewarm(1_000);
        assert!(e.pool_used_mb() > 0.0);
        e.submit_at(SimTime::ZERO, RequestBuilder::new().read(500).build());
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert_eq!(s.disk_reads, 0, "prewarmed page must hit");
    }

    #[test]
    fn prewarm_clamps_to_capacity() {
        let mut e = engine(); // 64 MB => ~6963 pages
        e.prewarm(u64::MAX / 2);
        assert!(e.pool_used_mb() <= e.pool_capacity_mb() + 1.0);
    }

    #[test]
    fn ballooning_shrinks_gradually_and_abort_restores() {
        // 64 MB → 16 MB is ~21 steps of `BALLOON_STEP_MIN_PAGES`, one per
        // `BALLOON_STEP_US`: three steps in, the balloon is well short.
        let mut e = engine();
        let full = e.pool_capacity_mb();
        e.start_balloon(16.0);
        e.run_until(SimTime::from_secs(3));
        assert!(e.balloon_active());
        let shrunk = e.pool_capacity_mb();
        assert!(shrunk < full, "capacity should shrink: {shrunk} < {full}");
        assert!(!e.balloon_reached_target(), "gradual, not instant");
        e.abort_balloon();
        assert_eq!(e.pool_capacity_mb(), full);
        // A stale BalloonStep event must be harmless.
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.pool_capacity_mb(), full);
    }

    #[test]
    fn balloon_reaches_target_and_commit_keeps_it() {
        let mut e = engine();
        e.start_balloon(16.0);
        e.run_until(SimTime::from_secs(30));
        assert!(e.balloon_reached_target());
        let at_target = e.pool_capacity_mb();
        e.commit_balloon();
        assert!(!e.balloon_active());
        assert_eq!(e.pool_capacity_mb(), at_target);
    }

    #[test]
    fn dirty_evictions_write_back() {
        // Tiny pool: 1 MB memory => ~108 pages.
        let mut e = Engine::new(
            EngineConfig::default(),
            ResourceVector::new(1.0, 1.0, 1_000.0, 5.0),
        );
        for i in 0..300u64 {
            e.submit_at(e.now(), RequestBuilder::new().write(i).build());
            e.run_until(e.now() + 10_000);
        }
        e.run_until(e.now() + SimTime::from_secs(5).as_micros());
        let s = e.end_interval();
        assert!(s.disk_writes > 0, "dirty evictions must hit disk");
        assert_eq!(s.disk_reads, 300);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut e = engine();
            for i in 0..50u64 {
                e.submit_at(
                    SimTime::from_micros(i * 137),
                    RequestBuilder::new()
                        .lock((i % 3) as u32, i % 5 == 0)
                        .cpu(500 + i * 13)
                        .read(i % 17)
                        .log(200)
                        .build(),
                );
            }
            e.run_until(SimTime::from_secs(10));
            let s = e.end_interval();
            (s.completed, s.waits, s.latencies_ms.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn end_interval_into_reuses_the_latency_buffer() {
        let mut e = engine();
        let mut stats = IntervalStats::default();
        for round in 0..3u64 {
            e.submit_at(e.now(), RequestBuilder::new().cpu(1_000).build());
            e.run_until(e.now() + 1_000_000);
            e.end_interval_into(&mut stats);
            assert_eq!(stats.completed, 1, "round {round}");
            assert_eq!(stats.latencies_ms.len(), 1);
        }
        // The reused buffer must match the allocating wrapper.
        e.submit_at(e.now(), RequestBuilder::new().cpu(2_000).build());
        e.run_until(e.now() + 1_000_000);
        let fresh = e.end_interval();
        assert_eq!(fresh.completed, 1);
        assert_eq!(fresh.latencies_ms, vec![2.0]);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut e = engine();
        e.submit_at(
            SimTime::from_millis(5),
            RequestBuilder::new().cpu(1).build(),
        );
        e.run_until(SimTime::from_millis(10));
        assert_eq!(e.now(), SimTime::from_millis(10));
        e.run_until(SimTime::from_millis(1));
        assert_eq!(
            e.now(),
            SimTime::from_millis(10),
            "run_until in past is a no-op"
        );
    }

    #[test]
    #[should_panic(expected = "arrival scheduled in the past")]
    fn past_arrival_panics() {
        let mut e = engine();
        e.run_until(SimTime::from_secs(1));
        e.submit_at(SimTime::ZERO, RequestBuilder::new().build());
    }
}

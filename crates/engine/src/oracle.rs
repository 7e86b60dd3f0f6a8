//! Reference engine — the pre-fast-path implementation, kept as a test
//! oracle.
//!
//! [`OracleEngine`] is the engine exactly as it stood before the fast-path
//! rewrites: request state in `HashMap<ReqId, _>` tables and arrivals and
//! events alike in one `BinaryHeap<Reverse<(SimTime, u64, Ev)>>`. It shares
//! `BufferPool` and `LockTable` with [`Engine`](crate::Engine), so the pool
//! has its own reference test (`tests/buffer_pool_reference.rs`). It is *not*
//! optimized and allocates freely — its only job is to define the expected
//! telemetry. The property tests in `tests/engine_equivalence.rs` drive
//! randomized request mixes (including mid-run resizes and ballooning)
//! through both engines and require **bit-identical** [`IntervalStats`],
//! following the PR 2 oracle-equivalence pattern (legacy rule chains kept
//! as the oracle for the typed decision engine).
//!
//! Keep this module in sync with intentional *semantic* changes to
//! [`Engine`](crate::Engine) — and with nothing else.

use crate::bufferpool::{Access, BufferPool};
use crate::config::{grant_mb, pages_to_mb, pool_pages, EngineConfig};
use crate::cpu::CpuScheduler;
use crate::device::{IoDevice, IoToken};
use crate::engine::{
    IntervalStats, BALLOON_STEP_FRACTION, BALLOON_STEP_MIN_PAGES, BALLOON_STEP_US,
    WRITEBACK_COALESCE,
};
use crate::grants::GrantPool;
use crate::locks::LockTable;
use crate::meter;
use crate::request::{CompletedRequest, Op, ReqId, RequestSpec};
use crate::time::SimTime;
use crate::waits::{WaitClass, WaitStats};
use dasr_containers::ResourceVector;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Events in the simulation heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrival(ReqId),
    CpuDone {
        req: ReqId,
        work_us: u64,
        signal_wait_us: u64,
    },
    CpuReady(u64),
    DiskReadDone {
        req: ReqId,
        wait_us: u64,
    },
    DiskReady(u64),
    LogDone {
        req: ReqId,
        wait_us: u64,
    },
    LogReady(u64),
    Wake {
        req: ReqId,
        think_us: u64,
    },
    BalloonStep,
}

#[derive(Debug)]
struct ReqState {
    spec: RequestSpec,
    op: usize,
    arrived: SimTime,
    cpu_service_us: u64,
    waits: WaitStats,
    pending_page: Option<(u64, bool)>,
    granted_mb: u32,
}

/// The reference (pre-fast-path) simulated database server.
#[derive(Debug)]
pub struct OracleEngine {
    cfg: EngineConfig,
    clock: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    next_req: ReqId,
    pending: HashMap<ReqId, RequestSpec>,
    requests: HashMap<ReqId, ReqState>,
    runnable: VecDeque<ReqId>,

    cpu: CpuScheduler,
    disk: IoDevice,
    log: IoDevice,
    pool: BufferPool,
    locks: LockTable,
    grants: GrantPool,
    resources: ResourceVector,

    balloon_target: Option<usize>,

    waits: WaitStats,
    waits_at_interval_start: WaitStats,
    completed: Vec<CompletedRequest>,
    interval_start: SimTime,
    arrivals: u64,
    rejected: u64,
    disk_reads: u64,
    disk_writes: u64,
}

impl OracleEngine {
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
            next_req: 0,
            pending: HashMap::new(),
            requests: HashMap::new(),
            runnable: VecDeque::new(),
            balloon_target: None,
            waits: WaitStats::new(),
            waits_at_interval_start: WaitStats::new(),
            completed: Vec::new(),
            interval_start: SimTime::ZERO,
            arrivals: 0,
            rejected: 0,
            disk_reads: 0,
            disk_writes: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.requests.len()
    }

    /// Pre-fills the buffer pool with pages `0..n` (clean), clamped to the
    /// pool capacity.
    pub fn prewarm(&mut self, pages: u64) {
        let mut scratch = Vec::new();
        let n = (pages as usize).min(self.pool.capacity());
        for page in 0..n as u64 {
            self.pool.insert(page, false, &mut scratch);
        }
    }

    /// Schedules `spec` to arrive at `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn submit_at(&mut self, at: SimTime, spec: RequestSpec) {
        assert!(at >= self.clock, "arrival scheduled in the past");
        let id = self.next_req;
        self.next_req += 1;
        self.pending.insert(id, spec);
        self.push_event(at, Ev::Arrival(id));
    }

    /// Processes every event with timestamp ≤ `t`, then advances the clock
    /// to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(Reverse((et, _, _))) = self.events.peek() {
            if *et > t {
                break;
            }
            let Reverse((et, _, ev)) = self.events.pop().expect("peeked");
            debug_assert!(et >= self.clock, "time went backwards");
            self.clock = et;
            self.dispatch(ev);
            self.drain_runnable();
        }
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Applies a container resize — an online operation.
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
            let mut dirty = Vec::new();
            self.pool
                .set_capacity(pool_pages(resources.memory_mb), &mut dirty);
            self.writeback(dirty.len());
        }
        self.oracle_pump_cpu();
        self.oracle_pump_disk();
        self.oracle_pump_log();
    }

    /// Starts ballooning toward `target_mb` of container memory (§4.3).
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
            let mut dirty = Vec::new();
            self.pool
                .set_capacity(pool_pages(self.resources.memory_mb), &mut dirty);
            self.writeback(dirty.len());
        }
    }

    /// True while a balloon is deflating the pool.
    pub fn balloon_active(&self) -> bool {
        self.balloon_target.is_some()
    }

    /// Ends ballooning *without* restoring capacity.
    pub fn commit_balloon(&mut self) {
        self.balloon_target = None;
    }

    /// Drains telemetry for the interval since the previous call (or since
    /// simulation start).
    pub fn end_interval(&mut self) -> IntervalStats {
        let start = self.interval_start;
        let end = self.clock;
        let interval_us = (end - start).max(1);
        let waits_delta = self.waits.delta_since(&self.waits_at_interval_start);
        self.waits_at_interval_start = self.waits;
        self.interval_start = end;

        let latencies_ms: Vec<f64> = self.completed.drain(..).map(|c| c.latency_ms()).collect();
        let cpu_util_pct = (self.cpu.take_work_done_us() / (self.cpu.cores() * interval_us as f64)
            * 100.0)
            .clamp(0.0, 100.0);
        let disk_util_pct =
            (self.disk.take_consumed() / (self.disk.rate_per_us() * interval_us as f64) * 100.0)
                .clamp(0.0, 100.0);
        let log_util_pct =
            (self.log.take_consumed() / (self.log.rate_per_us() * interval_us as f64) * 100.0)
                .clamp(0.0, 100.0);
        IntervalStats {
            start,
            end,
            cpu_util_pct,
            mem_util_pct: meter::memory_utilization_pct(self.pool.used(), self.pool.capacity()),
            disk_util_pct,
            log_util_pct,
            mem_used_mb: pages_to_mb(self.pool.used()),
            mem_capacity_mb: pages_to_mb(self.pool.capacity()),
            waits: waits_delta,
            completed: latencies_ms.len() as u64,
            latencies_ms,
            arrivals: std::mem::take(&mut self.arrivals),
            rejected: std::mem::take(&mut self.rejected),
            disk_reads: std::mem::take(&mut self.disk_reads),
            disk_writes: std::mem::take(&mut self.disk_writes),
            outstanding: self.requests.len(),
        }
    }

    fn push_event(&mut self, at: SimTime, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    fn oracle_pump_cpu(&mut self) {
        let mut dispatched = Vec::new();
        let ready = self.cpu.pump(self.clock, &mut dispatched);
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

    fn oracle_pump_disk(&mut self) {
        let base = self.disk.base_latency_us();
        let mut dispatched = Vec::new();
        let ready = self.disk.pump(self.clock, &mut dispatched);
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

    fn oracle_pump_log(&mut self) {
        let base = self.log.base_latency_us();
        let mut dispatched = Vec::new();
        let ready = self.log.pump(self.clock, &mut dispatched);
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

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(id) => self.on_arrival(id),
            Ev::CpuDone {
                req,
                work_us,
                signal_wait_us,
            } => {
                if let Some(state) = self.requests.get_mut(&req) {
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
                let mut dispatched = Vec::new();
                let ready = self.cpu.on_ready(at, self.clock, &mut dispatched);
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
            Ev::DiskReadDone { req, wait_us } => {
                self.disk_reads += 1;
                let mut dirty_evicted = 0;
                if let Some(state) = self.requests.get_mut(&req) {
                    state.waits.add(WaitClass::DiskIo, wait_us);
                    self.waits.add(WaitClass::DiskIo, wait_us);
                    let (page, write) = state
                        .pending_page
                        .take()
                        .expect("disk completion without pending page");
                    let mut dirty = Vec::new();
                    self.pool.insert(page, write, &mut dirty);
                    dirty_evicted = dirty.len();
                    state.op += 1;
                    self.runnable.push_back(req);
                }
                self.writeback(dirty_evicted);
            }
            Ev::DiskReady(at) => {
                let base = self.disk.base_latency_us();
                let mut dispatched = Vec::new();
                let ready = self.disk.on_ready(at, self.clock, &mut dispatched);
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
            Ev::LogDone { req, wait_us } => {
                if let Some(state) = self.requests.get_mut(&req) {
                    state.waits.add(WaitClass::LogIo, wait_us);
                    self.waits.add(WaitClass::LogIo, wait_us);
                    state.op += 1;
                    self.runnable.push_back(req);
                }
            }
            Ev::LogReady(at) => {
                let base = self.log.base_latency_us();
                let mut dispatched = Vec::new();
                let ready = self.log.on_ready(at, self.clock, &mut dispatched);
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
            Ev::Wake { req, think_us } => {
                if let Some(state) = self.requests.get_mut(&req) {
                    state.waits.add(WaitClass::Other, think_us);
                    self.waits.add(WaitClass::Other, think_us);
                    state.op += 1;
                    self.runnable.push_back(req);
                }
            }
            Ev::BalloonStep => self.on_balloon_step(),
        }
    }

    fn on_arrival(&mut self, id: ReqId) {
        let spec = self.pending.remove(&id).expect("arrival without spec");
        if self.requests.len() >= self.cfg.max_outstanding {
            self.rejected += 1;
            return;
        }
        self.arrivals += 1;
        self.requests.insert(
            id,
            ReqState {
                spec,
                op: 0,
                arrived: self.clock,
                cpu_service_us: 0,
                waits: WaitStats::new(),
                pending_page: None,
                granted_mb: 0,
            },
        );
        self.runnable.push_back(id);
    }

    fn on_balloon_step(&mut self) {
        let Some(target) = self.balloon_target else {
            return; // balloon aborted; stale event
        };
        let cap = self.pool.capacity();
        if cap > target {
            let step = ((cap as f64 * BALLOON_STEP_FRACTION) as usize).max(BALLOON_STEP_MIN_PAGES);
            let new_cap = cap.saturating_sub(step).max(target);
            let mut dirty = Vec::new();
            self.pool.set_capacity(new_cap, &mut dirty);
            self.writeback(dirty.len());
            if new_cap > target {
                let at = self.clock + BALLOON_STEP_US;
                self.push_event(at, Ev::BalloonStep);
            }
        }
    }

    fn writeback(&mut self, n: usize) {
        let writes = n.div_ceil(WRITEBACK_COALESCE);
        for _ in 0..writes {
            self.disk.submit_low(IoToken::Background, 1.0, self.clock);
        }
        if writes > 0 {
            self.oracle_pump_disk();
        }
    }

    fn drain_runnable(&mut self) {
        while let Some(req) = self.runnable.pop_front() {
            self.advance(req);
        }
    }

    fn advance(&mut self, req: ReqId) {
        loop {
            let Some(state) = self.requests.get_mut(&req) else {
                return;
            };
            let Some(&op) = state.spec.ops.get(state.op) else {
                self.complete_request(req);
                return;
            };
            match op {
                Op::CpuBurst { us } => {
                    self.cpu.submit(req, us, self.clock);
                    self.oracle_pump_cpu();
                    return;
                }
                Op::PageAccess { page, write } => match self.pool.access(page, write) {
                    Access::Hit => {
                        state.op += 1;
                    }
                    Access::Miss => {
                        state.pending_page = Some((page, write));
                        self.disk.submit(IoToken::Request(req), 1.0, self.clock);
                        self.oracle_pump_disk();
                        return;
                    }
                },
                Op::LogWrite { bytes } => {
                    self.log
                        .submit(IoToken::Request(req), f64::from(bytes), self.clock);
                    self.oracle_pump_log();
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
                    let mut granted = Vec::new();
                    self.locks.release(req, lock, self.clock, &mut granted);
                    self.resume_lock_waiters(granted);
                }
                Op::MemoryGrant { mb } => {
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

    fn resume_lock_waiters(&mut self, granted: Vec<crate::locks::GrantedWaiter>) {
        for g in granted {
            if let Some(state) = self.requests.get_mut(&g.req) {
                state.waits.add(WaitClass::Lock, g.wait_us);
                self.waits.add(WaitClass::Lock, g.wait_us);
                state.op += 1;
                self.runnable.push_back(g.req);
            }
        }
    }

    fn complete_request(&mut self, req: ReqId) {
        let state = self
            .requests
            .remove(&req)
            .expect("completing unknown request");
        let mut granted = Vec::new();
        self.locks.release_all(req, self.clock, &mut granted);
        self.resume_lock_waiters(granted);
        if state.granted_mb > 0 {
            let mut woken = Vec::new();
            self.grants
                .release(state.granted_mb, self.clock, &mut woken);
            for w in woken {
                if let Some(ws) = self.requests.get_mut(&w.req) {
                    ws.waits.add(WaitClass::Memory, w.wait_us);
                    self.waits.add(WaitClass::Memory, w.wait_us);
                    ws.granted_mb += w.mb;
                    ws.op += 1;
                    self.runnable.push_back(w.req);
                }
            }
        }
        self.completed.push(CompletedRequest {
            arrived: state.arrived,
            completed: self.clock,
            cpu_service_us: state.cpu_service_us,
            waits: state.waits,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestBuilder;

    #[test]
    fn oracle_smoke() {
        let mut e = OracleEngine::new(
            EngineConfig::default(),
            ResourceVector::new(1.0, 64.0, 100.0, 5.0),
        );
        e.submit_at(SimTime::ZERO, RequestBuilder::new().cpu(5_000).build());
        e.run_until(SimTime::from_secs(1));
        let s = e.end_interval();
        assert_eq!(s.completed, 1);
        assert_eq!(s.latencies_ms, vec![5.0]);
    }
}

//! The read side every workload ends with: reopen the archive it wrote,
//! decode all of it once through the streaming cursor into a small
//! [`Reference`], then run the fixed query mix against the indexed paths
//! and check every answer against that reference.
//!
//! The reference also answers the paper's two axes *from the archive
//! alone* — cost by replaying each tenant's resize events over the
//! catalog's price list, goal misses by counting violation events — so a
//! store that drops or mangles a record moves an end-to-end metric.

use crate::clock::{now_ns, secs_since};
use crate::spans::{Layer, SpanBuf};
use dasr_containers::Catalog;
use dasr_core::obs::{EventKind, RunEvent};
use dasr_store::record::etag_of;
use dasr_store::{FireCounts, Query, RecordPayload, RunId, Store, StoreError};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// The five query types of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryKind {
    /// `scan_range` over a one-hour window, all runs.
    WindowScan,
    /// Streaming `cursor(Query { run, tenant, .. })`.
    StreamTenant,
    /// `tenant_events(run, tenant)`.
    TenantEvents,
    /// `fire_counts(None, hours)` — answered from the index.
    FireCounts,
    /// `load_recording(run, Some(tenant))`.
    LoadRecording,
}

/// Every kind, in reporting order.
pub const QUERY_KINDS: [QueryKind; 5] = [
    QueryKind::WindowScan,
    QueryKind::StreamTenant,
    QueryKind::TenantEvents,
    QueryKind::FireCounts,
    QueryKind::LoadRecording,
];

/// One cycle of the mix: the two scans that touch every segment (a window
/// scan, a fire-count window) once, each per-tenant query
/// [`TENANT_QUERIES_PER_CYCLE`] times. The scans cost an order of magnitude
/// more than the rest, so they are the rare queries, as an analyst's
/// dashboard would have them.
pub const TENANT_QUERIES_PER_CYCLE: usize = 6;
/// Queries in one cycle.
pub const QUERIES_PER_CYCLE: usize = 2 + 3 * TENANT_QUERIES_PER_CYCLE;

impl QueryKind {
    /// The per-layer metric stem and span name, e.g. `store.q_window_scan`.
    pub fn stem(self) -> &'static str {
        match self {
            QueryKind::WindowScan => "store.q_window_scan",
            QueryKind::StreamTenant => "store.q_stream_tenant",
            QueryKind::TenantEvents => "store.q_tenant_events",
            QueryKind::FireCounts => "store.q_fire_counts",
            QueryKind::LoadRecording => "store.q_load_recording",
        }
    }

    /// Times the query is issued per cycle.
    pub fn per_cycle(self) -> usize {
        match self {
            QueryKind::WindowScan | QueryKind::FireCounts => 1,
            _ => TENANT_QUERIES_PER_CYCLE,
        }
    }

    /// The tail percentile its sample count in a traced pass supports
    /// (see [`crate::stats::supported_percentile`]): 200 cycles give the
    /// scans 200 samples and the per-tenant queries 1200.
    pub fn tail_percentile(self) -> f64 {
        match self.per_cycle() {
            1 => 95.0,
            _ => 99.0,
        }
    }
}

const MINUTES_PER_HOUR: u64 = 60;

/// What the archive holds for one `(run, tenant)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct TenantRef {
    samples: u64,
    events: u64,
    /// Order-sensitive hash of the tenant's `(interval, event tag)` stream.
    events_hash: u64,
}

fn hash_event(h: u64, ev: &RunEvent) -> u64 {
    // FNV-1a over the interval and the kind tag.
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = h;
    for byte in ev
        .interval
        .to_le_bytes()
        .into_iter()
        .chain([etag_of(&ev.kind)])
    {
        h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    h
}

const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// CRC-32 over a stream of lines in bounded memory: `dasr_store::crc` is
/// one-shot, so each 64 KiB chunk is checksummed together with the CRC of
/// everything before it.
#[derive(Default)]
pub struct ChainedCrc {
    chunk: Vec<u8>,
    crc: u32,
}

impl ChainedCrc {
    const CHUNK: usize = 64 * 1024;

    /// Appends `line` and a newline.
    pub fn line(&mut self, line: &str) {
        self.bytes(line.as_bytes());
        self.bytes(b"\n");
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.chunk.extend_from_slice(bytes);
        if self.chunk.len() >= Self::CHUNK {
            self.fold();
        }
    }

    fn fold(&mut self) {
        self.crc = dasr_store::crc::crc32(&self.chunk);
        self.chunk.clear();
        self.chunk.extend_from_slice(&self.crc.to_le_bytes());
    }

    /// The checksum of everything appended.
    pub fn finish(mut self) -> u32 {
        self.fold();
        self.crc
    }
}

/// Ground truth about a reopened archive, from one full streaming decode.
#[derive(Debug)]
pub struct Reference {
    tenants: BTreeMap<(u32, u64), TenantRef>,
    /// Keys of `tenants`, for seeded choice.
    keys: Vec<(u32, u64)>,
    hour_records: Vec<u64>,
    hour_fires: Vec<FireCounts>,
    /// Records decoded.
    pub records: u64,
    /// Sample records decoded.
    pub samples: u64,
    /// Event records decoded.
    pub events: u64,
    /// Fire counts over everything, from the full decode.
    pub fires: FireCounts,
    /// Tenant-intervals the committed runs cover (Σ tenants × intervals).
    pub tenant_intervals: u64,
    /// Fleet spend reconstructed from the archived resize events.
    pub cost_total: f64,
    /// CRC-32 over the archived events' JSON lines, in append order.
    pub events_crc: u32,
}

impl Reference {
    /// Decodes everything in `store` through `cursor(Query::default())` —
    /// the one read path that consults no index.
    pub fn build(store: &Store, initial_rung: u8) -> Result<Self, StoreError> {
        let hours = store
            .runs()
            .iter()
            .map(|m| m.meta.intervals.div_ceil(MINUTES_PER_HOUR))
            .max()
            .unwrap_or(0) as usize;
        let mut r = Reference {
            tenants: BTreeMap::new(),
            keys: Vec::new(),
            hour_records: vec![0; hours],
            hour_fires: vec![FireCounts::default(); hours],
            records: 0,
            samples: 0,
            events: 0,
            fires: FireCounts::default(),
            tenant_intervals: 0,
            cost_total: 0.0,
            events_crc: 0,
        };
        // Every tenant of every committed run starts on the initial
        // container, whether or not it ever emitted a record.
        let mut rungs: BTreeMap<(u32, u64), (u8, u64)> = BTreeMap::new();
        for m in store.runs() {
            r.tenant_intervals += m.meta.tenants * m.meta.intervals;
            for t in 0..m.meta.tenants {
                r.tenants.insert((m.run.0, t), TenantRef::default());
                rungs.insert((m.run.0, t), (initial_rung, 0));
            }
        }
        let mut crc = ChainedCrc::default();
        for rec in store.cursor(Query::default())? {
            let rec = rec?;
            let hour = (rec.interval() / MINUTES_PER_HOUR) as usize;
            r.records += 1;
            r.hour_records[hour] += 1;
            let key = (rec.run.0, rec.tenant().unwrap_or(u64::MAX));
            let entry = r.tenants.entry(key).or_default();
            match &rec.payload {
                RecordPayload::Sample(_) => {
                    r.samples += 1;
                    entry.samples += 1;
                }
                RecordPayload::Event(ev) => {
                    r.events += 1;
                    entry.events += 1;
                    entry.events_hash = hash_event(
                        if entry.events == 1 {
                            HASH_SEED
                        } else {
                            entry.events_hash
                        },
                        ev,
                    );
                    r.fires.record(&ev.kind);
                    r.hour_fires[hour].record(&ev.kind);
                    crc.line(&ev.to_json_line());
                    if let EventKind::ResizeIssued { from_rung, to_rung } = ev.kind {
                        // Interval `ev.interval` itself was billed on
                        // `from_rung`; the move applies from the next one.
                        let slot = rungs.entry(key).or_insert((initial_rung, 0));
                        debug_assert_eq!(slot.0, from_rung, "resize chain broken for {key:?}");
                        let until = ev.interval + 1;
                        r.cost_total +=
                            Catalog::rung_cost(usize::from(slot.0)) * (until - slot.1) as f64;
                        *slot = (to_rung, until);
                    }
                }
            }
        }
        for m in store.runs() {
            for t in 0..m.meta.tenants {
                let (rung, since) = rungs[&(m.run.0, t)];
                r.cost_total +=
                    Catalog::rung_cost(usize::from(rung)) * (m.meta.intervals - since) as f64;
            }
        }
        r.events_crc = crc.finish();
        r.keys = r.tenants.keys().copied().collect();
        Ok(r)
    }

    fn fires_over(&self, hours: std::ops::Range<usize>) -> FireCounts {
        let mut total = FireCounts::default();
        for f in &self.hour_fires[hours] {
            total.merge(f);
        }
        total
    }
}

/// How long a query phase runs.
#[derive(Debug, Clone, Copy)]
pub enum MixBudget {
    /// Whole cycles until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many cycles — fixed sample counts for percentiles.
    Cycles(usize),
}

/// What a query phase did.
#[derive(Debug, Default)]
pub struct MixOutcome {
    /// Queries issued.
    pub queries: u64,
    /// Queries that errored or disagreed with the reference.
    pub failed: u64,
    /// Records the queries returned.
    pub records_returned: u64,
    /// Wall time of each whole cycle, seconds.
    pub cycle_secs: Vec<f64>,
}

impl MixOutcome {
    /// Queries per second at the median cycle time (0 before any cycle).
    pub fn per_second(&self) -> f64 {
        match crate::stats::median(&self.cycle_secs) {
            s if s > 0.0 => QUERIES_PER_CYCLE as f64 / s,
            _ => 0.0,
        }
    }
}

/// One client issuing the fixed mix in closed loop. Parameters (which
/// hour, which tenant) come from `rng`; every answer is compared with
/// `reference`. With `spans`, each query is also recorded as a span.
pub fn run_mix(
    store: &Store,
    reference: &Reference,
    rng: &mut StdRng,
    budget: MixBudget,
    mut spans: Option<&mut SpanBuf>,
) -> MixOutcome {
    let mut out = MixOutcome::default();
    let hours = reference.hour_records.len();
    let start = now_ns();
    loop {
        let done = match budget {
            MixBudget::Seconds(s) => !out.cycle_secs.is_empty() && secs_since(start) >= s,
            MixBudget::Cycles(n) => out.cycle_secs.len() >= n,
        };
        if done || hours == 0 || reference.keys.is_empty() {
            return out;
        }
        let cycle_start = now_ns();
        let plan = (0..TENANT_QUERIES_PER_CYCLE).flat_map(|round| {
            QUERY_KINDS
                .into_iter()
                .filter(move |k| round < k.per_cycle())
        });
        for kind in plan {
            let (run, tenant) = reference.keys[rng.gen_range(0..reference.keys.len())];
            let h0 = rng.gen_range(0..hours);
            let h1 = rng.gen_range(h0 + 1..hours + 1);
            if let Some(buf) = spans.as_deref_mut() {
                buf.enter(Layer::Query(kind));
            }
            let answer = one_query(store, reference, kind, RunId(run), tenant, h0..h1);
            if let Some(buf) = spans.as_deref_mut() {
                buf.exit();
            }
            out.queries += 1;
            match answer {
                Ok(Some(returned)) => out.records_returned += returned,
                Ok(None) | Err(_) => out.failed += 1,
            }
        }
        out.cycle_secs.push(secs_since(cycle_start));
    }
}

/// Runs one query; `Ok(Some(n))` when its answer of `n` records matches
/// the reference, `Ok(None)` when it does not.
fn one_query(
    store: &Store,
    reference: &Reference,
    kind: QueryKind,
    run: RunId,
    tenant: u64,
    hours: std::ops::Range<usize>,
) -> Result<Option<u64>, StoreError> {
    let want = reference.tenants[&(run.0, tenant)];
    let (returned, ok) = match kind {
        QueryKind::WindowScan => {
            let h = hours.start as u64;
            let hits = store.scan_range(h * MINUTES_PER_HOUR..(h + 1) * MINUTES_PER_HOUR)?;
            let n = hits.len() as u64;
            (n, n == reference.hour_records[hours.start])
        }
        QueryKind::StreamTenant => {
            let mut n = 0u64;
            for rec in store.cursor(Query {
                run: Some(run),
                tenant: Some(tenant),
                ..Query::default()
            })? {
                rec?;
                n += 1;
            }
            (n, n == want.samples + want.events)
        }
        QueryKind::TenantEvents => {
            let events = store.tenant_events(run, tenant)?;
            let hash = events.iter().fold(HASH_SEED, hash_event);
            let n = events.len() as u64;
            (n, n == want.events && (n == 0 || hash == want.events_hash))
        }
        QueryKind::FireCounts => {
            let window = hours.start as u64 * MINUTES_PER_HOUR..hours.end as u64 * MINUTES_PER_HOUR;
            let fires = store.fire_counts(None, window)?;
            (fires.total_fires(), fires == reference.fires_over(hours))
        }
        QueryKind::LoadRecording => {
            let recording = store.load_recording(run, Some(tenant))?;
            let n = recording.records.len() as u64;
            let in_order = recording
                .records
                .windows(2)
                .all(|w| w[0].sample.interval < w[1].sample.interval);
            (n, n == want.samples && in_order)
        }
    };
    Ok(ok.then_some(returned))
}

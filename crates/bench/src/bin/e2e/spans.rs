//! In-memory spans recorded by the decorators in [`crate::traced`], and
//! the self-time arithmetic over them.
//!
//! A [`SpanBuf`] belongs to one thread of control — a tenant-run on a
//! worker, or the main thread — so recording takes no lock; finished
//! buffers are handed to the [`Collector`] (one lock per tenant-run) and
//! written out as JSON lines when the benchmark ends.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

/// Where a span was recorded; [`Layer::as_str`] is the name the trace file
/// and the per-layer metrics use, prefixed by the crate it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One tenant's whole closed loop (`core.fleet` schedules these).
    TenantRun,
    /// `Engine::new` + `prewarm`.
    EngineSetup,
    /// `TraceDriver::arrivals_for_minute`.
    Generate,
    /// `Engine::submit_at` over the minute's arrivals.
    Submit,
    /// `Engine::run_until`.
    Pump,
    /// `Engine::end_interval_into`.
    EndInterval,
    /// `TelemetrySample::from_interval`.
    Sample,
    /// `ReplaySource::observe_interval`.
    ReplayObserve,
    /// `ScalingPolicy::decide`.
    Decide,
    /// `EventSink::emit`.
    SinkEmit,
    /// `Store::append` / `append_recording` (caller side).
    StoreAppend,
    /// `flush` + `end_run` + `close`.
    StoreFlush,
    /// `Store::open` on an existing directory.
    StoreOpen,
    /// `dasr_fleet` population / recording synthesis.
    Synthesize,
    /// One query of the mix, by type.
    Query(crate::queries::QueryKind),
}

impl Layer {
    /// The span's name in the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::TenantRun => "core.fleet.tenant_run",
            Layer::EngineSetup => "engine.setup",
            Layer::Generate => "workloads.generate",
            Layer::Submit => "engine.submit",
            Layer::Pump => "engine.pump",
            Layer::EndInterval => "engine.end_interval",
            Layer::Sample => "telemetry.sample",
            Layer::ReplayObserve => "core.replay.observe",
            Layer::Decide => "core.policy.decide",
            Layer::SinkEmit => "store.sink.emit",
            Layer::StoreAppend => "store.append",
            Layer::StoreFlush => "store.flush",
            Layer::StoreOpen => "store.open",
            Layer::Synthesize => "fleet.synthesize",
            Layer::Query(kind) => kind.stem(),
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `tenant` of a span outside any tenant-run.
pub const NO_TENANT: u32 = u32::MAX;

/// One timed call: `{name, start_ns, end_ns, parent, tenant}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub layer: Layer,
    /// [`now_ns`] at entry.
    pub start_ns: u64,
    /// [`now_ns`] at exit.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Tenant the span belongs to, or [`NO_TENANT`].
    pub tenant: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one thread of control, in entry order.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    tenant: u32,
}

impl SpanBuf {
    /// An empty buffer whose spans are stamped with `tenant`.
    pub fn new(tenant: u32) -> Self {
        Self {
            spans: Vec::new(),
            open: Vec::new(),
            tenant,
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span now, nested in the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        let start = now_ns();
        self.enter_at(layer, start);
    }

    /// [`enter`](Self::enter) with a clock value the caller already has.
    pub fn enter_at(&mut self, layer: Layer, start_ns: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            tenant: self.tenant,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span now and returns the clock value.
    pub fn exit(&mut self) -> u64 {
        let end = now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end;
        end
    }

    /// Records an already-finished span as a child of the innermost open
    /// span — for back-to-back phases that share their boundary clocks.
    pub fn leaf(&mut self, layer: Layer, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            tenant: self.tenant,
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }
}

/// Self time of every span of `buf`: its duration minus the durations of
/// its direct children. Negative when children overrun their parent or
/// overlap — which [`closure_error`] reports instead of hiding.
pub fn self_times(buf: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = buf.iter().map(|s| s.dur_ns() as i64).collect();
    for s in buf {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.dur_ns() as i64;
        }
    }
    own
}

/// `|Σ self − Σ roots| / Σ roots` over a set of buffers, with negative
/// self times clamped to zero: exactly 0 when every child lies inside its
/// parent without overlapping a sibling, and the size of the violation
/// otherwise.
pub fn closure_error<'a>(bufs: impl IntoIterator<Item = &'a [Span]>) -> f64 {
    let (mut own_sum, mut root_sum) = (0u64, 0u64);
    for buf in bufs {
        for (s, own) in buf.iter().zip(self_times(buf)) {
            own_sum += own.max(0) as u64;
            if s.parent == NO_PARENT {
                root_sum += s.dur_ns();
            }
        }
    }
    if root_sum == 0 {
        0.0
    } else {
        own_sum.abs_diff(root_sum) as f64 / root_sum as f64
    }
}

/// Finished span buffers from every thread of a traced pass.
#[derive(Debug, Default)]
pub struct Collector {
    bufs: Mutex<Vec<SpanBuf>>,
}

impl Collector {
    /// Hands a finished buffer over.
    pub fn push(&self, buf: SpanBuf) {
        debug_assert!(buf.open.is_empty(), "buffer pushed with open spans");
        self.bufs
            .lock()
            .expect("span collector poisoned by a panicking worker")
            .push(buf);
    }

    /// Takes every buffer collected so far, ordered by tenant (tenant-less
    /// buffers last) so the result does not depend on worker scheduling.
    pub fn take(&self) -> Vec<SpanBuf> {
        let mut bufs = std::mem::take(
            &mut *self
                .bufs
                .lock()
                .expect("span collector poisoned by a panicking worker"),
        );
        bufs.sort_by_key(|b| b.tenant);
        bufs
    }
}

/// Totals of one [`Layer`].
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Σ durations, ns.
    pub total_ns: u64,
    /// Σ self times, ns (clamped at zero per span).
    pub self_ns: u64,
    /// Every duration, ns — kept only for layers whose percentiles are
    /// reported (see [`Rollup::of`]).
    pub durations_ns: Vec<f64>,
}

/// Per-layer roll-up of a traced pass.
#[derive(Debug, Default)]
pub struct Rollup(BTreeMap<Layer, LayerTotals>);

impl Rollup {
    /// Rolls `bufs` up by layer, keeping individual durations for the
    /// layers `keep_durations` accepts.
    pub fn of(bufs: &[SpanBuf], keep_durations: impl Fn(Layer) -> bool) -> Self {
        let mut rollup = Rollup::default();
        for buf in bufs {
            for (s, own) in buf.spans.iter().zip(self_times(&buf.spans)) {
                let t = rollup.0.entry(s.layer).or_default();
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += own.max(0) as u64;
                if keep_durations(s.layer) {
                    t.durations_ns.push(s.dur_ns() as f64);
                }
            }
        }
        rollup
    }

    /// Totals of `layer` (zeros when it never ran).
    pub fn get(&self, layer: Layer) -> &LayerTotals {
        static NEVER_RAN: LayerTotals = LayerTotals {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            durations_ns: Vec::new(),
        };
        self.0.get(&layer).unwrap_or(&NEVER_RAN)
    }

    /// Σ durations of `layer`, seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.get(layer).total_ns as f64 / 1e9
    }
}

/// Writes `bufs` as JSON lines: one span per line with a file-wide `id`
/// and its `parent`'s id (`null` for roots).
pub fn write_jsonl(bufs: &[SpanBuf], out: &mut impl Write) -> std::io::Result<()> {
    let mut base = 0u64;
    for buf in bufs {
        for (i, s) in buf.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                base + i as u64,
                s.layer.as_str(),
                s.start_ns,
                s.end_ns
            )?;
            match s.parent {
                NO_PARENT => write!(out, "null")?,
                p => write!(out, "{}", base + u64::from(p))?,
            }
            match s.tenant {
                NO_TENANT => writeln!(out, ",\"tenant\":null}}")?,
                t => writeln!(out, ",\"tenant\":{t}}}")?,
            }
        }
        base += buf.spans.len() as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            tenant: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100] > pump [10,60] > sample [20,30]; decide [70,90].
        let buf = [
            span(Layer::TenantRun, 0, 100, NO_PARENT),
            span(Layer::Pump, 10, 60, 0),
            span(Layer::Sample, 20, 30, 1),
            span(Layer::Decide, 70, 90, 0),
        ];
        assert_eq!(self_times(&buf), vec![30, 40, 10, 20]);
        assert_eq!(closure_error([&buf[..]]), 0.0);
    }

    #[test]
    fn overlapping_children_show_up_as_closure_error() {
        // Two children that together overrun their 100 ns parent by 50.
        let buf = [
            span(Layer::TenantRun, 0, 100, NO_PARENT),
            span(Layer::Pump, 0, 80, 0),
            span(Layer::Decide, 30, 100, 0),
        ];
        assert_eq!(self_times(&buf), vec![-50, 80, 70]);
        assert!((closure_error([&buf[..]]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn buffers_from_several_threads_roll_up_independently() {
        let collector = Collector::default();
        std::thread::scope(|scope| {
            for tenant in 0..4u32 {
                let collector = &collector;
                scope.spawn(move || {
                    let mut buf = SpanBuf::new(tenant);
                    buf.enter(Layer::TenantRun);
                    for _ in 0..3 {
                        buf.time(Layer::Decide, || std::hint::black_box(tenant));
                    }
                    let t = now_ns();
                    buf.leaf(Layer::Pump, t, t);
                    buf.exit();
                    collector.push(buf);
                });
            }
        });
        let bufs = collector.take();
        assert_eq!(
            bufs.iter().map(|b| b.tenant).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "ordered by tenant, not by which worker finished first"
        );
        let rollup = Rollup::of(&bufs, |l| l == Layer::Decide);
        assert_eq!(rollup.get(Layer::TenantRun).count, 4);
        assert_eq!(rollup.get(Layer::Decide).count, 12);
        assert_eq!(rollup.get(Layer::Decide).durations_ns.len(), 12);
        assert!(rollup.get(Layer::Pump).durations_ns.is_empty());
        // Every tenant-run's self time is its span minus its four children.
        let run = rollup.get(Layer::TenantRun);
        let kids = rollup.get(Layer::Decide).total_ns + rollup.get(Layer::Pump).total_ns;
        assert_eq!(run.self_ns, run.total_ns - kids);
        assert_eq!(closure_error(bufs.iter().map(SpanBuf::spans)), 0.0);
        assert_eq!(
            rollup.get(Layer::Sample).count,
            0,
            "absent layers read as zero"
        );
    }

    #[test]
    fn jsonl_ids_are_file_wide_and_parents_resolve() {
        let mut a = SpanBuf::new(7);
        a.enter_at(Layer::TenantRun, 5);
        a.leaf(Layer::Decide, 6, 8);
        a.exit();
        let mut b = SpanBuf::new(NO_TENANT);
        b.leaf(Layer::StoreOpen, 1, 2);
        let mut out = Vec::new();
        write_jsonl(&[a, b], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].starts_with("{\"id\":0,\"name\":\"core.fleet.tenant_run\",\"start_ns\":5,")
        );
        assert!(lines[0].ends_with("\"parent\":null,\"tenant\":7}"));
        assert!(lines[1].contains(
            "\"id\":1,\"name\":\"core.policy.decide\",\"start_ns\":6,\"end_ns\":8,\"parent\":0,"
        ));
        assert_eq!(
            lines[2],
            "{\"id\":2,\"name\":\"store.open\",\"start_ns\":1,\"end_ns\":2,\"parent\":null,\"tenant\":null}"
        );
        for line in lines {
            dasr_core::json::parse(line).expect("each line is one JSON object");
        }
    }
}

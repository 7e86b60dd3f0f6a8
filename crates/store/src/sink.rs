//! [`StoreSink`]: stream a fleet run's events straight into the store.
//!
//! Implements [`EventSink`], so
//! [`FleetRunner::run_fleet_summary`](dasr_core::FleetRunner) can deliver
//! a fleet's event stream to disk in shard order without ever
//! materializing it in memory — the one persisted event path. Events
//! cross to the writer thread over the channel; the scheduler's worker is
//! never blocked on disk I/O.
//!
//! `emit` cannot fail (the trait has no error channel), so the first
//! failure is recorded, later events are dropped, and
//! [`StoreSink::error`] surfaces what happened — check it (or the
//! [`end_run`](crate::Store::end_run) result, which flushes the same
//! writer) after the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::record::{RecordPayload, RunId, StoredRecord};
use crate::writer::AppendHandle;
use dasr_core::obs::{EventSink, RunEvent};

/// An [`EventSink`] that appends every event to a store run.
///
/// Created by [`Store::event_sink`](crate::Store::event_sink); the run
/// must still be open when the events are counted into its manifest entry
/// (i.e. call [`end_run`](crate::Store::end_run) after the fleet run
/// finishes).
pub struct StoreSink {
    handle: AppendHandle,
    run: RunId,
    events: Arc<AtomicU64>,
    error: Option<String>,
}

impl StoreSink {
    pub(crate) fn new(handle: AppendHandle, run: RunId, events: Arc<AtomicU64>) -> Self {
        Self {
            handle,
            run,
            events,
            error: None,
        }
    }

    /// The run this sink records into.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// The first failure, if any (later events were dropped).
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

impl EventSink for StoreSink {
    fn emit(&mut self, event: &RunEvent) {
        if self.error.is_some() {
            return;
        }
        let rec = StoredRecord {
            run: self.run,
            payload: RecordPayload::Event(*event),
        };
        match self.handle.append(rec) {
            Ok(()) => {
                self.events.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.handle.flush() {
                self.error = Some(e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RunMeta, Store};
    use dasr_core::obs::EventKind;

    #[test]
    fn sink_streams_events_into_the_run() {
        let dir = std::env::temp_dir().join(format!("dasr-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir).expect("open");
        let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
        let mut sink = store.event_sink(run).expect("sink");
        assert_eq!(sink.run(), run);
        for tenant in 0..3u64 {
            sink.emit(&RunEvent {
                tenant: Some(tenant),
                interval: tenant,
                kind: EventKind::IntervalStart,
            });
        }
        sink.finish();
        assert!(sink.error().is_none());
        let committed = store.end_run(run).expect("commit");
        assert_eq!(committed.events, 3, "sink emissions counted in manifest");
        assert_eq!(store.tenant_events(run, 2).expect("query").len(), 1);
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn sink_for_unknown_run_is_rejected() {
        let dir = std::env::temp_dir().join(format!("dasr-sink-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open");
        assert!(store.event_sink(RunId(99)).is_err());
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

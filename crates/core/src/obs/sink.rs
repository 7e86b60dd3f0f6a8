//! Streaming event delivery for fleet-scale runs.
//!
//! Buffering every tenant's [`RunEvent`] stream in memory makes fleet
//! observability O(total events) in RAM — fine for 64 tenants, fatal for
//! 100k. An [`EventSink`] inverts the flow: the sharded fleet scheduler
//! delivers each shard's events to the sink *in shard order* as shards
//! complete, so a summary-mode run holds only the not-yet-flushed shards'
//! events in memory (O(in-flight shards), not O(tenants)).
//!
//! # Ordering contract
//!
//! The scheduler calls [`EventSink::emit`] for every event of shard 0,
//! then shard 1, and so on — regardless of which worker finished which
//! shard first — and events within a shard arrive in tenant order, each
//! already stamped with its tenant index. The delivered stream is
//! therefore byte-identical to the buffered
//! [`crate::runner::fleet::FleetReport::events_jsonl`] dump for any
//! thread or shard count.

use super::events::RunEvent;

/// Receives a fleet run's event stream, shard by shard, in tenant order.
///
/// Implementations must be `Send`: the scheduler invokes the sink from
/// whichever worker thread closes the next gap in shard order (under a
/// lock, so calls never overlap).
pub trait EventSink: Send {
    /// Delivers one event. Events arrive in fleet order (tenant-major).
    fn emit(&mut self, event: &RunEvent);

    /// Called once after the last event of the run has been delivered.
    fn finish(&mut self) {}
}

/// Discards every event (metrics-only summary runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _event: &RunEvent) {}
}

/// Collects events into a `Vec` — the buffered reference for equivalence
/// tests and small fleets.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Events in delivery order.
    pub events: Vec<RunEvent>,
}

impl EventSink for VecSink {
    fn emit(&mut self, event: &RunEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::EventKind;

    fn event(i: u64) -> RunEvent {
        RunEvent {
            tenant: Some(i),
            interval: i,
            kind: EventKind::ResizeIssued {
                from_rung: 1,
                to_rung: 2,
            },
        }
    }

    #[test]
    fn vec_sink_matches_jsonl_format() {
        let mut v = VecSink::default();
        v.emit(&event(0));
        v.emit(&event(1));
        v.finish();
        let jsonl = crate::obs::events_jsonl(&v.events);
        assert_eq!(
            jsonl,
            format!("{}\n{}\n", event(0).to_json_line(), event(1).to_json_line())
        );
    }
}

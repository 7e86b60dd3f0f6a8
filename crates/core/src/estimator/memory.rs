//! The ballooning controller for low-memory-demand detection (§4.3).
//!
//! Memory utilization is rarely LOW (caches never volunteer memory back)
//! and memory waits are LOW whenever the working set fits — so neither
//! signal distinguishes *low demand* from *satisfied demand*. Inspired by
//! VM ballooning, the controller slowly deflates the buffer pool toward the
//! next smaller container's memory and watches disk I/O:
//!
//! - I/O stays flat → the working set still fits → demand really is low →
//!   **commit** (the container's memory can be reduced);
//! - I/O rises → the working set no longer fits → **abort** and restore,
//!   with only a bounded latency blip (Figure 14).
//!
//! Probes start only when demand for *all other* resources is low, which
//! minimizes the risk of hurting latency.

use dasr_telemetry::SignalSet;

/// A probe aborts when disk reads/s exceed
/// `baseline × IO_RISE_FACTOR + IO_RISE_FLOOR`.
pub const IO_RISE_FACTOR: f64 = 1.5;

/// Absolute slack added to the abort threshold, reads/s.
pub const IO_RISE_FLOOR: f64 = 10.0;

/// Intervals to wait after an abort before probing again.
pub const RETRY_AFTER_INTERVALS: u64 = 30;

/// Minimum completed requests per interval for the probe's I/O signal to
/// mean anything: an idle tenant generates no misses, so a probe that
/// "succeeds" at idle proves nothing and would set a memory trap for the
/// next burst.
pub const MIN_COMPLETED: u64 = 60;

/// What the policy should tell the engine to do with the balloon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BalloonAction {
    /// Nothing.
    None,
    /// Start deflating toward `target_mb`.
    Start {
        /// Target container memory, MB.
        target_mb: f64,
    },
    /// Abort and restore the full pool.
    Abort,
    /// Probe complete: memory demand confirmed low; the container's memory
    /// may be reduced.
    Commit,
}

/// Source-side balloon status, supplied by the runner's
/// [`TelemetrySource`](dasr_telemetry::TelemetrySource). The canonical
/// definition lives on the telemetry side of the seam as
/// [`dasr_telemetry::ProbeStatus`]; this alias keeps the controller's
/// historical vocabulary.
pub use dasr_telemetry::ProbeStatus as BalloonProbe;

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum State {
    #[default]
    Idle,
    Probing {
        baseline_io: f64,
    },
}

/// The §4.3 controller.
#[derive(Debug, Clone, Default)]
pub struct BalloonController {
    state: State,
    last_abort_interval: Option<u64>,
}

impl BalloonController {
    /// True while a probe is underway.
    pub fn probing(&self) -> bool {
        matches!(self.state, State::Probing { .. })
    }

    /// Advances the controller one interval.
    ///
    /// - `signals` — current telemetry;
    /// - `others_low` — every non-memory resource has low demand (§4.3's
    ///   trigger condition);
    /// - `target_mb` — the next smaller container's memory, when one exists;
    /// - `probe` — the engine's balloon status.
    pub fn step(
        &mut self,
        signals: &SignalSet,
        others_low: bool,
        target_mb: Option<f64>,
        probe: BalloonProbe,
    ) -> BalloonAction {
        match self.state {
            State::Idle => {
                let cooled = self
                    .last_abort_interval
                    .is_none_or(|at| signals.interval >= at + RETRY_AFTER_INTERVALS);
                let active_enough = signals.completed >= MIN_COMPLETED;
                if others_low && cooled && active_enough && probe == BalloonProbe::Inactive {
                    if let Some(target_mb) = target_mb {
                        // Only probe when the target is actually smaller
                        // than what the pool currently holds.
                        if target_mb < signals.mem_capacity_mb {
                            self.state = State::Probing {
                                baseline_io: signals.disk_reads_per_sec,
                            };
                            return BalloonAction::Start { target_mb };
                        }
                    }
                }
                BalloonAction::None
            }
            State::Probing { baseline_io } => {
                if signals.completed < MIN_COMPLETED {
                    // Traffic died mid-probe: the I/O signal is
                    // meaningless. Restore and try again later.
                    self.state = State::Idle;
                    self.last_abort_interval = Some(signals.interval);
                    return BalloonAction::Abort;
                }
                let threshold = baseline_io * IO_RISE_FACTOR + IO_RISE_FLOOR;
                if signals.disk_reads_per_sec > threshold {
                    self.state = State::Idle;
                    self.last_abort_interval = Some(signals.interval);
                    return BalloonAction::Abort;
                }
                if probe
                    == (BalloonProbe::Active {
                        reached_target: true,
                    })
                {
                    self.state = State::Idle;
                    return BalloonAction::Commit;
                }
                BalloonAction::None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests_support::signal_set_with_io;

    fn controller() -> BalloonController {
        BalloonController::default()
    }

    #[test]
    fn starts_probe_when_others_low() {
        let mut c = controller();
        let s = signal_set_with_io(0, 20.0, 2_048.0);
        let a = c.step(&s, true, Some(1_024.0), BalloonProbe::Inactive);
        assert_eq!(a, BalloonAction::Start { target_mb: 1_024.0 });
        assert!(c.probing());
    }

    #[test]
    fn does_not_start_when_others_busy_or_no_target() {
        let mut c = controller();
        let s = signal_set_with_io(0, 20.0, 2_048.0);
        assert_eq!(
            c.step(&s, false, Some(1_024.0), BalloonProbe::Inactive),
            BalloonAction::None
        );
        assert_eq!(
            c.step(&s, true, None, BalloonProbe::Inactive),
            BalloonAction::None
        );
        // Target not smaller than current capacity.
        assert_eq!(
            c.step(&s, true, Some(4_096.0), BalloonProbe::Inactive),
            BalloonAction::None
        );
    }

    #[test]
    fn aborts_on_io_rise() {
        let mut c = controller();
        let s0 = signal_set_with_io(0, 20.0, 2_048.0);
        c.step(&s0, true, Some(1_024.0), BalloonProbe::Inactive);
        // I/O rises well above baseline*1.5 + 10.
        let s1 = signal_set_with_io(1, 200.0, 2_048.0);
        let a = c.step(
            &s1,
            true,
            Some(1_024.0),
            BalloonProbe::Active {
                reached_target: false,
            },
        );
        assert_eq!(a, BalloonAction::Abort);
        assert!(!c.probing());
    }

    #[test]
    fn commits_at_target_with_flat_io() {
        let mut c = controller();
        let s0 = signal_set_with_io(0, 20.0, 2_048.0);
        c.step(&s0, true, Some(1_024.0), BalloonProbe::Inactive);
        let s1 = signal_set_with_io(1, 22.0, 1_024.0);
        let a = c.step(
            &s1,
            true,
            Some(1_024.0),
            BalloonProbe::Active {
                reached_target: true,
            },
        );
        assert_eq!(a, BalloonAction::Commit);
    }

    #[test]
    fn abort_cooldown_prevents_immediate_retry() {
        let mut c = controller();
        let s0 = signal_set_with_io(0, 20.0, 2_048.0);
        c.step(&s0, true, Some(1_024.0), BalloonProbe::Inactive);
        let hot = signal_set_with_io(1, 500.0, 2_048.0);
        assert_eq!(
            c.step(
                &hot,
                true,
                Some(1_024.0),
                BalloonProbe::Active {
                    reached_target: false
                }
            ),
            BalloonAction::Abort
        );
        // Next interval: still cooling down.
        let s2 = signal_set_with_io(2, 20.0, 2_048.0);
        assert_eq!(
            c.step(&s2, true, Some(1_024.0), BalloonProbe::Inactive),
            BalloonAction::None
        );
        // After the cooldown: retry allowed.
        let s_late = signal_set_with_io(1 + 30, 20.0, 2_048.0);
        assert!(matches!(
            c.step(&s_late, true, Some(1_024.0), BalloonProbe::Inactive),
            BalloonAction::Start { .. }
        ));
    }
}

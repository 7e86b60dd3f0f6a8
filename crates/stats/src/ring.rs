//! The sample ring under the sliding-window kernels.

/// The last `cap` samples of a stream. The ring is *mirrored* — slot `i` is
/// also stored at `i + cap` — so the window is always one contiguous slice,
/// oldest → newest, and a kernel that falls back to its batch twin hands it
/// that slice.
#[derive(Debug, Clone)]
pub(crate) struct SampleRing {
    cap: usize,
    len: usize,
    /// Next write slot in `0..cap`; during the fill phase `pos == len`.
    pos: usize,
    values: Vec<f64>,
    non_finite: usize,
}

impl SampleRing {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            len: 0,
            pos: 0,
            values: vec![f64::NAN; 2 * cap],
            non_finite: 0,
        }
    }

    /// Stores `v`, evicting the oldest sample once `cap` are held. Returns
    /// the slot written and the sample evicted from it, or `None` when the
    /// ring holds nothing (`cap == 0`).
    pub(crate) fn push(&mut self, v: f64) -> Option<(usize, Option<f64>)> {
        let (p, cap) = (self.pos, self.cap);
        if cap == 0 {
            return None;
        }
        let evicted = (self.len == cap).then(|| self.values[p]);
        match evicted {
            Some(old) => self.non_finite -= !old.is_finite() as usize,
            None => self.len += 1,
        }
        self.non_finite += !v.is_finite() as usize;
        self.values[p] = v;
        self.values[p + cap] = v;
        self.pos = (p + 1) % cap;
        Some((p, evicted))
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// The samples held, by slot: `0..len`, in no particular age order.
    pub(crate) fn slots(&self) -> &[f64] {
        &self.values[..self.len]
    }

    /// The samples held, oldest → newest.
    pub(crate) fn window(&self) -> &[f64] {
        let end = self.pos + self.cap;
        &self.values[end - self.len..end]
    }

    /// True when every sample held is finite.
    pub(crate) fn all_finite(&self) -> bool {
        self.non_finite == 0
    }

    /// True when both rings have the same capacity and have been pushed
    /// the same number of samples, so that equal slots hold coeval samples.
    pub(crate) fn in_step_with(&self, other: &SampleRing) -> bool {
        (self.cap, self.len, self.pos) == (other.cap, other.len, other.pos)
    }
}

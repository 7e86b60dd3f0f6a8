//! DS2-lite — a Dell-DVD-Store-style web-shop mix (§7.1).
//!
//! Browse-dominated read traffic with a purchase path that writes and logs.
//! Compared to CPUIO it has a larger cold fraction (catalog scans), making
//! disk I/O a first-class resource dimension.

use crate::dist::{bounded_normal, weighted_index, Hotspot};
use crate::Workload;
use dasr_engine::request::RequestBuilder;
use dasr_engine::RequestSpec;
use rand::rngs::StdRng;
use rand::Rng;

/// DS2-lite parameters.
#[derive(Debug, Clone, Copy)]
pub struct Ds2Config {
    /// Total database pages (catalog + customers + orders).
    pub db_pages: u64,
    /// Hot pages (bestsellers, active sessions).
    pub hot_pages: u64,
    /// Probability an access is hot.
    pub hot_prob: f64,
    /// Mix weights for (browse, login, purchase).
    pub mix: [f64; 3],
    /// CPU scale factor.
    pub cpu_scale: f64,
    /// Number of inventory rows guarded by locks on the purchase path.
    pub inventory_locks: u32,
}

impl Default for Ds2Config {
    fn default() -> Self {
        Self {
            db_pages: 6 * 131_072, // 6 GB
            hot_pages: 98_304,     // 768 MB
            hot_prob: 0.80,
            mix: [0.60, 0.25, 0.15],
            cpu_scale: 1.0,
            inventory_locks: 512,
        }
    }
}

impl Ds2Config {
    /// Small configuration for fast tests.
    pub fn small() -> Self {
        Self {
            db_pages: 8_192,
            hot_pages: 2_048,
            hot_prob: 0.85,
            cpu_scale: 0.25,
            inventory_locks: 32,
            ..Self::default()
        }
    }
}

/// The DS2-lite workload generator.
#[derive(Debug, Clone)]
pub struct Ds2Workload {
    cfg: Ds2Config,
    hotspot: Hotspot,
}

impl Ds2Workload {
    /// Creates the workload.
    pub fn new(cfg: Ds2Config) -> Self {
        assert!(cfg.inventory_locks > 0, "need at least one inventory lock");
        let hotspot = Hotspot::new(cfg.db_pages, cfg.hot_pages, cfg.hot_prob);
        Self { cfg, hotspot }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Ds2Config {
        &self.cfg
    }

    fn cpu(&self, rng: &mut StdRng, mean_us: f64) -> u64 {
        let mean = mean_us * self.cfg.cpu_scale;
        bounded_normal(rng, mean, mean * 0.3, mean * 0.2, mean * 3.0) as u64
    }

    fn browse(&self, rng: &mut StdRng) -> RequestSpec {
        // Catalog search: CPU for matching plus a batch of reads, some cold.
        let mut b = RequestBuilder::with_capacity(17).cpu(self.cpu(rng, 8_000.0));
        for _ in 0..rng.gen_range(8..=16) {
            b = b.read(self.hotspot.sample(rng));
        }
        b.build()
    }

    fn login(&self, rng: &mut StdRng) -> RequestSpec {
        RequestBuilder::with_capacity(6)
            .cpu(self.cpu(rng, 3_000.0))
            .read(self.hotspot.sample(rng))
            .read(self.hotspot.sample(rng))
            .read(self.hotspot.sample(rng))
            .write(self.hotspot.sample(rng)) // session row
            .log(512)
            .build()
    }

    fn purchase(&self, rng: &mut StdRng) -> RequestSpec {
        let lock = rng.gen_range(0..self.cfg.inventory_locks);
        // Lock, CPU, think, up to 8 reads, 2 writes, log.
        let mut b = RequestBuilder::with_capacity(14)
            .lock(lock, true)
            .cpu(self.cpu(rng, 5_000.0))
            // Payment-gateway round trip while holding the inventory lock.
            .think(rng.gen_range(5_000..15_000));
        for _ in 0..rng.gen_range(4..=8) {
            b = b.read(self.hotspot.sample(rng));
        }
        b.write(self.hotspot.sample(rng))
            .write(self.hotspot.sample(rng))
            .log(2_048)
            .build()
    }
}

impl Workload for Ds2Workload {
    fn name(&self) -> &'static str {
        "ds2"
    }

    fn hot_pages(&self) -> u64 {
        self.cfg.hot_pages
    }

    fn next_request(&mut self, rng: &mut StdRng) -> RequestSpec {
        match weighted_index(rng, &self.cfg.mix) {
            0 => self.browse(rng),
            1 => self.login(rng),
            _ => self.purchase(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_engine::Op;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn browse_dominates_mix() {
        let mut w = Ds2Workload::new(Ds2Config::small());
        let mut r = rng();
        let n = 5_000;
        let mut read_only = 0usize;
        for _ in 0..n {
            let spec = w.next_request(&mut r);
            if !spec.ops.iter().any(|op| {
                matches!(op, Op::LogWrite { .. } | Op::LockAcquire { .. })
                    || matches!(op, Op::PageAccess { write: true, .. })
            }) {
                read_only += 1;
            }
        }
        let frac = read_only as f64 / n as f64;
        assert!((0.55..0.65).contains(&frac), "browse fraction {frac}");
    }

    #[test]
    fn purchases_lock_and_log() {
        let w = Ds2Workload::new(Ds2Config::small());
        let mut r = rng();
        let spec = w.purchase(&mut r);
        assert!(matches!(
            spec.ops[0],
            Op::LockAcquire {
                exclusive: true,
                ..
            }
        ));
        assert!(spec.ops.iter().any(|op| matches!(op, Op::LogWrite { .. })));
    }

    #[test]
    fn cold_fraction_is_substantial() {
        let mut w = Ds2Workload::new(Ds2Config::default());
        let mut r = rng();
        let mut cold = 0usize;
        let mut total = 0usize;
        for _ in 0..2_000 {
            for op in w.next_request(&mut r).ops {
                if let Op::PageAccess { page, .. } = op {
                    total += 1;
                    if page >= w.config().hot_pages {
                        cold += 1;
                    }
                }
            }
        }
        let frac = cold as f64 / total as f64;
        assert!((0.15..0.25).contains(&frac), "cold fraction {frac}");
    }

    /// Each kind's builder is pre-sized to its largest op count; a
    /// request that outgrew it would carry a regrown, doubled capacity.
    #[test]
    fn op_vectors_are_presized_to_their_kind() {
        let mut w = Ds2Workload::new(Ds2Config::default());
        let mut r = rng();
        for _ in 0..5_000 {
            let cap = w.next_request(&mut r).ops.capacity();
            assert!([17, 6, 14].contains(&cap), "capacity {cap}");
        }
    }

    #[test]
    fn deterministic() {
        let gen = || {
            let mut w = Ds2Workload::new(Ds2Config::small());
            let mut r = rng();
            (0..50).map(|_| w.next_request(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(gen(), gen());
    }
}

//! TPC-C-lite — an order-entry transaction mix (§7.1).
//!
//! Five transaction types with the standard TPC-C frequencies over a small
//! number of warehouses. Payment updates the *warehouse* row and NewOrder /
//! Delivery update *district* rows; with few warehouses these rows are hot,
//! and under load the workload becomes **lock-bound** — the Figure 13
//! scenario where >90% of wait time is lock waits and adding resources
//! cannot improve latency.

use crate::dist::{bounded_normal, weighted_index, Hotspot};
use crate::Workload;
use dasr_engine::request::RequestBuilder;
use dasr_engine::RequestSpec;
use rand::rngs::StdRng;
use rand::Rng;

/// Lock-id layout: warehouse locks are `0..warehouses`, district locks are
/// `1000 + w*10 + d`.
const DISTRICT_BASE: u32 = 1_000;

/// TPC-C-lite parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Number of warehouses (fewer ⇒ hotter locks).
    pub warehouses: u32,
    /// Total database pages.
    pub db_pages: u64,
    /// Hot (frequently accessed) pages.
    pub hot_pages: u64,
    /// Probability an access lands in the hot set.
    pub hot_prob: f64,
    /// CPU scale factor applied to every transaction's bursts.
    pub cpu_scale: f64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        Self {
            warehouses: 4,
            db_pages: 4 * 131_072, // 4 GB
            hot_pages: 131_072,    // 1 GB hot
            hot_prob: 0.9,
            cpu_scale: 1.0,
        }
    }
}

impl TpccConfig {
    /// Small configuration for fast tests.
    pub fn small() -> Self {
        Self {
            warehouses: 2,
            db_pages: 8_192,
            hot_pages: 2_048,
            hot_prob: 0.9,
            cpu_scale: 0.25,
        }
    }
}

/// The TPC-C-lite workload generator.
#[derive(Debug, Clone)]
pub struct TpccWorkload {
    cfg: TpccConfig,
    hotspot: Hotspot,
}

/// Standard TPC-C mix: NewOrder 45%, Payment 43%, OrderStatus 4%,
/// Delivery 4%, StockLevel 4%.
const MIX: [f64; 5] = [0.45, 0.43, 0.04, 0.04, 0.04];

impl TpccWorkload {
    /// Creates the workload.
    pub fn new(cfg: TpccConfig) -> Self {
        assert!(cfg.warehouses > 0, "need at least one warehouse");
        let hotspot = Hotspot::new(cfg.db_pages, cfg.hot_pages, cfg.hot_prob);
        Self { cfg, hotspot }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TpccConfig {
        &self.cfg
    }

    fn cpu(&self, rng: &mut StdRng, mean_us: f64) -> u64 {
        let mean = mean_us * self.cfg.cpu_scale;
        bounded_normal(rng, mean, mean * 0.2, mean * 0.3, mean * 2.5) as u64
    }

    fn warehouse_lock(&self, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..self.cfg.warehouses)
    }

    fn district_lock(&self, rng: &mut StdRng) -> u32 {
        let w = rng.gen_range(0..self.cfg.warehouses);
        DISTRICT_BASE + w * 10 + rng.gen_range(0..10)
    }

    /// In-transaction client round trip (the application talks to the user
    /// or another service while holding locks — the source of Figure 13's
    /// application-level lock bottleneck).
    fn round_trip(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(8_000..18_000)
    }

    fn new_order(&self, rng: &mut StdRng) -> RequestSpec {
        // Lock, CPU, think, up to 15 × (read, write), CPU, log.
        let mut b = RequestBuilder::with_capacity(35)
            .lock(self.district_lock(rng), true)
            .cpu(self.cpu(rng, 4_000.0))
            .think(self.round_trip(rng));
        let items = rng.gen_range(5..=15);
        for _ in 0..items {
            b = b.read(self.hotspot.sample(rng));
            b = b.write(self.hotspot.sample(rng));
        }
        b.cpu(self.cpu(rng, 2_000.0)).log(4_096).build()
    }

    fn payment(&self, rng: &mut StdRng) -> RequestSpec {
        RequestBuilder::with_capacity(8)
            .lock(self.warehouse_lock(rng), true)
            .cpu(self.cpu(rng, 1_500.0))
            .read(self.hotspot.sample(rng))
            .think(self.round_trip(rng))
            .write(self.hotspot.sample(rng))
            .write(self.hotspot.sample(rng))
            .cpu(self.cpu(rng, 1_000.0))
            .log(1_024)
            .build()
    }

    fn order_status(&self, rng: &mut StdRng) -> RequestSpec {
        let mut b = RequestBuilder::with_capacity(9).cpu(self.cpu(rng, 1_500.0));
        for _ in 0..8 {
            b = b.read(self.hotspot.sample(rng));
        }
        b.build()
    }

    fn delivery(&self, rng: &mut StdRng) -> RequestSpec {
        let mut b = RequestBuilder::with_capacity(15)
            .lock(self.district_lock(rng), true)
            .cpu(self.cpu(rng, 3_000.0));
        for _ in 0..12 {
            b = b.write(self.hotspot.sample(rng));
        }
        b.log(2_048).build()
    }

    fn stock_level(&self, rng: &mut StdRng) -> RequestSpec {
        let mut b = RequestBuilder::with_capacity(31).cpu(self.cpu(rng, 6_000.0));
        for _ in 0..30 {
            b = b.read(self.hotspot.sample(rng));
        }
        b.build()
    }
}

impl Workload for TpccWorkload {
    fn name(&self) -> &'static str {
        "tpcc"
    }

    fn hot_pages(&self) -> u64 {
        self.cfg.hot_pages
    }

    fn next_request(&mut self, rng: &mut StdRng) -> RequestSpec {
        match weighted_index(rng, &MIX) {
            0 => self.new_order(rng),
            1 => self.payment(rng),
            2 => self.order_status(rng),
            3 => self.delivery(rng),
            _ => self.stock_level(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_engine::Op;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn mix_frequencies_are_respected() {
        let mut w = TpccWorkload::new(TpccConfig::small());
        let mut r = rng();
        let n = 10_000;
        let mut with_warehouse_lock = 0usize;
        let mut with_district_lock = 0usize;
        let mut read_only = 0usize;
        for _ in 0..n {
            let spec = w.next_request(&mut r);
            let mut has_w = false;
            let mut has_d = false;
            let mut has_log = false;
            for op in &spec.ops {
                match op {
                    Op::LockAcquire { lock, .. } if *lock < DISTRICT_BASE => has_w = true,
                    Op::LockAcquire { .. } => has_d = true,
                    Op::LogWrite { .. } => has_log = true,
                    _ => {}
                }
            }
            if has_w {
                with_warehouse_lock += 1;
            }
            if has_d {
                with_district_lock += 1;
            }
            if !has_log && !has_w && !has_d {
                read_only += 1;
            }
        }
        // Payment ≈ 43%, NewOrder+Delivery ≈ 49%, OrderStatus+StockLevel ≈ 8%.
        assert!((0.40..0.46).contains(&(with_warehouse_lock as f64 / n as f64)));
        assert!((0.45..0.53).contains(&(with_district_lock as f64 / n as f64)));
        assert!((0.05..0.11).contains(&(read_only as f64 / n as f64)));
    }

    #[test]
    fn warehouse_locks_are_few_and_hot() {
        let mut w = TpccWorkload::new(TpccConfig {
            warehouses: 2,
            ..TpccConfig::small()
        });
        let mut r = rng();
        let mut locks = std::collections::HashSet::new();
        for _ in 0..2_000 {
            for op in w.next_request(&mut r).ops {
                if let Op::LockAcquire { lock, .. } = op {
                    if lock < DISTRICT_BASE {
                        locks.insert(lock);
                    }
                }
            }
        }
        assert_eq!(locks.len(), 2, "exactly the configured warehouses");
    }

    #[test]
    fn transactions_write_log_when_updating() {
        let w = TpccWorkload::new(TpccConfig::small());
        let mut r = rng();
        let spec = w.payment(&mut r);
        assert!(spec.ops.iter().any(|op| matches!(op, Op::LogWrite { .. })));
        let ro = w.order_status(&mut r);
        assert!(!ro.ops.iter().any(|op| matches!(op, Op::LogWrite { .. })));
    }

    #[test]
    fn cpu_scale_shrinks_bursts() {
        let mut r1 = rng();
        let mut r2 = rng();
        let big = TpccWorkload::new(TpccConfig::default());
        let small = TpccWorkload::new(TpccConfig {
            cpu_scale: 0.1,
            ..TpccConfig::default()
        });
        let b: u64 = (0..200).map(|_| big.payment(&mut r1).total_cpu_us()).sum();
        let s: u64 = (0..200)
            .map(|_| small.payment(&mut r2).total_cpu_us())
            .sum();
        assert!(s * 5 < b, "scaled CPU {s} should be well below {b}");
    }

    /// Each kind's builder is pre-sized to its largest op count; a
    /// request that outgrew it would carry a regrown, doubled capacity.
    #[test]
    fn op_vectors_are_presized_to_their_kind() {
        let mut w = TpccWorkload::new(TpccConfig::default());
        let mut r = rng();
        for _ in 0..5_000 {
            let cap = w.next_request(&mut r).ops.capacity();
            assert!([35, 8, 9, 15, 31].contains(&cap), "capacity {cap}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one warehouse")]
    fn zero_warehouses_panics() {
        let _ = TpccWorkload::new(TpccConfig {
            warehouses: 0,
            ..TpccConfig::small()
        });
    }
}

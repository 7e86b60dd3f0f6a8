//! CPUIO — the paper's synthetic micro-benchmark (§7.1).
//!
//! Generates queries that are CPU-, disk-I/O- and/or log-I/O-intensive in a
//! configurable mix, with the working set controlled by a hotspot access
//! distribution. This is the workload used for Figures 9, 11 and 14.

use crate::dist::{bounded_normal, weighted_index, Hotspot};
use crate::Workload;
use dasr_engine::request::RequestBuilder;
use dasr_engine::RequestSpec;
use rand::rngs::StdRng;
use rand::Rng;

/// CPUIO parameters.
#[derive(Debug, Clone, Copy)]
pub struct CpuIoConfig {
    /// Mean CPU per request, µs (per-request values are ±50% normal).
    pub cpu_us_mean: f64,
    /// Page accesses per balanced request.
    pub pages_per_request: u32,
    /// Log bytes per balanced request.
    pub log_bytes: u32,
    /// Total database pages.
    pub db_pages: u64,
    /// Working-set (hot) pages.
    pub hot_pages: u64,
    /// Probability an access lands in the working set.
    pub hot_prob: f64,
    /// Mix weights for (cpu-heavy, io-heavy, log-heavy, balanced) queries.
    pub mix: [f64; 4],
    /// Probability a request takes a memory grant (analytic queries).
    pub grant_prob: f64,
    /// Grant size in MB when taken.
    pub grant_mb: u32,
}

impl Default for CpuIoConfig {
    fn default() -> Self {
        Self {
            cpu_us_mean: 60_000.0,
            pages_per_request: 16,
            log_bytes: 2_048,
            // 8 GB database, 3 GB working set (Figure 14 uses a ~3 GB
            // working set), 8 KB pages.
            db_pages: 8 * 131_072,
            hot_pages: 3 * 131_072,
            hot_prob: 0.95,
            mix: [0.3, 0.3, 0.1, 0.3],
            grant_prob: 0.02,
            grant_mb: 64,
        }
    }
}

impl CpuIoConfig {
    /// A small configuration for fast tests: tiny working set, light
    /// requests.
    pub fn small() -> Self {
        Self {
            cpu_us_mean: 5_000.0,
            pages_per_request: 8,
            log_bytes: 1_024,
            db_pages: 16_384, // 128 MB
            hot_pages: 4_096, // 32 MB
            hot_prob: 0.95,
            mix: [0.3, 0.3, 0.1, 0.3],
            grant_prob: 0.02,
            grant_mb: 16,
        }
    }

    /// A CPU-dominated configuration (for per-dimension scaling studies).
    pub fn cpu_heavy() -> Self {
        Self {
            mix: [1.0, 0.0, 0.0, 0.0],
            ..Self::default()
        }
    }

    /// An I/O-dominated configuration.
    pub fn io_heavy() -> Self {
        Self {
            mix: [0.0, 1.0, 0.0, 0.0],
            hot_prob: 0.5, // many cold accesses => real disk demand
            ..Self::default()
        }
    }
}

/// The CPUIO workload generator.
#[derive(Debug, Clone)]
pub struct CpuIoWorkload {
    cfg: CpuIoConfig,
    hotspot: Hotspot,
}

impl CpuIoWorkload {
    /// Creates the workload from a configuration.
    pub fn new(cfg: CpuIoConfig) -> Self {
        let hotspot = Hotspot::new(cfg.db_pages, cfg.hot_pages, cfg.hot_prob);
        Self { cfg, hotspot }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CpuIoConfig {
        &self.cfg
    }

    fn cpu_us(&self, rng: &mut StdRng, scale: f64) -> u64 {
        let mean = self.cfg.cpu_us_mean * scale;
        bounded_normal(rng, mean, mean * 0.25, mean * 0.25, mean * 3.0) as u64
    }
}

impl Workload for CpuIoWorkload {
    fn name(&self) -> &'static str {
        "cpuio"
    }

    fn hot_pages(&self) -> u64 {
        self.cfg.hot_pages
    }

    fn next_request(&mut self, rng: &mut StdRng) -> RequestSpec {
        let kind = weighted_index(rng, &self.cfg.mix);
        let pages = self.cfg.pages_per_request as usize;
        // The optional grant plus the kind's largest op count (arms below).
        let max_ops = 1 + match kind {
            0 => 1 + pages / 4,
            1 => pages * 2 + 1,
            2 => 1 + pages / 2 + 1,
            _ => 1 + pages + 1,
        };
        let mut b = RequestBuilder::with_capacity(max_ops);
        if rng.gen_bool(self.cfg.grant_prob) {
            b = b.grant(self.cfg.grant_mb);
        }
        match kind {
            // CPU-heavy: big burst, few pages.
            0 => {
                b = b.cpu(self.cpu_us(rng, 1.5));
                for _ in 0..self.cfg.pages_per_request / 4 {
                    b = b.read(self.hotspot.sample(rng));
                }
            }
            // I/O-heavy: light CPU, many pages interleaved with small
            // bursts (index lookups between fetches).
            1 => {
                for _ in 0..self.cfg.pages_per_request * 2 {
                    b = b.read(self.hotspot.sample(rng));
                }
                b = b.cpu(self.cpu_us(rng, 0.25));
            }
            // Log-heavy: writes plus a large log append.
            2 => {
                b = b.cpu(self.cpu_us(rng, 0.5));
                for _ in 0..self.cfg.pages_per_request / 2 {
                    b = b.write(self.hotspot.sample(rng));
                }
                b = b.log(self.cfg.log_bytes * 16);
            }
            // Balanced.
            _ => {
                b = b.cpu(self.cpu_us(rng, 1.0));
                for i in 0..self.cfg.pages_per_request {
                    let page = self.hotspot.sample(rng);
                    b = if i % 5 == 4 {
                        b.write(page)
                    } else {
                        b.read(page)
                    };
                }
                b = b.log(self.cfg.log_bytes);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_engine::Op;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn generates_nonempty_requests() {
        let mut w = CpuIoWorkload::new(CpuIoConfig::small());
        let mut r = rng();
        for _ in 0..100 {
            let spec = w.next_request(&mut r);
            assert!(!spec.ops.is_empty());
        }
    }

    #[test]
    fn mean_cpu_tracks_config() {
        let mut w = CpuIoWorkload::new(CpuIoConfig {
            mix: [0.0, 0.0, 0.0, 1.0], // balanced only
            grant_prob: 0.0,
            ..CpuIoConfig::small()
        });
        let mut r = rng();
        let n = 2_000;
        let total: u64 = (0..n).map(|_| w.next_request(&mut r).total_cpu_us()).sum();
        let mean = total as f64 / n as f64;
        let want = w.config().cpu_us_mean;
        assert!(
            (mean - want).abs() < want * 0.1,
            "mean {mean} vs want {want}"
        );
    }

    #[test]
    fn io_heavy_has_more_pages_than_cpu_heavy() {
        let mut r = rng();
        let mut io = CpuIoWorkload::new(CpuIoConfig::io_heavy());
        let mut cpu = CpuIoWorkload::new(CpuIoConfig::cpu_heavy());
        let pages = |w: &mut CpuIoWorkload, r: &mut StdRng| -> usize {
            (0..200).map(|_| w.next_request(r).page_accesses()).sum()
        };
        assert!(pages(&mut io, &mut r) > 4 * pages(&mut cpu, &mut r));
    }

    #[test]
    fn accesses_respect_hotspot() {
        let mut w = CpuIoWorkload::new(CpuIoConfig::small());
        let mut r = rng();
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            for op in w.next_request(&mut r).ops {
                if let Op::PageAccess { page, .. } = op {
                    total += 1;
                    if page < w.config().hot_pages {
                        hot += 1;
                    }
                }
            }
        }
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.9, "hot fraction {frac}");
    }

    #[test]
    fn grants_appear_at_configured_rate() {
        let mut w = CpuIoWorkload::new(CpuIoConfig {
            grant_prob: 0.5,
            ..CpuIoConfig::small()
        });
        let mut r = rng();
        let with_grant = (0..1_000)
            .filter(|_| {
                w.next_request(&mut r)
                    .ops
                    .iter()
                    .any(|op| matches!(op, Op::MemoryGrant { .. }))
            })
            .count();
        assert!((400..600).contains(&with_grant), "{with_grant}");
    }

    /// Each kind's builder is pre-sized to its largest op count; a
    /// request that outgrew it would carry a regrown, doubled capacity.
    #[test]
    fn op_vectors_are_presized_to_their_kind() {
        let mut w = CpuIoWorkload::new(CpuIoConfig {
            grant_prob: 0.5,
            ..CpuIoConfig::default()
        });
        let mut r = rng();
        // pages_per_request = 16: kinds hold 5, 33, 10 and 18 ops at most,
        // plus one for the grant.
        for _ in 0..5_000 {
            let cap = w.next_request(&mut r).ops.capacity();
            assert!([6, 34, 11, 19].contains(&cap), "capacity {cap}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = || {
            let mut w = CpuIoWorkload::new(CpuIoConfig::small());
            let mut r = rng();
            (0..50).map(|_| w.next_request(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(gen(), gen());
    }
}

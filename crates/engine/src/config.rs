//! Engine configuration and the memory-sizing constants.

/// Page size in KB (memory MB → pool pages conversion). SQL-family engines
/// use 8 KB pages.
pub const PAGE_KB: u32 = 8;

/// Fraction of container memory reserved for the buffer pool; the rest
/// backs plan caches and fixed overheads.
pub const BUFFER_POOL_FRACTION: f64 = 0.85;

/// Fraction of container memory available as query memory grants.
pub const GRANT_POOL_FRACTION: f64 = 0.25;

const _: () = assert!(BUFFER_POOL_FRACTION > 0.0 && BUFFER_POOL_FRACTION <= 1.0);
const _: () = assert!(GRANT_POOL_FRACTION > 0.0 && GRANT_POOL_FRACTION <= 1.0);

/// Static engine parameters (independent of the container size).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum outstanding requests before new arrivals are rejected
    /// (connection/admission limit, like a gateway's connection pool; also
    /// bounds how far latencies can balloon under overload before clients
    /// see rejections instead).
    pub max_outstanding: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_outstanding: 400,
        }
    }
}

/// Buffer-pool capacity in pages for a container with `memory_mb`.
pub fn pool_pages(memory_mb: f64) -> usize {
    let pages_per_mb = 1_024.0 / PAGE_KB as f64;
    (memory_mb * BUFFER_POOL_FRACTION * pages_per_mb).floor() as usize
}

/// Memory-grant pool in MB for a container with `memory_mb`.
pub fn grant_mb(memory_mb: f64) -> u64 {
    (memory_mb * GRANT_POOL_FRACTION).floor() as u64
}

/// MB of memory represented by `pages` buffer-pool pages (inverse of
/// [`pool_pages`], ignoring the non-pool overhead).
pub fn pages_to_mb(pages: usize) -> f64 {
    pages as f64 * PAGE_KB as f64 / 1_024.0 / BUFFER_POOL_FRACTION
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_sizing() {
        // 1024 MB * 0.85 * 128 pages/MB = 111,411 pages.
        assert_eq!(pool_pages(1_024.0), 111_411);
        assert_eq!(grant_mb(1_024.0), 256);
    }

    #[test]
    fn pages_mb_roundtrip() {
        let pages = pool_pages(4_096.0);
        let mb = pages_to_mb(pages);
        assert!((mb - 4_096.0).abs() < 1.0, "roundtrip within 1 MB: {mb}");
    }

    #[test]
    fn default_is_sane() {
        assert!(EngineConfig::default().max_outstanding > 0);
    }
}

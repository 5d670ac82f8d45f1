//! PC-indexed stride prefetcher (baseline "stride-based prefetchers" of
//! paper Table 4).
//!
//! Classic reference-prediction-table design: per load PC we remember the
//! last address and the last stride; two consecutive identical strides make
//! the entry confident, after which each access emits a prefetch for
//! `addr + stride * distance`.

/// Stride prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Number of table entries (direct-mapped by PC).
    pub entries: usize,
    /// Consecutive identical strides needed before prefetching.
    pub threshold: u8,
    /// How many strides ahead to prefetch.
    pub distance: u64,
}

impl Default for StrideConfig {
    fn default() -> StrideConfig {
        StrideConfig {
            entries: 256,
            threshold: 2,
            distance: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Prefetcher statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideStats {
    pub trains: u64,
    pub prefetches: u64,
}

impl StrideStats {
    /// Adds `other`'s counters into `self` (sampled-window aggregation).
    pub fn accumulate(&mut self, other: &StrideStats) {
        self.trains += other.trains;
        self.prefetches += other.prefetches;
    }
}

/// The stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    table: Vec<StrideEntry>,
    stats: StrideStats,
}

impl StridePrefetcher {
    /// Builds an empty prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(cfg: StrideConfig) -> StridePrefetcher {
        assert!(
            cfg.entries.is_power_of_two(),
            "stride table entries must be a power of two"
        );
        StridePrefetcher {
            cfg,
            table: vec![StrideEntry::default(); cfg.entries],
            stats: StrideStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> StrideStats {
        self.stats
    }

    /// Zeroes the counters; the trained table is kept.
    pub fn reset_stats(&mut self) {
        self.stats = StrideStats::default();
    }

    /// Observes a demand access by the load at `pc` to `addr`; returns the
    /// address to prefetch, if the entry is confident.
    pub fn train(&mut self, pc: u64, addr: u64) -> Option<u64> {
        self.stats.trains += 1;
        let idx = ((pc >> 2) as usize) & (self.cfg.entries - 1);
        let e = &mut self.table[idx];
        if !e.valid || e.pc_tag != pc {
            *e = StrideEntry {
                pc_tag: pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return None;
        }
        let stride = addr.wrapping_sub(e.last_addr) as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        if e.confidence >= self.cfg.threshold {
            self.stats.prefetches += 1;
            Some(addr.wrapping_add((e.stride * self.cfg.distance as i64) as u64))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_triggers_prefetch() {
        let mut p = StridePrefetcher::new(StrideConfig {
            entries: 16,
            threshold: 2,
            distance: 1,
        });
        assert_eq!(p.train(0x40, 0x1000), None); // allocate
        assert_eq!(p.train(0x40, 0x1040), None); // learn stride
        assert_eq!(p.train(0x40, 0x1080), None); // confidence 1
        assert_eq!(p.train(0x40, 0x10c0), Some(0x1100)); // confident
        assert_eq!(p.stats().prefetches, 1);
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        for _ in 0..10 {
            assert_eq!(p.train(0x40, 0x1000), None);
        }
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(StrideConfig {
            entries: 16,
            threshold: 2,
            distance: 1,
        });
        p.train(0x40, 0x1000);
        p.train(0x40, 0x1040);
        p.train(0x40, 0x1080);
        p.train(0x40, 0x10c0); // confident now
        assert_eq!(p.train(0x40, 0x5000), None, "irregular jump resets");
        assert_eq!(p.train(0x40, 0x5040), None);
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::new(StrideConfig {
            entries: 16,
            threshold: 2,
            distance: 1,
        });
        p.train(0x40, 0x2000);
        p.train(0x40, 0x1fc0);
        p.train(0x40, 0x1f80);
        let next = p.train(0x40, 0x1f40);
        assert_eq!(next, Some(0x1f00));
    }

    #[test]
    fn conflicting_pcs_realias() {
        let mut p = StridePrefetcher::new(StrideConfig {
            entries: 2,
            threshold: 2,
            distance: 1,
        });
        // pc 0x0 and 0x8 both map to index 0 (after >>2, &1).
        p.train(0x0, 0x1000);
        p.train(0x8, 0x9000); // evicts
        assert_eq!(p.train(0x0, 0x1040), None, "re-allocates, no bogus stride");
    }

    #[test]
    fn distance_scales_prefetch_address() {
        let mut p = StridePrefetcher::new(StrideConfig {
            entries: 16,
            threshold: 2,
            distance: 4,
        });
        p.train(0x40, 0x1000);
        p.train(0x40, 0x1010);
        p.train(0x40, 0x1020);
        assert_eq!(p.train(0x40, 0x1030), Some(0x1030 + 4 * 0x10));
    }
}

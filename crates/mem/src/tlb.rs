//! Data TLB: 512-entry, 8-way set-associative over 4 KiB pages (paper
//! Table 4), with a fixed page-walk penalty on miss.

use crate::cache::{set_count, GeometryError};

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    pub entries: usize,
    pub ways: usize,
    pub page_bytes: u64,
    /// Cycles added to an access on a TLB miss (page-table walk).
    pub miss_penalty: u32,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 512,
            ways: 8,
            page_bytes: 4096,
            miss_penalty: 30,
        }
    }
}

impl TlbConfig {
    /// Number of sets implied by the geometry, or why the geometry cannot
    /// be built as a flat power-of-two array.
    pub fn geometry(&self) -> Result<u64, GeometryError> {
        if !self.page_bytes.is_power_of_two() {
            return Err(GeometryError::BlockNotPowerOfTwo(self.page_bytes));
        }
        set_count(self.entries as u64, self.ways, 1)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbLine {
    vpn: u64,
    valid: bool,
    lru: u64,
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    pub accesses: u64,
    pub misses: u64,
}

impl TlbStats {
    /// Adds `other`'s counters into `self` (sampled-window aggregation).
    pub fn accumulate(&mut self, other: &TlbStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

/// A set-associative TLB: `sets × ways` entries in one flat array, indexed
/// by shift and mask like [`crate::Cache`].
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    lines: Vec<TlbLine>,
    page_shift: u32,
    set_mask: u64,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if [`TlbConfig::geometry`] rejects the geometry.
    pub fn new(cfg: TlbConfig) -> Tlb {
        let sets = match cfg.geometry() {
            Ok(sets) => sets,
            Err(e) => panic!("TLB {e}"),
        };
        Tlb {
            cfg,
            lines: vec![TlbLine::default(); sets as usize * cfg.ways],
            page_shift: cfg.page_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Zeroes the counters; resident translations are kept.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// The virtual page number of `addr` and the lines of its set.
    fn set_of(&self, addr: u64) -> (u64, std::ops::Range<usize>) {
        let vpn = addr >> self.page_shift;
        let base = (vpn & self.set_mask) as usize * self.cfg.ways;
        (vpn, base..base + self.cfg.ways)
    }

    /// Translates `addr`; returns the added latency (0 on hit, the walk
    /// penalty on miss) and fills on miss.
    pub fn access(&mut self, addr: u64) -> u32 {
        self.stats.accesses += 1;
        let (vpn, set) = self.set_of(addr);
        self.tick += 1;
        let lines = &mut self.lines[set];
        if let Some(l) = lines.iter_mut().find(|l| l.valid && l.vpn == vpn) {
            l.lru = self.tick;
            return 0;
        }
        self.stats.misses += 1;
        // An invalid way first, else true LRU (the lowest way on ties).
        let key = |l: &TlbLine| if l.valid { l.lru } else { 0 };
        let mut victim = 0;
        for w in 1..lines.len() {
            if key(&lines[w]) < key(&lines[victim]) {
                victim = w;
            }
        }
        lines[victim] = TlbLine {
            vpn,
            valid: true,
            lru: self.tick,
        };
        self.cfg.miss_penalty
    }

    /// Pure lookup (no fill, no stats) — used by tests.
    pub fn contains(&self, addr: u64) -> bool {
        let (vpn, set) = self.set_of(addr);
        self.lines[set].iter().any(|l| l.valid && l.vpn == vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
            page_bytes: 4096,
            miss_penalty: 30,
        })
    }

    #[test]
    fn miss_fills_then_hits() {
        let mut t = small();
        assert_eq!(t.access(0x1234), 30);
        assert_eq!(t.access(0x1ffc), 0, "same page");
        assert_eq!(t.access(0x2000), 30, "next page misses");
        assert_eq!(t.stats().misses, 2);
        assert_eq!(t.stats().accesses, 3);
    }

    #[test]
    fn lru_within_set() {
        let mut t = small(); // 4 sets, 2 ways; pages mapping to set 0: vpn 0,4,8
        t.access(0x0000); // vpn 0
        t.access(0x4000); // vpn 4
        t.access(0x0000); // touch vpn 0
        t.access(0x8000); // vpn 8 evicts vpn 4
        assert!(t.contains(0x0000));
        assert!(!t.contains(0x4000));
        assert!(t.contains(0x8000));
    }

    #[test]
    fn default_is_table4_shape() {
        let cfg = TlbConfig::default();
        assert_eq!(cfg.entries, 512);
        assert_eq!(cfg.ways, 8);
        let t = Tlb::new(cfg);
        assert_eq!(t.config().page_bytes, 4096);
    }

    #[test]
    fn geometry_errors_are_typed() {
        let cfg = TlbConfig::default();
        assert_eq!(cfg.geometry(), Ok(64));
        let zero_ways = TlbConfig { ways: 0, ..cfg };
        assert_eq!(zero_ways.geometry(), Err(GeometryError::ZeroWays));
        let odd_page = TlbConfig {
            page_bytes: 3000,
            ..cfg
        };
        assert_eq!(
            odd_page.geometry(),
            Err(GeometryError::BlockNotPowerOfTwo(3000))
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 6,
            ways: 2,
            page_bytes: 4096,
            miss_penalty: 1,
        });
    }
}

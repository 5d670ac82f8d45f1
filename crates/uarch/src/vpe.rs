//! VPE — the Value Prediction Engine (paper §3.2.1, "Design #3").
//!
//! Rather than arbitrating PRF write ports (design #1) or adding ports
//! (design #2), predicted values live in a small dedicated **Predicted
//! Values Table** (PVT, 32 entries, 2 write ports) tagged by destination
//! register; a **predicted bit** per rename-map-table entry routes consumer
//! reads to the PVT instead of the PRF. Entries deallocate when the
//! predicted instruction executes and validates (the real value is then in
//! the PRF). "If the PVT is full, a value prediction is treated as no
//! prediction."
//!
//! This module owns the capacity/port bookkeeping and the PVT/PRF read
//! routing used by the energy model; the pipeline engine consults it at
//! rename (injection) and at operand read.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Why an injection attempt did not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectOutcome {
    /// The prediction was accepted; PVT entries are allocated.
    Injected,
    /// All PVT entries were occupied — treated as no prediction.
    PvtFull,
    /// The per-cycle injection (PVT write-port) limit was hit.
    PortLimit,
}

/// VPE statistics for the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpeStats {
    /// PVT entry writes (one per predicted destination chunk).
    pub pvt_writes: u64,
    /// Consumer reads served by the PVT (predicted bit set).
    pub pvt_reads: u64,
    /// Consumer reads served by the PRF.
    pub prf_reads: u64,
    /// Injections rejected: PVT full.
    pub rejected_full: u64,
    /// Injections rejected: write-port limit.
    pub rejected_ports: u64,
}

/// The value prediction engine.
#[derive(Debug)]
pub struct Vpe {
    capacity: usize,
    per_cycle: u32,
    /// Deallocation times (producer execute cycles) of live PVT entries.
    live: BinaryHeap<Reverse<u64>>,
    cycle: u64,
    injected_this_cycle: u32,
    /// Per architectural register: consumer reads before this cycle are
    /// served by the PVT (the predicted bit is set until the producer
    /// executes and writes the PRF).
    predicted_until: [u64; 32],
    stats: VpeStats,
}

impl Vpe {
    /// Creates a VPE with `capacity` PVT entries and `per_cycle` write
    /// ports (paper: 32 and 2).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(capacity: usize, per_cycle: u32) -> Vpe {
        assert!(capacity > 0, "PVT capacity must be non-zero");
        assert!(per_cycle > 0, "PVT needs at least one write port");
        Vpe {
            capacity,
            per_cycle,
            live: BinaryHeap::new(),
            cycle: 0,
            injected_this_cycle: 0,
            predicted_until: [0; 32],
            stats: VpeStats::default(),
        }
    }

    /// Checks whether a prediction covering `chunks` destination registers
    /// can be injected at `rename_cycle` (capacity and write ports) and, if
    /// so, reserves a write-port slot. Call [`Vpe::allocate`] afterwards
    /// with the producer's execute cycle to occupy the entries.
    pub fn admit(&mut self, rename_cycle: u64, chunks: usize) -> InjectOutcome {
        // Free entries whose producers have executed by now.
        while let Some(&Reverse(free)) = self.live.peek() {
            if free <= rename_cycle {
                self.live.pop();
            } else {
                break;
            }
        }
        if self.cycle != rename_cycle {
            self.cycle = rename_cycle;
            self.injected_this_cycle = 0;
        }
        if self.live.len() + chunks > self.capacity {
            self.stats.rejected_full += 1;
            return InjectOutcome::PvtFull;
        }
        if self.injected_this_cycle >= self.per_cycle {
            self.stats.rejected_ports += 1;
            return InjectOutcome::PortLimit;
        }
        self.injected_this_cycle += 1;
        InjectOutcome::Injected
    }

    /// Occupies PVT entries for an admitted prediction: one per destination
    /// register, deallocating when the producer executes at
    /// `producer_complete`, and sets the registers' predicted bits.
    pub fn allocate(&mut self, dest_regs: &[lvp_isa::Reg], producer_complete: u64) {
        for r in dest_regs {
            self.live.push(Reverse(producer_complete));
            self.stats.pvt_writes += 1;
            self.predicted_until[r.index() % 32] = producer_complete;
        }
    }

    /// Convenience for tests: admit + allocate in one call.
    pub fn try_inject(
        &mut self,
        rename_cycle: u64,
        dest_regs: &[lvp_isa::Reg],
        producer_complete: u64,
    ) -> InjectOutcome {
        let out = self.admit(rename_cycle, dest_regs.len());
        if out == InjectOutcome::Injected {
            self.allocate(dest_regs, producer_complete);
        }
        out
    }

    /// Records a consumer reading register `reg` at `read_cycle`, routing
    /// it to the PVT or the PRF per the predicted bit.
    pub fn note_source_read(&mut self, reg: lvp_isa::Reg, read_cycle: u64) {
        if read_cycle < self.predicted_until[reg.index() % 32] {
            self.stats.pvt_reads += 1;
        } else {
            self.stats.prf_reads += 1;
        }
    }

    /// Live PVT occupancy (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.live.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VpeStats {
        self.stats
    }

    /// Zeroes the statistics. Live entries and predicted bits are kept:
    /// their cycles lie in the past of any later window.
    pub fn reset_stats(&mut self) {
        self.stats = VpeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::Reg;

    #[test]
    fn injects_until_capacity() {
        let mut v = Vpe::new(2, 8);
        assert_eq!(v.try_inject(10, &[Reg::X1], 100), InjectOutcome::Injected);
        assert_eq!(v.try_inject(11, &[Reg::X2], 100), InjectOutcome::Injected);
        assert_eq!(v.try_inject(12, &[Reg::X3], 100), InjectOutcome::PvtFull);
        assert_eq!(v.stats().rejected_full, 1);
        // After the producers execute, capacity frees.
        assert_eq!(v.try_inject(101, &[Reg::X4], 200), InjectOutcome::Injected);
    }

    #[test]
    fn two_write_ports_per_cycle() {
        let mut v = Vpe::new(32, 2);
        assert_eq!(v.try_inject(5, &[Reg::X1], 50), InjectOutcome::Injected);
        assert_eq!(v.try_inject(5, &[Reg::X2], 50), InjectOutcome::Injected);
        assert_eq!(v.try_inject(5, &[Reg::X3], 50), InjectOutcome::PortLimit);
        assert_eq!(v.try_inject(6, &[Reg::X3], 50), InjectOutcome::Injected);
    }

    #[test]
    fn multi_chunk_prediction_occupies_multiple_entries() {
        let mut v = Vpe::new(3, 2);
        assert_eq!(
            v.try_inject(1, &[Reg::X1, Reg::X2], 40),
            InjectOutcome::Injected
        );
        assert_eq!(v.occupancy(), 2);
        assert_eq!(
            v.try_inject(2, &[Reg::X3, Reg::X4], 40),
            InjectOutcome::PvtFull
        );
    }

    #[test]
    fn predicted_bit_routes_reads() {
        let mut v = Vpe::new(32, 2);
        v.try_inject(10, &[Reg::X5], 30);
        v.note_source_read(Reg::X5, 15); // before producer executes: PVT
        v.note_source_read(Reg::X5, 35); // after: PRF
        v.note_source_read(Reg::X6, 15); // never predicted: PRF
        let s = v.stats();
        assert_eq!(s.pvt_reads, 1);
        assert_eq!(s.prf_reads, 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = Vpe::new(0, 2);
    }
}

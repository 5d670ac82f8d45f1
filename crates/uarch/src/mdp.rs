//! Store-set memory dependence predictor (Chrysos & Emer, ISCA'98 — the
//! paper's baseline MDP, "similar to Alpha 21264", reference 18).
//!
//! Two structures: the Store-Set ID Table (SSIT), a PC-indexed table mapping
//! loads *and* stores to a store-set id, and the Last Fetched Store Table
//! (LFST), mapping each store-set id to the most recent in-flight store in
//! that set. A load whose SSIT entry points at an in-flight store is delayed
//! behind it; a memory-ordering violation allocates/merges the pair into a
//! common set.

/// Store-set MDP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdpConfig {
    /// SSIT entries (power of two, PC-indexed).
    pub ssit_entries: usize,
    /// Maximum distinct store sets.
    pub max_sets: usize,
}

impl Default for MdpConfig {
    fn default() -> MdpConfig {
        MdpConfig {
            ssit_entries: 1024,
            max_sets: 256,
        }
    }
}

/// In-flight store registered with the LFST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfstStore {
    pub seq: u64,
    /// Cycle the store's address/data become available.
    pub exec_cycle: u64,
}

/// The store-set predictor.
#[derive(Debug)]
pub struct StoreSets {
    cfg: MdpConfig,
    ssit: Vec<Option<u16>>,
    lfst: Vec<Option<LfstStore>>,
    next_set: u16,
    violations_trained: u64,
}

impl StoreSets {
    /// Builds an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if `ssit_entries` is not a power of two.
    pub fn new(cfg: MdpConfig) -> StoreSets {
        assert!(
            cfg.ssit_entries.is_power_of_two(),
            "SSIT entries must be a power of two"
        );
        StoreSets {
            cfg,
            ssit: vec![None; cfg.ssit_entries],
            lfst: vec![None; cfg.max_sets],
            next_set: 0,
            violations_trained: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.ssit_entries - 1)
    }

    /// Number of violations used for training so far.
    pub fn trained(&self) -> u64 {
        self.violations_trained
    }

    /// A store is dispatched: returns the store it must (conservatively)
    /// order behind, and registers this store as the set's latest.
    pub fn store_dispatched(&mut self, pc: u64, seq: u64, exec_cycle: u64) -> Option<LfstStore> {
        let idx = self.index(pc);
        let set = self.ssit[idx]?;
        let prev = self.lfst[set as usize];
        self.lfst[set as usize] = Some(LfstStore { seq, exec_cycle });
        prev.filter(|p| p.seq < seq)
    }

    /// A store left the window (committed or squashed): clear its LFST slot
    /// if it is still the registered latest.
    pub fn store_retired(&mut self, pc: u64, seq: u64) {
        let idx = self.index(pc);
        if let Some(set) = self.ssit[idx] {
            if let Some(s) = self.lfst[set as usize] {
                if s.seq == seq {
                    self.lfst[set as usize] = None;
                }
            }
        }
    }

    /// Forgets every in-flight store (the LFST) while keeping the learned
    /// store sets (the SSIT): the pipeline drained.
    pub fn clear_in_flight(&mut self) {
        self.lfst.fill(None);
    }

    /// A load is dispatched: the store it should wait for, if any.
    pub fn load_dependence(&self, pc: u64, seq: u64) -> Option<LfstStore> {
        let set = self.ssit[self.index(pc)]?;
        self.lfst[set as usize].filter(|s| s.seq < seq)
    }

    /// Train on a memory-ordering violation between `store_pc` and
    /// `load_pc`: put both in a common store set (allocating or merging).
    pub fn train_violation(&mut self, store_pc: u64, load_pc: u64) {
        self.violations_trained += 1;
        let si = self.index(store_pc);
        let li = self.index(load_pc);
        match (self.ssit[si], self.ssit[li]) {
            (Some(s), _) => self.ssit[li] = Some(s),
            (None, Some(l)) => self.ssit[si] = Some(l),
            (None, None) => {
                let set = self.next_set;
                self.next_set = (self.next_set + 1) % self.cfg.max_sets as u16;
                self.ssit[si] = Some(set);
                self.ssit[li] = Some(set);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_predicts_nothing() {
        let mut m = StoreSets::new(MdpConfig::default());
        assert_eq!(m.load_dependence(0x100, 10), None);
        assert_eq!(m.store_dispatched(0x200, 5, 50), None);
    }

    #[test]
    fn violation_creates_dependence() {
        let mut m = StoreSets::new(MdpConfig::default());
        m.train_violation(0x200, 0x100);
        m.store_dispatched(0x200, 20, 500);
        let dep = m
            .load_dependence(0x100, 25)
            .expect("trained pair must depend");
        assert_eq!(dep.seq, 20);
        assert_eq!(dep.exec_cycle, 500);
        assert_eq!(m.trained(), 1);
    }

    #[test]
    fn dependence_only_on_older_stores() {
        let mut m = StoreSets::new(MdpConfig::default());
        m.train_violation(0x200, 0x100);
        m.store_dispatched(0x200, 40, 500);
        assert_eq!(m.load_dependence(0x100, 30), None, "load older than store");
    }

    #[test]
    fn retire_clears_lfst() {
        let mut m = StoreSets::new(MdpConfig::default());
        m.train_violation(0x200, 0x100);
        m.store_dispatched(0x200, 20, 500);
        m.store_retired(0x200, 20);
        assert_eq!(m.load_dependence(0x100, 25), None);
    }

    #[test]
    fn draining_keeps_learned_sets() {
        let mut m = StoreSets::new(MdpConfig::default());
        m.train_violation(0x200, 0x100);
        m.store_dispatched(0x200, 20, 500);
        m.clear_in_flight();
        assert_eq!(m.load_dependence(0x100, 25), None, "no store in flight");
        m.store_dispatched(0x200, 30, 600);
        assert!(m.load_dependence(0x100, 35).is_some(), "SSIT survives");
    }

    #[test]
    fn merge_joins_sets() {
        let mut m = StoreSets::new(MdpConfig::default());
        m.train_violation(0x200, 0x100); // set A: store 0x200, load 0x100
        m.train_violation(0x300, 0x100); // store 0x300 joins load's set
        m.store_dispatched(0x300, 50, 900);
        assert!(m.load_dependence(0x100, 60).is_some());
    }

    #[test]
    fn store_chain_orders_behind_previous_store() {
        let mut m = StoreSets::new(MdpConfig::default());
        m.train_violation(0x200, 0x100);
        assert_eq!(m.store_dispatched(0x200, 10, 100), None);
        let prev = m
            .store_dispatched(0x200, 20, 200)
            .expect("second store sees first");
        assert_eq!(prev.seq, 10);
    }
}

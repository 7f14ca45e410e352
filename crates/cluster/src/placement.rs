//! Contiguous NPU-slot carving.
//!
//! Jobs occupy *contiguous* runs of NPU slots: every collective a job
//! issues then stays inside its carve-out (the mesh's snake mapping and
//! FRED's switch both keep contiguous slots physically adjacent), so
//! isolation is spatial as well as bandwidth-level. The cost of
//! contiguity is external fragmentation — free slots split into runs
//! too short for the next arrival, visible in [`SlotMap::free_runs`].
//! A new job takes the leftmost free run long enough (first fit).

/// Ownership map over the fabric's NPU slots.
#[derive(Debug, Clone)]
pub struct SlotMap {
    /// `owner[s]` is the job id occupying slot `s`, if any.
    owner: Vec<Option<usize>>,
}

impl SlotMap {
    /// An all-free map over `slots` NPU slots.
    pub fn new(slots: usize) -> SlotMap {
        SlotMap {
            owner: vec![None; slots],
        }
    }

    /// Total slots.
    pub fn slots(&self) -> usize {
        self.owner.len()
    }

    /// Occupied slots.
    pub fn used(&self) -> usize {
        self.owner.iter().filter(|o| o.is_some()).count()
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.slots() - self.used()
    }

    /// The job occupying `slot`, if any.
    pub fn owner_of(&self, slot: usize) -> Option<usize> {
        self.owner[slot]
    }

    /// Maximal free runs as `(base, len)`, left to right.
    pub fn free_runs(&self) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut s = 0;
        while s < self.owner.len() {
            if self.owner[s].is_none() {
                let base = s;
                while s < self.owner.len() && self.owner[s].is_none() {
                    s += 1;
                }
                runs.push((base, s - base));
            } else {
                s += 1;
            }
        }
        runs
    }

    /// Finds a base for a contiguous `width`-slot carve-out, the
    /// leftmost free run long enough, without occupying it. `None`
    /// when no free run is long enough (the fragmentation-rejection
    /// case: [`SlotMap::free`] may still exceed `width`).
    pub fn find(&self, width: usize) -> Option<usize> {
        assert!(width > 0, "zero-width placement");
        self.free_runs()
            .into_iter()
            .find(|&(_, len)| len >= width)
            .map(|(base, _)| base)
    }

    /// Occupies `[base, base + width)` for `job`.
    ///
    /// # Panics
    ///
    /// Panics if any slot in the range is already owned — the
    /// scheduler only occupies windows [`SlotMap::find`] (or the
    /// preemption search) returned.
    pub fn occupy(&mut self, base: usize, width: usize, job: usize) {
        for s in base..base + width {
            assert!(
                self.owner[s].is_none(),
                "slot {s} already owned by job {:?}",
                self.owner[s]
            );
            self.owner[s] = Some(job);
        }
    }

    /// Frees every slot owned by `job`, returning how many were freed.
    pub fn release(&mut self, job: usize) -> usize {
        let mut freed = 0;
        for o in &mut self.owner {
            if *o == Some(job) {
                *o = None;
                freed += 1;
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_takes_the_leftmost_adequate_run() {
        let mut m = SlotMap::new(10);
        // Occupy [2,4) and [7,9): free runs are [0,2), [4,7), [9,10).
        m.occupy(2, 2, 0);
        m.occupy(7, 2, 1);
        assert_eq!(m.free_runs(), vec![(0, 2), (4, 3), (9, 1)]);
        assert_eq!(m.find(2), Some(0));
        assert_eq!(m.find(3), Some(4));
    }

    #[test]
    fn exact_fit_fills_the_map_completely() {
        let mut m = SlotMap::new(8);
        let b0 = m.find(8).unwrap();
        m.occupy(b0, 8, 0);
        assert_eq!(m.free(), 0);
        assert_eq!(m.find(1), None);
        assert!(m.free_runs().is_empty());
        assert_eq!(m.release(0), 8);
        assert_eq!(m.free(), 8);
    }

    #[test]
    fn fragmentation_rejects_despite_enough_total_free() {
        let mut m = SlotMap::new(10);
        // Leave free runs of 2+2+2 = 6 slots: a width-4 job is
        // rejected even though 6 > 4.
        m.occupy(2, 2, 0);
        m.occupy(6, 2, 1);
        assert_eq!(m.free(), 6);
        assert_eq!(m.find(4), None);
        // Largest run is 2 of 6 free.
        assert_eq!(m.free_runs(), vec![(0, 2), (4, 2), (8, 2)]);
    }

    #[test]
    fn release_heals_fragmentation() {
        let mut m = SlotMap::new(6);
        m.occupy(0, 2, 0);
        m.occupy(2, 2, 1);
        m.occupy(4, 2, 2);
        m.release(1);
        assert_eq!(m.free_runs(), vec![(2, 2)]);
        m.release(0);
        // Free runs [0,4): one run, no fragmentation.
        assert_eq!(m.free_runs(), vec![(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_occupy_panics() {
        let mut m = SlotMap::new(4);
        m.occupy(0, 2, 0);
        m.occupy(1, 2, 1);
    }
}

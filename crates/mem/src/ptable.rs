//! Per-process page tables: page state, reference/dirty bits, age, and a
//! per-process clock hand for Linux-2.2-style sweeps.

use crate::types::PageNum;
use agp_sim::SimTime;

/// Metadata for a page currently held in a physical frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resident {
    /// Hardware reference bit: set on every touch, cleared by clock sweeps.
    pub referenced: bool,
    /// Set on write touches; a dirty page must reach the swap device before
    /// its frame can be reused without losing data.
    pub dirty: bool,
    /// Instant of the most recent touch — the "age" used by the paper's
    /// selective page-out ("in the order of decreasing age", §3.1).
    pub last_ref: SimTime,
    /// Block of a still-valid swap copy, if one exists. A clean resident
    /// page with a valid copy can be reclaimed with **no** I/O (Linux's
    /// swap cache); a dirty page with `Some(b)` rewrites block `b` in
    /// place, preserving swap contiguity.
    pub swap_copy: Option<u64>,
    /// Working-set epoch of the most recent touch (see `Kernel` WSS
    /// tracking).
    pub epoch: u32,
}

/// State of one virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Never touched: the first access demand-zeroes a frame, no disk I/O.
    Untouched,
    /// Held in a physical frame.
    Resident(Resident),
    /// Only on the swap device, at the given block.
    Swapped {
        /// Swap block holding the page image.
        block: u64,
    },
}

impl PageState {
    /// Whether the page occupies a frame.
    pub fn is_resident(&self) -> bool {
        matches!(self, PageState::Resident(_))
    }
}

/// `flags` bit: the page occupies a frame.
const RESIDENT: u8 = 1;
/// `flags` bit: hardware reference bit of a resident page.
const REFERENCED: u8 = 2;
/// `flags` bit: a resident page's frame is newer than any swap copy.
const DIRTY: u8 = 4;

/// One process's page table plus bookkeeping counters.
///
/// Stored by column, one entry per page, like the kernel's flat per-slot
/// arrays: `flags` (resident/referenced/dirty bits), `swap` (block + 1,
/// 0 for none — the `Swapped` block or a resident page's `swap_copy`),
/// `last_ref` (µs) and `epoch`. An untouched page is all zeros in every
/// column, so a fresh table is a zeroed allocation whose pages cost
/// nothing until first touched. [`PageState`] is the by-value view of one
/// row. `last_ref` and `epoch` are meaningful only while the page is
/// resident.
#[derive(Clone, Debug)]
pub struct PageTable {
    flags: Vec<u8>,
    swap: Vec<u64>,
    last_ref: Vec<u64>,
    epoch: Vec<u32>,
    resident: usize,
    dirty_resident: usize,
    /// Persistent clock position for sweep-style scans, so repeated sweeps
    /// make progress instead of rescanning the same prefix (mirrors the
    /// kernel keeping `swap_address` per mm in Linux 2.2).
    hand: usize,
}

impl PageTable {
    /// A table of `n` untouched pages.
    pub fn new(n: usize) -> Self {
        PageTable {
            flags: vec![0; n],
            swap: vec![0; n],
            last_ref: vec![0; n],
            epoch: vec![0; n],
            resident: 0,
            dirty_resident: 0,
            hand: 0,
        }
    }

    /// Address-space size in pages.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the address space is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Number of pages currently resident (the process RSS).
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Number of resident pages whose frame content is newer than any swap
    /// copy.
    pub fn dirty_resident(&self) -> usize {
        self.dirty_resident
    }

    /// Current clock-hand position.
    pub fn hand(&self) -> usize {
        self.hand
    }

    /// Advance the clock hand by `steps`, wrapping.
    pub fn advance_hand(&mut self, steps: usize) {
        if !self.flags.is_empty() {
            self.hand = (self.hand + steps) % self.flags.len();
        }
    }

    /// State of page `p`.
    pub fn state(&self, p: PageNum) -> PageState {
        let i = p.idx();
        let flags = self.flags[i];
        let swap = self.swap[i];
        if flags & RESIDENT != 0 {
            PageState::Resident(Resident {
                referenced: flags & REFERENCED != 0,
                dirty: flags & DIRTY != 0,
                last_ref: SimTime(self.last_ref[i]),
                swap_copy: swap.checked_sub(1),
                epoch: self.epoch[i],
            })
        } else if swap != 0 {
            PageState::Swapped { block: swap - 1 }
        } else {
            PageState::Untouched
        }
    }

    /// Whether page `p` occupies a frame.
    pub fn is_resident(&self, p: PageNum) -> bool {
        self.flags[p.idx()] & RESIDENT != 0
    }

    /// Whether page `p` is resident and dirty.
    pub fn is_dirty(&self, p: PageNum) -> bool {
        self.flags[p.idx()] & (RESIDENT | DIRTY) == RESIDENT | DIRTY
    }

    /// The swap block page `p` references, resident or not: its
    /// `Swapped` block or its resident `swap_copy`.
    pub fn swap_block(&self, p: PageNum) -> Option<u64> {
        self.swap[p.idx()].checked_sub(1)
    }

    /// Write page `p`'s state, keeping the resident and dirty counters
    /// honest.
    pub fn set(&mut self, p: PageNum, new: PageState) {
        let i = p.idx();
        let old = self.flags[i];
        if old & RESIDENT != 0 {
            self.resident -= 1;
            if old & DIRTY != 0 {
                self.dirty_resident -= 1;
            }
        }
        match new {
            PageState::Untouched => {
                self.flags[i] = 0;
                self.swap[i] = 0;
            }
            PageState::Swapped { block } => {
                self.flags[i] = 0;
                self.swap[i] = block + 1;
            }
            PageState::Resident(r) => {
                self.resident += 1;
                let mut flags = RESIDENT;
                if r.referenced {
                    flags |= REFERENCED;
                }
                if r.dirty {
                    flags |= DIRTY;
                    self.dirty_resident += 1;
                }
                self.flags[i] = flags;
                self.swap[i] = r.swap_copy.map_or(0, |b| b + 1);
                self.last_ref[i] = r.last_ref.0;
                self.epoch[i] = r.epoch;
            }
        }
    }

    /// Mutate a resident page's metadata in place via `f`; panics if the
    /// page is not resident. Keeps the dirty counter consistent.
    pub fn update_resident(&mut self, p: PageNum, f: impl FnOnce(&mut Resident)) {
        let PageState::Resident(mut r) = self.state(p) else {
            // agp-lint: allow(panic-site): documented contract — callers match
            panic!("update_resident on non-resident page {p:?}");
        };
        f(&mut r);
        self.set(p, PageState::Resident(r));
    }

    /// Put non-resident page `p` into a frame at `now`, referenced and
    /// clean, in working-set epoch `epoch`. A `Swapped` page keeps its
    /// block as the resident swap copy; an `Untouched` one gets none.
    pub(crate) fn map_in(&mut self, p: PageNum, now: SimTime, epoch: u32) {
        let i = p.idx();
        debug_assert_eq!(self.flags[i] & RESIDENT, 0, "map_in of resident page {p:?}");
        self.flags[i] = RESIDENT | REFERENCED;
        self.last_ref[i] = now.0;
        self.epoch[i] = epoch;
        self.resident += 1;
    }

    /// Touch the resident pages of `pages` in order, stopping at the first
    /// page that is not resident: set the reference bit and `last_ref`,
    /// and on a `write` set the dirty bit and drop the (now stale) swap
    /// copy, appending its block to `stale`. A page whose epoch differs
    /// from `epoch` takes it. Returns `(touched, fresh)`: the number of
    /// pages touched and how many of them were first referenced in this
    /// epoch.
    ///
    /// Equivalent to one [`PageTable::update_resident`] per page; this is
    /// the executor's hot loop, so it works on the columns directly.
    pub fn touch_resident_run(
        &mut self,
        pages: std::ops::Range<usize>,
        write: bool,
        now: SimTime,
        epoch: u32,
        stale: &mut Vec<u64>,
    ) -> (usize, usize) {
        let mut touched = 0;
        let mut fresh = 0;
        for i in pages {
            let flags = self.flags[i];
            if flags & RESIDENT == 0 {
                break;
            }
            let mut new = flags | REFERENCED;
            if write {
                new |= DIRTY;
                if flags & DIRTY == 0 {
                    self.dirty_resident += 1;
                }
                // A write makes any swap copy stale; drop it (the Linux
                // swap cache frees the entry on write), so the invariant
                // "dirty ⟹ no swap copy" holds.
                if let Some(b) = self.swap[i].checked_sub(1) {
                    stale.push(b);
                    self.swap[i] = 0;
                }
            }
            self.flags[i] = new;
            self.last_ref[i] = now.0;
            if self.epoch[i] != epoch {
                self.epoch[i] = epoch;
                fresh += 1;
            }
            touched += 1;
        }
        (touched, fresh)
    }

    /// Iterate over `(PageNum, PageState)` for all pages.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, PageState)> + '_ {
        (0..self.len()).map(|i| {
            let p = PageNum(i as u32);
            (p, self.state(p))
        })
    }

    /// Iterate over resident pages only.
    pub fn iter_resident(&self) -> impl Iterator<Item = (PageNum, Resident)> + '_ {
        self.iter().filter_map(|(p, s)| match s {
            PageState::Resident(r) => Some((p, r)),
            _ => None,
        })
    }

    /// The `limit` oldest resident pages, oldest first (by `last_ref`,
    /// ties by page number). This is the ordering selective/aggressive
    /// page-out uses; `usize::MAX` orders the whole resident set.
    ///
    /// The keys are unique, so selecting the `limit` smallest and sorting
    /// only those gives exactly the prefix of the full order.
    pub fn resident_oldest_first(&self, limit: usize) -> Vec<PageNum> {
        let mut v: Vec<(u64, u32)> = (0..self.len())
            .filter(|&i| self.flags[i] & RESIDENT != 0)
            .map(|i| (self.last_ref[i], i as u32))
            .collect();
        if limit < v.len() {
            v.select_nth_unstable(limit);
            v.truncate(limit);
        }
        v.sort_unstable();
        v.into_iter().map(|(_, p)| PageNum(p)).collect()
    }

    /// Clock sweep from the stored hand position: visit up to `max_scan`
    /// pages; referenced resident pages get their bit cleared, and
    /// unreferenced resident pages are appended to `victims` as eviction
    /// candidates (up to `max_victims` of them). The hand advances past
    /// every visited page.
    pub fn clock_sweep(&mut self, max_scan: usize, max_victims: usize, victims: &mut Vec<PageNum>) {
        let n = self.flags.len();
        if n == 0 || max_victims == 0 {
            return;
        }
        let cap = victims.len().saturating_add(max_victims);
        let mut scanned = 0;
        while scanned < max_scan.min(n) && victims.len() < cap {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            scanned += 1;
            let flags = self.flags[i];
            if flags & RESIDENT != 0 {
                if flags & REFERENCED != 0 {
                    self.flags[i] = flags & !REFERENCED;
                } else {
                    victims.push(PageNum(i as u32));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident(t: u64, dirty: bool) -> PageState {
        PageState::Resident(Resident {
            referenced: true,
            dirty,
            last_ref: SimTime::from_us(t),
            swap_copy: None,
            epoch: 0,
        })
    }

    #[test]
    fn counters_follow_transitions() {
        let mut pt = PageTable::new(4);
        assert_eq!(pt.resident(), 0);
        pt.set(PageNum(0), resident(1, false));
        pt.set(PageNum(1), resident(2, true));
        assert_eq!(pt.resident(), 2);
        assert_eq!(pt.dirty_resident(), 1);
        pt.set(PageNum(1), PageState::Swapped { block: 9 });
        assert_eq!(pt.resident(), 1);
        assert_eq!(pt.dirty_resident(), 0);
        pt.set(PageNum(0), PageState::Untouched);
        assert_eq!(pt.resident(), 0);
    }

    #[test]
    fn update_resident_tracks_dirty() {
        let mut pt = PageTable::new(2);
        pt.set(PageNum(0), resident(1, false));
        pt.update_resident(PageNum(0), |r| r.dirty = true);
        assert_eq!(pt.dirty_resident(), 1);
        pt.update_resident(PageNum(0), |r| r.dirty = false);
        assert_eq!(pt.dirty_resident(), 0);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn update_nonresident_panics() {
        let mut pt = PageTable::new(1);
        pt.update_resident(PageNum(0), |_| {});
    }

    #[test]
    fn oldest_first_ordering() {
        let mut pt = PageTable::new(5);
        pt.set(PageNum(0), resident(50, false));
        pt.set(PageNum(2), resident(10, false));
        pt.set(PageNum(4), resident(30, false));
        assert_eq!(
            pt.resident_oldest_first(usize::MAX),
            vec![PageNum(2), PageNum(4), PageNum(0)]
        );
        assert_eq!(pt.resident_oldest_first(2), vec![PageNum(2), PageNum(4)]);
    }

    #[test]
    fn oldest_first_tie_breaks_by_page_number() {
        let mut pt = PageTable::new(3);
        for i in 0..3 {
            pt.set(PageNum(i), resident(7, false));
        }
        assert_eq!(
            pt.resident_oldest_first(usize::MAX),
            vec![PageNum(0), PageNum(1), PageNum(2)]
        );
        assert_eq!(pt.resident_oldest_first(1), vec![PageNum(0)]);
        assert!(pt.resident_oldest_first(0).is_empty());
    }

    #[test]
    fn clock_sweep_second_chance() {
        let mut pt = PageTable::new(3);
        for i in 0..3 {
            pt.set(PageNum(i), resident(1, false));
        }
        // First sweep clears all reference bits, evicts nothing.
        let mut v = Vec::new();
        pt.clock_sweep(3, 3, &mut v);
        assert!(v.is_empty());
        // Second sweep finds all pages unreferenced.
        pt.clock_sweep(3, 3, &mut v);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn clock_sweep_respects_victim_cap() {
        let mut pt = PageTable::new(10);
        for i in 0..10 {
            let mut st = resident(1, false);
            if let PageState::Resident(r) = &mut st {
                r.referenced = false;
            }
            pt.set(PageNum(i), st);
        }
        let mut v = vec![PageNum(9)];
        pt.clock_sweep(10, 4, &mut v);
        assert_eq!(v.len(), 5, "appends at most max_victims");
        // Hand advanced past exactly the scanned pages.
        assert_eq!(pt.hand(), 4);
    }

    #[test]
    fn clock_sweep_skips_nonresident() {
        let mut pt = PageTable::new(4);
        pt.set(PageNum(1), PageState::Swapped { block: 3 });
        let mut st = resident(1, false);
        if let PageState::Resident(r) = &mut st {
            r.referenced = false;
        }
        pt.set(PageNum(3), st);
        let mut v = Vec::new();
        pt.clock_sweep(4, 4, &mut v);
        assert_eq!(v, vec![PageNum(3)]);
    }

    #[test]
    fn clock_hand_wraps() {
        let mut pt = PageTable::new(4);
        pt.advance_hand(3);
        assert_eq!(pt.hand(), 3);
        pt.advance_hand(2);
        assert_eq!(pt.hand(), 1);
    }

    #[test]
    fn empty_table_is_safe() {
        let mut pt = PageTable::new(0);
        assert!(pt.is_empty());
        let mut v = Vec::new();
        pt.clock_sweep(10, 10, &mut v);
        assert!(v.is_empty());
        pt.advance_hand(5);
        assert_eq!(pt.hand(), 0);
    }
}

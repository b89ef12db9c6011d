//! The columnar page table and the kernel's swap bookkeeping, checked
//! against a reference model.
//!
//! [`ModelTable`] is the page table in its plainest form: one
//! [`PageState`] row per page. The properties drive it and
//! [`PageTable`] through the same random operation sequences and require
//! the same states, counters, clock hand and victim lists after every
//! step. The kernel's touch path and its extent-wise swap frees are
//! checked against the model semantics as well.

use agp_disk::extents_from_blocks;
use agp_mem::{
    Kernel, PageNum, PageState, PageTable, ProcId, Resident, SwapSpace, TouchOutcome, VmParams,
};
use agp_sim::{prop, SimRng, SimTime};

/// One process's page table as a vector of `PageState` rows, with the
/// same counters, clock hand and scan orders as [`PageTable`].
#[derive(Clone, Debug)]
struct ModelTable {
    pages: Vec<PageState>,
    resident: usize,
    dirty_resident: usize,
    hand: usize,
}

fn is_dirty(s: &PageState) -> bool {
    matches!(s, PageState::Resident(r) if r.dirty)
}

impl ModelTable {
    fn new(n: usize) -> Self {
        ModelTable {
            pages: vec![PageState::Untouched; n],
            resident: 0,
            dirty_resident: 0,
            hand: 0,
        }
    }

    fn state(&self, p: PageNum) -> PageState {
        self.pages[p.idx()]
    }

    fn advance_hand(&mut self, steps: usize) {
        if !self.pages.is_empty() {
            self.hand = (self.hand + steps) % self.pages.len();
        }
    }

    fn set(&mut self, p: PageNum, new: PageState) {
        let old = self.pages[p.idx()];
        self.resident -= usize::from(old.is_resident());
        self.dirty_resident -= usize::from(is_dirty(&old));
        self.resident += usize::from(new.is_resident());
        self.dirty_resident += usize::from(is_dirty(&new));
        self.pages[p.idx()] = new;
    }

    fn update_resident(&mut self, p: PageNum, f: impl FnOnce(&mut Resident)) {
        let PageState::Resident(mut r) = self.pages[p.idx()] else {
            panic!("update_resident on non-resident page {p:?}");
        };
        f(&mut r);
        self.set(p, PageState::Resident(r));
    }

    /// The whole resident set sorted by `(last_ref, page)`, then cut to
    /// `limit`.
    fn resident_oldest_first(&self, limit: usize) -> Vec<PageNum> {
        let mut v: Vec<(SimTime, PageNum)> = (0..self.pages.len())
            .filter_map(|i| match self.pages[i] {
                PageState::Resident(r) => Some((r.last_ref, PageNum(i as u32))),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v.truncate(limit);
        v.into_iter().map(|(_, p)| p).collect()
    }

    fn clock_sweep(&mut self, max_scan: usize, max_victims: usize) -> Vec<PageNum> {
        let n = self.pages.len();
        if n == 0 || max_victims == 0 {
            return Vec::new();
        }
        let mut victims = Vec::new();
        let mut scanned = 0;
        while scanned < max_scan.min(n) && victims.len() < max_victims {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            scanned += 1;
            if let PageState::Resident(mut r) = self.pages[i] {
                if r.referenced {
                    r.referenced = false;
                    self.pages[i] = PageState::Resident(r);
                } else {
                    victims.push(PageNum(i as u32));
                }
            }
        }
        victims
    }

    /// One touch of resident page `p`, as the kernel's touch path defines
    /// it: set the reference bit and age, on a write set the dirty bit and
    /// take the stale swap copy, and take `epoch`. Returns whether the
    /// page was first referenced in this epoch, and the freed copy.
    fn touch(&mut self, p: PageNum, write: bool, now: SimTime, epoch: u32) -> (bool, Option<u64>) {
        let mut fresh = false;
        let mut stale = None;
        self.update_resident(p, |r| {
            r.referenced = true;
            r.last_ref = now;
            if write {
                r.dirty = true;
                stale = r.swap_copy.take();
            }
            if r.epoch != epoch {
                r.epoch = epoch;
                fresh = true;
            }
        });
        (fresh, stale)
    }
}

const PAGES: u32 = 48;

fn resident(rng: &mut SimRng) -> Resident {
    Resident {
        referenced: rng.chance(0.5),
        dirty: rng.chance(0.5),
        // Few distinct ages, so oldest-first order leans on its page
        // number tie-break.
        last_ref: SimTime(rng.below(8)),
        swap_copy: rng.chance(0.5).then(|| rng.below(1 << 40)),
        epoch: rng.below(3) as u32,
    }
}

/// A page-table operation.
#[derive(Clone, Debug)]
enum Op {
    Set(u32, PageState),
    Update(u32, Resident),
    Touch {
        first: u32,
        len: u32,
        write: bool,
        now: u64,
        epoch: u32,
    },
    Sweep {
        max_scan: usize,
        max_victims: usize,
    },
    Oldest {
        limit: usize,
    },
    Advance(usize),
}

fn op(rng: &mut SimRng) -> Op {
    let page = rng.below(u64::from(PAGES)) as u32;
    match rng.below(12) {
        0..=4 => Op::Set(
            page,
            match rng.below(3) {
                0 => PageState::Untouched,
                1 => PageState::Swapped {
                    block: rng.below(1 << 40),
                },
                _ => PageState::Resident(resident(rng)),
            },
        ),
        5 | 6 => Op::Update(page, resident(rng)),
        7 => Op::Touch {
            first: page,
            len: rng.below(u64::from(PAGES - page) + 1) as u32,
            write: rng.chance(0.5),
            now: rng.below(16),
            epoch: rng.below(3) as u32,
        },
        8 | 9 => Op::Sweep {
            max_scan: rng.below(2 * u64::from(PAGES)) as usize,
            max_victims: rng.below(u64::from(PAGES)) as usize,
        },
        10 => Op::Oldest {
            limit: match rng.below(3) {
                0 => usize::MAX,
                _ => rng.below(u64::from(PAGES) + 2) as usize,
            },
        },
        _ => Op::Advance(rng.below(2 * u64::from(PAGES)) as usize),
    }
}

fn assert_same(table: &PageTable, model: &ModelTable, step: usize) {
    for i in 0..PAGES {
        let p = PageNum(i);
        assert_eq!(table.state(p), model.state(p), "page {i} after step {step}");
        assert_eq!(table.is_resident(p), model.state(p).is_resident());
        assert_eq!(table.is_dirty(p), is_dirty(&model.state(p)));
    }
    assert_eq!(table.resident(), model.resident, "after step {step}");
    assert_eq!(
        table.dirty_resident(),
        model.dirty_resident,
        "after step {step}"
    );
    assert_eq!(table.hand(), model.hand, "after step {step}");
    assert_eq!(table.len(), model.pages.len());
}

/// Every page-table operation leaves the columnar table and the row
/// model with equal states, counters and hand, and the scans return the
/// same victim lists.
#[test]
fn page_table_matches_model() {
    prop::check(
        128,
        |rng| prop::vec(rng, 1..300, op),
        |ops| {
            let mut table = PageTable::new(PAGES as usize);
            let mut model = ModelTable::new(PAGES as usize);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Set(page, st) => {
                        table.set(PageNum(page), st);
                        model.set(PageNum(page), st);
                    }
                    Op::Update(page, new) => {
                        let p = PageNum(page);
                        if model.state(p).is_resident() {
                            table.update_resident(p, |r| *r = new);
                            model.update_resident(p, |r| *r = new);
                        }
                    }
                    Op::Touch {
                        first,
                        len,
                        write,
                        now,
                        epoch,
                    } => {
                        let now = SimTime(now);
                        let range = first as usize..(first + len) as usize;
                        let mut stale = Vec::new();
                        let got =
                            table.touch_resident_run(range.clone(), write, now, epoch, &mut stale);
                        let (mut touched, mut fresh, mut want_stale) = (0, 0, Vec::new());
                        for i in range {
                            let p = PageNum(i as u32);
                            if !model.state(p).is_resident() {
                                break;
                            }
                            let (f, s) = model.touch(p, write, now, epoch);
                            touched += 1;
                            fresh += usize::from(f);
                            want_stale.extend(s);
                        }
                        assert_eq!(got, (touched, fresh), "step {step}");
                        assert_eq!(stale, want_stale, "step {step}");
                    }
                    Op::Sweep {
                        max_scan,
                        max_victims,
                    } => {
                        assert_eq!(
                            table.clock_sweep(max_scan, max_victims),
                            model.clock_sweep(max_scan, max_victims),
                            "step {step}"
                        );
                    }
                    Op::Oldest { limit } => {
                        assert_eq!(
                            table.resident_oldest_first(limit),
                            model.resident_oldest_first(limit),
                            "step {step}"
                        );
                    }
                    Op::Advance(steps) => {
                        table.advance_hand(steps);
                        model.advance_hand(steps);
                    }
                }
                assert_same(&table, &model, step);
            }
        },
    );
}

/// Returning freed blocks as coalesced extents leaves the allocator's
/// free map exactly as freeing them one block at a time does.
#[test]
fn extent_frees_match_block_frees() {
    prop::check(
        256,
        |rng| {
            let total = rng.range(1, 200);
            let pre: Vec<(u64, u64)> = prop::vec(rng, 0..8, |r| (r.below(total), r.range(1, 16)));
            let freed: Vec<u64> = prop::vec(rng, 0..64, |r| r.below(total));
            (total, pre, freed)
        },
        |&(total, ref pre, ref freed)| {
            // Fragment the device: allocate it all, free some extents back.
            let mut base = SwapSpace::new(total);
            base.alloc(total).unwrap();
            let mut held = vec![true; total as usize];
            for &(start, len) in pre {
                let end = (start + len).min(total);
                for b in start..end {
                    if held[b as usize] {
                        held[b as usize] = false;
                        base.free_block(b);
                    }
                }
            }
            // Free a random subset of the held blocks, in random order.
            let mut blocks: Vec<u64> = freed
                .iter()
                .copied()
                .filter(|&b| held[b as usize])
                .collect();
            let mut seen = vec![false; total as usize];
            blocks.retain(|&b| !std::mem::replace(&mut seen[b as usize], true));

            let mut by_block = base.clone();
            for &b in &blocks {
                by_block.free_block(b);
            }
            let mut by_extent = base;
            for e in extents_from_blocks(&mut blocks.clone()) {
                by_extent.free_extent(e);
            }
            assert_eq!(format!("{by_block:?}"), format!("{by_extent:?}"));
            assert_eq!(by_block.free_blocks(), by_extent.free_blocks());
            assert_eq!(by_block.fragments(), by_extent.fragments());
        },
    );
}

fn kernel(frames: usize) -> Kernel {
    let params = VmParams {
        total_frames: frames,
        wired_frames: 0,
        freepages_min: 4,
        freepages_high: 8,
        readahead: 16,
    };
    Kernel::new(params, 4096)
}

/// A write run over a page table with hits, stale swap copies and a
/// swapped page leaves the kernel's table as the model's per-page
/// touches do, with the same hits, fault, WSS count and freed blocks.
#[test]
fn touch_run_matches_single_touches() {
    let pid = ProcId(1);
    let t0 = SimTime(1_000);
    let mut k = kernel(64);
    k.register_proc(pid, 16);
    for p in 0..8 {
        k.map_in(pid, PageNum(p), t0).unwrap();
    }
    // Pages 1, 2 and 5 are written and paged out; 1 and 2 come back clean
    // with their swap copies, 5 stays swapped.
    for p in [1, 2, 5] {
        k.touch(pid, PageNum(p), true, t0).unwrap();
    }
    let out = [PageNum(1), PageNum(2), PageNum(5)];
    k.evict_batch(pid, &out, &mut Vec::new()).unwrap();
    for p in [1, 2] {
        k.map_in(pid, PageNum(p), t0).unwrap();
    }
    assert_eq!(k.swap().used_blocks(), 3);
    k.quantum_started(pid).unwrap();

    let mut model = ModelTable::new(16);
    for p in 0..16 {
        model.set(PageNum(p), k.proc(pid).unwrap().pt.state(PageNum(p)));
    }
    let wss_before = k.proc(pid).unwrap().wss_current();

    let t = SimTime(9_999);
    let (hits, fault) = k.touch_run(pid, PageNum(0), 16, true, t).unwrap();

    let (mut hits2, mut fresh, mut freed) = (0, 0, 0);
    let mut fault2 = None;
    for p in (0..16).map(PageNum) {
        match model.state(p) {
            PageState::Resident(_) => {
                let (f, stale) = model.touch(p, true, t, 1);
                hits2 += 1;
                fresh += usize::from(f);
                freed += u64::from(stale.is_some());
            }
            PageState::Swapped { block } => {
                fault2 = Some(TouchOutcome::NeedsSwapIn { block });
                break;
            }
            PageState::Untouched => {
                fault2 = Some(TouchOutcome::NeedsZeroFill);
                break;
            }
        }
    }
    assert_eq!(hits, 5, "pages 0..5 hit, page 5 faults");
    assert_eq!((hits, fault), (hits2, fault2));
    assert!(matches!(fault, Some(TouchOutcome::NeedsSwapIn { .. })));
    assert_eq!(freed, 2, "the copies of pages 1 and 2 are stale");
    assert_eq!(k.swap().used_blocks(), 3 - freed);
    assert_eq!(k.proc(pid).unwrap().wss_current(), wss_before + fresh);
    for p in (0..16).map(PageNum) {
        assert_eq!(k.proc(pid).unwrap().pt.state(p), model.state(p), "{p:?}");
    }
    k.check_invariants().unwrap();
}

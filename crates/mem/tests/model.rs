//! The columnar page table and the kernel's swap bookkeeping, checked
//! against a reference model.
//!
//! [`ModelTable`] is the page table in its plainest form: one
//! [`PageState`] row per page. The properties drive it and
//! [`PageTable`] through the same random operation sequences and require
//! the same states, counters, clock hand and victim lists after every
//! step. The kernel's touch path and its extent-wise swap frees are
//! checked against the model semantics as well, and [`RefKernel`] replays
//! the kernel's fault and eviction paths page by page to check their
//! run-wise forms.

use agp_disk::{extents_from_blocks, Extent};
use agp_mem::{
    EvictOutcome, Kernel, MapInOutcome, MemError, PageNum, PageState, PageTable, ProcId, Resident,
    SwapSpace, TouchOutcome, VmParams,
};
use agp_sim::{prop, SimRng, SimTime};
use std::collections::BTreeMap;

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
                        let mut got = Vec::new();
                        table.clock_sweep(max_scan, max_victims, &mut got);
                        assert_eq!(got, model.clock_sweep(max_scan, max_victims), "step {step}");
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
            base.alloc(total, &mut Vec::new()).unwrap();
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
    k.evict_batch(pid, &out, &mut Vec::new(), &mut Vec::new())
        .unwrap();
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

/// One process of [`RefKernel`].
#[derive(Clone, Debug)]
struct RefProc {
    pt: ModelTable,
    epoch: u32,
    wss: usize,
}

/// The kernel's frames, swap and owner map with its fault and eviction
/// paths in their per-page form: read-ahead is a chain lookup
/// (`swap_chain_after`) followed by one `map_in` per page; eviction and
/// cleaning collect a per-block write list and coalesce it with
/// `extents_from_blocks`; released blocks go back one at a time.
#[derive(Clone, Debug)]
struct RefKernel {
    free: usize,
    swap: SwapSpace,
    procs: BTreeMap<ProcId, RefProc>,
    owner: BTreeMap<u64, (ProcId, PageNum)>,
}

impl RefKernel {
    fn new(frames: usize, swap_blocks: u64) -> Self {
        RefKernel {
            free: frames,
            swap: SwapSpace::new(swap_blocks),
            procs: BTreeMap::new(),
            owner: BTreeMap::new(),
        }
    }

    fn register(&mut self, pid: ProcId, pages: usize) {
        let proc = RefProc {
            pt: ModelTable::new(pages),
            epoch: 0,
            wss: 0,
        };
        self.procs.insert(pid, proc);
    }

    fn release(&mut self, block: u64) {
        self.owner.remove(&block);
        self.swap.free_block(block);
    }

    fn unregister(&mut self, pid: ProcId) {
        let proc = self.procs.remove(&pid).unwrap();
        self.free += proc.pt.resident;
        for st in proc.pt.pages {
            match st {
                PageState::Swapped { block } => self.release(block),
                PageState::Resident(Resident {
                    swap_copy: Some(block),
                    ..
                }) => self.release(block),
                _ => {}
            }
        }
    }

    fn quantum_started(&mut self, pid: ProcId) {
        let proc = self.procs.get_mut(&pid).unwrap();
        proc.epoch += 1;
        proc.wss = 0;
    }

    /// Per-page touches of `len` pages from `first`, up to the first
    /// non-resident page.
    fn touch_run(
        &mut self,
        pid: ProcId,
        first: u32,
        len: u32,
        write: bool,
        now: SimTime,
    ) -> (usize, Option<TouchOutcome>) {
        let proc = self.procs.get_mut(&pid).unwrap();
        let mut stale = Vec::new();
        let mut hits = 0;
        let mut fault = None;
        for p in (first..first + len).map(PageNum) {
            match proc.pt.state(p) {
                PageState::Resident(_) => {
                    let (fresh, copy) = proc.pt.touch(p, write, now, proc.epoch);
                    proc.wss += usize::from(fresh);
                    stale.extend(copy);
                    hits += 1;
                }
                PageState::Swapped { block } => {
                    fault = Some(TouchOutcome::NeedsSwapIn { block });
                    break;
                }
                PageState::Untouched => {
                    fault = Some(TouchOutcome::NeedsZeroFill);
                    break;
                }
            }
        }
        for b in stale {
            self.release(b);
        }
        (hits, fault)
    }

    fn map_in(&mut self, pid: ProcId, p: PageNum, now: SimTime) -> Result<MapInOutcome, MemError> {
        if self.free == 0 {
            return Err(MemError::OutOfFrames);
        }
        let proc = self.procs.get_mut(&pid).unwrap();
        let (swap_copy, outcome) = match proc.pt.state(p) {
            PageState::Swapped { block } => (Some(block), MapInOutcome::Read { block }),
            PageState::Untouched => (None, MapInOutcome::Zeroed),
            PageState::Resident(_) => panic!("map_in of resident page {p:?}"),
        };
        let r = Resident {
            referenced: true,
            dirty: false,
            last_ref: now,
            swap_copy,
            epoch: proc.epoch,
        };
        proc.pt.set(p, PageState::Resident(r));
        proc.wss += 1;
        self.free -= 1;
        Ok(outcome)
    }

    /// Pages of `pid` stored at `block+1, block+2, …` that are swapped
    /// out, up to `limit`.
    fn swap_chain_after(&self, pid: ProcId, block: u64, limit: usize) -> Vec<PageNum> {
        let pt = &self.procs[&pid].pt;
        let mut out = Vec::new();
        let mut b = block + 1;
        while out.len() < limit {
            match self.owner.get(&b) {
                Some(&(owner, page)) if owner == pid && !pt.state(page).is_resident() => {
                    out.push(page)
                }
                _ => break,
            }
            b += 1;
        }
        out
    }

    /// Allocate one fresh block per dirty page of `pages` after checking
    /// their bounds; the blocks in allocation order.
    fn alloc_for_dirty(&mut self, pid: ProcId, pages: &[PageNum]) -> Result<Vec<u64>, MemError> {
        let pt = &self.procs[&pid].pt;
        for &p in pages {
            if p.idx() >= pt.pages.len() {
                return Err(MemError::BadPage(pid, p));
            }
        }
        let need = pages.iter().filter(|&&p| is_dirty(&pt.state(p))).count();
        let mut fresh = Vec::new();
        self.swap.alloc(need as u64, &mut fresh)?;
        Ok(fresh.iter().flat_map(|e| e.start..e.end()).collect())
    }

    fn evict_batch(
        &mut self,
        pid: ProcId,
        pages: &[PageNum],
        log: &mut Vec<PageNum>,
    ) -> Result<Vec<Extent>, MemError> {
        let mut fresh = self.alloc_for_dirty(pid, pages)?.into_iter();
        let mut blocks = Vec::new();
        let proc = self.procs.get_mut(&pid).unwrap();
        for &p in pages {
            let PageState::Resident(r) = proc.pt.state(p) else {
                continue;
            };
            let next = if r.dirty {
                let block = fresh.next().unwrap();
                self.owner.insert(block, (pid, p));
                blocks.push(block);
                PageState::Swapped { block }
            } else {
                match r.swap_copy {
                    Some(block) => PageState::Swapped { block },
                    None => PageState::Untouched,
                }
            };
            proc.pt.set(p, next);
            self.free += 1;
            log.push(p);
        }
        for b in fresh {
            self.swap.free_block(b);
        }
        Ok(extents_from_blocks(&mut blocks))
    }

    fn clean_batch(&mut self, pid: ProcId, pages: &[PageNum]) -> Result<Vec<Extent>, MemError> {
        let mut fresh = self.alloc_for_dirty(pid, pages)?.into_iter();
        let mut blocks = Vec::new();
        let proc = self.procs.get_mut(&pid).unwrap();
        for &p in pages {
            if !is_dirty(&proc.pt.state(p)) {
                continue;
            }
            let block = fresh.next().unwrap();
            proc.pt.update_resident(p, |r| {
                r.dirty = false;
                r.swap_copy = Some(block);
            });
            self.owner.insert(block, (pid, p));
            blocks.push(block);
        }
        for b in fresh {
            self.swap.free_block(b);
        }
        Ok(extents_from_blocks(&mut blocks))
    }
}

const RUN_PROCS: u32 = 2;
const RUN_PAGES: u32 = 40;
/// Fewer frames than pages, so faults and read-ahead run out of frames.
const RUN_FRAMES: usize = 48;
const RUN_SWAP: u64 = 72;

/// An operation on both kernels.
#[derive(Clone, Debug)]
enum KOp {
    Touch {
        first: u32,
        len: u32,
        write: bool,
    },
    /// Faults on the non-resident pages of `len` pages from `first`, each
    /// with read-ahead up to `limit` pages (not bounded by the free
    /// frames), stopping at the first error.
    Fault {
        first: u32,
        len: u32,
        limit: usize,
    },
    /// Several eviction batches appended to one write list.
    Evict(Vec<Vec<u32>>),
    EvictOne(u32),
    Clean(Vec<u32>),
    Quantum,
    Exit,
}

fn kop(rng: &mut SimRng) -> (u32, KOp) {
    let proc = rng.below(u64::from(RUN_PROCS)) as u32;
    let page = |r: &mut SimRng| r.below(u64::from(RUN_PAGES)) as u32;
    // Runs of ascending pages with repeats and gaps, like clock victims
    // and stale candidates.
    let batch = |r: &mut SimRng| -> Vec<u32> {
        let start = r.below(u64::from(RUN_PAGES)) as u32;
        prop::vec(r, 0..24, |r| r.below(3) as u32)
            .into_iter()
            .scan(start, |p, step| {
                *p = (*p + step) % RUN_PAGES;
                Some(*p)
            })
            .collect()
    };
    let op = match rng.below(16) {
        0..=4 => {
            let first = page(rng);
            KOp::Touch {
                first,
                len: rng.below(u64::from(RUN_PAGES - first) + 1) as u32,
                write: rng.chance(0.6),
            }
        }
        5..=8 => {
            let first = page(rng);
            KOp::Fault {
                first,
                len: rng.below(u64::from(RUN_PAGES - first) + 1) as u32,
                limit: rng.below(20) as usize,
            }
        }
        9..=11 => KOp::Evict(prop::vec(rng, 1..4, batch)),
        12 => KOp::EvictOne(page(rng)),
        13 => KOp::Clean(batch(rng)),
        14 => KOp::Quantum,
        _ => KOp::Exit,
    };
    (proc, op)
}

/// Fault non-resident page `p` on both kernels: `map_in`, then
/// read-ahead from its block — [`Kernel::map_in_chain`] against
/// `swap_chain_after` plus one `map_in` per page. Checks the outcomes,
/// the pages read ahead, the read extent and any error; returns whether
/// the fault succeeded.
fn fault_agrees(
    k: &mut Kernel,
    r: &mut RefKernel,
    pid: ProcId,
    p: PageNum,
    limit: usize,
    now: SimTime,
) -> bool {
    let got = k.map_in(pid, p, now);
    assert_eq!(got, r.map_in(pid, p, now), "map_in {pid} {p:?}");
    let Ok(MapInOutcome::Read { block }) = got else {
        return got.is_ok();
    };
    let mut ahead = Vec::new();
    let n = k.map_in_chain(pid, block, limit, now, |q| ahead.push(q));
    let chain = r.swap_chain_after(pid, block, limit);
    let mut want_reads = vec![block];
    for &q in &chain {
        match r.map_in(pid, q, now) {
            Ok(MapInOutcome::Read { block }) => want_reads.push(block),
            Ok(MapInOutcome::Zeroed) => panic!("chain page {q:?} is swapped"),
            Err(e) => {
                assert_eq!(n, Err(e), "read-ahead after {pid} {p:?}");
                assert_eq!(ahead, chain[..want_reads.len() - 1]);
                return false;
            }
        }
    }
    assert_eq!(n, Ok(chain.len()), "read-ahead after {pid} {p:?}");
    assert_eq!(ahead, chain);
    assert_eq!(
        vec![Extent::new(block, 1 + chain.len() as u64)],
        extents_from_blocks(&mut want_reads),
        "read extent after {pid} {p:?}"
    );
    true
}

fn assert_kernels_agree(k: &Kernel, r: &RefKernel, step: usize) {
    assert_eq!(k.free_frames(), r.free, "free frames after step {step}");
    assert_eq!(
        format!("{:?}", k.swap()),
        format!("{:?}", r.swap),
        "swap free map after step {step}"
    );
    assert_eq!(k.check_invariants(), Ok(()), "after step {step}");
    for (&pid, proc) in &r.procs {
        let pm = k.proc(pid).unwrap();
        assert_eq!(pm.wss_current(), proc.wss, "{pid} wss after step {step}");
        for i in 0..RUN_PAGES {
            let p = PageNum(i);
            assert_eq!(
                pm.pt.state(p),
                proc.pt.state(p),
                "{pid} {p:?} after step {step}"
            );
        }
    }
}

/// The run-wise fault and eviction paths leave the kernel exactly as the
/// per-page reference does: same page states, WSS counts, free frames,
/// swap free map and invariants, the same read-ahead pages, outcomes and
/// errors, and byte-identical extent lists — coalesced within each batch
/// and never across batches.
#[test]
fn run_wise_paths_match_per_page_reference() {
    prop::check(
        96,
        |rng| prop::vec(rng, 1..250, kop),
        |ops| {
            let params = VmParams {
                total_frames: RUN_FRAMES,
                wired_frames: 0,
                freepages_min: 4,
                freepages_high: 8,
                readahead: 16,
            };
            let mut k = Kernel::new(params, RUN_SWAP);
            let mut r = RefKernel::new(RUN_FRAMES, RUN_SWAP);
            for pid in (0..RUN_PROCS).map(ProcId) {
                k.register_proc(pid, RUN_PAGES as usize);
                r.register(pid, RUN_PAGES as usize);
            }
            let pages = |v: &[u32]| -> Vec<PageNum> { v.iter().map(|&p| PageNum(p)).collect() };
            for (step, (proc, op)) in ops.iter().enumerate() {
                let pid = ProcId(*proc);
                let now = SimTime::from_us(step as u64 + 1);
                match op {
                    &KOp::Touch { first, len, write } => {
                        let got = k.touch_run(pid, PageNum(first), len as usize, write, now);
                        assert_eq!(got, Ok(r.touch_run(pid, first, len, write, now)));
                    }
                    &KOp::Fault { first, len, limit } => {
                        for p in (first..first + len).map(PageNum) {
                            if !r.procs[&pid].pt.state(p).is_resident()
                                && !fault_agrees(&mut k, &mut r, pid, p, limit, now)
                            {
                                break;
                            }
                        }
                    }
                    KOp::Evict(batches) => {
                        let (mut log, mut writes) = (Vec::new(), Vec::new());
                        let (mut want_log, mut want_writes) = (Vec::new(), Vec::new());
                        for batch in batches {
                            let got = k.evict_batch(pid, &pages(batch), &mut log, &mut writes);
                            match r.evict_batch(pid, &pages(batch), &mut want_log) {
                                Ok(ext) => {
                                    assert_eq!(got, Ok(()), "step {step}");
                                    want_writes.extend(ext);
                                }
                                Err(e) => assert_eq!(got, Err(e), "step {step}"),
                            }
                        }
                        assert_eq!(log, want_log, "step {step}");
                        assert_eq!(writes, want_writes, "step {step}");
                    }
                    &KOp::EvictOne(page) => {
                        let p = PageNum(page);
                        let got = k.evict(pid, p);
                        let mut log = Vec::new();
                        let want = r.evict_batch(pid, &[p], &mut log).map(|ext| match ext[..] {
                            [e] => EvictOutcome::Write { block: e.start },
                            _ => EvictOutcome::Dropped,
                        });
                        match want {
                            Ok(_) if log.is_empty() => {
                                assert_eq!(got, Err(MemError::NotResident(pid, p)))
                            }
                            want => assert_eq!(got, want, "step {step}"),
                        }
                    }
                    KOp::Clean(batch) => {
                        let got = k.clean_batch(pid, &pages(batch));
                        assert_eq!(got, r.clean_batch(pid, &pages(batch)), "step {step}");
                    }
                    KOp::Quantum => {
                        k.quantum_started(pid).unwrap();
                        r.quantum_started(pid);
                    }
                    KOp::Exit => {
                        k.unregister_proc(pid).unwrap();
                        r.unregister(pid);
                        k.register_proc(pid, RUN_PAGES as usize);
                        r.register(pid, RUN_PAGES as usize);
                    }
                }
                assert_kernels_agree(&k, &r, step);
            }
        },
    );
}

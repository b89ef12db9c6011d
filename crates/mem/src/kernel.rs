//! The per-node memory-management kernel: frames, page tables, swap, and
//! the mechanism API that paging *policies* (in `agp-core`) are written
//! against.

use crate::ptable::{PageState, PageTable};
use crate::swap::SwapSpace;
use crate::types::{MemError, PageNum, ProcId, VmParams};
use agp_disk::Extent;
use agp_obs::{ObsEvent, ObsLink};
use agp_sim::SimTime;
use std::collections::BTreeMap;

/// Result of touching a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The page was resident; bits updated, no fault.
    Hit,
    /// Major fault: the page image must be read from the given swap block.
    NeedsSwapIn {
        /// Swap block holding the page.
        block: u64,
    },
    /// Minor fault: first touch ever; a frame must be zero-filled (no I/O).
    NeedsZeroFill,
}

/// Result of mapping a page into a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapInOutcome {
    /// Page image must be read from this swap block (disk read required).
    Read {
        /// Swap block to read.
        block: u64,
    },
    /// Demand-zero fill; no disk traffic.
    Zeroed,
}

/// What eviction of a single page cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictOutcome {
    /// Clean page with a valid swap copy, or never-written page: frame
    /// reclaimed with no I/O.
    Dropped,
    /// Dirty page: its image must be written to this swap block.
    Write {
        /// Destination swap block.
        block: u64,
    },
}

/// Per-process memory bookkeeping.
#[derive(Clone, Debug)]
pub struct ProcMem {
    /// The page table.
    pub pt: PageTable,
    /// Current working-set epoch (bumped each time the process is granted
    /// a quantum).
    epoch: u32,
    /// Distinct pages referenced in the current epoch.
    wss_current: usize,
    /// Distinct pages referenced in the last completed epoch — the paper's
    /// WSS estimate ("using the page references during the incoming
    /// process' previous time quanta", §3.2).
    wss_last: Option<usize>,
}

impl ProcMem {
    fn new(pages: usize) -> Self {
        ProcMem {
            pt: PageTable::new(pages),
            epoch: 0,
            wss_current: 0,
            wss_last: None,
        }
    }

    /// Resident set size in pages.
    pub fn rss(&self) -> usize {
        self.pt.resident()
    }

    /// Distinct pages referenced so far in the current quantum.
    pub fn wss_current(&self) -> usize {
        self.wss_current
    }

    /// Distinct pages referenced during the previously completed quantum.
    pub fn wss_last(&self) -> Option<usize> {
        self.wss_last
    }
}

/// Blocks that hold a *valid, current* page image → owning page, indexed
/// by block (the shape of Linux 2.2's `swap_map`). A slot holds
/// `(pid + 1) << 32 | page`, or 0 when the block is unowned. The table
/// grows on insert to the highest block ever owned rather than being
/// sized from the device, so a kernel whose swap is never used costs
/// nothing to build.
#[derive(Clone, Debug, Default)]
struct OwnerTable {
    slots: Vec<u64>,
    len: usize,
}

impl OwnerTable {
    fn get(&self, block: u64) -> Option<(ProcId, PageNum)> {
        match self.slots.get(block as usize) {
            Some(&slot) if slot != 0 => {
                Some((ProcId((slot >> 32) as u32 - 1), PageNum(slot as u32)))
            }
            _ => None,
        }
    }

    fn insert(&mut self, block: u64, pid: ProcId, page: PageNum) {
        let i = block as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, 0);
        }
        if self.slots[i] == 0 {
            self.len += 1;
        }
        self.slots[i] = (u64::from(pid.0) + 1) << 32 | u64::from(page.0);
    }

    fn remove(&mut self, block: u64) {
        if let Some(slot) = self.slots.get_mut(block as usize) {
            if *slot != 0 {
                *slot = 0;
                self.len -= 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Owned blocks in ascending block order.
    fn iter(&self) -> impl Iterator<Item = (u64, (ProcId, PageNum))> + '_ {
        (0..self.slots.len() as u64).filter_map(|b| self.get(b).map(|owner| (b, owner)))
    }
}

/// The simulated per-node kernel memory manager.
///
/// All state transitions preserve the frame-conservation invariant
/// `free + Σ rss == usable`; [`Kernel::check_invariants`] verifies it (and
/// swap/owner-map consistency) and is exercised heavily in tests.
#[derive(Clone, Debug)]
pub struct Kernel {
    params: VmParams,
    free: usize,
    swap: SwapSpace,
    procs: BTreeMap<ProcId, ProcMem>,
    /// Owner of every block holding a valid page image: both `Swapped`
    /// pages and clean resident pages' `swap_copy`. Used by read-ahead to
    /// chase swap-contiguous neighbors.
    swap_owner: OwnerTable,
    /// Reused buffer for swap blocks being released: the copies a write
    /// run makes stale, or an exiting process's blocks.
    stale: Vec<u64>,
    /// Reused buffer for the fresh swap extents of one batch.
    fresh: Vec<Extent>,
    obs: ObsLink,
}

impl Kernel {
    /// A kernel managing `params.usable_frames()` frames and a swap device
    /// of `swap_blocks` blocks.
    pub fn new(params: VmParams, swap_blocks: u64) -> Self {
        let free = params.usable_frames();
        Kernel {
            params,
            free,
            swap: SwapSpace::new(swap_blocks),
            procs: BTreeMap::new(),
            swap_owner: OwnerTable::default(),
            stale: Vec::new(),
            fresh: Vec::new(),
            obs: ObsLink::disabled(),
        }
    }

    /// Attach an observation link (fault and eviction events).
    pub fn set_observer(&mut self, obs: ObsLink) {
        self.obs = obs;
    }

    /// Kernel tuning parameters.
    pub fn params(&self) -> &VmParams {
        &self.params
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        self.free
    }

    /// Whether free memory has fallen below `freepages.min` (reclaim must
    /// run before more frames are handed out).
    pub fn below_min(&self) -> bool {
        self.free < self.params.freepages_min
    }

    /// How many frames reclaim should free right now to honor the
    /// watermark model: to `freepages.high` if below `freepages.min`,
    /// otherwise nothing.
    pub fn reclaim_target(&self) -> usize {
        if self.below_min() {
            self.params.freepages_high.saturating_sub(self.free)
        } else {
            0
        }
    }

    /// The swap allocator (metrics / tests).
    pub fn swap(&self) -> &SwapSpace {
        &self.swap
    }

    /// Register a process with an address space of `pages` pages.
    pub fn register_proc(&mut self, pid: ProcId, pages: usize) {
        let prev = self.procs.insert(pid, ProcMem::new(pages));
        debug_assert!(prev.is_none(), "duplicate process registration {pid}");
    }

    /// Remove a process, releasing its frames and swap blocks.
    pub fn unregister_proc(&mut self, pid: ProcId) -> Result<(), MemError> {
        let pm = self.procs.remove(&pid).ok_or(MemError::NoSuchProc(pid))?;
        self.free += pm.pt.resident();
        let mut blocks = std::mem::take(&mut self.stale);
        blocks.extend((0..pm.pt.len()).filter_map(|i| pm.pt.swap_block(PageNum(i as u32))));
        self.free_swap_blocks(&mut blocks);
        self.stale = blocks;
        Ok(())
    }

    /// Access a process's bookkeeping.
    pub fn proc(&self, pid: ProcId) -> Result<&ProcMem, MemError> {
        self.procs.get(&pid).ok_or(MemError::NoSuchProc(pid))
    }

    fn proc_mut(&mut self, pid: ProcId) -> Result<&mut ProcMem, MemError> {
        self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))
    }

    /// Iterate over `(pid, rss)` for all registered processes.
    pub fn procs_rss(&self) -> impl Iterator<Item = (ProcId, usize)> + '_ {
        self.procs.iter().map(|(&p, m)| (p, m.rss()))
    }

    /// The process with the largest RSS, excluding `exclude` — the victim
    /// Linux 2.2's `swap_out()` picks ("examines the process that has the
    /// largest memory size", paper §2).
    pub fn largest_rss_proc(&self, exclude: Option<ProcId>) -> Option<ProcId> {
        self.procs
            .iter()
            .filter(|(&p, _)| Some(p) != exclude)
            .max_by_key(|(&p, m)| (m.rss(), std::cmp::Reverse(p)))
            .filter(|(_, m)| m.rss() > 0)
            .map(|(&p, _)| p)
    }

    // ------------------------------------------------------------------
    // Touch / fault / map-in
    // ------------------------------------------------------------------

    /// Touch page `p` of `pid` at `now`. On a hit, updates the reference
    /// bit, age, dirty bit and WSS accounting; on a miss, reports what the
    /// fault handler must do (state is not changed until
    /// [`Kernel::map_in`]). A one-page [`Kernel::touch_run`].
    pub fn touch(
        &mut self,
        pid: ProcId,
        p: PageNum,
        write: bool,
        now: SimTime,
    ) -> Result<TouchOutcome, MemError> {
        let (_, fault) = self.touch_run(pid, p, 1, write, now)?;
        Ok(fault.unwrap_or(TouchOutcome::Hit))
    }

    /// Touch up to `max` consecutive pages starting at `first`, stopping
    /// at the first non-resident page. Returns `(hits, fault)` where
    /// `hits` is the number of resident pages touched and `fault` is the
    /// outcome for the first non-resident page, if one was reached within
    /// the run.
    ///
    /// Semantically identical to calling [`Kernel::touch`] in a loop; this
    /// batch form does one process lookup per run instead of per page,
    /// which dominates the executor's hot path (a class B LU run touches
    /// ~10⁷ pages).
    pub fn touch_run(
        &mut self,
        pid: ProcId,
        first: PageNum,
        max: usize,
        write: bool,
        now: SimTime,
    ) -> Result<(usize, Option<TouchOutcome>), MemError> {
        let _perf = agp_perf::scope(agp_perf::Span::MemTouch);
        let pm = self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        let end = first.idx() + max;
        if max > 0 && end > pm.pt.len() {
            return Err(MemError::BadPage(pid, PageNum((end - 1) as u32)));
        }
        let mut stale = std::mem::take(&mut self.stale);
        let (hits, fresh) =
            pm.pt
                .touch_resident_run(first.idx()..end, write, now, pm.epoch, &mut stale);
        pm.wss_current += fresh;
        let fault = if first.idx() + hits < end {
            let p = PageNum((first.idx() + hits) as u32);
            let block = pm.pt.swap_block(p);
            self.obs.emit(now, || ObsEvent::PageFault {
                pid: pid.0,
                page: p.0,
                major: block.is_some(),
            });
            Some(match block {
                Some(block) => TouchOutcome::NeedsSwapIn { block },
                None => TouchOutcome::NeedsZeroFill,
            })
        } else {
            None
        };
        self.free_swap_blocks(&mut stale);
        self.stale = stale;
        Ok((hits, fault))
    }

    /// Release swap blocks that no longer hold a valid page image: drop
    /// their owners and return them to the allocator as coalesced
    /// extents, sorting `blocks` in place. Leaves `blocks` empty.
    fn free_swap_blocks(&mut self, blocks: &mut Vec<u64>) {
        blocks.sort_unstable();
        let mut run: Option<Extent> = None;
        for &b in blocks.iter() {
            self.swap_owner.remove(b);
            match &mut run {
                Some(e) if e.end() == b => e.len += 1,
                _ => {
                    if let Some(e) = run.replace(Extent::new(b, 1)) {
                        self.swap.free_extent(e);
                    }
                }
            }
        }
        if let Some(e) = run {
            self.swap.free_extent(e);
        }
        blocks.clear();
    }

    /// Map page `p` of `pid` into a free frame at `now`.
    ///
    /// Consumes one free frame (fails with [`MemError::OutOfFrames`] if
    /// none are available — the caller must reclaim first). The page
    /// becomes resident-referenced-clean; a subsequent [`Kernel::touch`]
    /// sets the dirty bit if the access is a write.
    pub fn map_in(
        &mut self,
        pid: ProcId,
        p: PageNum,
        now: SimTime,
    ) -> Result<MapInOutcome, MemError> {
        if self.free == 0 {
            return Err(MemError::OutOfFrames);
        }
        let pm = self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        if p.idx() >= pm.pt.len() {
            return Err(MemError::BadPage(pid, p));
        }
        if pm.pt.is_resident(p) {
            debug_assert!(false, "map_in of already-resident page {pid}/{p:?}");
            return Ok(MapInOutcome::Zeroed);
        }
        let outcome = match pm.pt.swap_block(p) {
            Some(block) => MapInOutcome::Read { block },
            None => MapInOutcome::Zeroed,
        };
        pm.pt.map_in(p, now, pm.epoch);
        pm.wss_current += 1;
        self.free -= 1;
        Ok(outcome)
    }

    /// Swap read-ahead after a major fault on `block`: map in the pages of
    /// `pid` stored at `block+1, block+2, …` while they are swapped out,
    /// up to `limit` pages, calling `each` on every page mapped. Returns
    /// how many were mapped; together with the faulted page they form
    /// the one read extent `[block, block + 1 + n)`.
    ///
    /// The chain stops at the first block that is unowned, owned by
    /// another process, or a copy of a page already resident. Each page
    /// is mapped as [`Kernel::map_in`] would, with one process lookup for
    /// the whole chain.
    pub fn map_in_chain(
        &mut self,
        pid: ProcId,
        block: u64,
        limit: usize,
        now: SimTime,
        mut each: impl FnMut(PageNum),
    ) -> Result<usize, MemError> {
        let pm = self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        let mut n = 0;
        while n < limit {
            let page = match self.swap_owner.get(block + 1 + n as u64) {
                Some((owner, page)) if owner == pid && !pm.pt.is_resident(page) => page,
                _ => break,
            };
            if self.free == 0 {
                return Err(MemError::OutOfFrames);
            }
            pm.pt.map_in(page, now, pm.epoch);
            pm.wss_current += 1;
            self.free -= 1;
            n += 1;
            each(page);
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Eviction
    // ------------------------------------------------------------------

    /// Evict a single resident page, freeing its frame.
    ///
    /// * clean, valid swap copy → page transitions to `Swapped`, no I/O;
    /// * clean, never written → back to `Untouched` (zero pages are
    ///   reproducible), no I/O;
    /// * dirty → allocates a swap block and writes (a dirty page never
    ///   holds a swap copy; writes free the stale copy eagerly).
    ///
    /// A one-page [`Kernel::evict_batch`].
    pub fn evict(&mut self, pid: ProcId, p: PageNum) -> Result<EvictOutcome, MemError> {
        let (mut log, mut writes) = (Vec::new(), Vec::new());
        self.evict_batch(pid, &[p], &mut log, &mut writes)?;
        if log.is_empty() {
            return Err(MemError::NotResident(pid, p));
        }
        Ok(match writes.first() {
            Some(e) => EvictOutcome::Write { block: e.start },
            None => EvictOutcome::Dropped,
        })
    }

    /// Evict a batch of pages of one process, allocating swap for all
    /// dirty pages **contiguously** (this is what gives block page-out
    /// its sequential layout). Appends the evicted pages to
    /// `evicted_log` in eviction order (consumed by the adaptive page-in
    /// recorder) and the write extents to `writes`, coalescing blocks of
    /// this batch only: an extent already in `writes` is never extended.
    ///
    /// Pages in the list that are not resident are skipped (candidate
    /// lists can go stale between selection and eviction).
    pub fn evict_batch(
        &mut self,
        pid: ProcId,
        pages: &[PageNum],
        evicted_log: &mut Vec<PageNum>,
        writes: &mut Vec<Extent>,
    ) -> Result<(), MemError> {
        let pm = self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        alloc_for_dirty(&mut self.swap, &pm.pt, pid, pages, &mut fresh)?;
        let mut fresh_blocks = fresh.iter().flat_map(|e| e.start..e.end());
        let first_write = writes.len();
        let mut evicted = 0u32;
        let mut written = 0u32;
        for &p in pages {
            if !pm.pt.is_resident(p) {
                continue; // stale candidate; skip
            }
            if pm.pt.is_dirty(p) {
                debug_assert!(
                    pm.pt.swap_block(p).is_none(),
                    "dirty page holds a swap copy"
                );
                // alloc_for_dirty counted the dirty pages and allocated exactly
                // that many blocks; nothing mutates the page table in between.
                // agp-lint: allow(panic-site): dirty count matches allocation
                let block = fresh_blocks.next().expect("allocated exactly enough");
                pm.pt.set(p, PageState::Swapped { block });
                self.swap_owner.insert(block, pid, p);
                push_block(writes, first_write, block);
                written += 1;
            } else {
                match pm.pt.swap_block(p) {
                    Some(b) => {
                        pm.pt.set(p, PageState::Swapped { block: b });
                        debug_assert_eq!(self.swap_owner.get(b), Some((pid, p)));
                    }
                    None => pm.pt.set(p, PageState::Untouched),
                }
            }
            self.free += 1;
            evicted += 1;
            evicted_log.push(p);
        }
        free_unused(&mut self.swap, &fresh, u64::from(written));
        self.fresh = fresh;
        if evicted > 0 {
            self.obs.emit_clock(|| ObsEvent::EvictBatch {
                pid: pid.0,
                pages: evicted,
                write_pages: written,
            });
        }
        Ok(())
    }

    /// Write a dirty resident page to swap *without* evicting it: the page
    /// stays resident but becomes clean with a valid swap copy. This is
    /// the background-writing primitive (paper §3.4). Batch form: swap for
    /// copy-less pages is allocated contiguously; returns coalesced write
    /// extents. Non-dirty / non-resident pages are skipped.
    pub fn clean_batch(&mut self, pid: ProcId, pages: &[PageNum]) -> Result<Vec<Extent>, MemError> {
        let pm = self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        alloc_for_dirty(&mut self.swap, &pm.pt, pid, pages, &mut fresh)?;
        let mut fresh_blocks = fresh.iter().flat_map(|e| e.start..e.end());
        let mut writes = Vec::new();
        let mut written = 0;
        for &p in pages {
            if !pm.pt.is_dirty(p) {
                continue;
            }
            debug_assert!(
                pm.pt.swap_block(p).is_none(),
                "dirty page holds a swap copy"
            );
            // alloc_for_dirty counted the dirty pages and allocated exactly
            // that many blocks; nothing mutates the page table in between.
            // agp-lint: allow(panic-site): dirty count matches allocation
            let block = fresh_blocks.next().expect("allocated exactly enough");
            pm.pt.update_resident(p, |r| {
                r.dirty = false;
                r.swap_copy = Some(block);
            });
            self.swap_owner.insert(block, pid, p);
            push_block(&mut writes, 0, block);
            written += 1;
        }
        free_unused(&mut self.swap, &fresh, written);
        self.fresh = fresh;
        Ok(writes)
    }

    // ------------------------------------------------------------------
    // Scan helpers for policies
    // ------------------------------------------------------------------

    /// Clock-sweep `pid`'s page table (clearing reference bits, appending
    /// unreferenced resident pages to `victims`). See
    /// [`PageTable::clock_sweep`].
    pub fn clock_sweep_proc(
        &mut self,
        pid: ProcId,
        max_scan: usize,
        max_victims: usize,
        victims: &mut Vec<PageNum>,
    ) -> Result<(), MemError> {
        self.proc_mut(pid)?
            .pt
            .clock_sweep(max_scan, max_victims, victims);
        Ok(())
    }

    /// `pid`'s `limit` oldest resident pages, oldest first
    /// (selective/aggressive page-out order). See
    /// [`PageTable::resident_oldest_first`].
    pub fn resident_oldest_first(
        &self,
        pid: ProcId,
        limit: usize,
    ) -> Result<Vec<PageNum>, MemError> {
        Ok(self.proc(pid)?.pt.resident_oldest_first(limit))
    }

    /// Sweep `pid`'s page table from position `hand`, collecting up to
    /// `max_collect` dirty resident pages while visiting at most
    /// `max_scan` entries. Returns the victims and the new hand position.
    ///
    /// This is the background writer's scan (paper §3.4), shaped like the
    /// kernel's own bdflush: a cheap cyclic cursor rather than a global
    /// age sort, so each tick costs O(scan) regardless of table size.
    pub fn dirty_sweep(
        &self,
        pid: ProcId,
        hand: usize,
        max_scan: usize,
        max_collect: usize,
    ) -> Result<(Vec<PageNum>, usize), MemError> {
        let pm = self.proc(pid)?;
        let n = pm.pt.len();
        if n == 0 || max_collect == 0 {
            return Ok((Vec::new(), 0));
        }
        let mut hand = hand % n;
        let mut out = Vec::new();
        let mut scanned = 0;
        while scanned < max_scan.min(n) && out.len() < max_collect {
            let p = PageNum(hand as u32);
            if pm.pt.is_dirty(p) {
                out.push(p);
            }
            hand = (hand + 1) % n;
            scanned += 1;
        }
        Ok((out, hand))
    }

    // ------------------------------------------------------------------
    // Working-set tracking
    // ------------------------------------------------------------------

    /// Note that `pid` has been granted a new quantum: close the previous
    /// reference epoch and start a fresh one.
    pub fn quantum_started(&mut self, pid: ProcId) -> Result<(), MemError> {
        let pm = self.proc_mut(pid)?;
        if pm.epoch > 0 || pm.wss_current > 0 {
            pm.wss_last = Some(pm.wss_current);
        }
        pm.epoch = pm.epoch.wrapping_add(1);
        pm.wss_current = 0;
        Ok(())
    }

    /// Working-set estimate for `pid` in pages: the reference count from
    /// its previous quantum, falling back to its current RSS + swapped
    /// footprint capped at usable memory when no history exists.
    pub fn wss_estimate(&self, pid: ProcId) -> Result<usize, MemError> {
        let pm = self.proc(pid)?;
        let est = match pm.wss_last {
            Some(w) if w > 0 => w,
            _ => {
                // No completed quantum yet: assume it will want everything
                // it has ever touched.
                pm.pt
                    .iter()
                    .filter(|(_, s)| !matches!(s, PageState::Untouched))
                    .count()
                    .max(pm.rss())
            }
        };
        Ok(est.min(self.params.usable_frames()))
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Verify frame conservation, counter consistency, and swap-owner map
    /// coherence. Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let rss_sum: usize = self.procs.values().map(|m| m.pt.resident()).sum();
        let usable = self.params.usable_frames();
        if self.free + rss_sum != usable {
            return Err(format!(
                "frame conservation violated: free {} + rss {} != usable {}",
                self.free, rss_sum, usable
            ));
        }
        let mut owned_blocks = 0u64;
        for (&pid, pm) in &self.procs {
            let mut dirty = 0;
            for (p, st) in pm.pt.iter() {
                match st {
                    PageState::Resident(r) => {
                        if r.dirty {
                            dirty += 1;
                            if r.swap_copy.is_some() {
                                return Err(format!("dirty page {pid}/{p:?} holds a swap copy"));
                            }
                        }
                        if let Some(b) = r.swap_copy {
                            // Clean copies must be registered for read-ahead.
                            if self.swap_owner.get(b) != Some((pid, p)) {
                                return Err(format!(
                                    "swap copy {b} of {pid}/{p:?} missing from owner map"
                                ));
                            }
                            owned_blocks += 1;
                        }
                    }
                    PageState::Swapped { block } => {
                        if self.swap_owner.get(block) != Some((pid, p)) {
                            return Err(format!(
                                "swapped page {pid}/{p:?} block {block} not in owner map"
                            ));
                        }
                        owned_blocks += 1;
                    }
                    PageState::Untouched => {}
                }
            }
            if dirty != pm.pt.dirty_resident() {
                return Err(format!(
                    "{pid} dirty counter {} != actual {dirty}",
                    pm.pt.dirty_resident()
                ));
            }
        }
        if owned_blocks != self.swap.used_blocks() {
            return Err(format!(
                "swap leak: pages reference {owned_blocks} blocks but allocator has {} in use",
                self.swap.used_blocks()
            ));
        }
        // Reverse direction: every owner-map entry must point at a page that
        // actually references the block, so stale entries cannot linger and
        // feed read-ahead garbage. (The forward pass counted every
        // referencing page, so equal sizes + forward coverage = bijection.)
        if self.swap_owner.len() as u64 != owned_blocks {
            return Err(format!(
                "owner map has {} entries but pages reference {owned_blocks} blocks",
                self.swap_owner.len()
            ));
        }
        for (block, (pid, p)) in self.swap_owner.iter() {
            let references = self.procs.get(&pid).is_some_and(|pm| {
                p.idx() < pm.pt.len()
                    && match pm.pt.state(p) {
                        PageState::Swapped { block: b } => b == block,
                        PageState::Resident(r) => r.swap_copy == Some(block),
                        PageState::Untouched => false,
                    }
            });
            if !references {
                return Err(format!(
                    "stale owner-map entry: block {block} -> {pid}/{p:?} which does not \
                     reference it"
                ));
            }
        }
        Ok(())
    }
}

/// Check `pages` against `pt`'s bounds and allocate one fresh swap block
/// per dirty page, appending the extents to `fresh`.
fn alloc_for_dirty(
    swap: &mut SwapSpace,
    pt: &PageTable,
    pid: ProcId,
    pages: &[PageNum],
    fresh: &mut Vec<Extent>,
) -> Result<(), MemError> {
    let mut dirty = 0u64;
    for &p in pages {
        if p.idx() >= pt.len() {
            return Err(MemError::BadPage(pid, p));
        }
        dirty += u64::from(pt.is_dirty(p));
    }
    swap.alloc(dirty, fresh)
}

/// Return the blocks of `fresh` past the first `used` to the allocator
/// (stale or repeated candidates leave some unused).
fn free_unused(swap: &mut SwapSpace, fresh: &[Extent], mut used: u64) {
    for e in fresh {
        let taken = used.min(e.len);
        used -= taken;
        if taken < e.len {
            swap.free_extent(Extent::new(e.start + taken, e.len - taken));
        }
    }
}

/// Append ascending `block` to `writes`, extending the last extent if it
/// ends at `block` and was pushed at or after index `first`.
fn push_block(writes: &mut Vec<Extent>, first: usize, block: u64) {
    match writes[first..].last_mut() {
        Some(e) if e.end() == block => e.len += 1,
        _ => writes.push(Extent::new(block, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime(1_000);

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

    #[test]
    fn demand_zero_lifecycle() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 10);
        assert_eq!(
            k.touch(ProcId(1), PageNum(0), false, T).unwrap(),
            TouchOutcome::NeedsZeroFill
        );
        assert_eq!(
            k.map_in(ProcId(1), PageNum(0), T).unwrap(),
            MapInOutcome::Zeroed
        );
        assert_eq!(k.free_frames(), 63);
        assert_eq!(
            k.touch(ProcId(1), PageNum(0), false, T).unwrap(),
            TouchOutcome::Hit
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn clean_never_written_page_drops_to_untouched() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(2), T).unwrap();
        let out = k.evict(ProcId(1), PageNum(2)).unwrap();
        assert_eq!(out, EvictOutcome::Dropped);
        assert_eq!(
            k.proc(ProcId(1)).unwrap().pt.state(PageNum(2)),
            PageState::Untouched
        );
        assert_eq!(k.free_frames(), 64);
        assert_eq!(k.swap().used_blocks(), 0);
        k.check_invariants().unwrap();
    }

    #[test]
    fn dirty_page_roundtrips_through_swap() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k.touch(ProcId(1), PageNum(0), true, T).unwrap();
        let EvictOutcome::Write { block } = k.evict(ProcId(1), PageNum(0)).unwrap() else {
            panic!("dirty page must be written");
        };
        assert_eq!(k.swap().used_blocks(), 1);
        // Fault it back.
        assert_eq!(
            k.touch(ProcId(1), PageNum(0), false, T).unwrap(),
            TouchOutcome::NeedsSwapIn { block }
        );
        assert_eq!(
            k.map_in(ProcId(1), PageNum(0), T).unwrap(),
            MapInOutcome::Read { block }
        );
        // Now resident, clean, with a valid copy: a second eviction is free.
        assert_eq!(
            k.evict(ProcId(1), PageNum(0)).unwrap(),
            EvictOutcome::Dropped
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn redirty_frees_stale_copy_and_rewrites() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k.touch(ProcId(1), PageNum(0), true, T).unwrap();
        let EvictOutcome::Write { .. } = k.evict(ProcId(1), PageNum(0)).unwrap() else {
            panic!()
        };
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        assert_eq!(k.swap().used_blocks(), 1, "swap copy retained while clean");
        k.touch(ProcId(1), PageNum(0), true, T).unwrap(); // re-dirty
        assert_eq!(
            k.swap().used_blocks(),
            0,
            "write frees the stale swap copy (swap-cache semantics)"
        );
        let EvictOutcome::Write { .. } = k.evict(ProcId(1), PageNum(0)).unwrap() else {
            panic!("re-dirtied page must be written")
        };
        assert_eq!(k.swap().used_blocks(), 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn write_touch_invalidates_readahead_chain() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        // Build two swapped pages at contiguous blocks.
        for p in 0..2 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let (mut log, mut ext) = (Vec::new(), Vec::new());
        k.evict_batch(ProcId(1), &[PageNum(0), PageNum(1)], &mut log, &mut ext)
            .unwrap();
        assert_eq!(ext.len(), 1, "batch eviction is contiguous");
        let b0 = ext[0].start;
        // Faulting page 0 (block b0) reads page 1 ahead from b0+1.
        let mut ahead = k.clone();
        assert_eq!(
            ahead.map_in(ProcId(1), PageNum(0), T).unwrap(),
            MapInOutcome::Read { block: b0 }
        );
        let mut chained = Vec::new();
        let n = ahead
            .map_in_chain(ProcId(1), b0, 16, T, |p| chained.push(p))
            .unwrap();
        assert_eq!((n, chained), (1, vec![PageNum(1)]));
        assert!(ahead.proc(ProcId(1)).unwrap().pt.is_resident(PageNum(1)));
        ahead.check_invariants().unwrap();
        // Fault page 1 back in and dirty it: its copy is stale, chain is cut.
        k.map_in(ProcId(1), PageNum(1), T).unwrap();
        k.touch(ProcId(1), PageNum(1), true, T).unwrap();
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        assert_eq!(k.map_in_chain(ProcId(1), b0, 16, T, |_| {}).unwrap(), 0);
        k.check_invariants().unwrap();
    }

    #[test]
    fn evict_batch_allocates_contiguous_swap() {
        let mut k = kernel(256);
        k.register_proc(ProcId(1), 100);
        for p in 0..100 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let pages: Vec<PageNum> = (0..100).map(PageNum).collect();
        let (mut log, mut ext) = (Vec::new(), Vec::new());
        k.evict_batch(ProcId(1), &pages, &mut log, &mut ext)
            .unwrap();
        assert_eq!(ext.len(), 1, "fresh swap, one extent");
        assert_eq!(ext[0].len, 100);
        assert_eq!(log.len(), 100);
        assert_eq!(k.free_frames(), 256);
        k.check_invariants().unwrap();
    }

    #[test]
    fn evict_batch_skips_stale_candidates() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        let (mut log, mut ext) = (Vec::new(), Vec::new());
        // Page 1 was never resident; batch must skip it gracefully.
        k.evict_batch(ProcId(1), &[PageNum(0), PageNum(1)], &mut log, &mut ext)
            .unwrap();
        assert!(ext.is_empty(), "clean page: no writes");
        assert_eq!(log, vec![PageNum(0)]);
        assert_eq!(k.swap().used_blocks(), 0, "unused fresh blocks returned");
        k.check_invariants().unwrap();
    }

    #[test]
    fn out_of_frames_is_reported() {
        let mut k = kernel(2);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k.map_in(ProcId(1), PageNum(1), T).unwrap();
        assert_eq!(
            k.map_in(ProcId(1), PageNum(2), T),
            Err(MemError::OutOfFrames)
        );
    }

    #[test]
    fn watermark_logic() {
        let mut k = kernel(64); // min 4, high 8
        k.register_proc(ProcId(1), 64);
        for p in 0..61 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        assert_eq!(k.free_frames(), 3);
        assert!(k.below_min());
        assert_eq!(k.reclaim_target(), 5);
        // Reclaim to high.
        let pages: Vec<PageNum> = (0..5).map(PageNum).collect();
        k.evict_batch(ProcId(1), &pages, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        assert!(!k.below_min());
        assert_eq!(k.reclaim_target(), 0);
    }

    #[test]
    fn wss_tracking_across_quanta() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 16);
        k.quantum_started(ProcId(1)).unwrap();
        for p in 0..10 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        // Touching the same pages again does not inflate WSS.
        for p in 0..10 {
            k.touch(ProcId(1), PageNum(p), false, T).unwrap();
        }
        assert_eq!(k.proc(ProcId(1)).unwrap().wss_current(), 10);
        k.quantum_started(ProcId(1)).unwrap();
        assert_eq!(k.wss_estimate(ProcId(1)).unwrap(), 10);
        // New quantum touches fewer pages.
        for p in 0..3 {
            k.touch(ProcId(1), PageNum(p), false, T).unwrap();
        }
        k.quantum_started(ProcId(1)).unwrap();
        assert_eq!(k.wss_estimate(ProcId(1)).unwrap(), 3);
    }

    #[test]
    fn wss_estimate_without_history_uses_footprint() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 16);
        for p in 0..5 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        assert_eq!(k.wss_estimate(ProcId(1)).unwrap(), 5);
    }

    #[test]
    fn largest_rss_selection() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 16);
        k.register_proc(ProcId(2), 16);
        for p in 0..3 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        for p in 0..7 {
            k.map_in(ProcId(2), PageNum(p), T).unwrap();
        }
        assert_eq!(k.largest_rss_proc(None), Some(ProcId(2)));
        assert_eq!(k.largest_rss_proc(Some(ProcId(2))), Some(ProcId(1)));
        assert_eq!(k.largest_rss_proc(Some(ProcId(2))), Some(ProcId(1)));
    }

    #[test]
    fn unregister_releases_everything() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 8);
        for p in 0..8 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let pages: Vec<PageNum> = (0..4).map(PageNum).collect();
        k.evict_batch(ProcId(1), &pages, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        assert!(k.swap().used_blocks() > 0);
        k.unregister_proc(ProcId(1)).unwrap();
        assert_eq!(k.free_frames(), 64);
        assert_eq!(k.swap().used_blocks(), 0);
        assert!(k.check_invariants().is_ok());
    }

    #[test]
    fn clean_batch_keeps_pages_resident() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 8);
        for p in 0..8 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let pages: Vec<PageNum> = (0..8).map(PageNum).collect();
        let ext = k.clean_batch(ProcId(1), &pages).unwrap();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].len, 8);
        let pm = k.proc(ProcId(1)).unwrap();
        assert_eq!(pm.rss(), 8, "pages stay resident");
        assert_eq!(pm.pt.dirty_resident(), 0, "pages are now clean");
        // Evicting them later costs nothing.
        let mut ext2 = Vec::new();
        k.evict_batch(ProcId(1), &pages, &mut Vec::new(), &mut ext2)
            .unwrap();
        assert!(ext2.is_empty());
        k.check_invariants().unwrap();
    }

    /// The block-indexed owner table answers lookups and iterates in the
    /// same (ascending block) order as a `BTreeMap` under random inserts
    /// and removes.
    #[test]
    fn owner_table_matches_btreemap() {
        agp_sim::prop::check(
            128,
            |rng| {
                agp_sim::prop::vec(rng, 1..200, |r| {
                    (
                        r.chance(0.6),
                        r.below(300),
                        r.below(4) as u32,
                        r.below(1 << 20) as u32,
                    )
                })
            },
            |ops| {
                let mut table = OwnerTable::default();
                let mut map: BTreeMap<u64, (ProcId, PageNum)> = BTreeMap::new();
                for &(insert, block, pid, page) in ops {
                    if insert {
                        table.insert(block, ProcId(pid), PageNum(page));
                        map.insert(block, (ProcId(pid), PageNum(page)));
                    } else {
                        table.remove(block);
                        map.remove(&block);
                    }
                    assert_eq!(table.len(), map.len());
                    assert_eq!(table.get(block), map.get(&block).copied());
                }
                let got: Vec<_> = table.iter().collect();
                let want: Vec<_> = map.into_iter().collect();
                assert_eq!(got, want);
            },
        );
    }

    #[test]
    fn touch_run_full_hit_and_bounds() {
        let pid = ProcId(1);
        let mut k = kernel(64);
        k.register_proc(pid, 8);
        for p in 0..8 {
            k.map_in(pid, PageNum(p), T).unwrap();
        }
        let (hits, fault) = k.touch_run(pid, PageNum(2), 6, false, T).unwrap();
        assert_eq!((hits, fault), (6, None));
        assert!(
            k.touch_run(pid, PageNum(4), 5, false, T).is_err(),
            "overruns space"
        );
        assert_eq!(
            k.touch_run(pid, PageNum(0), 0, false, T).unwrap(),
            (0, None)
        );
    }

    #[test]
    fn touch_run_write_frees_stale_copies() {
        let pid = ProcId(1);
        let mut k = kernel(64);
        k.register_proc(pid, 8);
        // Create clean-with-copy pages via evict + fault-back.
        for p in 0..4 {
            k.map_in(pid, PageNum(p), T).unwrap();
            k.touch(pid, PageNum(p), true, T).unwrap();
        }
        let pages: Vec<PageNum> = (0..4).map(PageNum).collect();
        k.evict_batch(pid, &pages, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        for p in 0..4 {
            k.map_in(pid, PageNum(p), T).unwrap();
        }
        assert_eq!(k.swap().used_blocks(), 4);
        let (hits, _) = k.touch_run(pid, PageNum(0), 4, true, T).unwrap();
        assert_eq!(hits, 4);
        assert_eq!(k.swap().used_blocks(), 0, "all copies freed on write");
        k.check_invariants().unwrap();
    }

    #[test]
    fn bad_page_errors() {
        let mut k = kernel(8);
        k.register_proc(ProcId(1), 2);
        assert!(matches!(
            k.touch(ProcId(1), PageNum(5), false, T),
            Err(MemError::BadPage(_, _))
        ));
        assert!(matches!(
            k.touch(ProcId(9), PageNum(0), false, T),
            Err(MemError::NoSuchProc(_))
        ));
    }
}

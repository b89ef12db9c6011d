//! Background writing of dirty pages (paper §3.4).
//!
//! While a job is running — in the paper's tuning, during the last 10 % of
//! its quantum — a low-priority daemon writes the job's dirty pages to
//! swap. The pages stay resident but become clean, so the job switch that
//! follows has far fewer pages to write synchronously.
//!
//! The writer scans with a **cyclic cursor** over the address space (the
//! shape of the kernel's own bdflush scan): each tick sweeps a bounded
//! window forward from where the last tick stopped, collecting dirty
//! pages. For the sweep-structured NPB codes this tends to clean pages
//! *behind* the application's own write sweep — pages that will not be
//! re-dirtied until the sweep wraps around — which is how the
//! implementation limits the "writing of same pages repeatedly" the paper
//! warns about. The window length (10 % of the quantum) is the paper's
//! empirical compromise and is exercised by the `bgwrite_ablation` bench.
//!
//! The writer is a passive state machine: the cluster layer calls
//! [`BgWriter::tick`] whenever the paging disk is idle (that is the "lower
//! priority" part — background writes never delay demand paging I/O in the
//! queue ahead of them) and schedules the next tick itself.

use agp_disk::Extent;
use agp_mem::{Kernel, MemError, ProcId};

/// Default pages written per tick. 256 pages = 1 MiB per burst ≈ 50 ms of
/// device time: large enough to amortize the seek, short enough that a
/// demand fault arriving mid-burst is barely delayed.
pub const DEFAULT_BATCH_PAGES: usize = 256;

/// Default page-table entries scanned per tick while hunting for dirty
/// pages (bounds tick cost when dirty pages are sparse).
pub const DEFAULT_SCAN_PAGES: usize = 8192;

/// Cumulative background-writer statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BgStats {
    /// Ticks that found work.
    pub active_ticks: u64,
    /// Ticks that found no dirty pages.
    pub idle_ticks: u64,
    /// Pages transitioned dirty → clean-with-copy.
    pub cleaned_pages: u64,
}

/// The background dirty-page writer.
#[derive(Clone, Debug)]
pub struct BgWriter {
    active: Option<ProcId>,
    batch_pages: usize,
    scan_pages: usize,
    /// Cyclic cursor into the active process's page table.
    hand: usize,
    stats: BgStats,
}

impl Default for BgWriter {
    fn default() -> Self {
        BgWriter::new(DEFAULT_BATCH_PAGES)
    }
}

impl BgWriter {
    /// A writer flushing up to `batch_pages` pages per tick.
    pub fn new(batch_pages: usize) -> Self {
        BgWriter {
            active: None,
            batch_pages: batch_pages.max(1),
            scan_pages: DEFAULT_SCAN_PAGES.max(batch_pages),
            hand: 0,
            stats: BgStats::default(),
        }
    }

    /// `start_bgwrite(inpid)` from the paper's API (§3.5). The scan cursor
    /// persists across activations so successive windows continue around
    /// the address space instead of re-cleaning the same prefix.
    pub fn start(&mut self, pid: ProcId) {
        if self.active != Some(pid) {
            self.hand = 0;
        }
        self.active = Some(pid);
    }

    /// `stop_bgwrite()` — called when the actual job switch begins.
    pub fn stop(&mut self) {
        self.active = None;
    }

    /// The process currently being written back, if any.
    pub fn active(&self) -> Option<ProcId> {
        self.active
    }

    /// Statistics.
    pub fn stats(&self) -> BgStats {
        self.stats
    }

    /// Flush one batch of the active process's dirty pages (cursor
    /// sweep). Returns the write extents to submit (empty when inactive or
    /// when the scan window found nothing dirty).
    pub fn tick(&mut self, kern: &mut Kernel) -> Result<Vec<Extent>, MemError> {
        let Some(pid) = self.active else {
            return Ok(Vec::new());
        };
        let (pages, hand) = kern.dirty_sweep(pid, self.hand, self.scan_pages, self.batch_pages)?;
        self.hand = hand;
        if pages.is_empty() {
            self.stats.idle_ticks += 1;
            return Ok(Vec::new());
        }
        let extents = kern.clean_batch(pid, &pages)?;
        self.stats.active_ticks += 1;
        self.stats.cleaned_pages += pages.len() as u64;
        Ok(extents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_mem::{PageNum, VmParams};
    use agp_sim::SimTime;

    fn kernel_with_dirty(pid: ProcId, n: u32) -> Kernel {
        let mut k = Kernel::new(
            VmParams {
                total_frames: 256,
                wired_frames: 0,
                freepages_min: 4,
                freepages_high: 8,
                readahead: 16,
            },
            4096,
        );
        k.register_proc(pid, n as usize);
        for p in 0..n {
            k.map_in(pid, PageNum(p), SimTime::from_us(p as u64))
                .unwrap();
            k.touch(pid, PageNum(p), true, SimTime::from_us(p as u64))
                .unwrap();
        }
        k
    }

    #[test]
    fn inactive_writer_does_nothing() {
        let pid = ProcId(1);
        let mut k = kernel_with_dirty(pid, 10);
        let mut bg = BgWriter::default();
        assert!(bg.tick(&mut k).unwrap().is_empty());
        assert_eq!(k.proc(pid).unwrap().pt.dirty_resident(), 10);
    }

    #[test]
    fn tick_cleans_one_batch_from_cursor() {
        let pid = ProcId(1);
        let mut k = kernel_with_dirty(pid, 100);
        let mut bg = BgWriter::new(32);
        bg.start(pid);
        let ext = bg.tick(&mut k).unwrap();
        assert_eq!(ext.iter().map(|e| e.len).sum::<u64>(), 32);
        assert_eq!(k.proc(pid).unwrap().pt.dirty_resident(), 68);
        assert_eq!(k.proc(pid).unwrap().rss(), 100, "pages stay resident");
        assert_eq!(bg.stats().cleaned_pages, 32);
        // The cursor advanced: the next tick cleans the *next* 32 pages,
        // so pages 0..32 are clean and 32..64 get cleaned now.
        bg.tick(&mut k).unwrap();
        assert_eq!(k.proc(pid).unwrap().pt.dirty_resident(), 36);
    }

    #[test]
    fn writer_drains_to_idle() {
        let pid = ProcId(1);
        let mut k = kernel_with_dirty(pid, 50);
        let mut bg = BgWriter::new(64);
        bg.start(pid);
        assert!(!bg.tick(&mut k).unwrap().is_empty());
        assert!(bg.tick(&mut k).unwrap().is_empty(), "nothing left to clean");
        assert_eq!(bg.stats().idle_ticks, 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn stop_halts_writing() {
        let pid = ProcId(1);
        let mut k = kernel_with_dirty(pid, 50);
        let mut bg = BgWriter::new(16);
        bg.start(pid);
        bg.tick(&mut k).unwrap();
        bg.stop();
        assert!(bg.tick(&mut k).unwrap().is_empty());
        assert_eq!(k.proc(pid).unwrap().pt.dirty_resident(), 34);
    }

    #[test]
    fn cursor_survives_restart_for_same_proc() {
        let pid = ProcId(1);
        let mut k = kernel_with_dirty(pid, 100);
        let mut bg = BgWriter::new(30);
        bg.start(pid);
        bg.tick(&mut k).unwrap(); // cleans 0..30
        bg.stop();
        bg.start(pid); // same process: cursor keeps going
        bg.tick(&mut k).unwrap(); // cleans 30..60
        assert_eq!(k.proc(pid).unwrap().pt.dirty_resident(), 40);
        bg.start(ProcId(2)); // different process: cursor resets
        bg.stop();
        bg.start(pid);
        bg.tick(&mut k).unwrap(); // back at 0, but 0..60 clean; cleans 60..90
        assert_eq!(k.proc(pid).unwrap().pt.dirty_resident(), 10);
    }

    #[test]
    fn cleaned_pages_evict_for_free_later() {
        // The whole point: after background writing, the switch-time
        // eviction of those pages needs no write I/O.
        let pid = ProcId(1);
        let mut k = kernel_with_dirty(pid, 64);
        let mut bg = BgWriter::new(64);
        bg.start(pid);
        bg.tick(&mut k).unwrap();
        let pages: Vec<PageNum> = (0..64).map(PageNum).collect();
        let mut writes = Vec::new();
        k.evict_batch(pid, &pages, &mut Vec::new(), &mut writes)
            .unwrap();
        assert!(writes.is_empty(), "background-cleaned pages drop for free");
        k.check_invariants().unwrap();
    }

    #[test]
    fn scan_window_bounds_tick_cost_but_makes_progress() {
        let pid = ProcId(1);
        // 200-page table with only the tail dirty.
        let mut k = Kernel::new(
            VmParams {
                total_frames: 256,
                wired_frames: 0,
                freepages_min: 4,
                freepages_high: 8,
                readahead: 16,
            },
            4096,
        );
        k.register_proc(pid, 200);
        for p in 150..200 {
            k.map_in(pid, PageNum(p), SimTime::ZERO).unwrap();
            k.touch(pid, PageNum(p), true, SimTime::ZERO).unwrap();
        }
        let mut bg = BgWriter::new(64);
        bg.scan_pages = 100; // force multiple ticks just to find the tail
        bg.start(pid);
        let first = bg.tick(&mut k).unwrap();
        assert!(first.is_empty(), "first window (0..100) has nothing dirty");
        let second = bg.tick(&mut k).unwrap();
        assert!(!second.is_empty(), "second window reaches the dirty tail");
    }
}

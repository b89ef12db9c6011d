//! Swap-space extent allocator.
//!
//! First-fit over a free-extent map ordered by start block. Batch
//! allocations (whole-working-set page-outs) carve large contiguous runs,
//! which is what later makes block page-in cheap — the same dependence on
//! swap layout that real block-paging systems exploit (paper §1, VM/HPO
//! reference [6]).

use crate::types::MemError;
use agp_disk::Extent;
use std::collections::BTreeMap;

/// Allocator over `[0, total)` swap blocks.
#[derive(Clone, Debug)]
pub struct SwapSpace {
    /// Free extents keyed by start block; invariants: disjoint, coalesced
    /// (no two adjacent extents), lengths ≥ 1.
    free: BTreeMap<u64, u64>,
    free_blocks: u64,
    total: u64,
}

impl SwapSpace {
    /// A fully free swap device of `total` blocks.
    pub fn new(total: u64) -> Self {
        let mut free = BTreeMap::new();
        if total > 0 {
            free.insert(0, total);
        }
        SwapSpace {
            free,
            free_blocks: total,
            total,
        }
    }

    /// Device size in blocks.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Blocks currently unallocated.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Blocks currently allocated.
    pub fn used_blocks(&self) -> u64 {
        self.total - self.free_blocks
    }

    /// Allocate `n` blocks, preferring contiguity: the first free extent
    /// that fits the whole request is used; otherwise the request is
    /// satisfied by concatenating the largest-first free extents.
    ///
    /// Appends the allocated extents (sorted by start) to `out`. Fails
    /// with [`MemError::SwapFull`] if fewer than `n` blocks are free, in
    /// which case nothing is allocated.
    pub fn alloc(&mut self, n: u64, out: &mut Vec<Extent>) -> Result<(), MemError> {
        if n == 0 {
            return Ok(());
        }
        if n > self.free_blocks {
            return Err(MemError::SwapFull {
                wanted: n,
                free: self.free_blocks,
            });
        }
        // First-fit for a single extent that covers the request.
        if let Some((&start, &len)) = self.free.iter().find(|&(_, &len)| len >= n) {
            self.take(start, len, n);
            out.push(Extent::new(start, n));
            return Ok(());
        }
        // Fragmented path: grab largest extents first to minimize the
        // number of pieces.
        let mut by_len: Vec<(u64, u64)> = self.free.iter().map(|(&s, &l)| (l, s)).collect();
        by_len.sort_unstable_by(|a, b| b.cmp(a));
        let first = out.len();
        let mut remaining = n;
        for (len, start) in by_len {
            if remaining == 0 {
                break;
            }
            let take = len.min(remaining);
            self.take(start, len, take);
            out.push(Extent::new(start, take));
            remaining -= take;
        }
        debug_assert_eq!(remaining, 0);
        out[first..].sort_unstable_by_key(|e| e.start);
        Ok(())
    }

    /// Carve `take` blocks from the front of free extent `(start, len)`.
    fn take(&mut self, start: u64, len: u64, take: u64) {
        debug_assert!(take <= len);
        self.free.remove(&start);
        if take < len {
            self.free.insert(start + take, len - take);
        }
        self.free_blocks -= take;
    }

    /// Return one block to the free pool, coalescing with neighbors.
    ///
    /// Panics (debug) on double-free — that is a simulation bug.
    pub fn free_block(&mut self, block: u64) {
        self.free_extent(Extent::new(block, 1));
    }

    /// Return an extent to the free pool, coalescing with neighbors.
    pub fn free_extent(&mut self, e: Extent) {
        if e.len == 0 {
            return;
        }
        debug_assert!(e.end() <= self.total, "free past end of swap");
        debug_assert!(!self.overlaps_free(&e), "double free of swap extent {e:?}");
        let mut start = e.start;
        let mut len = e.len;
        // Coalesce with predecessor.
        if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
            if ps + pl == start {
                self.free.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        // Coalesce with successor.
        if let Some((&ns, &nl)) = self.free.range(start + len..).next() {
            if start + len == ns {
                self.free.remove(&ns);
                len += nl;
            }
        }
        self.free.insert(start, len);
        self.free_blocks += e.len;
    }

    /// Whether any part of `e` is already free (used by the double-free
    /// debug assertion).
    fn overlaps_free(&self, e: &Extent) -> bool {
        if let Some((&ps, &pl)) = self.free.range(..=e.start).next_back() {
            if ps + pl > e.start {
                return true;
            }
        }
        self.free.range(e.start..e.end()).next().is_some()
    }

    /// Number of free extents (fragmentation indicator, used in tests and
    /// metrics).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(s: &mut SwapSpace, n: u64) -> Result<Vec<Extent>, MemError> {
        let mut out = Vec::new();
        s.alloc(n, &mut out).map(|()| out)
    }

    #[test]
    fn fresh_swap_allocates_contiguously() {
        let mut s = SwapSpace::new(1000);
        let a = alloc(&mut s, 100).unwrap();
        assert_eq!(a, vec![Extent::new(0, 100)]);
        let b = alloc(&mut s, 50).unwrap();
        assert_eq!(b, vec![Extent::new(100, 50)]);
        assert_eq!(s.used_blocks(), 150);
    }

    #[test]
    fn zero_alloc_is_empty() {
        let mut s = SwapSpace::new(10);
        assert!(alloc(&mut s, 0).unwrap().is_empty());
        assert_eq!(s.free_blocks(), 10);
    }

    #[test]
    fn alloc_failure_leaves_state_untouched() {
        let mut s = SwapSpace::new(10);
        let e = alloc(&mut s, 11).unwrap_err();
        assert_eq!(
            e,
            MemError::SwapFull {
                wanted: 11,
                free: 10
            }
        );
        assert_eq!(s.free_blocks(), 10);
        assert_eq!(s.fragments(), 1);
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut s = SwapSpace::new(100);
        let a = alloc(&mut s, 100).unwrap();
        assert_eq!(a.len(), 1);
        // Free three pieces out of order; they must merge back into one.
        s.free_extent(Extent::new(0, 30));
        s.free_extent(Extent::new(60, 40));
        s.free_extent(Extent::new(30, 30));
        assert_eq!(s.fragments(), 1);
        assert_eq!(s.free_blocks(), 100);
        // And the whole device is allocatable as one extent again.
        assert_eq!(alloc(&mut s, 100).unwrap(), vec![Extent::new(0, 100)]);
    }

    #[test]
    fn fragmented_alloc_spans_extents() {
        let mut s = SwapSpace::new(100);
        alloc(&mut s, 100).unwrap();
        // Free blocks 10..20 and 50..90 -> fragments of 10 and 40.
        s.free_extent(Extent::new(10, 10));
        s.free_extent(Extent::new(50, 40));
        let got = alloc(&mut s, 45).unwrap();
        // Must take the 40-run plus 5 from the 10-run, sorted by start.
        assert_eq!(got, vec![Extent::new(10, 5), Extent::new(50, 40)]);
        assert_eq!(s.free_blocks(), 5);
    }

    #[test]
    fn first_fit_prefers_single_extent() {
        let mut s = SwapSpace::new(100);
        alloc(&mut s, 100).unwrap();
        s.free_extent(Extent::new(0, 10)); // small first
        s.free_extent(Extent::new(40, 60)); // big later
        let got = alloc(&mut s, 20).unwrap();
        assert_eq!(
            got,
            vec![Extent::new(40, 20)],
            "skips too-small leading extent"
        );
    }

    #[test]
    fn free_single_blocks_then_reuse() {
        let mut s = SwapSpace::new(16);
        alloc(&mut s, 16).unwrap();
        for b in (0..16).step_by(2) {
            s.free_block(b);
        }
        assert_eq!(s.fragments(), 8);
        assert_eq!(s.free_blocks(), 8);
        let got = alloc(&mut s, 8).unwrap();
        assert_eq!(got.len(), 8, "fully fragmented allocation");
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut s = SwapSpace::new(10);
        alloc(&mut s, 10).unwrap();
        s.free_block(3);
        s.free_block(3);
    }

    #[test]
    fn empty_device() {
        let mut s = SwapSpace::new(0);
        assert_eq!(s.total(), 0);
        assert!(alloc(&mut s, 1).is_err());
    }
}

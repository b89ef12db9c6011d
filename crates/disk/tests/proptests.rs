//! Property tests for the disk model: extent coalescing correctness and
//! service-time monotonicity (the physical premises of block paging).

use agp_disk::{extents_from_blocks, Disk, DiskParams, DiskRequest, Extent};
use agp_sim::{prop, SimTime};

/// Coalescing preserves the block set exactly: disjoint, sorted,
/// total length = number of distinct blocks, and every input block is
/// covered.
#[test]
fn extents_cover_exactly() {
    prop::check(
        256,
        |rng| prop::vec(rng, 0..300, |r| r.below(10_000)),
        |blocks| {
            let mut input = blocks.clone();
            let extents = extents_from_blocks(&mut input);
            // Sorted and disjoint (with a gap — adjacent extents must merge).
            for w in extents.windows(2) {
                assert!(
                    w[0].end() < w[1].start,
                    "adjacent extents should have merged"
                );
            }
            let mut distinct = blocks.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let total: u64 = extents.iter().map(|e| e.len).sum();
            assert_eq!(total as usize, distinct.len());
            for b in distinct {
                assert!(extents.iter().any(|e| e.contains(b)), "block {b} lost");
            }
        },
    );
}

/// Service time grows monotonically with request size (same layout).
#[test]
fn service_monotone_in_pages() {
    prop::check(
        256,
        |rng| (rng.below(100_000), rng.range(1, 2_000)),
        |&(start, len)| {
            let mut d1 = Disk::new(DiskParams::default());
            let mut d2 = Disk::new(DiskParams::default());
            let t1 = d1.submit(
                SimTime::ZERO,
                &DiskRequest::read(&[Extent::new(start, len)]),
            );
            let t2 = d2.submit(
                SimTime::ZERO,
                &DiskRequest::read(&[Extent::new(start, len + 1)]),
            );
            assert!(t2 >= t1);
        },
    );
}

/// One contiguous extent is never slower than the same pages split
/// into arbitrary scattered extents — the block-paging premise.
#[test]
fn contiguous_is_fastest() {
    prop::check(
        256,
        |rng| (rng.below(100_000), rng.range(2, 256), rng.range(1, 5_000)),
        |&(start, len, scatter_gap)| {
            let mut d1 = Disk::new(DiskParams::default());
            let whole = [Extent::new(start, len)];
            let contiguous = DiskRequest::read(&whole);
            let t1 = d1.submit(SimTime::ZERO, &contiguous);

            let mut d2 = Disk::new(DiskParams::default());
            let extents: Vec<Extent> = (0..len)
                .map(|i| Extent::new(start + i * (scatter_gap + 1), 1))
                .collect();
            let scattered = DiskRequest::read(&extents);
            let t2 = d2.submit(SimTime::ZERO, &scattered);
            assert!(t2 >= t1, "scattered {t2:?} vs contiguous {t1:?}");
        },
    );
}

/// FIFO completion times are non-decreasing across submissions, and
/// every request completes no earlier than its submission.
#[test]
fn fifo_completions_monotone() {
    prop::check(
        256,
        |rng| prop::vec(rng, 1..50, |r| (r.below(50_000), r.range(1, 64))),
        |reqs| {
            let mut d = Disk::new(DiskParams::default());
            let mut last = SimTime::ZERO;
            for (i, &(start, len)) in reqs.iter().enumerate() {
                let now = SimTime::from_us(i as u64 * 100);
                let c = d.submit(now, &DiskRequest::write(&[Extent::new(start, len)]));
                assert!(c >= now);
                assert!(c >= last);
                last = c;
            }
            // Stats must account for every page.
            let total: u64 = reqs.iter().map(|(_, l)| l).sum();
            assert_eq!(d.stats().pages_written, total);
        },
    );
}

/// The seek model is monotone in distance and bounded by min/max.
#[test]
fn seek_monotone_and_bounded() {
    prop::check(
        256,
        |rng| (rng.range(1, 1_000_000), rng.range(1, 1_000_000)),
        |&(d1, d2)| {
            let p = DiskParams::default();
            let (lo, hi) = (d1.min(d2), d1.max(d2));
            assert!(p.seek_us(lo) <= p.seek_us(hi));
            assert!(p.seek_us(lo) >= p.min_seek_us);
            assert!(p.seek_us(hi) <= p.max_seek_us);
        },
    );
}

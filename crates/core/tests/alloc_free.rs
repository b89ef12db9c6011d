//! The demand-fault path allocates nothing once its buffers have grown.
//!
//! A counting global allocator tallies allocations per thread (the test
//! harness runs tests on parallel threads, so a process-wide count would
//! pick up its neighbours). Two processes take turns under the original
//! Linux-2.2 policy with more pages than frames, so every quantum faults
//! the other's evicted set back in through clock reclaim, dirty
//! write-back and swap read-ahead. After a warm-up, further quanta must
//! not allocate at all.

use agp_core::{PagingEngine, PolicyConfig};
use agp_mem::{Kernel, PageNum, ProcId, VmParams};
use agp_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a `const`-initialised thread-local `Cell`
// without a destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const PAGES: u32 = 600;

/// One quantum of `pid`: sweep its address space in 64-page runs,
/// writing every other run, faulting non-resident pages through the
/// engine and handing each plan back.
fn quantum(k: &mut Kernel, e: &mut PagingEngine, pid: ProcId, t: &mut u64) {
    e.set_running(Some(pid));
    k.quantum_started(pid).unwrap();
    for run in 0..PAGES / 64 {
        let write = run % 2 == 0;
        let (mut page, end) = (run * 64, (run + 1) * 64);
        while page < end {
            *t += 1;
            let now = SimTime::from_us(*t);
            let (hits, fault) = k
                .touch_run(pid, PageNum(page), (end - page) as usize, write, now)
                .unwrap();
            page += hits as u32;
            if fault.is_some() {
                let plan = e.on_fault(k, pid, PageNum(page), now).unwrap();
                e.recycle_fault_plan(plan);
            }
        }
    }
}

#[test]
fn original_policy_faults_allocate_nothing_after_warm_up() {
    let mut k = Kernel::new(
        VmParams {
            total_frames: 800,
            wired_frames: 0,
            freepages_min: 16,
            freepages_high: 48,
            readahead: 16,
        },
        1 << 16,
    );
    let (a, b) = (ProcId(1), ProcId(2));
    k.register_proc(a, PAGES as usize);
    k.register_proc(b, PAGES as usize);
    let mut e = PagingEngine::new(PolicyConfig::original());
    let mut t = 0;
    for _ in 0..4 {
        quantum(&mut k, &mut e, a, &mut t);
        quantum(&mut k, &mut e, b, &mut t);
    }
    let before = e.stats();
    let swapped_before = k.swap().used_blocks();
    let start = allocs();
    for _ in 0..4 {
        quantum(&mut k, &mut e, a, &mut t);
        quantum(&mut k, &mut e, b, &mut t);
    }
    let allocated = allocs() - start;
    let after = e.stats();
    k.check_invariants().unwrap();
    assert!(
        after.major_faults > before.major_faults + 100,
        "quanta fault the evicted set back in"
    );
    assert!(after.readahead_pages > before.readahead_pages + 100);
    assert!(after.reclaim_calls > before.reclaim_calls + 10);
    assert!(after.reclaimed_pages > before.reclaimed_pages + 500);
    assert!(swapped_before > 0, "dirty victims were written to swap");
    assert_eq!(allocated, 0, "heap allocations on the warm fault path");
}

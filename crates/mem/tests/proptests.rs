//! Property tests for the VM substrate: the kernel's conservation
//! invariants must survive arbitrary interleavings of fault, touch,
//! evict, clean, and process-exit operations, and the swap allocator must
//! never lose or double-allocate a block.

use agp_mem::{Kernel, MemError, PageNum, ProcId, SwapSpace, VmParams};
use agp_sim::{prop, SimRng, SimTime};

/// A random memory-subsystem operation on one process. Page fields are
/// already reduced to the kernel's `PAGES`.
#[derive(Clone, Debug)]
enum Op {
    Touch { page: u32, write: bool },
    MapIn { page: u32 },
    Evict { page: u32 },
    EvictBatch { first: u32, len: u32 },
    CleanBatch { first: u32, len: u32 },
    Quantum,
    Exit,
}

/// An operation and the process it targets. Touches are twice as likely
/// as each other kind, and exits rare (one in seventy), so most sequences
/// keep their processes alive to the end.
fn op(rng: &mut SimRng) -> (u32, Op) {
    let proc = rng.below(NPROCS as u64) as u32;
    let page = rng.below(PAGES as u64) as u32;
    let len = rng.below(16) as u32;
    let op = match rng.below(70) {
        0..=19 => Op::Touch {
            page,
            write: rng.chance(0.4),
        },
        20..=29 => Op::MapIn { page },
        30..=39 => Op::Evict { page },
        40..=49 => Op::EvictBatch { first: page, len },
        50..=59 => Op::CleanBatch { first: page, len },
        60..=68 => Op::Quantum,
        _ => Op::Exit,
    };
    (proc, op)
}

const NPROCS: u32 = 3;
const PAGES: u32 = 64;

fn kernel() -> Kernel {
    let mut k = Kernel::new(
        VmParams {
            total_frames: 128,
            wired_frames: 16,
            freepages_min: 4,
            freepages_high: 8,
            readahead: 16,
        },
        4096,
    );
    for p in 0..NPROCS {
        k.register_proc(ProcId(p), PAGES as usize);
    }
    k
}

/// No operation sequence can violate frame conservation, dirty
/// counters, swap-owner coherence (the reverse map from swap blocks to
/// their owning pages), or leak swap blocks.
#[test]
fn kernel_invariants_hold_under_arbitrary_ops() {
    prop::check(
        64,
        |rng| prop::vec(rng, 1..400, op),
        |ops| {
            let mut k = kernel();
            let mut alive = [true; NPROCS as usize];
            let batch = |first: u32, len: u32| -> Vec<PageNum> {
                (0..len).map(|i| PageNum((first + i) % PAGES)).collect()
            };
            for (t, &(proc, ref op)) in ops.iter().enumerate() {
                let now = SimTime::from_us(t as u64 + 1);
                if !alive[proc as usize] {
                    continue;
                }
                let p = ProcId(proc);
                match *op {
                    Op::Touch { page, write } => {
                        let _ = k.touch(p, PageNum(page), write, now);
                    }
                    Op::MapIn { page } => {
                        // Only legal on non-resident pages with free frames.
                        let g = PageNum(page);
                        if k.free_frames() > 0 && !k.proc(p).unwrap().pt.state(g).is_resident() {
                            k.map_in(p, g, now).unwrap();
                        }
                    }
                    Op::Evict { page } => {
                        let g = PageNum(page);
                        if k.proc(p).unwrap().pt.state(g).is_resident() {
                            k.evict(p, g).unwrap();
                        }
                    }
                    Op::EvictBatch { first, len } => {
                        k.evict_batch(p, &batch(first, len), &mut Vec::new(), &mut Vec::new())
                            .unwrap();
                    }
                    Op::CleanBatch { first, len } => {
                        k.clean_batch(p, &batch(first, len)).unwrap();
                    }
                    Op::Quantum => k.quantum_started(p).unwrap(),
                    Op::Exit => {
                        k.unregister_proc(p).unwrap();
                        alive[proc as usize] = false;
                    }
                }
                k.check_invariants()
                    .unwrap_or_else(|e| panic!("invariant violated after op {t}: {e}"));
            }
        },
    );
}

/// touch_run over any window agrees with per-page touch on a twin
/// kernel (same hits, same fault, same WSS accounting).
#[test]
fn touch_run_equals_touch_loop() {
    prop::check(
        256,
        |rng| {
            let resident: Vec<bool> = (0..PAGES).map(|_| rng.chance(0.5)).collect();
            let dirty_seed = rng.next_u64_raw();
            let first = rng.below(PAGES as u64) as u32;
            let max = rng.below(PAGES as u64) as usize;
            (resident, dirty_seed, first, max, rng.chance(0.5))
        },
        |&(ref resident, dirty_seed, first, max, write)| {
            let max = max.min((PAGES - first) as usize);
            let build = || {
                let mut k = kernel();
                let pid = ProcId(0);
                let mut dirty = SimRng::new(dirty_seed);
                for (i, &r) in resident.iter().enumerate() {
                    if r && k.free_frames() > 0 {
                        let at = SimTime::from_us(i as u64);
                        k.map_in(pid, PageNum(i as u32), at).unwrap();
                        if dirty.chance(0.5) {
                            k.touch(pid, PageNum(i as u32), true, at).unwrap();
                        }
                    }
                }
                k
            };
            let mut k1 = build();
            let mut k2 = build();
            let pid = ProcId(0);
            let now = SimTime::from_us(9_999);
            let (hits, fault) = k1.touch_run(pid, PageNum(first), max, write, now).unwrap();
            let mut hits2 = 0;
            let mut fault2 = None;
            for i in 0..max {
                match k2
                    .touch(pid, PageNum(first + i as u32), write, now)
                    .unwrap()
                {
                    agp_mem::TouchOutcome::Hit => hits2 += 1,
                    other => {
                        fault2 = Some(other);
                        break;
                    }
                }
            }
            assert_eq!(hits, hits2);
            assert_eq!(fault, fault2);
            assert_eq!(
                k1.proc(pid).unwrap().wss_current(),
                k2.proc(pid).unwrap().wss_current()
            );
            k1.check_invariants().unwrap();
            k2.check_invariants().unwrap();
        },
    );
}

/// The swap allocator conserves blocks across arbitrary alloc/free
/// sequences and never hands out overlapping extents.
#[test]
fn swap_allocator_conserves() {
    prop::check(
        256,
        |rng| prop::vec(rng, 1..200, |r| (r.chance(0.5), r.range(1, 64))),
        |ops| {
            let total = 1024;
            let mut s = SwapSpace::new(total);
            let mut held: Vec<agp_disk::Extent> = Vec::new();
            let mut held_blocks = 0u64;
            for &(do_alloc, n) in ops {
                if do_alloc {
                    let mut extents = Vec::new();
                    match s.alloc(n, &mut extents) {
                        Ok(()) => {
                            // No overlap with anything already held.
                            for e in &extents {
                                for h in &held {
                                    assert!(
                                        e.end() <= h.start || h.end() <= e.start,
                                        "overlapping allocation {e:?} vs {h:?}"
                                    );
                                }
                            }
                            held_blocks += n;
                            held.extend(extents);
                        }
                        Err(MemError::SwapFull { free, .. }) => {
                            assert_eq!(free, total - held_blocks);
                            assert!(free < n);
                        }
                        Err(e) => panic!("unexpected {e}"),
                    }
                } else if let Some(e) = held.pop() {
                    s.free_extent(e);
                    held_blocks -= e.len;
                }
                assert_eq!(s.used_blocks(), held_blocks);
                assert_eq!(s.free_blocks(), total - held_blocks);
            }
        },
    );
}

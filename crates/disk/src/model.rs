//! The device itself: service-time model, FIFO queue, statistics.

use crate::extent::{total_blocks, Extent};
use agp_obs::{ObsEvent, ObsLink};
use agp_sim::{SimDur, SimTime};

/// Direction of a paging transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Page-in: swap device → memory.
    Read,
    /// Page-out: memory → swap device.
    Write,
}

/// Mechanical and geometry parameters of a paging disk.
///
/// Defaults model the circa-2001 commodity IDE drives of the paper's
/// testbed era: 5400 rpm (11.1 ms full rotation), 3–20 ms
/// distance-dependent seek, ~13 MB/s sustained media rate (≈300 µs per
/// 4 KiB page).
#[derive(Clone, Debug)]
pub struct DiskParams {
    /// Number of page-sized blocks on the device (swap partition size).
    pub blocks: u64,
    /// Seek time between adjacent tracks / trivial distances, µs.
    pub min_seek_us: u64,
    /// Full-stroke seek time, µs.
    pub max_seek_us: u64,
    /// Full platter rotation, µs (half of this is the average rotational
    /// latency paid whenever the head moves).
    pub rotation_us: u64,
    /// Media transfer time for one 4 KiB page, µs.
    pub page_transfer_us: u64,
    /// Fixed controller/command overhead per request, µs.
    pub command_overhead_us: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            // 2 GiB swap partition: plenty for two ≤500 MB jobs per node.
            blocks: 512 * 1024,
            min_seek_us: 3_000,
            max_seek_us: 20_000,
            rotation_us: 11_111,
            page_transfer_us: 300,
            command_overhead_us: 500,
        }
    }
}

impl DiskParams {
    /// Seek time for a head movement of `distance` blocks.
    ///
    /// Uses the standard concave model `min + (max − min) · sqrt(d / D)`:
    /// short seeks are dominated by arm settle time, long seeks by the
    /// sweep. A zero-distance "seek" (sequential access) is free.
    pub fn seek_us(&self, distance: u64) -> u64 {
        if distance == 0 {
            return 0;
        }
        let frac = (distance as f64 / self.blocks as f64).min(1.0).sqrt();
        self.min_seek_us + ((self.max_seek_us - self.min_seek_us) as f64 * frac) as u64
    }

    /// Average rotational latency (half a rotation), µs.
    pub fn half_rotation_us(&self) -> u64 {
        self.rotation_us / 2
    }
}

/// A single paging request: a set of extents to read or write. It
/// borrows the extent list, so the caller's plan buffer is handed to the
/// device without a copy.
#[derive(Clone, Copy, Debug)]
pub struct DiskRequest<'a> {
    /// Transfer direction.
    pub kind: IoKind,
    /// Extents to transfer, serviced in slice order.
    pub extents: &'a [Extent],
}

impl<'a> DiskRequest<'a> {
    /// A read covering `extents`.
    pub fn read(extents: &'a [Extent]) -> Self {
        DiskRequest {
            kind: IoKind::Read,
            extents,
        }
    }

    /// A write covering `extents`.
    pub fn write(extents: &'a [Extent]) -> Self {
        DiskRequest {
            kind: IoKind::Write,
            extents,
        }
    }

    /// Total pages moved by this request.
    pub fn pages(&self) -> u64 {
        total_blocks(self.extents)
    }

    /// Whether the request moves no data.
    pub fn is_empty(&self) -> bool {
        self.pages() == 0
    }
}

/// Cumulative device statistics, used by the metrics layer.
#[derive(Clone, Debug, Default)]
pub struct DiskStats {
    /// Completed read requests.
    pub read_requests: u64,
    /// Completed write requests.
    pub write_requests: u64,
    /// Pages transferred device → memory.
    pub pages_read: u64,
    /// Pages transferred memory → device.
    pub pages_written: u64,
    /// Number of non-zero head movements (seeks) performed.
    pub seeks: u64,
    /// Total time the device spent servicing requests.
    pub busy: SimDur,
    /// Total time requests spent queued before service began.
    pub queued: SimDur,
    /// Requests that failed with a device error (chaos injection).
    /// Errored requests move no pages and are *not* counted in
    /// `read_requests`/`write_requests` or the page totals.
    pub errors: u64,
    /// Injected latency-spike penalty absorbed by slowed requests
    /// (chaos injection), summed.
    pub slow_penalty: SimDur,
}

/// A paging disk with a FIFO queue.
///
/// Because the queue is FIFO and service times depend only on device state
/// at service start, the completion time of a request is fully determined
/// at submission: `completion = max(now, busy_until) + service`. [`Disk::submit`]
/// therefore returns the completion instant directly and the caller
/// schedules a single completion event — no device-side event machinery.
#[derive(Clone, Debug)]
pub struct Disk {
    params: DiskParams,
    /// Current head position (block) after the last queued request.
    head: u64,
    /// Instant the device drains its queue.
    busy_until: SimTime,
    stats: DiskStats,
    obs: ObsLink,
}

impl Disk {
    /// A new idle disk with its head parked at block 0.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            head: 0,
            busy_until: SimTime::ZERO,
            stats: DiskStats::default(),
            obs: ObsLink::disabled(),
        }
    }

    /// Attach an observation link (per-request `disk_request` events).
    pub fn set_observer(&mut self, obs: ObsLink) {
        self.obs = obs;
    }

    /// Device parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Instant at which all queued work completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the device has no queued work at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Pure service-time computation for `extents` given a starting head
    /// position; returns `(service_time, final_head, seeks, seek_us)`
    /// where `seek_us` is the positioning (seek + rotation) share of the
    /// service time.
    fn service(&self, mut head: u64, extents: &[Extent]) -> (SimDur, u64, u64, u64) {
        let mut us = 0u64;
        let mut seeks = 0u64;
        let mut seek_us = 0u64;
        for e in extents {
            if e.len == 0 {
                continue;
            }
            let dist = head.abs_diff(e.start);
            if dist != 0 {
                seek_us = seek_us
                    .saturating_add(self.params.seek_us(dist))
                    .saturating_add(self.params.half_rotation_us());
                seeks += 1;
            }
            us = us.saturating_add(e.len.saturating_mul(self.params.page_transfer_us));
            head = e.end();
        }
        (
            SimDur::from_us(us.saturating_add(seek_us)),
            head,
            seeks,
            seek_us,
        )
    }

    /// Quote the service time of a request *without* submitting it
    /// (assumes the head is wherever the current queue leaves it).
    pub fn quote(&self, req: &DiskRequest) -> SimDur {
        if req.is_empty() {
            return SimDur::ZERO;
        }
        let (svc, _, _, _) = self.service(self.head, req.extents);
        svc + SimDur::from_us(self.params.command_overhead_us)
    }

    /// Enqueue a request at `now`; returns its completion instant.
    ///
    /// An empty request completes immediately at `max(now, busy_until)` —
    /// i.e. it still waits for the queue to drain, which models "wait for
    /// outstanding paging I/O" synchronization points.
    pub fn submit(&mut self, now: SimTime, req: &DiskRequest) -> SimTime {
        let _perf = agp_perf::scope(agp_perf::Span::DiskSubmit);
        let start = now.max(self.busy_until);
        if req.is_empty() {
            return start;
        }
        let (svc, final_head, seeks, seek_us) = self.service(self.head, req.extents);
        let svc = svc + SimDur::from_us(self.params.command_overhead_us);
        let completion = start + svc;

        self.stats.queued += start - now;
        self.stats.busy += svc;
        self.stats.seeks += seeks;
        let pages = req.pages();
        match req.kind {
            IoKind::Read => {
                self.stats.read_requests += 1;
                self.stats.pages_read += pages;
            }
            IoKind::Write => {
                self.stats.write_requests += 1;
                self.stats.pages_written += pages;
            }
        }
        self.head = final_head;
        self.busy_until = completion;
        self.obs.emit(now, || ObsEvent::DiskRequest {
            write: req.kind == IoKind::Write,
            extents: req.extents.len() as u32,
            pages,
            wait_us: start.since(now).as_us(),
            seek_us,
            service_us: svc.as_us(),
        });
        completion
    }

    /// Enqueue a request that the device will *fail* (chaos injection);
    /// returns the instant the error is reported to the caller.
    ///
    /// A failed request burns only the controller command overhead: the
    /// drive rejects it before moving the head, so no seek happens, no
    /// pages transfer, and the head stays where the queue left it. The
    /// request is counted in [`DiskStats::errors`] — never in the
    /// completed-request or page totals — so throughput numbers remain
    /// "work actually done".
    pub fn submit_failing(&mut self, now: SimTime, req: &DiskRequest) -> SimTime {
        let _perf = agp_perf::scope(agp_perf::Span::DiskSubmit);
        let start = now.max(self.busy_until);
        let svc = SimDur::from_us(self.params.command_overhead_us);
        let completion = start + svc;

        self.stats.queued += start - now;
        self.stats.busy += svc;
        self.stats.errors += 1;
        self.busy_until = completion;
        self.obs.emit(now, || ObsEvent::DiskError {
            write: req.kind == IoKind::Write,
            pages: req.pages(),
            service_us: svc.as_us(),
        });
        completion
    }

    /// Enqueue a request slowed by an injected latency spike of
    /// `penalty_us` (chaos injection); returns its completion instant.
    ///
    /// The request succeeds and is accounted exactly like a normal
    /// [`Disk::submit`] — same seeks, same pages, same `DiskRequest`
    /// event — with the penalty added on top of the service time and
    /// recorded in [`DiskStats::slow_penalty`]. A trailing
    /// `DiskSlowdown` event attributes the extra time to the fault.
    pub fn submit_slowed(&mut self, now: SimTime, req: &DiskRequest, penalty_us: u64) -> SimTime {
        let completion = self.submit(now, req);
        if req.is_empty() || penalty_us == 0 {
            return completion;
        }
        let penalty = SimDur::from_us(penalty_us);
        self.stats.busy += penalty;
        self.stats.slow_penalty += penalty;
        self.busy_until = completion + penalty;
        self.obs.emit(now, || ObsEvent::DiskSlowdown { penalty_us });
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::default())
    }

    #[test]
    fn seek_model_shape() {
        let p = DiskParams::default();
        assert_eq!(p.seek_us(0), 0);
        assert!(p.seek_us(1) >= p.min_seek_us);
        assert!(p.seek_us(p.blocks) <= p.max_seek_us);
        assert!(
            p.seek_us(100) < p.seek_us(100_000),
            "seek grows with distance"
        );
    }

    #[test]
    fn contiguous_cheaper_than_scattered() {
        // 64 contiguous pages vs 64 pages scattered one-per-extent: the
        // scattered read must pay ~64 seeks and be far slower. This is the
        // entire premise of block paging.
        let mut d1 = disk();
        let extents = [Extent::new(1000, 64)];
        let contiguous = DiskRequest::read(&extents);
        let t1 = d1.submit(SimTime::ZERO, &contiguous);

        let mut d2 = disk();
        let extents: Vec<Extent> = (0..64).map(|i| Extent::new(1000 + i * 5000, 1)).collect();
        let scattered = DiskRequest::read(&extents);
        let t2 = d2.submit(SimTime::ZERO, &scattered);
        assert!(
            t2.as_us() > 10 * t1.as_us(),
            "scattered {t2} should dwarf contiguous {t1}"
        );
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let mut d = disk();
        let extents = [Extent::new(0, 16)];
        let r = DiskRequest::read(&extents);
        let c1 = d.submit(SimTime::ZERO, &r);
        let c2 = d.submit(SimTime::ZERO, &DiskRequest::read(&[Extent::new(16, 16)]));
        assert!(c2 > c1, "second request queues behind the first");
        // Second request is sequential after the first: no seek.
        assert_eq!(
            d.stats().seeks,
            0,
            "head at 16 then reading 16..32 is sequential"
        );
    }

    #[test]
    fn sequential_requests_pay_no_seek() {
        let mut d = disk();
        d.submit(SimTime::ZERO, &DiskRequest::write(&[Extent::new(0, 8)]));
        let before = d.stats().seeks;
        d.submit(SimTime::ZERO, &DiskRequest::write(&[Extent::new(8, 8)]));
        assert_eq!(d.stats().seeks, before);
    }

    #[test]
    fn empty_request_completes_at_queue_drain() {
        let mut d = disk();
        let c1 = d.submit(SimTime::ZERO, &DiskRequest::read(&[Extent::new(0, 100)]));
        let c2 = d.submit(SimTime::ZERO, &DiskRequest::read(&[]));
        assert_eq!(c2, c1);
        assert_eq!(d.stats().read_requests, 1, "empty request not counted");
    }

    #[test]
    fn idle_after_drain() {
        let mut d = disk();
        let c = d.submit(SimTime::ZERO, &DiskRequest::read(&[Extent::new(0, 4)]));
        assert!(!d.is_idle(SimTime::ZERO));
        assert!(d.is_idle(c));
    }

    #[test]
    fn stats_track_pages_and_direction() {
        let mut d = disk();
        d.submit(SimTime::ZERO, &DiskRequest::read(&[Extent::new(0, 10)]));
        d.submit(SimTime::ZERO, &DiskRequest::write(&[Extent::new(50, 7)]));
        assert_eq!(d.stats().pages_read, 10);
        assert_eq!(d.stats().pages_written, 7);
        assert_eq!(d.stats().read_requests, 1);
        assert_eq!(d.stats().write_requests, 1);
    }

    #[test]
    fn quote_matches_submit_service_time() {
        let mut d = disk();
        let extents = [Extent::new(123, 32), Extent::new(9000, 8)];
        let r = DiskRequest::read(&extents);
        let q = d.quote(&r);
        let c = d.submit(SimTime::ZERO, &r);
        assert_eq!(c.since(SimTime::ZERO), q);
    }

    #[test]
    fn failed_request_counts_as_error_not_completion() {
        let mut d = disk();
        let extents = [Extent::new(0, 40)];
        let r = DiskRequest::write(&extents);
        let c = d.submit_failing(SimTime::ZERO, &r);
        // Only command overhead is burned; the head never moved.
        assert_eq!(
            c.as_us(),
            DiskParams::default().command_overhead_us,
            "error is reported after command overhead only"
        );
        assert_eq!(d.stats().errors, 1);
        assert_eq!(
            d.stats().write_requests,
            0,
            "errored I/O is not completed I/O"
        );
        assert_eq!(d.stats().pages_written, 0, "errored I/O moved nothing");
        assert_eq!(d.stats().seeks, 0, "rejected before the head moved");
        // A retry of the same request behaves as if the failure never
        // positioned the head.
        let mut fresh = disk();
        let c_retry = d.submit(c, &r);
        let c_fresh = fresh.submit(SimTime::ZERO, &r);
        assert_eq!(c_retry.since(c), c_fresh.since(SimTime::ZERO));
    }

    #[test]
    fn slowed_request_pays_the_penalty_once() {
        let mut slow = disk();
        let mut base = disk();
        let extents = [Extent::new(100, 16)];
        let r = DiskRequest::read(&extents);
        let c_base = base.submit(SimTime::ZERO, &r);
        let c_slow = slow.submit_slowed(SimTime::ZERO, &r, 7_000);
        assert_eq!(c_slow.since(c_base), SimDur::from_us(7_000));
        assert_eq!(slow.stats().slow_penalty, SimDur::from_us(7_000));
        // The transfer itself is accounted normally.
        assert_eq!(slow.stats().read_requests, 1);
        assert_eq!(slow.stats().pages_read, 16);
        assert_eq!(slow.busy_until(), c_slow, "queue drains after the penalty");
        // Zero penalty degrades to a plain submit.
        let mut z = disk();
        let c_z = z.submit_slowed(SimTime::ZERO, &r, 0);
        assert_eq!(c_z, c_base);
        assert_eq!(z.stats().slow_penalty, SimDur::ZERO);
    }

    #[test]
    fn later_submission_starts_later() {
        let mut d = disk();
        let t0 = SimTime::from_secs(5);
        let c = d.submit(t0, &DiskRequest::read(&[Extent::new(0, 1)]));
        assert!(c > t0);
        assert_eq!(d.stats().queued, SimDur::ZERO);
    }
}

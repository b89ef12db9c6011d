//! The master discrete-event simulation.
//!
//! One [`ClusterSim`] executes one configuration to completion. The event
//! loop owns the clock; everything else (kernels, engines, disks,
//! programs) is a state machine it drives:
//!
//! * **Dispatch** — a process consumes its program: touch runs are
//!   processed in bounded chunks against the node kernel (state updated
//!   eagerly, CPU time charged by scheduling the next dispatch); the
//!   first non-resident page raises a fault, whose I/O plan is priced by
//!   the node's FIFO paging disk, blocking the process until completion.
//! * **QuantumExpire** — the gang scheduler rotates its matrix and the
//!   paper's switch protocol runs on every node: STOP the outgoing
//!   ranks, `adaptive_page_out`, `adaptive_page_in`, CONT the incoming
//!   ranks (delayed to the bulk-read completion when adaptive page-in is
//!   active).
//! * **BgStart/BgTick** — in the last `bg_fraction` of a quantum the
//!   background writer flushes dirty pages whenever the paging disk is
//!   idle (paper §3.4's "lower priority").
//! * **BarrierRelease / IoDone** — wake blocked processes; STOP signals
//!   delivered while blocked take effect at the wake boundary, exactly
//!   like signals delivered to a process sleeping in the kernel.
//!
//! Simplification: a STOP delivered to a *running* rank takes effect at
//! its next dispatch boundary (≤ one chunk ≈ tens of milliseconds of
//! simulated time, against 5-minute quanta). Kernel state is updated
//! eagerly at dispatch, so the overlap has no correctness consequence.

use agp_core::PagingEngine;
use agp_disk::{Disk, DiskRequest};
use agp_faults::{DiskOutcome, FaultInjector, RecoveryPolicy, TimedFault};
use agp_gang::{GangScheduler, JobId, NodeSet};
use agp_mem::{Kernel, MemError, PageNum, ProcId, VmParams};
use agp_metrics::ActivityTrace;
use agp_net::Barrier;
use agp_obs::{ObsEvent, ObsLink, SwitchPhaseKind, SRC_CLUSTER};
use agp_sim::{EventQueue, SimDur, SimTime};
use agp_workload::{ProcessProgram, Step};

use crate::config::{ClusterConfig, ScheduleMode};
use crate::error::SimError;
use crate::monitor::{MetricsSnapshot, MonitorHub, MonitorTap};
use crate::proc::{BlockKind, CurStep, PState, SimProc};
use crate::result::{JobResult, NodeReport, RunResult};
use crate::watchdog::{self, Trip, Watchdog};
use agp_obs::flight;

/// One node's hardware + kernel software.
struct Node {
    kernel: Kernel,
    engine: PagingEngine,
    disk: Disk,
    trace: ActivityTrace,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Continue executing process `p` (valid only at generation `gen`).
    Dispatch { p: usize, gen: u64 },
    /// Process `p`'s fault I/O completed.
    IoDone { p: usize, gen: u64 },
    /// A gang quantum ended (valid only at scheduler generation `sgen`).
    QuantumExpire { sgen: u64 },
    /// All ranks of `job` passed their barrier (valid only while the
    /// job's barrier episode is still `epoch` — a crash-requeue abandons
    /// the episode and bumps the epoch).
    BarrierRelease { job: usize, epoch: u64 },
    /// The release for `job` was dropped by an injected network fault;
    /// re-issue attempt `attempt` fires after the barrier timeout.
    BarrierRetry {
        job: usize,
        attempt: u32,
        epoch: u64,
    },
    /// Apply the `idx`-th entry of the precomputed timed-fault list
    /// (node crash/restart, memory-pressure burst).
    Chaos { idx: usize },
    /// Begin background writing for the active slot.
    BgStart { sgen: u64 },
    /// One background-writer burst on `node`.
    BgTick { node: usize, sgen: u64 },
    /// Telemetry gauge sample across all nodes (scheduled only when the
    /// config sets `sample_every` and an observer is attached).
    Sample,
    /// Emit a live [`MetricsSnapshot`] (scheduled only when a monitor tap
    /// is attached). The handler reads sim state and sends it down a
    /// channel; it mutates nothing and is excluded from the `events`
    /// counter, so a monitored run's [`RunResult`] is byte-identical to
    /// an unmonitored one.
    Monitor,
}

/// Profiling span for one event's handler (host-time accounting only).
fn perf_span(ev: &Event) -> agp_perf::Span {
    match ev {
        Event::Dispatch { .. } => agp_perf::Span::SimDispatch,
        Event::IoDone { .. } => agp_perf::Span::SimIoDone,
        Event::QuantumExpire { .. } => agp_perf::Span::SimQuantum,
        Event::BarrierRelease { .. } | Event::BarrierRetry { .. } => agp_perf::Span::SimBarrier,
        Event::Chaos { .. } => agp_perf::Span::SimChaos,
        Event::BgStart { .. } | Event::BgTick { .. } => agp_perf::Span::SimBgWrite,
        Event::Sample | Event::Monitor => agp_perf::Span::SimSample,
    }
}

/// With `check_invariants` on, sweep every node once per this many events
/// (in addition to the per-switch and per-job-completion sweeps). Frequent
/// enough to localize a corruption to a few thousand events, cheap enough
/// that test runs stay fast.
const INVARIANT_SWEEP_EVERY: u64 = 4096;

/// The simulation.
pub struct ClusterSim {
    cfg: ClusterConfig,
    queue: EventQueue<Event>,
    now: SimTime,
    nodes: Vec<Node>,
    procs: Vec<SimProc>,
    /// Proc indices per job.
    job_procs: Vec<Vec<usize>>,
    barriers: Vec<Barrier>,
    sched: GangScheduler,
    completions: Vec<Option<SimTime>>,
    /// Pending quantum-expiry instant (rescheduled when the scheduler
    /// generation moves without an actual switch).
    next_expire: Option<SimTime>,
    /// Next job to start in batch mode.
    batch_next: usize,
    switches: u64,
    events: u64,
    /// Invariant sweeps performed (see [`ClusterSim::verify_invariants`]).
    invariant_checks: u64,
    obs: ObsLink,
    /// Per-node observation links for gauge samples (tagged with the node
    /// index; empty until an observer is attached).
    gauge_obs: Vec<ObsLink>,
    /// Switch-event id counter (counts every `do_switch`, including the
    /// initial placement, unlike `switches`).
    obs_switches: u64,
    /// Fault injector, present only when the config carries a plan. With
    /// `None` no chaos code path runs and the event stream is identical
    /// to the seed simulation.
    injector: Option<FaultInjector>,
    /// Recovery knobs (the plan's, or defaults when no plan is set).
    recovery: RecoveryPolicy,
    /// Precomputed schedule of timed faults, sorted by instant;
    /// `Event::Chaos { idx }` indexes into it.
    timed_faults: Vec<(u64, TimedFault)>,
    /// Liveness per node; a crashed node rejects new work until restart.
    node_up: Vec<bool>,
    /// Barrier episode counter per job; bumped when a crash abandons an
    /// episode so in-flight release/retry events go stale.
    barrier_epoch: Vec<u64>,
    /// Jobs suspended by a node crash, waiting for their nodes to return.
    pending_requeue: Vec<usize>,
    /// Live-monitor tap: where periodic [`MetricsSnapshot`]s go, if
    /// anywhere. Picked up from [`MonitorHub`] at construction or set
    /// via [`ClusterSim::attach_monitor`].
    monitor: Option<MonitorTap>,
    /// Snapshot sequence counter.
    monitor_seq: u64,
    /// Label stamped into every snapshot (empty when unmonitored).
    monitor_label: String,
    /// Whether the *caller* attached an enabled observer. Gates `Sample`
    /// scheduling: the flight recorder self-attaches a sink when armed,
    /// and keying samples off this flag (not `obs.enabled()`) keeps an
    /// armed-but-unobserved run's event stream and `events` counter
    /// byte-identical to an unarmed one.
    caller_obs: bool,
    /// Scenario label stamped into incident dumps (experiment id or plan
    /// path); derived from the config shape when unset.
    scenario: String,
    /// Watchdog rule set, snapshotted from the armed flight recorder at
    /// run start (disarmed and inert otherwise).
    watchdog: Watchdog,
    /// Last instant each job made observable progress (dispatch, I/O
    /// completion, barrier release) — the job-stall rule's input.
    job_last_progress: Vec<SimTime>,
    /// A trip raised inside an event handler (recovery exhaustion);
    /// the main loop converts it into the aborting error between events,
    /// after the handler has left state coherent.
    pending_trip: Option<Trip>,
    /// When the last watchdog sweep ran — the time-based cadence's anchor.
    /// A quiet event queue (a wedged barrier re-issuing hourly) starves
    /// the event-count cadence, so sweeps are also due on sim-time
    /// advance (see [`Watchdog::time_cadence`]).
    last_sweep: SimTime,
}

impl ClusterSim {
    /// Build a simulation from a validated configuration.
    pub fn new(cfg: ClusterConfig) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        let params = vm_params(&cfg);

        let injector = cfg
            .faults
            .as_ref()
            .map(|plan| FaultInjector::new(plan.clone(), cfg.nodes as usize));
        let recovery = injector
            .as_ref()
            .map(|i| i.recovery().clone())
            .unwrap_or_default();
        let timed_faults = injector.as_ref().map(|i| i.timed()).unwrap_or_default();
        if cfg.mode == ScheduleMode::Batch
            && timed_faults
                .iter()
                .any(|&(_, f)| matches!(f, TimedFault::Crash { .. }))
        {
            // Batch has no scheduler to compact around a dead node; the
            // crashed job would wedge the whole run.
            return Err(SimError::FaultPlan(
                "node_crash faults require gang mode".into(),
            ));
        }

        let mut nodes: Vec<Node> = (0..cfg.nodes)
            .map(|_| Node {
                kernel: Kernel::new(params.clone(), cfg.disk.blocks),
                engine: PagingEngine::new(cfg.policy),
                disk: Disk::new(cfg.disk.clone()),
                trace: ActivityTrace::new(cfg.trace_bucket),
            })
            .collect();

        let mut procs = Vec::new();
        let mut job_procs = Vec::new();
        let mut barriers = Vec::new();
        let mut sched = GangScheduler::new(cfg.nodes, cfg.quantum);

        for (j, job) in cfg.jobs.iter().enumerate() {
            let jid = JobId(j as u32);
            let n = job.workload.nprocs;
            sched
                .add_job(jid, NodeSet::first_n(n), job.quantum)
                .map_err(|e| SimError::Schedule {
                    job: job.name.clone(),
                    detail: e,
                })?;
            let mut members = Vec::new();
            for rank in 0..n {
                let pid = ProcId(procs.len() as u32);
                let seed = cfg.seed.wrapping_add((j as u64) * 7919);
                let program = ProcessProgram::new(job.workload, rank, seed);
                let node = rank as usize;
                nodes[node]
                    .kernel
                    .register_proc(pid, program.footprint_pages() as usize);
                members.push(procs.len());
                procs.push(SimProc::new(pid, jid, node, rank, program));
            }
            job_procs.push(members);
            // With a fault plan attached the barrier carries the plan's
            // timeout; without one, the stock barrier (same default) keeps
            // the construction path identical to the seed simulation.
            barriers.push(if injector.is_some() {
                Barrier::with_timeout(n, SimDur::from_us(recovery.barrier_timeout_us))
            } else {
                Barrier::new(n)
            });
        }

        let njobs = cfg.jobs.len();
        let nnodes = cfg.nodes as usize;
        Ok(ClusterSim {
            cfg,
            queue: EventQueue::with_capacity(1024),
            now: SimTime::ZERO,
            nodes,
            procs,
            job_procs,
            barriers,
            sched,
            completions: vec![None; njobs],
            next_expire: None,
            batch_next: 0,
            switches: 0,
            events: 0,
            invariant_checks: 0,
            obs: ObsLink::disabled(),
            gauge_obs: Vec::new(),
            obs_switches: 0,
            injector,
            recovery,
            timed_faults,
            node_up: vec![true; nnodes],
            barrier_epoch: vec![0; njobs],
            pending_requeue: Vec::new(),
            monitor: MonitorHub::current(),
            monitor_seq: 0,
            monitor_label: String::new(),
            caller_obs: false,
            scenario: String::new(),
            watchdog: Watchdog::default(),
            job_last_progress: vec![SimTime::ZERO; njobs],
            pending_trip: None,
            last_sweep: SimTime::ZERO,
        })
    }

    /// Attach an observation link before running: every node's kernel,
    /// engine and disk gets a clone tagged with its node index, every
    /// job's barrier one tagged with its job index, and the cluster layer
    /// itself emits under [`SRC_CLUSTER`]. The link's shared clock is
    /// advanced by the event loop.
    pub fn attach_observer(&mut self, link: &ObsLink) {
        self.caller_obs = link.enabled();
        self.distribute_observer(link);
    }

    /// Distribute `link` (spliced with the flight recorder's sink when
    /// one is armed) to every instrumented component. Shared by
    /// [`ClusterSim::attach_observer`] and the recorder's self-attach
    /// path, which must not count as a caller observer.
    fn distribute_observer(&mut self, link: &ObsLink) {
        let link = if flight::armed() {
            link.extended(flight::sink())
        } else {
            link.clone()
        };
        self.gauge_obs.clear();
        for (ni, node) in self.nodes.iter_mut().enumerate() {
            let tagged = link.with_src(ni as u32);
            node.kernel.set_observer(tagged.clone());
            node.engine.set_observer(tagged.clone());
            node.disk.set_observer(tagged.clone());
            self.gauge_obs.push(tagged);
        }
        for (j, barrier) in self.barriers.iter_mut().enumerate() {
            barrier.set_observer(link.with_src(j as u32));
        }
        self.obs = link.with_src(SRC_CLUSTER);
    }

    /// Label incident dumps with a scenario name (experiment id or plan
    /// path). Unset, dumps carry a label derived from the config shape.
    pub fn set_scenario(&mut self, name: &str) {
        self.scenario = name.to_string();
    }

    /// Attach a live-monitor tap directly (see [`MonitorHub::install`]
    /// for the process-global path): a [`MetricsSnapshot`] goes to `tx`
    /// every `every` of *sim* time, plus one final `done` snapshot.
    /// Monitoring is observation-transparent — the handler only reads
    /// sim state, and monitor events are excluded from the `events`
    /// counter — so the [`RunResult`] is identical to an unmonitored run
    /// (pinned by a test). A hung-up receiver silently drops snapshots.
    pub fn attach_monitor(&mut self, tx: std::sync::mpsc::Sender<MetricsSnapshot>, every: SimDur) {
        self.monitor = Some(MonitorTap {
            tx,
            every: SimDur::from_us(every.as_us().max(1)),
        });
    }

    /// Execute to completion.
    pub fn run(self) -> Result<RunResult, SimError> {
        let res = {
            // Root profiling span: everything below tiles against this
            // frame (host-time accounting only; no effect on sim state).
            let _perf = agp_perf::scope(agp_perf::Span::Run);
            self.run_inner()
        };
        // Fold this thread's samples into the process aggregate — the
        // experiment runners fan configurations out one worker thread
        // each, and those threads are gone by reporting time.
        agp_perf::flush();
        // Any abort freezes the armed flight ring so the incident window
        // survives the unwind. Watchdog trips already froze at trip time;
        // `freeze` is first-wins, so this is a no-op for them.
        if let Err(e) = &res {
            if flight::armed() {
                flight::freeze(
                    watchdog::trigger_for_error(e),
                    agp_sim::SimTime::from_us(watchdog::error_at_us(e)),
                );
            }
        }
        res
    }

    /// Incident-dump identity for this run: scenario label, seed, config
    /// fingerprint, job names, and the pid→job map.
    fn flight_meta(&self) -> flight::RunMeta {
        let scenario = if self.scenario.is_empty() {
            format!(
                "{}j/{}n {} {:?}",
                self.cfg.jobs.len(),
                self.cfg.nodes,
                self.cfg.policy.label(),
                self.cfg.mode
            )
        } else {
            self.scenario.clone()
        };
        flight::RunMeta {
            scenario,
            seed: self.cfg.seed,
            config_fp: watchdog::config_fingerprint(&self.cfg),
            jobs: self.cfg.jobs.iter().map(|j| j.name.clone()).collect(),
            pid_job: self.procs.iter().map(|p| (p.pid.0, p.job.0)).collect(),
        }
    }

    fn run_inner(mut self) -> Result<RunResult, SimError> {
        self.watchdog = Watchdog::from_flight();
        if flight::armed() {
            flight::note_run(self.flight_meta());
            // A run without a caller observer still feeds the recorder:
            // splice the flight sink into an otherwise-disabled fanout.
            if !self.obs.enabled() {
                self.distribute_observer(&ObsLink::disabled());
            }
        }
        match self.cfg.mode {
            ScheduleMode::Gang => {
                let plan = self
                    .sched
                    .start()
                    .ok_or_else(|| SimError::InvalidConfig("no jobs to schedule".into()))?;
                self.do_switch(plan.out, plan.inn, plan.quantum)?;
            }
            ScheduleMode::Batch => self.start_batch_job(0)?,
        }
        // Gate on the *caller's* observer, not `self.obs`: arming the
        // flight recorder enables `self.obs` for its own sink, and
        // scheduling Sample events off that would change the event count
        // (and thus the trace bytes) of an armed run.
        if self.cfg.sample_every.is_some() && self.caller_obs {
            self.queue.push(SimTime::ZERO, Event::Sample);
        }
        if self.monitor.is_some() {
            self.monitor_label = format!(
                "{}j/{}n {} {:?}",
                self.cfg.jobs.len(),
                self.cfg.nodes,
                self.cfg.policy.label(),
                self.cfg.mode
            );
            self.queue.push(SimTime::ZERO, Event::Monitor);
        }
        for idx in 0..self.timed_faults.len() {
            let at = SimTime::ZERO + SimDur::from_us(self.timed_faults[idx].0);
            self.queue.push(at, Event::Chaos { idx });
        }

        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            self.obs.tick(t);
            // Monitor events are bookkeeping-invisible: excluding them
            // keeps `events` (and the invariant-sweep cadence keyed on
            // it) identical whether or not a monitor is attached.
            if !matches!(ev, Event::Monitor) {
                self.events += 1;
            }
            if t.since(SimTime::ZERO) > self.cfg.max_sim_time {
                return Err(SimError::SimTimeExceeded {
                    limit: self.cfg.max_sim_time,
                    at_us: t.since(SimTime::ZERO).as_us(),
                });
            }
            {
                let _ev_perf = agp_perf::scope(perf_span(&ev));
                self.handle(ev)?;
            }
            // Handlers that cannot return errors (I/O submission, barrier
            // retries) park exhaustion trips here; convert between events
            // so the abort sees coherent state.
            if let Some(trip) = self.pending_trip.take() {
                return Err(self.trip_error(trip));
            }
            if self.cfg.check_invariants && self.events.is_multiple_of(INVARIANT_SWEEP_EVERY) {
                self.verify_invariants("periodic sweep")?;
            }
            // Sweeps are due every N events *or* when sim time has
            // advanced past the time-based rules' cadence — a stalled
            // queue delivers events too rarely for the count alone.
            let sweep_due = self.events.is_multiple_of(INVARIANT_SWEEP_EVERY)
                || self
                    .watchdog
                    .time_cadence()
                    .is_some_and(|c| self.now.since(self.last_sweep) >= c);
            if self.watchdog.sweeps() && sweep_due {
                self.last_sweep = self.now;
                if let Some(trip) = self.watchdog.sweep(
                    self.now,
                    &self.job_last_progress,
                    &self.completions,
                    self.queue.len(),
                ) {
                    return Err(self.trip_error(trip));
                }
            }
            if self.completions.iter().all(|c| c.is_some()) {
                break;
            }
        }
        if !self.completions.iter().all(|c| c.is_some()) {
            let unfinished = self.completions.iter().filter(|c| c.is_none()).count() as u32;
            return Err(SimError::Deadlock {
                at_us: self.now.since(SimTime::ZERO).as_us(),
                unfinished,
            });
        }
        if self.cfg.check_invariants {
            self.verify_invariants("final state")?;
        }
        self.emit_snapshot(true);
        Ok(self.into_result())
    }

    /// Freeze the flight ring on a watchdog trip and build the abort
    /// error. The freeze happens here — at trip time — so the ring's last
    /// entry is the [`ObsEvent::WatchdogTrip`] marker the freeze appends.
    fn trip_error(&mut self, trip: Trip) -> SimError {
        flight::freeze(
            flight::IncidentTrigger::Watchdog {
                rule: trip.rule,
                value: trip.value,
                limit: trip.limit,
                detail: String::new(),
            },
            self.now,
        );
        SimError::WatchdogTrip {
            rule: trip.rule,
            value: trip.value,
            limit: trip.limit,
            at_us: self.now.since(SimTime::ZERO).as_us(),
        }
    }

    /// Send one [`MetricsSnapshot`] down the monitor tap, if attached.
    /// Reads sim state only; never mutates it.
    fn emit_snapshot(&mut self, done: bool) {
        let Some(tap) = &self.monitor else { return };
        let faults_major = self
            .nodes
            .iter()
            .map(|n| n.engine.stats().major_faults)
            .sum();
        let pages_in = self.nodes.iter().map(|n| n.disk.stats().pages_read).sum();
        let pages_out = self
            .nodes
            .iter()
            .map(|n| n.disk.stats().pages_written)
            .sum();
        let snap = MetricsSnapshot {
            label: self.monitor_label.clone(),
            seq: self.monitor_seq,
            sim_us: self.now.since(SimTime::ZERO).as_us(),
            events: self.events,
            switches: self.switches,
            faults_major,
            pages_in,
            pages_out,
            jobs_done: self.completions.iter().filter(|c| c.is_some()).count() as u64,
            jobs_total: self.completions.len() as u64,
            done,
        };
        if flight::armed() {
            flight::mirror_snapshot(&snap.to_json_line());
        }
        // A consumer that hung up is not the simulation's problem.
        let _ = tap.tx.send(snap);
        self.monitor_seq += 1;
    }

    /// One conservation/coherence sweep over every node, run when the
    /// configuration enables `check_invariants`:
    ///
    /// * [`Kernel::check_invariants`] — frame conservation
    ///   (`free + Σ rss == usable`), dirty ⟹ no swap copy, swap-owner-map
    ///   bijection with referencing pages, no leaked swap blocks;
    /// * [`PagingEngine::check_invariants`] — every adaptive page-in record
    ///   is a coherent run-length list, and records only exist when `ai`
    ///   is enabled.
    ///
    /// A violation is a simulator bug, not an operator error, so the run
    /// aborts with the diagnostic rather than continuing on corrupt state.
    fn verify_invariants(&mut self, context: &str) -> Result<(), SimError> {
        let at_us = self.now.since(SimTime::ZERO).as_us();
        for (ni, node) in self.nodes.iter().enumerate() {
            node.kernel
                .check_invariants()
                .map_err(|e| SimError::InvariantViolation {
                    context: context.to_string(),
                    node: Some(ni as u32),
                    at_us,
                    detail: e,
                })?;
            node.engine
                .check_invariants()
                .map_err(|e| SimError::InvariantViolation {
                    context: context.to_string(),
                    node: Some(ni as u32),
                    at_us,
                    detail: e,
                })?;
        }
        self.invariant_checks += 1;
        Ok(())
    }

    fn handle(&mut self, ev: Event) -> Result<(), SimError> {
        match ev {
            Event::Dispatch { p, gen } => {
                if self.procs[p].live(gen) && self.procs[p].state == PState::Runnable {
                    self.job_last_progress[self.procs[p].job.0 as usize] = self.now;
                    self.exec(p)?;
                }
            }
            Event::IoDone { p, gen } => {
                if self.procs[p].live(gen) {
                    let now = self.now;
                    self.job_last_progress[self.procs[p].job.0 as usize] = now;
                    let proc = &mut self.procs[p];
                    proc.unblock_io(now);
                    if proc.stop_pending {
                        proc.stop_pending = false;
                        proc.state = PState::Stopped;
                    } else if proc.state == PState::Blocked(BlockKind::Io) {
                        proc.state = PState::Runnable;
                        self.exec(p)?;
                    }
                }
            }
            Event::QuantumExpire { sgen } => {
                if sgen == self.sched.generation() {
                    if let Some(plan) = self.sched.rotate() {
                        self.do_switch(plan.out, plan.inn, plan.quantum)?;
                    }
                }
            }
            Event::BarrierRelease { job, epoch } => {
                if epoch == self.barrier_epoch[job] {
                    self.job_last_progress[job] = self.now;
                    self.release_barrier(job)?;
                }
            }
            Event::BarrierRetry {
                job,
                attempt,
                epoch,
            } => self.barrier_retry(job, attempt, epoch)?,
            Event::Chaos { idx } => self.apply_timed_fault(idx)?,
            Event::BgStart { sgen } => {
                if sgen == self.sched.generation() {
                    for ni in 0..self.nodes.len() {
                        let node = &mut self.nodes[ni];
                        if let Some(pid) = node.engine.running() {
                            if node.kernel.proc(pid).is_ok() {
                                node.engine.start_bgwrite(pid);
                                self.queue.push(self.now, Event::BgTick { node: ni, sgen });
                            }
                        }
                    }
                }
            }
            Event::BgTick { node, sgen } => {
                if sgen == self.sched.generation() {
                    self.bg_tick(node)?;
                }
            }
            Event::Sample => {
                self.sample_gauges();
                if let Some(every) = self.cfg.sample_every {
                    self.queue.push(self.now + every, Event::Sample);
                }
            }
            Event::Monitor => {
                self.emit_snapshot(false);
                if let Some(tap) = &self.monitor {
                    let every = tap.every;
                    self.queue.push(self.now + every, Event::Monitor);
                }
            }
        }
        Ok(())
    }

    /// Emit one telemetry snapshot per node: a [`ObsEvent::NodeGauge`]
    /// with memory/disk/background-writer state, then one
    /// [`ObsEvent::ProcGauge`] per registered process (in pid order, so
    /// the stream is deterministic).
    fn sample_gauges(&mut self) {
        let now = self.now;
        for (ni, node) in self.nodes.iter().enumerate() {
            let Some(obs) = self.gauge_obs.get(ni) else {
                return;
            };
            let dirty_pages: u64 = node
                .kernel
                .procs_rss()
                .filter_map(|(pid, _)| node.kernel.proc(pid).ok())
                .map(|pm| pm.pt.dirty_resident() as u64)
                .sum();
            obs.emit(now, || ObsEvent::NodeGauge {
                free_frames: node.kernel.free_frames() as u64,
                dirty_pages,
                disk_backlog_us: node.disk.busy_until().since(now).as_us(),
                disk_busy_us: node.disk.stats().busy.as_us(),
                bg_cleaned: node.engine.bg_cleaned_pages(),
            });
            for (pid, rss) in node.kernel.procs_rss() {
                let dirty = node
                    .kernel
                    .proc(pid)
                    .map(|pm| pm.pt.dirty_resident() as u64)
                    .unwrap_or(0);
                obs.emit(now, || ObsEvent::ProcGauge {
                    pid: pid.0,
                    resident: rss as u64,
                    dirty,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Process execution
    // ------------------------------------------------------------------

    /// Run process `p` from its current position until it blocks, yields
    /// CPU (schedules its next dispatch), stops, or finishes.
    fn exec(&mut self, p: usize) -> Result<(), SimError> {
        let now = self.now;
        if self.procs[p].stop_pending {
            let proc = &mut self.procs[p];
            proc.stop_pending = false;
            proc.state = PState::Stopped;
            return Ok(());
        }
        loop {
            // Phase 1: continue a partial touch run.
            if let Some(CurStep::Touch {
                first,
                len,
                done,
                write,
                cpu_per_page,
            }) = self.procs[p].cur
            {
                let pid = self.procs[p].pid;
                let ni = self.procs[p].node;
                let remaining = (len - done) as usize;
                let chunk = remaining.min(self.cfg.chunk_pages as usize);
                let (hits, fault) = self.nodes[ni]
                    .kernel
                    .touch_run(pid, PageNum(first + done), chunk, write, now)
                    .map_err(mem_err("touch_run", ni, now))?;
                let cpu = cpu_per_page * hits as u64;
                let new_done = done + hits as u32;

                match fault {
                    None => {
                        if new_done == len {
                            self.procs[p].cur = None;
                        } else {
                            self.procs[p].cur = Some(CurStep::Touch {
                                first,
                                len,
                                done: new_done,
                                write,
                                cpu_per_page,
                            });
                        }
                        if cpu.as_us() > 0 {
                            let gen = self.procs[p].gen;
                            self.queue.push(now + cpu, Event::Dispatch { p, gen });
                            return Ok(());
                        }
                        continue;
                    }
                    Some(_) => {
                        // Fault at page first+new_done, occurring after the
                        // CPU burn of the hits that preceded it.
                        self.procs[p].cur = Some(CurStep::Touch {
                            first,
                            len,
                            done: new_done,
                            write,
                            cpu_per_page,
                        });
                        let t_fault = now + cpu;
                        let fpage = PageNum(first + new_done);
                        let plan = {
                            let node = &mut self.nodes[ni];
                            node.engine
                                .on_fault(&mut node.kernel, pid, fpage, t_fault)
                                .map_err(mem_err("on_fault", ni, t_fault))?
                        };
                        let mut completion = t_fault;
                        if !plan.writes.is_empty() {
                            let req = DiskRequest::write(&plan.writes);
                            let pages = req.pages();
                            let c = self.submit_io(ni, t_fault, &req);
                            self.nodes[ni].trace.record_out(c, pages);
                            completion = completion.max(c);
                        }
                        if !plan.reads.is_empty() {
                            let req = DiskRequest::read(&plan.reads);
                            let pages = req.pages();
                            let c = self.submit_io(ni, t_fault, &req);
                            self.nodes[ni].trace.record_in(c, pages);
                            completion = completion.max(c);
                        }
                        self.nodes[ni].engine.recycle_fault_plan(plan);
                        if completion > t_fault {
                            self.obs.emit(t_fault, || ObsEvent::FaultService {
                                pid: pid.0,
                                page: fpage.0,
                                wait_us: completion.since(t_fault).as_us(),
                            });
                            self.procs[p].block_io(now);
                            let gen = self.procs[p].gen;
                            self.queue.push(completion, Event::IoDone { p, gen });
                            return Ok(());
                        }
                        // Pure zero-fill: the page is mapped; charge any
                        // CPU and keep going.
                        if cpu.as_us() > 0 {
                            let gen = self.procs[p].gen;
                            self.queue.push(t_fault, Event::Dispatch { p, gen });
                            return Ok(());
                        }
                        continue;
                    }
                }
            }

            // Phase 2: pull the next program step.
            let step = self.procs[p].program.next_step();
            match step {
                None => {
                    self.finish_proc(p)?;
                    return Ok(());
                }
                Some(Step::Touch {
                    first,
                    len,
                    write,
                    cpu_per_page,
                }) => {
                    self.procs[p].cur = Some(CurStep::Touch {
                        first,
                        len,
                        done: 0,
                        write,
                        cpu_per_page,
                    });
                }
                Some(Step::Compute(d)) => {
                    let gen = self.procs[p].gen;
                    self.queue.push(now + d, Event::Dispatch { p, gen });
                    return Ok(());
                }
                Some(Step::Exchange { bytes }) => {
                    let d = self.cfg.net.xfer_dur(bytes);
                    let gen = self.procs[p].gen;
                    self.queue.push(now + d, Event::Dispatch { p, gen });
                    return Ok(());
                }
                Some(Step::AllToAll { bytes_per_pair }) => {
                    let n = self.procs[p].program.spec().nprocs;
                    let d = self.cfg.net.alltoall_dur(n, bytes_per_pair);
                    let gen = self.procs[p].gen;
                    self.queue.push(now + d, Event::Dispatch { p, gen });
                    return Ok(());
                }
                Some(Step::Barrier) => {
                    let job = self.procs[p].job.0 as usize;
                    let rank = self.procs[p].rank;
                    self.procs[p].state = PState::Blocked(BlockKind::Barrier);
                    if let Some(release) = self.barriers[job].arrive(rank, now, &self.cfg.net) {
                        let epoch = self.barrier_epoch[job];
                        let dropped = self.injector.as_mut().is_some_and(|inj| {
                            inj.barrier_dropped(job, now.since(SimTime::ZERO).as_us())
                        });
                        if dropped {
                            // The release message is lost; the ranks sit in
                            // the barrier until its timeout re-issues it.
                            let timeout = SimDur::from_us(self.recovery.barrier_timeout_us);
                            self.queue.push(
                                release + timeout,
                                Event::BarrierRetry {
                                    job,
                                    attempt: 1,
                                    epoch,
                                },
                            );
                        } else {
                            self.queue
                                .push(release, Event::BarrierRelease { job, epoch });
                        }
                    }
                    return Ok(());
                }
                Some(Step::EndIteration(i)) => {
                    if i > 0 {
                        self.procs[p].iterations_done = i;
                    }
                }
            }
        }
    }

    fn release_barrier(&mut self, job: usize) -> Result<(), SimError> {
        for i in 0..self.job_procs[job].len() {
            let p = self.job_procs[job][i];
            let proc = &mut self.procs[p];
            if proc.state == PState::Blocked(BlockKind::Barrier) {
                if proc.stop_pending {
                    proc.stop_pending = false;
                    proc.state = PState::Stopped;
                } else {
                    proc.state = PState::Runnable;
                    let gen = proc.gen;
                    self.queue.push(self.now, Event::Dispatch { p, gen });
                }
            }
        }
        Ok(())
    }

    fn finish_proc(&mut self, p: usize) -> Result<(), SimError> {
        let now = self.now;
        let proc = &mut self.procs[p];
        proc.state = PState::Done;
        proc.finished_at = Some(now);
        proc.unblock_io(now);
        let job = proc.job;
        let done = self.job_procs[job.0 as usize]
            .iter()
            .all(|&q| self.procs[q].state == PState::Done);
        if done {
            self.on_job_done(job)?;
        }
        Ok(())
    }

    fn on_job_done(&mut self, job: JobId) -> Result<(), SimError> {
        let j = job.0 as usize;
        let now = self.now;
        self.completions[j] = Some(now);
        // The job's processes exit: release their memory and swap.
        for &p in &self.job_procs[j] {
            let pid = self.procs[p].pid;
            let ni = self.procs[p].node;
            let node = &mut self.nodes[ni];
            node.kernel
                .unregister_proc(pid)
                .map_err(mem_err("unregister", ni, now))?;
            node.engine.forget_proc(pid);
            debug_assert!(node.kernel.check_invariants().is_ok());
        }
        if self.cfg.check_invariants {
            self.verify_invariants("job completion")?;
        }
        match self.cfg.mode {
            ScheduleMode::Batch => {
                self.batch_next += 1;
                if self.batch_next < self.cfg.jobs.len() {
                    self.start_batch_job(self.batch_next)?;
                }
            }
            ScheduleMode::Gang => {
                let saved_expire = self.next_expire;
                if let Some(plan) = self.sched.job_finished(job) {
                    // The active job finished: switch to the next slot now
                    // rather than idling out the quantum.
                    self.do_switch(plan.out, plan.inn, plan.quantum)?;
                } else if !self.sched.is_empty() && self.sched.matrix().slots() >= 2 {
                    // An inactive job finished; the scheduler generation
                    // moved, so re-arm the pending expiry under the new
                    // generation.
                    if let Some(at) = saved_expire {
                        let sgen = self.sched.generation();
                        self.queue
                            .push(at.max(self.now), Event::QuantumExpire { sgen });
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scheduling protocol
    // ------------------------------------------------------------------

    fn start_batch_job(&mut self, j: usize) -> Result<(), SimError> {
        let now = self.now;
        for i in 0..self.job_procs[j].len() {
            let p = self.job_procs[j][i];
            let pid = self.procs[p].pid;
            let ni = self.procs[p].node;
            let node = &mut self.nodes[ni];
            node.engine.set_running(Some(pid));
            node.kernel
                .quantum_started(pid)
                .map_err(mem_err("quantum_started", ni, now))?;
            self.cont_proc(p, now);
        }
        Ok(())
    }

    /// The paper's coordinated switch: STOP the outgoing ranks, run the
    /// adaptive-paging API on every node, CONT the incoming ranks.
    fn do_switch(
        &mut self,
        out: Vec<JobId>,
        inn: Vec<JobId>,
        quantum: SimDur,
    ) -> Result<(), SimError> {
        let _perf = agp_perf::scope(agp_perf::Span::SimSwitch);
        let now = self.now;
        if !out.is_empty() {
            self.switches += 1;
        }
        // Ends of the write (page-out) and read (page-in) drains across
        // all nodes, for the switch-phase decomposition.
        let mut out_end = now;
        let mut in_end = now;

        // 1. SIGSTOP every rank of every outgoing job.
        for &job in &out {
            for i in 0..self.job_procs[job.0 as usize].len() {
                self.stop_proc(self.job_procs[job.0 as usize][i]);
            }
        }
        // Background writing always halts at the switch (paper §3.4).
        for node in &mut self.nodes {
            node.engine.stop_bgwrite();
        }

        // 2. Per node: adaptive_page_out / adaptive_page_in around the
        //    incoming rank, then SIGCONT it.
        for &job in &inn {
            for i in 0..self.job_procs[job.0 as usize].len() {
                let p = self.job_procs[job.0 as usize][i];
                if self.procs[p].state == PState::Done {
                    continue;
                }
                let in_pid = self.procs[p].pid;
                let ni = self.procs[p].node;
                // The outgoing rank sharing this node, if it still owns
                // memory.
                let out_pid = out
                    .iter()
                    .flat_map(|&oj| self.job_procs[oj.0 as usize].iter())
                    .map(|&q| &self.procs[q])
                    .find(|q| q.node == ni)
                    .map(|q| q.pid)
                    .filter(|&pid| self.nodes[ni].kernel.proc(pid).is_ok());

                if let Some(out_pid) = out_pid {
                    let plan = {
                        let node = &mut self.nodes[ni];
                        node.engine
                            .adaptive_page_out(&mut node.kernel, out_pid, in_pid, None)
                            .map_err(mem_err("adaptive_page_out", ni, now))?
                    };
                    if !plan.writes.is_empty() {
                        let req = DiskRequest::write(&plan.writes);
                        let pages = req.pages();
                        let c = self.submit_io(ni, now, &req);
                        self.nodes[ni].trace.record_out(c, pages);
                        out_end = out_end.max(c);
                    }
                } else {
                    self.nodes[ni].engine.set_running(Some(in_pid));
                }
                self.nodes[ni]
                    .kernel
                    .quantum_started(in_pid)
                    .map_err(mem_err("quantum_started", ni, now))?;

                let mut resume_at = now;
                let plan_in = {
                    let node = &mut self.nodes[ni];
                    node.engine
                        .adaptive_page_in(&mut node.kernel, in_pid, now)
                        .map_err(mem_err("adaptive_page_in", ni, now))?
                };
                if !plan_in.reads.is_empty() {
                    let req = DiskRequest::read(&plan_in.reads);
                    let pages = req.pages();
                    let c = self.submit_io(ni, now, &req);
                    self.nodes[ni].trace.record_in(c, pages);
                    // The induced faults of Fig. 4: the process starts
                    // computing once its recorded working set is back.
                    resume_at = c;
                    in_end = in_end.max(c);
                }
                self.cont_proc(p, resume_at);
            }
        }

        // Decompose the switch into the protocol's four phases. STOP and
        // CONT delivery are instantaneous in this model (signals cost no
        // simulated time); the page-out phase runs until the last write
        // drain, the page-in phase from there to the last read drain —
        // so the four durations sum to the total by construction.
        let sw = self.obs_switches;
        self.obs_switches += 1;
        let out_end = out_end.max(now);
        let in_end = in_end.max(out_end);
        let pageout_us = out_end.since(now).as_us();
        let pagein_us = in_end.since(out_end).as_us();
        if self.cfg.check_invariants {
            // Phase decomposition must tile the switch exactly: STOP and
            // CONT are instantaneous, so page-out + page-in == total. This
            // holds by construction today; the check guards refactors that
            // overlap the drains or add phases without re-deriving the sum.
            let total_us = in_end.since(now).as_us();
            if pageout_us.checked_add(pagein_us) != Some(total_us) {
                return Err(SimError::InvariantViolation {
                    context: format!("switch {sw}"),
                    node: None,
                    at_us: now.since(SimTime::ZERO).as_us(),
                    detail: format!(
                        "phase durations {pageout_us} + {pagein_us} µs do not sum to \
                         switch total {total_us} µs"
                    ),
                });
            }
            self.verify_invariants("post-switch")?;
        }
        if self.obs.enabled() {
            let phases = [
                (SwitchPhaseKind::Stop, 0),
                (SwitchPhaseKind::PageOut, pageout_us),
                (SwitchPhaseKind::PageIn, pagein_us),
                (SwitchPhaseKind::Cont, 0),
            ];
            for (phase, dur_us) in phases {
                self.obs.emit(now, || ObsEvent::SwitchPhase {
                    switch: sw,
                    phase,
                    dur_us,
                });
            }
            self.obs.emit(now, || ObsEvent::SwitchDone {
                switch: sw,
                total_us: in_end.since(now).as_us(),
            });
        }

        // 3. Arm the next expiry (only meaningful with ≥ 2 slots) and the
        //    background-writing window.
        if self.sched.matrix().slots() >= 2 {
            let sgen = self.sched.generation();
            let at = now + quantum;
            self.queue.push(at, Event::QuantumExpire { sgen });
            self.next_expire = Some(at);
            if self.cfg.policy.bg_write {
                let lead = quantum.mul_f64(1.0 - self.cfg.policy.bg_fraction.clamp(0.0, 1.0));
                self.queue.push(now + lead, Event::BgStart { sgen });
            }
        } else {
            self.next_expire = None;
        }
        Ok(())
    }

    fn stop_proc(&mut self, p: usize) {
        let proc = &mut self.procs[p];
        match proc.state {
            PState::Runnable | PState::Blocked(_) => proc.stop_pending = true,
            PState::Stopped | PState::Done => {}
        }
    }

    fn cont_proc(&mut self, p: usize, resume_at: SimTime) {
        let proc = &mut self.procs[p];
        proc.stop_pending = false;
        if proc.state == PState::Stopped {
            proc.state = PState::Runnable;
            let gen = proc.bump_gen();
            self.queue.push(resume_at, Event::Dispatch { p, gen });
        }
        // Runnable / Blocked ranks continue via their in-flight events;
        // Done ranks stay done.
    }

    fn bg_tick(&mut self, ni: usize) -> Result<(), SimError> {
        let now = self.now;
        let sgen = self.sched.generation();
        if !self.nodes[ni].engine.bgwrite_active() {
            return Ok(());
        }
        // "Lower priority": only write when the paging disk is idle.
        if self.nodes[ni].disk.is_idle(now) {
            let ext = {
                let node = &mut self.nodes[ni];
                node.engine.bgwrite_tick(&mut node.kernel).map_err(mem_err(
                    "bgwrite_tick",
                    ni,
                    now,
                ))?
            };
            if !ext.is_empty() {
                let req = DiskRequest::write(&ext);
                let pages = req.pages();
                let c = self.submit_io(ni, now, &req);
                self.nodes[ni].trace.record_out(c, pages);
            }
        }
        self.queue
            .push(now + self.cfg.bg_tick, Event::BgTick { node: ni, sgen });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    /// Submit a disk request through the fault injector: an injected
    /// error burns the device for the command overhead, then the request
    /// is retried after capped exponential backoff ([`RecoveryPolicy`]);
    /// an injected latency spike inflates this one request's service
    /// time. With no injector this is exactly `Disk::submit`.
    ///
    /// Returns the completion instant of the finally-successful attempt.
    fn submit_io(&mut self, ni: usize, at: SimTime, req: &DiskRequest) -> SimTime {
        let injector = &mut self.injector;
        let node = &mut self.nodes[ni];
        let Some(inj) = injector.as_mut() else {
            return node.disk.submit(at, req);
        };
        if req.is_empty() {
            return node.disk.submit(at, req);
        }
        let mut t = at;
        let mut attempt: u32 = 0;
        loop {
            // The injected errors model transient media failures: after
            // the configured retries the attempt is forced to succeed, so
            // a pathological plan cannot livelock the simulation.
            let exhausted = self.recovery.io_exhausted(attempt);
            let outcome = if exhausted {
                DiskOutcome::Ok
            } else {
                inj.disk_outcome(ni, t.since(SimTime::ZERO).as_us())
            };
            match outcome {
                DiskOutcome::Ok => {
                    // Exhaustion (a retry budget fully burned, success
                    // forced) is an incident, but only the armed watchdog
                    // observes it — unarmed runs keep their exact trace.
                    if exhausted && attempt > 0 && self.watchdog.armed() {
                        self.obs.emit(t, || ObsEvent::IoExhausted {
                            node: ni as u32,
                            attempts: attempt,
                        });
                        if self.watchdog.trips_on_exhaustion() {
                            self.pending_trip = Some(Trip {
                                rule: agp_obs::WatchdogRule::RecoveryExhausted,
                                value: u64::from(attempt),
                                limit: u64::from(self.recovery.io_retries),
                            });
                        }
                    }
                    return node.disk.submit(t, req);
                }
                DiskOutcome::Slow(penalty_us) => {
                    return node.disk.submit_slowed(t, req, penalty_us)
                }
                DiskOutcome::Error => {
                    let failed_at = node.disk.submit_failing(t, req);
                    let backoff_us = self.recovery.backoff_us(attempt);
                    attempt += 1;
                    self.obs.emit(t, || ObsEvent::IoRetry {
                        node: ni as u32,
                        attempt,
                        backoff_us,
                    });
                    // Graceful degradation: a flaky disk makes the bulk
                    // replay reads of adaptive page-in a liability, so the
                    // node falls back to demand paging.
                    let errors = inj.disk_errors_on(ni);
                    if errors >= u64::from(self.recovery.ai_degrade_after)
                        && node.engine.cfg().adaptive_in
                    {
                        node.engine.set_adaptive_in(false);
                        self.obs.emit(t, || ObsEvent::AiDegraded {
                            node: ni as u32,
                            errors,
                        });
                    }
                    t = failed_at + SimDur::from_us(backoff_us);
                }
            }
        }
    }

    /// A barrier release re-issue fired: the original release message was
    /// dropped by an injected network fault and the barrier timed out.
    /// Stale epochs (the episode was abandoned by a crash-requeue) are
    /// ignored; after `barrier_retries` re-issues the release is forced
    /// through — the injected fault is transient, delivery is guaranteed
    /// eventually.
    fn barrier_retry(&mut self, job: usize, attempt: u32, epoch: u64) -> Result<(), SimError> {
        if epoch != self.barrier_epoch[job] {
            return Ok(());
        }
        let now = self.now;
        let timeout_us = self.recovery.barrier_timeout_us;
        self.obs.emit(now, || ObsEvent::BarrierTimeout {
            job: job as u32,
            attempt,
            waited_us: timeout_us.saturating_mul(u64::from(attempt)),
        });
        let drop_again = attempt <= self.recovery.barrier_retries
            && self
                .injector
                .as_mut()
                .is_some_and(|inj| inj.barrier_dropped(job, now.since(SimTime::ZERO).as_us()));
        if drop_again {
            self.queue.push(
                now + SimDur::from_us(timeout_us),
                Event::BarrierRetry {
                    job,
                    attempt: attempt + 1,
                    epoch,
                },
            );
            return Ok(());
        }
        // The release goes through; if it was *forced* (every re-issue in
        // the budget dropped), the armed watchdog records the exhaustion.
        if self.recovery.barrier_exhausted(attempt) && self.watchdog.armed() {
            self.obs.emit(now, || ObsEvent::BarrierExhausted {
                job: job as u32,
                attempts: attempt,
            });
            if self.watchdog.trips_on_exhaustion() {
                self.pending_trip = Some(Trip {
                    rule: agp_obs::WatchdogRule::RecoveryExhausted,
                    value: u64::from(attempt),
                    limit: u64::from(self.recovery.barrier_retries),
                });
            }
        }
        self.release_barrier(job)
    }

    fn apply_timed_fault(&mut self, idx: usize) -> Result<(), SimError> {
        match self.timed_faults[idx].1 {
            TimedFault::Crash { node } => self.crash_node(node as usize),
            TimedFault::Restart { node } => self.restart_node(node as usize),
            TimedFault::MemPressure { node, pages } => self.mem_pressure(node as usize, pages),
        }
    }

    /// A node dies. Its volatile state (kernel, paging engine, resident
    /// sets) is gone; the disk hardware and the activity trace survive.
    /// Every unfinished job with a rank there is torn down cluster-wide —
    /// surviving ranks release their memory, the barrier episode is
    /// abandoned — and queued for re-admission at restart. The gang
    /// schedule compacts around the loss instead of wedging: if the dead
    /// node's job held the active slot, the next surviving job switches
    /// in immediately.
    fn crash_node(&mut self, ni: usize) -> Result<(), SimError> {
        if !self.node_up[ni] {
            return Ok(());
        }
        let now = self.now;
        self.node_up[ni] = false;

        // Victim jobs: any unfinished job with a rank on the dead node
        // (completed jobs already released their memory everywhere).
        let victims: Vec<usize> = (0..self.job_procs.len())
            .filter(|&j| {
                self.completions[j].is_none()
                    && self.job_procs[j].iter().any(|&p| self.procs[p].node == ni)
            })
            .collect();
        self.obs.emit(now, || ObsEvent::NodeCrash {
            node: ni as u32,
            jobs_suspended: victims.len() as u32,
        });

        for &j in &victims {
            let seed = self.cfg.seed.wrapping_add((j as u64) * 7919);
            let spec = self.cfg.jobs[j].workload;
            for i in 0..self.job_procs[j].len() {
                let p = self.job_procs[j][i];
                let pid = self.procs[p].pid;
                let pn = self.procs[p].node;
                if pn != ni && self.nodes[pn].kernel.proc(pid).is_ok() {
                    // Surviving rank: release its memory and swap like a
                    // normal exit (the job restarts from scratch).
                    let node = &mut self.nodes[pn];
                    node.kernel
                        .unregister_proc(pid)
                        .map_err(mem_err("unregister", pn, now))?;
                    node.engine.forget_proc(pid);
                }
                let proc = &mut self.procs[p];
                let rank = proc.rank;
                proc.bump_gen();
                proc.unblock_io(now);
                proc.stop_pending = false;
                proc.state = PState::Stopped;
                proc.cur = None;
                proc.iterations_done = 0;
                proc.program = ProcessProgram::new(spec, rank, seed);
            }
            // Abandon the barrier episode; in-flight release/retry events
            // for the old epoch go stale.
            self.barriers[j].reset();
            self.barrier_epoch[j] += 1;
            self.pending_requeue.push(j);
        }

        // The crashed node reboots with empty memory. Re-attach the
        // node-tagged observer so telemetry keeps flowing after restart.
        {
            let node = &mut self.nodes[ni];
            node.kernel = Kernel::new(vm_params(&self.cfg), self.cfg.disk.blocks);
            node.engine = PagingEngine::new(self.cfg.policy);
            if let Some(tagged) = self.gauge_obs.get(ni) {
                node.kernel.set_observer(tagged.clone());
                node.engine.set_observer(tagged.clone());
            }
        }

        // Pull the victims out of the gang schedule. Removals are batched
        // before any switch so a forced switch can only land on a
        // surviving job; `job_finished` hands back a plan exactly when the
        // active slot empties, and a later removal of the newly activated
        // job supersedes the earlier plan.
        let saved_expire = self.next_expire;
        let mut plan = None;
        let mut removed_any = false;
        for &j in &victims {
            let jid = JobId(j as u32);
            if !self.sched.has_job(jid) {
                continue;
            }
            removed_any = true;
            if let Some(p) = self.sched.job_finished(jid) {
                plan = Some(p);
            }
        }
        if let Some(plan) = plan {
            self.do_switch(plan.out, plan.inn, plan.quantum)?;
        } else if removed_any {
            if self.sched.is_active() && self.sched.matrix().slots() >= 2 {
                // The active job survived but the scheduler generation
                // moved; re-arm the pending expiry under the new one.
                if let Some(at) = saved_expire {
                    let at = at.max(now);
                    let sgen = self.sched.generation();
                    self.queue.push(at, Event::QuantumExpire { sgen });
                    self.next_expire = Some(at);
                }
            } else {
                self.next_expire = None;
            }
        }
        Ok(())
    }

    /// The crashed node returns with empty memory. Suspended jobs whose
    /// nodes are all back up are re-admitted to the gang schedule and
    /// restart from their first instruction (the model has no
    /// checkpointing); the rest keep waiting for their other nodes.
    fn restart_node(&mut self, ni: usize) -> Result<(), SimError> {
        if self.node_up[ni] {
            return Ok(());
        }
        let now = self.now;
        self.node_up[ni] = true;

        let pending = std::mem::take(&mut self.pending_requeue);
        let mut ready = Vec::new();
        for j in pending {
            let all_up = self.job_procs[j]
                .iter()
                .all(|&p| self.node_up[self.procs[p].node]);
            if all_up {
                ready.push(j);
            } else {
                self.pending_requeue.push(j);
            }
        }
        self.obs.emit(now, || ObsEvent::NodeRestart {
            node: ni as u32,
            jobs_requeued: ready.len() as u32,
        });

        for &j in &ready {
            let jid = JobId(j as u32);
            let spec = &self.cfg.jobs[j];
            self.sched
                .add_job(jid, NodeSet::first_n(spec.workload.nprocs), spec.quantum)
                .map_err(|e| SimError::Schedule {
                    job: spec.name.clone(),
                    detail: e,
                })?;
            for &p in &self.job_procs[j] {
                let pid = self.procs[p].pid;
                let pn = self.procs[p].node;
                let pages = self.procs[p].program.footprint_pages() as usize;
                self.nodes[pn].kernel.register_proc(pid, pages);
            }
            self.obs
                .emit(now, || ObsEvent::JobRequeued { job: j as u32 });
        }

        if !ready.is_empty() {
            if !self.sched.is_active() {
                // The crash drained the schedule; restart it.
                if let Some(plan) = self.sched.start() {
                    self.do_switch(plan.out, plan.inn, plan.quantum)?;
                }
            } else if self.sched.matrix().slots() >= 2 {
                // A survivor kept running; `add_job` moved the generation,
                // so re-arm the expiry under it. With no pending expiry
                // (the survivor ran alone) the rotation fires immediately
                // and the requeued jobs get their first quantum.
                let at = self.next_expire.unwrap_or(now).max(now);
                let sgen = self.sched.generation();
                self.queue.push(at, Event::QuantumExpire { sgen });
                self.next_expire = Some(at);
            }
        }
        Ok(())
    }

    /// A transient memory-pressure burst (the model's stand-in for an
    /// external allocation) forces an immediate reclaim of `pages`
    /// frames; dirty victims are written out through the fault-aware I/O
    /// path.
    fn mem_pressure(&mut self, ni: usize, pages: u64) -> Result<(), SimError> {
        if !self.node_up[ni] {
            return Ok(());
        }
        let now = self.now;
        let writes = {
            let node = &mut self.nodes[ni];
            node.engine
                .free_pages(&mut node.kernel, pages as usize, now)
                .map_err(mem_err("free_pages", ni, now))?
        };
        let mut write_pages = 0;
        if !writes.is_empty() {
            let req = DiskRequest::write(&writes);
            write_pages = req.pages();
            let c = self.submit_io(ni, now, &req);
            self.nodes[ni].trace.record_out(c, write_pages);
        }
        self.obs.emit(now, || ObsEvent::MemPressure {
            node: ni as u32,
            target: pages,
            write_pages,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn into_result(self) -> RunResult {
        let jobs: Vec<JobResult> = self
            .cfg
            .jobs
            .iter()
            .enumerate()
            .map(|(j, spec)| {
                let iterations = self.job_procs[j]
                    .iter()
                    .map(|&p| self.procs[p].iterations_done)
                    .min()
                    .unwrap_or(0);
                JobResult {
                    name: spec.name.clone(),
                    workload: spec.workload,
                    // into_result runs only after run() drains the queue,
                    // at which point every job has a completion time.
                    // agp-lint: allow(panic-site): run loop completed all jobs
                    completion: self.completions[j].expect("all jobs completed"),
                    iterations,
                }
            })
            .collect();
        let makespan = jobs
            .iter()
            .map(|j| j.completion)
            .fold(SimTime::ZERO, SimTime::max)
            .since(SimTime::ZERO);
        let nodes = self
            .nodes
            .into_iter()
            .map(|n| NodeReport {
                disk: n.disk.stats().clone(),
                engine: n.engine.stats(),
                bg_cleaned_pages: n.engine.bg_cleaned_pages(),
                trace: n.trace,
            })
            .collect();
        RunResult {
            policy: self.cfg.policy,
            mode: self.cfg.mode,
            seed: self.cfg.seed,
            jobs,
            makespan,
            nodes,
            switches: self.switches,
            events: self.events,
            invariant_checks: self.invariant_checks,
        }
    }
}

/// Provenance-carrying adapter for `map_err` on memory-subsystem calls.
fn mem_err(what: &'static str, ni: usize, at: SimTime) -> impl FnOnce(MemError) -> SimError {
    move |e| SimError::Mem {
        what,
        node: ni as u32,
        at_us: at.since(SimTime::ZERO).as_us(),
        source: e,
    }
}

/// VM geometry from the config (also used to rebuild a crashed node's
/// kernel with the exact construction-time parameters).
fn vm_params(cfg: &ClusterConfig) -> VmParams {
    let total_frames = agp_sim::units::pages_from_mib(cfg.mem_mib);
    let wired_frames = agp_sim::units::pages_from_mib(cfg.wired_mib);
    let mut params = VmParams::for_frames(total_frames, wired_frames);
    if let Some(ra) = cfg.readahead {
        params.readahead = ra;
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobSpec;
    use agp_core::PolicyConfig;
    use agp_sim::SimDur;
    use agp_workload::{Benchmark, Class, WorkloadSpec};

    /// A scaled-down cluster so tests run fast while keeping the paper's
    /// pressure geometry: each LU.A job's ~42 MiB working set fits the
    /// 64 MiB of usable memory alone, but the two jobs together do not —
    /// so paging happens at job switches, not within a quantum.
    fn tiny_config(policy: PolicyConfig, mode: ScheduleMode) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_defaults(1);
        cfg.mem_mib = 128;
        cfg.wired_mib = 64;
        cfg.quantum = SimDur::from_secs(10);
        cfg.policy = policy;
        cfg.mode = mode;
        cfg.trace_bucket = SimDur::from_secs(1);
        cfg.jobs = vec![
            JobSpec::new("LU.A #1", WorkloadSpec::serial(Benchmark::LU, Class::A)),
            JobSpec::new("LU.A #2", WorkloadSpec::serial(Benchmark::LU, Class::A)),
        ];
        // Tests always run the conservation sweep; production runs opt in.
        cfg.check_invariants = true;
        cfg
    }

    #[test]
    fn batch_run_completes_both_jobs() {
        let r = ClusterSim::new(tiny_config(PolicyConfig::original(), ScheduleMode::Batch))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(r.switches, 0, "batch mode never switches");
        let spec = WorkloadSpec::serial(Benchmark::LU, Class::A);
        for j in &r.jobs {
            assert_eq!(j.iterations, spec.iterations());
        }
        assert!(
            r.jobs[1].completion > r.jobs[0].completion,
            "batch runs serially"
        );
    }

    #[test]
    fn gang_run_switches_and_completes() {
        let r = ClusterSim::new(tiny_config(PolicyConfig::original(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            r.switches >= 2,
            "expected several quantum switches, got {}",
            r.switches
        );
        assert!(r.total_pages_in() > 0, "memory pressure must cause paging");
        assert!(r.total_pages_out() > 0);
    }

    #[test]
    fn monitored_run_is_observation_transparent_and_snapshots_are_deterministic() {
        let plain = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let monitored = || {
            let (tx, rx) = std::sync::mpsc::channel();
            let mut sim =
                ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang)).unwrap();
            sim.attach_monitor(tx, SimDur::from_secs(30));
            let r = sim.run().unwrap();
            let snaps: Vec<crate::MetricsSnapshot> = rx.try_iter().collect();
            (r, snaps)
        };
        let (r, snaps) = monitored();
        // Transparency: the monitored result is the plain result.
        assert_eq!(format!("{plain:?}"), format!("{r:?}"));
        // Snapshot stream shape: sequenced from 0, monotone sim time,
        // exactly one final `done` snapshot matching the result.
        assert!(snaps.len() >= 2, "periodic + final: {}", snaps.len());
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.jobs_total, 2);
            assert_eq!(s.done, i == snaps.len() - 1);
            assert!(s.label.contains("2j/1n"), "label: {}", s.label);
        }
        assert!(snaps.windows(2).all(|w| w[0].sim_us <= w[1].sim_us));
        let last = snaps.last().unwrap();
        assert_eq!(last.jobs_done, 2);
        assert_eq!(last.events, r.events);
        assert_eq!(last.switches, r.switches);
        assert_eq!(last.pages_in, r.total_pages_in());
        assert_eq!(last.pages_out, r.total_pages_out());
        // Determinism: same seed, byte-identical snapshot JSONL.
        let jsonl = |s: &[crate::MetricsSnapshot]| {
            s.iter()
                .map(|x| x.to_json_line())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let (_, snaps2) = monitored();
        assert_eq!(jsonl(&snaps), jsonl(&snaps2));
    }

    #[test]
    fn gang_is_slower_than_batch_under_pressure() {
        let batch = ClusterSim::new(tiny_config(PolicyConfig::original(), ScheduleMode::Batch))
            .unwrap()
            .run()
            .unwrap();
        let gang = ClusterSim::new(tiny_config(PolicyConfig::original(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            gang.makespan > batch.makespan,
            "switch paging must cost time: gang {} vs batch {}",
            gang.makespan,
            batch.makespan
        );
    }

    #[test]
    fn adaptive_beats_original_on_makespan() {
        let orig = ClusterSim::new(tiny_config(PolicyConfig::original(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let full = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            full.makespan < orig.makespan,
            "so/ao/ai/bg {} must beat orig {}",
            full.makespan,
            orig.makespan
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let b = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.total_pages_in(), b.total_pages_in());
        assert_eq!(
            a.jobs.iter().map(|j| j.completion).collect::<Vec<_>>(),
            b.jobs.iter().map(|j| j.completion).collect::<Vec<_>>()
        );
    }

    #[test]
    fn invariant_sweep_runs_and_does_not_perturb() {
        let checked = tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
        let mut plain = tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
        plain.check_invariants = false;
        let a = ClusterSim::new(checked).unwrap().run().unwrap();
        let b = ClusterSim::new(plain).unwrap().run().unwrap();
        assert!(
            a.invariant_checks > a.switches,
            "per-switch + periodic + final sweeps: got {} over {} switches",
            a.invariant_checks,
            a.switches
        );
        assert_eq!(b.invariant_checks, 0, "sweeps are opt-in");
        // The sweep only reads state: both runs must be identical.
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.total_pages_in(), b.total_pages_in());
    }

    #[test]
    fn different_seeds_still_complete() {
        let mut cfg = tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
        cfg.seed = 12345;
        let r = ClusterSim::new(cfg).unwrap().run().unwrap();
        assert_eq!(r.jobs.len(), 2);
    }

    #[test]
    fn parallel_job_runs_on_multiple_nodes() {
        let mut cfg = parallel_cfg();
        cfg.policy = PolicyConfig::original();
        let r = ClusterSim::new(cfg).unwrap().run().unwrap();
        assert_eq!(r.nodes.len(), 2);
        // Both nodes page (each holds one rank of each job).
        assert!(r.nodes[0].disk.pages_read > 0);
        assert!(r.nodes[1].disk.pages_read > 0);
    }

    fn parallel_cfg() -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_defaults(2);
        cfg.mem_mib = 64;
        cfg.wired_mib = 24;
        cfg.quantum = SimDur::from_secs(5);
        cfg.trace_bucket = SimDur::from_secs(1);
        cfg.jobs = vec![
            JobSpec::new(
                "CG.A x2 #1",
                WorkloadSpec::parallel(Benchmark::CG, Class::A, 2),
            ),
            JobSpec::new(
                "CG.A x2 #2",
                WorkloadSpec::parallel(Benchmark::CG, Class::A, 2),
            ),
        ];
        cfg.check_invariants = true;
        cfg
    }

    /// Run `cfg` with a JSONL trace attached and return the result plus
    /// the rendered trace.
    fn run_traced(cfg: ClusterConfig) -> (RunResult, String) {
        let sink = agp_obs::shared(agp_obs::JsonlWriter::new(Vec::new()));
        let link = agp_obs::ObsLink::to(sink.clone());
        let mut sim = ClusterSim::new(cfg).unwrap();
        sim.attach_observer(&link);
        let r = sim.run().unwrap();
        drop(link);
        let writer = std::sync::Arc::try_unwrap(sink)
            .expect("sim dropped, sink has one owner")
            .into_inner()
            .unwrap();
        let bytes = writer.finish().unwrap();
        (r, String::from_utf8(bytes).unwrap())
    }

    #[test]
    fn same_seed_traces_are_byte_identical() {
        let cfg = || tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
        let (ra, ta) = run_traced(cfg());
        let (rb, tb) = run_traced(cfg());
        assert_eq!(ra.makespan, rb.makespan);
        assert!(!ta.is_empty(), "a pressured gang run must emit events");
        assert_eq!(agp_obs::trace_diff(&ta, &tb), None);
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seed_traces_diverge() {
        // CG has a random-region component, so its reference stream (and
        // hence the event trace) is seed-sensitive; LU is not.
        let mut a = parallel_cfg();
        a.seed = 1;
        let mut b = parallel_cfg();
        b.seed = 2;
        let (_, ta) = run_traced(a);
        let (_, tb) = run_traced(b);
        let div = agp_obs::trace_diff(&ta, &tb).expect("different seeds must diverge");
        assert!(div.line >= 1);
        assert!(div.left.is_some() || div.right.is_some());
    }

    #[test]
    fn observer_does_not_perturb_the_simulation() {
        let plain = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let (observed, _) = run_traced(tiny_config(PolicyConfig::full(), ScheduleMode::Gang));
        assert_eq!(plain.makespan, observed.makespan);
        assert_eq!(plain.events, observed.events);
        assert_eq!(plain.total_pages_in(), observed.total_pages_in());
    }

    #[test]
    fn switch_phase_durations_sum_to_switch_total() {
        let sink = agp_obs::shared(agp_obs::Collector::new());
        let link = agp_obs::ObsLink::to(sink.clone());
        let mut sim =
            ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang)).unwrap();
        sim.attach_observer(&link);
        let r = sim.run().unwrap();
        let c = sink.lock().unwrap();
        let recs = c.switch_records();
        assert_eq!(c.counters.switches as usize, recs.len());
        assert!(
            c.counters.switches > r.switches,
            "every rotation plus the initial placement is recorded"
        );
        assert!(
            recs.iter().any(|rec| rec.total_us > 0),
            "paging pressure must make some switch cost time"
        );
        for rec in recs {
            assert_eq!(
                rec.phase_sum_us(),
                rec.total_us,
                "switch {} phases must sum to its total",
                rec.switch
            );
        }
        assert!(
            c.counters.faults_major + c.counters.faults_minor > 0,
            "first touches must raise faults"
        );
        assert!(c.counters.disk_reads + c.counters.disk_writes > 0);
    }

    #[test]
    fn selective_policy_reduces_false_evictions() {
        let orig = ClusterSim::new(tiny_config(PolicyConfig::original(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let so = ClusterSim::new(tiny_config(PolicyConfig::so(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let fe_orig = orig.total_engine_stats().false_evictions;
        let fe_so = so.total_engine_stats().false_evictions;
        assert!(
            fe_so < fe_orig || fe_orig == 0,
            "selective ({fe_so}) must not falsely evict more than original ({fe_orig})"
        );
    }

    #[test]
    fn bgwrite_cleans_pages() {
        let r = ClusterSim::new(tiny_config(PolicyConfig::so_ao_bg(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let cleaned: u64 = r.nodes.iter().map(|n| n.bg_cleaned_pages).sum();
        assert!(cleaned > 0, "background writer must run in the bg window");
    }

    #[test]
    fn adaptive_page_in_replays_pages() {
        let r = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let stats = r.total_engine_stats();
        assert!(stats.recorded_pages > 0, "switch evictions are recorded");
        assert!(
            stats.replayed_pages > 0,
            "records are replayed as bulk reads"
        );
    }

    #[test]
    fn gauge_sampling_is_opt_in_and_does_not_perturb_outcomes() {
        let plain = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let mut cfg = tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
        cfg.sample_every = Some(SimDur::from_secs(5));
        let sink = agp_obs::shared(agp_obs::Collector::new());
        let link = agp_obs::ObsLink::to(sink.clone());
        let mut sim = ClusterSim::new(cfg).unwrap();
        sim.attach_observer(&link);
        let sampled = sim.run().unwrap();
        let c = sink.lock().unwrap();
        assert!(c.counters.gauge_samples > 0, "cadence must deliver gauges");
        // Sampling adds observation events but must not change the physics.
        assert_eq!(plain.makespan, sampled.makespan);
        assert_eq!(plain.total_pages_in(), sampled.total_pages_in());
        assert_eq!(plain.switches, sampled.switches);
        assert!(
            sampled.events > plain.events,
            "sample ticks pass through the event loop"
        );
    }

    #[test]
    fn sampling_without_observer_schedules_nothing() {
        let mut cfg = tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
        cfg.sample_every = Some(SimDur::from_secs(5));
        let r = ClusterSim::new(cfg).unwrap().run().unwrap();
        let plain = ClusterSim::new(tiny_config(PolicyConfig::full(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.events, plain.events, "no observer, no sample events");
    }

    #[test]
    fn gauge_sampled_traces_are_byte_identical_and_tagged() {
        let cfg = || {
            let mut c = tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
            c.sample_every = Some(SimDur::from_secs(5));
            c
        };
        let (_, ta) = run_traced(cfg());
        let (_, tb) = run_traced(cfg());
        assert_eq!(agp_obs::trace_diff(&ta, &tb), None);
        assert!(ta.contains("\"ev\":\"node_gauge\""));
        assert!(ta.contains("\"ev\":\"proc_gauge\""));
    }

    // ------------------------------------------------------------------
    // Chaos: fault injection & recovery
    // ------------------------------------------------------------------

    use agp_faults::{FaultPlan, FaultSpec};

    /// Collector-backed run helper for counter assertions.
    fn run_collected(cfg: ClusterConfig) -> (RunResult, agp_obs::ObsCounters) {
        let sink = agp_obs::shared(agp_obs::Collector::new());
        let link = agp_obs::ObsLink::to(sink.clone());
        let mut sim = ClusterSim::new(cfg).unwrap();
        sim.attach_observer(&link);
        let r = sim.run().unwrap();
        let counters = sink.lock().unwrap().counters;
        (r, counters)
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        // The zero-behavioural-diff guarantee: attaching an injector with
        // no fault specs must not move a single event.
        let plain = parallel_cfg();
        let mut chaos = parallel_cfg();
        chaos.faults = Some(FaultPlan::empty(99));
        let (ra, ta) = run_traced(plain);
        let (rb, tb) = run_traced(chaos);
        assert_eq!(ra.makespan, rb.makespan);
        assert_eq!(ra.events, rb.events);
        assert_eq!(agp_obs::trace_diff(&ta, &tb), None);
        assert_eq!(ta, tb);
    }

    #[test]
    fn chaos_same_seed_traces_are_byte_identical() {
        let cfg = || {
            let mut c = parallel_cfg();
            c.faults = Some(FaultPlan::smoke(42));
            c
        };
        let (ra, ta) = run_traced(cfg());
        let (rb, tb) = run_traced(cfg());
        assert_eq!(ra.makespan, rb.makespan);
        assert_eq!(agp_obs::trace_diff(&ta, &tb), None);
        assert_eq!(ta, tb);
        assert!(
            ta.contains("\"ev\":\"disk_error\"") || ta.contains("\"ev\":\"disk_slowdown\""),
            "the smoke plan must actually inject disk faults"
        );
    }

    #[test]
    fn node_crash_requeues_jobs_and_completes() {
        let base = ClusterSim::new(parallel_cfg()).unwrap().run().unwrap();
        let mid = base.makespan.as_us() / 3;
        let mut plan = FaultPlan::empty(7);
        plan.faults.push(FaultSpec::NodeCrash {
            node: 1,
            at_us: mid,
            down_us: mid / 2,
        });
        plan.faults.push(FaultSpec::MemPressure {
            node: 0,
            at_us: mid / 2,
            pages: 256,
        });
        let mut cfg = parallel_cfg();
        cfg.faults = Some(plan);
        // Both jobs have a rank on node 1: the crash suspends both and
        // the restart requeues both. The run must complete — with the
        // restarted-from-scratch work on top of the baseline.
        let (r, c) = run_collected(cfg);
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(c.fault_node_crashes, 1);
        assert_eq!(c.fault_node_restarts, 1);
        assert_eq!(c.fault_jobs_requeued, 2);
        assert!(c.fault_mem_pressure_pages > 0);
        assert!(
            r.makespan > base.makespan,
            "requeued jobs restart from iteration 0: {} vs {}",
            r.makespan,
            base.makespan
        );
    }

    #[test]
    fn injected_disk_errors_retry_and_stats_cohere() {
        let mut plan = FaultPlan::empty(5);
        // The window must span the first gang switch (quantum = 10s) —
        // both jobs fit cold-start in memory, so earlier instants see no
        // disk traffic at all.
        plan.faults.push(FaultSpec::DiskErrors {
            node: 0,
            p: 1.0,
            from_us: 0,
            until_us: 30_000_000,
        });
        let mut cfg = tiny_config(PolicyConfig::original(), ScheduleMode::Gang);
        cfg.faults = Some(plan);
        let (r, c) = run_collected(cfg);
        let disk = &r.nodes[0].disk;
        assert!(disk.errors > 0, "the window must catch live requests");
        assert_eq!(
            c.fault_disk_errors, disk.errors,
            "collector and DiskStats must agree on the error count"
        );
        assert_eq!(
            c.fault_io_retries, c.fault_disk_errors,
            "every failed attempt is followed by exactly one retry"
        );
        // Errored attempts move no pages: the activity trace (successful
        // completions only) still reconciles with the disk page counters.
        let tr = r.merged_trace();
        assert_eq!(tr.total_in(), r.total_pages_in());
        assert_eq!(tr.total_out(), r.total_pages_out());
    }

    #[test]
    fn repeated_disk_errors_degrade_adaptive_page_in() {
        let mut plan = FaultPlan::empty(11);
        plan.faults.push(FaultSpec::DiskErrors {
            node: 0,
            p: 1.0,
            from_us: 0,
            until_us: 30_000_000,
        });
        let mut cfg = tiny_config(PolicyConfig::full(), ScheduleMode::Gang);
        cfg.faults = Some(plan);
        let (r, c) = run_collected(cfg);
        assert_eq!(
            c.fault_ai_degrades, 1,
            "ai falls back to demand paging exactly once per node"
        );
        assert!(
            c.fault_disk_errors
                >= u64::from(agp_faults::RecoveryPolicy::default().ai_degrade_after)
        );
        assert_eq!(r.jobs.len(), 2, "degraded run still completes");
    }

    #[test]
    fn dropped_barrier_releases_time_out_and_reissue() {
        let mut plan = FaultPlan::empty(3);
        plan.faults.push(FaultSpec::BarrierDrops {
            job: 0,
            p: 1.0,
            from_us: 0,
            until_us: u64::MAX,
        });
        plan.recovery.barrier_timeout_us = 100_000;
        plan.recovery.barrier_retries = 1;
        let base = ClusterSim::new(parallel_cfg()).unwrap().run().unwrap();
        let mut cfg = parallel_cfg();
        cfg.faults = Some(plan);
        let (r, c) = run_collected(cfg);
        assert!(
            c.fault_barrier_timeouts > 0,
            "every release of job 0 is dropped and must time out"
        );
        assert!(
            r.makespan > base.makespan,
            "barrier stalls must cost wall time: {} vs {}",
            r.makespan,
            base.makespan
        );
    }

    #[test]
    fn typed_errors_carry_the_failure_class() {
        // A plan referencing a node outside the cluster is a config error.
        let mut cfg = tiny_config(PolicyConfig::original(), ScheduleMode::Gang);
        let mut plan = FaultPlan::empty(1);
        plan.faults.push(FaultSpec::MemPressure {
            node: 64,
            at_us: 1,
            pages: 1,
        });
        cfg.faults = Some(plan);
        match ClusterSim::new(cfg).map(|_| ()) {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("fault plan"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Node crashes need a scheduler that can compact; batch has none.
        let mut cfg = tiny_config(PolicyConfig::original(), ScheduleMode::Batch);
        let mut plan = FaultPlan::empty(1);
        plan.faults.push(FaultSpec::NodeCrash {
            node: 0,
            at_us: 1,
            down_us: 1,
        });
        cfg.faults = Some(plan);
        match ClusterSim::new(cfg).map(|_| ()) {
            Err(SimError::FaultPlan(msg)) => assert!(msg.contains("gang"), "{msg}"),
            other => panic!("expected FaultPlan error, got {other:?}"),
        }
        // The legacy string bridge renders the same text as Display.
        let e = SimError::FaultPlan("x".into());
        let s: String = e.clone().into();
        assert_eq!(s, e.to_string());
    }

    #[test]
    fn traces_capture_paging_activity() {
        let r = ClusterSim::new(tiny_config(PolicyConfig::original(), ScheduleMode::Gang))
            .unwrap()
            .run()
            .unwrap();
        let tr = r.merged_trace();
        assert!(tr.total_in() > 0);
        assert_eq!(tr.total_in(), r.total_pages_in());
        assert_eq!(tr.total_out(), r.total_pages_out());
    }
}

//! `agp-perf`: host-performance self-profiler for the simulator.
//!
//! The paging simulator is measured on two clocks. *Simulated* time is
//! the deterministic event-queue clock that every figure and parity
//! manifest is built on. *Host* time is how long the simulator itself
//! takes to produce them — the thing the ROADMAP's speed campaign needs
//! to see and the wall-clock regression gate needs to pin. This crate
//! owns the host clock.
//!
//! Design:
//!
//! * A **static span registry** ([`Span`]) names every instrumented hot
//!   path with a dense id; see `span.rs` for the taxonomy.
//! * An explicit-clock **[`Recorder`]** does all accounting (inclusive /
//!   exclusive / histogram / stack paths) and is testable without any
//!   real clock; see `recorder.rs`.
//! * This module adds the thin process-global layer: a runtime on/off
//!   gate, a thread-local recorder, and the RAII [`scope`] guard the
//!   instrumented crates call.
//!
//! Determinism contract: profiling is **off by default**, and nothing a
//! guard measures ever feeds back into simulation state — with spans
//! enabled, ObsEvent traces are byte-identical to profiler-off runs
//! (pinned by tests here and at the workspace root). The disabled path
//! is one relaxed atomic load and a branch, cheap enough to leave the
//! guards compiled into release builds unconditionally.
//!
//! This crate is the sanctioned home of `Instant::now` in the workspace;
//! `agp-lint` rejects the wall-clock allowance anywhere else (outside
//! the documented CLI/bench sites).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prom;
pub mod recorder;
pub mod report;
pub mod span;

pub use prom::render_prometheus;
pub use recorder::{NsHistogram, PathStat, Recorder, SpanStat};
pub use report::{Derived, PathAgg, PerfReport, SpanAgg, COLLAPSED_ROOT};
pub use span::{Span, ALL_SPANS, SPAN_COUNT};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide gate. Off by default; flipped by [`enable`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic epoch all timestamps are relative to, pinned on first use
/// so nanosecond deltas fit comfortably in `u64`.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Process-wide aggregate that per-thread recorders fold into via
/// [`flush`]. Simulations may run on worker threads (the experiment
/// runners fan configurations out one thread each), so the thread that
/// calls [`take_report`] is not necessarily the thread that recorded.
static GLOBAL: OnceLock<Mutex<Recorder>> = OnceLock::new();

fn global() -> &'static Mutex<Recorder> {
    GLOBAL.get_or_init(|| Mutex::new(Recorder::new()))
}

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn profiling on or off for the whole process.
///
/// Recorders are thread-local: enable before the run, then call
/// [`take_report`] on the same thread that did the work.
pub fn enable(on: bool) {
    if on {
        // Pin the epoch outside any measured region.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether profiling is currently enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII span guard returned by [`scope`]; records the exit on drop.
///
/// A guard armed while profiling was on records its exit even if
/// profiling is disabled before it drops, so frames always balance.
#[must_use = "the span ends when this guard drops"]
pub struct ScopeGuard {
    armed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.armed {
            let t = now_ns();
            RECORDER.with(|r| r.borrow_mut().exit(t));
        }
    }
}

/// Open a profiling span on the current thread.
///
/// When profiling is disabled this is one relaxed atomic load and a
/// branch (the guard drops as a no-op); the benchmark's untraced passes
/// run with every guard in place.
#[inline]
pub fn scope(span: Span) -> ScopeGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return ScopeGuard { armed: false };
    }
    let t = now_ns();
    RECORDER.with(|r| r.borrow_mut().enter(span, t));
    ScopeGuard { armed: true }
}

/// Fold the current thread's recorder into the process aggregate and
/// reset it. The instrumented simulator calls this as its root span
/// unwinds, so work done on worker threads is not lost; a no-op when
/// this thread recorded nothing.
pub fn flush() {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        if rec.is_empty() {
            return;
        }
        let local = std::mem::take(&mut *rec);
        match global().lock() {
            Ok(mut g) => g.merge_from(&local),
            Err(poisoned) => poisoned.into_inner().merge_from(&local),
        }
    });
}

/// Snapshot and reset the process aggregate (flushing the calling
/// thread's recorder first).
///
/// Open frames (guards not yet dropped) are discarded, so call this only
/// after the instrumented region has fully unwound.
pub fn take_report() -> PerfReport {
    flush();
    let mut g = match global().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let rep = PerfReport::from_recorder(&g);
    *g = Recorder::new();
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `ENABLED` is process-global while recorders are thread-local, so
    /// tests that flip the gate must not interleave.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_scope_records_nothing() {
        let _g = GATE.lock().unwrap();
        enable(false);
        let _ = take_report(); // clear anything a prior test left behind
        {
            let _s = scope(Span::SimDispatch);
        }
        let rep = take_report();
        assert!(rep.spans.is_empty());
        assert_eq!(rep.unbalanced_exits, 0);
    }

    #[test]
    fn enabled_scopes_aggregate_and_reset_on_take() {
        let _g = GATE.lock().unwrap();
        enable(true);
        let _ = take_report();
        {
            let _run = scope(Span::Run);
            for _ in 0..4 {
                let _d = scope(Span::SimDispatch);
            }
        }
        enable(false);
        let rep = take_report();
        let dispatch = rep
            .spans
            .iter()
            .find(|a| a.span == Span::SimDispatch)
            .expect("dispatch span recorded");
        assert_eq!(dispatch.count, 4);
        let run = rep.spans.iter().find(|a| a.span == Span::Run).unwrap();
        assert_eq!(run.count, 1);
        assert!(run.incl_ns >= dispatch.incl_ns);
        assert_eq!(rep.total_self_ns(), run.incl_ns);
        // take_report reset the recorder.
        assert!(take_report().spans.is_empty());
    }

    #[test]
    fn worker_thread_samples_survive_via_flush() {
        let _g = GATE.lock().unwrap();
        enable(true);
        let _ = take_report();
        std::thread::spawn(|| {
            {
                let _s = scope(Span::Run);
            }
            flush();
        })
        .join()
        .unwrap();
        enable(false);
        let rep = take_report();
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].span, Span::Run);
    }

    #[test]
    fn guard_armed_before_disable_still_balances() {
        let _g = GATE.lock().unwrap();
        enable(true);
        let _ = take_report();
        {
            let _s = scope(Span::Run);
            enable(false);
        }
        let rep = take_report();
        assert_eq!(rep.unbalanced_exits, 0);
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].count, 1);
    }
}

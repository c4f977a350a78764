//! The parallel phase-2 engine: fans the driver's per-rule slice loop
//! out over scoped worker threads pulling from a shared work queue, then
//! merges results deterministically.
//!
//! TAJ's phase 2 is embarrassingly parallel across rules: every rule's
//! slice is an independent demand-driven traversal over the shared,
//! immutable phase-1 artifacts (points-to solution, call graph, heap
//! graph, escape/MHP) and the pass's shared def-use index. The engine here is deliberately `std`-only — scoped
//! threads (`std::thread::scope`), an `AtomicUsize` unit cursor as the
//! work queue, and an `mpsc` channel to collect results — so the
//! workspace keeps building offline from `vendor/` with no new
//! dependencies.
//!
//! ## Determinism contract
//!
//! The engine never lets scheduling order reach the output:
//!
//! 1. The **unit list is fixed before any worker starts**: one unit per
//!    rule, never a function of the thread count.
//! 2. Workers **steal unit indices** from a shared atomic cursor; each
//!    unit runs under its own [`Supervisor::fresh_meters`] handle
//!    (shared cancellation token and deadline, private step/memory
//!    meters), so budget trips are a per-unit-deterministic function of
//!    the unit's input.
//! 3. Results are **merged by unit index**, not completion order. The
//!    merge in `driver::run_phase2` keeps the prefix of units up to and
//!    including the first abnormal one (supervisor interrupt or
//!    out-of-budget error) and drops the rest — exactly the sequential
//!    engine's "stop at the first interrupt" break semantics.
//!
//! See `docs/parallel.md` for the full argument, including why the
//! report byte-stream is identical at every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use taj_obs::Recorder;

#[cfg(doc)]
use taj_supervise::Supervisor;

/// Resolves a requested thread count: `0` means auto — the `TAJ_THREADS`
/// environment variable if set to a positive integer (CI's thread-matrix
/// job uses this to force every `RunOptions::default()` run onto a given
/// count), else one worker per available core (falling back to 1 when
/// parallelism cannot be queried). Any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if let Some(n) = std::env::var("TAJ_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        if n != 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Order-preserving parallel indexed map: computes `f(0..len)` on up to
/// `threads` scoped workers and returns the results in index order.
///
/// Workers self-schedule by stealing the next index from a shared atomic
/// cursor, so a slow unit never blocks the queue behind it. With
/// `threads <= 1` (or a single element) the closure runs inline on the
/// caller's thread — the sequential reference path is the same code that
/// feeds the merge, not a separate engine.
///
/// A panicking closure propagates out of the scope after the remaining
/// workers drain, preserving the sequential engine's panic behavior
/// (relevant for `taj_failpoints`' `Panic` action).
pub fn par_map<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = threads.min(len);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut out: Vec<Option<T>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                // A closed channel means the collector stopped listening
                // (it only stops after receiving everything or a panic);
                // either way there is nothing left to do.
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Collect on the calling thread; the loop ends when every worker
        // has dropped its sender (normally or by panicking).
        for (i, v) in rx {
            out[i] = Some(v);
        }
    });
    out.into_iter().map(|v| v.expect("every unit completed")).collect()
}

/// When one unit of a [`par_map_timed`] call ran, as measured on the
/// worker that executed it: start offset (microseconds since the
/// recorder's epoch) and duration. All zeros when the recorder is
/// disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitTiming {
    /// Microseconds since the recorder's epoch at unit start.
    pub start_us: u64,
    /// Measured unit duration in microseconds.
    pub dur_us: u64,
}

/// [`par_map`] with per-unit wall-clock measurement: each result is
/// paired with the [`UnitTiming`] of the worker that ran it. The timing
/// is only *measured* here — recording it as a span is the caller's job,
/// done during the deterministic index-order merge, so scheduling can
/// never change which units appear in the trace. With a disabled
/// recorder no clocks are read at all (the cheap-when-disabled
/// discipline).
pub fn par_map_timed<T, F>(
    threads: usize,
    len: usize,
    recorder: &Recorder,
    f: F,
) -> Vec<(T, UnitTiming)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let enabled = recorder.is_enabled();
    par_map(threads, len, move |i| {
        if !enabled {
            return (f(i), UnitTiming::default());
        }
        let start_us = recorder.now_us();
        let started = Instant::now();
        let value = f(i);
        (value, UnitTiming { start_us, dur_us: started.elapsed().as_micros() as u64 })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        for threads in [1, 2, 4, 8] {
            let got = par_map(threads, 100, |i| i * i);
            assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_caps_workers_at_len() {
        // More threads than work must not deadlock or drop results.
        assert_eq!(par_map(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn par_map_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            par_map(4, 16, |i| {
                if i == 5 {
                    panic!("unit 5 failed");
                }
                i
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn par_map_timed_disabled_recorder_yields_zero_timings() {
        let rec = Recorder::disabled();
        for threads in [1, 4] {
            let got = par_map_timed(threads, 8, &rec, |i| i * 2);
            assert_eq!(
                got.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
                vec![0, 2, 4, 6, 8, 10, 12, 14]
            );
            assert!(got.iter().all(|(_, t)| t.start_us == 0 && t.dur_us == 0), "threads={threads}");
        }
    }

    #[test]
    fn par_map_timed_enabled_recorder_measures() {
        let rec = Recorder::new();
        let got = par_map_timed(2, 4, &rec, |i| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            i
        });
        assert!(got.iter().all(|(_, t)| t.dur_us > 0), "{got:?}");
    }
}

//! The compiler's only thread start. A search call ([`crate::optimize_app`])
//! is two dependent fan-outs of independent units — the assignment
//! searches, then the schedule builds their winners need — with a plain
//! reduction on the caller between them. Emission
//! (`prem_codegen::emit_prem_c`) is the third caller: one unit per distinct
//! `(fingerprint, solution)` key, each building its analysis once and
//! writing the blocks of every component with that key. [`fan_out`] runs
//! one of them. Nothing else in the optimizer or the emitter starts a
//! thread (`scripts/check.sh` greps both), so fan-out never nests.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work` on every unit index in `0..units`: the caller plus
/// `min(threads, units) − 1` scoped workers pull indices from one atomic
/// counter. Returns the results in unit order, so the order units ran in
/// never shows, and the number of workers spawned (the caller is not
/// counted). A panicking unit resurfaces on the caller once every worker
/// has stopped.
pub fn fan_out<T: Send>(
    threads: usize,
    units: usize,
    work: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, usize) {
    let spawned = threads.min(units).saturating_sub(1);
    let next = AtomicUsize::new(0);
    let pull = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units {
                return done;
            }
            done.push((i, work(i)));
        }
    };
    let mut parts = std::thread::scope(|s| {
        let workers: Vec<_> = (0..spawned).map(|_| s.spawn(pull)).collect();
        let mut parts = pull();
        for w in workers {
            match w.join() {
                Ok(part) => parts.extend(part),
                Err(panic) => resume_unwind(panic),
            }
        }
        parts
    });
    parts.sort_unstable_by_key(|&(i, _)| i);
    (parts.into_iter().map(|(_, t)| t).collect(), spawned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_unit_order_whatever_the_thread_count() {
        for threads in [0, 1, 2, 3, 8] {
            for units in 0..=64 {
                let (squares, spawned) = fan_out(threads, units, |i| i * i);
                let want: Vec<usize> = (0..units).map(|i| i * i).collect();
                assert_eq!(squares, want, "{threads} threads, {units} units");
                assert_eq!(spawned, threads.min(units).saturating_sub(1));
            }
        }
    }

    #[test]
    fn each_thread_runs_units_and_no_more_threads_do() {
        let distinct = |ids: Vec<ThreadId>| ids.into_iter().collect::<HashSet<_>>().len();
        for threads in [1, 2, 3, 8] {
            // Each unit waits for all the others, so every thread runs one.
            let barrier = Barrier::new(threads);
            let (ran_on, _) = fan_out(threads, threads, |_| {
                barrier.wait();
                std::thread::current().id()
            });
            assert_eq!(distinct(ran_on), threads);
            let (ran_on, _) = fan_out(threads, 64, |_| std::thread::current().id());
            assert!(distinct(ran_on) <= threads, "{threads} threads");
        }
    }

    /// Runs two units on two threads, one each (each unit waits until the
    /// other thread has pulled its own), and panics in the caller's unit or
    /// in the worker's.
    fn panics_in(callers_unit: bool) -> bool {
        let caller = std::thread::current().id();
        let pulled = [AtomicBool::new(false), AtomicBool::new(false)];
        catch_unwind(AssertUnwindSafe(|| {
            fan_out(2, 2, |_| {
                let on_caller = std::thread::current().id() == caller;
                pulled[usize::from(on_caller)].store(true, Ordering::SeqCst);
                while !pulled[usize::from(!on_caller)].load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                assert_ne!(on_caller, callers_unit, "deliberate unit panic");
            })
        }))
        .is_err()
    }

    #[test]
    fn a_panicking_unit_resurfaces_on_the_caller() {
        assert!(panics_in(true), "the caller's unit");
        assert!(panics_in(false), "a worker's unit");
        for threads in [1, 2, 4] {
            for bad in [0, 7, 31] {
                let ran = catch_unwind(|| fan_out(threads, 32, |i| assert_ne!(i, bad)));
                assert!(ran.is_err(), "{threads} threads, unit {bad}");
            }
        }
    }
}

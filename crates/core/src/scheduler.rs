//! The search's one worker pool. A search call — one component
//! ([`crate::SearchEngine`]) or a whole program ([`crate::optimize_app`]) —
//! is two dependent waves of independent units: the assignment searches,
//! then the schedule builds their winners need. [`two_waves`] runs both on
//! one scoped pool: the caller plus at most `threads − 1` spawned workers,
//! each pulling unit indices from an atomic counter. Nothing else in the
//! crate starts a thread (`scripts/check.sh` greps for it), so search
//! fan-out never nests.
//!
//! Results travel by value — wave-one parts over a channel to the caller,
//! wave-two parts through the join handles — and are merged by unit index,
//! so the order units ran in never shows. A panicking unit, on any thread,
//! resurfaces as a panic on the caller once every worker has stopped.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// What [`two_waves`] hands back.
pub(crate) struct Waves<P, B> {
    /// What `between` made of the first wave.
    pub plan: P,
    /// The second wave's results, in unit order.
    pub second: Vec<B>,
    /// Worker threads spawned (the caller is not counted).
    pub spawned: usize,
}

/// Pulls unit indices from `next` until `units` are handed out, running
/// `work` on each; returns `(index, result)` pairs.
fn pull<T>(next: &AtomicUsize, units: usize, work: impl Fn(usize) -> T) -> Vec<(usize, T)> {
    let mut done = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= units {
            return done;
        }
        done.push((i, work(i)));
    }
}

/// The results of `parts`, ordered by unit index.
fn merged<T>(mut parts: Vec<(usize, T)>) -> Vec<T> {
    parts.sort_unstable_by_key(|&(i, _)| i);
    parts.into_iter().map(|(_, t)| t).collect()
}

/// Runs `first` units of `work1`, hands their results (in unit order) to
/// `between` on the caller, which returns a plan and the number of
/// second-wave units, then runs those units of `work2` against the plan.
/// Both waves share one pool of `threads` threads: the caller and
/// `threads − 1` spawned workers (none for `threads ≤ 1`).
pub(crate) fn two_waves<A, P, B, W1, W2>(
    threads: usize,
    first: usize,
    work1: W1,
    between: impl FnOnce(Vec<A>) -> (P, usize),
    work2: W2,
) -> Waves<P, B>
where
    A: Send,
    B: Send,
    P: Send + Sync,
    W1: Fn(usize) -> A + Sync,
    W2: Fn(&P, usize) -> B + Sync,
{
    let spawned = threads.saturating_sub(1);
    let (next1, next2) = (AtomicUsize::new(0), AtomicUsize::new(0));
    // Set once by the caller between the waves, before any worker is woken.
    let plan: OnceLock<(P, usize)> = OnceLock::new();
    let second = std::thread::scope(|s| {
        let (parts_tx, parts_rx) = mpsc::channel();
        let mut wake = Vec::with_capacity(spawned);
        let mut workers = Vec::with_capacity(spawned);
        for _ in 0..spawned {
            let parts_tx = parts_tx.clone();
            let (wake_tx, wake_rx) = mpsc::channel::<()>();
            wake.push(wake_tx);
            let (next1, next2, plan, work1, work2) = (&next1, &next2, &plan, &work1, &work2);
            workers.push(s.spawn(move || {
                // A send fails only when the caller is unwinding.
                if parts_tx.send(pull(next1, first, work1)).is_err() {
                    return Vec::new();
                }
                drop(parts_tx);
                // Woken only once the plan is set; a dropped sender means
                // the caller gave up on the second wave.
                let (Ok(()), Some((p, units))) = (wake_rx.recv(), plan.get()) else {
                    return Vec::new();
                };
                pull(next2, *units, |i| work2(p, i))
            }));
        }
        drop(parts_tx);
        let mut parts = pull(&next1, first, &work1);
        // Ends when every worker has sent its part or died trying.
        parts.extend(parts_rx.iter().flatten());
        if parts.len() < first {
            // A worker panicked: stop the others and rethrow its panic.
            drop(wake);
            for w in workers {
                if let Err(panic) = w.join() {
                    resume_unwind(panic);
                }
            }
            unreachable!("a first-wave unit went missing without a panic");
        }
        let (p, units) = plan.get_or_init(|| between(merged(parts)));
        for w in &wake {
            // A worker that already exited needs no wake-up.
            let _ = w.send(());
        }
        let mut done = pull(&next2, *units, |i| work2(p, i));
        for w in workers {
            match w.join() {
                Ok(part) => done.extend(part),
                Err(panic) => resume_unwind(panic),
            }
        }
        done
    });
    let Some((plan, units)) = plan.into_inner() else {
        unreachable!("the scope returned without setting the plan");
    };
    debug_assert_eq!(second.len(), units, "a second-wave unit went missing");
    Waves {
        plan,
        second: merged(second),
        spawned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::catch_unwind;

    /// Squares `first` units, sums them between the waves, then adds each
    /// second-wave index to the sum; also reports the threads that ran the
    /// first wave.
    fn run(threads: usize, first: usize) -> (Waves<u64, u64>, usize) {
        let mut ran_on = 0;
        let waves = two_waves(
            threads,
            first,
            |i| (i as u64 * i as u64, std::thread::current().id()),
            |squares: Vec<(u64, std::thread::ThreadId)>| {
                ran_on = squares
                    .iter()
                    .map(|&(_, id)| id)
                    .collect::<HashSet<_>>()
                    .len();
                (squares.iter().map(|&(v, _)| v).sum::<u64>(), first / 2)
            },
            |&sum, i| sum + i as u64,
        );
        (waves, ran_on)
    }

    #[test]
    fn results_come_back_in_unit_order_whatever_the_thread_count() {
        for threads in [0, 1, 2, 3, 8] {
            for first in [0, 1, 5, 64] {
                let (waves, ran_on) = run(threads, first);
                let sum: u64 = (0..first as u64).map(|i| i * i).sum();
                assert_eq!(waves.plan, sum);
                let want: Vec<u64> = (0..first as u64 / 2).map(|i| sum + i).collect();
                assert_eq!(waves.second, want, "{threads} threads, {first} units");
                assert_eq!(waves.spawned, threads.saturating_sub(1));
                assert!(ran_on <= threads.max(1), "{ran_on} threads ran");
            }
        }
    }

    #[test]
    fn a_panicking_unit_resurfaces_on_the_caller() {
        for threads in [1, 2, 4] {
            for bad in [0, 7, 31] {
                let first_wave = catch_unwind(|| {
                    two_waves(
                        threads,
                        32,
                        |i| assert_ne!(i, bad, "unit {i}"),
                        |_| ((), 32),
                        |_, _| (),
                    )
                });
                assert!(first_wave.is_err(), "{threads} threads, unit {bad}");
                let second_wave = catch_unwind(|| {
                    two_waves(threads, 32, |_| (), |_| ((), 32), |_, i| assert_ne!(i, bad))
                });
                assert!(second_wave.is_err(), "{threads} threads, unit {bad}");
            }
            let between = catch_unwind(|| {
                two_waves(
                    threads,
                    8,
                    |_| (),
                    |_| -> ((), usize) { panic!("plan") },
                    |_, _| (),
                )
            });
            assert!(between.is_err(), "{threads} threads");
        }
    }
}

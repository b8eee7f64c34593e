//! Thread budget and job runner: the workspace's only thread pool.
//!
//! The campaign layer owns the thread count (`--threads`); no layer
//! spawns a pool of its own. Every parallel loop of the workspace —
//! sweep scenarios, `validate` pairs and injection cells, exact and
//! analytic word shards, injection trials, the images of a [`Conv2d`]
//! batch — hands its independent jobs to [`run_jobs`], which spreads
//! them over a thread count and returns the results in job order.
//!
//! The budget travels as a thread-local: [`with_budget`] gives a
//! closure `n` threads, and [`run_jobs`] runs each of its workers under
//! an even share of its own thread count, so a job that fans out again
//! (a scenario sharding its words, a trial scoring a batch) spends
//! only its share.
//!
//! Determinism contract: a job's result depends only on the job, and
//! results come back in job order, so every output is byte-identical
//! for every thread count. Threads only change wall-clock time.
//!
//! [`Conv2d`]: crate::layers::Conv2d

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

thread_local! {
    static BUDGET: Cell<usize> = const { Cell::new(1) };
}

/// The current thread budget for batched layer execution (at least 1).
pub fn budget() -> usize {
    BUDGET.with(|b| b.get()).max(1)
}

/// Runs `f` with the execution budget set to `threads` (clamped to at
/// least 1), restoring the previous budget afterwards — also on panic.
///
/// # Example
///
/// ```
/// use dnnlife_nn::exec;
///
/// assert_eq!(exec::budget(), 1);
/// let n = exec::with_budget(4, exec::budget);
/// assert_eq!(n, 4);
/// assert_eq!(exec::budget(), 1);
/// ```
pub fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(threads.max(1))));
    f()
}

/// Resolves a requested thread count: 0 means every available core,
/// any other value is taken as is.
pub fn thread_count(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Runs every job in `jobs` through `f` on up to `threads` workers
/// (0 = all available cores) and returns the results in job order.
///
/// One worker runs the jobs inline on the calling thread. More workers
/// are scoped threads that claim jobs in order from one shared queue.
/// With `w` workers, worker `i` runs under [`with_budget`] with
/// `threads / w` threads, plus one when `i < threads % w`, so cores
/// left over when there are fewer jobs than threads go to the parallel
/// loops inside each job. Results never depend on `threads` as long as
/// each job's result depends only on the job.
///
/// Returns `None` when `cancel` is raised or a job returns `None`: no
/// worker claims a job after that, and jobs already running finish.
/// A panicking job panics the caller once every worker has stopped.
///
/// # Example
///
/// ```
/// use dnnlife_nn::exec;
///
/// let squares = exec::run_jobs((0..5u64).collect(), 2, None, |x| Some(x * x));
/// assert_eq!(squares, Some(vec![0, 1, 4, 9, 16]));
/// ```
pub fn run_jobs<J, R, F>(
    jobs: Vec<J>,
    threads: usize,
    cancel: Option<&AtomicBool>,
    f: F,
) -> Option<Vec<R>>
where
    J: Send,
    R: Send,
    F: Fn(J) -> Option<R> + Sync,
{
    let threads = thread_count(threads);
    let (total, workers) = (jobs.len(), threads.min(jobs.len()).max(1));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let stop = AtomicBool::new(false);
    let stopped =
        || stop.load(Ordering::Relaxed) || cancel.is_some_and(|flag| flag.load(Ordering::Relaxed));
    // One worker's loop: claim the next job until the queue drains or
    // the run stops; the lock is released before the job runs.
    let work = |worker: usize| {
        with_budget(
            threads / workers + usize::from(worker < threads % workers),
            || {
                let mut done = Vec::new();
                while !stopped() {
                    let Some((index, job)) =
                        queue.lock().expect("no job runs under the lock").next()
                    else {
                        break;
                    };
                    match f(job) {
                        Some(result) => done.push((index, result)),
                        None => stop.store(true, Ordering::Relaxed),
                    }
                }
                done
            },
        )
    };
    let mut done: Vec<(usize, R)> = if workers == 1 {
        work(0)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| scope.spawn(move || work(worker)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    if done.len() < total {
        return None;
    }
    done.sort_unstable_by_key(|&(index, _)| index);
    Some(done.into_iter().map(|(_, result)| result).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn budget_defaults_to_one_and_nests() {
        assert_eq!(budget(), 1);
        with_budget(3, || {
            assert_eq!(budget(), 3);
            with_budget(0, || assert_eq!(budget(), 1));
            assert_eq!(budget(), 3);
        });
        assert_eq!(budget(), 1);
    }

    #[test]
    fn budget_restored_on_panic() {
        let caught = std::panic::catch_unwind(|| with_budget(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(budget(), 1);
    }

    /// Runs `jobs` jobs that each return their index squared.
    fn squares(jobs: usize, threads: usize) -> Option<Vec<usize>> {
        run_jobs((0..jobs).collect(), threads, None, |i| Some(i * i))
    }

    /// Jobs that each own one disjoint output block — the conv
    /// layer's batch shape — writing `image * 100 + offset`.
    fn blocks(images: usize, threads: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; images * 5];
        let jobs: Vec<_> = out.chunks_mut(5).enumerate().collect();
        run_jobs(jobs, threads, None, |(image, block)| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = (image * 100 + i) as f32;
            }
            Some(())
        })
        .expect("no cancel flag and no failing job");
        out
    }

    #[test]
    fn results_come_back_in_job_order_at_every_thread_count() {
        let jobs = 23;
        let want: Vec<usize> = (0..jobs).map(|i| i * i).collect();
        let want_blocks: Vec<f32> = (0..jobs * 5)
            .map(|i| ((i / 5) * 100 + i % 5) as f32)
            .collect();
        for threads in [0, 1, 2, 3, jobs + 5] {
            assert_eq!(
                squares(jobs, threads),
                Some(want.clone()),
                "{threads} threads"
            );
            assert_eq!(blocks(jobs, threads), want_blocks, "{threads} threads");
        }
    }

    #[test]
    fn an_empty_job_list_returns_no_results() {
        for threads in [0, 1, 4] {
            assert_eq!(squares(0, threads), Some(Vec::new()));
        }
    }

    #[test]
    fn workers_split_the_thread_budget() {
        // 5 threads over 2 jobs: two workers, one with 3 threads and
        // one with 2. The barrier holds each job until both have
        // started, so one worker cannot claim both.
        let barrier = std::sync::Barrier::new(2);
        let mut budgets = run_jobs(vec![(); 2], 5, None, |()| {
            barrier.wait();
            Some(budget())
        })
        .expect("no cancel flag and no failing job");
        budgets.sort_unstable();
        assert_eq!(budgets, [2, 3]);
        // One job keeps the whole budget, inline.
        assert_eq!(
            run_jobs(vec![()], 5, None, |()| Some(budget())),
            Some(vec![5])
        );
        assert_eq!(budget(), 1, "the caller's budget is restored");
    }

    #[test]
    fn a_job_returning_none_fails_the_run() {
        for threads in [1, 2, 3] {
            let out = run_jobs((0..10).collect(), threads, None, |i: usize| {
                (i != 4).then_some(i)
            });
            assert_eq!(out, None, "{threads} threads");
        }
    }

    #[test]
    fn a_cancel_raised_mid_run_stops_the_workers() {
        let jobs = 40;
        for raiser in [0, 1, 5, 20] {
            let (flag, started) = (AtomicBool::new(false), AtomicUsize::new(0));
            let out = run_jobs((0..jobs).collect(), 2, Some(&flag), |i: usize| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == raiser {
                    flag.store(true, Ordering::SeqCst);
                } else if i > raiser {
                    // Claimed after the raiser: hold until the flag is
                    // up, so the bound below cannot race.
                    while !flag.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                Some(i)
            });
            assert_eq!(out, None, "raiser {raiser}");
            let started = started.load(Ordering::SeqCst);
            assert!(
                started <= raiser + 2,
                "raiser {raiser}: {started} jobs started"
            );
        }
    }

    #[test]
    fn a_cancel_raised_before_the_call_runs_no_job() {
        let flag = AtomicBool::new(true);
        for threads in [1, 2] {
            let out = run_jobs(vec![(); 3], threads, Some(&flag), |()| -> Option<()> {
                panic!("no job may start")
            });
            assert_eq!(out, None);
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        for threads in [1, 2, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_jobs((0..6).collect(), threads, None, |i: usize| {
                    assert_ne!(i, 3, "job 3 fails");
                    Some(i)
                })
            });
            let panic = caught.expect_err("the job's panic reaches the caller");
            let message = panic.downcast_ref::<String>().map(String::as_str);
            assert!(
                message.is_some_and(|m| m.contains("job 3 fails")),
                "{message:?}"
            );
            assert_eq!(budget(), 1, "{threads} threads: budget restored");
        }
    }
}

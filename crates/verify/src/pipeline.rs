//! An ordered work pipeline: the crate's one run-ahead pool, used by the
//! explorer and by campaigns.
//!
//! One consumer submits jobs and takes each result once, by sequence
//! number; helper threads claim submitted jobs from the front and run
//! them ahead of the consumer.  When the result the consumer needs is not
//! ready, the consumer does not idle: it runs that job itself while no
//! helper has claimed it, and otherwise the front job.  Which thread runs
//! a job never shows in the results, a panic included, so a deterministic
//! consumer stays deterministic at every helper count.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// The shared queue of one pipeline; see the module documentation.
pub(crate) struct Pipeline<J, R> {
    shared: Mutex<Shared<J, R>>,
    /// Signalled when a job is submitted or the pipeline closes.
    submitted: Condvar,
    /// Signalled when a helper posts a result.
    posted: Condvar,
}

struct Shared<J, R> {
    /// The sequence number the next submitted job gets.
    next: u64,
    /// Submitted jobs no thread has claimed yet, in submission order.
    pending: VecDeque<(u64, J)>,
    /// Finished jobs' results not yet taken; a panic is kept as its
    /// payload and resumed at the job's own take.
    done: Vec<(u64, thread::Result<R>)>,
    closed: bool,
}

impl<J, R> Pipeline<J, R> {
    pub(crate) fn new() -> Pipeline<J, R> {
        Pipeline {
            shared: Mutex::new(Shared {
                next: 0,
                pending: VecDeque::new(),
                done: Vec::new(),
                closed: false,
            }),
            submitted: Condvar::new(),
            posted: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shared<J, R>> {
        // Jobs run outside the lock, and every update under it is one
        // push or pop that leaves the queue valid.  The lock is poisoned
        // only when a helper's panic resumes on the consumer while it
        // holds the guard, so the queue is recovered as it stands.
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` and returns its sequence number.
    pub(crate) fn submit(&self, job: J) -> u64 {
        let mut shared = self.lock();
        let seq = shared.next;
        shared.next += 1;
        shared.pending.push_back((seq, job));
        drop(shared);
        self.submitted.notify_one();
        seq
    }

    /// Runs jobs on a helper thread until the pipeline closes.
    pub(crate) fn serve(&self, mut run: impl FnMut(J) -> R) {
        let mut shared = self.lock();
        while !shared.closed {
            let Some((seq, job)) = shared.pending.pop_front() else {
                shared = (self.submitted.wait(shared)).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(shared);
            shared = self.post(seq, job, &mut run);
        }
    }

    /// Runs a job claimed under a lock the caller has since dropped, and
    /// posts its result, a panic included; returns the lock.
    fn post(&self, seq: u64, job: J, run: &mut impl FnMut(J) -> R) -> MutexGuard<'_, Shared<J, R>> {
        let result = panic::catch_unwind(AssertUnwindSafe(|| run(job)));
        let mut shared = self.lock();
        shared.done.push((seq, result));
        self.posted.notify_one();
        shared
    }

    /// The result of job `seq`, submitted and not yet taken.  Until it is
    /// finished this thread runs unclaimed jobs itself: `seq` while no
    /// helper has claimed it, else the front one.
    pub(crate) fn take(&self, seq: u64, mut run: impl FnMut(J) -> R) -> R {
        let mut shared = self.lock();
        loop {
            if let Some(at) = shared.done.iter().position(|(s, _)| *s == seq) {
                let (_, result) = shared.done.swap_remove(at);
                return result.unwrap_or_else(|payload| panic::resume_unwind(payload));
            }
            let at = shared.pending.iter().position(|(s, _)| *s == seq);
            let Some((claimed, job)) = shared.pending.remove(at.unwrap_or(0)) else {
                shared = (self.posted.wait(shared)).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(shared);
            if claimed == seq {
                return run(job);
            }
            shared = self.post(claimed, job, &mut run);
        }
    }

    /// Closes the pipeline when the returned guard drops — on every exit
    /// of the consumer, an unwinding one included — so the helpers stop
    /// and a thread scope around them can join.
    pub(crate) fn closing(&self) -> Closing<'_, J, R> {
        Closing(self)
    }
}

/// Closes its pipeline on drop: unclaimed jobs and untaken results are
/// dropped, and the helpers return once their current job is done.
pub(crate) struct Closing<'p, J, R>(&'p Pipeline<J, R>);

impl<J, R> Drop for Closing<'_, J, R> {
    fn drop(&mut self) {
        let mut shared = self.0.lock();
        shared.closed = true;
        shared.pending.clear();
        shared.done.clear();
        drop(shared);
        self.0.submitted.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn results_come_back_in_order_whoever_runs_them() {
        let pipeline: Pipeline<u64, u64> = Pipeline::new();
        let taken = thread::scope(|scope| {
            let _closing = pipeline.closing();
            for _ in 0..3 {
                scope.spawn(|| pipeline.serve(|n| n * n));
            }
            let seqs: Vec<u64> = (0..200).map(|n| pipeline.submit(n)).collect();
            seqs.into_iter()
                .map(|seq| pipeline.take(seq, |n| n * n))
                .collect::<Vec<_>>()
        });
        assert_eq!(taken, (0..200).map(|n| n * n).collect::<Vec<_>>());
    }

    #[test]
    fn without_helpers_the_consumer_runs_every_job() {
        let pipeline: Pipeline<u64, u64> = Pipeline::new();
        let first = pipeline.submit(1);
        let second = pipeline.submit(2);
        assert_eq!(pipeline.take(first, |n| n + 10), 11);
        assert_eq!(pipeline.take(second, |n| n + 10), 12);
    }

    #[test]
    fn a_helper_panic_resumes_on_the_consumer() {
        let pipeline: Pipeline<u64, u64> = Pipeline::new();
        let caught = thread::scope(|scope| {
            let _closing = pipeline.closing();
            let seq = pipeline.submit(7);
            scope.spawn(|| pipeline.serve(|n| panic!("job {n} failed")));
            // Wait until the helper has claimed the job, so the consumer
            // cannot run it itself.
            while !pipeline.lock().pending.is_empty() {
                thread::yield_now();
            }
            panic::catch_unwind(AssertUnwindSafe(|| pipeline.take(seq, |n| n)))
        });
        let payload = caught.expect_err("the helper's panic reaches the consumer");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 7 failed");
    }

    #[test]
    fn without_helpers_take_runs_only_the_job_it_waits_for() {
        let pipeline: Pipeline<u64, u64> = Pipeline::new();
        let first = pipeline.submit(1);
        let second = pipeline.submit(2);
        let mut ran = Vec::new();
        assert_eq!(pipeline.take(second, |n| { ran.push(n); n }), 2);
        assert_eq!(ran, [2]);
        assert_eq!(pipeline.take(first, |n| { ran.push(n); n }), 1);
        assert_eq!(ran, [2, 1]);
    }

    #[test]
    fn a_panic_the_consumer_runs_for_another_job_waits_for_its_own_take() {
        let pipeline: Pipeline<u64, u64> = Pipeline::new();
        let released = AtomicBool::new(false);
        let (waited, caught) = thread::scope(|scope| {
            let _closing = pipeline.closing();
            let slow = pipeline.submit(0);
            let failing = pipeline.submit(1);
            // The helper holds the slow job until the consumer has run the
            // failing one on the slow job's behalf.
            scope.spawn(|| {
                pipeline.serve(|n| {
                    while !released.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                    n
                });
            });
            while pipeline.lock().pending.len() > 1 {
                thread::yield_now();
            }
            let run = |n: u64| -> u64 {
                released.store(true, Ordering::Release);
                panic!("job {n} failed")
            };
            let waited = pipeline.take(slow, run);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| pipeline.take(failing, run)));
            (waited, caught)
        });
        assert_eq!(waited, 0);
        let payload = caught.expect_err("the panic comes back at its own take");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 1 failed");
    }
}

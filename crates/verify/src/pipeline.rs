//! An ordered work pipeline: the explorer's pool.
//!
//! One consumer submits jobs in order and takes their results in the same
//! order; helper threads claim submitted jobs from the front and run them
//! ahead of the consumer.  When the result the consumer needs next is not
//! ready, the consumer does not idle: it claims the front job itself, the
//! one it needs when no helper has claimed that yet.  Which thread runs a
//! job never shows in the results, so a deterministic consumer stays
//! deterministic at every helper count.

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
    /// Finished jobs' results not yet taken; a helper's panic is kept as
    /// its payload and resumed on the consumer.
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
            let result = panic::catch_unwind(AssertUnwindSafe(|| run(job)));
            shared = self.lock();
            shared.done.push((seq, result));
            self.posted.notify_one();
        }
    }

    /// The result of job `seq`, submitted and not yet taken.  Until it is
    /// finished this thread runs unclaimed jobs itself, front first, so
    /// it runs `seq` whenever no helper has claimed it.
    pub(crate) fn take(&self, seq: u64, mut run: impl FnMut(J) -> R) -> R {
        let mut shared = self.lock();
        loop {
            if let Some(at) = shared.done.iter().position(|(s, _)| *s == seq) {
                let (_, result) = shared.done.swap_remove(at);
                return result.unwrap_or_else(|payload| panic::resume_unwind(payload));
            }
            if let Some((claimed, job)) = shared.pending.pop_front() {
                drop(shared);
                let result = run(job);
                if claimed == seq {
                    return result;
                }
                shared = self.lock();
                shared.done.push((claimed, Ok(result)));
                continue;
            }
            shared = (self.posted.wait(shared)).unwrap_or_else(PoisonError::into_inner);
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
}

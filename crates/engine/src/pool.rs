//! A persistent worker pool for intra-round parallelism.
//!
//! The evaluator used to spawn a fresh `crossbeam::thread::scope` (and N
//! OS threads) for every rule batch of every fixpoint round; on workloads
//! with many small rounds the spawn/join cost dwarfed the joins being
//! parallelized. This pool spawns its `std::thread` workers **once** and
//! feeds them per-round over channels: a round dispatches a batch of jobs
//! round-robin, then blocks until every job has reported completion.
//!
//! Scoped-borrow safety: jobs may borrow the caller's stack (they capture
//! `&Evaluator`), which is sound for the same reason `std::thread::scope`
//! is — [`WorkerPool::run`] does not return until every dispatched job has
//! completed (or the pool panics), so no borrow outlives the call. The
//! lifetime erasure this requires is confined to [`WorkerPool::run`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work dispatched to a worker. Jobs report results through
/// channels they capture; the pool only tracks completion and busy time.
pub type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

/// Completion report: the job's batch index, nanoseconds the worker
/// spent on it, and the panic payload if it panicked.
struct Done {
    job: usize,
    busy_nanos: u64,
    panic: Option<String>,
}

/// A job panicked on a worker. The batch was still fully drained (every
/// job ran to completion or panic) before this was returned, so the
/// pool stays usable and no caller borrow is outstanding.
#[derive(Clone, Debug)]
pub struct JobPanic {
    /// Index of the first panicking job within its batch.
    pub job: usize,
    /// The panic payload, stringified (`&str`/`String` payloads pass
    /// through; anything else becomes a placeholder).
    pub payload: String,
}

/// Counters for one [`WorkerPool::run`] batch.
#[derive(Clone, Copy, Default, Debug)]
pub struct BatchStats {
    /// Jobs executed.
    pub jobs: u64,
    /// Sum of per-job execution time across workers, in nanoseconds.
    pub busy_nanos: u64,
    /// Wall-clock time of the whole batch, in nanoseconds.
    pub wall_nanos: u64,
}

/// Long-lived `std::thread` workers fed over channels.
pub struct WorkerPool {
    txs: Vec<Sender<(usize, StaticJob)>>,
    /// Wrapped in a `Mutex` so the pool is `Sync` (jobs capture references
    /// to structures owning the pool); batches serialize on it.
    done_rx: Mutex<Receiver<Done>>,
    handles: Vec<JoinHandle<()>>,
    /// Measured per-job dispatch + completion overhead, in nanoseconds
    /// (see [`WorkerPool::dispatch_cost_nanos`]).
    dispatch_cost_nanos: u64,
}

/// Jobs per calibration batch (see [`WorkerPool::new`]).
const CALIBRATION_JOBS: usize = 32;
/// Calibration batches; the minimum wall time is kept (scheduling noise
/// only ever inflates a batch, so the minimum is the cleanest estimate).
const CALIBRATION_BATCHES: usize = 3;

impl WorkerPool {
    /// Spawns `n` (≥ 1) workers, then runs a short calibration — a few
    /// batches of empty jobs — to measure this machine's per-job
    /// dispatch cost. The evaluator derives its serial-cutover threshold
    /// from that measurement instead of a hard-coded row count, so the
    /// "too small to parallelize" decision tracks the hardware the pool
    /// actually runs on.
    pub fn new(n: usize) -> WorkerPool {
        let n = n.max(1);
        let (done_tx, done_rx) = channel::<Done>();
        let mut txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = channel::<(usize, StaticJob)>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("semrec-worker-{i}"))
                .spawn(move || worker_main(rx, done))
                .expect("spawn pool worker");
            txs.push(tx);
            handles.push(handle);
        }
        let mut pool = WorkerPool {
            txs,
            done_rx: Mutex::new(done_rx),
            handles,
            dispatch_cost_nanos: 0,
        };
        let mut best = u64::MAX;
        for _ in 0..CALIBRATION_BATCHES {
            let jobs: Vec<Job<'_>> = (0..CALIBRATION_JOBS)
                .map(|_| Box::new(|| {}) as Job<'_>)
                .collect();
            let stats = pool.run(jobs);
            best = best.min(stats.wall_nanos / CALIBRATION_JOBS as u64);
        }
        pool.dispatch_cost_nanos = best.max(1);
        pool
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Measured cost of dispatching one (empty) job and collecting its
    /// completion, in nanoseconds: the fixed tax a batch pays per job
    /// before any useful work happens. Always ≥ 1.
    pub fn dispatch_cost_nanos(&self) -> u64 {
        self.dispatch_cost_nanos
    }

    /// Runs a batch of jobs on the pool, blocking until all complete.
    /// Jobs are distributed round-robin across workers. A panicking job
    /// is caught on its worker and surfaced as the `Err` variant —
    /// after the whole batch has drained, so the pool (and every borrow
    /// the jobs captured) is back in a consistent state either way.
    pub fn try_run(&self, jobs: Vec<Job<'_>>) -> Result<BatchStats, JobPanic> {
        let start = Instant::now();
        let n = jobs.len();
        let mut stats = BatchStats {
            jobs: n as u64,
            ..BatchStats::default()
        };
        let mut first_panic: Option<JobPanic> = None;
        {
            // A poisoned lock only means an *earlier* batch panicked on
            // the control thread mid-collection; every such batch drains
            // all of its completions before returning, so the channel is
            // consistent and the pool stays usable.
            let done_rx = self
                .done_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (i, job) in jobs.into_iter().enumerate() {
                // Lifetime erasure: sound because this function joins all
                // `n` completions below before returning, so the borrows
                // captured by `job` are still live whenever it runs.
                let job: StaticJob = unsafe { std::mem::transmute::<Job<'_>, StaticJob>(job) };
                self.txs[i % self.txs.len()]
                    .send((i, job))
                    .expect("pool worker exited early");
            }
            for _ in 0..n {
                let done = done_rx
                    .recv()
                    .expect("pool worker exited without reporting");
                stats.busy_nanos += done.busy_nanos;
                if let Some(payload) = done.panic {
                    // Keep the batch-order-first report for determinism.
                    let first = match &first_panic {
                        None => true,
                        Some(p) => done.job < p.job,
                    };
                    if first {
                        first_panic = Some(JobPanic {
                            job: done.job,
                            payload,
                        });
                    }
                }
            }
        }
        stats.wall_nanos = start.elapsed().as_nanos() as u64;
        match first_panic {
            None => Ok(stats),
            Some(p) => Err(p),
        }
    }

    /// [`WorkerPool::try_run`] for callers with no error path of their
    /// own (calibration, simple fan-outs).
    ///
    /// # Panics
    /// Panics if any job panicked on a worker.
    pub fn run(&self, jobs: Vec<Job<'_>>) -> BatchStats {
        match self.try_run(jobs) {
            Ok(stats) => stats,
            Err(p) => panic!("worker job panicked: job {}: {}", p.job, p.payload),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels lets the workers' recv loops end.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(rx: Receiver<(usize, StaticJob)>, done: Sender<Done>) {
    while let Ok((job_idx, job)) = rx.recv() {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(job));
        let report = Done {
            job: job_idx,
            busy_nanos: start.elapsed().as_nanos() as u64,
            panic: result.err().map(|payload| payload_string(payload.as_ref())),
        };
        if done.send(report).is_err() {
            return; // pool gone; nothing left to report to
        }
    }
}

/// Stringifies a caught panic payload: `panic!("...")` payloads are
/// `&str` or `String`; anything else gets a placeholder rather than
/// being dropped.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn runs_all_jobs_and_blocks_until_done() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..64)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Job<'_>
            })
            .collect();
        let stats = pool.run(jobs);
        // run() returning proves every job finished: the borrow of
        // `counter` is only safe because of that guarantee.
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(stats.jobs, 64);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 1..=5usize {
            let (tx, rx) = channel();
            let jobs: Vec<Job<'_>> = (0..round)
                .map(|i| {
                    let tx = tx.clone();
                    Box::new(move || tx.send(i).unwrap()) as Job<'_>
                })
                .collect();
            pool.run(jobs);
            drop(tx);
            let mut got: Vec<usize> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, (0..round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_from_caller_stack_are_visible() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let (tx, rx) = channel();
        let jobs: Vec<Job<'_>> = (0..4)
            .map(|w| {
                let tx = tx.clone();
                let data = &data;
                Box::new(move || {
                    let sum: u64 = data.iter().skip(w).step_by(4).sum();
                    tx.send(sum).unwrap();
                }) as Job<'_>
            })
            .collect();
        pool.run(jobs);
        drop(tx);
        let total: u64 = rx.iter().sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkerPool::new(2);
        let stats = pool.run(Vec::new());
        assert_eq!(stats.jobs, 0);
    }

    #[test]
    #[should_panic(expected = "worker job panicked")]
    fn job_panic_propagates_without_hanging() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Job<'_>> = vec![Box::new(|| panic!("boom")), Box::new(|| {})];
        pool.run(jobs);
    }

    #[test]
    fn calibration_measures_dispatch_cost() {
        let pool = WorkerPool::new(2);
        // An empty job still costs a send + a wakeup + a completion recv.
        assert!(pool.dispatch_cost_nanos() >= 1);
        // Sanity: far below a second per job on any machine.
        assert!(pool.dispatch_cost_nanos() < 1_000_000_000);
    }

    #[test]
    fn try_run_reports_first_panicking_job_and_payload() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Job<'_>> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("first boom")),
            Box::new(|| panic!("second boom {}", 7)),
        ];
        let err = pool.try_run(jobs).expect_err("jobs panicked");
        assert_eq!(err.job, 1, "lowest batch index wins");
        assert_eq!(err.payload, "first boom");
        // A non-string payload is reported, not dropped.
        let jobs: Vec<Job<'_>> = vec![Box::new(|| std::panic::panic_any(42u32))];
        let err = pool.try_run(jobs).expect_err("job panicked");
        assert_eq!(err.payload, "non-string panic payload");
        // The pool is fully usable after caught panics.
        assert_eq!(pool.run(vec![Box::new(|| {}) as Job<'_>]).jobs, 1);
    }
}

//! Bounded worker pools — the serving analogue of `core::exec`.
//!
//! `core::exec::run_work_stealing` is a *batch* executor: it spawns
//! workers for one fan-out and joins them when the batch ends. A server
//! needs the long-lived version of the same self-scheduling idea: a fixed
//! set of worker threads pulling jobs off one shared queue, so a slow job
//! delays at most the jobs behind it in the queue, never an idle worker.
//!
//! [`WorkerPool`] adds the two properties serving requires on top:
//!
//! * **A hard queue bound.** [`WorkerPool::try_submit`] never blocks and
//!   never buffers unboundedly — a full queue is an immediate
//!   [`SubmitError::QueueFull`], which the HTTP layer turns into `429`.
//!   This is the server's admission control: memory use is bounded by
//!   `workers + queue capacity` jobs regardless of offered load.
//! * **Graceful drain.** [`WorkerPool::shutdown`] stops admission, lets the
//!   workers finish every job already admitted (queued *and* in flight),
//!   then joins them — no accepted request is ever dropped on the floor.
//!
//! A job receives its [`InFlight`] claim and drops it before it makes its
//! completion visible, so no one who has seen a job finish can still count
//! it in [`WorkerPool::in_flight`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce(InFlight<'_>) + Send + 'static>;

/// A running job's share of [`WorkerPool::in_flight`], released on drop.
///
/// The worker takes it out when it picks the job up and hands it to the
/// job. A job drops it before it publishes its result; one that never
/// does releases it when it returns or panics.
pub struct InFlight<'a> {
    shared: &'a Shared,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Runs while a panicking job unwinds, so it must not panic itself;
        // every update of `State` is one field at a time, so a poisoned
        // guard still holds valid counts.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.in_flight -= 1;
    }
}

/// Why [`WorkerPool::try_submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed load (HTTP 429).
    QueueFull,
    /// The pool is draining for shutdown (HTTP 503).
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
    in_flight: usize,
    /// High-water mark of `queue.len()`, for the metrics endpoint (proves
    /// the admission bound held under overload).
    max_queue_depth: usize,
    panics: u64,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued or shutdown begins.
    work_cv: Condvar,
    queue_cap: usize,
}

/// A fixed-size pool of worker threads over one bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least 1) serving a queue bounded at
    /// `queue_cap` pending jobs (at least 1). `name` labels the threads.
    pub fn new(name: &str, workers: usize, queue_cap: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            queue_cap: queue_cap.max(1),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// Enqueue a job without blocking. Admission control lives here: a full
    /// queue or a draining pool is an immediate typed refusal. The job runs
    /// with its [`InFlight`] claim.
    pub fn try_submit(
        &self,
        job: impl FnOnce(InFlight<'_>) + Send + 'static,
    ) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("pool state lock");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        state.queue.push_back(Box::new(job));
        state.max_queue_depth = state.max_queue_depth.max(state.queue.len());
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured queue bound.
    pub fn queue_cap(&self) -> usize {
        self.shared.queue_cap
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool state lock")
            .queue
            .len()
    }

    /// Highest queue depth ever observed.
    pub fn max_queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool state lock")
            .max_queue_depth
    }

    /// Jobs currently executing on a worker.
    pub fn in_flight(&self) -> usize {
        self.shared.state.lock().expect("pool state lock").in_flight
    }

    /// Jobs that panicked (the worker survives; the panic is contained).
    pub fn panics(&self) -> u64 {
        self.shared.state.lock().expect("pool state lock").panics
    }

    /// Stop admitting jobs, finish everything already admitted (queued and
    /// in flight), and join the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handles: Vec<_> = self
            .handles
            .lock()
            .expect("pool handles lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.in_flight += 1;
                    break job;
                }
                // Drain-then-exit: queued jobs are always served before the
                // shutdown flag is honoured.
                if state.shutdown {
                    return;
                }
                state = shared.work_cv.wait(state).expect("pool cv wait");
            }
        };
        let claim = InFlight { shared };
        let run = std::panic::AssertUnwindSafe(move || job(claim));
        if std::panic::catch_unwind(run).is_err() {
            shared.state.lock().expect("pool state lock").panics += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_drain_on_shutdown() {
        let pool = WorkerPool::new("t", 3, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.try_submit(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50, "shutdown must drain");
        assert!(matches!(
            pool.try_submit(|_| {}),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn queue_bound_rejects_overflow() {
        let pool = WorkerPool::new("t", 1, 2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.try_submit(move |_| {
            let _ = release_rx.recv_timeout(Duration::from_secs(10));
        })
        .unwrap();
        // ...then fill the 2-slot queue; further submissions must bounce.
        while pool.queue_depth() < 2 {
            match pool.try_submit(|_| {}) {
                Ok(()) => {}
                Err(SubmitError::QueueFull) => break,
                Err(e) => panic!("{e}"),
            }
        }
        let mut saw_full = false;
        for _ in 0..10 {
            if pool.try_submit(|_| {}) == Err(SubmitError::QueueFull) {
                saw_full = true;
                break;
            }
        }
        assert!(saw_full, "bounded queue must reject overflow");
        assert!(pool.max_queue_depth() <= 2);
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn a_job_leaves_in_flight_before_it_publishes() {
        let pool = WorkerPool::new("t", 1, 8);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();
        pool.try_submit(move |claim| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            drop(claim);
            done_tx.send(()).unwrap();
            // still running on the worker, but no longer counted
            exit_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(pool.in_flight(), 1);
        release_tx.send(()).unwrap();
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(pool.in_flight(), 0, "seen finished, still in flight");
        exit_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new("t", 1, 8);
        pool.try_submit(|_| panic!("boom")).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.try_submit(move |_| {
            tx.send(42).unwrap();
        })
        .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 42);
        assert_eq!(pool.panics(), 1);
        pool.shutdown();
    }
}

//! The work-stealing executor: Step 2's deterministic fan-out across
//! grouping patterns.
//!
//! The paper's §5.2 optimization (ii) parallelizes intervention mining
//! across grouping patterns. A static chunking (each worker gets a
//! contiguous `1/W`-th of the groups) stalls the whole solve on the
//! slowest chunk — grouping patterns vary wildly in lattice size, so one
//! expensive group serializes its neighbours. [`run_work_stealing`]
//! replaces that with self-scheduling over a shared atomic work index:
//! every worker claims the next unclaimed task the moment it finishes its
//! current one, so imbalance is bounded by a single task rather than a
//! chunk.
//!
//! Output stays deterministic: each task writes into its own index slot,
//! so the collected results are in task order regardless of which worker
//! ran what when — the property the serial-equals-parallel ruleset tests
//! rely on.
//!
//! This is the solve's only level of parallelism: every estimate inside a
//! task runs single-threaded on its worker. Per-solve [`ExecStats`] (task
//! count, steal count, per-worker task distribution, busy/wall
//! utilization) are surfaced on the solve report, making scheduling
//! behaviour observable per request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Environment variable overriding the default Step-2 worker count (lowest
/// priority is `std::thread::available_parallelism`; highest is an
/// explicit per-call choice such as the solve request's `workers` field).
pub const WORKERS_ENV: &str = "FAIRCAP_WORKERS";

/// Scheduling statistics of one executor run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Worker threads spawned.
    pub workers: usize,
    /// Task units executed (one per grouping pattern in Step 2).
    pub tasks: usize,
    /// Tasks a worker claimed outside its notional static chunk — how much
    /// work the dynamic schedule moved relative to static chunking. Zero
    /// means static chunking would have balanced equally well.
    pub steals: u64,
    /// Tasks executed per worker, indexed by worker id.
    pub tasks_per_worker: Vec<usize>,
    /// Sum of per-worker busy time.
    pub busy: Duration,
    /// Wall-clock time of the whole fan-out.
    pub wall: Duration,
}

impl ExecStats {
    /// Mean worker utilization in `[0, 1]`: busy time over `workers × wall`.
    /// 1.0 means no worker ever idled waiting for the others.
    pub fn utilization(&self) -> f64 {
        let denom = self.workers as f64 * self.wall.as_secs_f64();
        if denom > 0.0 {
            (self.busy.as_secs_f64() / denom).min(1.0)
        } else {
            1.0
        }
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} tasks / {} workers, {} steals, {:.0}% utilization",
            self.tasks,
            self.workers,
            self.steals,
            self.utilization() * 100.0
        )
    }
}

/// Resolve the effective Step-2 worker count: the request's explicit
/// choice, else the `FAIRCAP_WORKERS` environment variable, else
/// `available_parallelism` (with a fallback of 4). Always at least 1.
pub fn resolve_workers(requested: Option<usize>) -> usize {
    requested
        .or_else(|| std::env::var(WORKERS_ENV).ok().and_then(|s| s.parse().ok()))
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Run `n_tasks` task units on `workers` threads with work stealing,
/// returning results in task order plus the run's [`ExecStats`].
///
/// Workers claim tasks from a shared atomic cursor; a task claimed by a
/// worker other than its notional static-chunk owner counts as a steal.
/// With `workers <= 1` (or fewer than two tasks) the tasks run serially on
/// the calling thread.
pub fn run_work_stealing<T, F>(n_tasks: usize, workers: usize, task: F) -> (Vec<T>, ExecStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n_tasks.max(1));
    let started = Instant::now();
    if workers <= 1 {
        let results: Vec<T> = (0..n_tasks).map(&task).collect();
        let wall = started.elapsed();
        return (
            results,
            ExecStats {
                workers: 1,
                tasks: n_tasks,
                steals: 0,
                tasks_per_worker: vec![n_tasks],
                busy: wall,
                wall,
            },
        );
    }

    // Static-chunk owner of task `i` — the worker that would have run it
    // under the old contiguous chunking; used only for steal accounting.
    let chunk = n_tasks.div_ceil(workers);
    let cursor = AtomicUsize::new(0);
    type WorkerOut<T> = (Vec<(usize, T)>, u64, Duration);
    let mut worker_outs: Vec<WorkerOut<T>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let task = &task;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let mut local = Vec::new();
                    let mut steals = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        if i / chunk != w {
                            steals += 1;
                        }
                        local.push((i, task(i)));
                    }
                    (local, steals, t0.elapsed())
                })
            })
            .collect();
        for handle in handles {
            worker_outs.push(handle.join().expect("executor worker panicked"));
        }
    });
    let wall = started.elapsed();

    let mut stats = ExecStats {
        workers,
        tasks: n_tasks,
        steals: 0,
        tasks_per_worker: vec![0; workers],
        busy: Duration::ZERO,
        wall,
    };
    // One slot per task keeps the output order deterministic regardless of
    // thread scheduling.
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    for (w, (local, steals, busy)) in worker_outs.into_iter().enumerate() {
        stats.tasks_per_worker[w] = local.len();
        stats.steals += steals;
        stats.busy += busy;
        for (i, value) in local {
            slots[i] = Some(value);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every claimed task produces a result"))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn output_order_is_task_order() {
        for workers in [1, 2, 3, 8] {
            let (out, stats) = run_work_stealing(37, workers, |i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(stats.tasks, 37);
            assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 37);
            assert_eq!(stats.workers, workers.min(37));
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let (_, stats) = run_work_stealing(1000, 8, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(stats.tasks, 1000);
    }

    #[test]
    fn uneven_tasks_get_rebalanced() {
        // Task 0 is enormously slower; the other workers must absorb the
        // rest of the queue while worker 0 is stuck on it.
        let (out, stats) = run_work_stealing(64, 4, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            i
        });
        assert_eq!(out.len(), 64);
        // Worker 0 claimed task 0 first and slept; under static chunking it
        // would also have run tasks 1..16. Dynamic scheduling moves those
        // to the other workers, which shows up as steals.
        assert!(
            stats.steals > 0,
            "slow first task must force steals, stats: {stats}"
        );
        // Whichever worker drew the slow task ran almost nothing else.
        assert!(*stats.tasks_per_worker.iter().min().unwrap() < 16);
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        let (out, stats) = run_work_stealing(0, 4, |i| i);
        assert!(out.is_empty());
        assert_eq!(stats.workers, 1);
        let (out, stats) = run_work_stealing(1, 4, |i| i + 10);
        assert_eq!(out, vec![10]);
        assert_eq!(stats.tasks, 1);
        assert_eq!(stats.workers, 1, "one task needs one worker");
    }

    #[test]
    fn utilization_is_a_fraction() {
        let (_, stats) = run_work_stealing(100, 4, |i| i);
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
        assert!(stats.to_string().contains("steals"));
    }

    #[test]
    fn resolve_workers_priority() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert!(resolve_workers(None) >= 1);
        // Zero is not a valid worker count; fall through to defaults.
        assert!(resolve_workers(Some(0)) >= 1);
    }
}

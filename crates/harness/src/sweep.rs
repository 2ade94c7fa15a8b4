//! Parallel sweep execution.
//!
//! Figure-style experiments are embarrassingly parallel: every
//! `(config, seed, scheme)` cell is an independent simulation with its
//! own `World`, engine, and RNG streams (simcore has no global state).
//! [`SweepRunner`] fans cells out over `std::thread::scope` workers —
//! no external thread-pool crate — and returns results **in cell
//! order**, so output is byte-identical regardless of worker count or
//! scheduling:
//!
//! * each cell's simulation is deterministic in isolation (seeded RNG
//!   substreams, `(time, seq)`-ordered events);
//! * workers claim cells from a shared atomic counter but write results
//!   into the cell's own slot, so collection order never depends on
//!   completion order.
//!
//! `--jobs 1` (the default) bypasses threads entirely. A determinism
//! test in `tests/` asserts serial and parallel runs produce bit-equal
//! per-cell metrics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fans independent sweep cells over a bounded set of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new(1)
    }
}

impl SweepRunner {
    /// A runner with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> SweepRunner {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// Configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluate `f` on every cell, returning results in cell order.
    ///
    /// `f` must be a pure function of its cell (it runs concurrently on
    /// worker threads). With `jobs == 1`, or a single cell, everything
    /// runs on the calling thread. A panic inside `f` propagates to the
    /// caller once all workers have stopped.
    pub fn run<C, R, F>(&self, cells: &[C], f: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(&C) -> R + Sync,
    {
        let n = cells.len();
        if self.jobs == 1 || n <= 1 {
            return cells.iter().map(&f).collect();
        }
        // One slot per cell; workers claim the next unclaimed index and
        // park their result in its slot. Per-slot mutexes are never
        // contended (exactly one worker writes each).
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&cells[i]);
                    *slots[i].lock().expect("sweep slot poisoned") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                m.into_inner()
                    .expect("sweep slot poisoned")
                    .unwrap_or_else(|| panic!("sweep cell {i} produced no result"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_preserves_order() {
        let cells: Vec<u64> = (0..10).collect();
        let out = SweepRunner::new(1).run(&cells, |&c| c * c);
        assert_eq!(out, (0..10).map(|c| c * c).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_preserves_order() {
        let cells: Vec<u64> = (0..64).collect();
        let out = SweepRunner::new(4).run(&cells, |&c| c * 3 + 1);
        assert_eq!(out, (0..64).map(|c| c * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_cells() {
        let cells = vec![1u32, 2];
        let out = SweepRunner::new(16).run(&cells, |&c| c + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_cells() {
        let out: Vec<u32> = SweepRunner::new(4).run(&Vec::<u32>::new(), |&c| c);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
    }
}

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The work-stealing thread pool (std threads + in-tree injector/stealer
//! deques; crates.io is unreachable, so no crossbeam or rayon):
//! [`run_stream`] and its collecting forms [`ordered_map`] /
//! [`ordered_map_unwrap`]. Threads are spawned per call inside
//! `std::thread::scope`, so the closure may borrow from the caller's
//! stack; the tasks are coarse (one simulation, one figure data point),
//! so the microseconds of thread spawn are noise. The sweep fleet is its
//! heaviest user.
//!
//! Architecture: all tasks start in a global FIFO *injector*; each worker
//! owns a local deque it refills from the injector in small batches and
//! works through front-to-back; a worker whose local deque and the
//! injector are both empty *steals* one task from the back of a victim's
//! deque (scanning victims in deterministic round-robin order from its own
//! slot). Tasks never re-enter a queue once claimed, so an all-empty scan
//! is a correct termination condition.
//!
//! Results stream back over an `mpsc` channel to the *caller's* thread,
//! keyed by task index, so the consumer never needs a lock and the
//! completion order is free to be nondeterministic — determinism is the
//! consumer's job (sort by index before any arithmetic).
//!
//! Panic isolation: each task runs under `catch_unwind`; a panicking task
//! yields `Err(payload)` for its index and the pool keeps running.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;

/// How many tasks a worker moves from the injector to its local deque per
/// refill. Small enough that stealing stays effective on skewed workloads.
const REFILL_BATCH: usize = 4;

/// Render a panic payload as a printable string.
fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one task under `catch_unwind`, converting a panic into `Err`.
fn run_guarded<T, R>(
    f: &(impl Fn(usize, T) -> R + Sync),
    index: usize,
    item: T,
) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| f(index, item))).map_err(payload_to_string)
}

/// The shared queues: one injector plus one deque per worker.
struct Queues<T> {
    injector: Mutex<VecDeque<(usize, T)>>,
    locals: Vec<Mutex<VecDeque<(usize, T)>>>,
}

impl<T> Queues<T> {
    /// Claim the next task for worker `w`: local front, else injector batch
    /// refill, else steal one from a victim's back. `None` = nothing left
    /// anywhere, worker may exit.
    fn claim(&self, w: usize) -> Option<(usize, T)> {
        if let Some(t) = self.locals[w].lock().expect("local deque").pop_front() {
            return Some(t);
        }
        {
            let mut inj = self.injector.lock().expect("injector");
            if let Some(first) = inj.pop_front() {
                let mut local = self.locals[w].lock().expect("local deque");
                for _ in 1..REFILL_BATCH {
                    match inj.pop_front() {
                        Some(t) => local.push_back(t),
                        None => break,
                    }
                }
                return Some(first);
            }
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some(t) = self.locals[victim].lock().expect("victim deque").pop_back() {
                return Some(t);
            }
        }
        None
    }
}

/// Fan `items` out over `jobs` worker threads and stream `(index, result)`
/// pairs into `sink` **on the calling thread**, in completion order (i.e.
/// nondeterministic for `jobs > 1`). A task that panics is delivered as
/// `Err(panic payload)` and does not disturb the other tasks or the pool.
///
/// `jobs <= 1` runs everything inline on the calling thread in index order
/// — same closure, same guarded execution, zero threads — which is the
/// fleet's `--jobs 1` sequential reference path.
pub fn run_stream<T, R, F, S>(items: Vec<T>, jobs: usize, f: &F, mut sink: S)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, Result<R, String>),
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        for (i, item) in items.into_iter().enumerate() {
            let r = run_guarded(f, i, item);
            sink(i, r);
        }
        return;
    }
    let queues = Queues {
        injector: Mutex::new(items.into_iter().enumerate().collect()),
        locals: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
    };
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let queues = &queues;
            scope.spawn(move || {
                while let Some((i, item)) = queues.claim(w) {
                    let r = run_guarded(f, i, item);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        while let Ok((i, r)) = rx.recv() {
            sink(i, r);
        }
    });
}

/// As [`run_stream`], but collect results back into input order. The output
/// always has one entry per input; panicked tasks appear as `Err`.
pub fn ordered_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    run_stream(items, jobs, &f, |i, r| {
        debug_assert!(slots[i].is_none(), "index delivered twice");
        slots[i] = Some(r);
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index delivered"))
        .collect()
}

/// As [`ordered_map`], re-raising the first (lowest-index) task panic on
/// the calling thread — the drop-in replacement for a plain parallel map
/// where a panic should still fail the program.
pub fn ordered_map_unwrap<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    ordered_map(items, jobs, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("worker task panicked: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_order_any_job_count() {
        let items: Vec<u64> = (0..53).collect();
        for jobs in [1, 2, 4, 8] {
            let out = ordered_map_unwrap(items.clone(), jobs, |_, x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        for jobs in [1, 4] {
            let out = ordered_map((0..10).collect::<Vec<u32>>(), jobs, |_, x| {
                if x == 3 {
                    panic!("task {x} exploded");
                }
                x + 1
            });
            assert_eq!(out.len(), 10);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    assert_eq!(r.as_ref().unwrap_err(), "task 3 exploded");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
                }
            }
        }
    }

    #[test]
    fn stream_delivers_every_index_exactly_once() {
        let mut seen = [0u32; 40];
        run_stream((0..40).collect::<Vec<usize>>(), 4, &|_, x| x, |i, r| {
            assert_eq!(r.unwrap(), i);
            seen[i] += 1;
        });
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn empty_input_is_fine() {
        let out = ordered_map(Vec::<u8>::new(), 8, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn skewed_workloads_get_stolen() {
        // One long task first; with 2 workers the remaining tasks must not
        // all wait behind it. We can't assert timing, but we can assert the
        // pool completes with a task distribution that required stealing
        // (the long task plus all short ones finish).
        let out = ordered_map_unwrap((0..16).collect::<Vec<u64>>(), 2, |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x
        });
        assert_eq!(out.len(), 16);
    }
}

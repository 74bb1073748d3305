//! Shared lightweight parallel runtime.
//!
//! The whole workspace is embarrassingly parallel in the same two shapes:
//! map an independent function over a list (experiment points, per-node
//! calibration), or write disjoint contiguous regions of one buffer
//! (report ingestion into matrix rows). Both are served here with scoped
//! threads and no locking on the hot path: workers claim *chunks* of the
//! output, and each chunk is a disjoint `&mut` slice obtained via
//! `chunks_mut`, so no per-slot synchronization is needed. The only lock
//! is the chunk queue itself, taken once per chunk claim.
//!
//! Everything is deterministic: results land in input order no matter how
//! threads interleave, so callers that derive per-item RNG streams get
//! bit-identical output at any thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// True on threads spawned by this runtime. Nested calls (e.g. a
    /// parallel experiment sweep whose points collect reports in parallel)
    /// detect it and run sequentially instead of oversubscribing the
    /// machine threads² times.
    static IN_RUNTIME_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_runtime_worker() -> bool {
    IN_RUNTIME_WORKER.with(Cell::get)
}

/// Process-wide worker cap installed by [`set_thread_cap`]; 0 = uncapped.
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Caps every runtime fan-out in this process to at most `threads` workers
/// (the `--threads N` flag of the experiment binaries ends up here).
/// `threads` is clamped to at least 1; results are bit-identical at any
/// cap, only wall-clock changes.
///
/// A cap only ever lowers a worker count; it never raises
/// [`default_threads`] or [`kernel_threads`] above their machine values
/// (cores − 1 and every core). On a 2-core host `set_thread_cap(1)`
/// makes the clustering kernel sequential and leaves everything sized
/// by [`default_threads`] as it was, already one worker.
pub fn set_thread_cap(threads: usize) {
    THREAD_CAP.store(threads.max(1), Ordering::Relaxed);
}

/// Removes the cap installed by [`set_thread_cap`].
pub fn clear_thread_cap() {
    THREAD_CAP.store(0, Ordering::Relaxed);
}

/// Number of cores the process may run on (`available_parallelism`, or
/// 4 when it is unknown): the one source of both worker counts below.
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// `machine` `min`'d with the [`set_thread_cap`] cap when one is installed.
fn capped(machine: usize) -> usize {
    match THREAD_CAP.load(Ordering::Relaxed) {
        0 => machine,
        cap => machine.min(cap),
    }
}

/// Worker count for a fan-out whose workers build worlds, reports or
/// matrices of their own (experiment sweeps, `collect_honest`, the view
/// decode's finalize): the core count − 1, at least 1, capped by
/// [`set_thread_cap`]. Each such worker holds its own large buffers, so
/// one core is left out to bound peak memory; this is 1 on a 2-core
/// host.
pub fn default_threads() -> usize {
    capped(available_cores().saturating_sub(1).max(1))
}

/// Worker count for a kernel whose workers only read one shared matrix
/// and allocate one count vector each (the clustering estimate's
/// triangle count): every core, capped by [`set_thread_cap`]. Such a
/// fan-out adds almost no memory per worker, and the caller only waits
/// while the workers run, so the core [`default_threads`] leaves out
/// would sit idle.
pub fn kernel_threads() -> usize {
    capped(available_cores())
}

/// Estimated word operations below which a thread scope costs more than
/// it saves (spawn + teardown is tens of microseconds per worker).
pub const PARALLEL_WORK_THRESHOLD: usize = 1 << 19;

/// Picks a worker count for a job of roughly `work_words` word-sized
/// operations: sequential below [`PARALLEL_WORK_THRESHOLD`], otherwise
/// `threads`. Callers estimate their work in word ops (a bit-level
/// operation like an RNG sample counts as ~one word op) so every layer
/// shares one spawn-amortization policy.
pub fn threads_for_work(work_words: usize, threads: usize) -> usize {
    if work_words < PARALLEL_WORK_THRESHOLD {
        1
    } else {
        threads.max(1)
    }
}

/// Chunks claimed per worker on average; >1 so heterogeneous chunk costs
/// still balance across threads.
const CHUNKS_PER_THREAD: usize = 4;

/// Applies `f` to disjoint, contiguous chunks of `data` on up to `threads`
/// scoped worker threads.
///
/// Chunk `k` covers `data[k * chunk_len .. (k + 1) * chunk_len]` (the last
/// chunk may be shorter); `f` receives the chunk index and the chunk as an
/// exclusive slice. Workers claim chunks dynamically from a shared queue,
/// so uneven per-chunk costs still load-balance; within a chunk, `f` runs
/// sequentially. With one thread (or one chunk) everything runs on the
/// calling thread, and a call made from inside another runtime worker is
/// always sequential (the outer fan-out already owns the cores).
///
/// # Panics
/// Panics if `chunk_len == 0` and `data` is non-empty.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let nchunks = data.len().div_ceil(chunk_len);
    let threads = if in_runtime_worker() {
        1
    } else {
        threads.clamp(1, nchunks)
    };
    if threads == 1 {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    let queue: Mutex<Vec<(usize, &mut [T])>> =
        Mutex::new(data.chunks_mut(chunk_len).enumerate().collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_RUNTIME_WORKER.with(|flag| flag.set(true));
                loop {
                    let claimed = queue
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .pop();
                    match claimed {
                        Some((idx, chunk)) => f(idx, chunk),
                        None => break,
                    }
                }
            });
        }
    });
}

/// Maps `f` over `items` on up to `threads` worker threads, preserving
/// input order. Falls back to a sequential loop for a single item or
/// thread.
///
/// Built on [`parallel_chunks_mut`]: the result vector is handed out to
/// workers as disjoint chunk slices, so filling slots needs no locks.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if in_runtime_worker() {
        1
    } else {
        threads.clamp(1, n)
    };
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let chunk_len = (n / (threads * CHUNKS_PER_THREAD)).max(1);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let items = &items;
    let f = &f;
    parallel_chunks_mut(&mut results, chunk_len, threads, |chunk_idx, chunk| {
        let base = chunk_idx * chunk_len;
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(&items[base + k]));
        }
    });
    results
        .into_iter()
        // ldp-lint: allow(panic-path) -- structurally infallible: the chunks
        // handed to workers partition `results`, so every slot is written
        // exactly once before the scope joins.
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        let out = parallel_map(vec![5, 6], 64, |&x| x - 5);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn parallel_map_zero_threads_clamps_to_one() {
        let out = parallel_map(vec![1, 2, 3, 4], 0, |&x| x * x);
        assert_eq!(out, vec![1, 4, 9, 16]);
    }

    #[test]
    fn chunks_cover_every_slot_exactly_once() {
        let mut data = vec![0u32; 1000];
        parallel_chunks_mut(&mut data, 7, 8, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let mut data: Vec<usize> = vec![0; 103];
        parallel_chunks_mut(&mut data, 10, 4, |idx, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = idx * 10 + k;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_empty_input_is_noop() {
        let mut data: Vec<u8> = Vec::new();
        // chunk_len 0 would panic on non-empty input; empty returns first.
        parallel_chunks_mut(&mut data, 0, 4, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_rejected() {
        let mut data = vec![1];
        parallel_chunks_mut(&mut data, 0, 4, |_, _| {});
    }

    #[test]
    fn all_chunks_processed_under_contention() {
        let seen = AtomicUsize::new(0);
        let mut data = vec![0u8; 64];
        parallel_chunks_mut(&mut data, 1, 16, |_, chunk| {
            seen.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn thread_cap_bounds_default_threads() {
        // Other tests read the worker counts but none install a cap, so
        // this serialized-by-itself mutation is safe to restore.
        let cores = available_cores();
        let uncapped = (default_threads(), kernel_threads());
        assert_eq!(uncapped, (cores.saturating_sub(1).max(1), cores));
        set_thread_cap(1);
        assert_eq!((default_threads(), kernel_threads()), (1, 1));
        set_thread_cap(0); // clamps to 1
        assert_eq!((default_threads(), kernel_threads()), (1, 1));
        set_thread_cap(usize::MAX);
        let capped = (default_threads(), kernel_threads());
        assert_eq!(capped, uncapped, "cap above machine is inert");
        clear_thread_cap();
        assert_eq!((default_threads(), kernel_threads()), uncapped);
    }

    #[test]
    fn nested_calls_run_sequentially_and_correctly() {
        // An inner parallel_map inside a worker must not fan out again;
        // beyond not deadlocking/oversubscribing, results stay exact.
        let outer: Vec<usize> = (0..32).collect();
        let out = parallel_map(outer, 8, |&x| {
            let inner = parallel_map((0..10).collect::<Vec<usize>>(), 8, move |&y| x * y);
            inner.into_iter().sum::<usize>()
        });
        assert_eq!(out, (0..32).map(|x| x * 45).collect::<Vec<_>>());
    }

    #[test]
    fn worker_flag_set_in_workers_and_not_leaked_to_caller() {
        // 32 items on 4 threads takes the parallel branch, where every
        // closure runs on a spawned (flagged) worker, never the caller.
        let flagged = AtomicUsize::new(0);
        parallel_map((0..32).collect::<Vec<usize>>(), 4, |&x| {
            if in_runtime_worker() {
                flagged.fetch_add(1, Ordering::Relaxed);
            }
            x
        });
        assert_eq!(flagged.load(Ordering::Relaxed), 32);
        assert!(
            !in_runtime_worker(),
            "flag must not leak back to the calling thread"
        );
    }
}

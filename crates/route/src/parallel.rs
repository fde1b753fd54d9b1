//! Deterministic scoped-thread fan-out.
//!
//! The flow's data-parallel stages (DME candidate generation, MWCP
//! pair scoring) fan work out through [`parallel_map`]: scoped worker
//! threads claim items off a shared atomic counter and the results are
//! merged back **by item index**, so the output vector is identical to
//! the sequential map at any thread count. Determinism therefore needs
//! nothing from the workers beyond the mapped function itself being
//! pure — scheduling order never leaks into the result.
//!
//! When the caller has an active [`pacor_obs`] recording frame, each
//! work item additionally runs inside its own [`pacor_obs::task_frame`]
//! and the captured frames are absorbed back in item order, so counter
//! and histogram totals inherit the same any-thread-count determinism.
//!
//! This module lives in `pacor-route`, below every stage crate in the
//! dependency graph, so any stage can fan out through it; the flow
//! crate re-exports the functions unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Caps a requested thread count at the host's available parallelism.
///
/// Fanning out wider than the hardware cannot win — the workers just
/// timeslice one another plus pay spawn overhead — so the flow routes
/// its configured thread count through this before fanning out. Results
/// are unaffected either way (the merge is index-ordered); only
/// wall-clock time is.
pub fn effective_threads(requested: usize) -> usize {
    let hardware = thread::available_parallelism().map_or(1, |n| n.get());
    requested.clamp(1, hardware)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning results in item order.
///
/// `f` receives `(index, &item)`. With `threads <= 1` or fewer than two
/// items the map runs inline on the caller's thread — the parallel path
/// produces the exact same vector, just wall-clock faster.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // Observability: when the caller records, every item runs in a
    // private task frame (whatever thread it lands on) and the frames
    // are absorbed in item order — never completion order — so metric
    // totals stay bit-identical at any thread count.
    let recording = pacor_obs::active();
    let _span = recording.then(|| {
        pacor_obs::counter_add("parallel.tasks", items.len() as u64);
        pacor_obs::span_with(
            "parallel.batch",
            &[("items", items.len() as u64), ("threads", threads as u64)],
        )
    });
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if recording {
                    let (r, frame) = pacor_obs::task_frame(i as u32 + 1, || f(i, t));
                    pacor_obs::absorb(frame);
                    r
                } else {
                    f(i, t)
                }
            })
            .collect();
    }
    let workers = threads.min(items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(R, Option<pacor_obs::Frame>)>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        if recording {
                            let (r, frame) =
                                pacor_obs::task_frame(i as u32 + 1, || f(i, &items[i]));
                            produced.push((i, r, Some(frame)));
                        } else {
                            produced.push((i, f(i, &items[i]), None));
                        }
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, r, frame) in handle.join().expect("parallel_map worker panicked") {
                slots[i] = Some((r, frame));
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let (r, frame) = slot.expect("every item is claimed exactly once");
            if let Some(frame) = frame {
                pacor_obs::absorb(frame);
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..37).map(|i| i * 17 % 23).collect();
        let work = |_: usize, &x: &u64| -> u64 {
            // Uneven per-item cost, so workers interleave differently
            // from run to run.
            (0..x * 50).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let sequential = parallel_map(1, &items, work);
        for threads in [2, 3, 4, 8] {
            assert_eq!(parallel_map(threads, &items, work), sequential);
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<i32> = (0..64).collect();
        let out = parallel_map(5, &items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 64);
        assert_eq!(calls.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn obs_totals_are_thread_count_invariant() {
        let items: Vec<u64> = (0..25).collect();
        let work = |_: usize, &x: &u64| {
            pacor_obs::counter_add("test.work", x + 1);
            pacor_obs::record("test.size", x);
            x
        };
        let run = |threads: usize| {
            let session = pacor_obs::Session::begin();
            let out = parallel_map(threads, &items, work);
            let report = session.finish();
            (out, pacor_obs::metrics_json(&report))
        };
        let (seq_out, seq_metrics) = run(1);
        for threads in [2, 4, 8] {
            let (out, metrics) = run(threads);
            assert_eq!(out, seq_out);
            assert_eq!(metrics, seq_metrics, "metrics differ at {threads} threads");
        }
    }

    #[test]
    fn handles_degenerate_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(0, &[7u8], |_, &x| x), vec![7]);
        assert_eq!(parallel_map(16, &[1u8, 2], |_, &x| x + 1), vec![2, 3]);
    }
}

//! The workspace's one parallel region.
//!
//! Two byte-identity contracts rest on the same split: a generated dataset
//! and a trained model are byte-identical at any worker count. Both
//! dataset generation (one sample per index) and training (one packed
//! forward/backward per worker share of a minibatch) run through
//! [`strided_map`], so the work assignment, the per-worker state and the
//! in-order reassembly are written once. `clippy.toml` disallows
//! `std::thread::scope` (and crossbeam's) in library code; the single
//! `#[expect]` below is the only exception.

/// Worker count for a `threads` setting: 0 means one worker per available
/// core (1 when the core count is unknown); any other `n` means `n`.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Map `work` over `items` on `W = min(states.len(), items.len())` scoped
/// threads and return its results in `items` order.
///
/// Worker `w` takes the positions `w, w + W, w + 2W, …` of `items` and calls
/// `work(sub, &mut states[w])` once; `work` returns one result per entry of
/// `sub`, in `sub` order. The assignment depends only on `W`, each worker
/// mutates only its own state, and `work` is `Fn + Sync`, so it can share
/// nothing mutable across workers: a `work` that is a pure function of its
/// indices and its state yields the same output at every worker count.
///
/// With one worker, `work` runs on the caller's thread over `items` itself,
/// with no spawn and no allocation of its own. With no state, nothing runs
/// and the result is empty. A panic in a worker resumes on the caller.
pub fn strided_map<T, S, F>(items: &[usize], states: &mut [S], work: F) -> Vec<T>
where
    T: Send,
    S: Send,
    F: Fn(&[usize], &mut S) -> Vec<T> + Sync,
{
    let workers = states.len().min(items.len());
    if workers <= 1 {
        return states.first_mut().map_or_else(Vec::new, |s| work(items, s));
    }
    let work = &work;
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one parallel region; every worker split goes through this helper"
    )]
    let parts: Vec<Vec<T>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (w, state) in states.iter_mut().take(workers).enumerate() {
            handles.push(scope.spawn(move || {
                let sub: Vec<usize> = items.iter().copied().skip(w).step_by(workers).collect();
                work(&sub, state)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // Position k is result k / W of worker k % W.
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    let out: Vec<T> = (0..items.len())
        .map_while(|k| parts.get_mut(k % workers)?.next())
        .collect();
    debug_assert_eq!(out.len(), items.len(), "work returns one result per index");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(items: &[usize], workers: usize) -> (Vec<usize>, Vec<Vec<usize>>) {
        let mut seen = vec![Vec::new(); workers];
        let out = strided_map(items, &mut seen, |sub, seen| {
            seen.extend_from_slice(sub);
            sub.iter().map(|&i| i * i).collect()
        });
        (out, seen)
    }

    #[test]
    fn results_come_back_in_input_order_at_every_worker_count() {
        let items: Vec<usize> = (0..10).rev().collect();
        let want: Vec<usize> = items.iter().map(|&i| i * i).collect();
        for workers in 1..=12 {
            assert_eq!(squares(&items, workers).0, want, "{workers} workers");
        }
    }

    #[test]
    fn worker_w_takes_the_strided_positions() {
        let items = [10, 11, 12, 13, 14, 15, 16];
        let (_, seen) = squares(&items, 3);
        assert_eq!(seen, vec![vec![10, 13, 16], vec![11, 14], vec![12, 15]]);
        // More states than items: the extra states stay untouched.
        let (_, seen) = squares(&items[..2], 4);
        assert_eq!(seen, vec![vec![10], vec![11], vec![], vec![]]);
    }

    #[test]
    fn one_worker_runs_on_the_callers_slice() {
        let items = [3, 1, 2];
        let thread = std::thread::current().id();
        let out = strided_map(&items, &mut [()], |sub, ()| {
            assert_eq!(std::thread::current().id(), thread);
            sub.iter().map(|_| sub.as_ptr() as usize).collect()
        });
        assert_eq!(out, [items.as_ptr() as usize; 3]);
    }

    #[test]
    fn no_state_or_no_items_yields_nothing() {
        let none: Vec<u8> = strided_map(&[1, 2], &mut [] as &mut [()], |_, ()| vec![0]);
        assert!(none.is_empty());
        let (out, _) = squares(&[], 3);
        assert!(out.is_empty());
    }
}

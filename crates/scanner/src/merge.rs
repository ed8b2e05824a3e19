//! The workspace's one spawn site: an ordered parallel map over
//! contiguous chunks.
//!
//! A parallel stage must put its pieces back together in an order that
//! is a pure function of the input, never of thread completion.
//! [`ordered_parallel`] hands each worker a contiguous chunk and joins
//! the results in chunk order, so a parallel run is ordered by
//! construction. `clippy.toml` disallows every other way to start a
//! thread.

use std::sync::OnceLock;

/// The worker count parallel stages use unless told otherwise: the
/// machine's parallelism, at most 8. Asked of the OS once per process
/// (on Linux `available_parallelism` reads the affinity mask and the
/// cgroup CPU quota, which costs microseconds), so a sweep that scans
/// nothing pays no system call for it.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4)
    })
}

/// Split `items` into at most `workers` contiguous chunks, run `f` on
/// each chunk and concatenate the results in input order. With one
/// chunk (`workers <= 1`, or too few items to split) `f` runs inline on
/// the whole slice. Whenever `f` maps a concatenation of slices to the
/// concatenation of its results, as a per-item map or filter does, the
/// output equals `f(items)` for every worker count. A worker's panic
/// reaches the caller once every worker has stopped, with the payload
/// of the first panicking chunk in input order.
// The one spawn site: chunks are contiguous and joined in input order.
#[allow(clippy::disallowed_methods)]
pub fn ordered_parallel<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let per_chunk = items.len().div_ceil(workers.max(1)).max(1);
    if items.len() <= per_chunk {
        return f(items);
    }
    let f = &f;
    let groups = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(per_chunk)
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    });
    ordered_flatten(groups)
}

/// Concatenate per-worker result groups in group order.
fn ordered_flatten<T>(groups: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(groups.iter().map(Vec::len).sum());
    for group in groups {
        out.extend(group);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_is_computed_once_and_in_range() {
        let first = default_workers();
        assert_eq!(default_workers(), first);
        assert!((1..=8).contains(&first));
    }

    #[test]
    fn flatten_preserves_group_then_item_order() {
        let groups = vec![vec![3, 1], vec![], vec![2]];
        assert_eq!(ordered_flatten(groups), vec![3, 1, 2]);
    }
}

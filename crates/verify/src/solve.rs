//! The one worklist solver under every fixpoint in this crate: the
//! per-method dataflow analyses and reachability iterate it over blocks,
//! the class inference over methods, and the call graph over methods.
//!
//! The solver visits waiting nodes in sweeps of ascending index: a node
//! pushed ahead of the sweep is visited in the same sweep, one pushed
//! behind it in the next. The queue is an ordered set, so a push of a
//! node already waiting is free and finding the next node costs a
//! logarithm of the queue's length, however many sweeps a problem takes.

use std::collections::BTreeSet;

/// The nodes waiting for a visit.
pub(crate) struct Worklist {
    waiting: BTreeSet<usize>,
}

impl Worklist {
    /// Queues `node` for a visit unless it is already waiting.
    pub(crate) fn push(&mut self, node: usize) {
        self.waiting.insert(node);
    }
}

/// Visits nodes until none is waiting, starting from `seeds`, and
/// returns the number of visits. `visit(node, work)` pushes every node
/// whose input it grew; a monotone problem whose inputs only grow drains
/// to its least fixed point.
pub(crate) fn solve(
    seeds: impl IntoIterator<Item = usize>,
    mut visit: impl FnMut(usize, &mut Worklist),
) -> usize {
    let mut work = Worklist {
        waiting: seeds.into_iter().collect(),
    };
    let mut visits = 0;
    let mut cursor = 0;
    while let Some(&node) = work.waiting.range(cursor..).next().or(work.waiting.first()) {
        work.waiting.remove(&node);
        visits += 1;
        visit(node, &mut work);
        cursor = node + 1;
    }
    visits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_visit_each_waiting_node_once_in_index_order() {
        // 1 → {3, 0, 3}, 3 → {2}: 3 is pushed ahead of the sweep and
        // again while it waits, 0 and 2 behind it, and 129 only as a seed.
        let mut order = Vec::new();
        let visits = solve([129, 1], |n, work| {
            order.push(n);
            match n {
                1 => [3, 0, 3].into_iter().for_each(|s| work.push(s)),
                3 => work.push(2),
                _ => {}
            }
        });
        assert_eq!(order, vec![1, 3, 129, 0, 2]);
        assert_eq!(visits, 5);
    }
}

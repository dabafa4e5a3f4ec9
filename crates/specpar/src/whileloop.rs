//! WHILE-loop parallelization (Section 3, technique iii): do-loops with an
//! unknown number of iterations and/or linked-list traversals
//! (Rauchwerger & Padua, IPPS'95).
//!
//! Two cooperating techniques:
//!
//! * [`collect_list`] — the inspector: a sequential pointer chase that
//!   materializes the traversal order (cheap: one dereference per node),
//!   after which the loop body runs fully parallel over the collected
//!   nodes (`execute_over`);
//! * [`speculative_while`] — when even the iteration *count* is unknown
//!   (termination depends on computed values), processors execute strips
//!   of iterations speculatively; work past the first satisfied exit
//!   condition is discarded, the prefix commits.

/// A singly linked list laid out in an arena (index-linked, as irregular
/// codes store them in arrays).
#[derive(Debug, Clone)]
pub struct ListArena {
    /// `next[i]` is the successor of node `i`, or `u32::MAX` at the tail.
    pub next: Vec<u32>,
    /// Payload per node.
    pub value: Vec<f64>,
    /// Entry node.
    pub head: u32,
}

/// End-of-list sentinel.
pub const NIL: u32 = u32::MAX;

impl ListArena {
    /// Build a list threading `order` through the arena.
    pub fn from_order(order: &[u32], values: &[f64]) -> Self {
        assert_eq!(order.len(), values.len());
        assert!(!order.is_empty());
        let n = values.len();
        let mut next = vec![NIL; n];
        for w in order.windows(2) {
            next[w[0] as usize] = w[1];
        }
        ListArena {
            next,
            value: values.to_vec(),
            head: order[0],
        }
    }
}

/// Inspector: chase the pointers once, collecting the traversal order.
/// This is the serial bottleneck of list loops — O(length) dereferences —
/// after which the body runs in parallel.
pub fn collect_list(list: &ListArena) -> Vec<u32> {
    let mut order = Vec::new();
    let mut cur = list.head;
    let mut guard = 0usize;
    while cur != NIL {
        order.push(cur);
        cur = list.next[cur as usize];
        guard += 1;
        assert!(guard <= list.next.len(), "cycle detected in list");
    }
    order
}

/// Executor: run `body(position, node)` over the collected nodes in
/// parallel; results are written into a per-position output vector
/// (iteration-private, so no dependence concerns).
pub fn execute_over<F>(order: &[u32], list: &ListArena, threads: usize, body: F) -> Vec<f64>
where
    F: Fn(usize, u32, &ListArena) -> f64 + Sync,
{
    assert!(threads >= 1);
    let mut out = vec![0.0; order.len()];
    let body = &body;
    std::thread::scope(|s| {
        for (t, chunk) in out
            .chunks_mut(order.len().div_ceil(threads).max(1))
            .enumerate()
        {
            let base = t * order.len().div_ceil(threads).max(1);
            s.spawn(move || {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let pos = base + k;
                    *slot = body(pos, order[pos], list);
                }
            });
        }
    });
    out
}

/// Outcome of a speculative while-loop execution.
#[derive(Debug, Clone)]
pub struct WhileReport {
    /// Iterations that logically executed (up to and including the one
    /// that satisfied the exit condition).
    pub committed: usize,
    /// Speculative iterations discarded past the exit.
    pub discarded: usize,
    /// Strip-mining rounds used.
    pub rounds: usize,
}

/// Speculatively execute `while !exit(i) { out[i] = body(i) }` with an
/// unknown trip count, strip-mined in rounds of `threads × strip`
/// iterations.  `body` must be side-effect-free (its result is buffered
/// and only the prefix up to the exit commits).  Returns the committed
/// results and a report.
pub fn speculative_while<B, E>(
    threads: usize,
    strip: usize,
    max_iters: usize,
    body: B,
    exit: E,
) -> (Vec<f64>, WhileReport)
where
    B: Fn(usize) -> f64 + Sync,
    E: Fn(usize) -> bool + Sync,
{
    assert!(threads >= 1 && strip >= 1);
    let mut committed: Vec<f64> = Vec::new();
    let mut report = WhileReport {
        committed: 0,
        discarded: 0,
        rounds: 0,
    };
    let mut start = 0usize;
    while start < max_iters {
        report.rounds += 1;
        let round_len = (threads * strip).min(max_iters - start);
        // Each processor runs a strip, buffering results and noting the
        // first exit it observes.
        let mut bufs: Vec<(usize, Vec<f64>, Option<usize>)> =
            (0..threads).map(|_| (0, Vec::new(), None)).collect();
        std::thread::scope(|s| {
            for (t, slot) in bufs.iter_mut().enumerate() {
                let lo = start + round_len * t / threads;
                let hi = start + round_len * (t + 1) / threads;
                let body = &body;
                let exit = &exit;
                s.spawn(move || {
                    let mut buf = Vec::with_capacity(hi - lo);
                    let mut exit_at = None;
                    for i in lo..hi {
                        if exit(i) {
                            exit_at = Some(i);
                            break;
                        }
                        buf.push(body(i));
                    }
                    *slot = (lo, buf, exit_at);
                });
            }
        });
        // Find the earliest exit across strips; commit everything before.
        let earliest_exit = bufs.iter().filter_map(|(_, _, e)| *e).min();
        let commit_until = earliest_exit.unwrap_or(start + round_len);
        for (lo, buf, _) in &bufs {
            for (k, v) in buf.iter().enumerate() {
                let i = lo + k;
                if i < commit_until {
                    committed.push(*v);
                } else {
                    report.discarded += 1;
                }
            }
        }
        if earliest_exit.is_some() {
            report.committed = commit_until;
            return (committed, report);
        }
        start += round_len;
    }
    report.committed = committed.len();
    (committed, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled_list(n: usize, seed: u64) -> ListArena {
        // Deterministic pseudo-shuffle via multiplicative stepping.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        ListArena::from_order(&order, &values)
    }

    #[test]
    fn collect_visits_every_node_once() {
        let list = shuffled_list(500, 7);
        let order = collect_list(&list);
        assert_eq!(order.len(), 500);
        let mut seen = vec![false; 500];
        for &x in &order {
            assert!(!seen[x as usize], "node visited twice");
            seen[x as usize] = true;
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detection() {
        let mut list = shuffled_list(10, 3);
        // Close the list into a ring.
        let order = {
            let mut cur = list.head;
            let mut last = cur;
            while cur != NIL {
                last = cur;
                cur = list.next[cur as usize];
            }
            last
        };
        list.next[order as usize] = list.head;
        collect_list(&list);
    }

    #[test]
    fn execute_over_matches_sequential() {
        let list = shuffled_list(1000, 11);
        let order = collect_list(&list);
        let body = |pos: usize, node: u32, l: &ListArena| l.value[node as usize] * 2.0 + pos as f64;
        let par = execute_over(&order, &list, 4, body);
        let seq: Vec<f64> = order
            .iter()
            .enumerate()
            .map(|(p, &n)| body(p, n, &list))
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn speculative_while_commits_exact_prefix() {
        // Exit at iteration 137 — unknown to the scheduler.
        let (out, rep) = speculative_while(4, 16, 10_000, |i| i as f64, |i| i == 137);
        assert_eq!(out.len(), 137);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
        assert_eq!(rep.committed, 137);
        assert!(rep.rounds >= 2, "137 > one 64-iteration round");
    }

    #[test]
    fn speculative_while_without_exit_runs_to_bound() {
        let (out, rep) = speculative_while(3, 8, 100, |i| i as f64, |_| false);
        assert_eq!(out.len(), 100);
        assert_eq!(rep.discarded, 0);
        assert_eq!(rep.committed, 100);
    }

    #[test]
    fn speculative_while_discards_overshoot() {
        let (out, rep) = speculative_while(4, 32, 100_000, |i| i as f64, |i| i == 3);
        assert_eq!(out.len(), 3);
        assert!(rep.discarded > 0, "strips past the exit must be discarded");
    }

    #[test]
    fn immediate_exit() {
        let (out, rep) = speculative_while(2, 4, 100, |i| i as f64, |i| i == 0);
        assert!(out.is_empty());
        assert_eq!(rep.committed, 0);
    }
}

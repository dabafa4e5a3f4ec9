//! Feedback-guided blocked scheduling (Section 3): "load balancing will be
//! achieved through feedback guided blocked scheduling which allows highly
//! imbalanced loops to be block scheduled by predicting a good work
//! distribution from previous measured execution times of iteration
//! blocks."
//!
//! The scheduler keeps a piecewise-constant estimate of per-iteration cost
//! built from the measured times of the previous invocation's blocks, and
//! partitions the next invocation so every processor gets an equal share
//! of *predicted work* rather than an equal share of iterations.

use std::ops::Range;

/// A feedback-guided block scheduler for a repeatedly invoked loop.
#[derive(Debug, Clone)]
pub struct FgbsScheduler {
    threads: usize,
    iters: usize,
    /// Last schedule handed out.
    blocks: Vec<Range<usize>>,
    /// Per-iteration cost estimate from the last feedback: the previous
    /// blocks and their measured rates.
    rates: Option<(Vec<Range<usize>>, Vec<f64>)>,
}

impl FgbsScheduler {
    /// Create a scheduler for a loop of `iters` iterations on `threads`
    /// processors.
    pub fn new(iters: usize, threads: usize) -> Self {
        assert!(threads >= 1);
        let blocks = (0..threads)
            .map(|t| iters * t / threads..iters * (t + 1) / threads)
            .collect();
        FgbsScheduler {
            threads,
            iters,
            blocks,
            rates: None,
        }
    }

    /// The block boundaries for the next invocation.  Before any feedback
    /// this is a plain equal-iteration block schedule; afterwards the
    /// boundaries equalize predicted work.
    pub fn schedule(&self) -> &[Range<usize>] {
        &self.blocks
    }

    /// Report the measured execution times of the blocks of the last
    /// schedule; recomputes the boundaries for the next invocation.
    pub fn feedback(&mut self, times: &[f64]) {
        assert_eq!(times.len(), self.threads, "one time per block");
        assert!(times.iter().all(|t| *t >= 0.0), "negative block time");
        // Piecewise-constant per-iteration cost from the last invocation.
        let rate: Vec<f64> = self
            .blocks
            .iter()
            .zip(times)
            .map(|(b, t)| {
                if b.is_empty() {
                    0.0
                } else {
                    t / b.len() as f64
                }
            })
            .collect();
        let total: f64 = times.iter().sum();
        if total <= 0.0 {
            return; // no information; keep the old schedule
        }
        self.rates = Some((self.blocks.clone(), rate.clone()));
        let target = total / self.threads as f64;
        // Walk iterations, cutting a boundary whenever the accumulated
        // predicted work reaches the target.
        let mut new_blocks = Vec::with_capacity(self.threads);
        let mut start = 0usize;
        let mut acc = 0.0;
        let mut block_idx = 0usize;
        for i in 0..self.iters {
            while block_idx + 1 < self.blocks.len() && i >= self.blocks[block_idx].end {
                block_idx += 1;
            }
            acc += rate[block_idx];
            if acc >= target && new_blocks.len() + 1 < self.threads {
                new_blocks.push(start..i + 1);
                start = i + 1;
                acc = 0.0;
            }
        }
        new_blocks.push(start..self.iters);
        while new_blocks.len() < self.threads {
            new_blocks.push(self.iters..self.iters);
        }
        self.blocks = new_blocks;
    }

    /// Predicted load imbalance of the current schedule under the last
    /// measured rates: max predicted block work / mean (1.0 = perfect).
    pub fn predicted_imbalance(&self) -> f64 {
        let Some((prev_blocks, rates)) = &self.rates else {
            return 1.0;
        };
        let rate_at = |i: usize| -> f64 {
            let k = prev_blocks
                .iter()
                .position(|b| b.contains(&i))
                .unwrap_or(prev_blocks.len() - 1);
            rates[k]
        };
        let works: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| b.clone().map(rate_at).sum())
            .collect();
        let mean = works.iter().sum::<f64>() / works.len() as f64;
        let max = works.iter().cloned().fold(0.0, f64::max);
        if mean > 0.0 {
            (max / mean).max(1.0)
        } else {
            1.0
        }
    }

    /// Run one invocation of `body` under the current schedule, measure
    /// block times, and feed them back.  Returns the measured imbalance of
    /// this invocation (max block time / mean block time).
    pub fn run_invocation<F>(&mut self, body: F) -> f64
    where
        F: Fn(usize) + Sync,
    {
        let mut times = vec![0.0f64; self.blocks.len()];
        std::thread::scope(|s| {
            for (b, slot) in self.blocks.iter().zip(times.iter_mut()) {
                let b = b.clone();
                let body = &body;
                s.spawn(move || {
                    let t0 = std::time::Instant::now();
                    for i in b {
                        body(i);
                    }
                    *slot = t0.elapsed().as_secs_f64();
                });
            }
        });
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let max = times.iter().cloned().fold(0.0, f64::max);
        self.feedback(&times);
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_schedule_is_equal_blocks() {
        let s = FgbsScheduler::new(100, 4);
        let blocks = s.schedule();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0], 0..25);
        assert_eq!(blocks[3], 75..100);
    }

    #[test]
    fn feedback_shrinks_expensive_blocks() {
        let mut s = FgbsScheduler::new(100, 4);
        // Block 0 is 10x as expensive per iteration as the others.
        s.feedback(&[10.0, 1.0, 1.0, 1.0]);
        let blocks = s.schedule();
        assert_eq!(blocks.len(), 4);
        assert!(blocks[0].len() < 15, "hot block must shrink: {:?}", blocks);
        // Iterations still partition exactly.
        let covered: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(covered, 100);
        assert_eq!(blocks.last().unwrap().end, 100);
    }

    #[test]
    fn uniform_feedback_keeps_near_equal_blocks() {
        let mut s = FgbsScheduler::new(128, 4);
        s.feedback(&[1.0, 1.0, 1.0, 1.0]);
        for b in s.schedule() {
            assert!((b.len() as i64 - 32).abs() <= 1, "{:?}", s.schedule());
        }
    }

    #[test]
    fn convergence_on_linear_imbalance() {
        // Per-iteration cost grows linearly (triangular loop): the classic
        // imbalanced shape.  Simulate measured times analytically.
        let iters = 1_000usize;
        let cost = |i: usize| (i + 1) as f64;
        let mut s = FgbsScheduler::new(iters, 4);
        let mut imbalances = Vec::new();
        for _ in 0..6 {
            let times: Vec<f64> = s
                .schedule()
                .iter()
                .map(|b| b.clone().map(cost).sum::<f64>())
                .collect();
            let mean = times.iter().sum::<f64>() / 4.0;
            let max = times.iter().cloned().fold(0.0, f64::max);
            imbalances.push(max / mean);
            s.feedback(&times);
        }
        // Initially ~ 7/4 imbalance; must converge near 1.
        assert!(imbalances[0] > 1.5, "triangular loop starts imbalanced");
        let last = *imbalances.last().unwrap();
        assert!(
            last < 1.1,
            "converged imbalance {last}, history {imbalances:?}"
        );
    }

    #[test]
    fn zero_feedback_keeps_schedule() {
        let mut s = FgbsScheduler::new(50, 2);
        let before = s.schedule().to_vec();
        s.feedback(&[0.0, 0.0]);
        assert_eq!(s.schedule(), &before[..]);
    }

    #[test]
    fn run_invocation_measures_and_adapts() {
        let mut s = FgbsScheduler::new(4_000, 4);
        // Busy-work proportional to iteration index.
        let body = |i: usize| {
            let mut acc = 0u64;
            for k in 0..(i / 4) {
                acc = acc.wrapping_add(k as u64);
            }
            std::hint::black_box(acc);
        };
        // Triangular work: the first invocation is imbalanced and feedback
        // improves it.  Wall-clock imbalance on a loaded (or single-CPU)
        // host is noisy, so accept the bound from any of a few attempts —
        // the property under test is that feedback helps, not that every
        // measurement is quiet.
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            let first = s.run_invocation(body);
            let mut last = first;
            for _ in 0..4 {
                last = s.run_invocation(body);
            }
            if last <= first * 1.2 + 0.2 {
                return;
            }
            outcomes.push((first, last));
            s = FgbsScheduler::new(4_000, 4);
        }
        panic!("feedback never improved imbalance: {outcomes:?}");
    }

    #[test]
    #[should_panic(expected = "one time per block")]
    fn feedback_arity_checked() {
        let mut s = FgbsScheduler::new(10, 2);
        s.feedback(&[1.0]);
    }
}

//! The quiet-round estimator and the plain order statistics beside it.
//!
//! On a shared 2-vCPU box the noise is one-sided: hypervisor steal only
//! ever slows a round.  So the figure a run reports for a per-round
//! quantity is not the mean or the median of its rounds but the **quiet
//! estimate** — with the n round values sorted best-first, the one at
//! index `min(10, n / 4)`: the 11th best (ten samples beyond it) once
//! n ≥ 44, the lower quartile before that.  It is an order statistic of
//! the program's own rounds, so a uniform slowdown moves it one for one;
//! what it ignores is the slow tail, which [`noisy_share`] and the
//! unfiltered whole-phase figures report instead.

/// Which direction of a metric is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Samples beyond the quiet estimate once there are enough rounds.
pub const QUIET_RANK: usize = 10;

/// A round counts as noisy when it is this much slower than the quiet one.
pub const NOISY_FACTOR: f64 = 1.25;

fn sorted_best_first(values: &[f64], better: Better) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| match better {
        Better::Lower => a.total_cmp(b),
        Better::Higher => b.total_cmp(a),
    });
    v
}

/// The quiet estimate of `values` (see the module docs); 0 for no rounds.
pub fn quiet(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted_best_first(values, better);
    v[QUIET_RANK.min(v.len() / 4)]
}

/// Share of rounds more than [`NOISY_FACTOR`] slower than the quiet
/// round, given each round's duration.  A periodic stall a later change
/// introduces shows here although the quiet estimate ignores it.
pub fn noisy_share(round_durations: &[f64]) -> f64 {
    if round_durations.is_empty() {
        return 0.0;
    }
    let limit = quiet(round_durations, Better::Lower) * NOISY_FACTOR;
    let noisy = round_durations.iter().filter(|&&d| d > limit).count();
    noisy as f64 / round_durations.len() as f64
}

/// Nearest-rank quantile of an ascending-sorted slice; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// First and third quartile the way `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), which is what the acceptance
/// driver uses; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| -> f64 {
        // Position k(n+1)/4, 1-based, clamped so it interpolates inside.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic stand-in for round durations of a quiet machine:
    /// 1.0 with ±1 % jitter.
    fn clean_rounds(n: usize) -> Vec<f64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                0.99 + (x % 2001) as f64 / 100_000.0
            })
            .collect()
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Slow `tenths` of every ten rounds by a factor sweeping 1.5..3.
    fn with_steal(clean: &[f64], tenths: usize) -> Vec<f64> {
        clean
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                if i % 10 < tenths {
                    d * (1.5 + 1.5 * (i % 7) as f64 / 6.0)
                } else {
                    d
                }
            })
            .collect()
    }

    #[test]
    fn steal_on_a_third_of_the_rounds_barely_moves_the_estimate() {
        let clean = clean_rounds(400);
        let noisy = with_steal(&clean, 3);
        let (q0, q1) = (quiet(&clean, Better::Lower), quiet(&noisy, Better::Lower));
        assert!((q1 / q0 - 1.0).abs() < 0.03, "quiet moved {q0} -> {q1}");
        assert!(mean(&noisy) / mean(&clean) > 1.2, "the mean must move");
        // The median of a sample that is 70 % clean is a clean round, so
        // it needs more steal than that to move; the estimate still holds.
        let heavy = with_steal(&clean, 6);
        let q2 = quiet(&heavy, Better::Lower);
        assert!((q2 / q0 - 1.0).abs() < 0.03, "quiet moved {q0} -> {q2}");
        assert!(
            median(&heavy) / median(&clean) > 1.2,
            "the median must move"
        );
    }

    #[test]
    fn a_uniform_slowdown_is_not_hidden() {
        let clean = clean_rounds(400);
        let slower: Vec<f64> = clean.iter().map(|d| d * 1.1).collect();
        let ratio = quiet(&slower, Better::Lower) / quiet(&clean, Better::Lower);
        assert!((ratio - 1.1).abs() < 1e-9, "ratio {ratio}");
        // Same for a rate: every round 10 % slower is a 10 % lower rate.
        let rates: Vec<f64> = clean.iter().map(|d| 1000.0 / d).collect();
        let slower_rates: Vec<f64> = slower.iter().map(|d| 1000.0 / d).collect();
        let ratio = quiet(&slower_rates, Better::Higher) / quiet(&rates, Better::Higher);
        assert!((ratio - 1.0 / 1.1).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn a_periodic_stall_raises_the_noisy_share() {
        let clean = clean_rounds(400);
        assert_eq!(noisy_share(&clean), 0.0);
        let stalled: Vec<f64> = clean
            .iter()
            .enumerate()
            .map(|(i, &d)| if i % 5 == 4 { d * 2.0 } else { d })
            .collect();
        let share = noisy_share(&stalled);
        assert!((share - 0.2).abs() < 1e-9, "share {share}");
        // ... while the estimate itself does not see it.
        let ratio = quiet(&stalled, Better::Lower) / quiet(&clean, Better::Lower);
        assert!((ratio - 1.0).abs() < 0.01);
    }

    #[test]
    fn few_rounds_fall_back_to_the_lower_quartile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&v, Better::Lower), 6.0); // index 20 / 4 = 5
        assert_eq!(quiet(&v, Better::Higher), 15.0);
        let v: Vec<f64> = (1..=43).map(f64::from).collect();
        assert_eq!(quiet(&v, Better::Lower), 11.0); // index 43 / 4 = 10
        let v: Vec<f64> = (1..=44).map(f64::from).collect();
        assert_eq!(quiet(&v, Better::Lower), 11.0); // 44 / 4 = 11, capped at index 10
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quiet(&v, Better::Lower), 11.0);
        assert_eq!(quiet(&[7.0], Better::Lower), 7.0);
        assert_eq!(quiet(&[], Better::Lower), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }
}

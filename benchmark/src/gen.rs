//! Inputs drawn from the run's seed.  The service never sees the seed,
//! only what is generated here: pattern seeds, CSR structures, and the
//! open loop's arrival schedule.  The seed changes *which* indices a
//! pattern references, never its shape, so every seed is the same amount
//! of work.

use crate::catalogue as cat;
use smartapps_server::{WireDist, WireSpec};
use smartapps_workloads::{AccessPattern, Distribution, PatternSpec};

/// SplitMix64: small, seedable, and good enough to draw pattern seeds
/// and exponential gaps from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5bd1_e995_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap of a Poisson process with `rate` events per unit.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// The small hot class of the wire workloads (the `netload` shape).
pub fn small_spec(seed: u64) -> WireSpec {
    WireSpec {
        elements: cat::SMALL_ELEMENTS,
        iterations: cat::SMALL_ITERATIONS,
        refs_per_iter: cat::SMALL_REFS_PER_ITER,
        coverage: cat::SMALL_COVERAGE,
        dist: WireDist::Uniform,
        seed,
    }
}

/// The heavy tenant's ≈ 100 k-reference pattern.
pub fn heavy_pattern(seed: u64) -> AccessPattern {
    PatternSpec {
        num_elements: cat::HEAVY_ELEMENTS,
        iterations: cat::HEAVY_ITERATIONS,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: Distribution::Uniform,
        seed,
    }
    .generate()
}

/// One CSR structure the churn workload uploads (≈ 50 k references).
/// `variant` varies the array dimension so the four uploads are four
/// workload classes, not one.
pub fn churn_upload_pattern(variant: usize, seed: u64) -> AccessPattern {
    PatternSpec {
        num_elements: cat::CHURN_UPLOAD_ELEMENTS << variant,
        iterations: cat::CHURN_UPLOAD_ITERATIONS,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: Distribution::Uniform,
        seed,
    }
    .generate()
}

/// The inline first-sight classes of the churn workload: a fixed grid of
/// small shapes (array dimension × iteration count × references per
/// iteration) so each lands in its own signature bucket; only the pattern
/// seed comes from the run's seed.
pub fn churn_inline_specs(rng: &mut Rng, count: usize) -> Vec<WireSpec> {
    let mut specs = Vec::with_capacity(count);
    'grid: for refs_per_iter in [2usize, 1, 3] {
        for e in 0..8 {
            for i in 0..6 {
                if specs.len() == count {
                    break 'grid;
                }
                specs.push(WireSpec {
                    // Dimension and iteration count sit mid-bucket
                    // (1.4 x a power of two): signatures hash their log2.
                    elements: 90 << e,
                    iterations: 180 << i,
                    refs_per_iter,
                    coverage: 1.0,
                    dist: WireDist::Uniform,
                    seed: rng.next_u64() >> 16,
                });
            }
        }
    }
    assert_eq!(specs.len(), count, "the shape grid holds 144 classes");
    specs
}

/// Overlapping sliding windows: iteration `i` covers `width` consecutive
/// elements starting at a seed-dependent offset — the contiguous-interval
/// shape the simplification pass rewrites.
pub fn window_pattern(n: usize, iters: usize, width: usize, rng: &mut Rng) -> AccessPattern {
    let span = n - width + 1;
    let (start, step) = (rng.next_u64() as usize % span, 3);
    let rows: Vec<Vec<u32>> = (0..iters)
        .map(|i| {
            let lo = (start + i * step) % span;
            (lo as u32..(lo + width) as u32).collect()
        })
        .collect();
    AccessPattern::from_iters(n, &rows)
}

/// The same windows with every other element: strictly ascending but not
/// unit-step, so the recognizer must decline them and the job runs
/// unsimplified although it declares a uniform body.
pub fn strided_pattern(n: usize, iters: usize, width: usize, rng: &mut Rng) -> AccessPattern {
    let span = n - 2 * width + 1;
    let (start, step) = (rng.next_u64() as usize % span, 3);
    let rows: Vec<Vec<u32>> = (0..iters)
        .map(|i| {
            let lo = (start + i * step) % span;
            (0..width).map(|k| (lo + 2 * k) as u32).collect()
        })
        .collect();
    AccessPattern::from_iters(n, &rows)
}

/// One arrival of the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds from the schedule's start.
    pub due_ns: u64,
    /// Heavy tenant (binary, full f64 reply) or light (text, ack).
    pub heavy: bool,
    /// Which of the tenant's classes.
    pub class: u8,
    /// Index into the rate steps.
    pub step: u8,
}

/// Two independent Poisson streams (light, heavy) through the rate steps
/// of `catalogue::OPEN_STEPS`, merged in due order over `seconds`.
pub fn open_schedule(rng: &mut Rng, seconds: f64) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (heavy, base, classes) in [
        (false, cat::OPEN_LIGHT_RATE, cat::SMALL_CLASSES),
        (true, cat::OPEN_HEAVY_RATE, cat::HEAVY_CLASSES),
    ] {
        let mut step_start = 0.0;
        for (step, &(scale, share)) in cat::OPEN_STEPS.iter().enumerate() {
            let step_end = step_start + share * seconds;
            let mut t = step_start + rng.exp_gap(base * scale);
            while t < step_end {
                out.push(Arrival {
                    due_ns: (t * 1e9) as u64,
                    heavy,
                    class: (rng.next_u64() % classes as u64) as u8,
                    step: step as u8,
                });
                t += rng.exp_gap(base * scale);
            }
            step_start = step_end;
        }
    }
    out.sort_by_key(|a| a.due_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = open_schedule(&mut Rng::new(7), 2.0);
        let b = open_schedule(&mut Rng::new(7), 2.0);
        let c = open_schedule(&mut Rng::new(8), 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let expect = (cat::OPEN_LIGHT_RATE + cat::OPEN_HEAVY_RATE) * 2.0;
        assert!((a.len() as f64 / expect - 1.0).abs() < 0.1, "{}", a.len());
    }

    #[test]
    fn window_and_strided_rows_have_the_declared_shape() {
        let w = window_pattern(1024, 64, 32, &mut Rng::new(1));
        assert!(w.validate().is_ok());
        assert!((0..64).all(|i| w.refs(i).windows(2).all(|p| p[1] == p[0] + 1)));
        let s = strided_pattern(1024, 64, 32, &mut Rng::new(1));
        assert!(s.validate().is_ok());
        assert!((0..64).all(|i| s.refs(i).windows(2).all(|p| p[1] == p[0] + 2)));
    }

    #[test]
    fn churn_grid_is_the_same_shapes_for_every_seed() {
        let a = churn_inline_specs(&mut Rng::new(1), 92);
        let b = churn_inline_specs(&mut Rng::new(2), 92);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| (x.elements, x.iterations, x.refs_per_iter)
                == (y.elements, y.iterations, y.refs_per_iter)
                && x.seed != y.seed));
    }
}

//! Property tests for the online calibration loop: under arbitrary
//! workload mixes whose *measured* costs systematically diverge from the
//! analytic predictions, the calibrator's corrections drive the
//! predicted/measured ratio toward 1 — and corrected rankings follow the
//! measured truth, not the mispredicted model.

use proptest::prelude::*;
use smartapps_core::calibrate::Calibrator;
use smartapps_core::toolbox::DomainKey;
use smartapps_reductions::Scheme;

/// A synthetic workload class: a functioning domain, a raw analytic
/// prediction per scheme, and the hidden truth factor by which the model
/// mispredicts each scheme (the quantity calibration must recover).
#[derive(Debug, Clone)]
struct World {
    domain: DomainKey,
    /// (scheme, raw predicted units, truth factor): measured_ns =
    /// raw × truth × machine_scale.
    schemes: Vec<(Scheme, f64, f64)>,
    /// Hidden machine scale (ns per abstract unit) — must cancel out of
    /// every cross-scheme comparison.
    machine_scale: f64,
}

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Rep),
        Just(Scheme::Ll),
        Just(Scheme::Sel),
        Just(Scheme::Lw),
        Just(Scheme::Hash),
    ]
}

fn arb_world() -> impl Strategy<Value = World> {
    (
        (0u8..20, 0u8..8, 0u8..11, 1u8..30),
        proptest::collection::vec((arb_scheme(), 10.0f64..1e6, 0.25f64..4.0), 2..5),
        0.01f64..100.0,
    )
        .prop_map(|(d, mut schemes, machine_scale)| {
            // One strategy entry per distinct scheme (duplicates collapse).
            schemes.sort_by(|a, b| a.0.abbrev().cmp(b.0.abbrev()));
            schemes.dedup_by_key(|s| s.0);
            World {
                domain: DomainKey {
                    dim_bucket: d.0,
                    reuse_bucket: d.1,
                    sparsity_decile: d.2,
                    mo: d.3,
                },
                schemes,
                machine_scale,
            }
        })
}

/// Deterministic ±12% noise keyed on the round, so measurements are not
/// perfectly clean but the truth is still recoverable.
fn noisy(value: f64, round: usize) -> f64 {
    let wobble = 1.0 + 0.12 * (((round * 2_654_435_761) % 1000) as f64 / 500.0 - 1.0);
    value * wobble
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round-robin observations converge: every observed scheme's
    /// calibrated nanosecond estimate lands within 25% of its measured
    /// truth, regardless of the hidden machine scale.
    #[test]
    fn corrections_drive_predicted_over_measured_toward_one(world in arb_world()) {
        let mut cal = Calibrator::default();
        for round in 0..30 {
            for &(scheme, raw, truth) in &world.schemes {
                let measured = noisy(raw * truth * world.machine_scale, round);
                prop_assert!(
                    cal.observe(scheme, world.domain, false, raw, measured).is_some()
                );
            }
        }
        for &(scheme, raw, truth) in &world.schemes {
            let est = cal
                .estimate_ns(scheme, world.domain, false, raw)
                .expect("observed scheme must be estimable");
            let target = raw * truth * world.machine_scale;
            let ratio = est / target;
            prop_assert!(
                (0.75..=1.25).contains(&ratio),
                "{scheme}: estimate {est:.1} vs truth {target:.1} (ratio {ratio:.3})"
            );
        }
        prop_assert_eq!(
            cal.calibration_updates(),
            30 * world.schemes.len() as u64
        );
        prop_assert!(cal.mean_abs_error().is_finite());
    }

    /// The corrected *ranking* follows measured truth: whichever observed
    /// scheme is truly cheapest in nanoseconds ends up with the lowest
    /// corrected cost, even when the raw model ranks it last.
    #[test]
    fn corrected_ranking_follows_measured_truth(world in arb_world()) {
        let mut cal = Calibrator::default();
        for round in 0..40 {
            for &(scheme, raw, truth) in &world.schemes {
                let measured = noisy(raw * truth * world.machine_scale, round);
                cal.observe(scheme, world.domain, false, raw, measured);
            }
        }
        let truly_best = world
            .schemes
            .iter()
            .min_by(|a, b| (a.1 * a.2).total_cmp(&(b.1 * b.2)))
            .unwrap()
            .0;
        let corrected_best = world
            .schemes
            .iter()
            .map(|&(s, raw, _)| (s, raw * cal.correction(s, world.domain, false)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        // Tolerate a photo-finish: the corrected winner's true cost must
        // be within noise (15%) of the true winner's.
        let true_ns = |s: Scheme| {
            world
                .schemes
                .iter()
                .find(|(x, ..)| *x == s)
                .map(|&(_, raw, truth)| raw * truth)
                .unwrap()
        };
        prop_assert!(
            true_ns(corrected_best) <= 1.15 * true_ns(truly_best),
            "corrected best {corrected_best} (true {:.1}) vs truly best {truly_best} (true {:.1})",
            true_ns(corrected_best),
            true_ns(truly_best)
        );
    }

    /// Per-sample errors shrink: the mean absolute error over the last
    /// third of a long observation run is no worse than over the first
    /// third (the loop converges instead of oscillating).
    #[test]
    fn error_trend_is_downward(world in arb_world()) {
        let mut cal = Calibrator::default();
        let rounds = 45;
        let mut errs = Vec::new();
        for round in 0..rounds {
            for &(scheme, raw, truth) in &world.schemes {
                let measured = noisy(raw * truth * world.machine_scale, round);
                if let Some(r) = cal.observe(scheme, world.domain, false, raw, measured) {
                    errs.push((1.0 / r - 1.0).abs());
                }
            }
        }
        let third = errs.len() / 3;
        let head: f64 = errs[..third].iter().sum::<f64>() / third as f64;
        let tail: f64 = errs[errs.len() - third..].iter().sum::<f64>() / third as f64;
        prop_assert!(
            tail <= head + 0.05,
            "tail error {tail:.4} must not exceed head error {head:.4}"
        );
        // And the converged tail is small in absolute terms: within the
        // injected noise band plus slack.
        prop_assert!(tail < 0.35, "converged error too large: {tail:.4}");
    }
}

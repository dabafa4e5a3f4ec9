//! Online cost-model calibration: the measure→correct loop.
//!
//! The paper's central claim is that the decision model is *corrected by
//! measured performance*, not fixed analytic constants.  A
//! [`Calibrator`] is the one learner that does this — for the runtime
//! service's dispatcher and for the Figure-1 loop
//! ([`AdaptiveReduction`](crate::adaptive::AdaptiveReduction)) alike.  It
//! maintains per-`(Scheme, DomainKey, fused)` estimates of
//! **measured nanoseconds per abstract model unit**, blended
//! coarse-to-fine with confidence weights, so that
//!
//! * a scheme the analytic model systematically under-costs accumulates a
//!   correction that pushes it down the ranking until its *measured* cost
//!   justifies its rank;
//! * a scheme that has never executed keeps its analytic prediction
//!   (correction 1.0) — the model remains the prior, measurements the
//!   posterior;
//! * fused (multi-output) executions calibrate separately from split
//!   (single-output) ones, with the split estimate serving as the prior
//!   for the fused one — this is what lets a service take `ll`-regime
//!   fusion once measurements support it, instead of trusting the
//!   analytically pessimistic fanout constants forever.
//!
//! The estimates live in three levels, mixed coarse→fine by each level's
//! confidence (a saturating function of its sample count):
//!
//! ```text
//! Global                       one ns-per-unit scale for the machine
//!   └─ Scheme(s, fused)        per-scheme systematic model error
//!        └─ Class(s, d, fused) per-functioning-domain refinement
//! ```
//!
//! Corrections are *ratios* (`chain(s, d, fused) / global`), so the
//! machine scale cancels when two schemes are compared — exactly what a
//! ranking needs.  The state is plain data ([`Calibrator::export`] /
//! [`Calibrator::seed`]) so the runtime's `ProfileStore` can persist it
//! across restarts as `corr` records.
//!
//! See `docs/MODEL.md` for the full data-flow reference.

use crate::toolbox::DomainKey;
use smartapps_reductions::{DecisionModel, ModelInput, Scheme};
use std::collections::HashMap;

/// EWMA weight of a new sample once an estimate is warm (early samples
/// use `1/n` averaging so the estimate does not anchor on the first one).
const EWMA_ALPHA: f64 = 0.2;

/// Sample count at which a level's confidence reaches 0.5.
const CONF_HALF: f64 = 4.0;

/// Corrections are clamped into `[1/CORR_CLAMP, CORR_CLAMP]` so a wild
/// measurement (page fault, preemption) cannot eject a scheme from every
/// future ranking.
const CORR_CLAMP: f64 = 64.0;

/// One learned estimate: an EWMA of measured nanoseconds per abstract
/// model unit, plus the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correction {
    /// EWMA of `measured_ns / predicted_units`.
    pub ns_per_unit: f64,
    /// Samples folded into the EWMA.
    pub updates: u64,
}

impl Correction {
    /// A fresh estimate seeded with one value (used when loading persisted
    /// calibration state).
    pub fn seeded(ns_per_unit: f64, updates: u64) -> Self {
        Correction {
            ns_per_unit,
            updates,
        }
    }

    /// Fold one sample in: `1/n` averaging while cold, EWMA once warm.
    pub fn observe(&mut self, sample: f64) {
        if self.updates == 0 {
            self.ns_per_unit = sample;
        } else {
            let a = (1.0 / (self.updates as f64 + 1.0)).max(EWMA_ALPHA);
            self.ns_per_unit += a * (sample - self.ns_per_unit);
        }
        self.updates += 1;
    }

    /// How much weight this estimate carries against its coarser prior:
    /// `n / (n + 4)`, i.e. 0 with no samples, 0.5 after 4, →1 as samples
    /// accumulate.
    pub fn confidence(&self) -> f64 {
        let n = self.updates as f64;
        n / (n + CONF_HALF)
    }
}

/// The granularity a [`Correction`] applies at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrLevel {
    /// The machine-wide nanoseconds-per-unit scale (all schemes, all
    /// domains).
    Global,
    /// One scheme's systematic model error, split (`false`) or fused
    /// (`true`) execution.
    Scheme(Scheme, bool),
    /// One scheme within one functioning domain, split or fused.
    Class(Scheme, DomainKey, bool),
}

/// The calibrator: an analytic [`DecisionModel`] plus the learned
/// correction state that turns raw model units into measured-grounded
/// rankings.
///
/// # Example
///
/// ```
/// use smartapps_core::calibrate::Calibrator;
/// use smartapps_core::toolbox::DomainKey;
/// use smartapps_reductions::Scheme;
///
/// let mut cal = Calibrator::default();
/// let d = DomainKey { dim_bucket: 12, reuse_bucket: 4, sparsity_decile: 10, mo: 2 };
/// // The model predicted 100 units; the run measured 400 ns — and hash
/// // keeps measuring 4 ns/unit while rep measures 1 ns/unit.
/// for _ in 0..16 {
///     cal.observe(Scheme::Hash, d, false, 100.0, 400.0);
///     cal.observe(Scheme::Rep, d, false, 100.0, 100.0);
/// }
/// // Relative correction: hash is pushed up, rep down, ratios preserved.
/// let ratio = cal.correction(Scheme::Hash, d, false) / cal.correction(Scheme::Rep, d, false);
/// assert!((ratio - 4.0).abs() < 0.5, "{ratio}");
/// // An unmeasured scheme keeps its analytic prediction (ratio ~1 vs global).
/// assert!(cal.correction(Scheme::Sel, d, false) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// The underlying analytic model (the prior every correction refines).
    pub model: DecisionModel,
    levels: HashMap<CorrLevel, Correction>,
    updates: u64,
    abs_err_sum: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new(DecisionModel::default())
    }
}

impl Calibrator {
    /// Build around an analytic model.
    pub fn new(model: DecisionModel) -> Self {
        Calibrator {
            model,
            levels: HashMap::new(),
            updates: 0,
            abs_err_sum: 0.0,
        }
    }

    /// Chained coarse→fine ns-per-unit estimate for a scheme/domain, or
    /// `None` before any sample exists.  Each finer level pulls the
    /// estimate toward itself by its confidence; for fused queries the
    /// split levels act as priors (per-scheme implementation error is
    /// largely shared between the two execution shapes).
    fn chain(&self, scheme: Scheme, domain: DomainKey, fused: bool) -> Option<f64> {
        let mut est = self.levels.get(&CorrLevel::Global)?.ns_per_unit;
        let mix = |level: CorrLevel, est: &mut f64| {
            if let Some(c) = self.levels.get(&level) {
                *est += c.confidence() * (c.ns_per_unit - *est);
            }
        };
        mix(CorrLevel::Scheme(scheme, false), &mut est);
        if fused {
            mix(CorrLevel::Scheme(scheme, true), &mut est);
        }
        mix(CorrLevel::Class(scheme, domain, false), &mut est);
        if fused {
            mix(CorrLevel::Class(scheme, domain, true), &mut est);
        }
        Some(est)
    }

    /// The multiplicative correction applied to the analytic prediction of
    /// `scheme` in `domain`: the chained estimate relative to the global
    /// scale, clamped, `1.0` while uncalibrated.  Because every scheme is
    /// divided by the same global scale, *comparisons* between schemes
    /// depend only on their measured relative cost.
    pub fn correction(&self, scheme: Scheme, domain: DomainKey, fused: bool) -> f64 {
        let Some(global) = self.levels.get(&CorrLevel::Global) else {
            return 1.0;
        };
        if global.ns_per_unit <= 0.0 {
            return 1.0;
        }
        match self.chain(scheme, domain, fused) {
            Some(est) => (est / global.ns_per_unit).clamp(1.0 / CORR_CLAMP, CORR_CLAMP),
            None => 1.0,
        }
    }

    /// Corrected cost of one scheme (abstract units scaled by the learned
    /// correction; infinite predictions stay infinite).
    pub fn predict(&self, scheme: Scheme, input: &ModelInput, domain: DomainKey) -> f64 {
        self.price(scheme, input, domain).1
    }

    /// The one pricing of a scheme: `(analytic, corrected)`, where the
    /// analytic model cost is run once and corrected = analytic ×
    /// correction (an infinite analytic cost stays infinite).
    /// [`rank`](Calibrator::rank), [`predict`](Calibrator::predict) and
    /// [`explain`](Calibrator::explain) all read it.
    pub(crate) fn price(&self, scheme: Scheme, input: &ModelInput, d: DomainKey) -> (f64, f64) {
        let analytic = self.model.predict(scheme, input);
        if !analytic.is_finite() {
            return (analytic, analytic);
        }
        let corrected = analytic * self.correction(scheme, d, input.fanout > 1);
        (analytic, corrected)
    }

    /// Full nanosecond estimate for one execution, when calibrated:
    /// chained ns-per-unit × raw predicted units.
    pub fn estimate_ns(
        &self,
        scheme: Scheme,
        domain: DomainKey,
        fused: bool,
        predicted_units: f64,
    ) -> Option<f64> {
        if !predicted_units.is_finite() || predicted_units <= 0.0 {
            return None;
        }
        self.chain(scheme, domain, fused)
            .map(|est| est * predicted_units)
    }

    /// Rank schemes by corrected cost, best first.  The hardware
    /// [`Scheme::Pclr`] joins only when `input.pclr_available`, the
    /// vectorized [`Scheme::Simd`] only when `input.simd_available`
    /// (mirroring [`DecisionModel::decide`]).
    pub fn rank(&self, input: &ModelInput, domain: DomainKey) -> Vec<(Scheme, f64)> {
        let mut v: Vec<(Scheme, f64)> = Scheme::all_parallel()
            .into_iter()
            .chain(input.pclr_available.then_some(Scheme::Pclr))
            .chain(input.simd_available.then_some(Scheme::Simd))
            .map(|s| (s, self.price(s, input, domain).1))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// The confidence of the finest calibration level available for a
    /// scheme in a domain (class level if present, else the per-scheme
    /// level; 0.0 with no samples).
    pub fn confidence(&self, scheme: Scheme, domain: DomainKey, fused: bool) -> f64 {
        let conf = |level: CorrLevel| self.levels.get(&level).map_or(0.0, |c| c.confidence());
        conf(CorrLevel::Class(scheme, domain, fused)).max(conf(CorrLevel::Scheme(scheme, fused)))
    }

    /// The confidence of this exact `(scheme, domain, fused)` class
    /// level alone — 0.0 until the scheme has been measured *in this
    /// functioning domain*.  The runtime's exploration gate keys on this
    /// (not [`confidence`](Calibrator::confidence)) so a scheme measured
    /// elsewhere still gets sampled when a new domain appears.
    pub fn class_confidence(&self, scheme: Scheme, domain: DomainKey, fused: bool) -> f64 {
        self.levels
            .get(&CorrLevel::Class(scheme, domain, fused))
            .map_or(0.0, |c| c.confidence())
    }

    /// Fold one measured execution in: `predicted_units` is the **raw**
    /// analytic prediction at decision time, `measured_ns` the backend's
    /// cost sample (wall nanoseconds for software, simulated-machine
    /// nanoseconds for PCLR).  Returns the residual of the *pre-update*
    /// calibrated estimate, `measured / estimate` (`1.0` for the
    /// scale-setting first sample), or `None` when the sample is invalid
    /// and ignored.  Its error `|1/r − 1|` is what
    /// [`mean_abs_error`](Calibrator::mean_abs_error) averages.
    pub fn observe(
        &mut self,
        scheme: Scheme,
        domain: DomainKey,
        fused: bool,
        predicted_units: f64,
        measured_ns: f64,
    ) -> Option<f64> {
        if !(predicted_units.is_finite() && measured_ns.is_finite())
            || predicted_units <= 0.0
            || measured_ns <= 0.0
        {
            return None;
        }
        let est = self.estimate_ns(scheme, domain, fused, predicted_units);
        let sample = measured_ns / predicted_units;
        for level in [
            CorrLevel::Global,
            CorrLevel::Scheme(scheme, fused),
            CorrLevel::Class(scheme, domain, fused),
        ] {
            self.levels
                .entry(level)
                .or_insert(Correction {
                    ns_per_unit: 0.0,
                    updates: 0,
                })
                .observe(sample);
        }
        self.updates += 1;
        self.abs_err_sum += est.map_or(0.0, |est| (est / measured_ns - 1.0).abs());
        Some(est.map_or(1.0, |est| measured_ns / est))
    }

    /// Samples accepted since construction (or seeding).
    pub fn calibration_updates(&self) -> u64 {
        self.updates
    }

    /// Mean absolute relative prediction error over accepted samples
    /// (each measured against the calibrated estimate *before* its own
    /// update) — the number that trends toward 0 as the loop converges.
    pub fn mean_abs_error(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.abs_err_sum / self.updates as f64
        }
    }

    /// Export the learned state for persistence.
    pub fn export(&self) -> impl Iterator<Item = (CorrLevel, Correction)> + '_ {
        self.levels.iter().map(|(k, v)| (*k, *v))
    }

    /// Seed one level from persisted state.  An existing level keeps
    /// whichever estimate carries more samples.
    pub fn seed(&mut self, level: CorrLevel, corr: Correction) {
        if !corr.ns_per_unit.is_finite() || corr.ns_per_unit <= 0.0 {
            return;
        }
        match self.levels.get_mut(&level) {
            Some(mine) if mine.updates >= corr.updates => {}
            _ => {
                self.levels.insert(level, corr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolbox::MEASURED_CONFIDENCE;
    use smartapps_workloads::{Distribution, PatternChars, PatternSpec};

    fn domain() -> DomainKey {
        DomainKey {
            dim_bucket: 12,
            reuse_bucket: 4,
            sparsity_decile: 10,
            mo: 2,
        }
    }

    #[test]
    fn uncalibrated_is_the_identity() {
        let cal = Calibrator::default();
        let d = domain();
        assert_eq!(cal.correction(Scheme::Rep, d, false), 1.0);
        assert!(cal.estimate_ns(Scheme::Rep, d, false, 100.0).is_none());
        assert_eq!(cal.calibration_updates(), 0);
        assert_eq!(cal.mean_abs_error(), 0.0);
    }

    #[test]
    fn uncalibrated_rank_matches_the_model() {
        let cal = Calibrator::default();
        let pat = PatternSpec {
            num_elements: 4096,
            iterations: 20_000,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed: 3,
        }
        .generate();
        let chars = PatternChars::measure(&pat);
        let conflicting = ModelInput::estimate_conflicts(&chars, 4);
        let replication = ModelInput::estimate_replication(&chars, 4);
        let input = ModelInput {
            chars: chars.clone(),
            conflicting,
            replication,
            threads: 4,
            lw_feasible: false,
            fanout: 1,
            pclr_available: false,
            simd_available: false,
        };
        let d = DomainKey::of(&chars);
        let ranked = cal.rank(&input, d);
        let analytic = cal.model.decide(&input);
        assert_eq!(
            ranked.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            analytic.ranking.iter().map(|(s, _)| *s).collect::<Vec<_>>()
        );
        // The backend-gated schemes join only when the input reports them.
        assert!(ranked.iter().all(|(s, _)| s.is_software()));
        let gated = cal.rank(&input.clone().with_pclr(true).with_simd(true), d);
        assert_eq!(gated.len(), ranked.len() + 2);
        assert!(gated.iter().any(|(s, _)| *s == Scheme::Simd));
        assert!(gated.iter().any(|(s, _)| *s == Scheme::Pclr));
    }

    #[test]
    fn rank_at_fanout_prices_a_fused_batch() {
        use smartapps_reductions::Inspector;
        let pat = PatternSpec {
            num_elements: 4096,
            iterations: 8192,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed: 3,
        }
        .generate();
        let insp = Inspector::analyze(&pat, 4);
        let input = ModelInput::from_inspection(&insp, false);
        let d = DomainKey::of(&insp.chars);
        let cal = Calibrator::default();
        // fanout == 1 must agree with the plain ranking...
        assert_eq!(
            cal.rank(&input.clone().with_fanout(1), d),
            cal.rank(&input, d)
        );
        // ...and a fused batch must cost more in absolute units but less
        // than K independent runs for the winning scheme.
        let (best, one_cost) = cal.rank(&input, d)[0];
        let fused_cost = cal
            .rank(&input.clone().with_fanout(6), d)
            .iter()
            .find(|(s, _)| *s == best)
            .map(|(_, c)| *c)
            .unwrap();
        assert!(fused_cost > one_cost);
        assert!(fused_cost < 6.0 * one_cost);
    }

    #[test]
    fn relative_corrections_reflect_measured_truth() {
        let mut cal = Calibrator::default();
        let d = domain();
        // The model claims both schemes cost 100 units; reality says hash
        // takes 4x what rep takes.
        for _ in 0..32 {
            assert!(cal.observe(Scheme::Hash, d, false, 100.0, 800.0).is_some());
            assert!(cal.observe(Scheme::Rep, d, false, 100.0, 200.0).is_some());
        }
        let ratio = cal.correction(Scheme::Hash, d, false) / cal.correction(Scheme::Rep, d, false);
        assert!((ratio - 4.0).abs() < 0.6, "ratio {ratio}");
        // Error of a converged estimate is small.
        let est = cal.estimate_ns(Scheme::Rep, d, false, 100.0).unwrap();
        assert!((est - 200.0).abs() / 200.0 < 0.15, "est {est}");
        assert_eq!(cal.calibration_updates(), 64);
    }

    #[test]
    fn invalid_samples_are_rejected() {
        let mut cal = Calibrator::default();
        let d = domain();
        assert!(cal.observe(Scheme::Rep, d, false, 0.0, 100.0).is_none());
        assert!(cal.observe(Scheme::Rep, d, false, 100.0, 0.0).is_none());
        assert!(cal
            .observe(Scheme::Rep, d, false, f64::INFINITY, 100.0)
            .is_none());
        assert!(cal
            .observe(Scheme::Rep, d, false, 100.0, f64::NAN)
            .is_none());
        assert_eq!(cal.calibration_updates(), 0);
    }

    #[test]
    fn split_estimate_is_the_fused_prior() {
        let mut cal = Calibrator::default();
        let d = domain();
        // Only split samples exist: the fused query inherits them.
        for _ in 0..16 {
            cal.observe(Scheme::Ll, d, false, 100.0, 300.0);
        }
        let split = cal.estimate_ns(Scheme::Ll, d, false, 100.0).unwrap();
        let fused = cal.estimate_ns(Scheme::Ll, d, true, 100.0).unwrap();
        assert!((split - fused).abs() < 1e-9);
        // But fused evidence is still absent until fused samples arrive.
        assert!(cal.confidence(Scheme::Ll, d, true) < MEASURED_CONFIDENCE);
        for _ in 0..8 {
            cal.observe(Scheme::Ll, d, true, 100.0, 150.0);
        }
        assert!(cal.confidence(Scheme::Ll, d, true) >= MEASURED_CONFIDENCE);
        let fused = cal.estimate_ns(Scheme::Ll, d, true, 100.0).unwrap();
        assert!(fused < split, "fused samples must refine the prior");
    }

    #[test]
    fn corrections_flip_a_ranking_toward_measured_truth() {
        // A model that lies: hash predicted at 100 units, rep at 200 —
        // but measurements say hash really costs 4x rep.
        let mut cal = Calibrator::default();
        let d = domain();
        for _ in 0..24 {
            cal.observe(Scheme::Hash, d, false, 100.0, 4000.0);
            cal.observe(Scheme::Rep, d, false, 200.0, 2000.0);
        }
        let hash = 100.0 * cal.correction(Scheme::Hash, d, false);
        let rep = 200.0 * cal.correction(Scheme::Rep, d, false);
        assert!(
            rep < hash,
            "corrected ranking must follow measurements: rep {rep} vs hash {hash}"
        );
    }

    #[test]
    fn export_seed_round_trip() {
        let mut cal = Calibrator::default();
        let d = domain();
        for _ in 0..8 {
            cal.observe(Scheme::Sel, d, false, 50.0, 700.0);
            cal.observe(Scheme::Sel, d, true, 80.0, 900.0);
        }
        let mut fresh = Calibrator::default();
        for (level, corr) in cal.export() {
            fresh.seed(level, corr);
        }
        assert!(
            (fresh.correction(Scheme::Sel, d, true) - cal.correction(Scheme::Sel, d, true)).abs()
                < 1e-12
        );
        assert!(fresh.confidence(Scheme::Sel, d, true) >= MEASURED_CONFIDENCE);
        // Seeding with fewer samples never clobbers a warmer estimate.
        let warm = fresh.correction(Scheme::Sel, d, false);
        fresh.seed(
            CorrLevel::Class(Scheme::Sel, d, false),
            Correction::seeded(1e9, 1),
        );
        assert!((fresh.correction(Scheme::Sel, d, false) - warm).abs() < 1e-12);
        // Invalid seeds are ignored.
        fresh.seed(CorrLevel::Global, Correction::seeded(f64::NAN, 1000));
        assert!(fresh.correction(Scheme::Sel, d, false).is_finite());
    }

    #[test]
    fn wild_measurements_are_clamped() {
        let mut cal = Calibrator::default();
        let d = domain();
        cal.observe(Scheme::Rep, d, false, 100.0, 100.0);
        // One absurd hash sample cannot push the correction past the clamp.
        cal.observe(Scheme::Hash, d, false, 1.0, 1e12);
        let c = cal.correction(Scheme::Hash, d, false);
        assert!(c <= CORR_CLAMP, "{c}");
    }

    #[test]
    fn mean_error_decreases_as_estimates_converge() {
        let mut cal = Calibrator::default();
        let d = domain();
        let mut early = 0.0;
        let mut late = 0.0;
        for i in 0..40 {
            let residual = cal.observe(Scheme::Ll, d, false, 100.0, 500.0).unwrap();
            let err = (1.0 / residual - 1.0).abs();
            if i < 5 {
                early += err;
            } else if i >= 35 {
                late += err;
            }
        }
        assert!(
            late <= early,
            "late errors {late} must not exceed early {early}"
        );
        assert!(cal.mean_abs_error() < 0.5);
    }
}

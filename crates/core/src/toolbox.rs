//! The ToolBox (Figure 2): performance evaluator, predictor, optimizer and
//! configurer, backed by application- and system-specific databases.
//!
//! * the **Performance Evaluator** measures performance and compares it
//!   with predicted values;
//! * the **Predictor** predicts performance from models plus statistical
//!   information from previous runs;
//! * the **Optimizer** computes an "optimal" configuration;
//! * the **Configurer** applies it.
//!
//! The databases here hold per-(loop, functioning-domain) samples of
//! measured scheme performance; the predictor corrects the analytic
//! decision model with measured/predicted ratios learned online.

use serde::{Deserialize, Serialize};
use smartapps_reductions::{DecisionModel, ModelInput, Scheme};
use std::collections::HashMap;
use std::time::Duration;

/// A coarse digest of a pattern's characteristics: the "functioning
/// domain" an application instance falls into.  Instances in the same
/// domain share optimization decisions and database entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DomainKey {
    /// log2 bucket of the array dimension.
    pub dim_bucket: u8,
    /// log2 bucket of references per element (contention).
    pub reuse_bucket: u8,
    /// Sparsity decile (0-10).
    pub sparsity_decile: u8,
    /// Rounded mobility (distinct elements per iteration).
    pub mo: u8,
}

impl DomainKey {
    /// Pack the four buckets into one `u32`
    /// (`dim | reuse | sparsity | mo`, big-endian by field) — the stable
    /// encoding the runtime's profile store uses for `corr` records.
    ///
    /// ```
    /// use smartapps_core::toolbox::DomainKey;
    /// let d = DomainKey { dim_bucket: 12, reuse_bucket: 4, sparsity_decile: 10, mo: 2 };
    /// assert_eq!(DomainKey::unpack(d.pack()), d);
    /// assert_eq!(d.pack(), 0x0c040a02);
    /// ```
    pub fn pack(&self) -> u32 {
        u32::from_be_bytes([
            self.dim_bucket,
            self.reuse_bucket,
            self.sparsity_decile,
            self.mo,
        ])
    }

    /// Inverse of [`pack`](DomainKey::pack).
    pub fn unpack(bits: u32) -> Self {
        let [dim_bucket, reuse_bucket, sparsity_decile, mo] = bits.to_be_bytes();
        DomainKey {
            dim_bucket,
            reuse_bucket,
            sparsity_decile,
            mo,
        }
    }

    /// Compute the domain of a characterization.
    pub fn of(chars: &smartapps_workloads::PatternChars) -> Self {
        let log2b = |x: f64| -> u8 {
            if x <= 1.0 {
                0
            } else {
                (x.log2().round() as i64).clamp(0, 255) as u8
            }
        };
        DomainKey {
            dim_bucket: log2b(chars.num_elements as f64),
            reuse_bucket: log2b(if chars.distinct > 0 {
                chars.references as f64 / chars.distinct as f64
            } else {
                0.0
            }),
            sparsity_decile: (chars.sp * 10.0).round().clamp(0.0, 10.0) as u8,
            mo: chars.mo.round().clamp(0.0, 255.0) as u8,
        }
    }
}

/// One measured execution.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Sample {
    /// Scheme executed.
    pub scheme: Scheme,
    /// Wall time.
    pub elapsed: Duration,
    /// Model-predicted cost at decision time (abstract units).
    pub predicted: f64,
}

/// The application-specific performance database.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct PerformanceDb {
    samples: HashMap<(u64, DomainKey), Vec<Sample>>,
}

impl PerformanceDb {
    /// Record a sample for `loop_id` in `domain`.
    pub fn record(&mut self, loop_id: u64, domain: DomainKey, sample: Sample) {
        self.samples
            .entry((loop_id, domain))
            .or_default()
            .push(sample);
    }

    /// All samples for a loop/domain.
    pub fn samples(&self, loop_id: u64, domain: DomainKey) -> &[Sample] {
        self.samples
            .get(&(loop_id, domain))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate every `((loop_id, domain), samples)` entry — the export
    /// surface the runtime's cross-run profile store persists through.
    pub fn entries(&self) -> impl Iterator<Item = ((u64, DomainKey), &[Sample])> + '_ {
        self.samples.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Best measured scheme for a loop/domain, if any.
    pub fn best_scheme(&self, loop_id: u64, domain: DomainKey) -> Option<Scheme> {
        self.samples(loop_id, domain)
            .iter()
            .min_by_key(|s| s.elapsed)
            .map(|s| s.scheme)
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.values().map(Vec::len).sum()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The Predictor: analytic model costs, corrected per scheme by the
/// measured/predicted ratio learned from the database (exponential moving
/// average).
#[derive(Debug, Clone)]
pub struct Predictor {
    /// Underlying analytic model.
    pub model: DecisionModel,
    correction: HashMap<Scheme, f64>,
    ema_alpha: f64,
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor {
            model: DecisionModel::default(),
            correction: HashMap::new(),
            ema_alpha: 0.3,
        }
    }
}

impl Predictor {
    /// Predicted cost of a scheme, with learned correction.
    pub fn predict(&self, scheme: Scheme, input: &ModelInput) -> f64 {
        let base = self.model.predict(scheme, input);
        base * self.correction.get(&scheme).copied().unwrap_or(1.0)
    }

    /// Rank schemes by corrected predicted cost (best first).
    pub fn rank(&self, input: &ModelInput) -> Vec<(Scheme, f64)> {
        let mut v: Vec<(Scheme, f64)> = Scheme::all_parallel()
            .into_iter()
            .map(|s| (s, self.predict(s, input)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// Learn from a measurement: fold `measured_units / predicted` into the
    /// scheme's correction factor.  `measured_units` must be in the same
    /// abstract scale as predictions — callers normalize wall time by a
    /// per-machine calibration constant.  (The runtime's
    /// [`Calibrator`](crate::calibrate::Calibrator) does that
    /// normalization automatically and refines corrections per
    /// [`DomainKey`]; this predictor is the single-process flavor the
    /// adaptive loop embeds.)
    ///
    /// Invalid samples (non-finite, non-positive) are ignored:
    ///
    /// ```
    /// use smartapps_core::toolbox::Predictor;
    /// use smartapps_reductions::Scheme;
    ///
    /// let mut p = Predictor::default();
    /// // rep keeps measuring 2x its prediction: the correction converges
    /// // toward the measured/predicted ratio.
    /// for _ in 0..20 {
    ///     p.learn(Scheme::Rep, 100.0, 200.0);
    /// }
    /// assert!(p.correction(Scheme::Rep) > 1.8);
    /// p.learn(Scheme::Rep, 0.0, 100.0);      // ignored
    /// p.learn(Scheme::Rep, 100.0, f64::NAN); // ignored
    /// assert!(p.correction(Scheme::Rep).is_finite());
    /// ```
    pub fn learn(&mut self, scheme: Scheme, predicted: f64, measured_units: f64) {
        if !(predicted.is_finite() && measured_units.is_finite())
            || predicted <= 0.0
            || measured_units <= 0.0
        {
            return;
        }
        let ratio = measured_units / predicted;
        let c = self.correction.entry(scheme).or_insert(1.0);
        *c = (1.0 - self.ema_alpha) * *c + self.ema_alpha * ratio;
    }

    /// Current correction factor for a scheme (`1.0` until
    /// [`learn`](Predictor::learn) has folded in a measurement).
    ///
    /// ```
    /// use smartapps_core::toolbox::Predictor;
    /// use smartapps_reductions::Scheme;
    ///
    /// let mut p = Predictor::default();
    /// assert_eq!(p.correction(Scheme::Hash), 1.0);
    /// p.learn(Scheme::Hash, 100.0, 400.0);
    /// assert!(p.correction(Scheme::Hash) > 1.0); // measured slower than predicted
    /// ```
    pub fn correction(&self, scheme: Scheme) -> f64 {
        self.correction.get(&scheme).copied().unwrap_or(1.0)
    }
}

/// The Evaluator: deviation of measured performance from predicted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Deviation {
    /// measured / predicted (1.0 = on target).
    pub ratio: f64,
}

impl Deviation {
    /// Compute the deviation.
    pub fn evaluate(predicted: f64, measured: f64) -> Deviation {
        Deviation {
            ratio: if predicted > 0.0 {
                measured / predicted
            } else {
                f64::INFINITY
            },
        }
    }

    /// Magnitude of the deviation (symmetric: 2x too slow == 2x too fast).
    pub fn magnitude(&self) -> f64 {
        if self.ratio <= 0.0 || !self.ratio.is_finite() {
            return f64::INFINITY;
        }
        self.ratio.max(1.0 / self.ratio)
    }
}

/// Actions the Optimizer can request, in increasing order of disruption —
/// the "nested multi-level adaptive feedback loop that ... based on the
/// magnitude of deviation from expected performance, compensates with
/// various actions".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Adaptation {
    /// Performance on target: keep everything.
    Keep,
    /// Small deviation: run-time tuning without re-decision (e.g., refresh
    /// scheduling feedback).
    Tune,
    /// Moderate deviation: re-run the decision with learned corrections
    /// (possibly switching scheme) — "small adaption (tuning)".
    Redecide,
    /// Large deviation or phase change: re-characterize the pattern from
    /// scratch — "large adaption (failure, phase change)".
    Recharacterize,
}

/// The Optimizer: maps deviation magnitude to an adaptation level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Optimizer {
    /// Deviation magnitude below which nothing happens.
    pub keep_below: f64,
    /// Below this, light tuning only.
    pub tune_below: f64,
    /// Below this, re-decide; above, re-characterize.
    pub redecide_below: f64,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            keep_below: 1.15,
            tune_below: 1.4,
            redecide_below: 2.5,
        }
    }
}

impl Optimizer {
    /// Choose the adaptation for a deviation.
    ///
    /// The policy is asymmetric: running *slower* than predicted escalates
    /// up to re-characterization, but running *faster* than predicted is
    /// good news — at most the calibration gets tuned.  (A symmetric
    /// policy would discard a decision precisely when the warmed-up code
    /// starts beating the cold-start calibration.)
    pub fn adapt(&self, dev: Deviation) -> Adaptation {
        if !dev.ratio.is_finite() {
            return Adaptation::Recharacterize;
        }
        if dev.ratio <= 1.0 {
            return if 1.0 / dev.ratio.max(1e-300) < self.tune_below {
                Adaptation::Keep
            } else {
                Adaptation::Tune
            };
        }
        let m = dev.ratio;
        if m < self.keep_below {
            Adaptation::Keep
        } else if m < self.tune_below {
            Adaptation::Tune
        } else if m < self.redecide_below {
            Adaptation::Redecide
        } else {
            Adaptation::Recharacterize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::{Distribution, PatternChars, PatternSpec};

    fn chars() -> PatternChars {
        PatternChars::measure(
            &PatternSpec {
                num_elements: 1024,
                iterations: 4096,
                refs_per_iter: 2,
                coverage: 1.0,
                dist: Distribution::Uniform,
                seed: 1,
            }
            .generate(),
        )
    }

    #[test]
    fn domain_key_buckets_similar_instances_together() {
        let a = DomainKey::of(&chars());
        let b = DomainKey::of(&chars());
        assert_eq!(a, b);
        // A 64x larger array lands in a different domain.
        let big = PatternChars::measure(
            &PatternSpec {
                num_elements: 65536,
                iterations: 4096,
                refs_per_iter: 2,
                coverage: 1.0,
                dist: Distribution::Uniform,
                seed: 1,
            }
            .generate(),
        );
        assert_ne!(DomainKey::of(&big), a);
    }

    #[test]
    fn db_records_and_ranks() {
        let mut db = PerformanceDb::default();
        let d = DomainKey::of(&chars());
        assert!(db.is_empty());
        db.record(
            7,
            d,
            Sample {
                scheme: Scheme::Rep,
                elapsed: Duration::from_millis(10),
                predicted: 100.0,
            },
        );
        db.record(
            7,
            d,
            Sample {
                scheme: Scheme::Sel,
                elapsed: Duration::from_millis(6),
                predicted: 80.0,
            },
        );
        assert_eq!(db.len(), 2);
        assert_eq!(db.best_scheme(7, d), Some(Scheme::Sel));
        assert_eq!(db.best_scheme(8, d), None);
        assert_eq!(db.samples(7, d).len(), 2);
    }

    #[test]
    fn predictor_learns_corrections() {
        let mut p = Predictor::default();
        assert_eq!(p.correction(Scheme::Rep), 1.0);
        // rep consistently measures 2x its prediction.
        for _ in 0..20 {
            p.learn(Scheme::Rep, 100.0, 200.0);
        }
        assert!(
            p.correction(Scheme::Rep) > 1.8,
            "{}",
            p.correction(Scheme::Rep)
        );
        // Invalid measurements are ignored.
        p.learn(Scheme::Rep, 0.0, 100.0);
        p.learn(Scheme::Rep, 100.0, f64::NAN);
        assert!(p.correction(Scheme::Rep).is_finite());
    }

    #[test]
    fn rank_at_fanout_prices_a_fused_batch() {
        use smartapps_reductions::{Inspector, ModelInput};
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
        let p = Predictor::default();
        // fanout == 1 must agree with the plain ranking...
        assert_eq!(p.rank(&input.clone().with_fanout(1)), p.rank(&input));
        // ...and a fused batch must cost more in absolute units but less
        // than K independent runs for the winning scheme.
        let (best, one_cost) = p.rank(&input)[0];
        let fused_cost = p
            .rank(&input.clone().with_fanout(6))
            .iter()
            .find(|(s, _)| *s == best)
            .map(|(_, c)| *c)
            .unwrap();
        assert!(fused_cost > one_cost);
        assert!(fused_cost < 6.0 * one_cost);
    }

    #[test]
    fn deviation_magnitude_is_symmetric() {
        let slow = Deviation::evaluate(100.0, 200.0);
        let fast = Deviation::evaluate(200.0, 100.0);
        assert!((slow.magnitude() - 2.0).abs() < 1e-12);
        assert!((fast.magnitude() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn optimizer_escalates_with_slowdowns_only() {
        let o = Optimizer::default();
        assert_eq!(o.adapt(Deviation { ratio: 1.0 }), Adaptation::Keep);
        assert_eq!(o.adapt(Deviation { ratio: 1.3 }), Adaptation::Tune);
        assert_eq!(o.adapt(Deviation { ratio: 2.0 }), Adaptation::Redecide);
        assert_eq!(
            o.adapt(Deviation { ratio: 5.0 }),
            Adaptation::Recharacterize
        );
        // Faster than predicted: never more than calibration tuning.
        assert_eq!(o.adapt(Deviation { ratio: 0.9 }), Adaptation::Keep);
        assert_eq!(o.adapt(Deviation { ratio: 0.2 }), Adaptation::Tune);
        assert_eq!(
            o.adapt(Deviation {
                ratio: f64::INFINITY
            }),
            Adaptation::Recharacterize
        );
    }
}

//! The ToolBox (Figure 2): performance evaluator, predictor, optimizer and
//! configurer.
//!
//! * the **Performance Evaluator** ([`Deviation`]) compares measured
//!   performance with the predicted value;
//! * the **predictor** is the [`Calibrator`](crate::calibrate::Calibrator):
//!   the analytic model corrected by measured samples, keyed by the
//!   functioning domain ([`DomainKey`]) defined here;
//! * the **Optimizer** ([`Optimizer`]) maps a deviation to an
//!   [`Adaptation`];
//! * the **Configurer** (`configurer`) applies a configuration.

use serde::{Deserialize, Serialize};

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

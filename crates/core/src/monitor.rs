//! Phase-transition detection: the SmartApp "continuously monitors
//! performance and adapts as necessary".  The measurements themselves go
//! to the [`Calibrator`](crate::calibrate::Calibrator); this module decides
//! when a signal has changed for good.

use serde::{Deserialize, Serialize};

/// Detects phase transitions in a stream of scalar signatures (e.g., the
/// loop's reference drift or its invocation time): a transition is
/// declared when the signature stays beyond the threshold for `patience`
/// consecutive observations — one-off noise does not trigger adaptation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseDetector {
    threshold: f64,
    patience: usize,
    strikes: usize,
    phases: u64,
}

impl PhaseDetector {
    /// `threshold` is the relative-change trigger; `patience` the number
    /// of consecutive exceedances required.
    pub fn new(threshold: f64, patience: usize) -> Self {
        assert!(patience >= 1);
        PhaseDetector {
            threshold,
            patience,
            strikes: 0,
            phases: 0,
        }
    }

    /// Feed a relative-change observation (0.0 = unchanged); returns true
    /// when a phase transition is declared (and resets).
    pub fn observe(&mut self, rel_change: f64) -> bool {
        if rel_change > self.threshold {
            self.strikes += 1;
            if self.strikes >= self.patience {
                self.strikes = 0;
                self.phases += 1;
                return true;
            }
        } else {
            self.strikes = 0;
        }
        false
    }

    /// Number of phase transitions declared so far.
    pub fn phases(&self) -> u64 {
        self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_detector_needs_patience() {
        let mut d = PhaseDetector::new(0.5, 3);
        assert!(!d.observe(1.0));
        assert!(!d.observe(1.0));
        assert!(d.observe(1.0), "third consecutive exceedance fires");
        assert_eq!(d.phases(), 1);
        // Noise resets the strike count.
        assert!(!d.observe(1.0));
        assert!(!d.observe(0.1));
        assert!(!d.observe(1.0));
        assert!(!d.observe(1.0));
        assert!(d.observe(1.0));
        assert_eq!(d.phases(), 2);
    }

    #[test]
    fn quiet_signal_never_fires() {
        let mut d = PhaseDetector::new(0.3, 2);
        for _ in 0..100 {
            assert!(!d.observe(0.05));
        }
        assert_eq!(d.phases(), 0);
    }
}

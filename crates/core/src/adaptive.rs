//! The adaptive reduction runtime: inspect → decide → execute → monitor →
//! adapt, the instantiation of Figure 1's feedback loop for reduction
//! loops.
//!
//! Every invocation of a managed loop goes through:
//!
//! 1. **drift check** — a cheap characterization of a sample of the
//!    iteration space, compared against the pattern the current decision
//!    was made for; sustained drift (a phase change of a dynamic code)
//!    triggers re-characterization;
//! 2. **decision** — if no decision is current, a full inspector pass and
//!    the [`Calibrator`]'s corrected ranking pick a scheme;
//! 3. **execution** — the chosen scheme runs;
//! 4. **evaluation** — measured time is compared against the calibrator's
//!    estimate and then folded into it; the optimizer escalates (keep /
//!    tune / re-decide / re-characterize) according to the deviation
//!    magnitude.
//!
//! The loop learns per functioning domain ([`DomainKey`]), exactly like
//! the runtime service: `loop_id` is a label, not a partition of learned
//! state.  A loop built by the runtime's `Runtime::adaptive` shares the
//! service's calibrator, so what either learns steers the other and
//! persists with the service's `corr` records.

use crate::calibrate::Calibrator;
use crate::monitor::PhaseDetector;
use crate::toolbox::{Adaptation, Deviation, DomainKey, Optimizer};
use smartapps_reductions::{
    run_scheme_with, Analyses, Inspection, Inspector, ModelInput, Scheme, SpawnExecutor,
    SpmdExecutor,
};
use smartapps_workloads::pattern::AccessPattern;
use smartapps_workloads::{drift, PatternChars};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What happened during one adaptive invocation (for logs and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationLog {
    /// Scheme executed.
    pub scheme: Scheme,
    /// Whether a full (re-)characterization ran this invocation.
    pub characterized: bool,
    /// Measured drift of the sampled pattern vs the decision's pattern.
    pub drift: f64,
    /// Wall time of the scheme execution.
    pub elapsed: Duration,
    /// Adaptation decided after evaluation.
    pub adaptation: Adaptation,
}

struct Decided {
    scheme: Scheme,
    inspection: Inspection,
    sample_chars: PatternChars,
    /// Uncorrected model cost of `scheme`, the unit the calibrator learns in.
    raw_units: f64,
    domain: DomainKey,
}

/// The adaptive executor for one reduction loop site.
pub struct AdaptiveReduction {
    /// Loop site identifier (stable across invocations).
    pub loop_id: u64,
    /// Worker threads.
    pub threads: usize,
    /// Whether owner-computes is legal for this loop.
    pub lw_feasible: bool,
    /// The learner the loop decides from and learns into: a private one
    /// by default, the runtime service's own when built by
    /// `Runtime::adaptive`.
    pub calibrator: Arc<Mutex<Calibrator>>,
    /// Deviation → adaptation policy.
    pub optimizer: Optimizer,
    /// Iterations sampled for the cheap drift check.
    pub sample_iters: usize,
    drift_detector: PhaseDetector,
    state: Option<Decided>,
    /// Where scheme executions run: per-call thread spawning by default,
    /// or a shared persistent worker pool (`smartapps-runtime`).
    exec: Arc<dyn SpmdExecutor>,
}

impl AdaptiveReduction {
    /// Create an adaptive executor that spawns threads per invocation.
    pub fn new(loop_id: u64, threads: usize, lw_feasible: bool) -> Self {
        Self::with_executor(loop_id, threads, lw_feasible, Arc::new(SpawnExecutor))
    }

    /// Create an adaptive executor whose scheme executions run on `exec` —
    /// the constructor the runtime service uses to put every managed loop
    /// on one shared worker pool.
    pub fn with_executor(
        loop_id: u64,
        threads: usize,
        lw_feasible: bool,
        exec: Arc<dyn SpmdExecutor>,
    ) -> Self {
        AdaptiveReduction {
            loop_id,
            threads,
            lw_feasible,
            calibrator: Arc::default(),
            optimizer: Optimizer::default(),
            sample_iters: 2048,
            drift_detector: PhaseDetector::new(0.25, 2),
            state: None,
            exec,
        }
    }

    /// The currently decided scheme, if any.
    pub fn current_scheme(&self) -> Option<Scheme> {
        self.state.as_ref().map(|s| s.scheme)
    }

    /// Lock the calibrator (poison-tolerant: every update leaves it valid).
    fn cal(&self) -> MutexGuard<'_, Calibrator> {
        self.calibrator.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn sample_chars(&self, pat: &AccessPattern) -> PatternChars {
        PatternChars::measure(&pat.truncate_iterations(self.sample_iters))
    }

    /// The calibrator's best scheme for an inspection and its raw model
    /// cost.  The input comes from the inspection alone, so the backend
    /// schemes (`pclr`, `simd`) never enter the ranking.
    fn decide(&self, inspection: &Inspection, domain: DomainKey) -> (Scheme, f64) {
        let input = ModelInput::from_inspection(inspection, self.lw_feasible);
        let cal = self.cal();
        let scheme = cal.rank(&input, domain)[0].0;
        (scheme, cal.model.predict(scheme, &input))
    }

    /// Execute one invocation of the loop adaptively.
    pub fn execute(
        &mut self,
        pat: &AccessPattern,
        body: &(impl Fn(usize, usize) -> f64 + Sync),
    ) -> (Vec<f64>, InvocationLog) {
        // 1. Drift check against the decision's pattern.
        let mut measured_drift = 0.0;
        if let Some(st) = &self.state {
            measured_drift = drift(&st.sample_chars, &self.sample_chars(pat));
            if self.drift_detector.observe(measured_drift) {
                self.state = None; // phase change: re-characterize
            }
        }
        // 2. Decide if needed.
        let characterized = self.state.is_none();
        if characterized {
            let inspection = Inspector::analyze(pat, self.threads);
            let domain = DomainKey::of(&inspection.chars);
            let (scheme, raw_units) = self.decide(&inspection, domain);
            self.state = Some(Decided {
                scheme,
                sample_chars: self.sample_chars(pat),
                inspection,
                raw_units,
                domain,
            });
        }
        let st = self.state.as_ref().unwrap();
        let (scheme, raw_units, domain) = (st.scheme, st.raw_units, st.domain);
        // 3. Execute.  sel/lw must match the *current* pattern exactly, so
        // the stored inspection is reused only when it was taken this
        // call.  hash is handed no slot numbering: it numbers the pattern
        // in every run, so its samples all cost the same.
        let analyses = Analyses {
            inspection: characterized.then_some(&st.inspection),
            local: None,
        };
        let t0 = Instant::now();
        let out = run_scheme_with(scheme, pat, body, self.threads, analyses, &*self.exec);
        let elapsed = t0.elapsed();
        // 4. Learn from the sample, evaluating it against the estimate in
        // force before it (the calibrator's residual).  No estimate yet
        // reads as on target.
        let measured_ns = elapsed.as_nanos() as f64;
        let observed = self
            .cal()
            .observe(scheme, domain, false, raw_units, measured_ns);
        let ratio = observed.unwrap_or(1.0);
        let adaptation = self.optimizer.adapt(Deviation { ratio });
        match adaptation {
            Adaptation::Keep | Adaptation::Tune => {}
            Adaptation::Redecide => {
                // Re-rank with the learned corrections on the stored inspection.
                let st = self.state.as_ref().unwrap();
                let (scheme, raw_units) = self.decide(&st.inspection, domain);
                let st = self.state.as_mut().unwrap();
                st.scheme = scheme;
                st.raw_units = raw_units;
            }
            Adaptation::Recharacterize => self.state = None,
        }
        (
            out,
            InvocationLog {
                scheme,
                characterized,
                drift: measured_drift,
                elapsed,
                adaptation,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::pattern::{contribution, sequential_reduce};
    use smartapps_workloads::{Distribution, PatternSpec};

    fn pattern(n: usize, iters: usize, cov: f64, seed: u64) -> AccessPattern {
        PatternSpec {
            num_elements: n,
            iterations: iters,
            refs_per_iter: 2,
            coverage: cov,
            dist: Distribution::Uniform,
            seed,
        }
        .generate()
    }

    fn body(_i: usize, r: usize) -> f64 {
        contribution(r)
    }

    #[test]
    fn first_invocation_characterizes_and_is_correct() {
        let pat = pattern(4096, 20_000, 1.0, 1);
        let mut ar = AdaptiveReduction::new(1, 4, false);
        let (out, log) = ar.execute(&pat, &body);
        assert!(log.characterized);
        assert_eq!(log.drift, 0.0);
        let oracle = sequential_reduce(&pat);
        for (a, b) in oracle.iter().zip(out.iter()) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
        assert!(ar.current_scheme().is_some());
    }

    #[test]
    fn stable_pattern_reuses_decision() {
        let pat = pattern(4096, 20_000, 1.0, 1);
        let mut ar = AdaptiveReduction::new(1, 4, false);
        let (_, first) = ar.execute(&pat, &body);
        assert!(first.characterized);
        let mut recharacterizations = 0;
        for _ in 0..5 {
            let (_, log) = ar.execute(&pat, &body);
            if log.characterized {
                recharacterizations += 1;
            }
            assert!(log.drift < 0.01, "identical pattern has no drift");
        }
        // The deviation policy may escalate to re-characterization when
        // wall-clock noise (e.g. co-scheduled test binaries) makes an
        // execution read >2.5x its prediction, so allow isolated noise
        // escalations — what must never happen is one per call.
        assert!(
            recharacterizations <= 2,
            "stable pattern must not re-characterize every call"
        );
        // Each clean execute is one accepted calibration sample.
        assert_eq!(ar.calibrator.lock().unwrap().calibration_updates(), 6);
    }

    #[test]
    fn phase_change_triggers_recharacterization() {
        // Start dense/high-reuse, then switch to an extremely sparse
        // pattern: the scheme decision must eventually change.
        let dense = pattern(2048, 40_000, 1.0, 3);
        let sparse = pattern(500_000, 600, 0.002, 4);
        let mut ar = AdaptiveReduction::new(2, 4, false);
        let (_, dense_log) = ar.execute(&dense, &body);
        let dense_scheme = dense_log.scheme;
        let mut saw_recharacterize = false;
        let mut sparse_scheme = dense_scheme;
        for _ in 0..4 {
            let (_, log) = ar.execute(&sparse, &body);
            saw_recharacterize |= log.characterized;
            sparse_scheme = log.scheme;
        }
        assert!(saw_recharacterize, "sustained drift must re-characterize");
        assert_ne!(
            dense_scheme, sparse_scheme,
            "dense and ultra-sparse patterns demand different schemes"
        );
    }

    #[test]
    fn results_remain_correct_across_adaptations() {
        let mut ar = AdaptiveReduction::new(3, 3, false);
        for seed in 0..6 {
            let pat = pattern(1000 * (1 + seed as usize % 3), 5_000, 0.5, seed);
            let (out, _) = ar.execute(&pat, &body);
            let oracle = sequential_reduce(&pat);
            for (e, (a, b)) in oracle.iter().zip(out.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "seed {seed} elem {e}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn lw_only_chosen_when_feasible() {
        let pat = pattern(8192, 30_000, 1.0, 9);
        let mut infeasible = AdaptiveReduction::new(4, 4, false);
        infeasible.execute(&pat, &body);
        assert_ne!(infeasible.current_scheme(), Some(Scheme::Lw));
    }
}

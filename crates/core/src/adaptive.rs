//! The adaptive reduction runtime: inspect → decide → execute → monitor →
//! adapt, the instantiation of Figure 1's feedback loop for reduction
//! loops.
//!
//! Every invocation of a managed loop goes through:
//!
//! 1. **drift check** — a cheap characterization of a sample of the
//!    iteration space, compared against the pattern the current decision
//!    was made for; sustained drift (a phase change of a dynamic code)
//!    triggers re-characterization, the only one after the first;
//! 2. **decision** — one [`step`] of the adaptation policy the runtime
//!    service runs too, at K = 1 with the loop's decided state as the
//!    entry: a full inspector pass and the [`Calibrator`]'s corrected
//!    ranking when nothing is decided, a recheck of the stored inspection
//!    when the decision is due, nothing otherwise;
//! 3. **execution** — the chosen scheme runs;
//! 4. **evaluation** — measured time is folded into the calibrator, and
//!    its residual against the estimate in force before the sample is
//!    judged for drift ([`Effects::marks_due`](crate::toolbox::Effects::marks_due)): once the decision has
//!    [`DRIFT_MIN_RUNS`](crate::toolbox::DRIFT_MIN_RUNS) runs, a sample
//!    over [`DRIFT_EVICT_RATIO`](crate::toolbox::DRIFT_EVICT_RATIO) times
//!    its estimate marks the decision due, so the next invocation
//!    rechecks it (a rival displaces it only past
//!    [`RECHECK_MARGIN`](crate::toolbox::RECHECK_MARGIN)).
//!
//! The loop learns per functioning domain ([`DomainKey`]), exactly like
//! the runtime service: `loop_id` is a label, not a partition of learned
//! state.  A loop built by the runtime's `Runtime::adaptive` shares the
//! service's calibrator, so what either learns steers the other and
//! persists with the service's `corr` records.

use crate::calibrate::Calibrator;
use crate::monitor::PhaseDetector;
use crate::toolbox::{step, Adaptation, DomainKey, Entry, View};
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
    /// What this invocation did to the decision: re-characterized on a
    /// phase change, marked it due on a drift-suspect sample, or kept it.
    pub adaptation: Adaptation,
}

struct Decided {
    /// The policy's decided state (`None` until the first step).
    entry: Option<Entry>,
    inspection: Inspection,
    /// The model input of `inspection`.  It comes from the inspection
    /// alone, so the backend schemes (`pclr`, `simd`) never enter a table.
    input: ModelInput,
    sample_chars: PatternChars,
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
            sample_iters: 2048,
            drift_detector: PhaseDetector::new(0.25, 2),
            state: None,
            exec,
        }
    }

    /// The currently decided scheme, if any.
    pub fn current_scheme(&self) -> Option<Scheme> {
        self.state.as_ref().and_then(|s| s.entry).map(|e| e.scheme)
    }

    /// Lock the calibrator (poison-tolerant: every update leaves it valid).
    fn cal(&self) -> MutexGuard<'_, Calibrator> {
        self.calibrator.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn sample_chars(&self, pat: &AccessPattern) -> PatternChars {
        PatternChars::measure(&pat.truncate_iterations(self.sample_iters))
    }

    /// Execute one invocation of the loop adaptively.
    pub fn execute(
        &mut self,
        pat: &AccessPattern,
        body: &(impl Fn(usize, usize) -> f64 + Sync),
    ) -> (Vec<f64>, InvocationLog) {
        // 1. Drift check against the decision's pattern.
        let mut measured_drift = 0.0;
        let mut adaptation = Adaptation::Keep;
        if let Some(st) = &self.state {
            measured_drift = drift(&st.sample_chars, &self.sample_chars(pat));
            if self.drift_detector.observe(measured_drift) {
                self.state = None; // phase change: re-characterize
                adaptation = Adaptation::Recharacterize;
            }
        }
        // 2. Decide: characterize if nothing is decided, then step.
        let characterized = self.state.is_none();
        if characterized {
            let inspection = Inspector::analyze(pat, self.threads);
            self.state = Some(Decided {
                entry: None,
                input: ModelInput::from_inspection(&inspection, self.lw_feasible),
                sample_chars: self.sample_chars(pat),
                domain: DomainKey::of(&inspection.chars),
                inspection,
            });
        }
        let st = self.state.as_ref().unwrap();
        let view = View {
            k: 1,
            entry: st.entry,
            ..View::default()
        };
        // With no exploration slot, a single-job step asks for nothing
        // but the table.
        let (scheme, fx) = step(&view, None)
            .or_else(|_| step(&view, Some(&self.cal().explain(&st.input, st.domain))))
            .expect("a priced single-job step decides");
        let scheme = scheme.expect("a single-job step runs a scheme");
        let fresh = Entry {
            scheme,
            runs: 0,
            due: false,
        };
        let entry = st.entry.filter(|_| fx.kept).unwrap_or(fresh);
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
        // 4. Learn from the sample, in the scheme's raw model units, and
        // judge its residual (against the estimate in force before it)
        // for drift.
        let ns = elapsed.as_nanos() as f64;
        let residual = {
            let mut cal = self.cal();
            let raw_units = cal.model.predict(scheme, &st.input);
            cal.observe(scheme, st.domain, false, raw_units, ns)
        };
        // The judgement is the entry's due mark: a step that rechecked a
        // due entry either displaced it or cleared the mark.
        let due = fx.marks_due(residual);
        if due {
            adaptation = Adaptation::Redecide;
        }
        let runs = entry.runs + 1;
        self.state.as_mut().unwrap().entry = Some(Entry { runs, due, ..entry });
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
        for _ in 0..5 {
            let (_, log) = ar.execute(&pat, &body);
            // A clock deviation can only mark the decision due; only a
            // drifted pattern re-characterizes.
            assert!(!log.characterized, "stable pattern re-characterized");
            assert!(log.drift < 0.01, "identical pattern has no drift");
        }
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

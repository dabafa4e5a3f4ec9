//! Decision provenance: the structured record of *why* a job ran the
//! way it did.
//!
//! The calibrated ranking ([`Calibrator::rank`]) collapses a whole
//! decision — feature vector, analytic priors, learned corrections,
//! feasibility masks — into one winning scheme, and until now that was
//! all the runtime kept.  A [`DecisionRecord`] is the uncollapsed form:
//! the inputs the model saw, the full candidate cost table
//! (analytic-vs-corrected per scheme), which candidates were masked
//! infeasible, and the gate verdicts (fusion / simplification /
//! quarantine) the dispatcher applied after ranking.  The runtime
//! stores the latest record per job class and attaches clones to slow
//! jobs in the telemetry exemplar store; the server renders them for
//! `explain` and `slowlog` (`docs/OBSERVABILITY.md` has the field
//! catalog).
//!
//! [`Calibrator::explain`] prices every candidate once and emits the
//! ranking part of the record.  The dispatcher completes it — the scheme
//! the jobs ran, the fanout they ran at, the gate verdicts and the
//! backend — and publishes it once per decision; a published record is
//! never amended.

use crate::calibrate::Calibrator;
use crate::toolbox::DomainKey;
use smartapps_reductions::{ModelInput, Scheme};

/// The model inputs a decision was made from, flattened out of
/// [`ModelInput`] (and its embedded `PatternChars`) into plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeatureVector {
    /// Total reduction references in the pattern.
    pub references: usize,
    /// Reduction array dimension.
    pub num_elements: usize,
    /// Distinct elements referenced.
    pub distinct: usize,
    /// Loop iteration count.
    pub iterations: usize,
    /// SP: distinct / dimension, the paper's sparsity measure.
    pub sp: f64,
    /// MO: mean distinct elements referenced per iteration.
    pub mo: f64,
    /// CON: iterations per distinct element (reuse).
    pub con: f64,
    /// Estimated cross-thread conflicting references.
    pub conflicting: usize,
    /// Estimated private-copy replication factor.
    pub replication: f64,
    /// Worker threads the decision assumed.
    pub threads: usize,
    /// Same-pattern outputs sharing the sweep (1 = unfused).
    pub fanout: usize,
}

impl FeatureVector {
    /// Flatten a model input.
    pub fn of(input: &ModelInput) -> Self {
        FeatureVector {
            references: input.chars.references,
            num_elements: input.chars.num_elements,
            distinct: input.chars.distinct,
            iterations: input.chars.iterations,
            sp: input.chars.sp,
            mo: input.chars.mo,
            con: input.chars.con,
            conflicting: input.conflicting,
            replication: input.replication,
            threads: input.threads,
            fanout: input.fanout,
        }
    }
}

/// One row of the candidate cost table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateCost {
    /// The candidate scheme.
    pub scheme: Scheme,
    /// Raw analytic model cost in abstract units (infinite when the
    /// scheme is masked for this input).
    pub analytic: f64,
    /// Analytic cost scaled by the learned correction — the value the
    /// ranking actually compared.
    pub corrected: f64,
    /// Whether the scheme was admissible at all (`lw` needs the
    /// feasibility declaration, `pclr`/`simd` need their backend and
    /// admission checks to pass).
    pub feasible: bool,
    /// Calibration confidence behind `corrected`, what the adaptation
    /// policy counts as measured evidence: the class level in the
    /// table's domain for a single-job table (a scheme measured only in
    /// other domains has none here), the fused side at the class level
    /// or else the scheme's for a fused one.
    pub confidence: f64,
}

/// What one dispatcher gate decided for the job.
///
/// `fired` means the gate took its action (fusion admitted a fused
/// sweep, simplification rewrote the group, quarantine rejected the
/// job); `reason` is a single wire-safe token (`[a-z0-9._-]`) naming
/// why — see `docs/OBSERVABILITY.md` for the vocabulary per gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateVerdict {
    /// Whether the gate took its action.
    pub fired: bool,
    /// Single-token justification.
    pub reason: &'static str,
}

impl GateVerdict {
    /// The gate was never consulted for this job.
    pub fn not_consulted() -> Self {
        GateVerdict {
            fired: false,
            reason: "not-consulted",
        }
    }

    /// The gate fired, for `reason`.
    pub fn fired(reason: &'static str) -> Self {
        GateVerdict {
            fired: true,
            reason,
        }
    }

    /// The gate declined, for `reason`.
    pub fn declined(reason: &'static str) -> Self {
        GateVerdict {
            fired: false,
            reason,
        }
    }
}

impl Default for GateVerdict {
    fn default() -> Self {
        GateVerdict::not_consulted()
    }
}

/// The full provenance of one scheme decision (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The job class (pattern signature) the decision applies to.
    /// [`Calibrator::explain`] leaves it 0; the runtime stamps it.
    pub signature: u64,
    /// The functioning domain the correction lookup keyed on.
    pub domain: DomainKey,
    /// The model inputs.
    pub features: FeatureVector,
    /// Candidate cost table, every scheme the model can price —
    /// including masked ones, so "why not `lw`?" has an answer.
    pub candidates: Vec<CandidateCost>,
    /// The scheme the decision chose: the table's best feasible row in
    /// what [`Calibrator::explain`] returns, the scheme the jobs ran in
    /// what the runtime publishes.
    pub winner: Scheme,
    /// Execution backend of the decided scheme (`software`, `simd`,
    /// `pclr`, or `scan` for a rewritten group); `pending` until the
    /// dispatcher completes the record.
    pub backend: &'static str,
    /// Whether this decision came from a fresh ranking during
    /// exploration (`true`) rather than steady-state.
    pub explored: bool,
    /// Whether a profile recheck (on its cadence, or due after a
    /// drift-suspect sample) displaced the stored scheme with this one.
    pub rechecked: bool,
    /// Fusion-gate verdict for the job's group.
    pub fusion: GateVerdict,
    /// Simplification verdict for the job's group.
    pub simplify: GateVerdict,
    /// Quarantine verdict (fired = the job was rejected).
    pub quarantine: GateVerdict,
    /// Times the winning scheme for this class has changed across
    /// recorded decisions (maintained by the runtime's ledger).
    pub flips: u64,
}

impl DecisionRecord {
    /// The corrected cost of the first (so cheapest: rows are in ranked
    /// order) candidate that `pick` accepts; infinite for none.
    pub fn cheapest(&self, pick: impl Fn(&CandidateCost) -> bool) -> f64 {
        let row = self.candidates.iter().find(|c| pick(c));
        row.map_or(f64::INFINITY, |c| c.corrected)
    }
}

impl Calibrator {
    /// Emit the decision record for one ranking: the feature vector and
    /// the full candidate table (analytic prior vs corrected cost, all
    /// schemes priced, masked ones marked infeasible), with the winner
    /// chosen exactly as [`Calibrator::rank`] would.  Gate verdicts
    /// start [`GateVerdict::not_consulted`]; the dispatcher sets them
    /// before it publishes the record.
    pub fn explain(&self, input: &ModelInput, domain: DomainKey) -> DecisionRecord {
        let mut candidates: Vec<CandidateCost> = Scheme::all_parallel()
            .into_iter()
            .chain([Scheme::Pclr, Scheme::Simd])
            .map(|scheme| {
                let (analytic, corrected) = self.price(scheme, input, domain);
                let confidence = match input.fanout > 1 {
                    true => self.confidence(scheme, domain, true),
                    false => self.class_confidence(scheme, domain, false),
                };
                CandidateCost {
                    scheme,
                    analytic,
                    corrected,
                    feasible: corrected.is_finite(),
                    confidence,
                }
            })
            .collect();
        candidates.sort_by(|a, b| a.corrected.total_cmp(&b.corrected));
        let winner = candidates
            .iter()
            .find(|c| c.feasible)
            .map_or(Scheme::Rep, |c| c.scheme);
        DecisionRecord {
            signature: 0,
            domain,
            features: FeatureVector::of(input),
            candidates,
            winner,
            backend: "pending",
            explored: false,
            rechecked: false,
            fusion: GateVerdict::not_consulted(),
            simplify: GateVerdict::not_consulted(),
            quarantine: GateVerdict::not_consulted(),
            flips: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolbox::MEASURED_CONFIDENCE;
    use smartapps_reductions::DecisionModel;
    use smartapps_workloads::{Distribution, PatternChars, PatternSpec};

    fn input(pclr: bool, simd: bool) -> (ModelInput, DomainKey) {
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
        let domain = DomainKey::of(&chars);
        let input = ModelInput {
            conflicting: ModelInput::estimate_conflicts(&chars, 4),
            replication: ModelInput::estimate_replication(&chars, 4),
            chars,
            threads: 4,
            lw_feasible: false,
            fanout: 1,
            pclr_available: pclr,
            simd_available: simd,
        };
        (input, domain)
    }

    #[test]
    fn explain_matches_rank_and_prices_every_scheme() {
        let cal = Calibrator::new(DecisionModel::default());
        let (input, domain) = input(true, true);
        let rec = cal.explain(&input, domain);
        assert_eq!(rec.candidates.len(), 7, "five software + pclr + simd");
        assert_eq!(rec.winner, cal.rank(&input, domain)[0].0);
        // Sorted by corrected cost, feasible rows finite.
        for w in rec.candidates.windows(2) {
            assert!(w[0].corrected.total_cmp(&w[1].corrected).is_le());
        }
        // An uncalibrated record has corrected == analytic everywhere.
        for c in &rec.candidates {
            if c.analytic.is_finite() {
                assert_eq!(c.analytic, c.corrected, "{:?}", c.scheme);
            }
        }
        assert_eq!(rec.features.threads, 4);
        assert_eq!(rec.features.num_elements, 4096);
        assert_eq!(rec.backend, "pending");
        assert_eq!(rec.fusion, GateVerdict::not_consulted());
    }

    #[test]
    fn masked_schemes_stay_in_the_table_as_infeasible() {
        let cal = Calibrator::default();
        let (input, domain) = input(false, false);
        let rec = cal.explain(&input, domain);
        let row = |s: Scheme| rec.candidates.iter().find(|c| c.scheme == s).unwrap();
        // lw_feasible=false and no backends: all three masked rows are
        // present, infinite, and infeasible — but still explainable.
        for s in [Scheme::Lw, Scheme::Pclr, Scheme::Simd] {
            let c = row(s);
            assert!(!c.feasible, "{s:?}");
            assert!(c.analytic.is_infinite());
        }
        assert!(rec.winner.is_software());
        assert_ne!(rec.winner, Scheme::Lw);
    }

    #[test]
    fn corrections_show_up_in_the_corrected_column_and_flip_the_winner() {
        let mut cal = Calibrator::default();
        let (input, domain) = input(false, false);
        let baseline = cal.explain(&input, domain);
        let winner = baseline.winner;
        let runner_up = baseline
            .candidates
            .iter()
            .find(|c| c.feasible && c.scheme != winner)
            .unwrap()
            .scheme;
        // Measure the analytic winner as catastrophically slow and the
        // runner-up as fast until the corrected table flips.
        for _ in 0..32 {
            cal.observe(winner, domain, false, 100.0, 60_000.0);
            cal.observe(runner_up, domain, false, 100.0, 10.0);
        }
        let rec = cal.explain(&input, domain);
        assert_eq!(rec.winner, cal.rank(&input, domain)[0].0);
        let row = |s: Scheme| rec.candidates.iter().find(|c| c.scheme == s).unwrap();
        assert!(row(winner).corrected > row(winner).analytic);
        assert!(row(runner_up).corrected < row(runner_up).analytic);
        assert_ne!(rec.winner, winner, "measured evidence must flip the table");
    }

    #[test]
    fn candidate_confidence_is_class_level_split_and_any_level_fused() {
        // A scheme measured only in another functioning domain has no
        // class-level evidence in this one (it may not displace or skip
        // exploration here); the fused side counts its samples from any
        // domain.
        let mut cal = Calibrator::new(DecisionModel::default());
        let (input, here) = input(false, false);
        let elsewhere = DomainKey {
            dim_bucket: here.dim_bucket + 1,
            ..here
        };
        let ll = |cal: &Calibrator, fanout| {
            let rec = cal.explain(&input.clone().with_fanout(fanout), here);
            rec.candidates
                .iter()
                .find(|c| c.scheme == Scheme::Ll)
                .unwrap()
                .confidence
        };
        for fused in [false, true] {
            for _ in 0..8 {
                cal.observe(Scheme::Ll, elsewhere, fused, 100.0, 300.0);
            }
        }
        assert_eq!(ll(&cal, 1), 0.0);
        assert!(ll(&cal, 4) >= MEASURED_CONFIDENCE);
        for _ in 0..8 {
            cal.observe(Scheme::Ll, here, false, 100.0, 300.0);
        }
        assert!(ll(&cal, 1) >= MEASURED_CONFIDENCE);
    }
}

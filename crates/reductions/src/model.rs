//! The decision model: predict each reduction scheme's cost from measured
//! pattern characteristics and pick the best match.
//!
//! "To make this choice we use a decision algorithm that takes as input
//! measured, real, code characteristics, and a library of available
//! techniques, and selects an algorithm for the given instance."
//!
//! The model charges every scheme the common loop-body work and then its
//! scheme-specific costs:
//!
//! * `rep` — private-array initialization (O(N) stores), cache behaviour
//!   of the touched private footprint, and an O(N) merge that does not
//!   shrink with more processors;
//! * `ll` — lazy initialization via touched-line links (no O(N) init), a
//!   per-reference link-maintenance overhead, and a merge proportional to
//!   the touched lines;
//! * `sel` — an inspector pass, a per-reference indirection through the
//!   slot→conflict-index map, and a merge proportional to the conflicting
//!   elements.  The map is charged a footprint of 4 bytes per array
//!   element, as when it was indexed by element; it is now per touched
//!   element, so this overcharges `sel` on large sparse arrays, kept so
//!   decisions do not move until the model is refit (ROADMAP item 7);
//! * `lw` — an inspector pass plus *iteration replication*: the loop body
//!   re-executes once per owner of each iteration's references;
//! * `hash` — a per-reference hashing overhead with a working set
//!   proportional to the referenced (not dimensioned) elements, and a
//!   merge proportional to the distinct elements;
//! * `simd` — lane-striped private accumulation (see
//!   [`crate::simd`]): a cheaper chain-free vector update per reference,
//!   paid for by a `SIMD_LANES`-fold private footprint and slightly
//!   heavier init and merge sweeps.
//!
//! Constants are calibrated for this crate's implementations (see
//! `ModelParams`); the same procedure the original system used — model
//! constants measured on the target machine, inputs measured at run time.

use crate::inspect::Inspection;
use crate::scheme::Scheme;
use serde::{Deserialize, Serialize};
use smartapps_workloads::PatternChars;

/// Calibration constants (abstract cost units per operation; only ratios
/// matter).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelParams {
    /// Cost of one private-array element store during `rep` init.
    pub init_store: f64,
    /// Cost of one element visit during the `rep` merge (loads from P
    /// partial arrays amortized per element, plus the store).
    pub rep_merge_elem: f64,
    /// Per-reference link-bitmap maintenance overhead of `ll`.
    pub ll_link_overhead: f64,
    /// Per-touched-line merge cost of `ll`: the line's 8 partials of each
    /// thread that marked it, combined in tid order, and 8 stores.
    pub ll_merge_line: f64,
    /// Per-reference compact-map indirection overhead of `sel`.
    pub sel_indirect: f64,
    /// Per-conflicting-element merge cost of `sel`.
    pub sel_merge_elem: f64,
    /// Per-reference hashing overhead factor of `hash` (relative to a
    /// plain cached update).
    pub hash_per_ref: f64,
    /// Per-distinct-element merge cost of `hash`.
    pub hash_merge_elem: f64,
    /// Inspector cost per reference (one characterization pass).
    pub inspector_per_ref: f64,
    /// Per-scanned-reference ownership test in `lw` (replicated iterations
    /// scan all their references but commit only the owned ones).
    pub lw_scan: f64,
    /// Body work per reduction reference (address generation plus the
    /// contribution's flops).
    pub body_per_ref: f64,
    /// Fixed body work per iteration.
    pub body_per_iter: f64,
    /// Base cost of one update hitting in cache.
    pub update_hit: f64,
    /// Additional cost of one update missing the cache.
    pub update_miss_penalty: f64,
    /// Cache capacity per processor, bytes (paper's L2: 512 KB).
    pub cache_bytes: f64,
    /// Invocation count the inspector amortizes over (reduction loops are
    /// typically re-entered many times per run; Table 2 shows up to 3855).
    pub amortize_invocations: f64,
    /// Per-reference cost of a PCLR reduction update (the
    /// `load&pin`/add/`store&unpin` triple hitting a reduction-state
    /// line; misses are filled locally with neutral lines, so the
    /// effective per-reference cost stays near a cache hit).
    pub pclr_update: f64,
    /// Per-resident-line cost of the PCLR end-of-loop cache flush (sweep
    /// plus background combine at the home).
    pub pclr_flush_line: f64,
    /// Fixed per-invocation cost of offloading to the PCLR backend
    /// (controller configuration syscall, trace lowering, readback).
    pub pclr_offload_fixed: f64,
    /// Per-reference cost of a `simd` lane-striped update: the rotation
    /// removes the serial dependency chain on hot elements, so this
    /// undercuts a scalar `update_hit`.
    pub simd_update: f64,
    /// Per-element cost of initializing the `SIMD_LANES` private slots
    /// during `simd` init (vectorized neutral stores).
    pub simd_init_elem: f64,
    /// Per-element cost of the `simd` tiled merge: slot-wise vector
    /// accumulation across P stripes plus the horizontal tree fold.
    pub simd_merge_elem: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            init_store: 1.0,
            rep_merge_elem: 2.0,
            ll_link_overhead: 0.55,
            ll_merge_line: 10.0,
            sel_indirect: 0.5,
            sel_merge_elem: 2.5,
            hash_per_ref: 2.5,
            hash_merge_elem: 4.0,
            inspector_per_ref: 1.5,
            lw_scan: 0.25,
            body_per_ref: 3.0,
            body_per_iter: 2.0,
            update_hit: 1.0,
            update_miss_penalty: 2.0,
            cache_bytes: 512.0 * 1024.0,
            amortize_invocations: 5.0,
            pclr_update: 1.3,
            pclr_flush_line: 12.0,
            pclr_offload_fixed: 60_000.0,
            simd_update: 0.7,
            simd_init_elem: 1.6,
            simd_merge_elem: 2.6,
        }
    }
}

impl ModelParams {
    /// Per-access cost for a working set of `bytes`: `update_hit` while it
    /// fits in cache, growing smoothly to `update_hit +
    /// update_miss_penalty` when it exceeds cache several-fold.
    ///
    /// ```
    /// let q = smartapps_reductions::ModelParams::default();
    /// let resident = q.locality_cost(64.0 * 1024.0);      // fits: base cost
    /// let thrashing = q.locality_cost(64.0 * 1024.0 * 1024.0);
    /// assert_eq!(resident, q.update_hit);
    /// assert!(thrashing > resident);
    /// assert!(thrashing <= q.update_hit + q.update_miss_penalty + 1e-9);
    /// ```
    pub fn locality_cost(&self, bytes: f64) -> f64 {
        if bytes <= self.cache_bytes {
            self.update_hit
        } else {
            let overflow = (bytes / self.cache_bytes).log2().min(3.0) / 3.0;
            self.update_hit + self.update_miss_penalty * overflow
        }
    }
}

/// Everything the model needs about one loop instance.
#[derive(Debug, Clone)]
pub struct ModelInput {
    /// Measured characterization (MO, CON, SP, CH...).
    pub chars: PatternChars,
    /// Number of conflicting elements under block scheduling (from the
    /// inspector; estimated from CH if unavailable).
    pub conflicting: usize,
    /// Iteration replication factor for owner-computes (from the
    /// inspector; estimated from MO if unavailable).
    pub replication: f64,
    /// Processor count.
    pub threads: usize,
    /// Whether local write is applicable (iteration replication is illegal
    /// when the loop body has other side effects).
    pub lw_feasible: bool,
    /// Number of contribution functions fused into one traversal (see
    /// [`run_fused_on`](crate::run_fused_on)).  `1` is a plain
    /// single-output execution; `K > 1` shares the pattern walk and
    /// iteration scaffolding across K outputs while paying K-fold body,
    /// update, and merge costs.
    pub fanout: usize,
    /// Whether a PCLR-capable execution backend is available for this
    /// instance.  When `false` (the default) the hardware
    /// [`Scheme::Pclr`] never enters the ranking, preserving the
    /// software-only competition of Section 4.
    pub pclr_available: bool,
    /// Whether the vectorized [`Scheme::Simd`] backend is available *and*
    /// feasible for this instance (dense/privatizing regime — see
    /// [`crate::simd::simd_feasible`]).  When `false` (the default) the
    /// vector scheme never enters the ranking, exactly like an
    /// infeasible `lw`.
    pub simd_available: bool,
}

impl ModelInput {
    /// Build from a full inspection (single-output, `fanout == 1`).
    pub fn from_inspection(insp: &Inspection, lw_feasible: bool) -> Self {
        ModelInput {
            chars: insp.chars.clone(),
            conflicting: insp.conflicts.conflicting_elements.len(),
            replication: insp.replication,
            threads: insp.threads,
            lw_feasible,
            fanout: 1,
            pclr_available: false,
            simd_available: false,
        }
    }

    /// The same instance evaluated as a fused batch of `fanout`
    /// contribution functions sharing one traversal.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout.max(1);
        self
    }

    /// The same instance with a PCLR execution backend (un)available, so
    /// the hardware scheme can join the ranking.
    pub fn with_pclr(mut self, available: bool) -> Self {
        self.pclr_available = available;
        self
    }

    /// The same instance with the vectorized SIMD backend (un)available
    /// and feasible, so [`Scheme::Simd`] can join the ranking.
    pub fn with_simd(mut self, available: bool) -> Self {
        self.simd_available = available;
        self
    }

    /// Estimate the conflicting-element count from the CH histogram when
    /// no inspector ran: an element with k references spread uniformly
    /// over P blocks stays conflict-free with probability ~P^(1-k).
    pub fn estimate_conflicts(chars: &PatternChars, threads: usize) -> usize {
        let p = threads as f64;
        let mut c = 0.0;
        for (b, &count) in chars.ch.iter().enumerate() {
            let k = (b + 1) as f64;
            let conflict_prob = 1.0 - p.powf(1.0 - k);
            c += count as f64 * conflict_prob.max(0.0);
        }
        c.round() as usize
    }

    /// Estimate the replication factor from MO: expected owner blocks hit
    /// by MO uniform references.
    pub fn estimate_replication(chars: &PatternChars, threads: usize) -> f64 {
        let p = threads as f64;
        (p * (1.0 - (1.0 - 1.0 / p).powf(chars.mo))).max(1.0)
    }
}

/// A predicted cost ranking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// Schemes with predicted per-processor costs, ascending (best first).
    pub ranking: Vec<(Scheme, f64)>,
}

impl Prediction {
    /// The recommended scheme.
    pub fn best(&self) -> Scheme {
        self.ranking[0].0
    }

    /// Predicted cost of a scheme.
    pub fn cost_of(&self, s: Scheme) -> Option<f64> {
        self.ranking.iter().find(|(x, _)| *x == s).map(|(_, c)| *c)
    }
}

/// The decision model.
#[derive(Debug, Clone, Default)]
pub struct DecisionModel {
    /// Calibration constants.
    pub params: ModelParams,
}

impl DecisionModel {
    /// Build with custom constants.
    pub fn new(params: ModelParams) -> Self {
        DecisionModel { params }
    }

    /// Predict the per-processor cost of one scheme.
    ///
    /// With `input.fanout == K > 1` the instance is a fused batch (see
    /// [`run_fused_on`](crate::run_fused_on)): the traversal scaffolding
    /// (`body_per_iter`, address generation, link maintenance, `sel`
    /// indirection, `lw` ownership scans, hash probing) is charged
    /// **once**, while body evaluation, updates, private-storage
    /// footprints, initialization, and merges scale with K.
    pub fn predict(&self, s: Scheme, input: &ModelInput) -> f64 {
        let q = &self.params;
        let c = &input.chars;
        let p = input.threads.max(1) as f64;
        let k = input.fanout.max(1) as f64;
        let n = c.num_elements as f64;
        let r = c.references as f64;
        let d = c.distinct as f64;
        let iters = c.iterations as f64;
        // Common loop-body work, perfectly parallel: the iteration
        // scaffolding is shared across fused outputs, the per-reference
        // contributions are not.
        let body = (iters * q.body_per_iter + k * r * q.body_per_ref) / p;
        // Touched private footprint per thread (per output).
        let d_t = d.min(r / p);
        let insp = r * q.inspector_per_ref / q.amortize_invocations / p;
        match s {
            Scheme::Seq => iters * q.body_per_iter + k * r * (q.body_per_ref + q.update_hit),
            Scheme::Rep => {
                let upd = q.locality_cost(k * d_t * 8.0);
                q.init_store * k * n + body + k * (r / p) * upd + q.rep_merge_elem * k * n
            }
            Scheme::Ll => {
                // Touched lines per thread: disjoint regions when the
                // pattern partitions cleanly (low conflicts), shared
                // everywhere when it scatters (high conflicts).  Fused
                // outputs touch identical lines, so the line bitmap is
                // shared; the buffers and merges are not.
                let lines = c.distinct_lines as f64;
                let cf = if d > 0.0 {
                    input.conflicting as f64 / d
                } else {
                    0.0
                };
                let lines_t = (r / p).min(lines * (cf + (1.0 - cf) / p));
                let upd = q.locality_cost(k * lines_t * 64.0);
                body + (r / p) * (k * upd + q.ll_link_overhead) + q.ll_merge_line * k * lines_t
            }
            Scheme::Sel => {
                let conf = input.conflicting as f64;
                // The conflict-index map, charged at 4 bytes per array
                // element (shared by all outputs), plus K copies of the
                // directly-updated shared elements; the indirection is
                // paid once per reference.  The map is per touched
                // element now, so `n * 4.0` overcharges it; kept until
                // the model is refit, so decisions do not move.
                let upd = q.locality_cost(n * 4.0 + k * d_t * 8.0);
                insp + body + (r / p) * (k * upd + q.sel_indirect) + q.sel_merge_elem * k * conf
            }
            Scheme::Lw => {
                if !input.lw_feasible {
                    return f64::INFINITY;
                }
                // Owner blocks partition the array: footprint N/P per
                // output.  Only the iteration scaffolding and ownership
                // scans replicate — once for the whole fused batch;
                // contributions and commits scale with K.
                let upd = q.locality_cost(k * n / p * 8.0);
                insp + input.replication * (iters * q.body_per_iter) / p
                    + input.replication * (r / p) * q.lw_scan
                    + k * (r / p) * (q.body_per_ref + upd)
            }
            Scheme::Hash => {
                // Prices a probed table of ~(8 + 8K)-byte entries, which
                // overstates the dense-slot kernel (the constants are not
                // refit to it): the resident working set follows the
                // *hot* reference mass (CH tail), not the raw distinct
                // count.  One lookup per reference serves all K outputs.
                let d_hot = (c.effective_distinct(0.9) as f64).min(r / p);
                let loc = q.locality_cost(d_hot * (8.0 + 8.0 * k));
                body + (r / p) * loc * (q.hash_per_ref + (k - 1.0)) + q.hash_merge_elem * k * d_t
            }
            Scheme::Pclr => {
                // Hardware combining (Section 5): no private-array init,
                // no software merge.  Reduction misses are filled locally
                // with neutral lines, so updates cost near a cache hit
                // regardless of the array's dimension; the "merge" is the
                // end-of-loop flush of resident reduction lines, combined
                // by the home controllers in the background.  Fused
                // sweeps and unavailable backends never route here.
                if !input.pclr_available || input.fanout > 1 {
                    return f64::INFINITY;
                }
                // Only *resident* reduction lines are flushed: "the work
                // is at worst proportional to the size of the cache".
                let resident = (c.distinct_lines as f64)
                    .min(r / p)
                    .min(q.cache_bytes / 64.0);
                // The offload overhead (configuration, trace lowering,
                // readback) is serial — it does not shrink with pool
                // width, like the software merges above.
                body + (r / p) * q.pclr_update + q.pclr_flush_line * resident + q.pclr_offload_fixed
            }
            Scheme::Simd => {
                // Lane-striped `rep` (see `crate::simd`): the chain-free
                // vector update undercuts a scalar hit, but the private
                // footprint, init, and merge all carry the lane factor —
                // so the scheme only wins dense high-reuse floods where
                // the per-reference savings dominate the O(N) sweeps.
                // Masked instances and fused sweeps never route here.
                if !input.simd_available || input.fanout > 1 {
                    return f64::INFINITY;
                }
                let lanes = crate::simd::SIMD_LANES as f64;
                let upd = q.simd_update + (q.locality_cost(k * lanes * d_t * 8.0) - q.update_hit);
                q.simd_init_elem * k * n + body + k * (r / p) * upd + q.simd_merge_elem * k * n
            }
        }
    }

    /// Rank all parallel schemes for the given instance.  The hardware
    /// [`Scheme::Pclr`] joins the ranking only when the instance reports
    /// a PCLR backend ([`ModelInput::with_pclr`]), and the vectorized
    /// [`Scheme::Simd`] only when a SIMD backend is available and the
    /// pattern is feasible ([`ModelInput::with_simd`]); software-only
    /// callers keep the five-scheme competition of Section 4.
    ///
    /// These are *analytic prior* costs — the runtime's calibrator
    /// multiplies each by a learned measured/predicted correction before
    /// acting on the ranking (see `docs/MODEL.md`).
    ///
    /// ```
    /// use smartapps_reductions::{DecisionModel, Inspector, ModelInput};
    /// use smartapps_workloads::{Distribution, PatternSpec};
    ///
    /// let pat = PatternSpec {
    ///     num_elements: 4096, iterations: 20_000, refs_per_iter: 2,
    ///     coverage: 1.0, dist: Distribution::Uniform, seed: 7,
    /// }.generate();
    /// let insp = Inspector::analyze(&pat, 4);
    /// let pred = DecisionModel::default().decide(&ModelInput::from_inspection(&insp, false));
    /// assert_eq!(pred.ranking.len(), 5);        // software-only competition
    /// assert!(pred.cost_of(pred.best()).unwrap() <= pred.ranking[1].1);
    /// ```
    pub fn decide(&self, input: &ModelInput) -> Prediction {
        let mut ranking: Vec<(Scheme, f64)> = Scheme::all_parallel()
            .into_iter()
            .map(|s| (s, self.predict(s, input)))
            .collect();
        if input.pclr_available {
            ranking.push((Scheme::Pclr, self.predict(Scheme::Pclr, input)));
        }
        if input.simd_available {
            ranking.push((Scheme::Simd, self.predict(Scheme::Simd, input)));
        }
        ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
        Prediction { ranking }
    }

    /// Predicted parallel speedup of a scheme over sequential execution.
    pub fn predicted_speedup(&self, s: Scheme, input: &ModelInput) -> f64 {
        let seq = self.predict(Scheme::Seq, input);
        let par = self.predict(s, input);
        if par.is_finite() && par > 0.0 {
            seq / par
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::{Distribution, PatternSpec};

    fn chars_for(n: usize, iters: usize, mo: usize, coverage: f64) -> PatternChars {
        let pat = PatternSpec {
            num_elements: n,
            iterations: iters,
            refs_per_iter: mo,
            coverage,
            dist: Distribution::Uniform,
            seed: 1,
        }
        .generate();
        PatternChars::measure(&pat)
    }

    fn input(chars: PatternChars, threads: usize, lw: bool) -> ModelInput {
        let conflicting = ModelInput::estimate_conflicts(&chars, threads);
        let replication = ModelInput::estimate_replication(&chars, threads);
        ModelInput {
            chars,
            conflicting,
            replication,
            threads,
            lw_feasible: lw,
            fanout: 1,
            pclr_available: false,
            simd_available: false,
        }
    }

    #[test]
    fn dense_high_reuse_prefers_rep_family() {
        // Small array, massive reuse: private arrays amortize fully.
        let c = chars_for(10_000, 500_000, 2, 1.0);
        let m = DecisionModel::default();
        let pred = m.decide(&input(c, 8, false));
        assert!(
            matches!(pred.best(), Scheme::Rep | Scheme::Ll),
            "got {:?}",
            pred.ranking
        );
    }

    #[test]
    fn extremely_sparse_prefers_hash() {
        // SPICE shape: huge dimension, tiny touched set, almost no reuse.
        let c = chars_for(200_000, 10, 28, 0.0015);
        let m = DecisionModel::default();
        let pred = m.decide(&input(c, 8, false));
        assert_eq!(pred.best(), Scheme::Hash, "ranking: {:?}", pred.ranking);
        // And by a wide margin over rep, which pays O(N) sweeps.
        let hash = pred.cost_of(Scheme::Hash).unwrap();
        let rep = pred.cost_of(Scheme::Rep).unwrap();
        assert!(rep > 5.0 * hash, "rep {rep} vs hash {hash}");
    }

    #[test]
    fn lw_infeasible_is_never_recommended() {
        let c = chars_for(50_000, 100_000, 2, 0.3);
        let m = DecisionModel::default();
        let inp = input(c, 8, false);
        assert!(m.predict(Scheme::Lw, &inp).is_infinite());
        assert_ne!(m.decide(&inp).best(), Scheme::Lw);
    }

    #[test]
    fn growing_dimension_moves_away_from_rep() {
        // Same touched volume, growing dimension: rep's O(N) init+merge
        // eventually loses.
        let m = DecisionModel::default();
        let small = m.decide(&input(chars_for(20_000, 200_000, 2, 1.0), 8, false));
        let large = m.decide(&input(chars_for(2_000_000, 10_000, 2, 0.0025), 8, false));
        let rep_rank_small = small
            .ranking
            .iter()
            .position(|(s, _)| *s == Scheme::Rep)
            .unwrap();
        let rep_rank_large = large
            .ranking
            .iter()
            .position(|(s, _)| *s == Scheme::Rep)
            .unwrap();
        assert!(
            rep_rank_large > rep_rank_small,
            "rep rank should drop: {:?} -> {:?}",
            small.ranking,
            large.ranking
        );
        assert!(matches!(large.best(), Scheme::Sel | Scheme::Hash));
    }

    #[test]
    fn predicted_speedup_positive_and_bounded() {
        let c = chars_for(10_000, 100_000, 2, 1.0);
        let m = DecisionModel::default();
        let inp = input(c, 8, true);
        for s in Scheme::all_parallel() {
            let sp = m.predicted_speedup(s, &inp);
            assert!((0.0..=16.0).contains(&sp), "{s}: {sp}");
        }
        assert!(m.predicted_speedup(Scheme::Rep, &inp) > 1.0);
    }

    #[test]
    fn conflict_estimate_matches_intuition() {
        let c = chars_for(10_000, 40_000, 1, 1.0);
        // With high reuse, most elements conflict under 8 threads.
        let est = ModelInput::estimate_conflicts(&c, 8);
        assert!(est > c.distinct / 2, "est {est} of {}", c.distinct);
        // With single references, nothing conflicts.
        let c1 = chars_for(100_000, 10_000, 1, 1.0);
        // Most elements have exactly 1 reference here.
        let est1 = ModelInput::estimate_conflicts(&c1, 8);
        assert!(est1 < c1.distinct / 4, "est1 {est1} of {}", c1.distinct);
    }

    #[test]
    fn replication_estimate_bounds() {
        let c = chars_for(1_000, 1_000, 2, 1.0);
        for p in [1usize, 2, 8, 16] {
            let f = ModelInput::estimate_replication(&c, p);
            assert!((1.0..=2.0 + 1e-9).contains(&f), "p={p}: {f}");
        }
        let c28 = chars_for(10_000, 100, 28, 1.0);
        let f = ModelInput::estimate_replication(&c28, 8);
        assert!(
            f > 7.0,
            "MO=28 over 8 threads replicates to almost all: {f}"
        );
    }

    #[test]
    fn fused_fanout_beats_k_separate_runs() {
        // A fused batch of K shares the traversal: its predicted cost must
        // be strictly below K independent executions, for every scheme.
        let c = chars_for(10_000, 100_000, 2, 1.0);
        let m = DecisionModel::default();
        let single = input(c.clone(), 8, true);
        for k in [2usize, 4, 8] {
            let fused = single.clone().with_fanout(k);
            for s in Scheme::all_parallel() {
                let one = m.predict(s, &single);
                let batched = m.predict(s, &fused);
                assert!(
                    batched < k as f64 * one,
                    "{s} fanout {k}: fused {batched} vs {k}x single {}",
                    k as f64 * one
                );
                assert!(batched > one, "{s} fanout {k}: more outputs cost more");
            }
        }
        // fanout == 1 (and with_fanout(0) clamping to 1) is the identity.
        assert_eq!(
            m.predict(Scheme::Rep, &single),
            m.predict(Scheme::Rep, &single.clone().with_fanout(0))
        );
    }

    #[test]
    fn dense_groups_do_not_price_hash_first_at_fanout() {
        // Dense cache-resident classes lose by fusing (K-fold private
        // footprints): the runtime's dense fixtures, inspected and priced
        // at K = 6, rank another scheme over `hash`, so the fusion gate
        // has no trusted pick and, without fused evidence, declines them.
        for seed in [63, 83] {
            let pat = PatternSpec {
                num_elements: 1500,
                iterations: 3000,
                refs_per_iter: 2,
                coverage: 0.8,
                dist: Distribution::Uniform,
                seed,
            }
            .generate();
            for threads in [2, 4] {
                let insp = crate::Inspector::analyze(&pat, threads);
                let fused = ModelInput::from_inspection(&insp, false).with_fanout(6);
                let best = DecisionModel::default().decide(&fused).best();
                assert_ne!(best, Scheme::Hash, "seed {seed} width {threads}");
            }
        }
    }

    #[test]
    fn pclr_joins_the_ranking_only_when_available() {
        let c = chars_for(50_000, 100_000, 2, 0.3);
        let m = DecisionModel::default();
        let inp = input(c, 8, false);
        // Software-only callers never see the hardware scheme.
        assert!(m.predict(Scheme::Pclr, &inp).is_infinite());
        assert_eq!(m.decide(&inp).ranking.len(), 5);
        // With a backend, pclr competes with a finite cost.
        let with = inp.clone().with_pclr(true);
        assert_eq!(m.decide(&with).ranking.len(), 6);
        assert!(m.predict(Scheme::Pclr, &with).is_finite());
        assert!(m.decide(&with).cost_of(Scheme::Pclr).is_some());
        // Fused batches never route to the hardware path.
        assert!(m.predict(Scheme::Pclr, &with.with_fanout(2)).is_infinite());
    }

    #[test]
    fn simd_joins_the_ranking_only_when_available() {
        let c = chars_for(10_000, 500_000, 2, 1.0);
        let m = DecisionModel::default();
        let inp = input(c, 8, false);
        // Masked instances (sparse regime, no backend) never see it.
        assert!(m.predict(Scheme::Simd, &inp).is_infinite());
        assert_eq!(m.decide(&inp).ranking.len(), 5);
        // With a feasible backend it competes with a finite cost.
        let with = inp.clone().with_simd(true);
        assert_eq!(m.decide(&with).ranking.len(), 6);
        assert!(m.predict(Scheme::Simd, &with).is_finite());
        // Fused batches never route to the vector path.
        assert!(m.predict(Scheme::Simd, &with.with_fanout(2)).is_infinite());
    }

    #[test]
    fn simd_undercuts_rep_on_dense_high_reuse_floods() {
        let m = DecisionModel::default();
        // Cache-resident array, massive reuse: the per-reference savings
        // of the chain-free vector update dominate the O(N) sweeps.
        let flood = input(chars_for(4_096, 500_000, 2, 1.0), 8, false).with_simd(true);
        let simd = m.predict(Scheme::Simd, &flood);
        let rep = m.predict(Scheme::Rep, &flood);
        assert!(simd < rep, "dense flood: simd {simd} vs rep {rep}");
        // Low reuse: the heavier init/merge sweeps make simd lose.
        let cold = input(chars_for(100_000, 20_000, 2, 1.0), 8, false).with_simd(true);
        let simd = m.predict(Scheme::Simd, &cold);
        let rep = m.predict(Scheme::Rep, &cold);
        assert!(simd > rep, "low reuse: simd {simd} vs rep {rep}");
    }

    #[test]
    fn pclr_wins_huge_scattered_classes_and_loses_small_ones() {
        let m = DecisionModel::default();
        // Huge dimension, scattered references, heavy traffic: every
        // software scheme pays O(N) sweeps, misses, or giant merges; the
        // hardware combines in place with no init and a cache-bounded
        // flush (the Figure 6 regime where Hw wins).
        let heavy = chars_for(2_000_000, 500_000, 2, 0.4);
        let pred = m.decide(&input(heavy, 8, false).with_pclr(true));
        assert_eq!(pred.best(), Scheme::Pclr, "ranking: {:?}", pred.ranking);
        // A small loop cannot amortize the offload: software keeps it.
        let tiny = chars_for(512, 200, 2, 1.0);
        let pred = m.decide(&input(tiny, 8, false).with_pclr(true));
        assert_ne!(pred.best(), Scheme::Pclr, "ranking: {:?}", pred.ranking);
    }

    #[test]
    fn simd_mask_tracks_the_sparsity_threshold_exactly() {
        use crate::simd::simd_feasible;
        // Distinct coverage straddling SP = 0.25 on a 1000-element
        // array: 249 distinct elements (sp 0.249) must mask the vector
        // path out of the ranking, 250 (sp 0.25) must admit it — the
        // exact boundary `simd_feasible` gates `with_simd` on.
        let m = DecisionModel::default();
        for (distinct, feasible) in [(249usize, false), (250usize, true)] {
            let rows: Vec<Vec<u32>> = (0..2000).map(|i| vec![(i % distinct) as u32]).collect();
            let pat = smartapps_workloads::AccessPattern::from_iters(1000, &rows);
            let chars = PatternChars::measure(&pat);
            let admit = simd_feasible(&chars);
            assert_eq!(admit, feasible, "sp {}", chars.sp);
            let inp = input(chars, 8, false).with_simd(admit);
            let pred = m.decide(&inp);
            assert_eq!(
                pred.cost_of(Scheme::Simd).is_some(),
                feasible,
                "ranking: {:?}",
                pred.ranking
            );
            assert_eq!(m.predict(Scheme::Simd, &inp).is_finite(), feasible);
        }
    }

    #[test]
    fn locality_cost_is_monotone() {
        let q = ModelParams::default();
        let a = q.locality_cost(100.0 * 1024.0);
        let b = q.locality_cost(1024.0 * 1024.0);
        let c = q.locality_cost(16.0 * 1024.0 * 1024.0);
        assert!(a <= b && b <= c);
        assert_eq!(a, q.update_hit);
        assert!(c <= q.update_hit + q.update_miss_penalty + 1e-9);
    }
}

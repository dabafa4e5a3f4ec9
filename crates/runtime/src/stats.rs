//! Runtime service counters: cheap atomics the dispatcher bumps and
//! clients snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing service activity since startup.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) coalesced: AtomicU64,
    pub(crate) profile_hits: AtomicU64,
    pub(crate) inspections: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) fused_sweeps: AtomicU64,
    pub(crate) fused_jobs: AtomicU64,
    pub(crate) pclr_offloads: AtomicU64,
    pub(crate) sim_cycles: AtomicU64,
    pub(crate) simd_offloads: AtomicU64,
    pub(crate) calibration_updates: AtomicU64,
    pub(crate) pred_err_sum_micros: AtomicU64,
    pub(crate) explored: AtomicU64,
    pub(crate) fuse_probes: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) simplified_jobs: AtomicU64,
    pub(crate) simplify_rejects: AtomicU64,
}

/// A point-in-time copy of [`RuntimeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted by `submit`/`submit_batch`.
    pub submitted: u64,
    /// Jobs whose handles have been completed.
    pub completed: u64,
    /// Dispatch batches executed.
    pub batches: u64,
    /// Jobs that rode along in a batch behind another job's decision
    /// (i.e. `submitted - batches` for the coalesced portion).
    pub coalesced: u64,
    /// Batches served straight from the profile store (no inspection).
    pub profile_hits: u64,
    /// Inspector fills, paid when first needed and shared by every
    /// dispatcher through the runtime's pattern registry: one per
    /// inspection filled, per (pattern allocation, SPMD width), its
    /// allocation's slot numbering and characterization included when it
    /// pays them (a decision, or a drift-judged profile hit); plus one per
    /// slot numbering (`LocalIndex`) filled alone, for a `hash` run no
    /// inspection of the allocation preceded (a profile hit).
    pub inspections: u64,
    /// Profile entries evicted: displaced by a calibration recheck (on
    /// its cadence, or due after a drift-suspect sample), or naming a
    /// backend this service cannot run.
    pub evictions: u64,
    /// Batches a dispatcher stole from a peer's shards after draining its
    /// own (see the shard-affine dispatcher design in `queue`).
    pub steals: u64,
    /// Fused execution sweeps run (one traversal, multiple outputs).
    pub fused_sweeps: u64,
    /// Jobs whose output was produced by a fused sweep (each sweep
    /// accounts for ≥ 2 of these).
    pub fused_jobs: u64,
    /// Jobs executed on the PCLR hardware backend (the simulated
    /// machine) instead of the software library.
    pub pclr_offloads: u64,
    /// Total simulated cycles spent across all PCLR offloads.
    pub sim_cycles: u64,
    /// Jobs executed on the vectorized SIMD backend instead of the
    /// scalar software library.
    pub simd_offloads: u64,
    /// Predicted-vs-measured cost samples the online calibrator accepted
    /// (see `docs/MODEL.md`); 0 means the measure→correct loop never ran.
    pub calibration_updates: u64,
    /// Sum of per-sample absolute relative prediction errors, in
    /// millionths (µ-units) — divide by `calibration_updates` via
    /// [`mean_abs_prediction_error`](StatsSnapshot::mean_abs_prediction_error).
    pub pred_err_sum_micros: u64,
    /// Model decisions diverted to a runner-up scheme to gather
    /// calibration samples (`CalibrationConfig::explore_every`).
    pub explored: u64,
    /// Declined fusable groups executed fused anyway to gather fused-side
    /// calibration samples (`CalibrationConfig::probe_fused_every`).
    pub fuse_probes: u64,
    /// Jobs failed fast with
    /// [`JobErrorKind::Quarantined`](crate::JobErrorKind::Quarantined)
    /// because their workload class accumulated
    /// `RuntimeConfig::quarantine_after` consecutive panicking bodies.
    pub quarantined: u64,
    /// Jobs executed through the simplification pass's rewritten plan
    /// (difference-array scan) instead of a scheme sweep — see
    /// `docs/MODEL.md` ("Simplification pass").
    pub simplified_jobs: u64,
    /// Jobs that *declared* an iteration-uniform body but were declined
    /// by the pass (structural mismatch, cost guard, refuted declaration,
    /// or a persisted negative verdict) and executed unsimplified.
    /// Undeclared traffic is never counted here — it bypasses the pass.
    pub simplify_rejects: u64,
}

impl StatsSnapshot {
    /// Mean absolute relative error of calibrated cost predictions
    /// (`|estimate/measured − 1|` averaged over accepted samples) — the
    /// number that trends toward 0 as the calibration loop converges.
    /// `0.0` before any sample.
    pub fn mean_abs_prediction_error(&self) -> f64 {
        if self.calibration_updates == 0 {
            0.0
        } else {
            self.pred_err_sum_micros as f64 / 1e6 / self.calibration_updates as f64
        }
    }
}

impl RuntimeStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            profile_hits: self.profile_hits.load(Ordering::Relaxed),
            inspections: self.inspections.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            fused_sweeps: self.fused_sweeps.load(Ordering::Relaxed),
            fused_jobs: self.fused_jobs.load(Ordering::Relaxed),
            pclr_offloads: self.pclr_offloads.load(Ordering::Relaxed),
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            simd_offloads: self.simd_offloads.load(Ordering::Relaxed),
            calibration_updates: self.calibration_updates.load(Ordering::Relaxed),
            pred_err_sum_micros: self.pred_err_sum_micros.load(Ordering::Relaxed),
            explored: self.explored.load(Ordering::Relaxed),
            fuse_probes: self.fuse_probes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            simplified_jobs: self.simplified_jobs.load(Ordering::Relaxed),
            simplify_rejects: self.simplify_rejects.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = RuntimeStats::default();
        RuntimeStats::add(&s.submitted, 3);
        RuntimeStats::add(&s.completed, 2);
        RuntimeStats::add(&s.coalesced, 1);
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.batches, 0);
    }

    #[test]
    fn mean_prediction_error_averages_micros() {
        let s = RuntimeStats::default();
        assert_eq!(s.snapshot().mean_abs_prediction_error(), 0.0);
        RuntimeStats::add(&s.calibration_updates, 4);
        RuntimeStats::add(&s.pred_err_sum_micros, 2_000_000); // 2.0 total error
        let snap = s.snapshot();
        assert!((snap.mean_abs_prediction_error() - 0.5).abs() < 1e-12);
    }
}

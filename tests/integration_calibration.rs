//! End-to-end tests of the online calibration loop (`docs/MODEL.md`): a
//! service whose analytic model is deliberately mis-calibrated re-routes
//! a workload class once measured cost samples correct the model — and
//! the re-routing survives a process restart because the corrections
//! persist through the profile store's `corr` records.
//!
//! The scenario is a cold-vs-calibrated decision matrix: the model
//! under-costs `hash` so badly that a dense, cache-resident class —
//! honest `rep`/`ll` territory — decides onto `hash` when cold.
//! Exploration slots measure the schemes the model mis-ranks, profile
//! rechecks re-run the decision under the accumulated corrections (the
//! paper's "Redecide" adaptation), the class flips off `hash`, and a
//! restarted service — corrections loaded, zero warm-up traffic — keeps
//! deciding the measured-faster way even for classes it has never
//! profiled.

use smartapps::core::toolbox::DomainKey;
use smartapps::reductions::{DecisionModel, ModelParams, Scheme};
use smartapps::runtime::{CalibrationConfig, JobSpec, ProfileStore, Runtime, RuntimeConfig};
use smartapps::workloads::pattern::sequential_reduce_i64;
use smartapps::workloads::{
    contribution_i64, AccessPattern, Distribution, PatternChars, PatternSpec,
};
use std::sync::Arc;

/// A dense, cache-resident, high-reuse class: honest models send it to
/// the privatizing family (`rep`/`ll`/`sel`, or their lane-striped
/// `simd` variant when the vectorized backend is enabled); the lying
/// model below sends it to `hash`.
fn dense(iterations: usize) -> Arc<AccessPattern> {
    Arc::new(
        PatternSpec {
            num_elements: 4096,
            iterations,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed: 7,
        }
        .generate(),
    )
}

/// A model that lies about `hash`: the per-reference probe is priced at
/// 2% of its honest constant, so `hash` wins the cold analytic ranking
/// on dense classes where it measurably loses by a wide margin.
fn lying_model() -> DecisionModel {
    DecisionModel::new(ModelParams {
        hash_per_ref: 0.05,
        hash_merge_elem: 0.5,
        ..ModelParams::default()
    })
}

fn config(path: &std::path::Path, calibration: CalibrationConfig) -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        dispatchers: 1,
        model: lying_model(),
        calibration,
        profile_path: Some(path.to_path_buf()),
        ..RuntimeConfig::default()
    }
}

#[test]
fn calibration_reroutes_a_class_and_the_rerouting_survives_restart() {
    let dir = std::env::temp_dir().join("smartapps-calibration-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("store-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // 40k iterations: signature bucket log2(40000) = 16.
    let pat = dense(40_000);
    let oracle = sequential_reduce_i64(&pat);
    let domain = DomainKey::of(&PatternChars::measure(&pat));

    // ── Phase 1+2 (cold → measure): the lying model routes the class to
    // hash; repeats are profile hits that keep feeding the calibrator,
    // every 3rd batch explores an unmeasured scheme, and every 4th
    // profile hit rechecks the entry under the corrected ranking.
    {
        let rt = Runtime::new(config(
            &path,
            CalibrationConfig {
                explore_every: 3,
                recheck_every: 4,
                probe_fused_every: 0,
            },
        ));
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none());
        assert_eq!(
            r.scheme,
            Scheme::Hash,
            "the mis-calibrated model must pick hash cold"
        );
        let mut last = r.scheme;
        for _ in 0..30 {
            let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert!(r.error.is_none());
            assert_eq!(r.output.as_i64().unwrap(), oracle);
            last = r.scheme;
        }
        let stats = rt.stats();
        assert!(stats.calibration_updates > 0, "the loop must be running");
        assert!(stats.explored > 0, "exploration must have sampled");
        assert!(
            stats.evictions >= 1,
            "a recheck must have evicted the mispredicted entry: {stats:?}"
        );
        assert_ne!(
            last,
            Scheme::Hash,
            "corrections must re-route the class (stats: {stats:?})"
        );
        // The re-route is sticky in this process: the final run rides the
        // re-recorded profile entry.
        let settled = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_ne!(settled.scheme, Scheme::Hash);
        // And the corrected model now ranks hash above the measured
        // winner in this domain.
        assert!(
            rt.correction(Scheme::Hash, domain, false)
                > rt.correction(settled.scheme, domain, false),
            "hash must carry the larger measured/predicted correction"
        );
        rt.shutdown();
    }

    // The corrections made it to disk as corr records.
    let store = ProfileStore::load(&path).expect("store must parse");
    assert!(
        store.calibration_len() > 0,
        "corr records must persist: {}",
        std::fs::read_to_string(&path).unwrap()
    );

    // ── Phase 3 (restart, active sampling off): the profiled class stays
    // re-routed, and a *fresh* class of the same functioning domain — a
    // different iteration count, so a signature this service has never
    // profiled — decides straight onto the measured-faster scheme with
    // zero warm-up traffic: the decision comes from the persisted
    // corrections alone.
    {
        let rt = Runtime::new(config(&path, CalibrationConfig::default()));
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.profile_hit, "restart must remember the class");
        assert_ne!(
            r.scheme,
            Scheme::Hash,
            "the re-routing must survive the restart"
        );
        assert_eq!(r.output.as_i64().unwrap(), oracle);

        // 25k iterations: bucket log2(25000) = 15 — a fresh signature in
        // the same functioning domain.
        let fresh = dense(25_000);
        assert_eq!(
            DomainKey::of(&PatternChars::measure(&fresh)),
            domain,
            "the fresh class must share the functioning domain"
        );
        let r = rt.run(JobSpec::i64(fresh.clone(), |_i, r| contribution_i64(r)));
        assert!(!r.profile_hit, "a fresh signature must re-decide");
        assert_ne!(
            r.scheme,
            Scheme::Hash,
            "persisted corrections must steer the fresh decision"
        );
        assert!(
            matches!(
                r.scheme,
                Scheme::Rep | Scheme::Ll | Scheme::Sel | Scheme::Simd
            ),
            "a dense class belongs to the privatizing family, got {}",
            r.scheme
        );
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&fresh));
        rt.shutdown();
    }
    let _ = std::fs::remove_file(&path);
}

/// Sanity leg: with an *honest* model, the passive loop (no exploration,
/// no rechecks) keeps feeding samples but never changes a decision.
///
/// Scalar-only service: the software schemes are the stable subject
/// here — the SIMD routing legs live in `crates/runtime` and
/// `prop_simd.rs`.  The zero-eviction assertion also watches the drift
/// guard's noise tolerance: these sub-millisecond runs do throw the
/// occasional >4x wall-clock outlier, and a single one must not evict.
#[test]
fn honest_model_is_not_rerouted_by_passive_calibration() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        dispatchers: 1,
        simd: false,
        ..RuntimeConfig::default()
    });
    let pat = dense(30_000);
    let first = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
    assert!(first.scheme.is_software());
    assert_ne!(first.scheme, Scheme::Hash);
    for _ in 0..8 {
        rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
    }
    let later = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
    assert_eq!(
        later.scheme, first.scheme,
        "passive calibration of a well-modeled class must not flip it"
    );
    let stats = rt.stats();
    assert!(stats.calibration_updates > 0);
    assert_eq!(stats.explored, 0);
    assert_eq!(stats.evictions, 0);
}

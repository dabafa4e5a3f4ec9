//! End-to-end tests of the online calibration loop (`docs/MODEL.md`): a
//! service whose analytic model is deliberately mis-calibrated re-routes
//! a workload class once measured cost samples correct the model — and
//! the re-routing survives a process restart because the corrections
//! persist through the profile store's `corr` records.
//!
//! The scenario is a cold-vs-calibrated decision matrix: the model
//! under-costs `rep`'s O(N) init and merge sweeps so badly that an
//! extremely sparse class over a large array — honest `hash`/`sel`
//! territory — decides onto `rep` when cold.  Exploration slots measure
//! the schemes the model mis-ranks, profile rechecks re-run the decision
//! under the accumulated corrections (the paper's "Redecide" adaptation),
//! the class flips off `rep`, and a restarted service — corrections
//! loaded, zero warm-up traffic — keeps deciding the measured-faster way
//! even for classes it has never profiled.

use smartapps::core::toolbox::DomainKey;
use smartapps::reductions::{DecisionModel, ModelParams, Scheme};
use smartapps::runtime::{CalibrationConfig, JobSpec, ProfileStore, Runtime, RuntimeConfig};
use smartapps::workloads::pattern::sequential_reduce_i64;
use smartapps::workloads::{
    contribution_i64, AccessPattern, Distribution, PatternChars, PatternSpec,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// Both tests judge schemes by measured wall time; run concurrently, each
/// would measure the other's SPMD regions as well as its own.  Every test
/// holds this lock, so the binary runs them one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A dense, cache-resident, high-reuse class: honest models send it to
/// the privatizing family (`rep`/`ll`/`sel`, or their lane-striped
/// `simd` variant when the vectorized backend is enabled).
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

/// An extremely sparse class: 2 % of a 1 Mi-element array is ever
/// touched, so a scheme whose storage follows the touched set (`hash`,
/// `sel`) beats `rep`, which initializes and merges every element of
/// every thread's private copy, several times over.
fn sparse(iterations: usize) -> Arc<AccessPattern> {
    Arc::new(
        PatternSpec {
            num_elements: 1 << 20,
            iterations,
            refs_per_iter: 2,
            coverage: 0.02,
            dist: Distribution::Uniform,
            seed: 7,
        }
        .generate(),
    )
}

/// A model that lies about `rep`: its init and merge sweeps are priced
/// at nothing, so `rep` wins the cold analytic ranking on sparse classes
/// where it measurably loses by a wide margin.
fn lying_model() -> DecisionModel {
    DecisionModel::new(ModelParams {
        init_store: 0.0,
        rep_merge_elem: 0.0,
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
    let _serial = serial();
    let dir = std::env::temp_dir().join("smartapps-calibration-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("store-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // 40k iterations: signature bucket log2(40000) = 16.
    let pat = sparse(40_000);
    let oracle = sequential_reduce_i64(&pat);
    let domain = DomainKey::of(&PatternChars::measure(&pat));

    // ── Phase 1+2 (cold → measure): the lying model routes the class to
    // rep; repeats are profile hits that keep feeding the calibrator,
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
            Scheme::Rep,
            "the mis-calibrated model must pick rep cold"
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
            Scheme::Rep,
            "corrections must re-route the class (stats: {stats:?})"
        );
        // The re-route is sticky in this process: the final run rides the
        // re-recorded profile entry.
        let settled = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_ne!(settled.scheme, Scheme::Rep);
        // And the corrected model now ranks rep above the measured
        // winner in this domain.
        assert!(
            rt.correction(Scheme::Rep, domain, false)
                > rt.correction(settled.scheme, domain, false),
            "rep must carry the larger measured/predicted correction"
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
            Scheme::Rep,
            "the re-routing must survive the restart"
        );
        assert_eq!(r.output.as_i64().unwrap(), oracle);

        // 30k iterations: bucket log2(30000) = 15 — a fresh signature in
        // the same functioning domain.
        let fresh = sparse(30_000);
        assert_eq!(
            DomainKey::of(&PatternChars::measure(&fresh)),
            domain,
            "the fresh class must share the functioning domain"
        );
        let r = rt.run(JobSpec::i64(fresh.clone(), |_i, r| contribution_i64(r)));
        assert!(!r.profile_hit, "a fresh signature must re-decide");
        assert_ne!(
            r.scheme,
            Scheme::Rep,
            "persisted corrections must steer the fresh decision"
        );
        assert!(
            matches!(r.scheme, Scheme::Hash | Scheme::Sel),
            "a sparse class belongs to the touched-set schemes, got {}",
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
/// check: these sub-millisecond runs do throw the occasional >4x
/// wall-clock outlier, which marks the entry due for a recheck — but
/// only the stored scheme is ever measured here, so no rival has the
/// evidence to displace it, whatever the clock reads.
#[test]
fn honest_model_is_not_rerouted_by_passive_calibration() {
    let _serial = serial();
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

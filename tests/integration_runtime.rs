//! End-to-end tests of the persistent reduction service: many concurrent
//! clients hammering one runtime, bit-exact results against the
//! sequential oracle, and profile-store persistence across a restart.

use smartapps::reductions::Scheme;
use smartapps::runtime::{Builtin, JobSpec, ProfileStore, Runtime, RuntimeConfig};
use smartapps::workloads::pattern::{sequential_reduce, sequential_reduce_i64};
use smartapps::workloads::{
    contribution, contribution_i64, AccessPattern, Distribution, PatternSpec,
};
use std::sync::Arc;

fn pattern(seed: u64, elems: usize, iters: usize, cov: f64) -> Arc<AccessPattern> {
    Arc::new(
        PatternSpec {
            num_elements: elems,
            iterations: iters,
            refs_per_iter: 2,
            coverage: cov,
            dist: Distribution::Uniform,
            seed,
        }
        .generate(),
    )
}

/// The ISSUE's headline test: ≥100 jobs submitted concurrently from
/// multiple client threads; every integer result must equal the
/// sequential oracle bit-for-bit and every f64 result within tolerance.
#[test]
fn hundred_concurrent_jobs_match_oracles() {
    let rt = Arc::new(Runtime::with_workers(4));
    // Four workload classes of different shapes, each with a precomputed
    // oracle.
    let classes: Vec<Arc<AccessPattern>> = vec![
        pattern(1, 1000, 4000, 1.0),
        pattern(2, 4096, 2000, 0.5),
        pattern(3, 300, 6000, 0.9),
        pattern(4, 20_000, 1500, 0.05),
    ];
    let i64_oracles: Vec<Vec<i64>> = classes.iter().map(|p| sequential_reduce_i64(p)).collect();
    let f64_oracles: Vec<Vec<f64>> = classes.iter().map(|p| sequential_reduce(p)).collect();

    const CLIENTS: usize = 6;
    const JOBS_PER_CLIENT: usize = 20; // 120 jobs total
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let rt = rt.clone();
            let classes = &classes;
            let i64_oracles = &i64_oracles;
            let f64_oracles = &f64_oracles;
            s.spawn(move || {
                for j in 0..JOBS_PER_CLIENT {
                    let k = (c + j) % classes.len();
                    let pat = classes[k].clone();
                    if (c + j) % 2 == 0 {
                        let r = rt
                            .submit(JobSpec::i64(pat, |_i, rf| contribution_i64(rf)))
                            .wait();
                        assert_eq!(
                            r.output.as_i64().unwrap(),
                            &i64_oracles[k][..],
                            "client {c} job {j} (class {k}, scheme {}) wrong",
                            r.scheme
                        );
                    } else {
                        let r = rt
                            .submit(JobSpec::f64(pat, |_i, rf| contribution(rf)))
                            .wait();
                        let got = r.output.as_f64().unwrap();
                        for (e, (a, b)) in f64_oracles[k].iter().zip(got.iter()).enumerate() {
                            assert!(
                                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                                "client {c} job {j} class {k} elem {e}: {a} vs {b}"
                            );
                        }
                    }
                }
            });
        }
    });
    let stats = rt.stats();
    assert_eq!(stats.submitted, (CLIENTS * JOBS_PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.submitted);
    // Four workload classes, 120 jobs: the profile store must have
    // absorbed the decisions and served the overwhelming majority of
    // batches without inspection.
    assert!(
        stats.profile_hits + stats.inspections >= 4,
        "every class needs a decision: {stats:?}"
    );
    assert!(
        stats.inspections < stats.submitted,
        "most jobs must reuse decisions: {stats:?}"
    );
}

/// Batch submission of one class: decisions are shared, and the results
/// still match the oracle exactly.
#[test]
fn submit_batch_shares_one_decision() {
    let rt = Runtime::with_workers(3);
    let pat = pattern(7, 2000, 3000, 0.8);
    let oracle = sequential_reduce_i64(&pat);
    let handles = rt.submit_batch(
        (0..40)
            .map(|_| JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)))
            .collect(),
    );
    for h in handles {
        assert_eq!(h.wait().output.as_i64().unwrap(), &oracle[..]);
    }
    let stats = rt.stats();
    assert_eq!(stats.completed, 40);
    assert!(
        stats.inspections <= 2,
        "one class must not re-inspect per job: {stats:?}"
    );
}

/// Profile round-trip: a scheme decision learned before shutdown
/// survives a service restart through the on-disk store — the restarted
/// runtime goes straight to the remembered scheme with zero inspections.
#[test]
fn profile_store_round_trip_survives_restart() {
    let dir = std::env::temp_dir().join("smartapps-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("profiles-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = RuntimeConfig {
        workers: 3,
        profile_path: Some(path.clone()),
        ..RuntimeConfig::default()
    };
    let pat = pattern(13, 3000, 5000, 1.0);
    let oracle = sequential_reduce_i64(&pat);

    let (first_scheme, first_sig) = {
        let rt = Runtime::new(cfg.clone());
        let h = rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let sig = h.signature();
        let r = h.wait();
        assert!(!r.profile_hit);
        assert_eq!(r.output.as_i64().unwrap(), &oracle[..]);
        rt.shutdown(); // persists the store
        (r.scheme, sig)
    };

    // The on-disk text is loadable standalone and contains the class.
    let store = ProfileStore::load(&path).unwrap();
    assert!(
        store.get(first_sig).is_some(),
        "store must remember the class"
    );
    assert_eq!(store.get(first_sig).unwrap().scheme, first_scheme);

    // A restarted service reuses the decision without inspecting.
    {
        let rt = Runtime::new(cfg);
        let r = rt.run(JobSpec::i64(pat, |_i, rf| contribution_i64(rf)));
        assert!(r.profile_hit, "restart must hit the profile");
        assert_eq!(r.scheme, first_scheme);
        assert_eq!(r.output.as_i64().unwrap(), &oracle[..]);
        assert_eq!(rt.stats().inspections, 0);
    }
    let _ = std::fs::remove_file(&path);
}

/// The steal path: one shard flooded with a single workload class while
/// every other dispatcher's shards sit idle.  Cross-dispatcher stealing
/// must drain the flood (steals observed) and every result must still
/// match the oracle.
#[test]
fn flooded_shard_is_drained_by_stealing_peers() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 2,
        shards: 8,
        dispatchers: 4,
        // One job per batch and no fusion: the owner cannot swallow the
        // flood in one pop, so its peers must steal to keep up.
        max_batch: 1,
        max_fuse: 1,
        ..RuntimeConfig::default()
    }));
    // Sparse enough that width 2 runs a kernel reusing an inspector
    // product (`sel` or `hash`), not one that needs none.
    let pat = pattern(38, 20_000, 1500, 0.05);
    let oracle = sequential_reduce_i64(&pat);
    // All 60 jobs carry the same signature → the same shard → one owner;
    // the other three dispatchers have nothing of their own to do.
    let handles: Vec<_> = (0..60)
        .map(|_| rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r))))
        .collect();
    let mut schemes = Vec::new();
    for h in handles {
        let r = h.wait();
        assert!(r.error.is_none());
        assert_eq!(r.output.as_i64().unwrap(), &oracle[..]);
        schemes.push(r.scheme);
    }
    let stats = rt.stats();
    assert_eq!(stats.completed, 60);
    assert!(
        stats.steals > 0,
        "idle dispatchers must steal from the flooded shard: {stats:?}"
    );
    // Every dispatcher that touches the allocation reuses the products
    // the first one paid for: one inspection for the decision, which a
    // `sel`/`lw` kernel reuses and whose slot numbering a `hash` kernel
    // reuses — however many thieves decided or ran a batch.
    assert!(
        schemes
            .iter()
            .all(|s| matches!(s, Scheme::Sel | Scheme::Lw | Scheme::Hash)),
        "{schemes:?}"
    );
    assert_eq!(stats.inspections, 1, "{schemes:?} {stats:?}");
}

/// Fused execution: K same-pattern sparse jobs with K different
/// contribution bodies coalesce into one hash sweep whose K outputs each
/// match the corresponding sequential oracle run.
#[test]
fn fused_batch_matches_k_sequential_oracles() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 3,
        dispatchers: 1, // deterministic coalescing: one consumer
        max_batch: 32,
        max_fuse: 8,
        ..RuntimeConfig::default()
    });
    // Occupy the lone dispatcher with a large job so the K submissions
    // below are all queued together when it next pops.
    let big = pattern(33, 50_000, 1_200_000, 1.0);
    let warm = rt.submit(JobSpec::i64(big, |_i, r| contribution_i64(r)));
    // Sparse enough that the fanout-aware fusion gate picks hash.
    let pat = Arc::new(
        PatternSpec {
            num_elements: 400_000,
            iterations: 4_000,
            refs_per_iter: 12,
            coverage: 0.004,
            dist: Distribution::Uniform,
            seed: 35,
        }
        .generate(),
    );
    const K: usize = 5;
    let handles: Vec<_> = (0..K)
        .map(|k| {
            let scale = k as i64 + 1;
            rt.submit(JobSpec::i64(pat.clone(), move |_i, r| {
                contribution_i64(r).wrapping_mul(scale)
            }))
        })
        .collect();
    warm.wait();
    // Oracle: K separate sequential runs, one per body.
    let base = sequential_reduce_i64(&pat);
    for (k, h) in handles.into_iter().enumerate() {
        let r = h.wait();
        assert!(r.error.is_none());
        let scale = k as i64 + 1;
        let expect: Vec<i64> = base.iter().map(|v| v.wrapping_mul(scale)).collect();
        assert_eq!(r.output.as_i64().unwrap(), &expect[..], "fused output {k}");
        assert_eq!(r.fused_with, K - 1, "all {K} jobs must share one sweep");
    }
    let stats = rt.stats();
    assert_eq!(stats.fused_sweeps, 1, "{stats:?}");
    assert_eq!(stats.fused_jobs, K as u64);
    // One decision for the fused batch: one inspection beyond the warm-up
    // job's, whose slot numbering the hash sweep reuses.
    assert_eq!(stats.inspections, 2, "{stats:?}");
}

/// A class decided `hash` localizes once per pattern allocation, inside
/// the decision's inspection: fifty runs over one `Arc` share the slot
/// numbering that inspection built, and the pattern
/// rewritten through `Arc::make_mut` (a new allocation, since the cache's
/// `Weak` freezes the old one) gets a fresh numbering, not a stale one.
#[test]
fn hash_class_localizes_once_per_pattern_allocation() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        dispatchers: 1,
        ..RuntimeConfig::default()
    });
    let mut pat = pattern(37, 1 << 20, 262_144, 0.02);
    let oracle = sequential_reduce_i64(&pat);
    for run in 0..50 {
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_eq!(r.scheme, Scheme::Hash, "run {run}");
        assert_eq!(r.output.as_i64().unwrap(), &oracle[..], "run {run}");
    }
    // One inspection for the decision, whose numbering every run reuses.
    assert_eq!(rt.stats().inspections, 1, "{:?}", rt.stats());
    // Shift every reference to the next slot: same class, same signature,
    // different element per reference.
    Arc::make_mut(&mut pat).indices.rotate_left(1);
    let oracle = sequential_reduce_i64(&pat);
    let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
    assert_eq!(r.scheme, Scheme::Hash);
    assert_eq!(r.output.as_i64().unwrap(), &oracle[..]);
    assert_eq!(rt.stats().inspections, 2, "{:?}", rt.stats());
}

/// At width 1 every software scheme runs the sequential sweep, so a
/// class decided `hash` or `sel` pays the decision's inspection (its
/// localize walk included) and nothing else: no kernel-side pass over
/// twenty runs on one `Arc`, and every answer oracle-exact.
#[test]
fn width_one_classes_inspect_only_to_decide() {
    for (pat, scheme) in [
        (pattern(37, 1 << 20, 65_536, 0.02), Scheme::Hash),
        (pattern(38, 20_000, 1500, 0.05), Scheme::Sel),
    ] {
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            dispatchers: 1,
            ..RuntimeConfig::default()
        });
        let oracle = sequential_reduce_i64(&pat);
        for run in 0..20 {
            let r = rt.run(JobSpec::builtin(pat.clone(), Builtin::Sum));
            if run == 0 {
                assert_eq!(r.scheme, scheme, "the class's decision");
            }
            assert_eq!(
                r.output.as_i64().unwrap(),
                &oracle[..],
                "{scheme} run {run}"
            );
        }
        assert_eq!(rt.stats().inspections, 1, "{scheme}: {:?}", rt.stats());
    }
}

/// Adaptive feedback loops run on the service's pool and learn into the
/// service's one calibrator: their samples move `Runtime::correction` for
/// their domain, persist as `corr` records at shutdown, and steer a
/// restarted service's loop.
#[test]
fn adaptive_loops_share_the_pool_and_persist() {
    use smartapps::core::toolbox::DomainKey;
    use smartapps::reductions::{Inspector, ModelInput, Scheme};

    let dir = std::env::temp_dir().join("smartapps-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("adaptive-corr-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = RuntimeConfig {
        workers: 4,
        profile_path: Some(path.clone()),
        ..RuntimeConfig::default()
    };
    let pat = pattern(21, 2048, 8000, 1.0);
    let oracle = sequential_reduce(&pat);
    let body = |_i: usize, r: usize| contribution(r);
    let check = |out: &[f64]| {
        for (a, b) in oracle.iter().zip(out.iter()) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
    };
    let insp = Inspector::analyze(&pat, 4);
    let domain = DomainKey::of(&insp.chars);

    let rt = Runtime::new(cfg.clone());
    // A service job in another domain sets the machine scale, so the
    // loop's samples are not the only ones the calibrator has seen.
    let sparse = pattern(22, 200_000, 600, 0.05);
    rt.run(JobSpec::i64(sparse, |_i, r| contribution_i64(r)));
    let before: Vec<f64> = Scheme::all_parallel()
        .iter()
        .map(|&s| rt.correction(s, domain, false))
        .collect();
    let mut smart = rt.adaptive(1, false);
    let mut other = rt.adaptive(2, false);
    assert!(Arc::ptr_eq(&smart.calibrator, &other.calibrator));
    let mut scheme = None;
    for _ in 0..4 {
        let (out, log) = smart.execute(&pat, &body);
        check(&out);
        scheme.get_or_insert(log.scheme);
    }
    check(&other.execute(&pat, &body).0);
    let scheme = scheme.unwrap();
    let at = Scheme::all_parallel()
        .iter()
        .position(|&s| s == scheme)
        .unwrap();
    let learned = rt.correction(scheme, domain, false);
    assert_ne!(learned, before[at], "loop samples must move the correction");
    assert!(
        smart
            .calibrator
            .lock()
            .unwrap()
            .class_confidence(scheme, domain, false)
            > 0.0
    );
    rt.shutdown();

    let text = std::fs::read_to_string(&path).unwrap();
    let record = format!("corr {} {:08x} s ", scheme.abbrev(), domain.pack());
    assert!(text.contains(&record), "{record} missing from:\n{text}");
    assert_eq!(ProfileStore::from_text(&text).unwrap().to_text(), text);

    // A restarted service's loop decides from what the first one learned.
    let rt = Runtime::new(cfg);
    assert_eq!(rt.correction(scheme, domain, false), learned);
    let mut smart = rt.adaptive(1, false);
    let expect = {
        let cal = smart.calibrator.lock().unwrap();
        assert!(cal.class_confidence(scheme, domain, false) > 0.0);
        cal.rank(&ModelInput::from_inspection(&insp, false), domain)[0].0
    };
    let (out, log) = smart.execute(&pat, &body);
    check(&out);
    assert_eq!(log.scheme, expect, "restored corrections must decide");
    rt.shutdown();
    let _ = std::fs::remove_file(&path);
}

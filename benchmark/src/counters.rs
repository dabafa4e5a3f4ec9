//! What the service already counts about itself, gathered from outside:
//! `Runtime::stats()`, `Server::reactor_wakeups()` and the exposition
//! (`Client::metrics()` over the wire, the registry's render embedded).
//! A traced run takes a reading before and after the measured phase and
//! reports the difference as per-layer figures.

use crate::scrape;
use smartapps_runtime::StatsSnapshot;
use smartapps_server::Server;
use std::collections::BTreeMap;

const STAGES: [(&str, &str, &str); 6] = [
    ("queue", "stage.queue.sum", "stage.queue.count"),
    ("decide", "stage.decide.sum", "stage.decide.count"),
    ("simplify", "stage.simplify.sum", "stage.simplify.count"),
    ("exec", "stage.exec.sum", "stage.exec.count"),
    (
        "completion",
        "stage.completion.sum",
        "stage.completion.count",
    ),
    ("write", "stage.write.sum", "stage.write.count"),
];

/// One reading of the service's own counters, all monotonic, by name.
#[derive(Debug, Clone, Default)]
pub struct Reading(BTreeMap<&'static str, f64>);

impl Reading {
    pub fn take(stats: &StatsSnapshot, server: Option<&Server>, exposition: &str) -> Reading {
        let mut m = BTreeMap::new();
        for (k, v) in [
            ("submitted", stats.submitted),
            ("completed", stats.completed),
            ("batches", stats.batches),
            ("coalesced", stats.coalesced),
            ("profile_hits", stats.profile_hits),
            ("inspections", stats.inspections),
            ("evictions", stats.evictions),
            ("steals", stats.steals),
            ("fused_jobs", stats.fused_jobs),
            ("simd_offloads", stats.simd_offloads),
            ("calibration_updates", stats.calibration_updates),
            ("pred_err_sum_micros", stats.pred_err_sum_micros),
            ("fuse_probes", stats.fuse_probes),
            ("simplified_jobs", stats.simplified_jobs),
            ("simplify_rejects", stats.simplify_rejects),
            ("reactor_wakeups", server.map_or(0, Server::reactor_wakeups)),
            (
                "idle_wakeups",
                server.map_or(0, Server::reactor_idle_wakeups),
            ),
        ] {
            m.insert(k, v as f64);
        }
        let x = exposition;
        m.insert("bytes_in", scrape::counter(x, "smartapps_conn_bytes_in"));
        m.insert("bytes_out", scrape::counter(x, "smartapps_conn_bytes_out"));
        m.insert(
            "uploads_fresh",
            scrape::counter_with(x, "smartapps_uploads", "outcome=\"fresh\""),
        );
        m.insert(
            "uploads_dedup",
            scrape::counter_with(x, "smartapps_uploads", "outcome=\"dedup\""),
        );
        m.insert(
            "decision_flips",
            scrape::counter(x, "smartapps_decision_flips"),
        );
        let request = scrape::hist(x, "smartapps_request_ns", "conn=\"all\"");
        m.insert("request.sum", request.sum);
        m.insert("request.count", request.count);
        m.insert(
            "backend_wall.sum",
            scrape::hist(x, "smartapps_backend_wall_ns", "").sum,
        );
        for (stage, sum, count) in STAGES {
            let h = scrape::hist(x, "smartapps_stage_ns", &format!("stage=\"{stage}\""));
            m.insert(sum, h.sum);
            m.insert(count, h.count);
        }
        Reading(m)
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// This reading minus an earlier one of the same service.
    pub fn since(&self, earlier: &Reading) -> Reading {
        Reading(
            self.0
                .iter()
                .map(|(&k, v)| (k, v - earlier.get(k)))
                .collect(),
        )
    }

    /// Add the reading of another service lifetime.
    pub fn add(&mut self, other: &Reading) {
        for (&k, v) in &other.0 {
            *self.0.entry(k).or_insert(0.0) += v;
        }
    }

    /// The per-layer figures a reading over `wall_s` seconds gives.
    pub fn layers(&self, wall_s: f64, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let g = |k: &str| self.get(k);
        out.insert("server.reactor_wakeups", g("reactor_wakeups"));
        out.insert("server.idle_wakeups", g("idle_wakeups"));
        out.insert(
            "server.jobs_per_wakeup",
            ratio(g("completed"), g("reactor_wakeups")),
        );
        out.insert("server.bytes_in", g("bytes_in"));
        out.insert("server.bytes_out", g("bytes_out"));
        out.insert(
            "server.request_mean_ns",
            ratio(g("request.sum"), g("request.count")),
        );
        out.insert("server.uploads_fresh", g("uploads_fresh"));
        out.insert("server.uploads_dedup", g("uploads_dedup"));
        for (name, (_, sum, count)) in [
            "stage.queue_mean_ns",
            "stage.decide_mean_ns",
            "stage.simplify_mean_ns",
            "stage.exec_mean_ns",
            "stage.completion_mean_ns",
            "stage.write_mean_ns",
        ]
        .into_iter()
        .zip(STAGES)
        {
            out.insert(name, ratio(g(sum), g(count)));
        }
        out.insert("runtime.batches", g("batches"));
        out.insert(
            "runtime.coalesce_ratio",
            ratio(g("coalesced"), g("submitted")),
        );
        out.insert("runtime.steals", g("steals"));
        // Wall time inside `Backend::execute` over the phase: the share
        // of it the (single) dispatcher spent executing.
        out.insert(
            "backend.busy_share",
            ratio(g("backend_wall.sum") / 1e9, wall_s),
        );
        out.insert("runtime.simd_offloads", g("simd_offloads"));
        out.insert("runtime.fused_jobs", g("fused_jobs"));
        out.insert("runtime.fuse_probes", g("fuse_probes"));
        out.insert(
            "runtime.profile_hit_ratio",
            ratio(g("profile_hits"), g("batches")),
        );
        out.insert("runtime.inspections", g("inspections"));
        out.insert("runtime.evictions", g("evictions"));
        out.insert("runtime.decision_flips", g("decision_flips"));
        out.insert("runtime.calibration_updates", g("calibration_updates"));
        out.insert(
            "runtime.pred_err_mean",
            ratio(g("pred_err_sum_micros") / 1e6, g("calibration_updates")),
        );
        out.insert("runtime.simplified_jobs", g("simplified_jobs"));
        out.insert("runtime.simplify_rejects", g("simplify_rejects"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_runtime::{JobSpec, Runtime};
    use smartapps_workloads::{contribution_i64, AccessPattern};
    use std::sync::Arc;

    #[test]
    fn a_difference_of_readings_counts_the_jobs_between_them() {
        let rt = Runtime::new(crate::run::runtime_config(1, 0, None));
        let pat = Arc::new(AccessPattern::from_iters(
            8,
            &[vec![0, 1], vec![2, 3], vec![1, 7]],
        ));
        let job = || JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r));
        rt.run(job());
        let render = || rt.telemetry().registry().render_prometheus();
        let before = Reading::take(&rt.stats(), None, &render());
        for _ in 0..5 {
            rt.run(job());
        }
        let delta = Reading::take(&rt.stats(), None, &render()).since(&before);
        let mut layers = BTreeMap::new();
        delta.layers(1.0, &mut layers);
        assert_eq!(layers["runtime.batches"], 5.0);
        assert_eq!(layers["runtime.profile_hit_ratio"], 1.0);
        assert_eq!(layers["runtime.inspections"], 0.0);
        assert!(layers["stage.exec_mean_ns"] > 0.0);
        assert_eq!(layers["server.reactor_wakeups"], 0.0);
    }
}

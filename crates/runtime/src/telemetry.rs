//! The runtime's telemetry bundle: where the monitor half of the
//! paper's monitor→decide→execute loop becomes *distributions*, not
//! just counters.
//!
//! [`RuntimeTelemetry`] owns one [`Registry`] of latency histograms, one
//! [`TraceRing`] of per-job lifecycle events, and the epoch every trace
//! timestamp is relative to.  The dispatchers record at each lifecycle
//! edge (queue-wait, decide, execute — per scheme and per functioning
//! domain), the backend call-sites record wall time and simulated
//! cycles, and the calibrator records its per-sample prediction error.
//! The per-scheme histograms are pre-resolved into fixed arrays at
//! construction, so the dispatcher hot path touches only wait-free
//! atomics; dynamic-label series (domain classes, the server's
//! connections) pay one short registry probe.
//!
//! Since the provenance PR the bundle also carries the *attribution*
//! layer: per-[`Stage`] latency histograms
//! (`smartapps_stage_ns{stage=…}`), the per-class [`DecisionRecord`]
//! ledger behind the wire's `explain`, the decision-flip counter, and a
//! [slowest-N exemplar store](ExemplarStore) retaining each slow job's
//! decision record plus its full lifecycle [`TraceEvent`] — the data
//! `slowlog` serves.
//!
//! `docs/OBSERVABILITY.md` is the catalog of every metric name and
//! label recorded here and in `smartapps-server`.

use smartapps_core::DecisionRecord;
use smartapps_reductions::Scheme;
use smartapps_telemetry::{Exemplar, ExemplarStore, LogHistogram, Registry, TraceEvent, TraceRing};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Queue-wait (dequeue minus submit), per scheme the job ran.
pub const QUEUE_WAIT_NS: &str = "smartapps_queue_wait_ns";
/// Scheme-decision latency of a dispatch batch, per scheme decided.
pub const DECIDE_NS: &str = "smartapps_decide_ns";
/// Backend-reported execution cost, per scheme (simulated time for
/// `pclr`, wall time otherwise — the same cost sample the profile
/// store calibrates on).
pub const EXEC_NS: &str = "smartapps_exec_ns";
/// Backend-reported execution cost, per functioning domain
/// (`d{dim}r{reuse}s{sparsity}m{mo}` labels).
pub const EXEC_CLASS_NS: &str = "smartapps_exec_class_ns";
/// Wall-clock time spent inside a backend `execute`, per backend.
pub const BACKEND_WALL_NS: &str = "smartapps_backend_wall_ns";
/// Simulated machine cycles per PCLR offload.
pub const BACKEND_SIM_CYCLES: &str = "smartapps_backend_sim_cycles";
/// Calibrator per-sample relative prediction error, in parts per
/// million, per scheme.
pub const PREDICT_ERR_PPM: &str = "smartapps_predict_err_ppm";
/// Wall time of one rewritten (simplified) execution — probe plus
/// difference-array scan for the whole group — per recognized shape
/// (`prefix`/`suffix`/`window`/`interval` labels).
pub const SIMPLIFY_NS: &str = "smartapps_simplify_ns";
/// Per-job stage attribution, one series per pipeline [`Stage`]
/// (`queue`/`decide`/`simplify`/`exec`/`completion` recorded here from
/// each completed job's trace event; `write` recorded by the server's
/// delivery path).
pub const STAGE_NS: &str = "smartapps_stage_ns";
/// Counter: decisions whose winning scheme differed from the class's
/// previous recorded decision, labeled by the scheme flipped *to*.
pub const DECISION_FLIPS: &str = "smartapps_decision_flips";
/// Counter: slow-job exemplars displaced by slower samples (per-class
/// latency-floor evictions in the [`ExemplarStore`]).
pub const EXEMPLAR_EVICTIONS: &str = "smartapps_exemplar_evictions";

/// Every scheme, in the fixed index order the pre-resolved histogram
/// arrays use.
const SCHEMES: [Scheme; 8] = [
    Scheme::Seq,
    Scheme::Rep,
    Scheme::Ll,
    Scheme::Sel,
    Scheme::Lw,
    Scheme::Hash,
    Scheme::Pclr,
    Scheme::Simd,
];

fn scheme_index(scheme: Scheme) -> usize {
    SCHEMES.iter().position(|&s| s == scheme).unwrap_or(0)
}

/// The trace-tag code of a scheme (its index in the fixed order);
/// [`scheme_from_code`] is the inverse, for ring-dump readers.
pub fn scheme_code(scheme: Scheme) -> u8 {
    scheme_index(scheme) as u8
}

/// Decode a [`TraceEvent::scheme`] tag back to the scheme (`None` for
/// the `u8::MAX` "no scheme chosen" code).
pub fn scheme_from_code(code: u8) -> Option<Scheme> {
    SCHEMES.get(code as usize).copied()
}

/// One histogram per scheme, resolved once so recording is wait-free.
type PerScheme = [Arc<LogHistogram>; 8];

/// One pipeline stage of a job's end-to-end latency, in attribution
/// order.  The first five are derived from a completed job's
/// [`TraceEvent`] timestamps; [`Stage::Write`] is the server-side
/// completion-to-write tail the runtime cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Submission → dispatcher dequeue.
    Queue,
    /// Dequeue → scheme selection done.
    Decide,
    /// Simplification-pass probe time (carved out of exec).
    Simplify,
    /// Decision → backend execution done, minus the simplify probe.
    Exec,
    /// Execution done → the job leaves the dispatcher (a completion-set
    /// event is then held until its batch is delivered; that hold is
    /// not part of this stage).
    Completion,
    /// One reply's encode plus its share of the write that carried it
    /// (recorded by the server).
    Write,
}

impl Stage {
    /// All stages, in the fixed index order the pre-resolved histogram
    /// array uses.
    pub const ALL: [Stage; 6] = [
        Stage::Queue,
        Stage::Decide,
        Stage::Simplify,
        Stage::Exec,
        Stage::Completion,
        Stage::Write,
    ];

    /// The `stage` label value this stage records under.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Decide => "decide",
            Stage::Simplify => "simplify",
            Stage::Exec => "exec",
            Stage::Completion => "completion",
            Stage::Write => "write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A slow job retained in the exemplar store: its full lifecycle event
/// (timestamps → stage attribution) plus the decision record in force
/// when it completed (`None` when the job failed before a ranking ever
/// ran, e.g. quarantined at admission).
#[derive(Debug, Clone)]
pub struct SlowJob {
    /// The job's lifecycle trace event.
    pub event: TraceEvent,
    /// Decision provenance at completion time.
    pub record: Option<Arc<DecisionRecord>>,
}

/// Shared measurement state: the registry, the trace ring, and the
/// epoch all trace timestamps count from.
#[derive(Debug)]
pub struct RuntimeTelemetry {
    registry: Registry,
    trace: TraceRing,
    epoch: Instant,
    queue_wait: PerScheme,
    decide: PerScheme,
    exec: PerScheme,
    stages: [Arc<LogHistogram>; 6],
    decisions: Mutex<HashMap<u64, Arc<DecisionRecord>>>,
    exemplars: ExemplarStore<SlowJob>,
    eviction_counter: Arc<AtomicU64>,
}

impl Default for RuntimeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeTelemetry {
    /// Capacity of the lifecycle trace ring (most recent jobs kept).
    pub const TRACE_CAPACITY: usize = 4096;

    /// Slowest exemplars retained per job class.
    pub const EXEMPLARS_PER_CLASS: usize = 4;

    /// Job classes the exemplar store tracks at most.
    pub const EXEMPLAR_CLASSES: usize = 64;

    /// Decision-record ledger bound (classes beyond this evict an
    /// arbitrary older class — far above any realistic class count).
    const DECISION_CLASSES: usize = 1024;

    /// A fresh bundle with all per-scheme series registered.
    pub fn new() -> Self {
        let registry = Registry::new();
        let per_scheme = |name: &'static str| -> PerScheme {
            SCHEMES.map(|s| registry.histogram(name, "scheme", s.abbrev()))
        };
        RuntimeTelemetry {
            queue_wait: per_scheme(QUEUE_WAIT_NS),
            decide: per_scheme(DECIDE_NS),
            exec: per_scheme(EXEC_NS),
            stages: Stage::ALL.map(|s| registry.histogram(STAGE_NS, "stage", s.label())),
            decisions: Mutex::new(HashMap::new()),
            exemplars: ExemplarStore::new(Self::EXEMPLARS_PER_CLASS, Self::EXEMPLAR_CLASSES),
            eviction_counter: registry.counter(EXEMPLAR_EVICTIONS, "store", "slowlog"),
            trace: TraceRing::new(Self::TRACE_CAPACITY),
            epoch: Instant::now(),
            registry,
        }
    }

    /// The underlying registry — the server adds its per-connection
    /// series here so one exposition covers the whole process.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The job-lifecycle trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Nanoseconds since this bundle's epoch — the clock every
    /// [`TraceEvent`] timestamp is on.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// [`now_ns`](Self::now_ns) for an instant captured earlier
    /// (saturating to 0 for instants before the epoch).
    pub fn instant_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one queue-wait sample for a job decided to `scheme`.
    pub fn record_queue_wait(&self, scheme: Scheme, ns: u64) {
        self.queue_wait[scheme_index(scheme)].record(ns);
    }

    /// Record one batch's scheme-decision latency.
    pub fn record_decide(&self, scheme: Scheme, ns: u64) {
        self.decide[scheme_index(scheme)].record(ns);
    }

    /// Record one execution's backend-reported cost, per scheme and —
    /// when the functioning domain is known — per domain class.
    pub fn record_exec(&self, scheme: Scheme, domain_label: Option<&str>, ns: u64) {
        self.exec[scheme_index(scheme)].record(ns);
        if let Some(label) = domain_label {
            self.registry.record(EXEC_CLASS_NS, "domain", label, ns);
        }
    }

    /// Record one backend invocation under its name (`"software"`,
    /// `"simd"`, `"pclr"`): wall time, plus the simulated cycle count
    /// when the hardware backend ran it.
    pub fn record_backend(&self, backend: &'static str, wall_ns: u64, sim_cycles: Option<u64>) {
        self.registry
            .record(BACKEND_WALL_NS, "backend", backend, wall_ns);
        if let Some(cycles) = sim_cycles {
            self.registry
                .record(BACKEND_SIM_CYCLES, "backend", backend, cycles);
        }
    }

    /// Record one calibrator sample's relative prediction error
    /// (parts per million), per scheme.
    pub fn record_predict_err_ppm(&self, scheme: Scheme, ppm: u64) {
        self.registry
            .record(PREDICT_ERR_PPM, "scheme", scheme.abbrev(), ppm);
    }

    /// Record one simplified (rewritten-plan) execution under its
    /// recognized shape label.
    pub fn record_simplify(&self, shape: &'static str, ns: u64) {
        self.registry.record(SIMPLIFY_NS, "shape", shape, ns);
    }

    /// Push one lifecycle event onto the trace ring.
    pub fn trace_event(&self, event: &TraceEvent) {
        self.trace.push(event);
    }

    /// Record one sample into a stage-attribution series.
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record(ns);
    }

    /// Record a job's full lifecycle: push the trace event, attribute
    /// its latency across the stage series and its queue wait to the
    /// scheme it ran (executed jobs only — a job rejected before decision
    /// has no stages to attribute), and offer it to the slow-job exemplar
    /// store under its class.
    pub fn record_lifecycle(&self, event: &TraceEvent, record: Option<Arc<DecisionRecord>>) {
        self.trace.push(event);
        if event.executed_ns > 0 {
            self.record_stage(Stage::Queue, event.stage_queue());
            if let Some(scheme) = scheme_from_code(event.scheme) {
                self.record_queue_wait(scheme, event.stage_queue());
            }
            self.record_stage(Stage::Decide, event.stage_decide());
            if event.simplify_ns > 0 {
                self.record_stage(Stage::Simplify, event.stage_simplify());
            }
            self.record_stage(Stage::Exec, event.stage_exec());
            self.record_stage(Stage::Completion, event.stage_completion());
        }
        let event = *event;
        self.exemplars
            .offer(event.signature, event.end_to_end(), || SlowJob {
                event,
                record,
            });
        self.eviction_counter
            .store(self.exemplars.evictions(), Ordering::Relaxed);
    }

    /// Publish a class's latest decision record (stamped with
    /// `signature`), counting a decision flip — and bumping the
    /// [`DECISION_FLIPS`] counter — when the winner changed from the
    /// class's previous record.  Returns the stored record; a published
    /// record is never changed in place.
    pub fn record_decision(
        &self,
        signature: u64,
        mut record: DecisionRecord,
    ) -> Arc<DecisionRecord> {
        record.signature = signature;
        let mut map = self.decisions.lock().unwrap();
        if let Some(prev) = map.get(&signature) {
            record.flips = prev.flips;
            if prev.winner != record.winner {
                record.flips += 1;
                self.registry
                    .add(DECISION_FLIPS, "scheme", record.winner.abbrev(), 1);
            }
        } else if map.len() >= Self::DECISION_CLASSES {
            if let Some(&k) = map.keys().next() {
                map.remove(&k);
            }
        }
        let stored = Arc::new(record);
        map.insert(signature, stored.clone());
        stored
    }

    /// The latest decision record for a class, if one was ever ranked.
    pub fn decision(&self, signature: u64) -> Option<Arc<DecisionRecord>> {
        self.decisions.lock().unwrap().get(&signature).cloned()
    }

    /// The `n` slowest retained jobs across all classes, slowest first.
    pub fn slowlog(&self, n: usize) -> Vec<Exemplar<SlowJob>> {
        self.exemplars.top(n)
    }

    /// The slow-job exemplar store (bounds, floors, eviction count).
    pub fn exemplars(&self) -> &ExemplarStore<SlowJob> {
        &self.exemplars
    }
}

/// The `d{dim}r{reuse}s{sparsity}m{mo}` label a functioning domain
/// records under (the label scheme `docs/OBSERVABILITY.md` documents).
pub fn domain_label(domain: &smartapps_core::toolbox::DomainKey) -> String {
    format!(
        "d{}r{}s{}m{}",
        domain.dim_bucket, domain.reuse_bucket, domain.sparsity_decile, domain.mo
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_core::toolbox::DomainKey;

    #[test]
    fn scheme_codes_round_trip() {
        for s in SCHEMES {
            assert_eq!(scheme_from_code(scheme_code(s)), Some(s));
        }
        assert_eq!(scheme_from_code(u8::MAX), None);
    }

    #[test]
    fn per_scheme_recording_lands_in_the_registry() {
        let t = RuntimeTelemetry::new();
        t.record_exec(Scheme::Hash, Some("d4r1s10m2"), 1500);
        t.record_queue_wait(Scheme::Hash, 80);
        t.record_decide(Scheme::Hash, 40);
        t.record_backend("software", 1500, None);
        t.record_backend("pclr", 900, Some(120));
        t.record_backend("simd", 700, None);
        t.record_simplify("window", 420);
        let text = t.registry().render_prometheus();
        assert!(text.contains("smartapps_simplify_ns_count{shape=\"window\"} 1"));
        assert!(text.contains("smartapps_exec_ns_count{scheme=\"hash\"} 1"));
        assert!(text.contains("smartapps_exec_class_ns_count{domain=\"d4r1s10m2\"} 1"));
        assert!(text.contains("smartapps_backend_wall_ns_count{backend=\"software\"} 1"));
        assert!(text.contains("smartapps_backend_sim_cycles_count{backend=\"pclr\"} 1"));
        assert!(text.contains("smartapps_backend_wall_ns_count{backend=\"simd\"} 1"));
        assert!(!text.contains("smartapps_backend_sim_cycles_count{backend=\"simd\"}"));
    }

    #[test]
    fn domain_label_matches_the_documented_scheme() {
        let d = DomainKey {
            dim_bucket: 12,
            reuse_bucket: 4,
            sparsity_decile: 10,
            mo: 2,
        };
        assert_eq!(domain_label(&d), "d12r4s10m2");
    }

    fn lifecycle_event(sig: u64, total_ns: u64) -> smartapps_telemetry::TraceEvent {
        smartapps_telemetry::TraceEvent {
            signature: sig,
            submitted_ns: 1000,
            queued_ns: 1100,
            decided_ns: 1200,
            executed_ns: 1000 + total_ns - 50,
            completed_ns: 1000 + total_ns,
            scheme: scheme_code(Scheme::Hash),
            backend: smartapps_telemetry::TraceBackend::Software,
            error: smartapps_telemetry::TraceError::None,
            fused: 1,
            simplify_ns: 20,
        }
    }

    #[test]
    fn lifecycle_recording_attributes_stages_and_retains_exemplars() {
        let t = RuntimeTelemetry::new();
        t.record_lifecycle(&lifecycle_event(7, 10_000), None);
        t.record_lifecycle(&lifecycle_event(7, 90_000), None);
        let text = t.registry().render_prometheus();
        for stage in ["queue", "decide", "simplify", "exec", "completion"] {
            assert!(
                text.contains(&format!("smartapps_stage_ns_count{{stage=\"{stage}\"}} 2")),
                "missing stage {stage}: {text}"
            );
        }
        let slow = t.slowlog(10);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].latency_ns, 90_000);
        assert_eq!(slow[0].payload.event.signature, 7);
        // Stage sums equal end-to-end for a fully-stamped event.
        let e = &slow[0].payload.event;
        assert_eq!(
            e.stage_queue()
                + e.stage_decide()
                + e.stage_simplify()
                + e.stage_exec()
                + e.stage_completion(),
            e.end_to_end()
        );
    }

    #[test]
    fn unexecuted_jobs_skip_stage_attribution() {
        let t = RuntimeTelemetry::new();
        let mut e = lifecycle_event(9, 5_000);
        e.decided_ns = 0;
        e.executed_ns = 0;
        e.simplify_ns = 0;
        t.record_lifecycle(&e, None);
        let text = t.registry().render_prometheus();
        assert!(!text.contains("smartapps_stage_ns"));
        // But the failure still lands in the ring and the slowlog.
        assert_eq!(t.trace().recorded(), 1);
        assert_eq!(t.slowlog(1).len(), 1);
    }

    #[test]
    fn decision_ledger_counts_flips_and_serves_the_latest_record() {
        use smartapps_core::Calibrator;
        use smartapps_reductions::ModelInput;
        use smartapps_workloads::{Distribution, PatternChars, PatternSpec};

        let t = RuntimeTelemetry::new();
        let cal = Calibrator::default();
        let pat = PatternSpec {
            num_elements: 1024,
            iterations: 5_000,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed: 1,
        }
        .generate();
        let chars = PatternChars::measure(&pat);
        let d = DomainKey::of(&chars);
        let input = ModelInput {
            conflicting: ModelInput::estimate_conflicts(&chars, 2),
            replication: ModelInput::estimate_replication(&chars, 2),
            chars,
            threads: 2,
            lw_feasible: false,
            fanout: 1,
            pclr_available: false,
            simd_available: false,
        };
        let rec = cal.explain(&input, d);
        let stored = t.record_decision(42, rec.clone());
        assert_eq!(stored.signature, 42);
        assert_eq!(stored.flips, 0);
        assert_eq!(t.decision(42).unwrap().winner, stored.winner);
        // Same winner again: no flip.
        t.record_decision(42, rec.clone());
        assert_eq!(t.decision(42).unwrap().flips, 0);
        // Forced different winner: one flip, counter visible.
        let mut flipped = rec.clone();
        flipped.winner = if rec.winner == Scheme::Rep {
            Scheme::Hash
        } else {
            Scheme::Rep
        };
        t.record_decision(42, flipped);
        assert_eq!(t.decision(42).unwrap().flips, 1);
        assert!(t
            .registry()
            .render_prometheus()
            .contains("smartapps_decision_flips"));
        assert!(t.decision(999).is_none());
    }
}

//! The long-lived reduction service: configuration, submission API, and
//! the state shared between queue, pool, profile store, and dispatchers.
//!
//! N dispatcher threads own scheme decisions, each for its own subset of
//! signature shards (the `queue` module documents the affinity and
//! stealing protocol) and each running the batch pipeline of the
//! `dispatch` module: pop a coalesced batch, consult the [`ProfileStore`]
//! (hit → no inspection) or pay one inspector pass and ask the decision
//! model, execute on the persistent [`WorkerPool`], fold the measurements
//! back into the store.  Several jobs of a batch reducing over the *same*
//! pattern run as one **fused sweep** — one traversal producing every
//! output (see `smartapps_reductions::fused`) — instead of merely sharing
//! the decision.  The worker pool does the heavy lifting; each dispatcher
//! participates as `tid 0` of its own SPMD regions, so no core idles
//! while it "waits".

use crate::backend::{PclrBackend, PclrConfig, SimdBackend, SoftwareBackend};
use crate::completion::{Completion, CompletionSet, CompletionSink};
use crate::dispatch::{dispatcher_loop, finish, Exit};
use crate::error::JobError;
use crate::intern::PatternInterner;
use crate::job::{JobHandle, JobResult, JobSpec, JobState, PatternSignature};
use crate::pool::WorkerPool;
use crate::profile::ProfileStore;
use crate::queue::{QueuedJob, ShardedQueue};
use crate::stats::{RuntimeStats, StatsSnapshot};
use crate::telemetry::{RuntimeTelemetry, SlowJob};
use smartapps_core::adaptive::AdaptiveReduction;
use smartapps_core::calibrate::Calibrator;
use smartapps_core::toolbox::DomainKey;
use smartapps_core::DecisionRecord;
use smartapps_reductions::{simd_feasible, DecisionModel, ModelInput, Scheme, SpmdExecutor};
use smartapps_telemetry::Exemplar;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Widest SPMD region a job may request (the inspector's supported limit);
/// `JobSpec::with_threads` beyond this is clamped at submission.
const MAX_SPMD_THREADS: usize = 250;

/// Cap on the per-signature cycle-pairing table (software wall time vs
/// simulated cycles for classes seen on both backends); the table resets
/// when it fills — pairing is opportunistic, not an index.
const MAX_CYCLE_PAIRS: usize = 1024;

/// Knobs of the online calibration loop (`docs/MODEL.md`).
///
/// The loop itself is always on: every clean execution with a known
/// characterization feeds a predicted-vs-measured cost sample to the
/// [`Calibrator`], and corrections steer every model decision.  The two
/// knobs here control *active sampling*, which trades a bounded fraction
/// of measured throughput for faster convergence — both default to off,
/// leaving decision behavior identical to an uncalibrated service until
/// real traffic diversity (or a persisted `corr` state) provides the
/// cross-scheme samples corrections need.
#[derive(Debug, Clone, Default)]
pub struct CalibrationConfig {
    /// Every `explore_every`-th dispatch batch executes the best-ranked
    /// scheme that still *lacks confident class-level calibration*
    /// (instead of the scheme that would otherwise run), so schemes the
    /// model mis-ranks get measured at all — without cross-scheme
    /// samples a single-regime workload can never learn that its chosen
    /// scheme is mispredicted.  Exploration self-terminates: once every
    /// feasible scheme in a domain is confidently calibrated, the slot
    /// runs normally.  Explored executions feed the calibrator but not
    /// the profile store.  `0` disables exploration.
    pub explore_every: usize,
    /// Every `recheck_every` recorded runs of a profile entry, the next
    /// hit re-ranks the class under the corrected model; if a
    /// measured-confident scheme now beats the stored one by the recheck
    /// margin, the entry is evicted and the class re-decides — the
    /// paper's "Redecide" adaptation, driven by calibration instead of
    /// drift.  Per-entry cadence, so interleaved classes recheck
    /// independently.  `0` disables rechecks (profile entries then
    /// change only through drift eviction).
    pub recheck_every: usize,
    /// Every `probe_fused_every`-th fusable group that the fusion gate
    /// *declines* runs as a fused sweep anyway, gathering the fused-side
    /// measurement the gate needs before it can trust fusion for schemes
    /// outside the analytically validated `hash` regime.  `0` disables
    /// probing.
    pub probe_fused_every: usize,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// SPMD width of the worker pool (workers + dispatcher).
    pub workers: usize,
    /// Number of job-queue shards.
    pub shards: usize,
    /// Number of shard-affine dispatcher threads.  Each owns `shards /
    /// dispatchers` queue shards and steals from overloaded peers when its
    /// own drain; `1` reproduces the original single-consumer service.
    /// Clamped to `[1, shards]` at startup.
    pub dispatchers: usize,
    /// Maximum jobs coalesced into one dispatch batch.
    pub max_batch: usize,
    /// Maximum jobs executed as one fused sweep (one traversal, K
    /// outputs).  `1` disables fusion; the privatizing schemes allocate
    /// K-fold private storage, so this also bounds memory.
    pub max_fuse: usize,
    /// Iterations sampled when computing pattern signatures.
    pub sample_iters: usize,
    /// Profile store location: loaded (if present) at startup, saved at
    /// shutdown.  `None` keeps profiles in memory only.
    pub profile_path: Option<PathBuf>,
    /// PCLR hardware offload: `Some` routes jobs decided for
    /// [`Scheme::Pclr`] to the simulated machine backend and lets the
    /// hardware scheme compete in decisions; `None` (the default) keeps
    /// the service software-only.
    pub pclr: Option<PclrConfig>,
    /// Vectorized SIMD tree-reduction backend: `true` (the default) lets
    /// [`Scheme::Simd`] compete in decisions for dense/privatizing
    /// classes (feasibility-masked exactly like an infeasible `lw`) and
    /// routes jobs decided for it to the lane-striped kernel; `false`
    /// keeps the service scalar-only — persisted `simd` profile entries
    /// then re-decide and are evicted like dead hardware entries.
    pub simd: bool,
    /// Decision model consulted when no profile entry covers a class.
    /// The default calibration matches this crate's kernels; services on
    /// unusual hardware (or tests pinning a decision) substitute their
    /// own [`ModelParams`](smartapps_reductions::ModelParams).  At run
    /// time the model is only the *prior*: the [`Calibrator`] corrects
    /// it with measured cost samples, and the corrections persist through
    /// the profile store.
    pub model: DecisionModel,
    /// Active-sampling knobs of the online calibration loop (both off by
    /// default; the passive loop always runs).
    pub calibration: CalibrationConfig,
    /// Poisoned-class quarantine: after this many *consecutive* panicking
    /// bodies in one workload class ([`PatternSignature`]), further jobs
    /// of the class fail fast with
    /// [`JobErrorKind::Quarantined`](crate::JobErrorKind::Quarantined)
    /// instead of burning a worker sweep each time.  The quarantine lifts
    /// on [`Runtime::unquarantine`] or after
    /// [`quarantine_ttl`](RuntimeConfig::quarantine_ttl); a clean
    /// execution resets the consecutive count.  `0` (the default)
    /// disables quarantining.
    pub quarantine_after: usize,
    /// How long a quarantined class stays blocked before it is given a
    /// fresh chance (ignored while `quarantine_after == 0`).
    pub quarantine_ttl: Duration,
    /// Bound on distinct uploaded patterns the service's
    /// [`PatternInterner`] holds (CSR upload, `docs/SERVER.md`); uploads
    /// past the bound are refused, re-uploads of interned content are
    /// free.
    pub pattern_intern_capacity: usize,
    /// Reduction simplification pass (`true`, the default): jobs that
    /// declare an iteration-uniform body
    /// ([`JobSpec::with_uniform_body`]) and whose pattern the recognizer
    /// matches as a prefix/suffix scan or overlapping-window family are
    /// rewritten to a difference-array plan — O(I + N) work instead of
    /// O(R) — *before* the decision model schedules them (see
    /// `docs/MODEL.md`, "Simplification pass").  Non-matching,
    /// unprofitable, or refuted-declaration jobs pass through to the
    /// normal scheme pipeline untouched.  `false` disables the pass
    /// entirely (every job runs unsimplified).
    pub simplify: bool,
}

/// Dispatcher count matched to a pool width: one dispatcher per four
/// workers, capped at four.
fn dispatchers_for(workers: usize) -> usize {
    (workers / 4).clamp(1, 4)
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16);
        RuntimeConfig {
            workers,
            shards: 16,
            dispatchers: dispatchers_for(workers),
            max_batch: 32,
            max_fuse: 8,
            sample_iters: 2048,
            profile_path: None,
            pclr: None,
            simd: true,
            model: DecisionModel::default(),
            calibration: CalibrationConfig::default(),
            quarantine_after: 0,
            quarantine_ttl: Duration::from_secs(30),
            pattern_intern_capacity: 1024,
            simplify: true,
        }
    }
}

/// Everything the submission API and the dispatcher threads share.
pub(crate) struct Shared {
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) queue: ShardedQueue,
    profile: Mutex<ProfileStore>,
    pub(crate) stats: RuntimeStats,
    calibrator: Mutex<Calibrator>,
    pub(crate) software: SoftwareBackend,
    pub(crate) simd: Option<SimdBackend>,
    pub(crate) pclr: Option<PclrBackend>,
    pub(crate) max_batch: usize,
    pub(crate) max_fuse: usize,
    sample_iters: usize,
    profile_path: Option<PathBuf>,
    pub(crate) explore_every: usize,
    pub(crate) recheck_every: usize,
    pub(crate) probe_fused_every: usize,
    /// Dispatch batches seen (drives the deterministic exploration cadence).
    pub(crate) explore_ticks: AtomicU64,
    /// Fusable groups the gate declined (drives the fused-probe cadence).
    pub(crate) declined_fuses: AtomicU64,
    /// Per-signature (software wall-ns/ref, simulated cycles/ref) halves;
    /// a completed pair yields one cycle→ns fitting sample.
    cycle_pairs: Mutex<HashMap<u64, CyclePair>>,
    /// Consecutive-panic threshold of the poisoned-class quarantine
    /// (`0` disables it) and how long a quarantined class stays blocked.
    quarantine_after: usize,
    quarantine_ttl: Duration,
    /// Per-signature panic-health ledger (only touched while
    /// `quarantine_after > 0`).
    quarantine: Mutex<HashMap<u64, ClassHealth>>,
    /// Latency histograms + job-lifecycle trace ring (see the
    /// [`telemetry`](crate::telemetry) module).
    pub(crate) telemetry: RuntimeTelemetry,
    /// Uploaded-pattern registry (CSR upload handles, see
    /// [`intern`](crate::intern)).
    interner: PatternInterner,
    /// Whether the pre-scheduling simplification pass runs
    /// ([`RuntimeConfig::simplify`]).
    pub(crate) simplify: bool,
}

/// Panic health of one workload class: how many of its most recent bodies
/// panicked back-to-back, and — once that crossed the threshold — until
/// when the class fails fast.
#[derive(Debug, Clone, Copy)]
struct ClassHealth {
    consecutive_panics: usize,
    blocked_until: Option<Instant>,
}

/// The two halves of one cycle-fitting observation for a workload class:
/// wall nanoseconds per reference measured on the software backend, and
/// simulated cycles per reference measured on the PCLR backend.
type CyclePair = (Option<f64>, Option<f64>);

impl Shared {
    /// Whether the PCLR backend exists and admits a job over `pat`.
    pub(crate) fn pclr_admits(&self, pat: &smartapps_workloads::AccessPattern) -> bool {
        self.pclr.as_ref().is_some_and(|b| b.admits(pat))
    }

    /// Whether the SIMD backend exists and the class's measured
    /// characteristics admit the lane-striped kernel (dense/privatizing
    /// regime — see [`simd_feasible`]).
    pub(crate) fn simd_admits(&self, chars: &smartapps_workloads::PatternChars) -> bool {
        self.simd.is_some() && simd_feasible(chars)
    }

    /// Lock the profile store.  Poison-tolerant: every store update
    /// leaves it valid, so a panic elsewhere under the lock loses nothing.
    pub(crate) fn profile(&self) -> MutexGuard<'_, ProfileStore> {
        self.profile.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Lock the calibrator (poison-tolerant like the profile store).
    pub(crate) fn calibrator(&self) -> MutexGuard<'_, Calibrator> {
        self.calibrator.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Feed one clean execution's predicted-vs-measured sample into the
    /// calibrator and the calibration counters, under a single calibrator
    /// lock.  `predicted_units` is the raw analytic cost — computed here
    /// from `input` when the caller does not already hold one (the
    /// per-job path), so the hot path locks once, not twice.
    pub(crate) fn learn(
        &self,
        scheme: Scheme,
        domain: DomainKey,
        fused: bool,
        predicted_units: Option<f64>,
        input: &ModelInput,
        measured: Duration,
    ) {
        let err = {
            let mut cal = self.calibrator();
            let raw = predicted_units.unwrap_or_else(|| cal.model.predict(scheme, input));
            cal.observe(scheme, domain, fused, raw, measured.as_nanos() as f64)
        };
        if let Some(err) = err {
            let ppm = (err * 1e6).min(u64::MAX as f64) as u64;
            RuntimeStats::add(&self.stats.calibration_updates, 1);
            RuntimeStats::add(&self.stats.pred_err_sum_micros, ppm);
            // The counters keep the mean; the histogram keeps the
            // *distribution* of per-sample prediction error.
            self.telemetry.record_predict_err_ppm(scheme, ppm);
        }
    }

    /// Record one backend observation for the cycle→ns fit: the software
    /// half (wall ns per reference) or the simulated half (cycles per
    /// reference).  When a signature has both halves, their ratio is one
    /// fitting sample for the PCLR backend's conversion.
    pub(crate) fn pair_cycle_sample(
        &self,
        sig: PatternSignature,
        refs: usize,
        ns: f64,
        cycles: Option<u64>,
    ) {
        let Some(pclr) = &self.pclr else { return };
        if refs == 0 {
            return;
        }
        let mut pairs = self.cycle_pairs.lock().unwrap_or_else(|p| p.into_inner());
        if pairs.len() >= MAX_CYCLE_PAIRS && !pairs.contains_key(&sig.0) {
            pairs.clear();
        }
        let entry = pairs.entry(sig.0).or_insert((None, None));
        match cycles {
            Some(c) => entry.1 = Some(c as f64 / refs as f64),
            None => entry.0 = Some(ns / refs as f64),
        }
        if let (Some(wall_ns_per_ref), Some(cycles_per_ref)) = *entry {
            if cycles_per_ref > 0.0 {
                pclr.fit_cycle_ns(wall_ns_per_ref / cycles_per_ref);
            }
        }
    }

    fn quarantine_map(&self) -> MutexGuard<'_, HashMap<u64, ClassHealth>> {
        self.quarantine.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether `sig` is currently quarantined; `Some(count)` carries the
    /// consecutive-panic count for the error message.  An expired TTL
    /// clears the ledger entirely — the class restarts with a clean
    /// record and gets `quarantine_after` fresh chances.
    pub(crate) fn quarantine_blocked(&self, sig: PatternSignature) -> Option<usize> {
        if self.quarantine_after == 0 {
            return None;
        }
        let mut map = self.quarantine_map();
        let health = map.get(&sig.0)?;
        match health.blocked_until {
            Some(until) if Instant::now() < until => Some(health.consecutive_panics),
            Some(_) => {
                map.remove(&sig.0);
                None
            }
            None => None,
        }
    }

    /// Record one panicking body of class `sig`; crossing the threshold
    /// starts the quarantine clock.
    pub(crate) fn note_panic(&self, sig: PatternSignature) {
        if self.quarantine_after == 0 {
            return;
        }
        let mut map = self.quarantine_map();
        let health = map.entry(sig.0).or_insert(ClassHealth {
            consecutive_panics: 0,
            blocked_until: None,
        });
        health.consecutive_panics += 1;
        if health.consecutive_panics >= self.quarantine_after && health.blocked_until.is_none() {
            health.blocked_until = Some(Instant::now() + self.quarantine_ttl);
        }
    }

    /// A clean execution of class `sig` resets its panic streak.
    pub(crate) fn note_clean(&self, sig: PatternSignature) {
        if self.quarantine_after == 0 {
            return;
        }
        self.quarantine_map().remove(&sig.0);
    }
}

/// The persistent reduction service.
///
/// Dropping (or [`shutdown`](Runtime::shutdown)-ing) the runtime closes
/// the queue, drains every pending job, persists the profile store (when
/// configured), and joins every dispatcher and all pool workers.
pub struct Runtime {
    shared: Arc<Shared>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Start a service with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let profile = match &config.profile_path {
            Some(p) if p.exists() => ProfileStore::load(p).unwrap_or_default(),
            _ => ProfileStore::new(),
        };
        let shards = config.shards.max(1);
        let n_dispatchers = config.dispatchers.clamp(1, shards);
        let pool = Arc::new(WorkerPool::new(config.workers));
        // The calibrator starts from the analytic model and inherits any
        // corrections a previous process persisted with the profiles.
        let mut calibrator = Calibrator::new(config.model);
        for (level, corr) in profile.calibration() {
            calibrator.seed(level, corr);
        }
        let pclr = config.pclr.map(PclrBackend::new);
        if let (Some(pclr), Some(fit)) = (&pclr, profile.cycle_fit()) {
            pclr.seed_cycle_fit(fit);
        }
        let shared = Arc::new(Shared {
            queue: ShardedQueue::new(shards, n_dispatchers),
            profile: Mutex::new(profile),
            stats: RuntimeStats::default(),
            calibrator: Mutex::new(calibrator),
            software: SoftwareBackend::new(pool.clone()),
            simd: config.simd.then(|| SimdBackend::new(pool.clone())),
            pclr,
            pool,
            max_batch: config.max_batch.max(1),
            max_fuse: config.max_fuse.max(1),
            sample_iters: config.sample_iters.max(1),
            profile_path: config.profile_path,
            explore_every: config.calibration.explore_every,
            recheck_every: config.calibration.recheck_every,
            probe_fused_every: config.calibration.probe_fused_every,
            explore_ticks: AtomicU64::new(0),
            declined_fuses: AtomicU64::new(0),
            cycle_pairs: Mutex::new(HashMap::new()),
            quarantine_after: config.quarantine_after,
            quarantine_ttl: config.quarantine_ttl,
            quarantine: Mutex::new(HashMap::new()),
            telemetry: RuntimeTelemetry::new(),
            interner: PatternInterner::new(config.pattern_intern_capacity),
            simplify: config.simplify,
        });
        let dispatchers = (0..n_dispatchers)
            .map(|d| {
                let for_dispatcher = shared.clone();
                std::thread::Builder::new()
                    .name(format!("smartapps-dispatcher-{d}"))
                    .spawn(move || dispatcher_loop(&for_dispatcher, d))
                    .expect("spawn dispatcher")
            })
            .collect();
        Runtime {
            shared,
            dispatchers,
        }
    }

    /// Start a service with `workers` SPMD width and defaults otherwise
    /// (dispatcher count scaled to the width).
    pub fn with_workers(workers: usize) -> Self {
        Runtime::new(RuntimeConfig {
            workers,
            dispatchers: dispatchers_for(workers),
            ..RuntimeConfig::default()
        })
    }

    /// The pool's SPMD width.
    pub fn width(&self) -> usize {
        self.shared.pool.width()
    }

    /// The number of dispatcher threads serving the queue.
    pub fn dispatcher_count(&self) -> usize {
        self.dispatchers.len()
    }

    /// Submit one job; returns immediately with a blocking handle.
    ///
    /// Structurally invalid jobs (a malformed [`AccessPattern`]) are
    /// rejected up front: the handle completes immediately with a
    /// [`JobErrorKind::Rejected`](crate::JobErrorKind::Rejected) error and
    /// nothing reaches the queue.  Submissions racing a shutdown complete
    /// with [`JobErrorKind::Shutdown`](crate::JobErrorKind::Shutdown)
    /// instead of executing.
    ///
    /// [`AccessPattern`]: smartapps_workloads::AccessPattern
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let state = JobState::new();
        let signature = self.submit_sink(spec, CompletionSink::Handle(state.clone()));
        JobHandle { state, signature }
    }

    /// Submit many jobs at once; the queue coalesces same-signature jobs
    /// into shared dispatch batches, and same-pattern members of a batch
    /// execute as one fused sweep.
    pub fn submit_batch(&self, specs: Vec<JobSpec>) -> Vec<JobHandle> {
        specs.into_iter().map(|s| self.submit(s)).collect()
    }

    /// Submit one job tagged with a caller-chosen `token`, routing its
    /// completion onto `set` instead of a per-job handle — the
    /// completion-multiplexing path (see
    /// [`completion`](crate::completion)): one consumer thread drains
    /// thousands of in-flight jobs through
    /// [`CompletionSet::poll`]/[`wait_any`](CompletionSet::wait_any)
    /// instead of parking a thread per job.
    ///
    /// Every submission — including ones rejected before queueing or
    /// racing a shutdown — produces **exactly one** [`Completion`] on the
    /// set, carrying the same [`JobResult`] (fused, offloaded,
    /// quarantined, or failed) a [`JobHandle`] would have seen.  Returns
    /// the signature the job was queued under.
    pub fn submit_tagged(
        &self,
        spec: JobSpec,
        token: u64,
        set: &CompletionSet,
    ) -> PatternSignature {
        let queue = set.queue();
        queue.register();
        self.submit_sink(spec, CompletionSink::Queue { token, queue })
    }

    /// [`submit_tagged`](Runtime::submit_tagged) for a whole batch:
    /// same-signature members coalesce into shared dispatch batches (and
    /// same-pattern members into fused sweeps) exactly like
    /// [`submit_batch`](Runtime::submit_batch).
    pub fn submit_batch_tagged(
        &self,
        specs: Vec<(u64, JobSpec)>,
        set: &CompletionSet,
    ) -> Vec<PatternSignature> {
        specs
            .into_iter()
            .map(|(token, spec)| self.submit_tagged(spec, token, set))
            .collect()
    }

    /// Submit one job with a push-style completion callback instead of a
    /// handle or a queue: `on_complete` is invoked exactly once with the
    /// finished [`Completion`] — **on the completing thread** (a
    /// dispatcher, or the submitting thread itself for submissions
    /// rejected up front), so it must be short and non-blocking; a slow
    /// callback stalls a dispatcher.
    pub fn submit_callback(
        &self,
        spec: JobSpec,
        token: u64,
        on_complete: impl Fn(Completion) + Send + Sync + 'static,
    ) -> PatternSignature {
        self.submit_sink(
            spec,
            CompletionSink::Callback {
                token,
                f: Arc::new(on_complete),
            },
        )
    }

    /// The shared submission path: validate, sign, queue — or complete
    /// the sink immediately with the rejection/shutdown error.  Every
    /// sink is completed exactly once, here or by a dispatcher.
    fn submit_sink(&self, mut spec: JobSpec, sink: CompletionSink) -> PatternSignature {
        let threads = spec
            .threads
            .unwrap_or(self.width())
            .clamp(1, MAX_SPMD_THREADS);
        spec.threads = Some(threads);
        RuntimeStats::add(&self.shared.stats.submitted, 1);
        if let Err(e) = spec.pattern.validate() {
            let error = JobError::rejected(format!("invalid access pattern: {e}"));
            let sig = PatternSignature(0);
            finish(
                &self.shared,
                sig,
                sink,
                Exit::failed(&spec.body, error),
                None,
            );
            return sig;
        }
        let sig = PatternSignature::of(&spec.pattern, self.shared.sample_iters, threads);
        if let Err(job) = self.shared.queue.push(QueuedJob {
            spec,
            sig,
            sink,
            submitted_at: Instant::now(),
        }) {
            let exit = Exit::failed(&job.spec.body, JobError::shutdown());
            finish(&self.shared, sig, job.sink, exit, None);
        }
        sig
    }

    /// Submit and block for the result.
    pub fn run(&self, spec: JobSpec) -> JobResult {
        self.submit(spec).wait()
    }

    /// A shareable handle to the persistent worker pool, for callers that
    /// drive `run_scheme_on`/[`AdaptiveReduction`] directly.
    pub fn executor(&self) -> Arc<dyn SpmdExecutor> {
        self.shared.pool.clone()
    }

    /// An adaptive feedback-loop executor (inspect → decide → execute →
    /// monitor → adapt) whose scheme executions run on this runtime's
    /// worker pool instead of spawning threads per invocation, and whose
    /// first decision per functioning domain consults the profile store —
    /// so schemes learned by a previous process (persisted via
    /// [`persist_adaptive`](Runtime::persist_adaptive)) carry over.
    pub fn adaptive(&self, loop_id: u64, lw_feasible: bool) -> AdaptiveReduction {
        let mut adaptive =
            AdaptiveReduction::with_executor(loop_id, self.width(), lw_feasible, self.executor());
        let shared = self.shared.clone();
        adaptive.set_scheme_prior(move |domain| {
            shared
                .profile()
                .get(PatternSignature::of_domain(loop_id, &domain))
                .map(|e| e.scheme)
                // The adaptive loop executes schemes through the software
                // library; a persisted hardware (pclr) prior falls back to
                // the analytic decision instead of an impossible dispatch.
                .filter(|s| s.is_software())
        });
        adaptive
    }

    /// Fold what an adaptive loop's `PerformanceDb` learned into the
    /// profile store, so it survives restarts alongside service profiles.
    pub fn persist_adaptive(&self, adaptive: &AdaptiveReduction) {
        self.shared.profile().absorb_performance_db(&adaptive.db);
    }

    /// Merge pre-learned profiles into the live store.
    pub fn seed_profile(&self, store: &ProfileStore) {
        self.shared.profile().merge(store);
    }

    /// A copy of the live profile store.
    pub fn profile_snapshot(&self) -> ProfileStore {
        self.shared.profile().clone()
    }

    /// Service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The current correction factor the calibrator applies to `scheme`
    /// in `domain` (`1.0` while uncalibrated) — the live view of the
    /// measure→correct loop the stats counters summarize.
    pub fn correction(&self, scheme: Scheme, domain: DomainKey, fused: bool) -> f64 {
        self.shared.calibrator().correction(scheme, domain, fused)
    }

    /// Lift the quarantine (and forget the panic streak) of workload
    /// class `sig`.  Returns whether any ledger state existed — `true`
    /// also for a class that had panics recorded but was not yet blocked.
    /// The next job of the class executes normally and gets
    /// [`quarantine_after`](RuntimeConfig::quarantine_after) fresh
    /// chances.
    pub fn unquarantine(&self, sig: PatternSignature) -> bool {
        self.shared.quarantine_map().remove(&sig.0).is_some()
    }

    /// Signatures currently blocked by the poisoned-class quarantine.
    /// Expired TTLs are filtered at snapshot time: a class whose TTL
    /// lapsed disappears from this view immediately, even if nothing has
    /// been submitted for it since (the ledger entry itself still clears
    /// lazily on the class's next submission).
    pub fn quarantined_classes(&self) -> Vec<PatternSignature> {
        let now = Instant::now();
        self.shared
            .quarantine_map()
            .iter()
            .filter(|(_, h)| h.blocked_until.is_some_and(|until| until > now))
            .map(|(&sig, _)| PatternSignature(sig))
            .collect()
    }

    /// Signatures currently blocked by the poisoned-class quarantine with
    /// the whole seconds remaining until each TTL expires (0 for a TTL on
    /// the verge of expiry; already-expired entries are skipped).  Sorted
    /// by signature so wire responses built from it are deterministic.
    pub fn quarantined_with_ttl(&self) -> Vec<(PatternSignature, u64)> {
        let now = Instant::now();
        let mut out: Vec<(PatternSignature, u64)> = self
            .shared
            .quarantine_map()
            .iter()
            .filter_map(|(&sig, h)| {
                let until = h.blocked_until?;
                (until > now).then(|| (PatternSignature(sig), until.duration_since(now).as_secs()))
            })
            .collect();
        out.sort_by_key(|(sig, _)| sig.0);
        out
    }

    /// The runtime's telemetry bundle: latency histograms (also carrying
    /// any series the server layers on top) and the job-lifecycle trace
    /// ring.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        &self.shared.telemetry
    }

    /// The latest [`DecisionRecord`] for workload class `sig` — the
    /// uncollapsed "why" behind the class's scheme choice: feature
    /// vector, analytic-vs-corrected candidate cost table, feasibility
    /// masks, and the gate verdicts the dispatcher stamped as the batch
    /// moved through the pipeline.  `None` until a ranking has run for
    /// the class (profile fast-path hits reuse the stored decision
    /// without re-ranking, so the record may be older than the last
    /// job).
    pub fn explain(&self, sig: PatternSignature) -> Option<Arc<DecisionRecord>> {
        self.shared.telemetry.decision(sig.0)
    }

    /// The `n` slowest retained jobs across all workload classes,
    /// slowest first — each carrying its full lifecycle trace event
    /// (stage attribution) and the decision record in force when it
    /// completed (see [`RuntimeTelemetry`]'s exemplar store for the
    /// retention bounds).
    pub fn slowlog(&self, n: usize) -> Vec<Exemplar<SlowJob>> {
        self.shared.telemetry.slowlog(n)
    }

    /// The signature a pattern submitted at the default SPMD width would
    /// be queued under — lets a frontend resolve an uploaded pattern
    /// handle to the same workload-class key [`submit`](Runtime::submit)
    /// uses, e.g. to serve `explain pat:<handle>`.
    pub fn signature_of(&self, pattern: &smartapps_workloads::AccessPattern) -> PatternSignature {
        PatternSignature::of(pattern, self.shared.sample_iters, self.width())
    }

    /// The service's uploaded-pattern registry: intern a CSR structure
    /// once, reference it by handle in later submissions (see
    /// [`intern`](crate::intern)).
    pub fn patterns(&self) -> &PatternInterner {
        &self.shared.interner
    }

    /// The fitted PCLR cycle→nanosecond conversion, when the hardware
    /// backend is enabled: `(value, samples)`; 0 samples means the
    /// configured [`PclrConfig::cycle_ns`] assumption still stands.
    pub fn fitted_cycle_ns(&self) -> Option<(f64, u64)> {
        self.shared.pclr.as_ref().map(|b| {
            let fit = b.fitted_cycle_ns();
            (fit.ns_per_unit, fit.updates)
        })
    }

    /// Stop accepting new submissions without blocking: the queue closes
    /// immediately (racing submissions complete with
    /// [`JobErrorKind::Shutdown`](crate::JobErrorKind::Shutdown)) while
    /// the dispatchers keep draining everything already queued.  The
    /// eventual [`shutdown`](Runtime::shutdown) — or the drop — still
    /// joins the service threads and persists the profile store.
    /// Idempotent, callable from any thread holding `&Runtime`.
    pub fn begin_shutdown(&self) {
        self.shared.queue.close();
    }

    /// Stop accepting jobs, drain everything queued, persist profiles,
    /// and join all service threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // Explicit shutdown() is followed by Drop; the emptied dispatcher
        // list marks the teardown (including the store save) as done.
        if self.dispatchers.is_empty() {
            return;
        }
        self.shared.queue.close();
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
        if let Some(path) = &self.shared.profile_path {
            let mut store = self.shared.profile();
            // Calibration rides along with the profiles: the learned
            // corrections (and the fitted cycle conversion) survive the
            // restart as `corr`/`cyc` records.
            store.set_calibration(self.shared.calibrator().export());
            if let Some(pclr) = &self.shared.pclr {
                let fit = pclr.fitted_cycle_ns();
                if fit.updates > 0 {
                    store.set_cycle_fit(fit);
                }
            }
            if let Err(e) = store.save(path) {
                eprintln!("smartapps-runtime: failed to save profile store: {e}");
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dispatch::DRIFT_MIN_RUNS;
    use crate::error::JobErrorKind;
    use smartapps_core::GateVerdict;
    use smartapps_reductions::Inspector;
    use smartapps_workloads::pattern::{sequential_reduce, sequential_reduce_i64};
    use smartapps_workloads::{contribution, contribution_i64, Distribution, PatternSpec};
    use std::time::Duration;

    pub(crate) fn pattern(seed: u64) -> Arc<smartapps_workloads::AccessPattern> {
        Arc::new(
            PatternSpec {
                num_elements: 1500,
                iterations: 3000,
                refs_per_iter: 2,
                coverage: 0.8,
                dist: Distribution::Uniform,
                seed,
            }
            .generate(),
        )
    }

    #[test]
    fn single_job_matches_oracles() {
        let rt = Runtime::with_workers(3);
        let pat = pattern(1);
        let f = rt.run(JobSpec::f64(pat.clone(), |_i, r| contribution(r)));
        let oracle = sequential_reduce(&pat);
        for (a, b) in oracle.iter().zip(f.output.as_f64().unwrap()) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
        let i = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_eq!(i.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        let stats = rt.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn second_submission_hits_the_profile() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(3);
        let first = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(!first.profile_hit, "first sighting must inspect");
        let second = rt.run(JobSpec::i64(pat, |_i, r| contribution_i64(r)));
        assert!(second.profile_hit, "same class must reuse the decision");
        assert_eq!(second.scheme, first.scheme);
        let stats = rt.stats();
        assert_eq!(stats.profile_hits, 1);
        assert!(stats.inspections >= 1);
    }

    #[test]
    fn explain_serves_the_decision_ledger_and_slowlog_attributes_stages() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(21);
        let handle = rt.submit(JobSpec::f64(pat.clone(), |_i, r| contribution(r)));
        let sig = handle.signature();
        let done = handle.wait();
        assert!(done.error.is_none());
        let rec = rt.explain(sig).expect("first sighting ranks and records");
        assert_eq!(rec.signature, sig.0);
        assert_eq!(
            rec.winner, done.scheme,
            "record must match the executed scheme"
        );
        assert_eq!(rec.candidates.len(), 7, "every scheme priced");
        assert!(rec
            .candidates
            .iter()
            .any(|c| c.scheme == done.scheme && c.feasible));
        assert_eq!(rec.backend, "software");
        assert_eq!(rec.quarantine, GateVerdict::declined("clear"));
        assert!(rt.explain(PatternSignature(0xdead_beef)).is_none());
        // The job landed in the slowlog with a stage breakdown that sums
        // exactly to its end-to-end latency, plus the decision record in
        // force when it completed.
        let slow = rt.slowlog(8);
        let ex = slow
            .iter()
            .find(|e| e.class == sig.0)
            .expect("completed job retained as exemplar");
        let ev = &ex.payload.event;
        assert!(ev.executed_ns > 0);
        assert_eq!(
            ev.stage_queue()
                + ev.stage_decide()
                + ev.stage_simplify()
                + ev.stage_exec()
                + ev.stage_completion(),
            ev.end_to_end()
        );
        assert_eq!(ex.payload.record.as_ref().unwrap().winner, done.scheme);
    }

    #[test]
    fn batch_submission_coalesces() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(5);
        // Make the dispatcher see them together: submit before it can
        // drain (it is busy with the first big job).
        let specs: Vec<JobSpec> = (0..12)
            .map(|_| JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)))
            .collect();
        let handles = rt.submit_batch(specs);
        let oracle = sequential_reduce_i64(&pat);
        let mut coalesced_any = false;
        for h in handles {
            let r = h.wait();
            assert_eq!(r.output.as_i64().unwrap(), oracle);
            coalesced_any |= r.batched_with > 0;
        }
        let stats = rt.stats();
        assert_eq!(stats.completed, 12);
        // Not guaranteed timing-wise, but with 12 identical jobs against
        // one dispatcher at least some batching is effectively certain.
        if coalesced_any {
            assert!(stats.coalesced > 0);
        }
    }

    /// A class sparse enough that the fanout-aware model sends fused
    /// groups (K >= 5, any width) to the hash kernel.
    pub(crate) fn sparse_pattern(seed: u64) -> Arc<smartapps_workloads::AccessPattern> {
        Arc::new(
            PatternSpec {
                num_elements: 400_000,
                iterations: 4_000,
                refs_per_iter: 12,
                coverage: 0.004,
                dist: Distribution::Uniform,
                seed,
            }
            .generate(),
        )
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(7);
        let handles: Vec<JobHandle> = (0..8)
            .map(|_| rt.submit(JobSpec::f64(pat.clone(), |_i, r| contribution(r))))
            .collect();
        rt.shutdown();
        for h in handles {
            assert!(h.try_wait().is_some(), "shutdown must not drop queued jobs");
        }
    }

    #[test]
    fn submission_after_queue_close_reports_shutdown_kind() {
        let rt = Runtime::with_workers(2);
        // Close the queue as shutdown would, while the runtime handle is
        // still alive to accept the racing submission.
        rt.begin_shutdown();
        let r = rt
            .submit(JobSpec::i64(pattern(77), |_i, r| contribution_i64(r)))
            .wait();
        let err = r.error.expect("closed queue must fail the job");
        assert_eq!(err.kind, JobErrorKind::Shutdown);
        assert!(r.output.is_empty());
    }

    #[test]
    fn profile_survives_restart_via_disk() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("profiles-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = RuntimeConfig {
            workers: 2,
            profile_path: Some(path.clone()),
            ..RuntimeConfig::default()
        };
        let pat = pattern(9);
        let first_scheme;
        {
            let rt = Runtime::new(cfg.clone());
            first_scheme = rt
                .run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)))
                .scheme;
            rt.shutdown();
        }
        assert!(path.exists(), "shutdown must persist the store");
        {
            let rt = Runtime::new(cfg);
            let r = rt.run(JobSpec::i64(pat, |_i, r| contribution_i64(r)));
            assert!(r.profile_hit, "restarted service must remember the class");
            assert_eq!(r.scheme, first_scheme);
            assert_eq!(rt.stats().inspections, 0, "no inspection after restart");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_submissions_fail_fast_without_killing_the_service() {
        let rt = Runtime::with_workers(2);
        // Structurally invalid pattern: index out of bounds (and placed
        // beyond any sampling window's reach, conceptually — validate
        // catches it before the queue either way).
        let broken = Arc::new(smartapps_workloads::AccessPattern {
            num_elements: 2,
            iter_ptr: vec![0, 1],
            indices: vec![7],
        });
        let r = rt.submit(JobSpec::i64(broken, |_i, _r| 1)).wait();
        let err = r.error.expect("invalid pattern must be rejected");
        assert_eq!(err.kind, JobErrorKind::Rejected);
        assert!(err.message.contains("invalid access pattern"));
        // An absurd width request is clamped, not a dispatcher panic.
        let pat = pattern(53);
        let r = rt
            .submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)).with_threads(300))
            .wait();
        assert!(
            r.error.is_none(),
            "width beyond the pool must clamp: {:?}",
            r.error
        );
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        // Service is still healthy.
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none());
        assert_eq!(rt.stats().completed, 3);
    }

    #[test]
    fn worker_side_panic_message_reaches_the_handle() {
        let rt = Runtime::with_workers(3);
        let pat = pattern(55);
        // Panic only on a late iteration so it lands in a worker's block,
        // not on the dispatcher's own tid 0.
        let iters = pat.num_iterations();
        let r = rt
            .submit(JobSpec::i64(pat, move |i, _r| {
                if i == iters - 1 {
                    panic!("bad row {i}")
                }
                1
            }))
            .wait();
        let err = r.error.expect("worker panic must surface");
        assert_eq!(err.kind, JobErrorKind::Panic);
        assert!(err.message.contains("bad row"), "payload lost: {err}");
    }

    #[test]
    fn panicking_job_body_does_not_kill_the_service() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(51);
        let bad = rt.submit(JobSpec::i64(pat.clone(), |_i, _r| panic!("poisoned body")));
        let good = rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let bad = bad.wait();
        let err = bad.error.expect("poisoned body must fail");
        assert_eq!(err.kind, JobErrorKind::Panic);
        assert!(err.message.contains("poisoned body"));
        assert!(bad.output.is_empty());
        let good = good.wait();
        assert!(
            good.error.is_none(),
            "a fused or batched group-mate of a poisoned body must still succeed"
        );
        assert_eq!(
            good.output.as_i64().unwrap(),
            sequential_reduce_i64(&pat),
            "jobs after a poisoned one must still run"
        );
        // The poisoned run must not have fed the profile store: only the
        // good job's single execution is recorded for the class.
        let sig = PatternSignature::of(&pat, rt.shared.sample_iters, rt.width());
        assert_eq!(rt.profile_snapshot().get(sig).map(|e| e.runs), Some(1));
    }

    #[test]
    fn drift_eviction_forces_reinspection() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(41);
        // Establish the class, then poison its calibration so the next
        // run reads as a >4x slowdown.
        let handle = rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let signature = handle.signature();
        handle.wait();
        {
            let mut store = rt.shared.profile.lock().unwrap();
            let entry = store.get(signature).unwrap().clone();
            // Rewrite the entry predicting a near-zero time: the next
            // execution must look like a drastic slowdown.
            store.evict(signature);
            store.record(
                signature,
                entry.scheme,
                entry.threads,
                usize::MAX,
                Duration::from_nanos(1),
            );
            let e = store.get(signature).unwrap();
            assert!(e.ns_per_ref < 1e-9);
            // Age it past DRIFT_MIN_RUNS.
            for _ in 0..DRIFT_MIN_RUNS {
                store.record(
                    signature,
                    entry.scheme,
                    entry.threads,
                    usize::MAX,
                    Duration::from_nanos(1),
                );
            }
        }
        // First over-ratio run: a strike, not an eviction — one wild
        // sample must never kill a healthy entry.
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.profile_hit, "this run rode the poisoned entry");
        assert_eq!(rt.stats().evictions, 0, "one outlier is noise, not drift");
        // Second consecutive over-ratio run: phase change.
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.profile_hit, "the entry survives the first strike");
        assert_eq!(rt.stats().evictions, 1, "poisoned calibration must evict");
        assert!(
            rt.profile_snapshot().get(signature).is_none(),
            "evicted entry must stay evicted until re-decided"
        );
        // Next submission misses the profile and re-inspects.
        let r2 = rt.run(JobSpec::i64(pat, |_i, r| contribution_i64(r)));
        assert!(!r2.profile_hit, "post-eviction run must re-decide");
    }

    #[test]
    fn adaptive_prior_reads_persisted_domain_entries() {
        use smartapps_core::toolbox::DomainKey;
        use smartapps_workloads::PatternChars;

        let rt = Runtime::with_workers(2);
        let pat = pattern(43);
        // Seed the store with a hand-chosen scheme for this pattern's
        // functioning domain under loop id 9 — as if a previous process
        // had learned it and persisted via persist_adaptive().
        let domain = DomainKey::of(&PatternChars::measure(&pat));
        let sig = PatternSignature::of_domain(9, &domain);
        {
            let mut store = rt.shared.profile.lock().unwrap();
            store.record(sig, Scheme::Hash, 2, 1, Duration::from_micros(1));
        }
        let mut smart = rt.adaptive(9, false);
        let (_, log) = smart.execute(&pat, &|_i, r| smartapps_workloads::contribution(r));
        assert_eq!(
            log.scheme,
            Scheme::Hash,
            "first decision must honor the persisted prior"
        );
        // A loop id with no persisted history decides analytically.
        let mut fresh = rt.adaptive(10, false);
        let (_, log) = fresh.execute(&pat, &|_i, r| smartapps_workloads::contribution(r));
        assert_ne!(
            log.scheme,
            Scheme::Hash,
            "dense uniform pattern should not pick hash analytically"
        );
    }

    #[test]
    fn shutdown_then_drop_saves_store_once() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("double-shutdown-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            profile_path: Some(path.clone()),
            ..RuntimeConfig::default()
        });
        rt.run(JobSpec::i64(pattern(45), |_i, r| contribution_i64(r)));
        rt.shutdown(); // runs teardown, then Drop runs — must be a no-op
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_dispatcher_service_stays_correct_under_load() {
        let rt = Arc::new(Runtime::new(RuntimeConfig {
            workers: 4,
            shards: 8,
            dispatchers: 4,
            ..RuntimeConfig::default()
        }));
        assert_eq!(rt.dispatcher_count(), 4);
        let classes: Vec<_> = (0..4).map(|s| pattern(100 + s)).collect();
        let oracles: Vec<Vec<i64>> = classes.iter().map(|p| sequential_reduce_i64(p)).collect();
        std::thread::scope(|s| {
            for c in 0..4 {
                let rt = rt.clone();
                let classes = &classes;
                let oracles = &oracles;
                s.spawn(move || {
                    for j in 0..20 {
                        let which = (c + j) % classes.len();
                        let r = rt.run(JobSpec::i64(classes[which].clone(), |_i, r| {
                            contribution_i64(r)
                        }));
                        assert!(r.error.is_none());
                        assert_eq!(r.output.as_i64().unwrap(), oracles[which], "class {which}");
                    }
                });
            }
        });
        assert_eq!(rt.stats().completed, 80);
    }

    #[test]
    fn telemetry_records_lifecycle_and_exec_histograms() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(91);
        for _ in 0..4 {
            let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert!(r.error.is_none());
        }
        let tel = rt.telemetry();
        let exec = tel.registry().merged_snapshot(crate::telemetry::EXEC_NS);
        assert!(exec.count >= 4, "exec histogram missing samples");
        assert!(exec.quantile(0.5) > 0);
        let wait = tel
            .registry()
            .merged_snapshot(crate::telemetry::QUEUE_WAIT_NS);
        assert!(wait.count >= 4);
        let events = tel.trace().snapshot();
        assert!(events.len() >= 4, "trace ring missing events");
        for e in &events {
            assert_eq!(e.error, smartapps_telemetry::TraceError::None);
            assert!(e.submitted_ns <= e.queued_ns);
            assert!(e.queued_ns <= e.decided_ns);
            assert!(e.decided_ns <= e.executed_ns);
            assert!(e.executed_ns <= e.completed_ns);
            assert!(e.fused >= 1);
        }
        rt.shutdown();
    }

    /// A model whose PCLR formula is free: every admitted class decides
    /// onto the hardware backend, making sim routing deterministic.
    fn free_offload_model() -> DecisionModel {
        DecisionModel::new(smartapps_reductions::ModelParams {
            pclr_update: 0.0,
            pclr_flush_line: 0.0,
            pclr_offload_fixed: 0.0,
            ..smartapps_reductions::ModelParams::default()
        })
    }

    /// Small pattern the simulator executes quickly in debug builds.
    fn sim_pattern(seed: u64) -> Arc<smartapps_workloads::AccessPattern> {
        Arc::new(
            PatternSpec {
                num_elements: 256,
                iterations: 300,
                refs_per_iter: 3,
                coverage: 0.9,
                dist: Distribution::Uniform,
                seed,
            }
            .generate(),
        )
    }

    #[test]
    fn model_routes_admitted_classes_to_the_simulator() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            pclr: Some(crate::PclrConfig::default()),
            model: free_offload_model(),
            ..RuntimeConfig::default()
        });
        let pat = sim_pattern(21);
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.scheme, Scheme::Pclr, "free offload must win the model");
        let cycles = r.sim_cycles.expect("offloaded job reports cycles");
        assert!(cycles > 0);
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        let stats = rt.stats();
        assert_eq!(stats.pclr_offloads, 1, "offload must be visible in stats");
        assert_eq!(stats.sim_cycles, cycles);
        // The class is now profiled as pclr: repeats skip the inspection
        // and ride the hardware decision.
        let again = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(again.profile_hit);
        assert_eq!(again.scheme, Scheme::Pclr);
        assert_eq!(rt.stats().pclr_offloads, 2);
    }

    #[test]
    fn pclr_profile_entry_with_backend_disabled_redecides_to_software() {
        // A store learned by an offload-enabled service is loaded by a
        // software-only one (downgrade, config change): the pclr entry
        // must not crash the dispatcher — the job re-decides.
        let rt = Runtime::with_workers(2);
        let pat = sim_pattern(23);
        let handle = rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let sig = handle.signature();
        handle.wait();
        {
            let mut store = rt.shared.profile.lock().unwrap();
            store.evict(sig);
            store.record(sig, Scheme::Pclr, 2, 1, Duration::from_nanos(1));
        }
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(r.scheme.is_software(), "masked pclr must fall back");
        assert!(r.sim_cycles.is_none());
        assert!(!r.profile_hit, "a masked decision is not a profile hit");
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        assert_eq!(rt.stats().pclr_offloads, 0);
        // The dead hardware entry must not mask forever: it is evicted,
        // the next run re-decides and records, and the class settles
        // back into profile-hit steady state on an executable scheme.
        assert_eq!(rt.stats().evictions, 1);
        assert!(
            rt.profile_snapshot().get(sig).is_none(),
            "unexecutable pclr entry must be evicted"
        );
        let relearn = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(!relearn.profile_hit, "post-eviction run re-decides");
        let settled = rt.run(JobSpec::i64(pat, |_i, r| contribution_i64(r)));
        assert!(settled.profile_hit, "re-learned software entry must hit");
        assert!(settled.scheme.is_software());
    }

    #[test]
    fn oversized_jobs_stay_on_the_software_backend() {
        // Backend enabled but the job exceeds the admission cap: the
        // model never sees pclr as available and nothing is simulated.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            pclr: Some(crate::PclrConfig {
                max_sim_refs: 8, // sim_pattern has ~900 references
                ..crate::PclrConfig::default()
            }),
            model: free_offload_model(),
            ..RuntimeConfig::default()
        });
        let pat = sim_pattern(25);
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none());
        assert!(r.scheme.is_software());
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        assert_eq!(rt.stats().pclr_offloads, 0);
    }

    #[test]
    fn pclr_choice_survives_restart_via_disk() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("pclr-profiles-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            profile_path: Some(path.clone()),
            pclr: Some(crate::PclrConfig::default()),
            model: free_offload_model(),
            ..RuntimeConfig::default()
        };
        let pat = sim_pattern(27);
        {
            let rt = Runtime::new(cfg.clone());
            let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert_eq!(r.scheme, Scheme::Pclr);
            rt.shutdown();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(" pclr "),
            "store must persist the scheme:\n{text}"
        );
        {
            let rt = Runtime::new(cfg);
            let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert!(r.profile_hit, "restarted service must remember the class");
            assert_eq!(r.scheme, Scheme::Pclr);
            assert!(r.sim_cycles.is_some());
            assert_eq!(rt.stats().inspections, 0, "no inspection after restart");
            assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A model whose SIMD formula is free: every feasible class decides
    /// onto the vectorized backend, making routing deterministic.
    fn free_simd_model() -> DecisionModel {
        DecisionModel::new(smartapps_reductions::ModelParams {
            simd_update: 0.0,
            simd_init_elem: 0.0,
            simd_merge_elem: 0.0,
            ..smartapps_reductions::ModelParams::default()
        })
    }

    #[test]
    fn model_routes_feasible_classes_to_the_simd_backend() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            model: free_simd_model(),
            ..RuntimeConfig::default()
        });
        let pat = sim_pattern(121);
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.scheme, Scheme::Simd, "free simd must win the model");
        assert!(r.sim_cycles.is_none(), "simd is software, not simulated");
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        let stats = rt.stats();
        assert_eq!(stats.simd_offloads, 1, "offload must be visible in stats");
        assert_eq!(stats.pclr_offloads, 0);
        // The class is now profiled as simd: repeats skip the inspection
        // and ride the vectorized decision.
        let again = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(again.profile_hit);
        assert_eq!(again.scheme, Scheme::Simd);
        assert_eq!(rt.stats().simd_offloads, 2);
        // The f64 flavor routes identically and stays within the
        // documented bound of the sequential oracle.
        let f = rt.run(JobSpec::f64(pat.clone(), |_i, r| contribution(r)));
        assert!(f.error.is_none());
        let oracle = sequential_reduce(&pat);
        for (a, b) in oracle.iter().zip(f.output.as_f64().unwrap()) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
        // With the calibration loop on (exploration slots and profile
        // rechecks), the free-SIMD model still selects the vectorized
        // backend, and every answer, explored or not, stays oracle-exact.
        let calibrated = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            model: free_simd_model(),
            calibration: CalibrationConfig {
                explore_every: 2,
                recheck_every: 2,
                ..CalibrationConfig::default()
            },
            ..RuntimeConfig::default()
        });
        let oracle = sequential_reduce_i64(&pat);
        for _ in 0..16 {
            let r = calibrated.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert!(r.error.is_none(), "{:?}", r.error);
            assert_eq!(r.output.as_i64().unwrap(), oracle);
        }
        assert!(
            calibrated.stats().simd_offloads > 0,
            "calibration on must still select simd"
        );
    }

    #[test]
    fn simd_profile_entry_on_scalar_only_service_redecides_to_software() {
        // A store learned by a SIMD-enabled service is loaded by a
        // scalar-only one: the simd entry must not crash the dispatcher —
        // the job re-decides and the dead entry is evicted.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            simd: false,
            ..RuntimeConfig::default()
        });
        let pat = sim_pattern(123);
        let handle = rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let sig = handle.signature();
        handle.wait();
        {
            let mut store = rt.shared.profile.lock().unwrap();
            store.evict(sig);
            store.record(sig, Scheme::Simd, 2, 1, Duration::from_nanos(1));
        }
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(r.scheme.is_software(), "masked simd must fall back");
        assert!(!r.profile_hit, "a masked decision is not a profile hit");
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        assert_eq!(rt.stats().simd_offloads, 0);
        assert_eq!(rt.stats().evictions, 1);
        assert!(
            rt.profile_snapshot().get(sig).is_none(),
            "unexecutable simd entry must be evicted"
        );
    }

    #[test]
    fn simd_choice_survives_restart_via_disk() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("simd-profiles-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            profile_path: Some(path.clone()),
            model: free_simd_model(),
            ..RuntimeConfig::default()
        };
        let pat = sim_pattern(125);
        {
            let rt = Runtime::new(cfg.clone());
            let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert_eq!(r.scheme, Scheme::Simd);
            rt.shutdown();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(" simd "),
            "store must persist the scheme:\n{text}"
        );
        {
            let rt = Runtime::new(cfg);
            let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert!(r.profile_hit, "restarted service must remember the class");
            assert_eq!(r.scheme, Scheme::Simd);
            assert_eq!(rt.stats().inspections, 0, "no inspection after restart");
            assert_eq!(rt.stats().simd_offloads, 1);
            assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cycle_ns_is_fitted_from_cross_backend_pairs_and_persists() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cyc-profiles-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            pclr: Some(crate::PclrConfig::default()),
            model: free_offload_model(),
            profile_path: Some(path.clone()),
            ..RuntimeConfig::default()
        });
        let pat = sim_pattern(29);
        // First run offloads: the class's simulated-cycles half lands.
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_eq!(r.scheme, Scheme::Pclr);
        assert_eq!(
            rt.fitted_cycle_ns(),
            Some((1.0, 0)),
            "no pair yet: the assumption stands"
        );
        // Re-route the class to software (as a calibration recheck or an
        // operator override would): its wall-time half completes the pair.
        let sig = PatternSignature::of(&pat, rt.shared.sample_iters, rt.width());
        {
            let mut store = rt.shared.profile.lock().unwrap();
            store.evict(sig);
            store.record(
                sig,
                Scheme::Rep,
                2,
                pat.num_references(),
                Duration::from_millis(50),
            );
        }
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_eq!(r.scheme, Scheme::Rep);
        let (fitted, samples) = rt.fitted_cycle_ns().unwrap();
        assert_eq!(samples, 1, "one cross-backend pair, one fit sample");
        assert!(fitted > 0.0 && fitted.is_finite());
        assert_ne!(fitted, 1.0, "a real measurement never lands exactly on 1.0");
        // The fit persists as the store's `cyc` record.
        rt.shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("cyc "), "cyc record must persist:\n{text}");
        let store = ProfileStore::load(&path).unwrap();
        assert_eq!(store.cycle_fit().map(|c| c.updates), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn adaptive_prior_masks_persisted_pclr_entries() {
        use smartapps_core::toolbox::DomainKey;
        use smartapps_workloads::PatternChars;

        // The adaptive loop executes through the software library; a
        // pclr prior must fall back to the analytic decision, not panic.
        let rt = Runtime::with_workers(2);
        let pat = pattern(47);
        let domain = DomainKey::of(&PatternChars::measure(&pat));
        let sig = PatternSignature::of_domain(12, &domain);
        {
            let mut store = rt.shared.profile.lock().unwrap();
            store.record(sig, Scheme::Pclr, 2, 1, Duration::from_micros(1));
        }
        let mut smart = rt.adaptive(12, false);
        let (out, log) = smart.execute(&pat, &|_i, r| smartapps_workloads::contribution(r));
        assert!(log.scheme.is_software(), "prior must be masked");
        assert_eq!(out.len(), pat.num_elements);
    }

    #[test]
    fn calibration_loop_accepts_samples_by_default() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(83);
        // First sighting decides via the model (inspection cached), so
        // its execution can immediately report predicted-vs-measured.
        rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let s1 = rt.stats();
        assert!(s1.calibration_updates >= 1, "{s1:?}");
        // Profile-hit repeats keep learning off the cached inspection.
        rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let s2 = rt.stats();
        assert!(s2.calibration_updates > s1.calibration_updates);
        assert!(s2.mean_abs_prediction_error().is_finite());
        assert_eq!(s2.explored, 0, "exploration is off by default");
        assert_eq!(s2.fuse_probes, 0, "probing is off by default");
    }

    #[test]
    fn exploration_executes_the_runner_up_and_skips_the_profile() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            calibration: CalibrationConfig {
                explore_every: 1, // every batch explores
                ..CalibrationConfig::default()
            },
            ..RuntimeConfig::default()
        });
        let pat = pattern(85);
        let insp = Inspector::analyze(&pat, 2);
        let input = ModelInput::from_inspection(&insp, false);
        let analytic_best = DecisionModel::default().decide(&input).best();
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none());
        assert_ne!(r.scheme, analytic_best, "explored run takes the runner-up");
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        assert_eq!(rt.stats().explored, 1);
        assert!(
            rt.profile_snapshot().is_empty(),
            "exploration must not lock the class to the runner-up"
        );

        // On a *profiled* class, an explored batch neither reports a
        // profile hit (the scheme did not come from the store) nor
        // disturbs the entry.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            calibration: CalibrationConfig {
                explore_every: 2, // batch 1 decides+records, batch 2 explores
                ..CalibrationConfig::default()
            },
            ..RuntimeConfig::default()
        });
        let pat = pattern(86);
        let first = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(!first.profile_hit);
        let explored = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_eq!(rt.stats().explored, 1);
        assert_ne!(
            explored.scheme, first.scheme,
            "slot runs an unmeasured scheme"
        );
        assert!(
            !explored.profile_hit,
            "an explored pick must not claim to come from the store"
        );
        let sig = PatternSignature::of(&pat, rt.shared.sample_iters, rt.width());
        assert_eq!(
            rt.profile_snapshot().get(sig).map(|e| e.scheme),
            Some(first.scheme),
            "the entry must keep the recorded scheme"
        );
    }

    #[test]
    fn corrections_persist_across_restart_via_store() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corr-profiles-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            profile_path: Some(path.clone()),
            ..RuntimeConfig::default()
        };
        // Two regimes so the calibrator sees more than one scheme: with a
        // single executed scheme, its correction is 1.0 by construction
        // (it *defines* the global scale).
        let dense = pattern(87);
        // SPICE shape: huge dimension, almost no reuse — hash territory
        // at any width, guaranteeing a second scheme in the mix.
        let sparse = Arc::new(
            PatternSpec {
                num_elements: 200_000,
                iterations: 600,
                refs_per_iter: 28,
                coverage: 0.08,
                dist: Distribution::Uniform,
                seed: 88,
            }
            .generate(),
        );
        let domain = smartapps_core::toolbox::DomainKey::of(
            &smartapps_workloads::PatternChars::measure(&dense),
        );
        let (dense_scheme, sparse_scheme, before_dense, before_sparse);
        {
            let rt = Runtime::new(cfg.clone());
            dense_scheme = rt
                .run(JobSpec::i64(dense.clone(), |_i, r| contribution_i64(r)))
                .scheme;
            sparse_scheme = rt
                .run(JobSpec::i64(sparse.clone(), |_i, r| contribution_i64(r)))
                .scheme;
            for _ in 0..4 {
                rt.run(JobSpec::i64(dense.clone(), |_i, r| contribution_i64(r)));
                rt.run(JobSpec::i64(sparse.clone(), |_i, r| contribution_i64(r)));
            }
            assert!(rt.stats().calibration_updates >= 10);
            before_dense = rt.correction(dense_scheme, domain, false);
            before_sparse = rt.correction(sparse_scheme, domain, false);
            rt.shutdown();
        }
        assert_ne!(dense_scheme, sparse_scheme, "two regimes, two schemes");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("corr * * s"),
            "global scale persisted:\n{text}"
        );
        assert!(
            text.contains(&format!("corr {} ", dense_scheme.abbrev())),
            "per-scheme correction persisted:\n{text}"
        );
        {
            let rt = Runtime::new(cfg);
            assert!(
                (rt.correction(dense_scheme, domain, false) - before_dense).abs() < 1e-12
                    && (rt.correction(sparse_scheme, domain, false) - before_sparse).abs() < 1e-12,
                "restarted service must inherit the learned corrections exactly"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_blocks_after_k_consecutive_panics_and_lifts_on_unquarantine() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            quarantine_after: 3,
            quarantine_ttl: Duration::from_secs(3600),
            ..RuntimeConfig::default()
        });
        let pat = pattern(201);
        let mut sig = None;
        for _ in 0..3 {
            let h = rt.submit(JobSpec::i64(pat.clone(), |_i, _r| panic!("always bad")));
            sig = Some(h.signature());
            let r = h.wait();
            assert_eq!(r.error.unwrap().kind, JobErrorKind::Panic);
        }
        let sig = sig.unwrap();
        // Strike three has the class quarantined: the next job fails
        // fast without executing its body.
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let err = r.error.expect("quarantined class must fail fast");
        assert_eq!(err.kind, JobErrorKind::Quarantined);
        assert!(err.message.contains("3 consecutive"), "{err}");
        assert_eq!(rt.stats().quarantined, 1);
        assert_eq!(rt.quarantined_classes(), vec![sig]);
        // Lifting the quarantine restores the class.
        assert!(rt.unquarantine(sig));
        assert!(rt.quarantined_classes().is_empty());
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
    }

    #[test]
    fn clean_execution_resets_the_panic_streak() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            quarantine_after: 2,
            ..RuntimeConfig::default()
        });
        let pat = pattern(203);
        // panic, clean, panic, clean, ... never two in a row: the class
        // must never be quarantined.
        for round in 0..3 {
            let r = rt
                .submit(JobSpec::i64(pat.clone(), |_i, _r| panic!("flaky")))
                .wait();
            assert_eq!(
                r.error.unwrap().kind,
                JobErrorKind::Panic,
                "round {round}: a single panic must execute, not fast-fail"
            );
            let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
            assert!(r.error.is_none(), "round {round}: {:?}", r.error);
        }
        assert_eq!(rt.stats().quarantined, 0);
    }

    #[test]
    fn quarantine_ttl_expiry_gives_the_class_a_fresh_start() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            quarantine_after: 1,
            quarantine_ttl: Duration::from_millis(50),
            ..RuntimeConfig::default()
        });
        let pat = pattern(205);
        let r = rt
            .submit(JobSpec::i64(pat.clone(), |_i, _r| panic!("poison")))
            .wait();
        assert_eq!(r.error.unwrap().kind, JobErrorKind::Panic);
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_eq!(r.error.unwrap().kind, JobErrorKind::Quarantined);
        std::thread::sleep(Duration::from_millis(80));
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none(), "expired TTL must lift the quarantine");
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
    }

    #[test]
    fn expired_quarantine_ttl_disappears_from_snapshots_without_a_submit() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            quarantine_after: 1,
            quarantine_ttl: Duration::from_millis(50),
            ..RuntimeConfig::default()
        });
        let pat = pattern(217);
        let h = rt.submit(JobSpec::i64(pat.clone(), |_i, _r| panic!("poison")));
        let sig = h.signature();
        assert_eq!(h.wait().error.unwrap().kind, JobErrorKind::Panic);
        assert_eq!(rt.quarantined_classes(), vec![sig]);
        assert_eq!(rt.quarantined_with_ttl().len(), 1);
        // No further submissions of the class: the lazily-clearing ledger
        // still holds the entry, but snapshots must stop reporting it the
        // moment the TTL lapses.
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            rt.quarantined_classes().is_empty(),
            "expired TTL must not be reported"
        );
        assert!(rt.quarantined_with_ttl().is_empty());
    }

    /// The exit a token is expected to leave by (`docs/ARCHITECTURE.md`,
    /// "Job exits").
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Via {
        Rejected,
        Shutdown,
        Quarantined,
        DecisionPanicked,
        BodyPanicked,
        /// Member of a scan-rewritten group of K.
        Scan(usize),
        /// Member of a fused sweep of K.
        Fused(usize),
        Single,
    }

    /// Drain `set`: every token completes exactly once, and the moment a
    /// completion is observed `completed` already counts it.
    fn drain(
        rt: &Runtime,
        set: &CompletionSet,
        seen: &mut std::collections::HashMap<u64, Completion>,
    ) {
        while let Some(c) = set.wait_any() {
            let token = c.token;
            assert!(
                seen.insert(token, c).is_none(),
                "token {token} delivered twice"
            );
            assert!(
                rt.stats().completed >= seen.len() as u64,
                "token {token} observed before it was counted"
            );
        }
        assert_eq!(set.in_flight(), 0);
    }

    /// Check every token's `JobResult` against the conventions of its
    /// exit, and the trace ring against exactly one event per dispatched
    /// job carrying that exit's scheme/backend/error/fused tags.
    fn check_exits(
        rt: &Runtime,
        seen: &std::collections::HashMap<u64, Completion>,
        expect: &[(u64, Via)],
    ) {
        use crate::telemetry::scheme_code;
        use smartapps_telemetry::{TraceBackend, TraceError};
        assert_eq!(seen.len(), expect.len(), "exactly one completion per token");
        let mut traced = Vec::new();
        for &(token, via) in expect {
            let c = &seen[&token];
            let r = &c.result;
            let kind = r.error.as_ref().map(|e| e.kind);
            let ctx = format!("token {token} via {via:?}: {r:?}");
            assert!(r.fused_with <= r.batched_with, "{ctx}");
            assert_eq!(c.signature == PatternSignature(0), via == Via::Rejected);
            if kind.is_some() {
                assert!(r.output.is_empty(), "{ctx}");
                assert_eq!(r.elapsed, Duration::ZERO, "{ctx}");
                assert_eq!(r.fused_with, 0, "{ctx}");
            }
            // Fail-fast exits never reach a kernel: `Seq`, no profile hit.
            if !matches!(
                via,
                Via::BodyPanicked | Via::Scan(_) | Via::Fused(_) | Via::Single
            ) {
                assert_eq!(r.scheme, Scheme::Seq, "{ctx}");
                assert!(!r.profile_hit, "{ctx}");
            }
            let ran = |backend, error, fused: usize| {
                (
                    c.signature.0,
                    scheme_code(r.scheme),
                    backend,
                    error,
                    fused as u16,
                )
            };
            let unexecuted = |error| (c.signature.0, u8::MAX, TraceBackend::Software, error, 0);
            match via {
                Via::Rejected | Via::Shutdown => {
                    let want = if via == Via::Rejected {
                        JobErrorKind::Rejected
                    } else {
                        JobErrorKind::Shutdown
                    };
                    assert_eq!(kind, Some(want), "{ctx}");
                    assert_eq!(r.batched_with, 0, "{ctx}");
                }
                Via::Quarantined => {
                    assert_eq!(kind, Some(JobErrorKind::Quarantined), "{ctx}");
                    traced.push(unexecuted(TraceError::Quarantined));
                }
                Via::DecisionPanicked => {
                    assert_eq!(kind, Some(JobErrorKind::Panic), "{ctx}");
                    assert!(r.error_message().unwrap().starts_with("scheme decision"));
                    traced.push(unexecuted(TraceError::Panicked));
                }
                Via::BodyPanicked => {
                    assert_eq!(kind, Some(JobErrorKind::Panic), "{ctx}");
                    traced.push(ran(TraceBackend::Software, TraceError::Panicked, 1));
                }
                Via::Scan(k) => {
                    assert_eq!(kind, None, "{ctx}");
                    assert_eq!(r.scheme, Scheme::Seq, "{ctx}");
                    assert!(!r.profile_hit, "{ctx}");
                    assert_eq!(r.fused_with, k - 1, "{ctx}");
                    traced.push(ran(TraceBackend::Scan, TraceError::None, k));
                }
                Via::Fused(k) => {
                    assert_eq!(kind, None, "{ctx}");
                    assert!(!r.profile_hit, "{ctx}");
                    assert_eq!(r.fused_with, k - 1, "{ctx}");
                    traced.push(ran(TraceBackend::Software, TraceError::None, k));
                }
                Via::Single => {
                    assert_eq!(kind, None, "{ctx}");
                    assert_eq!(r.fused_with, 0, "{ctx}");
                    let backend = match r.scheme {
                        Scheme::Simd => TraceBackend::Simd,
                        _ => TraceBackend::Software,
                    };
                    traced.push(ran(backend, TraceError::None, 1));
                }
            }
        }
        let events = rt.telemetry().trace().snapshot();
        for e in &events {
            if e.fused == 0 {
                assert_eq!((e.decided_ns, e.executed_ns, e.simplify_ns), (0, 0, 0));
            } else {
                assert!(e.queued_ns <= e.decided_ns && e.decided_ns <= e.executed_ns);
            }
            assert!(e.submitted_ns <= e.queued_ns && e.executed_ns <= e.completed_ns);
        }
        let mut ring: Vec<_> = events
            .iter()
            .map(|e| (e.signature, e.scheme, e.backend, e.error, e.fused))
            .collect();
        let key =
            |t: &(u64, u8, TraceBackend, TraceError, u16)| (t.0, t.1, t.2 as u8, t.3 as u8, t.4);
        ring.sort_by_key(key);
        traced.sort_by_key(key);
        assert_eq!(ring, traced, "one trace event per dispatched job");
        let stats = rt.stats();
        let fused_results = expect
            .iter()
            .filter(|(t, via)| !matches!(via, Via::Scan(_)) && seen[t].result.fused_with > 0)
            .count();
        assert_eq!(stats.fused_jobs, fused_results as u64);
        let count = |pred: fn(&Via) -> bool| expect.iter().filter(|(_, v)| pred(v)).count() as u64;
        assert_eq!(stats.simplified_jobs, count(|v| matches!(v, Via::Scan(_))));
        assert_eq!(stats.quarantined, count(|v| *v == Via::Quarantined));
        assert_eq!(stats.completed, expect.len() as u64);
    }

    /// A job big enough to keep a lone dispatcher busy while the jobs
    /// behind it queue up and coalesce into one batch.
    fn warm_up_spec(seed: u64) -> JobSpec {
        let big = PatternSpec {
            num_elements: 60_000,
            iterations: 1_200_000,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed,
        };
        JobSpec::i64(Arc::new(big.generate()), |_i, r| contribution_i64(r))
    }

    #[test]
    fn submit_tagged_delivers_every_outcome_on_the_set() {
        use std::collections::HashMap;
        let clean = |pat: &Arc<smartapps_workloads::AccessPattern>| {
            JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r))
        };
        let poisoned = |pat: &Arc<smartapps_workloads::AccessPattern>| {
            JobSpec::i64(pat.clone(), |_i, _r| panic!("bad"))
        };
        let broken = Arc::new(smartapps_workloads::AccessPattern {
            num_elements: 2,
            iter_ptr: vec![0, 1],
            indices: vec![7],
        });

        // Scalar-only service: single (software), rejected, body-panicked,
        // a coalescing pair, a poisoned decision, and — last — the
        // shutdown race.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            simd: false,
            ..RuntimeConfig::default()
        });
        let set = CompletionSet::with_capacity(64);
        let pat = pattern(207);
        rt.submit_tagged(clean(&pat), 1, &set);
        rt.submit_tagged(JobSpec::i64(broken.clone(), |_i, _r| 1), 2, &set);
        rt.submit_tagged(poisoned(&pat), 3, &set);
        rt.submit_batch_tagged(vec![(4, clean(&pat)), (5, clean(&pat))], &set);
        // `validate()` keeps malformed patterns off the queue, so the
        // only deterministic way to poison a *decision* (the inspector
        // indexing out of bounds) is to queue one behind its back.
        let queue = set.queue();
        queue.register();
        let smuggled = rt.shared.queue.push(QueuedJob {
            spec: JobSpec::i64(broken, |_i, _r| 1),
            sig: PatternSignature(0xbad),
            sink: CompletionSink::Queue { token: 6, queue },
            submitted_at: Instant::now(),
        });
        assert!(smuggled.is_ok());
        let mut seen = HashMap::new();
        drain(&rt, &set, &mut seen);
        rt.begin_shutdown();
        rt.submit_tagged(clean(&pat), 7, &set);
        drain(&rt, &set, &mut seen);
        check_exits(
            &rt,
            &seen,
            &[
                (1, Via::Single),
                (2, Via::Rejected),
                (3, Via::BodyPanicked),
                (4, Via::Single),
                (5, Via::Single),
                (6, Via::DecisionPanicked),
                (7, Via::Shutdown),
            ],
        );
        let oracle = sequential_reduce_i64(&pat);
        for t in [1u64, 4, 5] {
            assert_eq!(seen[&t].result.output.as_i64().unwrap(), oracle);
            assert_ne!(seen[&t].result.scheme, Scheme::Simd, "scalar-only service");
        }

        // Quarantine: the first strike poisons the class mid-batch (its
        // two batch-mates fail fast per job), the next batch fails whole.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            simd: false,
            quarantine_after: 1,
            quarantine_ttl: Duration::from_secs(3600),
            ..RuntimeConfig::default()
        });
        let set = CompletionSet::with_capacity(64);
        rt.submit_tagged(warm_up_spec(95), 10, &set);
        rt.submit_tagged(poisoned(&pat), 11, &set);
        rt.submit_batch_tagged(vec![(12, clean(&pat)), (13, clean(&pat))], &set);
        let mut seen = HashMap::new();
        drain(&rt, &set, &mut seen);
        rt.submit_tagged(clean(&pat), 14, &set);
        drain(&rt, &set, &mut seen);
        check_exits(
            &rt,
            &seen,
            &[
                (10, Via::Single),
                (11, Via::BodyPanicked),
                (12, Via::Quarantined),
                (13, Via::Quarantined),
                (14, Via::Quarantined),
            ],
        );
        for t in [11u64, 12, 13] {
            assert_eq!(seen[&t].result.batched_with, 2, "one batch of three");
        }
        assert_eq!(seen[&14].result.batched_with, 0);

        // Groups: a scan-rewritten group, a fused sweep, and a sweep
        // abandoned to the isolation fallback by one panicking member.
        let rt = Runtime::new(RuntimeConfig {
            workers: 3,
            dispatchers: 1,
            ..RuntimeConfig::default()
        });
        let set = CompletionSet::with_capacity(64);
        rt.submit_tagged(warm_up_spec(97), 20, &set);
        let win = window_pattern(2048, 4096, 16, 3);
        for t in 21..25 {
            let spec = JobSpec::i64(win.clone(), move |i, _r| (i as i64).wrapping_mul(t as i64));
            rt.submit_tagged(spec.with_uniform_body(true), t, &set);
        }
        let sparse = sparse_pattern(69);
        for t in 30..36 {
            rt.submit_tagged(clean(&sparse), t, &set);
        }
        let sparse_b = sparse_pattern(70);
        for t in 40..46u64 {
            let spec = JobSpec::i64(sparse_b.clone(), move |i, r| {
                if t == 43 && i == 0 {
                    panic!("poisoned member")
                }
                contribution_i64(r)
            });
            rt.submit_tagged(spec, t, &set);
        }
        let mut seen = HashMap::new();
        drain(&rt, &set, &mut seen);
        let mut expect = vec![(20, Via::Single)];
        expect.extend((21..25).map(|t| (t, Via::Scan(4))));
        expect.extend((30..36).map(|t| (t, Via::Fused(6))));
        expect.extend((40..46).map(|t| {
            (
                t,
                if t == 43 {
                    Via::BodyPanicked
                } else {
                    Via::Single
                },
            )
        }));
        check_exits(&rt, &seen, &expect);
        for t in 21..25u64 {
            let want = direct_uniform_i64(&win, |i| (i as i64).wrapping_mul(t as i64));
            assert_eq!(seen[&t].result.output.as_i64().unwrap(), want);
        }
        assert_eq!(
            rt.stats().fused_sweeps,
            1,
            "the abandoned sweep is not counted"
        );

        // Single on the SIMD backend.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            model: free_simd_model(),
            ..RuntimeConfig::default()
        });
        let set = CompletionSet::with_capacity(8);
        rt.submit_tagged(clean(&sim_pattern(123)), 50, &set);
        let mut seen = HashMap::new();
        drain(&rt, &set, &mut seen);
        check_exits(&rt, &seen, &[(50, Via::Single)]);
        assert_eq!(seen[&50].result.scheme, Scheme::Simd);
        assert_eq!(rt.stats().simd_offloads, 1);
    }

    #[test]
    fn submit_tagged_after_close_delivers_shutdown_event() {
        let rt = Runtime::with_workers(2);
        let set = CompletionSet::with_capacity(8);
        rt.begin_shutdown();
        rt.submit_tagged(
            JobSpec::i64(pattern(209), |_i, r| contribution_i64(r)),
            9,
            &set,
        );
        let c = set.wait_any().expect("shutdown race still delivers");
        assert_eq!(c.token, 9);
        assert_eq!(c.result.error.unwrap().kind, JobErrorKind::Shutdown);
        assert!(set.wait_any().is_none());
    }

    #[test]
    fn inline_completions_never_block_the_submitting_consumer() {
        // The rejection/shutdown delivery happens on the submitting
        // thread, which in the single-consumer pattern is also the only
        // thread draining the set: with a capacity-1 queue, the second
        // submission would deadlock if inline delivery honored the
        // bound.  (Regression test for the submit-path deadlock.)
        let rt = Runtime::with_workers(2);
        let set = CompletionSet::with_capacity(1);
        rt.begin_shutdown();
        let pat = pattern(213);
        for t in 0..3 {
            rt.submit_tagged(
                JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)),
                t,
                &set,
            );
        }
        let mut tokens = Vec::new();
        while let Some(c) = set.wait_any() {
            assert_eq!(
                c.result.error.as_ref().unwrap().kind,
                JobErrorKind::Shutdown
            );
            tokens.push(c.token);
        }
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1, 2], "no inline event may be lost");
    }

    #[test]
    fn submit_callback_pushes_the_completion() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(211);
        let delivered = Arc::new(Mutex::new(Vec::<Completion>::new()));
        let sink = delivered.clone();
        rt.submit_callback(
            JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)),
            42,
            move |c| sink.lock().unwrap().push(c),
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if !delivered.lock().unwrap().is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "callback never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        let got = delivered.lock().unwrap();
        assert_eq!(got.len(), 1, "callback fires exactly once");
        assert_eq!(got[0].token, 42);
        assert!(got[0].result.error.is_none());
        assert_eq!(
            got[0].result.output.as_i64().unwrap(),
            sequential_reduce_i64(&pat)
        );
    }

    #[test]
    fn adaptive_on_pool_matches_oracle() {
        let rt = Runtime::with_workers(3);
        let pat = pattern(11);
        let mut smart = rt.adaptive(77, false);
        let (out, log) = smart.execute(&pat, &|_i, r| contribution(r));
        assert!(log.characterized);
        let oracle = sequential_reduce(&pat);
        for (a, b) in oracle.iter().zip(out.iter()) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
        rt.persist_adaptive(&smart);
        assert!(!rt.profile_snapshot().is_empty());
    }

    /// An overlapping sliding-window pattern the simplification
    /// recognizer accepts: row `i` reads the `width` consecutive
    /// elements starting at `(i * stride) % (n - width + 1)`.
    pub(crate) fn window_pattern(
        n: usize,
        iters: usize,
        width: usize,
        stride: usize,
    ) -> Arc<smartapps_workloads::AccessPattern> {
        let rows: Vec<Vec<u32>> = (0..iters)
            .map(|i| {
                let lo = (i * stride) % (n - width + 1);
                (lo..lo + width).map(|x| x as u32).collect()
            })
            .collect();
        Arc::new(smartapps_workloads::AccessPattern::from_iters(n, &rows))
    }

    /// Direct per-element oracle for an iteration-uniform i64 body:
    /// every reference of iteration `i` posts `f(i)`.
    pub(crate) fn direct_uniform_i64(
        pat: &smartapps_workloads::AccessPattern,
        f: impl Fn(usize) -> i64,
    ) -> Vec<i64> {
        let mut out = vec![0i64; pat.num_elements];
        for i in 0..pat.num_iterations() {
            let v = f(i);
            for slot in pat.ref_range(i) {
                let e = pat.indices[slot] as usize;
                out[e] = out[e].wrapping_add(v);
            }
        }
        out
    }
}

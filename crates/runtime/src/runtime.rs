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
//! output (see `smartapps_reductions::run_fused_on`) — instead of merely sharing
//! the decision.  Every inspector product is remembered once per pattern
//! allocation, in the runtime's pattern registry (the `registry` module):
//! submission signs a job there and the job carries its entry, so
//! whichever dispatcher pops it reuses what any other already paid.
//! The worker pool does the heavy lifting; each dispatcher
//! participates as `tid 0` of its own SPMD regions, so no core idles
//! while it "waits".

use crate::backend::{PclrBackend, PclrConfig, SimdBackend, SoftwareBackend};
use crate::completion::{CompletionSet, CompletionSink};
use crate::dispatch::{dispatcher_loop, finish, Exit};
use crate::error::JobError;
use crate::intern::PatternInterner;
use crate::job::{JobHandle, JobResult, JobSpec, JobState, PatternSignature};
use crate::pool::WorkerPool;
use crate::profile::ProfileStore;
use crate::queue::{QueuedJob, ShardedQueue};
use crate::registry::{PatternCache, Registry, WidthFacts};
use crate::stats::{RuntimeStats, StatsSnapshot};
use crate::telemetry::{RuntimeTelemetry, SlowJob};
use smartapps_core::adaptive::AdaptiveReduction;
use smartapps_core::calibrate::Calibrator;
use smartapps_core::toolbox::DomainKey;
use smartapps_core::DecisionRecord;
use smartapps_reductions::{simd_feasible, DecisionModel, Scheme, SpmdExecutor};
use smartapps_telemetry::Exemplar;
use smartapps_workloads::AccessPattern;
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

/// Pattern allocations the registry remembers (signatures per width and
/// every inspector product; see the `registry` module).
const SIGNATURE_MEMO_CAP: usize = 64;

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
    /// Iterations sampled when computing pattern signatures — sampled
    /// once per pattern allocation and SPMD width: resubmitting the same
    /// `Arc` reuses the signature its first submission computed.
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
    /// The process's one learner, shared with every `Runtime::adaptive`
    /// loop.
    calibrator: Arc<Mutex<Calibrator>>,
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
    /// The pattern registry: per *valid* pattern allocation, its
    /// signature per SPMD width and its inspector products; see
    /// [`Shared::sign`].
    registry: Mutex<Registry>,
    /// Test seam: when set, it replaces the backend cost sample of every
    /// single job that ran (what the job learns from, records and
    /// reports), so mechanism tests script what a clock would measure.
    #[cfg(test)]
    pub(crate) scripted_cost: Mutex<Option<CostScript>>,
}

/// A scripted single-job cost per scheme (the test seam's type).
#[cfg(test)]
type CostScript = Box<dyn Fn(Scheme) -> Duration + Send>;

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
    /// lock.  `predicted_units` gives the raw analytic cost: the one a
    /// decision already priced, or — on the per-job path — one computed
    /// here from the calibrator's model, so the hot path locks once, not
    /// twice.  Returns the calibrator's residual (measured over its
    /// pre-sample estimate), which the dispatcher's drift check reads.
    pub(crate) fn learn(
        &self,
        scheme: Scheme,
        domain: DomainKey,
        fused: bool,
        predicted_units: impl FnOnce(&DecisionModel) -> f64,
        measured: Duration,
    ) -> Option<f64> {
        let residual = {
            let mut cal = self.calibrator();
            let raw = predicted_units(&cal.model);
            cal.observe(scheme, domain, fused, raw, measured.as_nanos() as f64)
        }?;
        let ppm = ((1.0 / residual - 1.0).abs() * 1e6).min(u64::MAX as f64) as u64;
        RuntimeStats::add(&self.stats.calibration_updates, 1);
        RuntimeStats::add(&self.stats.pred_err_sum_micros, ppm);
        // The counters keep the mean; the histogram keeps the
        // *distribution* of per-sample prediction error.
        self.telemetry.record_predict_err_ppm(scheme, ppm);
        Some(residual)
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
        if let (Some(wall_per_ref), Some(cycles_per_ref)) = *entry {
            if cycles_per_ref > 0.0 {
                pclr.fit_cycle_ns(wall_per_ref / cycles_per_ref);
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

    /// Lock the registry (poison-tolerant: every update under the lock
    /// leaves it valid).
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The registry entry `pat` is queued under at `threads` — its
    /// signature and the products dispatchers fill — or why it is
    /// rejected.  Validation and [`PatternSignature::of`] run outside the
    /// lock on the first submission of an allocation at a width; later
    /// submissions of the same `Arc` hit.  Only a valid pattern is
    /// registered, and a hit vouches for exactly the content that was
    /// validated (the registry's live `Weak` freezes the allocation, see
    /// [`PatternCache`]).
    fn sign(&self, pat: &Arc<AccessPattern>, threads: usize) -> Result<Arc<WidthFacts>, String> {
        if let Some(facts) = self.registry().lookup(pat, threads) {
            return Ok(facts);
        }
        pat.validate()?;
        let sig = PatternSignature::of(pat, self.sample_iters, threads);
        Ok(self.registry().register(pat, threads, sig))
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
            calibrator: Arc::new(Mutex::new(calibrator)),
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
            registry: Mutex::new(PatternCache::new(SIGNATURE_MEMO_CAP)),
            #[cfg(test)]
            scripted_cost: Mutex::new(None),
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
    /// Validation and [`PatternSignature::of`] run on the first submission
    /// of a pattern allocation at an SPMD width; resubmitting the same
    /// `Arc` at that width reuses the result.  Rejection is unchanged by
    /// this: an invalid pattern is never remembered, so every submission
    /// of it is rejected, and a pattern changed through `Arc::make_mut`
    /// lands in a new allocation and is validated afresh.
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
    /// racing a shutdown — produces **exactly one**
    /// [`Completion`](crate::Completion) on the set, carrying the same
    /// [`JobResult`] (fused, offloaded, quarantined, or failed) a
    /// [`JobHandle`] would have seen.  Returns the signature the job was
    /// queued under ([`PatternSignature(0)`](PatternSignature) for a
    /// rejected job); validation and signing are memoized per pattern
    /// allocation and width exactly as in [`submit`](Runtime::submit),
    /// with the same rejection semantics.
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

    /// The shared submission path: sign (validating on a registry miss),
    /// queue — or complete the sink immediately with the
    /// rejection/shutdown error.  Every sink is completed exactly once,
    /// here or by a dispatcher.
    fn submit_sink(&self, mut spec: JobSpec, sink: CompletionSink) -> PatternSignature {
        let threads = spec
            .threads
            .unwrap_or(self.width())
            .clamp(1, MAX_SPMD_THREADS);
        spec.threads = Some(threads);
        RuntimeStats::add(&self.shared.stats.submitted, 1);
        let facts = match self.shared.sign(&spec.pattern, threads) {
            Ok(facts) => facts,
            Err(e) => {
                let error = JobError::rejected(format!("invalid access pattern: {e}"));
                let sig = PatternSignature(0);
                let exit = Exit::failed(&spec.body, error);
                finish(&self.shared, sig, sink, exit, None);
                return sig;
            }
        };
        let sig = facts.sig;
        if let Err(job) = self.shared.queue.push(QueuedJob {
            spec,
            facts,
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
    /// worker pool and which decides from and learns into this runtime's
    /// calibrator: its samples persist as `corr` records at shutdown, and
    /// corrections the service learned (or a previous process persisted)
    /// steer its decisions.  Learning is per functioning domain; `loop_id`
    /// only labels the loop.
    pub fn adaptive(&self, loop_id: u64, lw_feasible: bool) -> AdaptiveReduction {
        let mut adaptive =
            AdaptiveReduction::with_executor(loop_id, self.width(), lw_feasible, self.executor());
        adaptive.calibrator = self.shared.calibrator.clone();
        adaptive
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
    /// uncollapsed "why" behind the scheme the class's jobs last ran
    /// under a decision: feature vector at the decision's fanout,
    /// analytic-vs-corrected candidate cost table, feasibility masks, and
    /// the gate verdicts, published complete once per decision.  `None`
    /// until a decision has run for the class (profile fast-path hits
    /// reuse the stored decision without re-ranking, so the record may
    /// be older than the last job).
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
    use crate::completion::Completion;
    use crate::error::JobErrorKind;
    use crate::profile::ProfileEntry;
    use crate::registry::tests::unregistered;
    use smartapps_core::toolbox::DRIFT_MIN_RUNS;
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

    /// Per-scheme single-job costs for the scripted-cost seam (100 µs
    /// for a scheme not listed).
    type Costs = Arc<Mutex<HashMap<Scheme, Duration>>>;

    /// A scalar-only, one-dispatcher service whose single-job cost
    /// samples come from `costs` instead of a clock.
    fn scripted(calibration: CalibrationConfig, profile_path: Option<PathBuf>) -> (Runtime, Costs) {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            simd: false,
            calibration,
            profile_path,
            ..RuntimeConfig::default()
        });
        let costs = Costs::default();
        let script = costs.clone();
        *rt.shared.scripted_cost.lock().unwrap() = Some(Box::new(move |s| {
            let costs = script.lock().unwrap();
            costs.get(&s).copied().unwrap_or(Duration::from_micros(100))
        }));
        (rt, costs)
    }

    /// Run one job of `pat`'s class alone.
    fn run_one(rt: &Runtime, pat: &Arc<AccessPattern>) -> JobResult {
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none());
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(pat));
        r
    }

    /// Feed `n` samples of `scheme` measuring `ns` each, at its analytic
    /// cost in `rec`, to the calibrator under `domain`.
    fn observe(
        rt: &Runtime,
        rec: &DecisionRecord,
        domain: DomainKey,
        scheme: Scheme,
        ns: f64,
        n: usize,
    ) {
        let units = rec.candidates.iter().find(|c| c.scheme == scheme).unwrap();
        let mut cal = rt.shared.calibrator();
        for _ in 0..n {
            cal.observe(scheme, domain, false, units.analytic, ns);
        }
    }

    /// The best-ranked feasible software scheme of `rec` other than
    /// `stored`.
    fn rival_of(rec: &DecisionRecord, stored: Scheme) -> Scheme {
        let rival = rec
            .candidates
            .iter()
            .find(|c| c.feasible && c.scheme.is_software() && c.scheme != stored);
        rival.unwrap().scheme
    }

    fn entry(rt: &Runtime, sig: PatternSignature) -> ProfileEntry {
        rt.profile_snapshot().get(sig).cloned().unwrap()
    }

    /// The service's half of the drift policy (the decisions themselves
    /// are `smartapps_core::toolbox`'s step tables): what a due mark, a
    /// recheck and a displacement price, publish, evict and count.
    #[test]
    fn a_drift_recheck_prices_once_and_a_displacing_one_evicts_once() {
        let (rt, costs) = scripted(CalibrationConfig::default(), None);
        let pat = pattern(41);
        let sig = rt.signature_of(&pat);
        let stored = run_one(&rt, &pat).scheme;
        for _ in 0..DRIFT_MIN_RUNS {
            assert!(run_one(&rt, &pat).profile_hit);
        }
        let before = rt.explain(sig).unwrap();
        // A rival that looks far cheaper, measured in another functioning
        // domain only: no evidence here.
        let rival = rival_of(&before, stored);
        let elsewhere = DomainKey {
            dim_bucket: before.domain.dim_bucket + 1,
            ..before.domain
        };
        observe(&rt, &before, elsewhere, rival, 1_000.0, 8);
        // One sample at 5x the calibrator's estimate marks the entry due
        // and prices nothing.
        let set = |s: Scheme, us: u64| costs.lock().unwrap().insert(s, Duration::from_micros(us));
        set(stored, 500);
        assert!(run_one(&rt, &pat).profile_hit);
        assert!(entry(&rt, sig).due, "a 5x residual marks the entry due");
        assert!(Arc::ptr_eq(&rt.explain(sig).unwrap(), &before));
        set(stored, 100);
        // The next hit rechecks: one pricing, published once; the entry
        // stays, serves the hit and is no longer due.
        let r = run_one(&rt, &pat);
        assert!(r.profile_hit && r.scheme == stored, "{r:?}");
        let rechecked = rt.explain(sig).unwrap();
        assert!(!Arc::ptr_eq(&rechecked, &before), "the recheck priced");
        assert_eq!(rechecked.candidates[0].scheme, rival, "it ranks first");
        assert!(!rechecked.rechecked && !entry(&rt, sig).due);
        for _ in 0..3 {
            assert_eq!(run_one(&rt, &pat).scheme, stored);
        }
        let priced_once = Arc::ptr_eq(&rt.explain(sig).unwrap(), &rechecked);
        assert!(priced_once, "priced once");
        let stats = rt.stats();
        assert_eq!((stats.evictions, stats.inspections), (0, 1), "no drift");
        // The rival measured here at a tenth of the cost: the next drift
        // recheck displaces the entry, evicted once, and the batch runs
        // and records the rival (not from the store).
        observe(&rt, &before, before.domain, rival, 10_000.0, 8);
        set(rival, 10);
        set(stored, 5_000);
        assert_eq!(run_one(&rt, &pat).scheme, stored);
        assert!(entry(&rt, sig).due);
        let r = run_one(&rt, &pat);
        assert!(r.scheme == rival && !r.profile_hit, "{r:?}");
        let displaced = rt.explain(sig).unwrap();
        assert!(displaced.rechecked && displaced.winner == rival);
        let e = entry(&rt, sig);
        assert_eq!((e.scheme, e.runs, e.due), (rival, 1, false));
        // The rival's entry holds: judged hits on target, no more flips.
        for _ in 0..6 {
            let r = run_one(&rt, &pat);
            assert!(r.profile_hit && r.scheme == rival);
        }
        assert_eq!(rt.stats().evictions, 1, "evicted exactly once");
        assert_eq!(rt.explain(sig).unwrap().flips, 1, "switched exactly once");
    }

    #[test]
    fn a_restarted_hit_on_an_uninspected_allocation_pays_one_inspection_and_is_judged() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("judged-restart-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let pat = pattern(49);
        let stored = {
            let (rt, _costs) = scripted(CalibrationConfig::default(), Some(path.clone()));
            let stored = run_one(&rt, &pat).scheme;
            for _ in 0..DRIFT_MIN_RUNS {
                run_one(&rt, &pat);
            }
            rt.shutdown();
            stored
        };
        let (rt, costs) = scripted(CalibrationConfig::default(), Some(path.clone()));
        let sig = rt.signature_of(&pat);
        // A new allocation of the class, never inspected by this process:
        // the judged hit pays its inspection once, learns, and its 5x
        // residual (against the persisted corrections) marks it due.
        let copy = Arc::new(AccessPattern::clone(&pat));
        costs
            .lock()
            .unwrap()
            .insert(stored, Duration::from_micros(500));
        let r = run_one(&rt, &copy);
        assert!(r.profile_hit && r.scheme == stored);
        let stats = rt.stats();
        assert_eq!(stats.inspections, 1, "the judged hit inspects once");
        assert_eq!(stats.calibration_updates, 1, "and learns");
        assert!(entry(&rt, sig).due, "and is judged");
        assert!(rt.explain(sig).is_none(), "a hit priced nothing");
        costs.lock().unwrap().clear();
        let r = run_one(&rt, &copy);
        assert!(r.profile_hit && r.scheme == stored);
        assert_eq!(
            rt.explain(sig).unwrap().winner,
            stored,
            "the recheck priced"
        );
        let stats = rt.stats();
        assert_eq!((stats.inspections, stats.evictions), (1, 0));
        assert!(!entry(&rt, sig).due);
        drop(rt);
        let _ = std::fs::remove_file(&path);
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
        let first = rt.explain(sig).unwrap();
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(r.scheme.is_software(), "masked pclr must fall back");
        assert!(r.sim_cycles.is_none());
        assert!(!r.profile_hit, "a masked decision is not a profile hit");
        // The masked re-decide is a decision of its own: one published
        // record, carried by the job, with `pclr` infeasible — and no
        // record naming the unrunnable scheme on the way, so the winner
        // never left the software pick.
        let rec = rt.explain(sig).unwrap();
        assert!(!Arc::ptr_eq(&rec, &first), "the re-decide published");
        assert_eq!((rec.winner, rec.backend), (r.scheme, "software"));
        let pclr = rec.candidates.iter().find(|c| c.scheme == Scheme::Pclr);
        assert!(!pclr.unwrap().feasible, "the masked scheme is infeasible");
        assert_eq!((first.winner, rec.flips), (r.scheme, 0));
        let slow = rt.slowlog(64);
        let mut carried = slow.iter().filter(|e| e.class == sig.0);
        assert!(carried.any(|e| Arc::ptr_eq(e.payload.record.as_ref().unwrap(), &rec)));
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

    /// A profile file whose `corr` records price `cheap` at 1/64 of the
    /// machine scale in `domain` and every other scheme at 64x, so a
    /// runtime started on it ranks `cheap` first whatever the model says.
    fn corr_file(name: &str, domain: DomainKey, cheap: &[Scheme]) -> PathBuf {
        use smartapps_core::calibrate::{CorrLevel, Correction};
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.txt", std::process::id()));
        let schemes = Scheme::all_parallel().into_iter();
        let mut state = vec![(CorrLevel::Global, Correction::seeded(1.0, 1000))];
        for s in schemes.chain([Scheme::Pclr, Scheme::Simd]) {
            let ns_per_unit = if cheap.contains(&s) { 1.0 / 64.0 } else { 64.0 };
            let level = CorrLevel::Class(s, domain, false);
            state.push((level, Correction::seeded(ns_per_unit, 1000)));
        }
        let mut store = ProfileStore::new();
        store.set_calibration(state);
        store.save(&path).unwrap();
        path
    }

    #[test]
    fn persisted_corrections_steer_the_adaptive_loops_first_decision() {
        let pat = pattern(43);
        let domain = DomainKey::of(&Inspector::analyze(&pat, 2).chars);
        let body = |_i: usize, r: usize| contribution(r);
        // Analytically, this dense uniform class does not pick hash.
        let plain = Runtime::with_workers(2);
        let (_, log) = plain.adaptive(9, false).execute(&pat, &body);
        assert_ne!(log.scheme, Scheme::Hash);
        // Corrections loaded at startup that make hash cheapest here win
        // the loop's first decision.
        let path = corr_file("steer-hash", domain, &[Scheme::Hash]);
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            profile_path: Some(path.clone()),
            ..RuntimeConfig::default()
        });
        let (out, log) = rt.adaptive(9, false).execute(&pat, &body);
        assert!(log.characterized);
        assert_eq!(log.scheme, Scheme::Hash, "persisted corrections must steer");
        for (a, b) in sequential_reduce(&pat).iter().zip(out.iter()) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
        rt.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn backend_corrections_never_reach_the_adaptive_loop() {
        // The shared calibrator *and* the model call pclr and simd nearly
        // free for this class, yet the loop executes through
        // `run_scheme_on`, which has no backend schemes: it must never
        // pick one, and its answers must stay oracle-exact.
        let pat = sim_pattern(31);
        let domain = DomainKey::of(&Inspector::analyze(&pat, 2).chars);
        let path = corr_file("backend-cheap", domain, &[Scheme::Pclr, Scheme::Simd]);
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            pclr: Some(crate::PclrConfig::default()),
            model: DecisionModel::new(smartapps_reductions::ModelParams {
                pclr_update: 0.0,
                pclr_flush_line: 0.0,
                pclr_offload_fixed: 0.0,
                simd_update: 0.0,
                simd_init_elem: 0.0,
                simd_merge_elem: 0.0,
                ..smartapps_reductions::ModelParams::default()
            }),
            profile_path: Some(path.clone()),
            ..RuntimeConfig::default()
        });
        let served = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(!served.scheme.is_software(), "the service takes a backend");
        let mut smart = rt.adaptive(12, false);
        let oracle = sequential_reduce(&pat);
        for _ in 0..4 {
            let (out, log) = smart.execute(&pat, &|_i, r| contribution(r));
            assert!(log.scheme.is_software(), "loop picked {}", log.scheme);
            for (a, b) in oracle.iter().zip(out.iter()) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
            }
        }
        rt.shutdown();
        let _ = std::fs::remove_file(&path);
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
    fn an_explored_batch_feeds_neither_the_profile_nor_a_hit() {
        // Batch 1 decides and records the class; batch 2 takes the
        // exploration slot (which scheme it picks is the step's).
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            calibration: CalibrationConfig {
                explore_every: 2,
                ..CalibrationConfig::default()
            },
            ..RuntimeConfig::default()
        });
        let pat = pattern(86);
        let first = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert!(!first.profile_hit);
        let explored = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        assert_eq!(rt.stats().explored, 1);
        assert_eq!(
            explored.output.as_i64().unwrap(),
            sequential_reduce_i64(&pat)
        );
        assert!(
            !explored.profile_hit,
            "an explored pick must not claim to come from the store"
        );
        let e = entry(&rt, rt.signature_of(&pat));
        assert_eq!(
            (e.scheme, e.runs),
            (first.scheme, 1),
            "the entry is not fed"
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
        let decided = rt
            .explain(sig)
            .expect("the panicking jobs' decision was published");
        assert_eq!(decided.quarantine, GateVerdict::declined("clear"));
        let r = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let err = r.error.expect("quarantined class must fail fast");
        assert_eq!(err.kind, JobErrorKind::Quarantined);
        assert!(err.message.contains("3 consecutive"), "{err}");
        // `explain` shows the fail-fast: the latest record, republished
        // with the quarantine gate fired.
        let rec = rt.explain(sig).unwrap();
        assert_eq!(rec.quarantine, GateVerdict::fired("panic-streak"));
        assert_eq!((rec.winner, rec.flips), (decided.winner, decided.flips));
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
            facts: unregistered(PatternSignature(0xbad), 2),
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

    /// Run an i64 job over `pat` at `threads`; its signature and result.
    fn signed(
        rt: &Runtime,
        pat: &Arc<AccessPattern>,
        threads: usize,
    ) -> (PatternSignature, JobResult) {
        let h =
            rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)).with_threads(threads));
        (h.signature(), h.wait())
    }

    #[test]
    fn signature_memo_scopes_an_allocation_by_width() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(301);
        let of = |t| PatternSignature::of(&pat, rt.shared.sample_iters, t);
        assert_ne!(of(2), of(3), "the width is part of the class");
        let sigs = [2, 3, 2, 3].map(|t| signed(&rt, &pat, t).0);
        assert_eq!(sigs, [of(2), of(3), of(2), of(3)]);
    }

    #[test]
    fn signature_memo_gives_equal_content_the_first_allocations_signature() {
        let rt = Runtime::with_workers(2);
        let pat = pattern(303);
        let twin = Arc::new(AccessPattern::clone(&pat));
        assert_eq!(signed(&rt, &pat, 2).0, signed(&rt, &twin, 2).0);
    }

    #[test]
    fn signature_memo_never_remembers_an_invalid_pattern() {
        let rt = Runtime::with_workers(2);
        let broken = Arc::new(AccessPattern {
            num_elements: 2,
            iter_ptr: vec![0, 1],
            indices: vec![7],
        });
        let kinds: Vec<_> = (0..2)
            .map(|_| signed(&rt, &broken, 2).1.error.map(|e| e.kind))
            .collect();
        assert_eq!(kinds, vec![Some(JobErrorKind::Rejected); 2]);
    }

    #[test]
    fn signature_memo_revalidates_a_pattern_changed_through_make_mut() {
        let rt = Runtime::with_workers(2);
        let mut pat = pattern(305);
        assert!(signed(&rt, &pat, 2).1.error.is_none());
        // The registry's live `Weak` (or a clone the dispatcher still holds)
        // makes `make_mut` write to a new allocation it never saw.
        let n = pat.num_elements as u32;
        Arc::make_mut(&mut pat).indices[0] = n;
        let kind = signed(&rt, &pat, 2).1.error.map(|e| e.kind);
        assert_eq!(kind, Some(JobErrorKind::Rejected));
    }

    #[test]
    fn signature_memo_equals_pattern_signature_of() {
        // Persisted profile stores are keyed by `PatternSignature::of`;
        // a memo hit must queue under the very same key as the miss.
        let rt = Runtime::with_workers(2);
        let pats = [
            pattern(301),
            pattern(303),
            pattern(305),
            sparse_pattern(307),
            window_pattern(1024, 2048, 16, 5),
        ];
        for pat in &pats {
            let of = PatternSignature::of(pat, rt.shared.sample_iters, 2);
            let sigs = [signed(&rt, pat, 2).0, signed(&rt, pat, 2).0];
            assert_eq!(sigs, [of, of]);
        }
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

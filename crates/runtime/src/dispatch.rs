//! The batch pipeline a dispatcher thread runs, and the one way out of it:
//! every job leaves through [`finish`] — the only code in the crate that
//! builds a [`JobResult`] or a [`TraceEvent`], counts a completion, or
//! completes a [`CompletionSink`] (the two submit-thread exits in
//! `runtime` call it too).  `docs/ARCHITECTURE.md` ("Job exits") draws
//! the pipeline and tabulates what each exit passes in.

use crate::backend::{Backend, ExecRequest};
use crate::completion::CompletionSink;
use crate::error::{JobError, JobErrorKind};
use crate::job::{JobBody, JobOutput, JobResult, JobSpec, PatternSignature};
use crate::profile::ProfileEntry;
use crate::queue::QueuedJob;
use crate::runtime::Shared;
use crate::stats::RuntimeStats;
use crate::telemetry::{domain_label, scheme_code};
use smartapps_core::toolbox::DomainKey;
use smartapps_core::{DecisionRecord, GateVerdict};
use smartapps_reductions::{
    probe_uniform, recognize, run_fused_on, run_scan_group, CostGuard, FusedBody, Inspection,
    Inspector, ModelInput, ScanElem, ScanMatch, Scheme,
};
use smartapps_telemetry::{TraceBackend, TraceError, TraceEvent};
use smartapps_workloads::AccessPattern;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Measured-over-predicted ratio beyond which a profile entry is treated
/// as stale (phase change) and evicted.
const DRIFT_EVICT_RATIO: f64 = 4.0;

/// Profile entries younger than this many runs are never drift-evicted
/// (their calibration is still settling).
pub(crate) const DRIFT_MIN_RUNS: u64 = 3;

/// Consecutive over-ratio samples required before the phase-change guard
/// evicts.  One wild sample is timing noise (a scheduler hiccup, a
/// cache-cold run — common on sub-millisecond jobs); a run of them is a
/// phase change.
const DRIFT_EVICT_STRIKES: u8 = 2;

/// Hysteresis of the calibration recheck: a profiled scheme is displaced
/// only when the corrected challenger undercuts it by at least this
/// factor, so photo-finish classes do not flip-flop between rechecks.
const RECHECK_MARGIN: f64 = 0.85;

pub(crate) fn dispatcher_loop(shared: &Shared, id: usize) {
    let mut cache = PatternCache::new(64);
    let mut scans = PatternCache::new(32);
    while let Some(pop) = shared.queue.pop_batch_for(id, shared.max_batch) {
        if pop.stolen {
            RuntimeStats::add(&shared.stats.steals, 1);
        }
        process_batch(shared, &mut cache, &mut scans, pop.jobs);
    }
}

/// How a job leaves the service: what the client sees, plus what the
/// trace records about the kernel run (if one happened).
pub(crate) struct Exit {
    pub output: JobOutput,
    pub scheme: Scheme,
    pub elapsed: Duration,
    pub sim_cycles: Option<u64>,
    pub profile_hit: bool,
    pub error: Option<JobError>,
    /// Jobs sharing the kernel run (0: none ran, 1: own traversal, K: a
    /// scan/fused group) — the trace's `fused` tag, `fused_with + 1`.
    pub group: usize,
    pub backend: TraceBackend,
    /// When the kernel returned; `None` stops the trace at `queued`
    /// (scheme tag `u8::MAX`, no stage attribution).
    pub executed_at: Option<Instant>,
    pub simplify_ns: u64,
}

impl Exit {
    /// The fail-fast exit (rejected, shutdown-raced, quarantined,
    /// poisoned decision): empty output, [`Scheme::Seq`], zero cost.
    pub(crate) fn failed(body: &JobBody, error: JobError) -> Exit {
        Exit {
            output: empty_output(body),
            scheme: Scheme::Seq,
            elapsed: Duration::ZERO,
            sim_cycles: None,
            profile_hit: false,
            error: Some(error),
            group: 0,
            backend: TraceBackend::Software,
            executed_at: None,
            simplify_ns: 0,
        }
    }
}

/// The single job exit.  Counts the completion, traces the lifecycle,
/// and only then wakes the sink, so a client reading stats or the trace
/// ring right after its completion never finds its own job missing.
/// `via` is the dispatcher-side half of the exit: the job's batch, its
/// submission instant, and the decision record its trace carries.
/// Submit-thread exits pass `None`; they are not traced and deliver
/// inline — the submitter may be the completion set's only consumer, so
/// they must never block on its bound.
pub(crate) fn finish(
    shared: &Shared,
    sig: PatternSignature,
    sink: CompletionSink,
    exit: Exit,
    via: Option<(&BatchCtx, Instant, Option<Arc<DecisionRecord>>)>,
) {
    RuntimeStats::add(&shared.stats.completed, 1);
    let batch = via.as_ref().map(|via| via.0);
    if let Some((batch, submitted_at, record)) = via {
        let tel = &shared.telemetry;
        let ran = exit.executed_at;
        tel.record_lifecycle(
            &TraceEvent {
                signature: sig.0,
                submitted_ns: tel.instant_ns(submitted_at),
                queued_ns: tel.instant_ns(batch.dequeued_at),
                decided_ns: ran.map_or(0, |_| tel.instant_ns(batch.decided_at)),
                executed_ns: ran.map_or(0, |at| tel.instant_ns(at)),
                completed_ns: tel.now_ns(),
                scheme: ran.map_or(u8::MAX, |_| scheme_code(exit.scheme)),
                backend: exit.backend,
                error: match exit.error.as_ref().map(|e| e.kind) {
                    None => TraceError::None,
                    Some(JobErrorKind::Quarantined) => TraceError::Quarantined,
                    Some(_) => TraceError::Panicked,
                },
                fused: exit.group.min(u16::MAX as usize) as u16,
                simplify_ns: exit.simplify_ns,
            },
            record,
        );
    }
    let result = JobResult {
        output: exit.output,
        scheme: exit.scheme,
        elapsed: exit.elapsed,
        sim_cycles: exit.sim_cycles,
        profile_hit: exit.profile_hit,
        batched_with: batch.map_or(0, |b| b.batched_with),
        fused_with: exit.group.saturating_sub(1),
        error: exit.error,
    };
    if batch.is_some() {
        sink.complete(sig, result);
    } else {
        sink.complete_inline(sig, result);
    }
}

/// Fail `jobs` of one batch fast with `error`, before any kernel runs: a
/// quarantined class (per batch, or per job once the class crosses the
/// threshold mid-batch) or a poisoned scheme decision.
fn fail_fast(
    shared: &Shared,
    ctx: &BatchCtx,
    jobs: impl IntoIterator<Item = QueuedJob>,
    error: &JobError,
) {
    let tel = &shared.telemetry;
    let quarantined = error.kind == JobErrorKind::Quarantined;
    if quarantined {
        tel.amend_decision(ctx.sig.0, |r| {
            r.quarantine = GateVerdict::fired("panic-streak")
        });
    }
    let record = tel.decision(ctx.sig.0);
    for job in jobs {
        if quarantined {
            RuntimeStats::add(&shared.stats.quarantined, 1);
        }
        finish(
            shared,
            job.sig,
            job.sink,
            Exit::failed(&job.spec.body, error.clone()),
            Some((ctx, job.submitted_at, record.clone())),
        );
    }
}

/// A small FIFO cache of per-pattern analyses, living across batches in
/// each dispatcher (shard affinity keeps a workload class on one
/// dispatcher, which keeps it warm), keyed by the pattern's *allocation
/// address* plus an extra key `X`.  An address can be reused after the
/// original `Arc` dies, so an entry only hits when its stored [`Weak`]
/// still upgrades to *the same allocation* the job carries.
///
/// Two instances per dispatcher: inspector analyses per (pattern, SPMD
/// width), so a profiled `sel`/`lw` class does not re-inspect on every
/// invocation; and *positive* recognizer walks per pattern (`X = ()`),
/// keeping the simplification pass's O(R) walk off the steady-state
/// path.  Negative walks persist per signature in the profile store
/// (`simp` records) instead and short-circuit before the walk.
struct PatternCache<X, V> {
    entries: HashMap<(usize, X), (Weak<AccessPattern>, V)>,
    order: VecDeque<(usize, X)>,
    cap: usize,
}

impl<X: Copy + Eq + Hash, V> PatternCache<X, V> {
    fn new(cap: usize) -> Self {
        PatternCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The value cached for this exact pattern allocation, if any.
    fn get(&self, pat: &Arc<AccessPattern>, extra: X) -> Option<&V> {
        let (weak, value) = self.entries.get(&(Arc::as_ptr(pat) as usize, extra))?;
        weak.upgrade()
            .is_some_and(|live| Arc::ptr_eq(&live, pat))
            .then_some(value)
    }

    /// Cache `value`, replacing a (necessarily stale) entry under the
    /// same key or else evicting the oldest entry once full.
    fn insert(&mut self, pat: &Arc<AccessPattern>, extra: X, value: V) {
        let key = (Arc::as_ptr(pat) as usize, extra);
        if self.entries.contains_key(&key) {
            self.order.retain(|k| *k != key);
        } else if self.order.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.order.push_back(key);
        self.entries.insert(key, (Arc::downgrade(pat), value));
    }
}

/// The inspector-analysis instance: keyed by SPMD width.
type InspectionCache = PatternCache<usize, Inspection>;

impl InspectionCache {
    /// The inspection of `pat` at `threads`, paying (and counting) an
    /// inspector pass on a miss.  Learning paths use `get` instead: a
    /// calibration sample is worth a map lookup, not a pattern walk (a
    /// restarted service keeps its zero-inspection steady state).
    fn analyze(
        &mut self,
        pat: &Arc<AccessPattern>,
        threads: usize,
        stats: &RuntimeStats,
    ) -> Inspection {
        if let Some(insp) = self.get(pat, threads) {
            return insp.clone();
        }
        RuntimeStats::add(&stats.inspections, 1);
        let insp = Inspector::analyze(pat, threads);
        self.insert(pat, threads, insp.clone());
        insp
    }
}

/// Render a panic payload into a job error message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".into())
}

/// Run job-derived code (a body, an inspector walk over a client
/// pattern) behind a panic fence: unwinding a dispatcher would hang
/// every pending handle.
fn fenced<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// The SPMD width a job runs at (pinned at submission; the pool width
/// covers specs queued without one).
fn threads_of(shared: &Shared, spec: &JobSpec) -> usize {
    spec.threads.unwrap_or(shared.pool.width()).max(1)
}

/// The empty output matching a body's flavor (for failed jobs).
fn empty_output(body: &JobBody) -> JobOutput {
    match body {
        JobBody::F64(_) => JobOutput::F64(Vec::new()),
        JobBody::I64(_) => JobOutput::I64(Vec::new()),
    }
}

/// Per-batch bookkeeping shared by every exit of the batch's jobs.
pub(crate) struct BatchCtx {
    sig: PatternSignature,
    batched_with: usize,
    profile_hit: bool,
    profiled: Option<ProfileEntry>,
    /// When the dispatcher popped this batch and when its scheme decision
    /// landed — the `queued`/`decided` timestamps of every member's trace
    /// event (`decided_at` is the pop instant until the decision returns).
    dequeued_at: Instant,
    decided_at: Instant,
    /// Once one job of the batch detects drift and evicts the entry, no
    /// later batch-mate may resurrect it (their measurements rode the same
    /// stale decision) and the logical eviction is counted once.
    evicted_this_batch: bool,
    /// The batch scheme is an exploration pick (runner-up executed to
    /// gather a calibration sample): feed the calibrator, never the
    /// profile store.
    explored: bool,
    /// Wall time the simplification gate spent on the current group
    /// before handing it back (recognizer walk, uniformity probe, an
    /// abandoned scan) — attributed to the group members' `simplify`
    /// stage instead of inflating `exec`.  Reset per group by
    /// [`try_simplify`]; 0 when the gate never ran.
    simplify_probe_ns: u64,
}

/// The outcome of [`decide_batch`]: which scheme the batch runs, and
/// whether the pick was an exploration sample or a calibration recheck
/// that evicted the profile entry.
struct BatchDecision {
    scheme: Scheme,
    explored: bool,
    rechecked: bool,
}

/// One scheme decision for a coalesced batch.
///
/// The fast path: a profile hit runs the stored scheme with no
/// inspection, a miss pays one inspection and takes the (corrected)
/// ranking's best.  Two calibration-driven detours, both off by default
/// ([`CalibrationConfig`](crate::CalibrationConfig)):
///
/// * **Exploration** — every `explore_every`-th batch executes the
///   best-ranked feasible software scheme that still lacks measured
///   evidence in this functioning domain (never the scheme that would
///   run anyway), so corrections get the cross-scheme samples they need;
///   self-terminating once the domain is calibrated.
/// * **Recheck** — every `recheck_every`-th profile hit re-ranks under
///   the corrected model; when a measured-confident scheme now beats the
///   stored one, the entry is evicted (the caller records fresh truth) —
///   the paper's "Redecide" adaptation driven by calibration.
fn decide_batch(
    shared: &Shared,
    cache: &mut InspectionCache,
    first: &QueuedJob,
    profiled: Option<&ProfileEntry>,
) -> BatchDecision {
    let keep = |scheme: Scheme| BatchDecision {
        scheme,
        explored: false,
        rechecked: false,
    };
    let explore_now = shared.explore_every > 0 && {
        let n = shared.explore_ticks.fetch_add(1, Ordering::Relaxed);
        (n + 1).is_multiple_of(shared.explore_every as u64)
    };
    // Recheck cadence is per-entry (keyed on its recorded-run count):
    // interleaved classes recheck independently instead of aliasing
    // against a global counter.
    let recheck_now = shared.recheck_every > 0
        && profiled.is_some_and(|e| e.runs.is_multiple_of(shared.recheck_every as u64));
    if !explore_now && !recheck_now {
        if let Some(e) = profiled {
            return keep(e.scheme);
        }
    }
    let threads = threads_of(shared, &first.spec);
    let insp = cache.analyze(&first.spec.pattern, threads, &shared.stats);
    let domain = DomainKey::of(&insp.chars);
    let input = ModelInput::from_inspection(&insp, first.spec.lw_feasible)
        .with_pclr(shared.pclr_admits(&first.spec.pattern))
        .with_simd(shared.simd_admits(&insp.chars));
    let cal = shared.calibrator();
    let ranking = cal.rank(&input, domain);
    let decision = (|| {
        if explore_now {
            let would_run = profiled.map_or(ranking[0].0, |e| e.scheme);
            // Class-level confidence gates the slot: a scheme measured in
            // *other* domains still lacks samples here, and corrections do
            // not transfer across domains without them.
            let target = ranking.iter().find(|(s, c)| {
                c.is_finite()
                    && s.is_software()
                    && *s != would_run
                    && cal.class_confidence(*s, domain, false) < 0.5
            });
            if let Some(&(target, _)) = target {
                RuntimeStats::add(&shared.stats.explored, 1);
                return BatchDecision {
                    explored: true,
                    ..keep(target)
                };
            }
        }
        match profiled {
            Some(e) => {
                let (best, best_cost) = ranking[0];
                let entry_cost = ranking
                    .iter()
                    .find(|(s, _)| *s == e.scheme)
                    .map_or(f64::INFINITY, |(_, c)| *c);
                if recheck_now
                    && best != e.scheme
                    && cal.evidence(best, domain, false)
                    && best_cost < RECHECK_MARGIN * entry_cost
                {
                    return BatchDecision {
                        rechecked: true,
                        ..keep(best)
                    };
                }
                keep(e.scheme)
            }
            None => keep(ranking[0].0),
        }
    })();
    // Every fresh ranking leaves its uncollapsed provenance in the
    // ledger: the winner is the scheme the batch actually runs (which an
    // exploration slot or a kept profile entry may pull away from the
    // table's top row), and quarantine is stamped `clear` because a
    // blocked class would have failed fast before reaching the decision.
    let mut record = cal.explain(&input, domain);
    drop(cal);
    record.winner = decision.scheme;
    record.explored = decision.explored;
    record.rechecked = decision.rechecked;
    record.quarantine = GateVerdict::declined("clear");
    shared.telemetry.record_decision(first.sig.0, record);
    decision
}

/// A fusion decision for one fusable group: which scheme sweeps, in which
/// functioning domain, at what raw (uncorrected) predicted cost — the
/// calibration sample the sweep's measurement is compared against.
struct FusePlan {
    scheme: Scheme,
    domain: DomainKey,
    predicted_units: f64,
    /// The fanout-K model input the prediction was made from (kept for
    /// the post-sweep calibration sample).
    input: ModelInput,
}

/// The calibrated fusion gate.  A group of K ≥ 2 same-pattern jobs fuses
/// when the corrected fanout-K model picks `hash` (analytically validated:
/// one table probe feeds all K outputs), **or** when it picks another
/// software scheme *and* measured fused-side evidence backs that
/// prediction and the corrected fused cost beats K split traversals.
/// Declined groups occasionally run fused anyway as probes
/// (`CalibrationConfig::probe_fused_every`) so the fused side of the
/// `ll`/`rep` regimes can be measured at all.
fn plan_fusion(
    shared: &Shared,
    cache: &mut InspectionCache,
    group: &[QueuedJob],
) -> Option<FusePlan> {
    // Each branch stamps its verdict on the class's decision record
    // (`docs/OBSERVABILITY.md` lists the reason vocabulary).
    let verdict = |v: GateVerdict| {
        shared
            .telemetry
            .amend_decision(group[0].sig.0, move |r| r.fusion = v);
    };
    if group.len() < 2 {
        verdict(GateVerdict::declined("group-of-one"));
        return None;
    }
    let k = group.len();
    let threads = threads_of(shared, &group[0].spec);
    let insp = cache.analyze(&group[0].spec.pattern, threads, &shared.stats);
    let domain = DomainKey::of(&insp.chars);
    let input = ModelInput::from_inspection(&insp, group[0].spec.lw_feasible);
    let cal = shared.calibrator();
    let fused_rank = cal.rank_fused(&input, k, domain);
    let Some(&(scheme, fused_cost)) = fused_rank
        .iter()
        .find(|(s, c)| s.is_software() && c.is_finite())
    else {
        drop(cal);
        verdict(GateVerdict::declined("no-feasible-scheme"));
        return None;
    };
    let fused_input = input.clone().with_fanout(k);
    let predicted_units = cal.model.predict(scheme, &fused_input);
    let fuse_reason = if scheme == Scheme::Hash {
        Some("hash-trusted")
    } else {
        let split_best = cal
            .rank(&input, domain)
            .first()
            .map_or(f64::INFINITY, |r| r.1);
        (cal.fused_evidence(scheme, domain) && fused_cost < k as f64 * split_best)
            .then_some("measured-evidence")
    };
    drop(cal);
    let probe = || {
        let due = shared.probe_fused_every > 0 && {
            let n = shared.declined_fuses.fetch_add(1, Ordering::Relaxed);
            (n + 1).is_multiple_of(shared.probe_fused_every as u64)
        };
        if due {
            RuntimeStats::add(&shared.stats.fuse_probes, 1);
        }
        due.then_some("probe")
    };
    let Some(reason) = fuse_reason.or_else(probe) else {
        verdict(GateVerdict::declined("no-fused-evidence"));
        return None;
    };
    verdict(GateVerdict::fired(reason));
    Some(FusePlan {
        scheme,
        domain,
        predicted_units,
        input: fused_input,
    })
}

/// Partition a same-signature batch into fusable groups: members of one
/// group reduce over the *same* pattern allocation with the same element
/// flavor, SPMD width, `lw` feasibility, and uniform-body declaration,
/// so they can legally share one traversal (and one simplification
/// verdict).  Groups are capped at `max_fuse`; first-seen order is
/// preserved, so `batch[0]` leads the first group.
fn fuse_groups(
    batch: Vec<QueuedJob>,
    max_fuse: usize,
    default_threads: usize,
) -> Vec<Vec<QueuedJob>> {
    type FuseKey = (usize, bool, usize, bool, bool);
    let mut keyed: Vec<(FuseKey, Vec<QueuedJob>)> = Vec::new();
    for job in batch {
        let key: FuseKey = (
            Arc::as_ptr(&job.spec.pattern) as usize,
            matches!(job.spec.body, JobBody::F64(_)),
            job.spec.threads.unwrap_or(default_threads).max(1),
            job.spec.lw_feasible,
            job.spec.uniform_body,
        );
        match keyed.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(job),
            None => keyed.push((key, vec![job])),
        }
    }
    let cap = max_fuse.max(1);
    let mut groups = Vec::new();
    for (_, mut jobs) in keyed {
        while jobs.len() > cap {
            let rest = jobs.split_off(cap);
            groups.push(std::mem::replace(&mut jobs, rest));
        }
        groups.push(jobs);
    }
    groups
}

/// The kernel a fusable group runs through (both turn one walk of the
/// shared pattern into K outputs), with what its accounting needs.
enum GroupKernel<'a> {
    /// The rewritten plan: probe every body's uniformity declaration,
    /// then K difference arrays over one row walk plus one prefix scan
    /// per output.  Carries the recognizer's match and its wall time.
    Scan { m: ScanMatch, recognize_ns: u64 },
    /// One fused sweep under the gate's plan, accumulating every member's
    /// output through stride-K private storage.
    Fused(&'a FusePlan),
}

fn f64_body(body: &JobBody) -> Option<FusedBody<'_, f64>> {
    match body {
        JobBody::F64(f) => Some(&**f),
        JobBody::I64(_) => None,
    }
}

fn i64_body(body: &JobBody) -> Option<FusedBody<'_, i64>> {
    match body {
        JobBody::I64(f) => Some(&**f),
        JobBody::F64(_) => None,
    }
}

/// Collect a group's bodies in one element flavor (`pick` is `None` for
/// the other, which [`fuse_groups`] never lets into the group), run
/// `kernel` over them, and wrap the K outputs.  `None` when a body
/// refutes its uniformity declaration; else outputs plus probe time.
fn run_kernel<'a, T: ScanElem>(
    shared: &Shared,
    cache: &mut InspectionCache,
    kernel: &GroupKernel<'_>,
    group: &'a [QueuedJob],
    pick: fn(&'a JobBody) -> Option<FusedBody<'a, T>>,
    wrap: fn(Vec<T>) -> JobOutput,
) -> Option<(Vec<JobOutput>, u64)> {
    let pat = &group[0].spec.pattern;
    let bodies: Vec<FusedBody<'a, T>> = group
        .iter()
        .map(|j| pick(&j.spec.body).unwrap_or_else(|| unreachable!("fuse group mixes flavors")))
        .collect();
    let (outputs, probe_ns) = match kernel {
        GroupKernel::Scan { .. } => {
            let probe_t0 = Instant::now();
            if bodies.iter().any(|b| !probe_uniform(pat, *b)) {
                return None;
            }
            let probe_ns = probe_t0.elapsed().as_nanos() as u64;
            (run_scan_group(pat, &bodies), probe_ns)
        }
        GroupKernel::Fused(plan) => {
            let threads = threads_of(shared, &group[0].spec);
            // `sel`/`lw` sweeps need the inspector's analysis; it is
            // already cached from the gate's own pass.
            let insp = matches!(plan.scheme, Scheme::Sel | Scheme::Lw)
                .then(|| cache.analyze(pat, threads, &shared.stats));
            let pool = &*shared.pool;
            let outputs = run_fused_on(plan.scheme, pat, &bodies, threads, insp.as_ref(), pool);
            (outputs, 0)
        }
    };
    Some((outputs.into_iter().map(wrap).collect(), probe_ns))
}

/// The single group executor: run a fusable group (same pattern, flavor,
/// width, `lw` mask, uniformity declaration) through `kernel` behind one
/// panic fence, account the run, and finish every member.
///
/// A clean run feeds the *calibrator* (a scan in rewritten-plan units, a
/// sweep as a fused sample) but never the profile store, which holds
/// single-job scheme-sweep truth: a rewritten plan and a fanout-K
/// decision are different operating points.  Members report the run's
/// whole wall time, no profile hit (the recognizer / the fanout-aware
/// model decided, not the store), and `fused_with = K - 1`; a scan
/// reports [`Scheme::Seq`] (sequential semantics, deterministic order).
///
/// A panicking body — or one refuting its uniformity declaration — loses
/// the shared run, never the answer: the group comes back with the reason
/// and the time spent, no counter touched, for the caller to re-run
/// through a path whose own fence pins the panic on the poisoned job.
fn execute_group(
    shared: &Shared,
    cache: &mut InspectionCache,
    ctx: &BatchCtx,
    group: Vec<QueuedJob>,
    kernel: GroupKernel<'_>,
) -> Result<(), (Vec<QueuedJob>, &'static str, Duration)> {
    let k = group.len();
    let t0 = Instant::now();
    let work = fenced(|| match &group[0].spec.body {
        JobBody::F64(_) => run_kernel(shared, cache, &kernel, &group, f64_body, JobOutput::F64),
        JobBody::I64(_) => run_kernel(shared, cache, &kernel, &group, i64_body, JobOutput::I64),
    });
    let elapsed = t0.elapsed();
    let executed_at = Instant::now();
    let (outputs, probe_ns) = match work {
        Err(_) => return Err((group, "panicked", elapsed)),
        Ok(None) => return Err((group, "probe-refuted", elapsed)),
        Ok(Some(out)) => out,
    };
    debug_assert_eq!(outputs.len(), k, "group run lost outputs");

    let tel = &shared.telemetry;
    let stats = &shared.stats;
    let elapsed_ns = elapsed.as_nanos() as u64;
    // Member counters are bumped per *completed* member, not `+= k` up
    // front, so `fused_jobs` is exactly the jobs whose result reports
    // `fused_with > 0` — an abandoned sweep contributes nothing.
    let (scheme, backend, simplify_ns, member_counter) = match kernel {
        GroupKernel::Scan { m, recognize_ns } => {
            tel.record_simplify(m.shape.label(), elapsed_ns);
            // Priced against the *rewritten* plan (one difference-array
            // post per iteration plus one scan, per member) — learning
            // never pays a fresh inspection, mirroring the per-job path.
            let first = &group[0].spec;
            if let Some(insp) = cache.get(&first.pattern, threads_of(shared, first)) {
                let input = ModelInput::from_inspection(insp, first.lw_feasible);
                let units = (m.rewritten_ops * k) as f64;
                let domain = DomainKey::of(&insp.chars);
                shared.learn(Scheme::Seq, domain, false, Some(units), &input, elapsed);
            }
            // Provenance: the gate fired under the recognized shape, and
            // the scan backend (not any scheme sweep) ran the group.  The
            // recognizer walk plus the uniformity probe is the `simplify`
            // stage; the scan itself stays in `exec`.
            tel.amend_decision(ctx.sig.0, |r| {
                r.simplify = GateVerdict::fired(m.shape.label());
                r.backend = "scan";
            });
            let gate_ns = recognize_ns + probe_ns;
            (
                Scheme::Seq,
                TraceBackend::Scan,
                gate_ns,
                &stats.simplified_jobs,
            )
        }
        GroupKernel::Fused(plan) => {
            RuntimeStats::add(&stats.fused_sweeps, 1);
            // One sweep = one execution sample (the sweep's wall time,
            // under the class of the gate's own characterization), and
            // the fused-side calibration sample the fusion gate's
            // fused-vs-split comparison learns from.
            tel.record_exec(plan.scheme, Some(&domain_label(&plan.domain)), elapsed_ns);
            let units = Some(plan.predicted_units);
            shared.learn(plan.scheme, plan.domain, true, units, &plan.input, elapsed);
            tel.amend_decision(ctx.sig.0, |r| r.backend = "software");
            let gate_ns = ctx.simplify_probe_ns;
            (
                plan.scheme,
                TraceBackend::Software,
                gate_ns,
                &stats.fused_jobs,
            )
        }
    };
    // A clean run means every body in the group ran clean.
    shared.note_clean(ctx.sig);
    let record = tel.decision(ctx.sig.0);
    for (job, output) in group.into_iter().zip(outputs) {
        RuntimeStats::add(member_counter, 1);
        finish(
            shared,
            job.sig,
            job.sink,
            Exit {
                output,
                scheme,
                elapsed,
                sim_cycles: None,
                profile_hit: false,
                error: None,
                group: k,
                backend,
                executed_at: Some(executed_at),
                simplify_ns,
            },
            Some((ctx, job.submitted_at, record.clone())),
        );
    }
    Ok(())
}

/// The pre-scheduling simplification pass, run per fusable group before
/// the fusion gate.  Returns `None` when the group executed through the
/// rewritten plan (outputs delivered, nothing left to do) and
/// `Some(group)` to pass it through to the normal fusion/per-job
/// pipeline untouched.
///
/// Eligibility is opt-in: only jobs *declaring* an iteration-uniform
/// body ([`JobSpec::with_uniform_body`](crate::JobSpec::with_uniform_body))
/// are considered; everything else bypasses the pass without touching
/// its counters.  The pipeline:
///
/// 1. A persisted negative verdict (a `simp <sig> 0` record in the
///    profile store) short-circuits the structural walk — structurally
///    rejected classes stay rejected across restarts.  Positive or
///    absent verdicts never skip the walk: signatures can collide, so a
///    stale `1` may cost a wasted walk but can never mis-rewrite.
/// 2. The recognizer walks the CSR pattern (positive walks cached per
///    allocation in `scans`); a match means every iteration's
///    references form one ascending contiguous run and the cost guard
///    accepted the original-vs-rewritten work ratio.
/// 3. The group runs through [`execute_group`]'s scan kernel, which
///    first probes the uniform-body declaration ([`probe_uniform`],
///    defense in depth): sampled rows are evaluated across *all* their
///    slots.  A refuted declaration or a panic falls back to the normal
///    path; body-specific outcomes are never persisted (only structural
///    walks are).
fn try_simplify(
    shared: &Shared,
    cache: &mut InspectionCache,
    scans: &mut PatternCache<(), ScanMatch>,
    ctx: &mut BatchCtx,
    group: Vec<QueuedJob>,
) -> Option<Vec<QueuedJob>> {
    // Time this gate spends before handing the group back (recognizer
    // walk, uniformity probe, an abandoned scan) is charged to the
    // group's `simplify` stage, not buried in `exec`.
    ctx.simplify_probe_ns = 0;
    if !shared.simplify || !group[0].spec.uniform_body {
        return Some(group);
    }
    let sig = ctx.sig;
    let k = group.len() as u64;
    let decline = |reason: &'static str| {
        shared
            .telemetry
            .amend_decision(sig.0, |r| r.simplify = GateVerdict::declined(reason));
        RuntimeStats::add(&shared.stats.simplify_rejects, k);
    };
    if shared.profile().scan_verdict(sig) == Some(false) {
        decline("persisted-negative");
        return Some(group);
    }
    let gate_t0 = Instant::now();
    let pat = &group[0].spec.pattern;
    let m = match scans.get(pat, ()) {
        Some(m) => *m,
        None => {
            // Every `Reject` variant is structural (pattern-only), so
            // either verdict is safe to persist per signature.
            let walk = recognize(pat, &CostGuard::default());
            shared.profile().set_scan_verdict(sig, walk.is_ok());
            match walk {
                Ok(m) => {
                    scans.insert(pat, (), m);
                    m
                }
                Err(_) => {
                    ctx.simplify_probe_ns = gate_t0.elapsed().as_nanos() as u64;
                    decline("recognizer-miss");
                    return Some(group);
                }
            }
        }
    };
    let recognize_ns = gate_t0.elapsed().as_nanos() as u64;
    let kernel = GroupKernel::Scan { m, recognize_ns };
    match execute_group(shared, cache, ctx, group, kernel) {
        Ok(()) => None,
        Err((group, reason, spent)) => {
            ctx.simplify_probe_ns = recognize_ns + spent.as_nanos() as u64;
            decline(reason);
            Some(group)
        }
    }
}

fn process_batch(
    shared: &Shared,
    cache: &mut InspectionCache,
    scans: &mut PatternCache<(), ScanMatch>,
    batch: Vec<QueuedJob>,
) {
    let sig = batch[0].sig;
    let dequeued_at = Instant::now();
    let mut ctx = BatchCtx {
        sig,
        batched_with: batch.len() - 1,
        profile_hit: false,
        profiled: None,
        dequeued_at,
        decided_at: dequeued_at,
        evicted_this_batch: false,
        explored: false,
        simplify_probe_ns: 0,
    };
    RuntimeStats::add(&shared.stats.batches, 1);
    RuntimeStats::add(&shared.stats.coalesced, ctx.batched_with as u64);

    // Poisoned-class quarantine: a class whose bodies panicked
    // `quarantine_after` times in a row fails fast — no inspection, no
    // decision, no worker sweep — until unquarantined or TTL-expired.
    if let Some(count) = shared.quarantine_blocked(sig) {
        fail_fast(shared, &ctx, batch, &JobError::quarantined(count));
        return;
    }

    // One scheme decision per batch: profile hit, or inspect + model.
    let profiled = shared.profile().get(sig).cloned();
    let profile_hit = profiled.is_some();
    if profile_hit {
        RuntimeStats::add(&shared.stats.profile_hits, 1);
    }

    let groups = fuse_groups(batch, shared.max_fuse, shared.pool.width());

    // The decision may run the inspector over an arbitrary client
    // pattern, so it is fenced just like execution below.
    let decision = fenced(|| decide_batch(shared, cache, &groups[0][0], profiled.as_ref()));
    ctx.decided_at = Instant::now();
    let decision = match decision {
        Ok(d) => d,
        Err(payload) => {
            // The whole batch shares the poisoned decision input; fail it
            // (one poisoned decision = one strike against the class).
            shared.note_panic(sig);
            let msg = format!("scheme decision panicked: {}", panic_message(&*payload));
            let jobs = groups.into_iter().flatten();
            fail_fast(shared, &ctx, jobs, &JobError::panic(msg));
            return;
        }
    };

    // The decision latency belongs to the scheme it picked; every member
    // waited from its own submission until this pop.
    let tel = &shared.telemetry;
    tel.record_decide(
        decision.scheme,
        ctx.decided_at.duration_since(dequeued_at).as_nanos() as u64,
    );
    for job in groups.iter().flatten() {
        tel.record_queue_wait(
            decision.scheme,
            dequeued_at
                .saturating_duration_since(job.submitted_at)
                .as_nanos() as u64,
        );
    }

    // A recheck that evicted the entry turns this batch back into a model
    // decision (its executions record fresh profile truth); an
    // exploration pick likewise did not come from the store, so neither
    // may report `profile_hit` to clients.
    if !decision.rechecked && !decision.explored {
        ctx.profile_hit = profile_hit;
        ctx.profiled = profiled;
    }
    ctx.explored = decision.explored;
    if decision.rechecked {
        shared.profile().evict(sig);
        RuntimeStats::add(&shared.stats.evictions, 1);
    }
    for group in groups {
        // A declared-uniform group over a recognized scan/window family
        // runs the rewritten plan instead of any scheme sweep.
        let Some(mut group) = try_simplify(shared, cache, scans, &mut ctx, group) else {
            continue;
        };
        // Fusion gate: calibrated fused-vs-split comparison.
        let plan = fenced(|| plan_fusion(shared, cache, &group)).ok().flatten();
        if let Some(plan) = plan {
            match execute_group(shared, cache, &ctx, group, GroupKernel::Fused(&plan)) {
                Ok(()) => continue,
                // Isolation fallback: re-run each member alone (behind
                // the batch's own per-job decision) so only the panicking
                // body reports an error.
                Err((members, ..)) => group = members,
            }
        }
        for job in group {
            execute_single(shared, cache, &mut ctx, decision.scheme, job);
        }
    }
}

/// Execute one job on its own traversal (the non-fused path), routing it
/// to the scalar software backend, the vectorized SIMD backend (for
/// [`Scheme::Simd`] decisions), or — for [`Scheme::Pclr`] decisions —
/// the simulated hardware backend.
fn execute_single(
    shared: &Shared,
    cache: &mut InspectionCache,
    ctx: &mut BatchCtx,
    batch_scheme: Scheme,
    job: QueuedJob,
) {
    // The quarantine is re-checked per job, not only per batch: a class
    // can cross the panic threshold *mid-batch* (or in a batch racing on
    // a stolen shard), and every job dispatched after that must fail
    // fast rather than re-run a body the ledger already condemned.
    if let Some(count) = shared.quarantine_blocked(job.sig) {
        fail_fast(shared, ctx, [job], &JobError::quarantined(count));
        return;
    }
    let threads = threads_of(shared, &job.spec);
    // A batch-mate (or stale profile) may have chosen a scheme this job
    // cannot run: owner-computes where it is illegal, or the hardware
    // scheme with the backend disabled or the job over its admission
    // cap.  Such jobs re-decide with the offending scheme masked off.
    let masked_lw = batch_scheme == Scheme::Lw && !job.spec.lw_feasible;
    let masked_pclr = batch_scheme == Scheme::Pclr && !shared.pclr_admits(&job.spec.pattern);
    let masked_simd = batch_scheme == Scheme::Simd && shared.simd.is_none();

    // A *persisted* decision this service cannot execute (a hardware
    // entry with the backend disabled, a `simd` entry on a scalar-only
    // service) is dead weight: re-decided executions never feed the
    // store, so the entry would mask forever.  Evict it — the next batch
    // misses the profile and records an executable scheme.
    if (masked_pclr || masked_simd) && ctx.profile_hit && !ctx.evicted_this_batch {
        shared.profile().evict(ctx.sig);
        RuntimeStats::add(&shared.stats.evictions, 1);
        ctx.evicted_this_batch = true;
    }

    // A panicking user body (or an inspector tripping over a malformed
    // pattern) becomes the job's error and the service keeps draining.
    let work = fenced(|| {
        let redecided = masked_lw || masked_pclr || masked_simd;
        let scheme = if redecided {
            let insp = cache.analyze(&job.spec.pattern, threads, &shared.stats);
            let domain = DomainKey::of(&insp.chars);
            let input = ModelInput::from_inspection(&insp, !masked_lw && job.spec.lw_feasible)
                .with_pclr(!masked_pclr && shared.pclr_admits(&job.spec.pattern))
                .with_simd(!masked_simd && shared.simd_admits(&insp.chars));
            let cal = shared.calibrator();
            let scheme = cal.rank(&input, domain)[0].0;
            // A re-decide under a feasibility mask is a real ranking: it
            // replaces the class's ledger record (whose candidate table
            // shows the offending scheme as infeasible).
            let mut record = cal.explain(&input, domain);
            drop(cal);
            record.winner = scheme;
            record.quarantine = GateVerdict::declined("clear");
            shared.telemetry.record_decision(job.sig.0, record);
            scheme
        } else {
            batch_scheme
        };
        let insp = matches!(scheme, Scheme::Sel | Scheme::Lw)
            .then(|| cache.analyze(&job.spec.pattern, threads, &shared.stats));
        let req = ExecRequest {
            pattern: &job.spec.pattern,
            body: &job.spec.body,
            threads,
            scheme,
            inspection: insp.as_ref(),
        };
        let backend: &dyn Backend = match (scheme, &shared.pclr, &shared.simd) {
            (Scheme::Pclr, Some(pclr), _) => pclr,
            (Scheme::Simd, _, Some(simd)) => simd,
            _ => &shared.software,
        };
        debug_assert!(backend.supports(scheme), "{} vs {scheme}", backend.name());
        let backend_t0 = Instant::now();
        let outcome = backend.execute(&req);
        let wall = backend_t0.elapsed();
        (outcome, scheme, redecided, wall, backend.name())
    });
    let executed_at = Instant::now();

    let (outcome, scheme, redecided, backend_wall, backend_name, error) = match work {
        Ok((outcome, scheme, redecided, wall, name)) => {
            (Some(outcome), scheme, redecided, wall, name, None)
        }
        Err(payload) => (
            None,
            batch_scheme,
            false,
            Duration::ZERO,
            "software",
            Some(JobError::panic(panic_message(&*payload))),
        ),
    };
    // The cost sample the profile calibrates on: backend-reported
    // (simulated time for pclr, wall time otherwise).
    let elapsed = outcome.as_ref().map_or(Duration::ZERO, |o| o.cost);
    let sim_cycles = outcome.as_ref().and_then(|o| o.sim_cycles);
    if let Some(cycles) = sim_cycles {
        RuntimeStats::add(&shared.stats.pclr_offloads, 1);
        RuntimeStats::add(&shared.stats.sim_cycles, cycles);
    }

    if error.is_some() {
        // Quarantine ledger: a panicking body extends the class's streak;
        // a clean execution wipes it.
        shared.note_panic(ctx.sig);
    } else {
        shared.note_clean(ctx.sig);
        if scheme == Scheme::Simd {
            RuntimeStats::add(&shared.stats.simd_offloads, 1);
        }
        // Close the measure→correct loop: every clean execution whose
        // characterization is already cached (learning never pays a fresh
        // inspection) feeds the calibrator a predicted-vs-measured sample,
        // and software/simulated cost halves pair up to fit cycle→ns.
        let mut class_label = None;
        if let Some(insp) = cache.get(&job.spec.pattern, threads) {
            let domain = DomainKey::of(&insp.chars);
            class_label = Some(domain_label(&domain));
            let input = ModelInput::from_inspection(insp, job.spec.lw_feasible)
                .with_pclr(scheme == Scheme::Pclr || shared.pclr_admits(&job.spec.pattern))
                .with_simd(scheme == Scheme::Simd || shared.simd_admits(&insp.chars));
            shared.learn(scheme, domain, false, None, &input, elapsed);
        }
        let refs = job.spec.pattern.num_references();
        let elapsed_ns = elapsed.as_nanos() as u64;
        shared.pair_cycle_sample(ctx.sig, refs, elapsed_ns as f64, sim_cycles);
        let tel = &shared.telemetry;
        tel.record_exec(scheme, class_label.as_deref(), elapsed_ns);
        tel.record_backend(backend_name, backend_wall.as_nanos() as u64, sim_cycles);

        // Feed the profile only from non-substituted, non-exploration
        // executions (an exploration pick is a calibration sample, not
        // the class's best-known scheme).
        if !redecided && !ctx.explored {
            let mut store = shared.profile();
            // Phase-change guard: a profiled class now running far slower
            // than its calibration predicts is suspect.  A suspect sample
            // is never recorded (keeping the calibration EMA clean), but
            // only DRIFT_EVICT_STRIKES *consecutive* ones read as a phase
            // change, evicting the entry so the next batch re-inspects
            // instead of trusting stale history.
            let suspect = !ctx.evicted_this_batch
                && ctx.profiled.as_ref().is_some_and(|entry| {
                    entry.runs >= DRIFT_MIN_RUNS
                        && elapsed.as_secs_f64()
                            > DRIFT_EVICT_RATIO * entry.predict(refs).as_secs_f64()
                });
            if suspect {
                if store.drift_strike(ctx.sig) >= DRIFT_EVICT_STRIKES {
                    store.evict(ctx.sig);
                    RuntimeStats::add(&shared.stats.evictions, 1);
                    ctx.evicted_this_batch = true;
                }
            } else if !ctx.evicted_this_batch {
                store.clear_drift(ctx.sig);
                store.record(ctx.sig, scheme, threads, refs, elapsed);
            }
        }
    }

    let tel = &shared.telemetry;
    tel.amend_decision(job.sig.0, |r| r.backend = backend_name);
    let record = tel.decision(job.sig.0);
    finish(
        shared,
        job.sig,
        job.sink,
        Exit {
            output: match outcome {
                Some(o) => o.output,
                None => empty_output(&job.spec.body),
            },
            scheme,
            elapsed,
            sim_cycles,
            // This job's decision came from the store only if it was not
            // re-decided under a feasibility mask.
            profile_hit: ctx.profile_hit && !redecided,
            error,
            group: 1,
            // Tagged from the backend that actually ran the job, so simd
            // executions are distinguishable from software in ring dumps.
            backend: TraceBackend::from_label(backend_name).unwrap_or(TraceBackend::Software),
            executed_at: Some(executed_at),
            simplify_ns: ctx.simplify_probe_ns,
        },
        Some((ctx, job.submitted_at, record)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobHandle, JobSpec, JobState};
    use crate::runtime::tests::{direct_uniform_i64, pattern, sparse_pattern, window_pattern};
    use crate::runtime::{Runtime, RuntimeConfig};
    use smartapps_workloads::pattern::{sequential_reduce, sequential_reduce_i64};
    use smartapps_workloads::{contribution, contribution_i64, Distribution, PatternSpec};

    #[test]
    fn fused_group_outputs_match_per_body_oracles() {
        // One dispatcher, deterministic fusing: occupy it with a large
        // warm-up job, then queue K same-pattern sparse jobs with K
        // different bodies — they must coalesce into one batch and pass
        // the fusion gate (sparse + fanout => hash) as one sweep.
        let rt = Runtime::new(RuntimeConfig {
            workers: 3,
            dispatchers: 1,
            max_batch: 32,
            max_fuse: 8,
            ..RuntimeConfig::default()
        });
        let big = Arc::new(
            PatternSpec {
                num_elements: 60_000,
                iterations: 1_200_000,
                refs_per_iter: 2,
                coverage: 1.0,
                dist: Distribution::Uniform,
                seed: 91,
            }
            .generate(),
        );
        let warm = rt.submit(JobSpec::i64(big, |_i, r| contribution_i64(r)));
        let pat = sparse_pattern(61);
        let handles: Vec<JobHandle> = (0..6)
            .map(|kk| {
                let scale = kk as i64 + 1;
                rt.submit(JobSpec::i64(pat.clone(), move |_i, r| {
                    contribution_i64(r).wrapping_mul(scale)
                }))
            })
            .collect();
        warm.wait();
        let base = sequential_reduce_i64(&pat);
        for (kk, h) in handles.into_iter().enumerate() {
            let r = h.wait();
            assert!(r.error.is_none());
            let scale = kk as i64 + 1;
            let expect: Vec<i64> = base.iter().map(|v| v.wrapping_mul(scale)).collect();
            assert_eq!(r.output.as_i64().unwrap(), expect, "fused output {kk}");
            assert_eq!(r.fused_with, 5, "all six must share one sweep");
            assert_eq!(r.batched_with, 5);
            assert_eq!(r.scheme, Scheme::Hash, "fusion gate only admits hash");
        }
        let stats = rt.stats();
        assert_eq!(stats.fused_sweeps, 1);
        assert_eq!(stats.fused_jobs, 6);
    }

    #[test]
    fn max_fuse_one_disables_fusion() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            max_fuse: 1,
            ..RuntimeConfig::default()
        });
        let pat = sparse_pattern(63);
        let handles = rt.submit_batch(
            (0..6)
                .map(|_| JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)))
                .collect(),
        );
        let oracle = sequential_reduce_i64(&pat);
        for h in handles {
            let r = h.wait();
            assert_eq!(r.output.as_i64().unwrap(), oracle);
            assert_eq!(r.fused_with, 0, "max_fuse 1 must never fuse");
        }
        assert_eq!(rt.stats().fused_sweeps, 0);
    }

    #[test]
    fn dense_groups_do_not_pass_the_fusion_gate() {
        // Dense cache-resident classes lose by fusing (K-fold private
        // footprints); the gate must route them per-job even when the
        // batch coalesces.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            max_batch: 32,
            max_fuse: 8,
            ..RuntimeConfig::default()
        });
        let pat = pattern(63);
        let handles = rt.submit_batch(
            (0..6)
                .map(|_| JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)))
                .collect(),
        );
        let oracle = sequential_reduce_i64(&pat);
        for h in handles {
            let r = h.wait();
            assert_eq!(r.output.as_i64().unwrap(), oracle);
            assert_eq!(r.fused_with, 0, "dense class must not fuse");
        }
        assert_eq!(rt.stats().fused_sweeps, 0);
    }

    #[test]
    fn inspection_cache_reuses_and_revalidates() {
        let stats = RuntimeStats::default();
        let mut cache = InspectionCache::new(4);
        let pat = pattern(31);
        cache.analyze(&pat, 3, &stats);
        cache.analyze(&pat, 3, &stats);
        cache.analyze(&pat, 3, &stats);
        assert_eq!(stats.snapshot().inspections, 1, "same Arc + width must hit");
        cache.analyze(&pat, 2, &stats);
        assert_eq!(stats.snapshot().inspections, 2, "new width must analyze");
        // A dead Arc whose address gets reused must not serve a stale
        // inspection: the Weak upgrade guard forces a fresh analysis.
        let addr = Arc::as_ptr(&pat) as usize;
        drop(pat);
        let mut fresh = pattern(32);
        for _ in 0..64 {
            if Arc::as_ptr(&fresh) as usize == addr {
                break;
            }
            fresh = pattern(32);
        }
        let before = stats.snapshot().inspections;
        cache.analyze(&fresh, 3, &stats);
        assert_eq!(stats.snapshot().inspections, before + 1);
    }

    #[test]
    fn fuse_groups_split_by_pattern_flavor_and_cap() {
        let pat_a = pattern(71);
        let pat_b = pattern(72);
        let mk = |spec: JobSpec| QueuedJob {
            sig: PatternSignature(1),
            sink: CompletionSink::Handle(JobState::new()),
            spec,
            submitted_at: Instant::now(),
        };
        let batch = vec![
            mk(JobSpec::i64(pat_a.clone(), |_i, r| contribution_i64(r))),
            mk(JobSpec::i64(pat_a.clone(), |_i, r| contribution_i64(r))),
            mk(JobSpec::f64(pat_a.clone(), |_i, r| contribution(r))),
            mk(JobSpec::i64(pat_b.clone(), |_i, r| contribution_i64(r))),
            mk(JobSpec::i64(pat_a.clone(), |_i, r| contribution_i64(r))),
        ];
        let groups = fuse_groups(batch, 8, 4);
        // i64-on-A x3, f64-on-A x1, i64-on-B x1.
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[1].len(), 1);
        assert_eq!(groups[2].len(), 1);
        // The cap splits oversized groups.
        let batch: Vec<QueuedJob> = (0..7)
            .map(|_| mk(JobSpec::i64(pat_a.clone(), |_i, r| contribution_i64(r))))
            .collect();
        let groups = fuse_groups(batch, 3, 4);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn declared_uniform_window_flood_runs_simplified() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            max_batch: 32,
            max_fuse: 8,
            ..RuntimeConfig::default()
        });
        let pat = window_pattern(2048, 4096, 16, 3);
        let handles: Vec<JobHandle> = (0..8)
            .map(|kk| {
                let scale = kk as i64 + 1;
                rt.submit(
                    JobSpec::i64(pat.clone(), move |i, _r| (i as i64 + 1).wrapping_mul(scale))
                        .with_uniform_body(true),
                )
            })
            .collect();
        for (kk, h) in handles.into_iter().enumerate() {
            let r = h.wait();
            assert!(r.error.is_none(), "simplified job {kk}: {:?}", r.error);
            let scale = kk as i64 + 1;
            let expect = direct_uniform_i64(&pat, |i| (i as i64 + 1).wrapping_mul(scale));
            assert_eq!(r.output.as_i64().unwrap(), expect, "simplified output {kk}");
            assert_eq!(r.scheme, Scheme::Seq, "the rewritten plan reports seq");
        }
        let stats = rt.stats();
        assert_eq!(stats.simplified_jobs, 8, "every declared job must rewrite");
        assert_eq!(stats.simplify_rejects, 0);
        assert_eq!(
            stats.fused_sweeps, 0,
            "the rewrite preempts the fusion gate"
        );
        assert_eq!(stats.fused_jobs, 0);
        let text = rt.telemetry().registry().render_prometheus();
        assert!(
            text.contains("smartapps_simplify_ns_count{shape=\"window\"}"),
            "missing simplify series: {text}"
        );
        let snap = rt.profile_snapshot();
        assert_eq!(snap.scan_verdict_len(), 1, "positive verdict must persist");
    }

    #[test]
    fn simplify_off_runs_the_normal_pipeline() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            simplify: false,
            ..RuntimeConfig::default()
        });
        let pat = window_pattern(1024, 2048, 16, 5);
        let r = rt.run(JobSpec::i64(pat.clone(), |i, _r| i as i64 + 1).with_uniform_body(true));
        assert!(r.error.is_none());
        assert_eq!(
            r.output.as_i64().unwrap(),
            direct_uniform_i64(&pat, |i| i as i64 + 1)
        );
        let stats = rt.stats();
        assert_eq!(stats.simplified_jobs, 0);
        assert_eq!(
            stats.simplify_rejects, 0,
            "config-off traffic is not a reject"
        );
    }

    #[test]
    fn refuted_uniform_declaration_loses_the_rewrite_not_the_answer() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            ..RuntimeConfig::default()
        });
        let pat = window_pattern(1024, 2048, 16, 5);
        // The declaration lies: the body reads the reduction slot.  The
        // probe must refute it and the job must run unsimplified with
        // the exact slot-dependent answer.
        let r =
            rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)).with_uniform_body(true));
        assert!(r.error.is_none());
        assert_eq!(r.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        let stats = rt.stats();
        assert_eq!(
            stats.simplified_jobs, 0,
            "a refuted declaration must not rewrite"
        );
        assert!(stats.simplify_rejects >= 1);
        // The refutation is body-specific and never persisted: the
        // pattern's structural verdict stays positive.
        assert_eq!(rt.profile_snapshot().scan_verdict_len(), 1);
    }

    #[test]
    fn scan_verdicts_survive_restart_via_disk() {
        let dir = std::env::temp_dir().join("smartapps-runtime-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("simplify-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            profile_path: Some(path.clone()),
            ..RuntimeConfig::default()
        };
        let win = window_pattern(1024, 2048, 16, 5);
        let ragged = pattern(71);
        {
            let rt = Runtime::new(cfg.clone());
            rt.run(JobSpec::i64(win.clone(), |i, _r| i as i64).with_uniform_body(true));
            rt.run(JobSpec::i64(ragged.clone(), |i, _r| i as i64).with_uniform_body(true));
            assert_eq!(rt.profile_snapshot().scan_verdict_len(), 2);
            rt.shutdown();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines()
                .any(|l| l.starts_with("simp ") && l.ends_with(" 1")),
            "positive verdict must be saved: {text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("simp ") && l.ends_with(" 0")),
            "negative verdict must be saved: {text}"
        );
        {
            let rt = Runtime::new(cfg);
            assert_eq!(
                rt.profile_snapshot().scan_verdict_len(),
                2,
                "verdicts reload"
            );
            let r = rt.run(JobSpec::i64(win.clone(), |i, _r| i as i64).with_uniform_body(true));
            assert_eq!(
                r.output.as_i64().unwrap(),
                direct_uniform_i64(&win, |i| i as i64)
            );
            assert_eq!(
                rt.stats().simplified_jobs,
                1,
                "rewrite survives the restart"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fused_panic_fallback_accounting_is_exact() {
        // Regression: `fused_jobs` was bumped per *sweep* (`+= k`)
        // before any member completed; it is now counted per member
        // actually completed through a shared sweep, so an abandoned
        // sweep — one poisoned body sends the whole group to the
        // isolated fallback — contributes nothing, and the invariant
        // `fused_jobs == |results with fused_with > 0|` is structural.
        let rt = Runtime::new(RuntimeConfig {
            workers: 3,
            dispatchers: 1,
            max_batch: 32,
            max_fuse: 8,
            ..RuntimeConfig::default()
        });
        let big = Arc::new(
            PatternSpec {
                num_elements: 60_000,
                iterations: 1_200_000,
                refs_per_iter: 2,
                coverage: 1.0,
                dist: Distribution::Uniform,
                seed: 93,
            }
            .generate(),
        );
        let warm = rt.submit(JobSpec::i64(big, |_i, r| contribution_i64(r)));
        let pat = sparse_pattern(67);
        let handles: Vec<JobHandle> = (0..6)
            .map(|kk| {
                rt.submit(JobSpec::i64(pat.clone(), move |i, r| {
                    if kk == 3 && i == 0 {
                        panic!("poisoned member")
                    }
                    contribution_i64(r)
                }))
            })
            .collect();
        warm.wait();
        let results: Vec<JobResult> = handles.into_iter().map(|h| h.wait()).collect();
        let oracle = sequential_reduce_i64(&pat);
        let poisoned = &results[3];
        let err = poisoned.error.as_ref().expect("poisoned member must fail");
        assert_eq!(err.kind, JobErrorKind::Panic);
        assert_eq!(poisoned.fused_with, 0, "a failed member is re-run isolated");
        for (kk, r) in results.iter().enumerate() {
            if kk == 3 {
                continue;
            }
            assert!(
                r.error.is_none(),
                "group-mate {kk} must survive the fallback"
            );
            assert_eq!(r.output.as_i64().unwrap(), oracle, "fallback output {kk}");
        }
        let fused_members = results.iter().filter(|r| r.fused_with > 0).count() as u64;
        let stats = rt.stats();
        assert_eq!(
            stats.fused_jobs, fused_members,
            "fused_jobs must count members"
        );
        assert_eq!(stats.completed, 7, "every job completes exactly once");
        if fused_members == 0 {
            // The usual timing: all six coalesced into the poisoned
            // sweep, which was abandoned without touching the counters.
            assert_eq!(stats.fused_sweeps, 0);
        }
    }

    #[test]
    fn dense_f64_groups_decline_fusion_without_fused_evidence() {
        // The non-hash fused regimes need measured fused-side evidence
        // before the gate admits them (probes are off by default), so a
        // coalesced dense f64 group must route per-job with exact
        // bookkeeping and per-member answers.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            dispatchers: 1,
            max_batch: 32,
            max_fuse: 8,
            ..RuntimeConfig::default()
        });
        let pat = pattern(83);
        let handles = rt.submit_batch(
            (0..6)
                .map(|_| JobSpec::f64(pat.clone(), |_i, r| contribution(r)))
                .collect(),
        );
        let oracle = sequential_reduce(&pat);
        for h in handles {
            let r = h.wait();
            assert!(r.error.is_none());
            assert_eq!(r.fused_with, 0, "dense f64 class must not fuse");
            for (a, b) in oracle.iter().zip(r.output.as_f64().unwrap()) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
            }
        }
        let stats = rt.stats();
        assert_eq!(stats.fused_sweeps, 0);
        assert_eq!(stats.fused_jobs, 0);
    }
}

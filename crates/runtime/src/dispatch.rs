//! The batch pipeline a dispatcher thread runs, and the one way out of it:
//! every job leaves through [`finish`] — the only code in the crate that
//! builds a [`JobResult`] or a [`TraceEvent`], counts a completion, or
//! completes a [`CompletionSink`] (the two submit-thread exits in
//! `runtime` call it too).  `docs/ARCHITECTURE.md` ("Job exits") draws
//! the pipeline and tabulates what each exit passes in.

use crate::backend::{Backend, ExecRequest};
use crate::completion::{CompletionSink, PendingDeliveries};
use crate::error::{JobError, JobErrorKind};
use crate::job::{JobBody, JobOutput, JobResult, PatternSignature};
use crate::profile::ProfileEntry;
use crate::queue::QueuedJob;
use crate::runtime::Shared;
use crate::stats::RuntimeStats;
use crate::telemetry::{domain_label, scheme_code};
use smartapps_core::toolbox::{self, Ask, DomainKey, Effects, Entry, View};
use smartapps_core::{CandidateCost, DecisionRecord, GateVerdict};
use smartapps_reductions::{
    probe_uniform, recognize, run_fused_with, run_scan_group, CostGuard, DecisionModel, FusedBody,
    ModelInput, ScanElem, ScanMatch, Scheme,
};
use smartapps_telemetry::{TraceBackend, TraceError, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) fn dispatcher_loop(shared: &Shared, id: usize) {
    while let Some(pop) = shared.queue.pop_batch_for(id, shared.max_batch) {
        if pop.stolen {
            RuntimeStats::add(&shared.stats.steals, 1);
        }
        process_batch(shared, pop.jobs);
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

    /// What the client sees of this exit.
    fn into_result(self, batched_with: usize) -> JobResult {
        JobResult {
            output: self.output,
            scheme: self.scheme,
            elapsed: self.elapsed,
            sim_cycles: self.sim_cycles,
            profile_hit: self.profile_hit,
            batched_with,
            fused_with: self.group.saturating_sub(1),
            error: self.error,
        }
    }
}

/// The single job exit.  Counts the completion, traces the lifecycle,
/// and only then wakes the sink, so a client reading stats or the trace
/// ring right after its completion never finds its own job missing.
/// `via` is the dispatcher-side half of the exit: the job's batch, its
/// submission instant, and the decision record its trace carries.  A
/// queue event is held in the batch's [`PendingDeliveries`] and handed
/// over with its batch-mates when the batch ends (a handle completes at
/// once).  Submit-thread exits pass `None`; they are not traced and
/// deliver inline — the submitter may be the completion set's only
/// consumer, so they must never block on its bound.
pub(crate) fn finish(
    shared: &Shared,
    sig: PatternSignature,
    sink: CompletionSink,
    exit: Exit,
    via: Option<(&mut BatchCtx, Instant, Option<Arc<DecisionRecord>>)>,
) {
    RuntimeStats::add(&shared.stats.completed, 1);
    let Some((batch, submitted_at, record)) = via else {
        sink.complete_inline(sig, exit.into_result(0));
        return;
    };
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
    let result = exit.into_result(batch.batched_with);
    sink.complete(sig, result, &mut batch.pending);
}

/// Fail `jobs` of one batch fast with `error`, before any kernel runs: a
/// quarantined class (per batch, or per job once the class crosses the
/// threshold mid-batch) or a poisoned scheme decision.  A quarantine
/// republishes the class's latest record with the gate fired.
fn fail_fast(
    shared: &Shared,
    ctx: &mut BatchCtx,
    jobs: impl IntoIterator<Item = QueuedJob>,
    error: &JobError,
) {
    let tel = &shared.telemetry;
    let quarantined = error.kind == JobErrorKind::Quarantined;
    let mut record = tel.decision(ctx.sig.0);
    if let Some(latest) = record.as_mut().filter(|_| quarantined) {
        let mut stamped = DecisionRecord::clone(latest);
        stamped.quarantine = GateVerdict::fired("panic-streak");
        *latest = tel.record_decision(ctx.sig.0, stamped);
    }
    for job in jobs {
        RuntimeStats::add(&shared.stats.quarantined, quarantined as u64);
        finish(
            shared,
            job.facts.sig,
            job.sink,
            Exit::failed(&job.spec.body, error.clone()),
            Some((&mut *ctx, job.submitted_at, record.clone())),
        );
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

/// The empty output matching a body's flavor (for failed jobs).
fn empty_output(body: &JobBody) -> JobOutput {
    if body.is_f64() {
        JobOutput::F64(Vec::new())
    } else {
        JobOutput::I64(Vec::new())
    }
}

/// Per-batch bookkeeping shared by every exit of the batch's jobs.
pub(crate) struct BatchCtx {
    sig: PatternSignature,
    batched_with: usize,
    /// The class's profile entry at pop, as the adaptation policy reads
    /// it.
    entry: Option<Entry>,
    /// When the dispatcher popped this batch and when its single-job
    /// decision landed — the `queued`/`decided` timestamps of every
    /// member's trace event (`decided_at` is the pop instant until the
    /// decision returns).
    dequeued_at: Instant,
    decided_at: Instant,
    /// Once one job of the batch evicts a dead entry, no later batch-mate
    /// may resurrect it and the logical eviction is counted once.
    evicted_this_batch: bool,
    /// The batch's single-job decision: its scheme, the policy's effects
    /// (whether the scheme is the entry's, kept — what members report as
    /// `profile_hit`; an exploration pick feeds the calibrator, never the
    /// profile store; a judged hit's samples are checked for drift), its
    /// priced record until a job commits it ([`commit`]), and the record
    /// every job running it carries.
    scheme: Scheme,
    effects: Effects,
    single: Option<(Scheme, Option<DecisionRecord>)>,
    record: Option<Arc<DecisionRecord>>,
    /// The cheapest software split (K = 1) cost of the class, once the
    /// batch priced it: the fusion gate's "fused < K × split" test reads
    /// it.
    split: Option<f64>,
    /// The gate verdicts of the group in flight, stamped on the record of
    /// the decision its jobs run.
    fusion: GateVerdict,
    simplify: GateVerdict,
    /// Wall time the simplification gate spent on the current group
    /// before handing it back (recognizer walk, uniformity probe, an
    /// abandoned scan) — attributed to the group members' `simplify`
    /// stage instead of inflating `exec`.  Reset per group by
    /// [`try_simplify`]; 0 when the gate never ran.
    simplify_probe_ns: u64,
    /// The batch's finished queue events, delivered per completion set
    /// when the batch ends — on every exit of [`process_batch`],
    /// unwinding included, because the guard delivers on drop.
    pending: PendingDeliveries,
}

/// What one [`decide`] chose: the scheme its jobs run; unless a profile
/// hit kept the stored scheme without pricing anything, the record of the
/// choice (candidate table, features at the decision's fanout, `winner`,
/// `explored`, `rechecked`) that [`publish`] completes once the jobs run
/// it; and the policy's effects.
type Decision = (Scheme, Option<DecisionRecord>, Effects);

/// Whether this tick of a `1 / every` cadence is due (`0` never is).
fn due(ticks: &AtomicU64, every: usize) -> bool {
    every > 0 && (ticks.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(every as u64)
}

/// One pricing of `job`'s class at fanout `k` with `mask` infeasible:
/// every candidate's analytic and corrected cost, in ranked order
/// ([`Calibrator::explain`](smartapps_core::Calibrator::explain)).
/// Inspects `job`'s allocation on first use.  The backend-gated schemes
/// join only at K = 1: fused sweeps never route to them.
fn price(shared: &Shared, job: &QueuedJob, k: usize, mask: Option<Scheme>) -> DecisionRecord {
    let insp = job.facts.inspection(&job.spec.pattern, &shared.stats);
    let open = |s: Scheme| mask != Some(s);
    let gated = |s: Scheme| k == 1 && open(s);
    let input = ModelInput::from_inspection(insp, job.spec.lw_feasible && open(Scheme::Lw))
        .with_pclr(gated(Scheme::Pclr) && shared.pclr_admits(&job.spec.pattern))
        .with_simd(gated(Scheme::Simd) && shared.simd_admits(&insp.chars))
        .with_fanout(k);
    shared
        .calibrator()
        .explain(&input, DomainKey::of(&insp.chars))
}

/// The one scheme decision of the dispatcher, over (class, fanout `k`,
/// feasibility `mask`), for the jobs `lead` leads: one
/// [`toolbox::step`] of the adaptation policy, with the view gathered
/// here — the batch's profile entry, the cadences of
/// [`CalibrationConfig`](crate::CalibrationConfig), the batch's split
/// estimate — and each input the step asks for answered here.  A profile
/// hit with nothing due prices nothing; a decision that prices does so
/// once ([`price`]).  K = 1 with no mask is the batch's single-job
/// decision, made once per batch at pop (a recheck displaces the entry
/// only past [`toolbox::RECHECK_MARGIN`]); the pick is counted and acted
/// on only when a job runs it ([`commit`]).  K ≥ 2 is the fusion gate:
/// `None` when it declines, its verdict in `ctx.fusion` either way
/// (`docs/OBSERVABILITY.md` lists the reason vocabulary).  A mask
/// re-decides a job that cannot run the batch's scheme (owner-computes
/// where it is illegal, the hardware scheme with the backend disabled or
/// the job over its admission cap).
fn decide(
    shared: &Shared,
    ctx: &mut BatchCtx,
    lead: &QueuedJob,
    k: usize,
    mask: Option<Scheme>,
) -> Option<Decision> {
    // The split cost (K = 1) the fusion gate's "fused < K × split" test
    // reads: the cheapest software row of a single-job table.
    let software = |c: &CandidateCost| c.scheme.is_software();
    let mut view = View {
        k,
        mask,
        entry: ctx.entry,
        explore_due: k == 1 && mask.is_none() && due(&shared.explore_ticks, shared.explore_every),
        recheck_every: shared.recheck_every,
        ..View::default()
    };
    let mut table = None;
    let (scheme, effects) = loop {
        match toolbox::step(&view, table.as_ref()) {
            Ok(done) => break done,
            Err(Ask::Table) => table = Some(price(shared, lead, k, mask)),
            Err(Ask::Split) => {
                let split = || price(shared, lead, 1, None).cheapest(software);
                view.split = Some(*ctx.split.get_or_insert_with(split));
            }
            Err(Ask::Probe) => {
                view.probe_due = Some(due(&shared.declined_fuses, shared.probe_fused_every));
            }
        }
    };
    if k > 1 {
        RuntimeStats::add(&shared.stats.fuse_probes, effects.probe as u64);
        ctx.fusion = effects.fusion;
    } else if mask.is_none() {
        ctx.split = table.as_ref().map(|t| t.cheapest(software)).or(ctx.split);
    }
    let scheme = scheme?;
    let record = table.map(|mut record| {
        record.winner = scheme;
        record.explored = effects.explored;
        record.rechecked = effects.evict;
        record
    });
    Some((scheme, record, effects))
}

/// Publish a decision's record, completed with the verdicts of the gates
/// its group went through and the backend its scheme runs on (`scan` for
/// a rewritten group): the one ledger write a decision makes.  Quarantine
/// reads `clear`, because a blocked class fails fast before any decision.
fn publish(shared: &Shared, ctx: &BatchCtx, mut record: DecisionRecord) -> Arc<DecisionRecord> {
    record.backend = match record.winner {
        _ if ctx.simplify.fired => "scan",
        Scheme::Pclr => "pclr",
        Scheme::Simd => "simd",
        _ => "software",
    };
    record.fusion = ctx.fusion;
    record.simplify = ctx.simplify;
    record.quarantine = GateVerdict::declined("clear");
    shared.telemetry.record_decision(ctx.sig.0, record)
}

/// The record a job running the batch's single-job scheme carries.  The
/// first such job commits the decision: an exploration pick is counted,
/// a recheck evicts the entry it displaced (the batch's executions
/// record fresh truth) or clears the due mark of the entry it kept, and
/// the record is published.  A profile hit
/// priced nothing, so its jobs carry the class's latest record while
/// that record is this decision's; after another decision (a fused
/// sweep's, say) the hit prices from the inspection `job` already holds,
/// so the record it publishes names the scheme its jobs run.
fn commit(shared: &Shared, ctx: &mut BatchCtx, job: &QueuedJob) -> Option<Arc<DecisionRecord>> {
    if let Some((scheme, priced)) = ctx.single.take() {
        let priced = priced.or_else(|| {
            ctx.record = shared.telemetry.decision(ctx.sig.0);
            let latest = ctx.record.as_ref()?;
            let ours = latest.winner == scheme && latest.features.fanout == 1;
            job.facts.inspection.get().filter(|_| !ours)?;
            let mut record = price(shared, job, 1, None);
            record.winner = scheme;
            Some(record)
        });
        if let Some(record) = priced {
            RuntimeStats::add(&shared.stats.explored, ctx.effects.explored as u64);
            if ctx.effects.evict {
                shared.profile().evict(ctx.sig);
                RuntimeStats::add(&shared.stats.evictions, 1);
            } else if ctx.effects.clear_due {
                shared.profile().set_due(ctx.sig, false);
            }
            ctx.record = Some(publish(shared, ctx, record));
        }
    }
    ctx.record.clone()
}

/// Partition a same-signature batch into fusable groups: members of one
/// group reduce over the *same* pattern allocation with the same element
/// flavor, SPMD width, `lw` feasibility, and uniform-body declaration,
/// so they can legally share one traversal (and one simplification
/// verdict).  Groups are capped at `max_fuse`; first-seen order is
/// preserved, so `batch[0]` leads the first group.
fn fuse_groups(batch: Vec<QueuedJob>, max_fuse: usize) -> Vec<Vec<QueuedJob>> {
    let mut keyed: Vec<(_, Vec<QueuedJob>)> = Vec::new();
    for job in batch {
        let key = (
            Arc::as_ptr(&job.spec.pattern) as usize,
            job.spec.body.is_f64(),
            job.facts.threads,
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
enum GroupKernel {
    /// The rewritten plan: probe every body's uniformity declaration,
    /// then K difference arrays over one row walk plus one prefix scan
    /// per output.  Carries the recognizer's match and its wall time.
    Scan { m: ScanMatch, recognize_ns: u64 },
    /// One fused sweep of the fusion gate's scheme at the group's K (with
    /// that decision's priced record), accumulating every member's output
    /// through stride-K private storage.
    Fused(Scheme, DecisionRecord),
}

fn f64_body(body: &JobBody) -> Option<FusedBody<'_, f64>> {
    match body {
        JobBody::F64(f) => Some(&**f),
        JobBody::I64(_) | JobBody::Builtin(_) => None,
    }
}

fn i64_body(body: &JobBody) -> Option<FusedBody<'_, i64>> {
    match body {
        JobBody::I64(f) => Some(&**f),
        JobBody::F64(_) | JobBody::Builtin(_) => None,
    }
}

/// Collect a group's bodies in one element flavor, as closures (`pick`
/// is `None` for the other flavor, which [`fuse_groups`] never lets into
/// the group), run `kernel` over them, and wrap the K outputs.  `None`
/// when a body refutes its uniformity declaration; else outputs plus
/// probe time.
fn run_kernel<T: ScanElem>(
    shared: &Shared,
    kernel: &GroupKernel,
    group: &[QueuedJob],
    pick: fn(&JobBody) -> Option<FusedBody<'_, T>>,
    wrap: fn(Vec<T>) -> JobOutput,
) -> Option<(Vec<JobOutput>, u64)> {
    let pat = &group[0].spec.pattern;
    let dynamic: Vec<_> = group.iter().map(|j| j.spec.body.dynamic()).collect();
    let bodies: Vec<FusedBody<'_, T>> = dynamic
        .iter()
        .map(|b| pick(b).unwrap_or_else(|| unreachable!("fuse group mixes flavors")))
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
        &GroupKernel::Fused(scheme, _) => {
            let facts = &group[0].facts;
            // A `sel`/`lw` sweep's inspection is already filled by the
            // gate's own pass; a `hash` sweep reuses the slot numbering
            // that pass built.
            let analyses = facts.kernel_analyses(scheme, pat, &shared.stats);
            let pool = &*shared.pool;
            (
                run_fused_with(scheme, pat, &bodies, facts.threads, analyses, pool),
                0,
            )
        }
    };
    Some((outputs.into_iter().map(wrap).collect(), probe_ns))
}

/// The single group executor: run a fusable group (same pattern, flavor,
/// width, `lw` mask, uniformity declaration) through `kernel` behind one
/// panic fence, account the run, publish its decision record, and finish
/// every member.
///
/// A clean run feeds the *calibrator* (a scan in rewritten-plan units, a
/// sweep as a fused sample) but never the profile store, which holds
/// single-job scheme-sweep truth: a rewritten plan and a fanout-K
/// decision are different operating points.  Its record is priced at the
/// group's K: the gate's own for a sweep, one pricing for a scan, whose
/// winner is [`Scheme::Seq`] and whose backend is `scan`.  Members report
/// the run's whole wall time, no profile hit (the recognizer / the
/// fanout-aware model decided, not the store), and `fused_with = K - 1`;
/// a scan reports [`Scheme::Seq`] (sequential semantics, deterministic
/// order).
///
/// A panicking body — or one refuting its uniformity declaration — loses
/// the shared run, never the answer: the group comes back with the reason
/// and the time spent, no counter touched and no record published, for
/// the caller to re-run through a path whose own fence pins the panic on
/// the poisoned job.
fn execute_group(
    shared: &Shared,
    ctx: &mut BatchCtx,
    group: Vec<QueuedJob>,
    kernel: GroupKernel,
) -> Result<(), (Vec<QueuedJob>, &'static str, Duration)> {
    let k = group.len();
    let t0 = Instant::now();
    let work = fenced(|| {
        if group[0].spec.body.is_f64() {
            run_kernel(shared, &kernel, &group, f64_body, JobOutput::F64)
        } else {
            run_kernel(shared, &kernel, &group, i64_body, JobOutput::I64)
        }
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
    let scan = matches!(kernel, GroupKernel::Scan { .. });
    let (scheme, simplify_ns, record) = match kernel {
        GroupKernel::Scan { m, recognize_ns } => {
            tel.record_simplify(m.shape.label(), elapsed_ns);
            // The gate fired under the recognized shape and preempted the
            // fusion gate.  Learning is priced against the *rewritten*
            // plan (one difference-array post per iteration plus one
            // scan, per member).  The recognizer walk plus the uniformity
            // probe is the `simplify` stage; the scan itself stays in
            // `exec`.
            ctx.simplify = GateVerdict::fired(m.shape.label());
            ctx.fusion = GateVerdict::not_consulted();
            let priced = fenced(|| price(shared, &group[0], k, None)).ok();
            let record = priced.map(|mut record| {
                let units = (m.rewritten_ops * k) as f64;
                shared.learn(Scheme::Seq, record.domain, false, |_| units, elapsed);
                record.winner = Scheme::Seq;
                publish(shared, ctx, record)
            });
            (Scheme::Seq, recognize_ns + probe_ns, record)
        }
        GroupKernel::Fused(scheme, record) => {
            RuntimeStats::add(&stats.fused_sweeps, 1);
            // One sweep = one execution sample (the sweep's wall time,
            // under the class of the gate's own characterization), and
            // the fused-side calibration sample the fusion gate's
            // fused-vs-split comparison learns from, against the raw
            // fanout-K cost the gate predicted.
            let domain = record.domain;
            let row = record.candidates.iter().find(|c| c.scheme == scheme);
            let units = row.map_or(f64::NAN, |c| c.analytic);
            tel.record_exec(scheme, Some(&domain_label(&domain)), elapsed_ns);
            shared.learn(scheme, domain, true, |_| units, elapsed);
            let record = Some(publish(shared, ctx, record));
            (scheme, ctx.simplify_probe_ns, record)
        }
    };
    let (backend, member_counter) = if scan {
        (TraceBackend::Scan, &stats.simplified_jobs)
    } else {
        (TraceBackend::Software, &stats.fused_jobs)
    };
    // A clean run means every body in the group ran clean.
    shared.note_clean(ctx.sig);
    for (job, output) in group.into_iter().zip(outputs) {
        RuntimeStats::add(member_counter, 1);
        finish(
            shared,
            job.facts.sig,
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
            Some((&mut *ctx, job.submitted_at, record.clone())),
        );
    }
    Ok(())
}

/// The pre-scheduling simplification pass, run per fusable group before
/// the fusion gate.  Returns `None` when the group executed through the
/// rewritten plan (outputs delivered, nothing left to do) and
/// `Some(group)` to pass it through to the normal fusion/per-job
/// pipeline untouched, its verdict in `ctx.simplify`.
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
/// 2. The recognizer walks the CSR pattern (a positive walk is
///    remembered in the allocation's registry entry); a match means
///    every iteration's references form one ascending contiguous run and
///    the cost guard accepted the original-vs-rewritten work ratio.
/// 3. The group runs through [`execute_group`]'s scan kernel, which
///    first probes the uniform-body declaration ([`probe_uniform`],
///    defense in depth): sampled rows are evaluated across *all* their
///    slots.  A refuted declaration or a panic falls back to the normal
///    path; body-specific outcomes are never persisted (only structural
///    walks are).
fn try_simplify(
    shared: &Shared,
    ctx: &mut BatchCtx,
    group: Vec<QueuedJob>,
) -> Option<Vec<QueuedJob>> {
    // Time this gate spends before handing the group back (recognizer
    // walk, uniformity probe, an abandoned scan) is charged to the
    // group's `simplify` stage, not buried in `exec`.
    ctx.simplify_probe_ns = 0;
    ctx.simplify = GateVerdict::not_consulted();
    if !shared.simplify || !group[0].spec.uniform_body {
        return Some(group);
    }
    let sig = ctx.sig;
    let k = group.len() as u64;
    let decline = |ctx: &mut BatchCtx, reason: &'static str| {
        ctx.simplify = GateVerdict::declined(reason);
        RuntimeStats::add(&shared.stats.simplify_rejects, k);
    };
    if shared.profile().scan_verdict(sig) == Some(false) {
        decline(ctx, "persisted-negative");
        return Some(group);
    }
    let gate_t0 = Instant::now();
    let scan = &group[0].facts.allocation.scan;
    let walk = match scan.get() {
        Some(&m) => Ok(m),
        None => {
            // Every `Reject` variant is structural (pattern-only), so
            // either verdict is safe to persist per signature.
            let walk = recognize(&group[0].spec.pattern, &CostGuard::default());
            shared.profile().set_scan_verdict(sig, walk.is_ok());
            walk.map(|m| *scan.get_or_init(|| m))
        }
    };
    let recognize_ns = gate_t0.elapsed().as_nanos() as u64;
    let Ok(m) = walk else {
        ctx.simplify_probe_ns = recognize_ns;
        decline(ctx, "recognizer-miss");
        return Some(group);
    };
    let kernel = GroupKernel::Scan { m, recognize_ns };
    match execute_group(shared, ctx, group, kernel) {
        Ok(()) => None,
        Err((group, reason, spent)) => {
            ctx.simplify_probe_ns = recognize_ns + spent.as_nanos() as u64;
            decline(ctx, reason);
            Some(group)
        }
    }
}

fn process_batch(shared: &Shared, batch: Vec<QueuedJob>) {
    let sig = batch[0].facts.sig;
    let dequeued_at = Instant::now();
    let mut ctx = BatchCtx {
        sig,
        batched_with: batch.len() - 1,
        entry: None,
        dequeued_at,
        decided_at: dequeued_at,
        evicted_this_batch: false,
        scheme: Scheme::Seq,
        effects: Effects::default(),
        single: None,
        record: None,
        split: None,
        fusion: GateVerdict::not_consulted(),
        simplify: GateVerdict::not_consulted(),
        simplify_probe_ns: 0,
        pending: PendingDeliveries::default(),
    };
    RuntimeStats::add(&shared.stats.batches, 1);
    RuntimeStats::add(&shared.stats.coalesced, ctx.batched_with as u64);

    // Poisoned-class quarantine: a class whose bodies panicked
    // `quarantine_after` times in a row fails fast — no inspection, no
    // decision, no worker sweep — until unquarantined or TTL-expired.
    if let Some(count) = shared.quarantine_blocked(sig) {
        fail_fast(shared, &mut ctx, batch, &JobError::quarantined(count));
        return;
    }

    ctx.entry = shared.profile().get(sig).map(ProfileEntry::policy);
    RuntimeStats::add(&shared.stats.profile_hits, ctx.entry.is_some() as u64);
    let groups = fuse_groups(batch, shared.max_fuse);

    // The batch's single-job decision, from the calibrator's state at pop.
    // It may run the inspector over an arbitrary client pattern, so it is
    // fenced just like execution below.
    let decision = fenced(|| decide(shared, &mut ctx, &groups[0][0], 1, None));
    ctx.decided_at = Instant::now();
    let Ok(Some((scheme, priced, effects))) = decision else {
        // The whole batch shares the poisoned decision input; fail it
        // (one poisoned decision = one strike against the class).
        shared.note_panic(sig);
        let why = decision.map_or_else(|p| panic_message(&*p), |_| "no decision".into());
        let error = JobError::panic(format!("scheme decision panicked: {why}"));
        fail_fast(shared, &mut ctx, groups.into_iter().flatten(), &error);
        return;
    };
    // The decision latency belongs to the scheme it picked.
    let decide_ns = (ctx.decided_at - dequeued_at).as_nanos() as u64;
    shared.telemetry.record_decide(scheme, decide_ns);
    // An exploration pick or a recheck did not come from the store
    // (`effects.kept` is off), so neither may report `profile_hit` to
    // clients or be measured against the entry.
    ctx.effects = effects;
    ctx.scheme = scheme;
    ctx.single = Some((scheme, priced));
    for group in groups {
        // A declared-uniform group over a recognized scan/window family
        // runs the rewritten plan instead of any scheme sweep.
        let Some(mut group) = try_simplify(shared, &mut ctx, group) else {
            continue;
        };
        ctx.fusion = GateVerdict::declined("group-of-one");
        // A group of K ≥ 2 is decided at its K alone; a declined group,
        // and one whose sweep a body abandoned (each member re-run alone
        // so only the panicking body reports an error), runs on the
        // batch's single-job decision.
        if group.len() > 1 {
            match fenced(|| decide(shared, &mut ctx, &group[0], group.len(), None)) {
                Ok(None) => {}
                Ok(Some((scheme, Some(record), _))) => {
                    let kernel = GroupKernel::Fused(scheme, record);
                    match execute_group(shared, &mut ctx, group, kernel) {
                        Ok(()) => continue,
                        Err((members, ..)) => group = members,
                    }
                    ctx.fusion = GateVerdict::declined("panicked");
                }
                _ => ctx.fusion = GateVerdict::declined("panicked"),
            }
        }
        for job in group {
            execute_single(shared, &mut ctx, job);
        }
    }
}

/// Execute one job on its own traversal (the non-fused path), routing it
/// to the scalar software backend, the vectorized SIMD backend (for
/// [`Scheme::Simd`] decisions), or — for [`Scheme::Pclr`] decisions —
/// the simulated hardware backend.
fn execute_single(shared: &Shared, ctx: &mut BatchCtx, job: QueuedJob) {
    // The quarantine is re-checked per job, not only per batch: a class
    // can cross the panic threshold *mid-batch* (or in a batch racing on
    // a stolen shard), and every job dispatched after that must fail
    // fast rather than re-run a body the ledger already condemned.
    if let Some(count) = shared.quarantine_blocked(job.facts.sig) {
        fail_fast(shared, ctx, [job], &JobError::quarantined(count));
        return;
    }
    let facts = &job.facts;
    // A batch-mate (or stale profile) may have chosen a scheme this job
    // cannot run; such a job re-decides with that scheme masked off.
    let batch_scheme = ctx.scheme;
    let runnable = match batch_scheme {
        Scheme::Lw => job.spec.lw_feasible,
        Scheme::Pclr => shared.pclr_admits(&job.spec.pattern),
        Scheme::Simd => shared.simd.is_some(),
        _ => true,
    };
    let mask = (!runnable).then_some(batch_scheme);

    // A *persisted* decision this service cannot execute (a hardware
    // entry with the backend disabled, a `simd` entry on a scalar-only
    // service) is dead weight: re-decided executions never feed the
    // store, so the entry would mask forever.  Evict it — the next batch
    // misses the profile and records an executable scheme.
    let dead_entry = matches!(mask, Some(Scheme::Pclr | Scheme::Simd));
    if dead_entry && ctx.effects.kept && !ctx.evicted_this_batch {
        shared.profile().evict(ctx.sig);
        RuntimeStats::add(&shared.stats.evictions, 1);
        ctx.evicted_this_batch = true;
    }
    let mut record = mask.is_none().then(|| commit(shared, ctx, &job)).flatten();

    // A panicking user body (or an inspector tripping over a malformed
    // pattern) becomes the job's error and the service keeps draining; it
    // reports the batch scheme on the software backend.
    let mut ran = (batch_scheme, "software", Duration::ZERO);
    let work = fenced(|| {
        let mut scheme = batch_scheme;
        // A re-decide under a feasibility mask is a decision of its own:
        // it publishes a record whose candidate table shows the offending
        // scheme as infeasible.
        if let Some((picked, priced, _)) = mask.and_then(|_| decide(shared, ctx, &job, 1, mask)) {
            record = priced.map(|r| publish(shared, ctx, r));
            scheme = picked;
        }
        // A hit of an established entry (at least
        // `toolbox::DRIFT_MIN_RUNS` runs) is judged for drift, so it must
        // learn: with no inspection of its allocation in this process (a
        // restart, a new allocation of a known class) it pays one before
        // its kernel, which reuses it.
        if mask.is_none() && ctx.effects.judged {
            facts.inspection(&job.spec.pattern, &shared.stats);
        }
        let req = ExecRequest {
            pattern: &job.spec.pattern,
            body: &job.spec.body,
            threads: facts.threads,
            scheme,
            analyses: facts.kernel_analyses(scheme, &job.spec.pattern, &shared.stats),
        };
        let backend: &dyn Backend = match (scheme, &shared.pclr, &shared.simd) {
            (Scheme::Pclr, Some(pclr), _) => pclr,
            (Scheme::Simd, _, Some(simd)) => simd,
            _ => &shared.software,
        };
        debug_assert!(backend.supports(scheme), "{} vs {scheme}", backend.name());
        let backend_t0 = Instant::now();
        let outcome = backend.execute(&req);
        ran = (scheme, backend.name(), backend_t0.elapsed());
        outcome
    });
    let executed_at = Instant::now();
    let error = work
        .as_ref()
        .err()
        .map(|p| JobError::panic(panic_message(&**p)));
    let outcome = work.ok();
    let (scheme, backend_name, backend_wall) = ran;
    // The cost sample the profile calibrates on: backend-reported
    // (simulated time for pclr, wall time otherwise).
    let elapsed = outcome.as_ref().map_or(Duration::ZERO, |o| o.cost);
    #[cfg(test)]
    let elapsed = match (&outcome, &*shared.scripted_cost.lock().unwrap()) {
        (Some(_), Some(script)) => script(scheme),
        _ => elapsed,
    };
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
        RuntimeStats::add(&shared.stats.simd_offloads, (scheme == Scheme::Simd) as u64);
        // Close the measure→correct loop: every clean execution whose
        // characterization is already filled (only a judged hit pays for
        // one) feeds the calibrator a predicted-vs-measured sample, and
        // software/simulated cost halves pair up to fit cycle→ns.
        let mut residual = None;
        let class_label = facts.inspection.get().map(|insp| {
            let domain = DomainKey::of(&insp.chars);
            // The backend-gated schemes price only for themselves, so
            // flagging the one that ran reproduces its decision's price.
            let input = ModelInput::from_inspection(insp, job.spec.lw_feasible)
                .with_pclr(scheme == Scheme::Pclr)
                .with_simd(scheme == Scheme::Simd);
            let units = |model: &DecisionModel| model.predict(scheme, &input);
            residual = shared.learn(scheme, domain, false, units, elapsed);
            domain_label(&domain)
        });
        let refs = job.spec.pattern.num_references();
        let elapsed_ns = elapsed.as_nanos() as u64;
        shared.pair_cycle_sample(ctx.sig, refs, elapsed_ns as f64, sim_cycles);
        let tel = &shared.telemetry;
        tel.record_exec(scheme, class_label.as_deref(), elapsed_ns);
        tel.record_backend(backend_name, backend_wall.as_nanos() as u64, sim_cycles);

        // Feed the profile only from non-substituted, non-exploration
        // executions (an exploration pick is a calibration sample, not
        // the class's best-known scheme).  A judged hit measuring over
        // `toolbox::DRIFT_EVICT_RATIO` times the calibrator's estimate
        // marks its entry due for a recheck.
        if mask.is_none() && !ctx.effects.explored && !ctx.evicted_this_batch {
            let mut store = shared.profile();
            store.record(ctx.sig, scheme, facts.threads, refs, elapsed);
            if ctx.effects.marks_due(residual) {
                store.set_due(ctx.sig, true);
            }
        }
    }

    finish(
        shared,
        job.facts.sig,
        job.sink,
        Exit {
            output: outcome.map_or_else(|| empty_output(&job.spec.body), |o| o.output),
            scheme,
            elapsed,
            sim_cycles,
            // This job's decision came from the store only if it was not
            // re-decided under a feasibility mask.
            profile_hit: ctx.effects.kept && mask.is_none(),
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
    use crate::registry::tests::unregistered;
    use crate::runtime::tests::{direct_uniform_i64, pattern, sparse_pattern, window_pattern};
    use crate::runtime::{Runtime, RuntimeConfig};
    use smartapps_workloads::pattern::sequential_reduce_i64;
    use smartapps_workloads::{
        contribution, contribution_i64, AccessPattern, Distribution, PatternSpec,
    };

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
        // The class's record is the one decision the group ran: the gate's
        // at K = 6, published once and carried by every member.
        let sig = rt.signature_of(&pat);
        let rec = rt
            .explain(sig)
            .expect("the fused decision publishes a record");
        assert_eq!(
            rec.winner,
            Scheme::Hash,
            "winner is the scheme the group ran"
        );
        assert_eq!(rec.features.fanout, 6, "decided at the group's K");
        assert_eq!(rec.fusion, GateVerdict::fired("hash-trusted"));
        assert_eq!(rec.simplify, GateVerdict::not_consulted());
        assert_eq!(rec.quarantine, GateVerdict::declined("clear"));
        assert_eq!(rec.backend, "software");
        assert!(!rec.explored && !rec.rechecked);
        assert_eq!(rec.flips, 0);
        let slow = rt.slowlog(64);
        let carried: Vec<_> = slow.iter().filter(|e| e.class == sig.0).collect();
        assert!(!carried.is_empty());
        for ex in carried {
            assert!(Arc::ptr_eq(ex.payload.record.as_ref().unwrap(), &rec));
        }
    }

    /// The deterministic-fusing recipe of the test above: one busy
    /// dispatcher (a large warm-up job of another class), then six
    /// same-pattern jobs over `pat` queued behind it, so they coalesce
    /// into one batch and meet the fusion gate together.
    fn run_fused_group(
        rt: &Runtime,
        pat: &Arc<AccessPattern>,
        warm_seed: u64,
        lw_feasible: bool,
    ) -> Vec<JobResult> {
        let big = Arc::new(
            PatternSpec {
                num_elements: 60_000,
                iterations: 1_200_000,
                refs_per_iter: 2,
                coverage: 1.0,
                dist: Distribution::Uniform,
                seed: warm_seed,
            }
            .generate(),
        );
        let warm = rt.submit(JobSpec::i64(big, |_i, r| contribution_i64(r)));
        let handles: Vec<JobHandle> = (0..6)
            .map(|kk| {
                let scale = kk as i64 + 1;
                let spec = JobSpec::i64(pat.clone(), move |_i, r| {
                    contribution_i64(r).wrapping_mul(scale)
                });
                rt.submit(spec.with_lw_feasible(lw_feasible))
            })
            .collect();
        assert!(warm.wait().error.is_none());
        handles.into_iter().map(|h| h.wait()).collect()
    }

    fn fusing_runtime(calibration: crate::CalibrationConfig) -> Runtime {
        Runtime::new(RuntimeConfig {
            workers: 3,
            dispatchers: 1,
            max_batch: 32,
            max_fuse: 8,
            calibration,
            ..RuntimeConfig::default()
        })
    }

    #[test]
    fn decision_flips_count_only_executed_scheme_changes() {
        // The class runs alone once (a K = 1 decision), then its group
        // fuses on every pass (a declined group runs as a probe), under
        // whichever scheme the fanout-K table picks as calibration moves
        // it.  Each pass publishes the one decision it ran, and the
        // ledger flips exactly when the executed scheme changed.
        let rt = fusing_runtime(crate::CalibrationConfig {
            probe_fused_every: 1,
            ..Default::default()
        });
        let pat = sparse_pattern(65);
        let sig = rt.signature_of(&pat);
        let alone = rt.run(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)));
        let mut ran = vec![alone.scheme];
        let mut coalesced = true;
        assert_eq!(rt.explain(sig).unwrap().winner, alone.scheme);
        for pass in 0..3 {
            let results = run_fused_group(&rt, &pat, 95 + pass, false);
            // A member that slips out of the batch (a loaded host) runs
            // alone on the profile hit and may publish one more decision,
            // which can only add changes to the executed sequence.
            coalesced &= results.iter().all(|r| r.fused_with == 5);
            let mut swept: Vec<Scheme> = results
                .iter()
                .filter(|r| r.fused_with > 0)
                .map(|r| r.scheme)
                .collect();
            swept.dedup();
            assert_eq!(swept.len(), 1, "pass {pass}: one sweep scheme, {swept:?}");
            ran.push(swept[0]);
            let rec = rt.explain(sig).unwrap();
            assert_eq!(rec.winner, swept[0], "pass {pass}");
            assert!(rec.features.fanout > 1 && rec.fusion.fired, "{rec:?}");
        }
        let changes = ran.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        assert!(
            changes >= 1,
            "fixture: the split pick is not the fused one {ran:?}"
        );
        let flips = rt.explain(sig).unwrap().flips;
        let text = rt.telemetry().registry().render_prometheus();
        let counted: u64 = text
            .lines()
            .filter(|l| l.starts_with("smartapps_decision_flips{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        assert_eq!(counted, flips, "{text}");
        if coalesced {
            assert_eq!(flips, changes, "{ran:?}");
        } else {
            assert!(flips >= changes, "{ran:?}: {flips}");
        }
    }

    #[test]
    fn the_fusion_gate_prices_owner_computes_when_the_group_declares_it() {
        // `lw` feasibility is the jobs' declaration, not a property of
        // the fanout: the gate's fanout-K table must price it.
        let rt = fusing_runtime(Default::default());
        let pat = sparse_pattern(69);
        let results = run_fused_group(&rt, &pat, 93, true);
        assert!(results
            .iter()
            .all(|r| r.error.is_none() && r.fused_with == 5));
        let rec = rt.explain(rt.signature_of(&pat)).unwrap();
        assert_eq!(rec.features.fanout, 6);
        let lw = rec.candidates.iter().find(|c| c.scheme == Scheme::Lw);
        assert!(lw.unwrap().feasible, "{rec:?}");
    }

    #[test]
    fn exploration_counts_only_picks_that_run() {
        // Every batch ticks the exploration cadence, but the fused
        // group's batch never runs its single-job pick: only the warm-up
        // job's exploration executes, so only it counts.
        let rt = fusing_runtime(crate::CalibrationConfig {
            explore_every: 1,
            ..Default::default()
        });
        let pat = sparse_pattern(61);
        let results = run_fused_group(&rt, &pat, 91, false);
        assert!(results.iter().all(|r| r.fused_with == 5));
        let stats = rt.stats();
        assert_eq!(stats.fused_sweeps, 1);
        assert_eq!(stats.explored, 1, "one exploration ran");
        let rec = rt.explain(rt.signature_of(&pat)).unwrap();
        assert!(!rec.explored, "the fused record is no exploration");
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
    fn fuse_groups_split_by_pattern_flavor_and_cap() {
        let pat_a = pattern(71);
        let pat_b = pattern(72);
        let mk = |spec: JobSpec| QueuedJob {
            facts: unregistered(PatternSignature(1), 4),
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
        let groups = fuse_groups(batch, 8);
        // i64-on-A x3, f64-on-A x1, i64-on-B x1.
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[1].len(), 1);
        assert_eq!(groups[2].len(), 1);
        // The cap splits oversized groups.
        let batch: Vec<QueuedJob> = (0..7)
            .map(|_| mk(JobSpec::i64(pat_a.clone(), |_i, r| contribution_i64(r))))
            .collect();
        let groups = fuse_groups(batch, 3);
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
}

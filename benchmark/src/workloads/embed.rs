//! `embed_regimes`: an embedded caller, no server.
//!
//! One submitter keeps two submissions in flight on one `CompletionSet`
//! (`submit_tagged` for single jobs, `submit_batch_tagged` for the
//! group) and blocks in `wait_any`; the pool is as wide as the box has
//! CPUs (`workers: nproc`), so the SPMD paths run, though on the one CPU
//! the run confines itself to (README, "Placement").  A round is one pass
//! over six 0.5–1 Mref classes — one per decision regime — plus a
//! same-pattern group of eight that runs as one fused sweep.  Here the kernels (`exec`, `simd`, `fused`, `simplify`), the
//! inspector and the model, the backends and the pool do the work, and
//! `server` does none: a wire optimisation must not move this workload.

use super::{cold_starts, UNTRACED_SHARE};
use crate::catalogue as cat;
use crate::counters::Reading;
use crate::estimate::{self, Better};
use crate::gen::{self, Rng};
use crate::os;
use crate::run::{self, Budget, Outcome, Recorder, RunArgs};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::verify::{self, Expected};
use smartapps_reductions::algorithms;
use smartapps_runtime::{Completion, CompletionSet, JobSpec, Runtime, RuntimeConfig};
use smartapps_workloads::{
    contribution, contribution_i64, mesh, sequential_reduce, sequential_reduce_i64, AccessPattern,
    Distribution, PatternSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The six single-job classes, in submission order, by the per-layer
/// metric that reports each one's rate.
const CLASS_METRICS: [&str; 6] = [
    "class.dense_i64.mrefs_per_s",
    "class.dense_f64.mrefs_per_s",
    "class.sparse_hash.mrefs_per_s",
    "class.mesh_local.mrefs_per_s",
    "class.window_uniform.mrefs_per_s",
    "class.strided_uniform.mrefs_per_s",
];

#[derive(Clone, Copy)]
enum Body {
    SumI64,
    SumF64,
    /// `contribution_i64` of the iteration: the same value in every slot
    /// of a row, declared uniform.
    UniformI64,
    /// `contribution_i64` scaled: distinct outputs for the fusion group.
    MulI64(i64),
}

struct Job {
    pattern: Arc<AccessPattern>,
    body: Body,
    lw_feasible: bool,
    expected: Expected,
}

impl Job {
    fn new(pattern: impl Into<Arc<AccessPattern>>, body: Body, lw_feasible: bool) -> Job {
        let pattern: Arc<AccessPattern> = pattern.into();
        let expected = match body {
            Body::SumI64 => Expected::I64(sequential_reduce_i64(&pattern)),
            Body::SumF64 => Expected::F64(sequential_reduce(&pattern)),
            Body::UniformI64 => {
                Expected::I64(algorithms::seq(&pattern, &|i, _r| contribution_i64(i)))
            }
            Body::MulI64(k) => Expected::I64(
                sequential_reduce_i64(&pattern)
                    .into_iter()
                    .map(|v| v.wrapping_mul(k))
                    .collect(),
            ),
        };
        Job {
            pattern,
            body,
            lw_feasible,
            expected,
        }
    }

    fn spec(&self) -> JobSpec {
        let p = self.pattern.clone();
        let spec = match self.body {
            Body::SumI64 => JobSpec::i64(p, |_i, r| contribution_i64(r)),
            Body::SumF64 => JobSpec::f64(p, |_i, r| contribution(r)),
            Body::UniformI64 => {
                JobSpec::i64(p, |i, _r| contribution_i64(i)).with_uniform_body(true)
            }
            Body::MulI64(k) => JobSpec::i64(p, move |_i, r| contribution_i64(r).wrapping_mul(k)),
        };
        spec.with_lw_feasible(self.lw_feasible)
    }

    fn refs(&self) -> u64 {
        self.pattern.num_references() as u64
    }
}

/// Jobs `0..6` are the single classes of [`CLASS_METRICS`]; the rest are
/// the fusion group, all over one pattern.
fn jobs(rng: &mut Rng) -> Vec<Job> {
    let mut seed = || rng.next_u64() >> 16;
    let uniform = |num_elements, iterations, coverage, seed| {
        PatternSpec {
            num_elements,
            iterations,
            refs_per_iter: 2,
            coverage,
            dist: Distribution::Uniform,
            seed,
        }
        .generate()
    };
    let mut out = vec![
        // Dense, high reuse: every element is hit ~128 times.
        Job::new(uniform(4096, 262_144, 1.0, seed()), Body::SumI64, false),
        Job::new(uniform(8192, 262_144, 1.0, seed()), Body::SumF64, false),
        // A million elements of which 2 % are ever touched.
        Job::new(uniform(1 << 20, 262_144, 0.02, seed()), Body::SumF64, false),
        // Mesh edges between nearby nodes; owner-computes is legal.
        Job::new(
            mesh::edge_list(131_072, 262_144, 64, seed()),
            Body::SumF64,
            true,
        ),
    ];
    out.push(Job::new(
        gen::window_pattern(4096, 4096, 128, rng),
        Body::UniformI64,
        false,
    ));
    out.push(Job::new(
        gen::strided_pattern(4096, 8192, 64, rng),
        Body::UniformI64,
        false,
    ));
    // One allocation shared by all eight: jobs fuse only over the same
    // `Arc`, as requests for one uploaded handle do.  On this dense shape
    // the fanout-8 ranking prefers a scheme the gate wants measured fused
    // evidence for; with `probe_fused_every: 1` the first pass of a fresh
    // runtime runs the declined group fused as a probe, and from then on
    // the gate has its evidence and fuses the group on every pass (README,
    // "The fusion group").  Sparse shapes fuse under `hash` only when the
    // calibrator's state of the minute says so, which made rounds bimodal.
    let group = Arc::new(uniform(16_384, 24_576, 1.0, rng.next_u64() >> 16));
    for k in 1..=cat::EMBED_FUSE_K as i64 {
        out.push(Job::new(group.clone(), Body::MulI64(k), false));
    }
    out
}

/// Indices of the `sparse_hash` and `mesh_local` classes among the jobs.
const SPARSE_HASH: usize = 2;
const MESH_LOCAL: usize = 3;

/// The submission units of one pass.  A pass starts with nothing in
/// flight, so its first unit starts executing at once; that unit is the
/// longest single job (`sparse_hash`) and the group is submitted right
/// behind it, so all eight members are queued before the dispatcher
/// looks again and meet the fusion gate as one batch — on every pass,
/// not when the timing happens to allow it.  (A shorter job in front
/// let a member slip out of the batch in one pass of a hundred, and
/// moving `sparse_hash` back made `mesh_local`'s first decision come out
/// `simd` instead of `lw` on two seeds of eight.)
fn units() -> Vec<std::ops::Range<usize>> {
    let singles = CLASS_METRICS.len();
    let mut u = vec![
        SPARSE_HASH..SPARSE_HASH + 1,
        singles..singles + cat::EMBED_FUSE_K,
    ];
    // `mesh_local` right behind them: its first-sight decision between
    // `lw` and `simd` is a close one, and made after the dense classes
    // have fed the calibrator their `simd` samples it came out `simd`
    // (a third slower) on two seeds of eight.
    u.extend([MESH_LOCAL, 0, 1, 4, 5].map(|j| j..j + 1));
    u
}

/// The submitter's side of the service: the set, the CPU it spends
/// inside service calls, and the spans around them.
struct Submitter<'a> {
    rt: &'a Runtime,
    set: CompletionSet,
    jobs: &'a [Job],
    /// Thread CPU spent inside `submit*` and `wait_any`: service work
    /// done on the caller's thread (signature sampling above all), so it
    /// is *not* load-generator cost.
    cpu_in_service_ns: u64,
}

impl Submitter<'_> {
    /// CPU of this thread that is the load generator's own.
    fn loadgen_cpu_ns(&self) -> u64 {
        os::thread_cpu_ns() - self.cpu_in_service_ns
    }

    /// Submit one unit of pass `pass`; tokens are `pass * 64 + job`.
    fn submit(
        &mut self,
        pass: u64,
        unit: &std::ops::Range<usize>,
        tracer: &mut Tracer,
    ) -> (Instant, SpanId) {
        let token = |job: usize| pass * 64 + job as u64;
        let c0 = os::thread_cpu_ns();
        let t0 = Instant::now();
        let name = if unit.len() == 1 {
            self.rt
                .submit_tagged(self.jobs[unit.start].spec(), token(unit.start), &self.set);
            "runtime.submit_tagged"
        } else {
            let specs = unit
                .clone()
                .map(|j| (token(j), self.jobs[j].spec()))
                .collect();
            self.rt.submit_batch_tagged(specs, &self.set);
            "runtime.submit_batch_tagged"
        };
        let t1 = Instant::now();
        self.cpu_in_service_ns += os::thread_cpu_ns() - c0;
        let mut root = NO_PARENT;
        if tracer.is_on() {
            root = tracer.begin_at("embed.request", token(unit.start), NO_PARENT, t0);
            tracer.record(name, token(unit.start), root, t0, t1);
        }
        (t0, root)
    }

    fn wait(&mut self) -> Result<(Completion, Instant, Instant), String> {
        let c0 = os::thread_cpu_ns();
        let t0 = Instant::now();
        let done = self.set.wait_any();
        let t1 = Instant::now();
        self.cpu_in_service_ns += os::thread_cpu_ns() - c0;
        done.map(|d| (d, t0, t1))
            .ok_or_else(|| "completion set ran dry with jobs outstanding".to_string())
    }
}

/// A submitted unit whose jobs have not all come back.
struct Flying {
    unit: usize,
    sent: Instant,
    root: SpanId,
    left: usize,
}

/// One answered job of a pass: which job, its completion, when its unit
/// was submitted, when the completion was taken, and the check's verdict.
struct Answer<'a> {
    job: usize,
    /// The last job of its submission to come back: the request is
    /// answered, and its latency is this job's.
    last_of_request: bool,
    done: &'a Completion,
    sent: Instant,
    taken: Instant,
    checked: Result<(), String>,
}

impl Submitter<'_> {
    /// One pass over `units` with the window kept full, ending with
    /// nothing in flight.  Every answered job goes to `on_answer`.
    fn pass(
        &mut self,
        pass: u64,
        units: &[std::ops::Range<usize>],
        tracer: &mut Tracer,
        mut on_answer: impl FnMut(Answer) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut flying: Vec<Flying> = Vec::new();
        let mut next_unit = 0;
        while next_unit < units.len() || !flying.is_empty() {
            while flying.len() < cat::EMBED_WINDOW && next_unit < units.len() {
                let (sent, root) = self.submit(pass, &units[next_unit], tracer);
                flying.push(Flying {
                    unit: next_unit,
                    sent,
                    root,
                    left: units[next_unit].len(),
                });
                next_unit += 1;
            }
            let (done, t1, t2) = self.wait()?;
            let job = (done.token % 64) as usize;
            let at = flying
                .iter()
                .position(|f| done.token / 64 == pass && units[f.unit].contains(&job))
                .ok_or_else(|| format!("completion for unknown token {}", done.token))?;
            let (sent, root) = (flying[at].sent, flying[at].root);
            let checked = match &done.result.error {
                Some(e) => Err(format!("failed: job {job}: {e:?}")),
                None => verify::check_output(&self.jobs[job].expected, &done.result.output),
            };
            let t3 = Instant::now();
            if root != NO_PARENT {
                tracer.record("completion.wait_any", done.token, root, t1, t2);
                tracer.record("verify", done.token, root, t2, t3);
            }
            flying[at].left -= 1;
            let last_of_request = flying[at].left == 0;
            if last_of_request {
                if root != NO_PARENT {
                    tracer.end_at(root, t3);
                }
                flying.swap_remove(at);
            }
            on_answer(Answer {
                job,
                last_of_request,
                done: &done,
                sent,
                taken: t2,
                checked,
            })?;
        }
        Ok(())
    }
}

/// The embedded runtime: a pool as wide as the box has CPUs, and fused
/// probing on for every declined group (see [`jobs`] on the fusion group).
fn config() -> RuntimeConfig {
    run::runtime_config(run::embed_workers(os::nproc()), 1, None)
}

/// `Runtime::new` until every class has been answered once correctly:
/// the first pass of a fresh runtime, submitted exactly like the rest.
fn bring_up(jobs: &[Job]) -> Result<Runtime, String> {
    let rt = Runtime::new(config());
    let mut sub = Submitter {
        rt: &rt,
        set: CompletionSet::with_capacity(64),
        jobs,
        cpu_in_service_ns: 0,
    };
    sub.pass(0, &units(), &mut Tracer::new(1), |a| a.checked)?;
    drop(sub);
    Ok(rt)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let budget = Budget::embedded(os::nproc());
    budget.check()?;
    let _one_cpu = run::confine_to_one_cpu()?;
    let mut rng = Rng::new(args.seed);
    let jobs = jobs(&mut rng);
    let units = units();
    run::print_environment(&budget, &config(), None);

    let mut cold_starts_s = cold_starts(
        cat::COLD_STARTS_EMBED / 2,
        || bring_up(&jobs),
        Runtime::shutdown,
    )?;
    let rt = bring_up(&jobs)?;
    println!(
        "env: live threads {} with the service up",
        os::live_threads()
    );
    let mut sub = Submitter {
        rt: &rt,
        set: CompletionSet::with_capacity(64),
        jobs: &jobs,
        cpu_in_service_ns: 0,
    };

    let mut tracer = Tracer::new(1);
    let mut rec = Recorder::new(cat::EMBED_SLO_US);
    let mut class_ns_per_ref: Vec<Vec<f64>> = vec![Vec::new(); CLASS_METRICS.len()];
    // Which schemes each job slot ran under: a class that changes scheme
    // mid-run is the first thing to look at when rounds spread.
    let mut schemes: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); jobs.len()];
    let warmup_passes = 3u64;
    let measure = Duration::from_secs_f64(args.seconds);
    let mut deadline = Instant::now() + measure;
    let mut trace_from = deadline;
    let mut measuring = false;
    let mut before = None;
    let render = |rt: &Runtime| rt.telemetry().registry().render_prometheus();

    // A round is one pass and ends with nothing in flight, so every
    // round is exactly the same work; within a pass the window keeps the
    // dispatcher's queue from running dry.
    for pass in 1u64.. {
        sub.pass(pass, &units, &mut tracer, |a| {
            if !measuring {
                return a.checked;
            }
            let latency_us = (a.taken - a.sent).as_secs_f64() * 1e6;
            if a.last_of_request {
                rec.checked(a.checked, latency_us, jobs[a.job].refs());
            } else {
                rec.checked_member(a.checked, latency_us, jobs[a.job].refs());
            }
            *schemes[a.job]
                .entry(a.done.result.scheme.abbrev())
                .or_insert(0) += 1;
            if a.job < CLASS_METRICS.len() {
                let ns = a.done.result.elapsed.as_nanos() as f64;
                class_ns_per_ref[a.job].push(ns / jobs[a.job].refs() as f64);
            }
            Ok(())
        })?;
        let now = Instant::now();
        if !measuring && pass == warmup_passes {
            if args.trace {
                before = Some(Reading::take(&rt.stats(), None, &render(&rt)));
            }
            measuring = true;
            deadline = now + measure;
            trace_from = now + measure.mul_f64(UNTRACED_SHARE);
            rec.start(now, sub.loadgen_cpu_ns());
        } else if measuring {
            rec.end_round(now, sub.loadgen_cpu_ns(), tracer.is_on());
            if args.trace && !tracer.is_on() && now >= trace_from {
                tracer.set_on(true);
            }
            if now >= deadline {
                break;
            }
        }
    }

    let mut layers = BTreeMap::new();
    if let Some(before) = before {
        let wall_s = (rec.phase_end - rec.phase_start).as_secs_f64();
        Reading::take(&rt.stats(), None, &render(&rt))
            .since(&before)
            .layers(wall_s, &mut layers);
    }
    for (j, ran) in schemes.iter().enumerate() {
        let name = CLASS_METRICS
            .get(j)
            .copied()
            .unwrap_or("fusion group member");
        let quiet = class_ns_per_ref
            .get(j)
            .map_or(0.0, |v| estimate::quiet(v, Better::Lower));
        println!("class: job {j:2} {name:<34} schemes {ran:?} quiet {quiet:.3} ns/ref");
    }
    for (key, ns_per_ref) in CLASS_METRICS.into_iter().zip(&class_ns_per_ref) {
        let quiet = estimate::quiet(ns_per_ref, Better::Lower);
        layers.insert(key, if quiet > 0.0 { 1e3 / quiet } else { 0.0 });
    }
    println!(
        "env: live threads {} at the end of the phase",
        os::live_threads()
    );
    drop(sub);
    rt.shutdown();
    cold_starts_s.extend(cold_starts(
        cat::COLD_STARTS_EMBED / 2,
        || bring_up(&jobs),
        Runtime::shutdown,
    )?);
    Ok(Outcome {
        recorder: rec,
        cold_starts_s,
        goodput: None,
        layers,
        tracer,
    })
}

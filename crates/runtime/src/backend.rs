//! The execution-backend seam: where a decided job actually runs.
//!
//! The dispatcher decides *what* to run (a [`Scheme`], via profile store
//! or decision model) and this module decides *how*: a [`Backend`]
//! executes one decided job and reports a **cost sample** — the number
//! the profile store calibrates on.  Three implementations exist:
//!
//! * [`SoftwareBackend`] — the reduction library on the persistent
//!   [`WorkerPool`]; its cost sample is measured wall time.
//! * [`SimdBackend`] — the vectorized tree-reduction kernels
//!   (`smartapps_reductions::simd`) on the same worker pool; it executes
//!   only [`Scheme::Simd`] and its cost sample is measured wall time,
//!   directly comparable with the scalar software path.
//! * [`PclrBackend`] — the paper's hardware scheme: the job is lowered
//!   to per-processor PCLR instruction traces
//!   (`smartapps_workloads::tracegen`), run on the simulated CC-NUMA
//!   machine (`smartapps_sim`), and the result read back from simulated
//!   memory.  Its cost sample is *simulated machine time* (cycles scaled
//!   by [`PclrConfig::cycle_ns`]), which is what makes the hardware
//!   scheme comparable — and therefore a first-class competitor — in the
//!   same profile store the software schemes calibrate.
//!
//! Both backends are deterministic given their inputs; panics from job
//! bodies propagate to the caller (the dispatcher fences every execution
//! in `catch_unwind`).

use crate::job::{JobBody, JobOutput, Visit};
use crate::pool::WorkerPool;
use smartapps_core::calibrate::Correction;
use smartapps_reductions::{run_scheme_with, simd_reduce_on, Analyses, Scheme, SimdElem};
use smartapps_sim::offload::run_reduction;
use smartapps_sim::{MachineConfig, RedOp};
use smartapps_workloads::tracegen::{pclr_traces_with_values, TraceParams, ValueFn};
use smartapps_workloads::AccessPattern;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One decided job, ready for a backend to execute.
pub struct ExecRequest<'a> {
    /// The access pattern to reduce over.
    pub pattern: &'a Arc<AccessPattern>,
    /// The contribution body.
    pub body: &'a JobBody,
    /// SPMD width (software backend; the simulated machine uses its own
    /// configured node count).
    pub threads: usize,
    /// The decided scheme.
    pub scheme: Scheme,
    /// Cached inspector products: the inspection for `sel` and `lw`, the
    /// dense slot numbering for `hash`.  A missing one the scheme needs is
    /// computed for this run alone.
    pub analyses: Analyses<'a>,
}

/// What a backend reports back for one executed job.
pub struct ExecOutcome {
    /// The reduced array.
    pub output: JobOutput,
    /// The backend's cost sample, comparable across backends: wall time
    /// for software execution, simulated machine time for PCLR.  This is
    /// what the profile store records and the calibrator learns from.
    pub cost: Duration,
    /// Simulated cycles, when the job ran on the PCLR machine.
    pub sim_cycles: Option<u64>,
}

/// An execution backend: runs one decided job and reports a cost sample.
pub trait Backend: Send + Sync {
    /// Short name for diagnostics (`"software"`, `"pclr"`).
    fn name(&self) -> &'static str;

    /// Whether this backend can execute `scheme`.
    fn supports(&self, scheme: Scheme) -> bool;

    /// Execute one decided job.  May panic if the job body panics (the
    /// dispatcher fences executions); must not be called with a scheme
    /// the backend does not [`support`](Backend::supports).
    fn execute(&self, req: &ExecRequest<'_>) -> ExecOutcome;
}

/// A single-job kernel, generic over the body it runs.
trait Kernel {
    fn run<T: SimdElem>(&self, body: &(impl Fn(usize, usize) -> T + Sync)) -> Vec<T>;
}

/// Run `kernel` over `body` and time it.  The body is matched once per
/// job: a closure body is called through its `dyn` pointer at every
/// reference, a built-in reaches the kernel as a concrete closure the
/// kernel inlines.
fn run_body(body: &JobBody, kernel: impl Kernel) -> ExecOutcome {
    struct Static<K>(K);
    impl<K: Kernel> Visit for Static<K> {
        type Out = JobOutput;
        fn f64(self, f: impl Fn(usize, usize) -> f64 + Copy + Send + Sync + 'static) -> JobOutput {
            JobOutput::F64(self.0.run(&f))
        }
        fn i64(self, f: impl Fn(usize, usize) -> i64 + Copy + Send + Sync + 'static) -> JobOutput {
            JobOutput::I64(self.0.run(&f))
        }
    }
    let t0 = Instant::now();
    let output = match body {
        JobBody::F64(f) => JobOutput::F64(kernel.run(&|i, r| f(i, r))),
        JobBody::I64(f) => JobOutput::I64(kernel.run(&|i, r| f(i, r))),
        JobBody::Builtin(b) => b.visit(Static(kernel)),
    };
    ExecOutcome {
        output,
        cost: t0.elapsed(),
        sim_cycles: None,
    }
}

/// The software path: the reduction library's scheme kernels on the
/// persistent worker pool, timed with the host clock.
pub struct SoftwareBackend {
    pool: Arc<WorkerPool>,
}

impl SoftwareBackend {
    /// Build on a shared worker pool.
    pub fn new(pool: Arc<WorkerPool>) -> Self {
        SoftwareBackend { pool }
    }
}

impl Backend for SoftwareBackend {
    fn name(&self) -> &'static str {
        "software"
    }

    fn supports(&self, scheme: Scheme) -> bool {
        scheme.is_software()
    }

    fn execute(&self, req: &ExecRequest<'_>) -> ExecOutcome {
        struct Sweep<'r, 'a>(&'r ExecRequest<'a>, &'r WorkerPool);
        impl Kernel for Sweep<'_, '_> {
            fn run<T: SimdElem>(&self, body: &(impl Fn(usize, usize) -> T + Sync)) -> Vec<T> {
                let Sweep(req, pool) = *self;
                run_scheme_with(
                    req.scheme,
                    req.pattern,
                    body,
                    req.threads,
                    req.analyses,
                    pool,
                )
            }
        }
        run_body(req.body, Sweep(req, &self.pool))
    }
}

/// The vector path: lane-striped tree-reduction kernels
/// (`smartapps_reductions::simd`) on the persistent worker pool, timed
/// with the host clock.  Supports only [`Scheme::Simd`]; the dispatcher
/// masks the scheme for patterns outside the dense/privatizing regime
/// (`simd_feasible`) before routing here.
pub struct SimdBackend {
    pool: Arc<WorkerPool>,
}

impl SimdBackend {
    /// Build on a shared worker pool.
    pub fn new(pool: Arc<WorkerPool>) -> Self {
        SimdBackend { pool }
    }
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn supports(&self, scheme: Scheme) -> bool {
        scheme == Scheme::Simd
    }

    fn execute(&self, req: &ExecRequest<'_>) -> ExecOutcome {
        debug_assert_eq!(req.scheme, Scheme::Simd);
        struct Tree<'r, 'a>(&'r ExecRequest<'a>, &'r WorkerPool);
        impl Kernel for Tree<'_, '_> {
            fn run<T: SimdElem>(&self, body: &(impl Fn(usize, usize) -> T + Sync)) -> Vec<T> {
                let Tree(req, pool) = *self;
                simd_reduce_on(req.pattern, body, req.threads, pool)
            }
        }
        run_body(req.body, Tree(req, &self.pool))
    }
}

/// Configuration of the PCLR offload backend.
#[derive(Debug, Clone)]
pub struct PclrConfig {
    /// Simulated node count (clamped to a power of two in `[1, 64]`).
    pub nodes: usize,
    /// Use the programmable (Flex/MAGIC-like) controller instead of the
    /// hardwired one.
    pub flex: bool,
    /// Largest job (total reduction references) the backend admits.
    /// Bigger jobs are re-decided onto the software path — the simulator
    /// stands in for real hardware and runs orders of magnitude slower
    /// than native execution, so this bounds dispatcher latency.
    pub max_sim_refs: usize,
    /// Host nanoseconds one simulated cycle converts to when reporting
    /// the cost sample (`1.0` models a 1 GHz machine).  This is only the
    /// *starting* assumption: the runtime fits the effective conversion
    /// online from classes observed on both backends
    /// ([`PclrBackend::fit_cycle_ns`]), and the fit persists across
    /// restarts as the profile store's `cyc` record.
    pub cycle_ns: f64,
}

impl Default for PclrConfig {
    fn default() -> Self {
        PclrConfig {
            nodes: 4,
            flex: false,
            max_sim_refs: 200_000,
            cycle_ns: 1.0,
        }
    }
}

/// The hardware path: lower the job to PCLR traces, run the simulated
/// machine, read the result back from simulated memory.
pub struct PclrBackend {
    config: PclrConfig,
    machine: MachineConfig,
    /// Online fit of the cycle→nanosecond conversion: an EWMA over
    /// observed (software wall-ns/ref, simulated cycles/ref) pairs for
    /// classes that executed on both backends.  Until the first pair the
    /// assumed [`PclrConfig::cycle_ns`] applies.
    cycle_fit: Mutex<Correction>,
}

impl PclrBackend {
    /// Build from a [`PclrConfig`] (node count normalized to a power of
    /// two, value tracking forced by the sim adapter at run time).
    pub fn new(mut config: PclrConfig) -> Self {
        let nodes = config.nodes.clamp(1, 64).next_power_of_two();
        config.nodes = nodes;
        let machine = if config.flex {
            MachineConfig::flex(nodes)
        } else {
            MachineConfig::table1(nodes)
        };
        let cycle_fit = Mutex::new(Correction::seeded(config.cycle_ns, 0));
        PclrBackend {
            config,
            machine,
            cycle_fit,
        }
    }

    /// The active configuration (after normalization).
    pub fn config(&self) -> &PclrConfig {
        &self.config
    }

    /// Fold one observed cycle→nanosecond sample into the fitted
    /// conversion (dispatcher-fed: `software wall-ns per reference /
    /// simulated cycles per reference` for a class seen on both
    /// backends).  Invalid samples are ignored.
    ///
    /// A large refit retroactively rescales every hardware-routed
    /// class's reported cost (cycles are deterministic; the conversion
    /// is not pinned), so a profiled pclr class may read as drift once
    /// under the new conversion and be rechecked — deliberate: a new
    /// time base *is* a phase change for stored calibrations.
    pub fn fit_cycle_ns(&self, sample_ns_per_cycle: f64) {
        if !sample_ns_per_cycle.is_finite() || sample_ns_per_cycle <= 0.0 {
            return;
        }
        let mut fit = self.cycle_fit.lock().unwrap_or_else(|p| p.into_inner());
        fit.observe(sample_ns_per_cycle);
    }

    /// The fitted conversion and the number of samples behind it (0
    /// samples ⇒ the value is still the configured assumption).
    pub fn fitted_cycle_ns(&self) -> Correction {
        *self.cycle_fit.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Seed the fit from persisted state (the profile store's `cyc`
    /// record); a warmer in-memory fit is kept.
    pub fn seed_cycle_fit(&self, fit: Correction) {
        if !fit.ns_per_unit.is_finite() || fit.ns_per_unit <= 0.0 {
            return;
        }
        let mut mine = self.cycle_fit.lock().unwrap_or_else(|p| p.into_inner());
        if fit.updates > mine.updates {
            *mine = fit;
        }
    }

    /// Whether the backend admits a job over this pattern (reference
    /// count within [`PclrConfig::max_sim_refs`]).
    pub fn admits(&self, pat: &AccessPattern) -> bool {
        pat.num_references() <= self.config.max_sim_refs
    }
}

impl Backend for PclrBackend {
    fn name(&self) -> &'static str {
        "pclr"
    }

    fn supports(&self, scheme: Scheme) -> bool {
        scheme == Scheme::Pclr
    }

    fn execute(&self, req: &ExecRequest<'_>) -> ExecOutcome {
        debug_assert_eq!(req.scheme, Scheme::Pclr);
        // Lower the body into the trace's update values: the simulated
        // combine units apply the matching RedOp, so the machine computes
        // exactly the job's reduction (bit-exact for i64, reassociated
        // for f64 like every parallel scheme).
        let (op, vals): (RedOp, ValueFn) = match req.body {
            JobBody::F64(f) => {
                let f = f.clone();
                (RedOp::AddF64, Arc::new(move |i, r| f(i, r).to_bits()))
            }
            JobBody::I64(f) => {
                let f = f.clone();
                (RedOp::AddI64, Arc::new(move |i, r| f(i, r) as u64))
            }
            JobBody::Builtin(_) => {
                let body = req.body.dynamic();
                return self.execute(&ExecRequest {
                    body: &body,
                    ..*req
                });
            }
        };
        let params = TraceParams {
            op,
            values: true,
            ..TraceParams::default()
        };
        let traces = pclr_traces_with_values(req.pattern, self.config.nodes, params, vals);
        let sim = run_reduction(self.machine.clone(), traces, req.pattern.num_elements);
        let output = if req.body.is_f64() {
            JobOutput::F64(sim.values.iter().map(|&v| f64::from_bits(v)).collect())
        } else {
            JobOutput::I64(sim.values.iter().map(|&v| v as i64).collect())
        };
        let cycles = sim.cycles();
        let cycle_ns = self.fitted_cycle_ns().ns_per_unit;
        let cost = Duration::from_nanos((cycles as f64 * cycle_ns).round() as u64);
        ExecOutcome {
            output,
            cost,
            sim_cycles: Some(cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use smartapps_reductions::LocalIndex;
    use smartapps_workloads::pattern::{sequential_reduce, sequential_reduce_i64};
    use smartapps_workloads::{contribution, contribution_i64, Distribution, PatternSpec};

    fn pattern(seed: u64) -> Arc<AccessPattern> {
        Arc::new(
            PatternSpec {
                num_elements: 300,
                iterations: 400,
                refs_per_iter: 3,
                coverage: 0.9,
                dist: Distribution::Uniform,
                seed,
            }
            .generate(),
        )
    }

    #[test]
    fn software_backend_supports_software_schemes_only() {
        let b = SoftwareBackend::new(Arc::new(WorkerPool::new(2)));
        assert_eq!(b.name(), "software");
        for s in Scheme::all_parallel() {
            assert!(b.supports(s));
        }
        assert!(b.supports(Scheme::Seq));
        assert!(!b.supports(Scheme::Pclr));
        assert!(!b.supports(Scheme::Simd));
    }

    #[test]
    fn pooled_hash_f64_runs_are_bit_identical() {
        // `hash` merges each slot's partials in fixed thread order, so
        // two pooled runs of one f64 body agree bit for bit.
        let pat = pattern(9);
        let local = LocalIndex::of(&pat);
        let spec = JobSpec::f64(pat.clone(), |i, r| contribution(r) / (i as f64 + 3.0));
        for threads in [2usize, 4] {
            let b = SoftwareBackend::new(Arc::new(WorkerPool::new(threads)));
            let req = ExecRequest {
                pattern: &pat,
                body: &spec.body,
                threads,
                scheme: Scheme::Hash,
                analyses: Analyses {
                    inspection: None,
                    local: Some(&local),
                },
            };
            let bits = || -> Vec<u64> {
                let out = b.execute(&req).output;
                out.as_f64().unwrap().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(), bits(), "x{threads}");
        }
    }

    #[test]
    fn simd_backend_matches_oracles() {
        let b = SimdBackend::new(Arc::new(WorkerPool::new(3)));
        assert_eq!(b.name(), "simd");
        assert!(b.supports(Scheme::Simd) && !b.supports(Scheme::Rep));
        let pat = pattern(8);
        // i64: bit-exact against the sequential oracle.
        let spec = JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r));
        let out = b.execute(&ExecRequest {
            pattern: &pat,
            body: &spec.body,
            threads: 3,
            scheme: Scheme::Simd,
            analyses: Analyses::default(),
        });
        assert_eq!(out.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        assert!(out.sim_cycles.is_none());
        // f64: within tolerance, and bit-identical across repeated runs.
        let spec = JobSpec::f64(pat.clone(), |_i, r| contribution(r));
        let req = ExecRequest {
            pattern: &pat,
            body: &spec.body,
            threads: 3,
            scheme: Scheme::Simd,
            analyses: Analyses::default(),
        };
        let a = b.execute(&req);
        let c = b.execute(&req);
        let oracle = sequential_reduce(&pat);
        for ((x, y), o) in a
            .output
            .as_f64()
            .unwrap()
            .iter()
            .zip(c.output.as_f64().unwrap())
            .zip(&oracle)
        {
            assert_eq!(x.to_bits(), y.to_bits());
            assert!((x - o).abs() <= 1e-9 * o.abs().max(1.0));
        }
    }

    #[test]
    fn pclr_backend_matches_i64_oracle_exactly() {
        let b = PclrBackend::new(PclrConfig::default());
        assert!(b.supports(Scheme::Pclr) && !b.supports(Scheme::Hash));
        let pat = pattern(5);
        let spec = JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r));
        let out = b.execute(&ExecRequest {
            pattern: &pat,
            body: &spec.body,
            threads: 4,
            scheme: Scheme::Pclr,
            analyses: Analyses::default(),
        });
        assert_eq!(out.output.as_i64().unwrap(), sequential_reduce_i64(&pat));
        let cycles = out.sim_cycles.expect("pclr reports cycles");
        assert!(cycles > 0);
        assert_eq!(out.cost, Duration::from_nanos(cycles)); // cycle_ns = 1.0
    }

    #[test]
    fn pclr_backend_matches_f64_oracle_within_tolerance() {
        let b = PclrBackend::new(PclrConfig {
            nodes: 2,
            ..PclrConfig::default()
        });
        let pat = pattern(6);
        let spec = JobSpec::f64(pat.clone(), |_i, r| contribution(r));
        let out = b.execute(&ExecRequest {
            pattern: &pat,
            body: &spec.body,
            threads: 2,
            scheme: Scheme::Pclr,
            analyses: Analyses::default(),
        });
        let oracle = sequential_reduce(&pat);
        for (a, b) in oracle.iter().zip(out.output.as_f64().unwrap()) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
    }

    #[test]
    fn pclr_backend_uses_iteration_aware_bodies() {
        // The body depends on the iteration index, not just the slot —
        // the lowering must thread both through to the trace values.
        let b = PclrBackend::new(PclrConfig::default());
        let pat = pattern(7);
        let spec = JobSpec::i64(pat.clone(), |i, r| (i as i64) * 7 + contribution_i64(r));
        let out = b.execute(&ExecRequest {
            pattern: &pat,
            body: &spec.body,
            threads: 4,
            scheme: Scheme::Pclr,
            analyses: Analyses::default(),
        });
        let mut oracle = vec![0i64; pat.num_elements];
        for (i, r, x) in pat.iter_refs() {
            oracle[x as usize] += (i as i64) * 7 + contribution_i64(r);
        }
        assert_eq!(out.output.as_i64().unwrap(), oracle);
    }

    #[test]
    fn cycle_fit_refines_the_assumed_conversion() {
        let b = PclrBackend::new(PclrConfig::default());
        // No samples: the configured assumption stands.
        assert_eq!(b.fitted_cycle_ns(), Correction::seeded(1.0, 0));
        // Samples move it; invalid ones are ignored.
        b.fit_cycle_ns(0.5);
        b.fit_cycle_ns(f64::NAN);
        b.fit_cycle_ns(-3.0);
        let fit = b.fitted_cycle_ns();
        assert_eq!(fit.updates, 1);
        assert!((fit.ns_per_unit - 0.5).abs() < 1e-12);
        // The reported cost uses the fitted value, not the assumption.
        let pat = pattern(5);
        let spec = JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r));
        let out = b.execute(&ExecRequest {
            pattern: &pat,
            body: &spec.body,
            threads: 4,
            scheme: Scheme::Pclr,
            analyses: Analyses::default(),
        });
        let cycles = out.sim_cycles.unwrap();
        assert_eq!(
            out.cost,
            Duration::from_nanos((cycles as f64 * 0.5).round() as u64)
        );
        // Persisted state seeds only when warmer.
        b.seed_cycle_fit(Correction::seeded(2.0, 0));
        assert_eq!(b.fitted_cycle_ns().updates, 1);
        b.seed_cycle_fit(Correction::seeded(2.0, 10));
        assert_eq!(b.fitted_cycle_ns(), Correction::seeded(2.0, 10));
    }

    #[test]
    fn pclr_config_normalizes_nodes_and_gates_admission() {
        let b = PclrBackend::new(PclrConfig {
            nodes: 5,
            max_sim_refs: 100,
            ..PclrConfig::default()
        });
        assert_eq!(b.config().nodes, 8, "5 rounds up to a power of two");
        let small = pattern(9); // 1200 refs
        assert!(!b.admits(&small), "1200 refs exceed the 100-ref cap");
        let tiny = Arc::new(AccessPattern::from_iters(4, &[vec![0, 1], vec![2]]));
        assert!(b.admits(&tiny));
    }
}

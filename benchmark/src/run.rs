//! What every workload shares: the explicit service configurations and
//! the thread budget they must fit, the per-round recorder, and the
//! reduction of a measured phase to the end-to-end figures.

use crate::catalogue as cat;
use crate::estimate::{self, Better};
use crate::os;
use crate::trace::Tracer;
use smartapps_reductions::DecisionModel;
use smartapps_runtime::{CalibrationConfig, RuntimeConfig};
use smartapps_server::ServerConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Arguments of one run, as the driver passes them.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run file and the trace go (`benchmark/out/<workload>`
    /// under the working directory unless `--out` says otherwise).
    pub out_dir: PathBuf,
    /// Test hook (`wire_closed_small` only): flip a bit in one class's
    /// expected checksum once measuring starts, so the accounting of wrong
    /// answers can be checked end to end.  The shipped binary has no way
    /// to make itself report wrong answers.
    #[cfg(test)]
    pub corrupt_oracle: bool,
}

/// Pool width (dispatcher included) of the wire workloads.  They run on
/// one CPU ([`confine_to_one_cpu`]), and the issue's `max(1, cpus − 1)`
/// on one CPU is 1: the dispatcher executes inline, so generator, reactor
/// and dispatcher are the three threads that run.
pub const WIRE_WORKERS: usize = 1;

/// Pool width of the embedded workload: the issue's `workers: nproc`, the
/// CPUs the process may use when it starts.  The dispatcher is one of
/// the SPMD threads, so from two CPUs on the privatise, merge and
/// owner-list paths really run; the submitter blocks in `wait_any`.
pub fn embed_workers(nproc: usize) -> usize {
    nproc.max(1)
}

/// Every field spelled out — never from `Default`, whose pool width and
/// reactor count follow the machine without leaving room for the load
/// generator (README, "Thread budget").  `probe_fused_every` is the one
/// value the workloads differ in besides the pool width.
pub fn runtime_config(
    workers: usize,
    probe_fused_every: usize,
    profile_path: Option<PathBuf>,
) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        shards: 16,
        dispatchers: cat::DISPATCHERS,
        max_batch: 32,
        max_fuse: 8,
        sample_iters: 2048,
        profile_path,
        pclr: None,
        simd: true,
        model: DecisionModel::default(),
        calibration: CalibrationConfig {
            explore_every: 0,
            recheck_every: 0,
            probe_fused_every,
        },
        quarantine_after: 0,
        quarantine_ttl: Duration::from_secs(30),
        pattern_intern_capacity: 1024,
        simplify: true,
    }
}

/// The runtime of every wire workload.
pub fn wire_runtime_config(profile_path: Option<PathBuf>) -> RuntimeConfig {
    runtime_config(WIRE_WORKERS, 0, profile_path)
}

pub fn server_config(pattern_cache: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        reactors: cat::WIRE_REACTORS,
        completion_capacity: 4096,
        max_line_bytes: 1 << 20,
        max_frame_bytes: smartapps_server::DEFAULT_MAX_FRAME_BYTES,
        max_batch_jobs: 1024,
        max_refs_per_job: 4_000_000,
        pattern_cache,
        write_stall_budget: Duration::from_secs(5),
    }
}

/// Confine the calling thread, and with it every thread the service
/// creates afterwards, to one CPU, and keep that CPU from halting for as
/// long as the guard lives.  This is the placement of every workload:
/// floating over both vCPUs the closed loop gave 56 216–68 635 jobs/s
/// over five alternating 10-s runs against 45 129–46 336 confined, and the
/// embedded workload 659–1 008 over ten 30-s runs against 657–693
/// (README, "Placement").  An error when the kernel refuses either step:
/// there is no second measuring path.
pub fn confine_to_one_cpu() -> Result<os::KeepAwake, String> {
    let cpu = os::pin_to_one_cpu()?;
    let guard = os::KeepAwake::start()?;
    println!("env: confined to cpu {cpu}; an idle-priority spinner keeps it from halting");
    Ok(guard)
}

/// Threads that can be busy at once, against the CPUs the process has.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// CPUs the process may run on when it starts.
    pub nproc: usize,
    pub loadgen: usize,
    /// Reactors + dispatchers + pool threads beyond the dispatcher (the
    /// acceptor sleeps once the connections are up and is not counted,
    /// nor is the idle-priority spinner, which yields to everything).
    pub service: usize,
}

impl Budget {
    pub fn wire(nproc: usize) -> Budget {
        Budget {
            nproc,
            loadgen: 1,
            service: cat::WIRE_REACTORS + cat::DISPATCHERS + (WIRE_WORKERS - 1),
        }
    }

    /// The embedded submitter counts although it blocks in `wait_any`.
    pub fn embedded(nproc: usize) -> Budget {
        Budget {
            nproc,
            loadgen: 1,
            service: cat::DISPATCHERS + (embed_workers(nproc) - 1),
        }
    }

    pub fn limit(&self) -> usize {
        self.nproc + 1
    }

    pub fn check(&self) -> Result<(), String> {
        let busy = self.loadgen + self.service;
        if busy > self.limit() {
            return Err(format!(
                "thread budget exceeded: {} load-generator + {} service threads can be busy \
                 at once, the limit on {} CPUs is {}",
                self.loadgen,
                self.service,
                self.nproc,
                self.limit()
            ));
        }
        Ok(())
    }
}

/// Print the environment a run's figures depend on.
pub fn print_environment(budget: &Budget, rt: &RuntimeConfig, server: Option<&ServerConfig>) {
    println!(
        "env: nproc {} | budget {} load-generator + {} service <= {} | live threads {}",
        budget.nproc,
        budget.loadgen,
        budget.service,
        budget.limit(),
        os::live_threads()
    );
    println!(
        "env: RuntimeConfig {{ workers: {}, shards: {}, dispatchers: {}, max_batch: {}, \
         max_fuse: {}, sample_iters: {}, profile_path: {:?}, pclr: None, simd: {}, \
         calibration: {:?}, quarantine_after: {}, pattern_intern_capacity: {}, simplify: {} }}",
        rt.workers,
        rt.shards,
        rt.dispatchers,
        rt.max_batch,
        rt.max_fuse,
        rt.sample_iters,
        rt.profile_path,
        rt.simd,
        rt.calibration,
        rt.quarantine_after,
        rt.pattern_intern_capacity,
        rt.simplify
    );
    match server {
        Some(s) => println!("env: {s:?}"),
        None => println!("env: no server (embedded)"),
    }
}

/// One fixed-work round of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub wall_ns: u64,
    pub service_cpu_ns: u64,
    pub jobs: u64,
    pub refs: u64,
    pub lat_p50_us: f64,
    /// Recorded while tracing was on (traced runs measure both kinds to
    /// report the overhead).
    pub traced: bool,
    /// Counts towards the estimates.  Only the open loop has rounds that
    /// do not: those of its 0.6x and 1.4x steps, which are other work.
    pub main: bool,
}

/// Accounting of a measured phase: rounds, every latency, and what was
/// attempted against what came back right.
pub struct Recorder {
    slo_us: f64,
    pub rounds: Vec<Round>,
    /// Every judged latency of the phase, for the whole-phase percentiles.
    pub latencies: LatencyLog,
    round_lat: Vec<f32>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Operations the latency limit is judged on (all of them, except in
    /// the open loop, where it is the 1.0x step's) and how many met it.
    pub slo_attempted: u64,
    pub in_slo: u64,
    /// Whether operations and rounds recorded from now on count towards
    /// the estimates and the limit.
    pub main: bool,
    round_start: Instant,
    round_proc_cpu: u64,
    round_loadgen_cpu: u64,
    round_jobs: u64,
    round_refs: u64,
    pub phase_start: Instant,
    pub phase_end: Instant,
}

impl Recorder {
    pub fn new(slo_us: f64) -> Recorder {
        let now = Instant::now();
        Recorder {
            slo_us,
            rounds: Vec::new(),
            latencies: LatencyLog::default(),
            round_lat: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            slo_attempted: 0,
            in_slo: 0,
            main: true,
            round_start: now,
            round_proc_cpu: 0,
            round_loadgen_cpu: 0,
            round_jobs: 0,
            round_refs: 0,
            phase_start: now,
            phase_end: now,
        }
    }

    /// Start the phase (and its first round) now.  `loadgen_cpu_ns` is
    /// the load generator's own CPU clock, whatever the workload counts
    /// as such; the recorder only ever takes differences of it.
    pub fn start(&mut self, now: Instant, loadgen_cpu_ns: u64) {
        self.phase_start = now;
        self.round_start = now;
        self.round_proc_cpu = os::process_cpu_ns();
        self.round_loadgen_cpu = loadgen_cpu_ns + os::keep_awake_cpu_ns();
    }

    /// A job answered correctly after `latency_us`.
    #[inline]
    pub fn ok(&mut self, latency_us: f64, refs: u64) {
        self.ok_other(latency_us);
        self.round_jobs += 1;
        self.round_refs += refs;
    }

    /// An operation that is not a job (an upload) answered correctly: it
    /// is attempted and judged against the limit, but no job is counted.
    #[inline]
    pub fn ok_other(&mut self, latency_us: f64) {
        self.judge(latency_us);
        self.round_lat.push(latency_us as f32);
    }

    /// Count a correct answer as attempted and hold it against the limit.
    #[inline]
    fn judge(&mut self, latency_us: f64) {
        self.attempted += 1;
        if self.main {
            self.slo_attempted += 1;
            if latency_us <= self.slo_us {
                self.in_slo += 1;
            }
            self.latencies.record(latency_us);
        }
    }

    /// An operation that failed, was refused or timed out: it misses the
    /// limit and makes the run incorrect.
    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.slo_attempted += u64::from(self.main);
        self.failed += 1;
        if self.failed <= 5 {
            println!("FAILED operation: {why}");
        }
    }

    /// An operation answered with the wrong result.
    pub fn wrong(&mut self, why: &str) {
        self.attempted += 1;
        self.slo_attempted += u64::from(self.main);
        self.wrong += 1;
        if self.wrong <= 5 {
            println!("WRONG answer: {why}");
        }
    }

    /// Book the outcome of checking a reply: `Err` texts that start with
    /// `failed:` are failed operations, the rest wrong answers.
    pub fn checked(&mut self, result: Result<(), String>, latency_us: f64, refs: u64) {
        match result {
            Ok(()) => self.ok(latency_us, refs),
            Err(why) if why.contains("failed:") => self.fail(&why),
            Err(why) => self.wrong(&why),
        }
    }

    /// [`checked`](Recorder::checked) for a job of a request that answers
    /// several jobs at once (one `submit_batch_tagged` call), all but the
    /// last: it is attempted, judged and counted like any job, but the
    /// round's latency takes one sample per *request*, which the
    /// request's last job books.  Eight samples of one batch would make
    /// the round's latency that batch's.
    pub fn checked_member(&mut self, result: Result<(), String>, latency_us: f64, refs: u64) {
        match result {
            Ok(()) => {
                self.judge(latency_us);
                self.round_jobs += 1;
                self.round_refs += refs;
            }
            err => self.checked(err, latency_us, refs),
        }
    }

    /// Close the current round at `now` and open the next.
    pub fn end_round(&mut self, now: Instant, loadgen_cpu_ns: u64, traced: bool) {
        let proc_cpu = os::process_cpu_ns();
        let loadgen_cpu_ns = loadgen_cpu_ns + os::keep_awake_cpu_ns();
        let loadgen = loadgen_cpu_ns - self.round_loadgen_cpu;
        let lat_p50_us = if self.round_lat.is_empty() {
            0.0
        } else if self.round_lat.len() < MEDIAN_MIN_SAMPLES {
            // A round of seven requests has no median worth the name:
            // its middle value is whichever class happened to finish
            // fourth, and two classes a millisecond apart swap places
            // between runs.  The round is fixed work, so its mean latency
            // is a property of the round; small rounds report that.
            self.round_lat.iter().map(|&l| f64::from(l)).sum::<f64>() / self.round_lat.len() as f64
        } else {
            let mid = self.round_lat.len() / 2;
            let (_, m, _) = self.round_lat.select_nth_unstable_by(mid, f32::total_cmp);
            f64::from(*m)
        };
        self.rounds.push(Round {
            wall_ns: now.saturating_duration_since(self.round_start).as_nanos() as u64,
            service_cpu_ns: (proc_cpu - self.round_proc_cpu).saturating_sub(loadgen),
            jobs: self.round_jobs,
            refs: self.round_refs,
            lat_p50_us,
            traced,
            main: self.main,
        });
        self.round_lat.clear();
        self.round_start = now;
        self.round_proc_cpu = proc_cpu;
        self.round_loadgen_cpu = loadgen_cpu_ns;
        self.round_jobs = 0;
        self.round_refs = 0;
        self.phase_end = now;
    }
}

/// What a workload hands back: the phase, its cold starts, and the
/// per-layer figures it gathered on the way (traced runs only).
pub struct Outcome {
    pub recorder: Recorder,
    pub cold_starts_s: Vec<f64>,
    /// Open loop: goodput is completions over the schedule's span, not a
    /// statistic over rounds.
    pub goodput: Option<Goodput>,
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

#[derive(Debug, Clone, Copy)]
pub struct Goodput {
    pub jobs_per_s: f64,
    pub mrefs_per_s: f64,
}

/// The figures of one kind of round (traced or not).
pub struct PhaseFigures {
    pub rounds: usize,
    pub jobs_per_s: f64,
    pub mrefs_per_s: f64,
    pub latency_p50_us: f64,
    pub cpu_us_per_job: f64,
    pub noisy_share: f64,
    pub jobs_per_s_mean: f64,
}

/// Figures over the rounds recorded with tracing on, off, or (`None`)
/// over all of them.
pub fn phase_figures(rounds: &[Round], traced: Option<bool>) -> PhaseFigures {
    let rs: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.main && traced.is_none_or(|t| r.traced == t) && r.jobs > 0 && r.wall_ns > 0)
        .collect();
    let per = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rs.iter().map(|r| f(r)).collect() };
    let secs = |r: &Round| r.wall_ns as f64 / 1e9;
    let wall: f64 = rs.iter().map(|r| secs(r)).sum();
    let jobs: u64 = rs.iter().map(|r| r.jobs).sum();
    PhaseFigures {
        rounds: rs.len(),
        jobs_per_s: estimate::quiet(&per(&|r| r.jobs as f64 / secs(r)), Better::Higher),
        mrefs_per_s: estimate::quiet(&per(&|r| r.refs as f64 / secs(r) / 1e6), Better::Higher),
        latency_p50_us: estimate::quiet(&per(&|r| r.lat_p50_us), Better::Lower),
        cpu_us_per_job: estimate::quiet(
            &per(&|r| r.service_cpu_ns as f64 / 1e3 / r.jobs as f64),
            Better::Lower,
        ),
        // Rounds are fixed work, so time per job is the round's duration
        // whatever its job count (open-loop windows differ in count).
        noisy_share: estimate::noisy_share(&per(&|r| secs(r) / r.jobs as f64)),
        jobs_per_s_mean: if wall > 0.0 { jobs as f64 / wall } else { 0.0 },
    }
}

/// The seven end-to-end figures of an untraced phase.
pub fn end_to_end(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let rec = &outcome.recorder;
    let fig = phase_figures(&rec.rounds, Some(false));
    let mut m = BTreeMap::new();
    m.insert(
        "setup_s",
        estimate::quiet(&outcome.cold_starts_s, Better::Lower),
    );
    match outcome.goodput {
        Some(g) => {
            m.insert("jobs_per_s", g.jobs_per_s);
            m.insert("mrefs_per_s", g.mrefs_per_s);
        }
        None => {
            m.insert("jobs_per_s", fig.jobs_per_s);
            m.insert("mrefs_per_s", fig.mrefs_per_s);
        }
    }
    m.insert("latency_p50_us", fig.latency_p50_us);
    m.insert(
        "slo_share",
        if rec.slo_attempted == 0 {
            0.0
        } else {
            rec.in_slo as f64 / rec.slo_attempted as f64
        },
    );
    m.insert("cpu_us_per_job", fig.cpu_us_per_job);
    m.insert("peak_rss_mb", os::peak_rss_mib());
    m
}

/// Samples a round needs before its median is used; below, its mean.
pub const MEDIAN_MIN_SAMPLES: usize = 100;

/// Every latency of a phase in 32 buckets per power of two (values are
/// off by at most 1.6 %), so that a run of a million and a half requests
/// does not carry six megabytes of the load generator's own into
/// `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct LatencyLog {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyLog {
    fn default() -> Self {
        LatencyLog {
            counts: vec![0; 64 * 32],
            total: 0,
        }
    }
}

impl LatencyLog {
    pub fn record(&mut self, latency_us: f64) {
        let ns = (latency_us * 1e3).max(1.0) as u64;
        let e = 63 - ns.leading_zeros() as usize;
        let sub = if e >= 5 {
            (ns >> (e - 5)) & 31
        } else {
            (ns << (5 - e)) & 31
        };
        self.counts[e * 32 + sub as usize] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile in microseconds (the bucket's midpoint).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                let (e, sub) = (i / 32, (i % 32) as f64);
                let lo = 2f64.powi(e as i32) * (1.0 + sub / 32.0);
                return lo * (1.0 + 1.0 / 64.0) / 1e3;
            }
        }
        0.0
    }

    /// The median, p95 and p99 — each of the tail two only with ten
    /// samples beyond it, else 0.
    pub fn percentiles_us(&self) -> (f64, f64, f64) {
        let at = |q: f64| {
            if self.total as f64 * (1.0 - q) >= 10.0 {
                self.quantile_us(q)
            } else {
                0.0
            }
        };
        (self.quantile_us(0.5), at(0.95), at(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_budget_fits_the_box_and_refuses_more() {
        // The embedded workload sizes its pool from the CPUs, so it fits
        // any box; the wire pipeline is three threads and needs two CPUs.
        for nproc in [1usize, 2, 16] {
            assert!(Budget::embedded(nproc).check().is_ok(), "on {nproc}");
            assert_eq!(Budget::embedded(nproc).service, nproc);
        }
        assert!(Budget::wire(2).check().is_ok());
        assert!(Budget::wire(16).check().is_ok());
        let err = Budget::wire(1).check().unwrap_err();
        assert!(err.contains("thread budget exceeded"), "{err}");
        let over = Budget {
            nproc: 2,
            loadgen: 2,
            service: 2,
        };
        assert!(over.check().is_err());
    }

    #[test]
    fn recorder_counts_failures_against_the_attempts() {
        let mut rec = Recorder::new(100.0);
        let t0 = Instant::now();
        rec.start(t0, 0);
        rec.ok(50.0, 10);
        rec.ok(150.0, 10);
        rec.fail("refused upload");
        rec.wrong("checksum");
        rec.end_round(t0 + Duration::from_millis(10), 0, false);
        assert_eq!(
            (rec.attempted, rec.failed, rec.wrong, rec.in_slo),
            (4, 1, 1, 1)
        );
        assert_eq!(rec.slo_attempted, 4);
        assert_eq!(rec.rounds.len(), 1);
        assert_eq!((rec.rounds[0].jobs, rec.rounds[0].refs), (2, 20));
        assert_eq!(rec.rounds[0].lat_p50_us, 100.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let mut few = LatencyLog::default();
        (1..=150).for_each(|i| few.record(f64::from(i)));
        let (p50, p95, p99) = few.percentiles_us();
        assert!(p50 > 0.0 && p95 == 0.0 && p99 == 0.0);
        let mut many = LatencyLog::default();
        (1..=2000).for_each(|i| many.record(f64::from(i)));
        let (p50, p95, p99) = many.percentiles_us();
        for (got, want) in [(p50, 1000.0), (p95, 1900.0), (p99, 1980.0)] {
            assert!((got / want - 1.0).abs() < 0.02, "{got} vs {want}");
        }
    }

    #[test]
    fn small_rounds_report_their_mean_latency() {
        let mut rec = Recorder::new(1e9);
        let t0 = Instant::now();
        rec.start(t0, 0);
        for l in [10.0, 10.0, 10.0, 1000.0] {
            rec.ok(l, 1);
        }
        rec.end_round(t0 + Duration::from_millis(1), 0, false);
        assert_eq!(rec.rounds[0].lat_p50_us, 257.5);
        for i in 0..MEDIAN_MIN_SAMPLES {
            rec.ok(if i < 60 { 10.0 } else { 1000.0 }, 1);
        }
        rec.end_round(t0 + Duration::from_millis(2), 0, false);
        assert_eq!(rec.rounds[1].lat_p50_us, 10.0);
    }
}

//! From a workload's [`Outcome`] to what a run prints: the accounting
//! lines, the metrics of the mode it ran in, the run file `compare`
//! reads, and the one-line result the driver parses.

use crate::catalogue as cat;
use crate::estimate;
use crate::json;
use crate::probes;
use crate::run::{self, Outcome, RunArgs};
use crate::workloads;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a finished run reports.
pub struct RunReport {
    pub correct: bool,
    /// The last line of standard output.
    pub result_line: String,
}

fn metrics_json(
    values: &BTreeMap<&'static str, f64>,
    unit_of: impl Fn(&str) -> &'static str,
) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(*v),
                json::quote(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Span-derived per-layer figures: mean self time of the spans a layer's
/// calls were bracketed with.
fn span_layers(outcome: &Outcome, layers: &mut BTreeMap<&'static str, f64>) {
    let (totals, gap) = outcome.tracer.totals();
    let mean_self = |names: &[&str]| -> f64 {
        let (mut self_ns, mut count) = (0u64, 0u64);
        for n in names {
            if let Some(t) = totals.get(n) {
                self_ns += t.self_ns;
                count += t.count;
            }
        }
        if count > 0 {
            self_ns as f64 / count as f64
        } else {
            0.0
        }
    };
    let mut put = |key: &'static str, names: &[&str]| {
        layers.entry(key).or_insert_with(|| mean_self(names));
    };
    put(
        "client.encode_self_ns",
        &[
            "client.submit",
            "client.submit_batch",
            "client.upload",
            "client.encode",
        ],
    );
    put("client.decode_self_ns", &["client.decode"]);
    put("verify_self_ns", &["verify"]);
    put("server.roundtrip_self_ns", &["wire.request"]);
    put(
        "runtime.submit_self_ns",
        &["runtime.submit_tagged", "runtime.submit_batch_tagged"],
    );
    put("runtime.wait_self_ns", &["completion.wait_any"]);
    println!(
        "trace: {} spans, self times within {:.4} % of the root total",
        outcome.tracer.len(),
        gap * 100.0
    );
    for (name, t) in &totals {
        println!(
            "trace:   {name:<28} n {:>8}  mean {:>10.0} ns  mean self {:>10.0} ns",
            t.count,
            t.total_ns as f64 / t.count.max(1) as f64,
            t.mean_self_ns()
        );
    }
}

pub fn run_and_report(args: &RunArgs) -> Result<RunReport, String> {
    println!(
        "smartbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = workloads::run(args)?;
    let rec = &outcome.recorder;
    let all = run::phase_figures(&rec.rounds, None);
    let untraced = run::phase_figures(&rec.rounds, Some(false));
    let (p50, p95, p99) = rec.latencies.percentiles_us();
    let phase_s = (rec.phase_end - rec.phase_start).as_secs_f64();
    println!(
        "phase: {:.2} s | attempted {} failed {} wrong {} | within the limit {} of {}",
        phase_s, rec.attempted, rec.failed, rec.wrong, rec.in_slo, rec.slo_attempted
    );
    println!(
        "phase: rounds.count {} rounds.noisy_share {:.4} | whole phase: jobs_per_s_mean {:.1} \
         latency p50 {:.1} p95 {:.1} p99 {:.1} us ({} samples)",
        rec.rounds.len(),
        all.noisy_share,
        all.jobs_per_s_mean,
        p50,
        p95,
        p99,
        rec.latencies.len()
    );
    println!(
        "phase: quiet estimates (untraced rounds: {}): jobs_per_s {:.1} latency_p50_us {:.1} \
         cpu_us_per_job {:.3} mrefs_per_s {:.3}",
        untraced.rounds,
        untraced.jobs_per_s,
        untraced.latency_p50_us,
        untraced.cpu_us_per_job,
        untraced.mrefs_per_s
    );
    // Best-first deciles of the rounds' rates: how far the quiet estimate
    // sits from the bulk of the run is the machine's steal, made visible.
    let mut rates: Vec<f64> = rec
        .rounds
        .iter()
        .filter(|r| r.wall_ns > 0)
        .map(|r| r.jobs as f64 * 1e9 / r.wall_ns as f64)
        .collect();
    rates.sort_by(|a, b| b.total_cmp(a));
    let deciles: Vec<String> = (0..=10)
        .map(|d| format!("{:.0}", estimate::quantile_sorted(&rates, d as f64 / 10.0)))
        .collect();
    println!(
        "phase: round jobs/s, best to worst by decile: {}",
        deciles.join(" ")
    );
    println!(
        "setup: {} cold starts, quiet {:.6} s, median {:.6} s",
        outcome.cold_starts_s.len(),
        estimate::quiet(&outcome.cold_starts_s, estimate::Better::Lower),
        estimate::median(&outcome.cold_starts_s)
    );

    let correct = rec.attempted > 0 && rec.failed == 0 && rec.wrong == 0;
    let attempted = rec.attempted.max(1);
    let failed = rec.failed + rec.wrong;
    let lateness_p95 = outcome
        .layers
        .get("loadgen.lateness_p95_us")
        .copied()
        .unwrap_or(0.0);
    let noisy = all.noisy_share > 0.5 || lateness_p95 > cat::OPEN_WINDOW_MS as f64 * 1e3;
    if noisy {
        println!(
            "WARNING: noisy run (rounds.noisy_share {:.3}, loadgen.lateness_p95_us {:.0}); \
             its figures say more about the machine than the program",
            all.noisy_share, lateness_p95
        );
    }
    if rec.rounds.len() < 200 && args.seconds >= f64::from(cat::RUN_SECONDS) {
        println!(
            "WARNING: only {} rounds; the method wants at least 200",
            rec.rounds.len()
        );
    }

    let metrics = if args.trace {
        let traced = run::phase_figures(&rec.rounds, Some(true));
        let mut layers = std::mem::take(&mut outcome.layers);
        layers.insert("rounds.count", rec.rounds.len() as f64);
        layers.insert("rounds.noisy_share", all.noisy_share);
        layers.insert("phase.jobs_per_s_mean", all.jobs_per_s_mean);
        layers.insert("phase.latency_p50_us", p50);
        layers.insert("phase.latency_p95_us", p95);
        layers.insert("phase.latency_p99_us", p99);
        layers
            .entry("trace.overhead_share")
            .or_insert(if untraced.jobs_per_s > 0.0 {
                1.0 - traced.jobs_per_s / untraced.jobs_per_s
            } else {
                0.0
            });
        span_layers(&outcome, &mut layers);
        probes::run(&mut layers);
        let trace_path = args.out_dir.join("trace.jsonl");
        outcome
            .tracer
            .write_jsonl(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!("trace: spans written to {}", trace_path.display());
        // Every catalogued name is printed on every workload; a layer the
        // workload does not touch reports 0.
        cat::PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0)))
            .collect::<BTreeMap<_, _>>()
    } else {
        run::end_to_end(&outcome)
    };
    let unit_of = |name: &str| -> &'static str {
        cat::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(cat::PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    for (name, v) in &metrics {
        println!("metric: {name} = {} {}", json::number(*v), unit_of(name));
    }
    let metrics = metrics_json(&metrics, unit_of);
    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );

    // The run file: the result plus what `compare` needs to place it.
    let mut file = String::new();
    let _ = writeln!(
        file,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"noisy\": {noisy}, \
         \"wrong\": {}, \"rounds\": {}, \"noisy_share\": {}, \"round_wall_ns\": [{}], \
         \"result\": {result_line}}}",
        json::quote(&args.workload),
        args.seed,
        json::number(args.seconds),
        args.trace,
        rec.wrong,
        rec.rounds.len(),
        json::number(all.noisy_share),
        rec.rounds
            .iter()
            .map(|r| r.wall_ns.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let path = args.out_dir.join(format!(
        "run-seed{}-trace{}.json",
        args.seed, args.trace as u8
    ));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("run file: {}", path.display());
    Ok(RunReport {
        correct,
        result_line,
    })
}

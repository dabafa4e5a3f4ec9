//! `*_ns` probes of the traced run: one public function of a layer, timed
//! on a **fixed** input (the run's seed does not reach this file), so the
//! figure moves only when that function's code does.
//!
//! Each probe repeats its call in batches sized to a few hundred
//! microseconds and reports the quiet estimate over the batch means —
//! the same one-sided-noise argument as for rounds.

use crate::estimate::{self, Better};
use crate::gen;
use crate::run;
use smartapps_core::toolbox::DomainKey;
use smartapps_core::{AdaptiveReduction, Calibrator};
use smartapps_reductions::{
    probe_uniform, rank_schemes, recognize, run_fused_on, run_scan, run_scheme_on, simd_reduce_on,
    CostGuard, DecisionModel, FusedBody, Inspector, ModelInput, Scheme, SpmdExecutor,
};
use smartapps_runtime::{
    CompletionSet, JobSpec, PatternInterner, PatternSignature, ProfileStore, Runtime, WorkerPool,
};
use smartapps_server::wire2::{self, FrameBuf, FrameStep};
use smartapps_server::{
    DoneMsg, DoneOutcome, Payload, ReplyMode, Request, Response, SubmitArgs, WireBody, WireSource,
    DEFAULT_MAX_FRAME_BYTES,
};
use smartapps_sim::addr::{regions, to_shadow};
use smartapps_sim::{run_reduction, MachineConfig, Phase, RedOp, TraceBuilder, TraceSource};
use smartapps_telemetry::{
    LogHistogram, Registry, TraceBackend, TraceError, TraceEvent, TraceRing,
};
use smartapps_workloads::{
    contribution, contribution_i64, AccessPattern, Distribution, PatternChars, PatternSpec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time spent on one probe.
const BUDGET: Duration = Duration::from_millis(20);
/// A batch is sized to take about this long.
const BATCH: Duration = Duration::from_micros(300);

/// Nanoseconds per call of `f`, quiet estimate over batches.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().max(Duration::from_nanos(20));
    let per_batch = (BATCH.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u32;
    let mut means = Vec::new();
    let end = Instant::now() + BUDGET;
    while means.len() < 8 || (Instant::now() < end && means.len() < 400) {
        let t = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        means.push(t.elapsed().as_nanos() as f64 / f64::from(per_batch));
    }
    estimate::quiet(&means, Better::Lower)
}

fn uniform(num_elements: usize, iterations: usize, coverage: f64, seed: u64) -> AccessPattern {
    PatternSpec {
        num_elements,
        iterations,
        refs_per_iter: 2,
        coverage,
        dist: Distribution::Uniform,
        seed,
    }
    .generate()
}

fn ack_done(token: u64) -> Response {
    Response::Done(DoneMsg {
        token,
        outcome: DoneOutcome::Ok {
            scheme: "simd".into(),
            elapsed_ns: 4321,
            profile_hit: true,
            fused_with: 0,
            batched_with: 3,
            payload: Payload::Checksum {
                len: 512,
                sum: 0x1234_5678_9abc,
            },
        },
    })
}

fn wire(out: &mut BTreeMap<&'static str, f64>) {
    let submit = Request::Submit(SubmitArgs {
        token: 123_456,
        reply: ReplyMode::Ack,
        body: WireBody::Sum,
        source: WireSource::Gen(gen::small_spec(41)),
    });
    let line = submit.encode();
    out.insert("wire.text_parse_ns", time_ns(|| Request::parse(&line)));
    let ack = ack_done(123_456);
    out.insert("wire.text_encode_ns", time_ns(|| ack.encode()));
    out.insert(
        "wire2.encode_req_ns",
        time_ns(|| wire2::encode_request(&submit)),
    );
    let frame = wire2::encode_request(&submit);
    let (kind, body) = (frame[4], &frame[5..]);
    out.insert(
        "wire2.decode_req_ns",
        time_ns(|| wire2::decode_request(kind, body)),
    );
    out.insert(
        "wire2.encode_resp_ack_ns",
        time_ns(|| wire2::encode_response(&ack)),
    );
    let full = Response::Done(DoneMsg {
        token: 9,
        outcome: DoneOutcome::Ok {
            scheme: "simd".into(),
            elapsed_ns: 4321,
            profile_hit: true,
            fused_with: 0,
            batched_with: 0,
            payload: Payload::FullF64((0..2048).map(|i| f64::from(i) * 0.5).collect()),
        },
    });
    out.insert(
        "wire2.encode_resp_full_ns",
        time_ns(|| wire2::encode_response(&full)),
    );
    // Sixteen ack frames arriving in one read; the figure is per frame.
    let burst: Vec<u8> = (0..16)
        .flat_map(|t| wire2::encode_response(&ack_done(t)))
        .collect();
    let split = time_ns(|| {
        let mut frames = FrameBuf::new();
        frames.extend(&burst);
        let mut n = 0;
        while let Ok(FrameStep::Frame { .. }) = frames.next_frame(DEFAULT_MAX_FRAME_BYTES) {
            n += 1;
        }
        n
    });
    out.insert("wire2.frame_split_ns", split / 16.0);
}

fn runtime(out: &mut BTreeMap<&'static str, f64>) {
    let small = Arc::new(gen::small_spec(41).to_pattern_spec().generate());
    // A job's trip through submit, queue, dispatch and completion.
    let rt = Runtime::new(run::runtime_config(1, 0, None));
    let set = CompletionSet::with_capacity(16);
    let job = || JobSpec::i64(small.clone(), |_i, r| contribution_i64(r));
    rt.submit_tagged(job(), 0, &set);
    set.wait_any();
    out.insert(
        "completion.roundtrip_ns",
        time_ns(|| {
            rt.submit_tagged(job(), 1, &set);
            set.wait_any()
        }),
    );
    rt.shutdown();
    // One empty SPMD region on a two-wide pool: wake, run, latch.
    let pool = WorkerPool::new(2);
    out.insert(
        "pool.region_ns",
        time_ns(|| {
            pool.spmd(2, &|tid| {
                black_box(tid);
            })
        }),
    );
    drop(pool);

    out.insert(
        "intern.fresh_ns",
        time_ns(|| {
            PatternInterner::new(4)
                .intern((*small).clone())
                .map(|i| i.handle)
        }),
    );
    let interner = PatternInterner::new(4);
    let _ = interner.intern((*small).clone());
    out.insert(
        "intern.dedup_ns",
        time_ns(|| interner.intern((*small).clone()).map(|i| i.handle)),
    );
    out.insert(
        "profile.signature_ns",
        time_ns(|| PatternSignature::of(&small, 2048, 1)),
    );
    let mut store = ProfileStore::new();
    for s in 0..64u64 {
        store.record(
            PatternSignature(s.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            Scheme::all_parallel()[s as usize % 5],
            2,
            1200 + s as usize,
            Duration::from_micros(20 + s),
        );
    }
    out.insert("profile.to_text_ns", time_ns(|| store.to_text()));
    let text = store.to_text();
    out.insert(
        "profile.from_text_ns",
        time_ns(|| ProfileStore::from_text(&text).map(|s| s.len())),
    );
}

/// Shapes the model is judged on: dense, mid reuse, sparse, clustered.
fn regret_patterns() -> Vec<AccessPattern> {
    vec![
        uniform(2048, 32_768, 1.0, 51),
        uniform(32_768, 32_768, 1.0, 52),
        uniform(1 << 18, 32_768, 0.05, 53),
        PatternSpec {
            num_elements: 65_536,
            iterations: 32_768,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Clustered { window: 64 },
            seed: 54,
        }
        .generate(),
    ]
}

fn reductions(out: &mut BTreeMap<&'static str, f64>) {
    let threads = 2;
    let pool = WorkerPool::new(threads);
    let mid = uniform(8192, 65_536, 1.0, 42);
    let refs = mid.num_references() as f64;
    let body = |_i: usize, r: usize| contribution(r);
    let insp = Inspector::analyze(&mid, threads);
    out.insert(
        "inspect.analyze_ns_per_ref",
        time_ns(|| Inspector::analyze(&mid, threads)) / refs,
    );
    let input = ModelInput::from_inspection(&insp, true).with_simd(true);
    let model = DecisionModel::default();
    out.insert("model.decide_ns", time_ns(|| model.decide(&input).best()));

    for (name, scheme) in [
        ("exec.seq_ns_per_ref", Scheme::Seq),
        ("exec.rep_ns_per_ref", Scheme::Rep),
        ("exec.ll_ns_per_ref", Scheme::Ll),
        ("exec.sel_ns_per_ref", Scheme::Sel),
        ("exec.lw_ns_per_ref", Scheme::Lw),
        ("exec.hash_ns_per_ref", Scheme::Hash),
    ] {
        let ns = time_ns(|| run_scheme_on(scheme, &mid, &body, threads, Some(&insp), &pool));
        out.insert(name, ns / refs);
    }
    // Computed from array sizes, not measured: index and row-pointer
    // reads, one read-modify-write per reference, and `rep`'s private
    // copies initialised, merged and written once per thread.
    let bytes = 4.0 * refs
        + 4.0 * (mid.num_iterations() + 1) as f64
        + 16.0 * refs
        + (threads * mid.num_elements * 8 * 3) as f64;
    out.insert("exec.bytes_per_ref_computed", bytes / refs);
    out.insert(
        "simd.i64_ns_per_ref",
        time_ns(|| simd_reduce_on(&mid, &|_i, r| contribution_i64(r), threads, &pool)) / refs,
    );
    out.insert(
        "simd.f64_ns_per_ref",
        time_ns(|| simd_reduce_on(&mid, &body, threads, &pool)) / refs,
    );
    let sparse = uniform(1 << 18, 32_768, 0.05, 43);
    let scaled: Vec<Box<dyn Fn(usize, usize) -> f64 + Sync>> = (1..=8)
        .map(|k| Box::new(move |_i: usize, r: usize| contribution(r) * f64::from(k)) as Box<_>)
        .collect();
    let bodies: Vec<FusedBody<'_, f64>> =
        scaled.iter().map(|b| &**b as FusedBody<'_, f64>).collect();
    out.insert(
        "fused.k8_ns_per_ref",
        time_ns(|| run_fused_on(Scheme::Hash, &sparse, &bodies, threads, None, &pool))
            / (sparse.num_references() * bodies.len()) as f64,
    );

    // Regret of the model's choice against the measured ranking.
    let (mut regret, mut agree) = (0.0, 0.0);
    let patterns = regret_patterns();
    for pat in &patterns {
        let (timings, _seq) = rank_schemes(pat, &body, threads, true, 3);
        let insp = Inspector::analyze(pat, threads);
        let choice = model
            .decide(&ModelInput::from_inspection(&insp, true))
            .best();
        let best = timings[0];
        let chosen = timings.iter().find(|t| t.scheme == choice).unwrap_or(&best);
        regret += chosen.elapsed.as_secs_f64() / best.elapsed.as_secs_f64();
        agree += f64::from(u8::from(choice == best.scheme));
    }
    out.insert("model.regret_ratio", regret / patterns.len() as f64);
    out.insert("model.oracle_agree_share", agree / patterns.len() as f64);

    let mut rng = gen::Rng::new(7);
    let window = gen::window_pattern(2048, 1024, 128, &mut rng);
    let uniform_body = |i: usize, _r: usize| contribution_i64(i);
    out.insert(
        "simplify.recognize_ns",
        time_ns(|| recognize(&window, &CostGuard::default()).is_ok()),
    );
    out.insert(
        "simplify.probe_ns",
        time_ns(|| probe_uniform(&window, &uniform_body)),
    );
    out.insert(
        "simplify.scan_ns_per_ref",
        time_ns(|| run_scan(&window, &uniform_body)) / window.num_references() as f64,
    );

    let domain = DomainKey::of(&insp.chars);
    let mut cal = Calibrator::new(model);
    out.insert("calibrate.rank_ns", time_ns(|| cal.rank(&input, domain)));
    out.insert(
        "provenance.explain_ns",
        time_ns(|| cal.explain(&input, domain).winner),
    );
    let predicted = cal.model.predict(Scheme::Rep, &input);
    out.insert(
        "calibrate.observe_ns",
        time_ns(|| cal.observe(Scheme::Rep, domain, false, predicted, 250_000.0)),
    );
    let mut adaptive =
        AdaptiveReduction::with_executor(1, threads, true, Arc::new(WorkerPool::new(threads)));
    out.insert(
        "adaptive.execute_ns_per_ref",
        time_ns(|| adaptive.execute(&mid, &body).0.len()) / refs,
    );

    let spec = gen::small_spec(41).to_pattern_spec();
    out.insert(
        "workloads.generate_ns_per_ref",
        time_ns(|| spec.generate()) / (spec.iterations * spec.refs_per_iter) as f64,
    );
    out.insert(
        "workloads.chars_ns_per_ref",
        time_ns(|| PatternChars::measure(&mid)) / refs,
    );
}

fn telemetry(out: &mut BTreeMap<&'static str, f64>) {
    let hist = LogHistogram::new();
    let mut v = 1u64;
    out.insert(
        "telemetry.hist_record_ns",
        time_ns(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(v >> 40)
        }),
    );
    let ring = TraceRing::new(4096);
    let event = TraceEvent {
        signature: 0xfeed,
        submitted_ns: 10,
        queued_ns: 20,
        decided_ns: 30,
        executed_ns: 40,
        completed_ns: 50,
        scheme: 1,
        backend: TraceBackend::Software,
        error: TraceError::None,
        fused: 1,
        simplify_ns: 0,
    };
    out.insert("telemetry.trace_push_ns", time_ns(|| ring.push(&event)));
    let registry = Registry::new();
    for stage in ["queue", "decide", "simplify", "exec", "completion", "write"] {
        for v in [100u64, 1000, 10_000, 100_000] {
            registry.record("smartapps_stage_ns", "stage", stage, v);
        }
    }
    for conn in 0..8 {
        registry.record("smartapps_request_ns", "conn", &conn.to_string(), 50_000);
        registry.add(
            "smartapps_conn_bytes_in",
            "conn",
            &conn.to_string(),
            1 << 20,
        );
    }
    out.insert(
        "telemetry.render_ns",
        time_ns(|| registry.render_prometheus().len()),
    );
}

fn sim(out: &mut BTreeMap<&'static str, f64>) {
    let (nodes, elems, per_proc) = (4usize, 64u64, 200u64);
    let traces = || -> Vec<Box<dyn TraceSource>> {
        (0..nodes)
            .map(|p| {
                let mut b = TraceBuilder::new()
                    .config_pclr(RedOp::AddI64)
                    .phase(Phase::Loop);
                for k in 0..per_proc {
                    let elem = (p as u64 * 17 + k * 5) % elems;
                    b = b.red_update(to_shadow(regions::shared_elem(elem)), 1);
                }
                Box::new(b.phase(Phase::Merge).flush().barrier().build()) as Box<dyn TraceSource>
            })
            .collect()
    };
    let run = || run_reduction(MachineConfig::table1(nodes), traces(), elems as usize);
    // The simulator is deterministic: the cycle count repeats bit for bit.
    out.insert("sim.cycles", run().cycles() as f64);
    out.insert("sim.run_reduction_ns", time_ns(|| run().cycles()));
}

/// Run every probe and add its figure to `out`.
pub fn run(out: &mut BTreeMap<&'static str, f64>) {
    let t = Instant::now();
    wire(out);
    runtime(out);
    reductions(out);
    telemetry(out);
    sim(out);
    println!(
        "probes: {} figures in {:.2} s",
        out.len(),
        t.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_timer_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for i in 0..n {
                    x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
                }
                x
            }
        };
        let (short, long) = (time_ns(spin(2_000)), time_ns(spin(20_000)));
        assert!(long > 5.0 * short, "short {short} long {long}");
    }

    #[test]
    fn the_simulator_count_repeats_exactly() {
        let (mut a, mut b) = (BTreeMap::new(), BTreeMap::new());
        sim(&mut a);
        sim(&mut b);
        assert!(a["sim.cycles"] > 0.0);
        assert_eq!(a["sim.cycles"], b["sim.cycles"]);
    }
}

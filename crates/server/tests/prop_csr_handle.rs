//! Property test: a CSR structure uploaded with `upload` and submitted
//! by handle is **observably identical** to submitting the inline
//! generator spec it came from — same i64 results, bit-identical f64
//! results, same fused-sweep behavior — across sampled pattern shapes
//! (which exercise different reduction schemes) and both wire protocols.
//!
//! One server serves every sampled case; the vendored proptest's
//! deterministic `Strategy::sample` drives the sweep so a failure
//! reproduces exactly.

use proptest::prelude::*;
use proptest::TestRng;
use smartapps_runtime::Runtime;
use smartapps_server::{
    Client, DoneOutcome, Payload, ReplyMode, Server, ServerConfig, SubmitArgs, UploadArgs,
    WireBody, WireDist, WireSource, WireSpec,
};
use smartapps_workloads::{sequential_reduce, sequential_reduce_i64};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const CASES: u64 = 24;

fn arb_case() -> impl Strategy<Value = WireSpec> {
    ((4usize..200, 1usize..120, 1usize..4), 0u64..3, any::<u64>()).prop_map(
        |((elements, iterations, refs_per_iter), dist_pick, seed)| WireSpec {
            elements,
            iterations,
            refs_per_iter,
            coverage: 0.25 + 0.75 * ((seed % 7) as f64 / 7.0),
            dist: match dist_pick {
                0 => WireDist::Uniform,
                1 => WireDist::Zipf(1.1),
                _ => WireDist::Clustered(8),
            },
            seed,
        },
    )
}

/// Pull every stashed/incoming `done` until all `want` tokens are seen.
fn collect_dones(client: &mut Client, want: &[u64]) -> HashMap<u64, DoneOutcome> {
    let mut got = HashMap::new();
    while got.len() < want.len() {
        let d = client.next_done().expect("done");
        assert!(
            want.contains(&d.token),
            "unexpected token {} (want {want:?})",
            d.token
        );
        assert!(
            got.insert(d.token, d.outcome).is_none(),
            "token delivered twice"
        );
    }
    got
}

fn full_i64(outcome: &DoneOutcome) -> &[i64] {
    match outcome {
        DoneOutcome::Ok {
            payload: Payload::Full(v),
            ..
        } => v,
        other => panic!("expected full i64 payload, got {other:?}"),
    }
}

fn full_f64(outcome: &DoneOutcome) -> &[f64] {
    match outcome {
        DoneOutcome::Ok {
            payload: Payload::FullF64(v),
            ..
        } => v,
        other => panic!("expected full f64 payload, got {other:?}"),
    }
}

#[test]
fn uploaded_handle_matches_inline_spec_everywhere() {
    let rt = Arc::new(Runtime::with_workers(3));
    let server = Server::start(rt, ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    // Half the cases run over the text protocol, half over binary wire
    // v2 — handle semantics must not depend on the framing.
    let mut text = Client::connect(addr).expect("connect");
    let mut bin = Client::connect(addr).expect("connect");
    bin.upgrade_binary().expect("upgrade");
    assert!(bin.is_binary());

    let strat = arb_case();
    let mut rng = TestRng::deterministic(0xC5A_CA5E);
    let mut handles = HashSet::new();
    for case in 0..CASES {
        let spec = strat.sample(&mut rng);
        let pattern = spec.to_pattern_spec().generate();
        let client = if case % 2 == 0 { &mut text } else { &mut bin };
        let base = case * 100;

        // Upload the exact CSR the generator would produce; interning
        // must hand back a stable handle (re-upload included).
        let upload = UploadArgs {
            token: base + 1,
            num_elements: pattern.num_elements,
            iter_ptr: pattern.iter_ptr.clone(),
            indices: pattern.indices.clone(),
        };
        let handle = client.upload(upload.clone()).expect("upload");
        let again = client
            .upload(UploadArgs {
                token: base + 2,
                ..upload
            })
            .expect("re-upload");
        assert_eq!(
            handle, again,
            "identical structure must dedup (case {case})"
        );
        handles.insert(handle);

        // Inline spec vs uploaded handle, i64 and f64 bodies.
        for (t, body, source) in [
            (base + 10, WireBody::Sum, WireSource::Gen(spec)),
            (base + 11, WireBody::Sum, WireSource::Handle(handle)),
            (base + 12, WireBody::FSum, WireSource::Gen(spec)),
            (base + 13, WireBody::FSum, WireSource::Handle(handle)),
        ] {
            client
                .submit(SubmitArgs {
                    token: t,
                    reply: ReplyMode::Full,
                    body,
                    source,
                })
                .expect("submit");
        }
        let dones = collect_dones(client, &[base + 10, base + 11, base + 12, base + 13]);

        let oracle_i = sequential_reduce_i64(&pattern);
        assert_eq!(full_i64(&dones[&(base + 10)]), &oracle_i[..], "case {case}");
        assert_eq!(full_i64(&dones[&(base + 11)]), &oracle_i[..], "case {case}");

        let oracle_f: Vec<u64> = sequential_reduce(&pattern)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        let via_gen: Vec<u64> = full_f64(&dones[&(base + 12)])
            .iter()
            .copied()
            .map(f64::to_bits)
            .collect();
        let via_handle: Vec<u64> = full_f64(&dones[&(base + 13)])
            .iter()
            .copied()
            .map(f64::to_bits)
            .collect();
        assert_eq!(via_gen, oracle_f, "inline f64 diverged (case {case})");
        assert_eq!(
            via_handle, oracle_f,
            "uploaded f64 must be bit-identical (case {case})"
        );

        // A same-handle sweep must behave like the same-spec sweep: all
        // members answer, each with its own scaled result.
        let sweep: Vec<SubmitArgs> = (0..4)
            .map(|k| SubmitArgs {
                token: base + 20 + k,
                reply: ReplyMode::Full,
                body: WireBody::Mul(k as i64 + 2),
                source: WireSource::Handle(handle),
            })
            .collect();
        client.submit_batch(sweep).expect("batch");
        let want: Vec<u64> = (0..4).map(|k| base + 20 + k).collect();
        let dones = collect_dones(client, &want);
        for k in 0..4u64 {
            let scaled: Vec<i64> = oracle_i
                .iter()
                .map(|v| v.wrapping_mul(k as i64 + 2))
                .collect();
            assert_eq!(
                full_i64(&dones[&(base + 20 + k)]),
                &scaled[..],
                "sweep member {k} of case {case}"
            );
        }
    }

    // An unknown handle fails the job, not the connection.
    let mut tokens_before = 9_000_000u64;
    for client in [&mut text, &mut bin] {
        tokens_before += 1;
        client
            .submit(SubmitArgs {
                token: tokens_before,
                reply: ReplyMode::Ack,
                body: WireBody::Sum,
                source: WireSource::Handle(0xDEAD_BEEF_0000),
            })
            .expect("submit");
        let d = client.next_done().expect("done");
        assert_eq!(d.token, tokens_before);
        assert!(
            matches!(d.outcome, DoneOutcome::Err { ref kind, .. } if kind == "rejected"),
            "unknown handle must reject: {:?}",
            d.outcome
        );
        // Connection still alive.
        let _ = client.stats().expect("stats after rejected handle");
    }

    // The server's interning counters agree: one fresh intern per
    // distinct structure, every other upload a dedup.
    let metrics = text.metrics().expect("metrics");
    let uploads = |outcome: &str| -> usize {
        let prefix = format!("smartapps_uploads{{outcome=\"{outcome}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&prefix)?.trim().parse().ok())
            .unwrap_or(0)
    };
    assert_eq!(uploads("fresh"), handles.len());
    assert_eq!(uploads("dedup"), 2 * CASES as usize - handles.len());

    server.shutdown();
}

//! End-to-end tests of decision provenance over the wire: a mixed
//! flood of dense, sparse, and window-shaped workload classes from
//! concurrent text-protocol and binary-wire-v2 clients, then
//! `explain` / `slowlog` served over both protocols.
//!
//! Acceptance invariants:
//!
//! * `explain` returns the actual candidate cost table for a flooded
//!   class, and its winning scheme matches the scheme a freshly
//!   submitted job's `done` reports (the record is the decision in
//!   force).
//! * The window class (uploaded CSR, uniform body) is rewritten by the
//!   simplification pass: its jobs complete as `seq`/scan and the
//!   explained record's simplify gate says so, reachable through the
//!   `pat:<handle>` target form.
//! * `slowlog` stage attribution is *exact*: the five stages (queue,
//!   decide, simplify, exec, completion) sum to the exemplar's
//!   end-to-end latency for every executed entry (one log2 bucket is
//!   the acceptance bound; the trace derivation telescopes, so
//!   equality must hold).

use smartapps_runtime::{Runtime, RuntimeConfig};
use smartapps_server::{
    Client, DoneOutcome, ExplainTarget, ReplyMode, Server, ServerConfig, SubmitArgs, WireBody,
    WireDist, WireSource, WireSpec,
};
use smartapps_workloads::AccessPattern;
use std::collections::HashMap;
use std::sync::Arc;

fn dense_spec() -> WireSpec {
    WireSpec {
        elements: 400,
        iterations: 700,
        refs_per_iter: 2,
        coverage: 0.85,
        dist: WireDist::Uniform,
        seed: 501,
    }
}

fn sparse_spec() -> WireSpec {
    WireSpec {
        elements: 8192,
        iterations: 600,
        refs_per_iter: 2,
        coverage: 0.05,
        dist: WireDist::Clustered(16),
        seed: 777,
    }
}

/// A sliding-window pattern wide enough to clear the simplification
/// pass's default cost guard (the same shape the recognizer's unit
/// tests use).
fn window_pattern() -> AccessPattern {
    let (n, iters, width) = (256usize, 4096usize, 64usize);
    let rows: Vec<Vec<u32>> = (0..iters)
        .map(|i| {
            let lo = i % (n - width + 1);
            (lo as u32..(lo + width) as u32).collect()
        })
        .collect();
    AccessPattern::from_iters(n, &rows)
}

/// Flood `client` with `per_class` jobs of each class and drain; panics
/// on any failed job.
fn flood(client: &mut Client, window_handle: u64, per_class: usize, token_base: u64) {
    let mut token = token_base;
    for round in 0..per_class {
        let _ = round;
        for source in [
            WireSource::Gen(dense_spec()),
            WireSource::Gen(sparse_spec()),
            WireSource::Handle(window_handle),
        ] {
            let body = match source {
                WireSource::Handle(_) => WireBody::Usum,
                WireSource::Gen(_) => WireBody::Sum,
            };
            client
                .submit(SubmitArgs {
                    token,
                    reply: ReplyMode::Ack,
                    body,
                    source,
                })
                .expect("submit");
            token += 1;
        }
    }
    client.drain().expect("drain");
    while client.stashed() > 0 {
        let done = client.next_done().expect("done");
        assert!(
            matches!(done.outcome, DoneOutcome::Ok { .. }),
            "flood job failed: {done:?}"
        );
    }
}

/// Submit one job, wait for its `done`, and return the reported scheme.
fn probe_scheme(client: &mut Client, body: WireBody, source: WireSource, token: u64) -> String {
    client
        .submit(SubmitArgs {
            token,
            reply: ReplyMode::Ack,
            body,
            source,
        })
        .expect("submit probe");
    loop {
        let done = client.next_done().expect("probe done");
        if done.token != token {
            continue;
        }
        match done.outcome {
            DoneOutcome::Ok { scheme, .. } => return scheme,
            other => panic!("probe job failed: {other:?}"),
        }
    }
}

/// The provenance assertions, run against one (already-floodeed)
/// connection — the same checks must pass over text and binary.
fn verify_provenance(client: &mut Client, rt: &Runtime, window_handle: u64, token_base: u64) {
    // Unknown class: explained none, connection stays usable.
    assert_eq!(
        client
            .explain(ExplainTarget::Signature(0xdead_beef_dead_beef))
            .expect("explain unknown"),
        None
    );

    // Dense and sparse classes: the explained winner is the scheme a
    // fresh probe job actually runs (no concurrent traffic here, so
    // the record cannot be superseded between probe and explain).
    for (i, spec) in [dense_spec(), sparse_spec()].into_iter().enumerate() {
        let done_scheme = probe_scheme(
            client,
            WireBody::Sum,
            WireSource::Gen(spec),
            token_base + i as u64,
        );
        let sig = rt.signature_of(&spec.to_pattern_spec().generate());
        let info = client
            .explain(ExplainTarget::Signature(sig.0))
            .expect("explain")
            .expect("flooded class must have a decision record");
        assert_eq!(info.signature, sig.0);
        assert_eq!(
            info.candidates.len(),
            7,
            "five software schemes + pclr + simd, all priced"
        );
        let winner_row = info
            .candidates
            .iter()
            .find(|c| c.scheme == info.winner)
            .expect("winner must appear in its own candidate table");
        assert!(winner_row.feasible, "winner must be feasible");
        assert!(winner_row.corrected.is_finite());
        assert_eq!(
            info.winner, done_scheme,
            "explained winner must match the probe job's done scheme"
        );
        assert!(
            !info.quarantine.fired,
            "clean class must not be quarantined"
        );
        assert_eq!(info.features.len(), 11, "full feature vector on the wire");
        let feature = |name: &str| {
            info.features
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing feature {name}"))
                .1
        };
        assert_eq!(feature("elements") as usize, spec.elements);
        assert!(feature("sp") > 0.0 && feature("sp") <= 1.0);
    }

    // Window class, via the uploaded-pattern target form: simplified to
    // a scan, and the record says so.
    let done_scheme = probe_scheme(
        client,
        WireBody::Usum,
        WireSource::Handle(window_handle),
        token_base + 2,
    );
    assert_eq!(done_scheme, "seq", "window jobs must run as scans");
    let info = client
        .explain(ExplainTarget::Handle(window_handle))
        .expect("explain pat:")
        .expect("window class must have a decision record");
    assert!(
        info.simplify.fired,
        "simplify gate must fire for the window class (reason: {})",
        info.simplify.reason
    );
    assert_eq!(info.simplify.reason, "window");
    assert_eq!(info.backend, "scan");

    // Slowlog: entries exist for the flooded classes, slowest first,
    // and the five runtime stages sum exactly to the end-to-end
    // latency that earned each executed entry its slot.
    assert_eq!(client.slowlog(0).expect("slowlog 0").len(), 0);
    let entries = client.slowlog(64).expect("slowlog");
    assert!(!entries.is_empty(), "flood must retain slow exemplars");
    for w in entries.windows(2) {
        assert!(w[0].latency_ns >= w[1].latency_ns, "slowest first");
    }
    let mut classes_seen = std::collections::HashSet::new();
    for e in &entries {
        classes_seen.insert(e.class);
        assert_eq!(e.error, "none", "only clean jobs were submitted");
        let sum = e.queue_ns + e.decide_ns + e.simplify_ns + e.exec_ns + e.completion_ns;
        assert_eq!(
            sum, e.latency_ns,
            "stage attribution must telescope to end-to-end (class {:016x})",
            e.class
        );
    }
    let window_sig = rt.signature_of(&window_pattern());
    assert!(
        classes_seen.contains(&window_sig.0),
        "window class must appear in the slowlog"
    );
}

#[test]
fn explain_and_slowlog_over_text_and_binary_wire() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 2,
        shards: 8,
        dispatchers: 2,
        ..RuntimeConfig::default()
    }));
    let server = Server::start(rt.clone(), ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    // Intern the window CSR once; both clients submit it by handle
    // (uploading 262k references over a text line would trip the line
    // cap — the handle seam exists for exactly this).
    let window_handle = rt
        .patterns()
        .intern(window_pattern())
        .expect("intern")
        .handle;

    // Concurrent mixed flood: one text client, one binary client.
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut text = Client::connect(addr).expect("connect text");
            flood(&mut text, window_handle, 8, 0);
        });
        s.spawn(|| {
            let mut bin = Client::connect(addr).expect("connect bin");
            bin.upgrade_binary().expect("upgrade");
            flood(&mut bin, window_handle, 8, 10_000);
        });
    });

    // Sequential verification, once per protocol: the assertions are
    // identical, so any divergence is a codec bug.
    let mut text = Client::connect(addr).expect("connect text");
    verify_provenance(&mut text, &rt, window_handle, 20_000);
    let mut bin = Client::connect(addr).expect("connect bin");
    bin.upgrade_binary().expect("upgrade");
    verify_provenance(&mut bin, &rt, window_handle, 30_000);

    // The flood must have moved the provenance metrics: per-stage
    // series populated (queue/decide/exec at least), and the stats v2
    // snapshot carrying the simplification counters.
    let v2 = text.stats_v2().expect("stats v2");
    let counter = |name: &str| -> u64 {
        v2.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("simplified_jobs") > 0, "window jobs must simplify");
    let stage_counts: HashMap<&str, u64> = v2
        .hists
        .iter()
        .filter(|h| h.name == "smartapps_stage_ns")
        .map(|h| (h.label_value.as_str(), h.count))
        .collect();
    for stage in ["queue", "decide", "exec", "simplify", "completion", "write"] {
        assert!(
            stage_counts.get(stage).copied().unwrap_or(0) > 0,
            "stage series {stage} must be populated, got {stage_counts:?}"
        );
    }

    server.shutdown();
}

//! End-to-end tests of the network service: a real `TcpListener` on an
//! ephemeral loopback port, ≥ 8 concurrent wire-protocol clients mixing
//! valid, invalid, and panicking submissions, and the acceptance
//! invariants — **exactly one `done` per token** (none lost, none
//! duplicated, including quarantined and fused jobs), results equal to
//! the locally computed sequential oracle, and a clean drain on
//! shutdown — all with a server thread count independent of the client
//! count.

use smartapps_runtime::{Runtime, RuntimeConfig};
use smartapps_server::{
    checksum, Client, DoneMsg, DoneOutcome, Payload, ReplyMode, Server, ServerConfig, SubmitArgs,
    WireBody, WireDist, WireSource, WireSpec,
};
use smartapps_workloads::pattern::sequential_reduce_i64;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn small_spec(seed: u64) -> WireSpec {
    WireSpec {
        elements: 400,
        iterations: 700,
        refs_per_iter: 2,
        coverage: 0.85,
        dist: WireDist::Uniform,
        seed,
    }
}

fn oracle_for(spec: WireSpec) -> Vec<i64> {
    sequential_reduce_i64(&spec.to_pattern_spec().generate())
}

/// What one submission should come back as.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Clean `full` output equal to the oracle of class `c` scaled by `k`.
    Value { class: usize, scale: i64 },
    /// `rejected` before execution.
    Rejected,
    /// The always-panicking class: `panic` while the class still
    /// executes, `quarantined` once the streak crosses the threshold.
    PanicClass,
}

#[test]
fn eight_concurrent_clients_mixed_traffic_exactly_once() {
    const CLIENTS: usize = 8;
    const JOBS_PER_CLIENT: usize = 36;
    const QUARANTINE_AFTER: usize = 3;

    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 2,
        shards: 8,
        dispatchers: 2,
        quarantine_after: QUARANTINE_AFTER,
        quarantine_ttl: Duration::from_secs(3600),
        ..RuntimeConfig::default()
    }));
    let server = Server::start(rt.clone(), ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    // Three clean classes plus one dedicated poisoned class.  The poison
    // spec has a *different shape* (64x the elements), because signatures
    // bucket by characterization — two specs differing only in seed share
    // a signature, and the quarantine must only ever block the poisoned
    // class, never the clean ones riding the same bucket.  Its streak is
    // never reset (only panicking bodies are submitted on it), so the
    // quarantine must engage.
    let classes: Vec<WireSpec> = (0..3).map(|c| small_spec(500 + c)).collect();
    let oracles: Vec<Vec<i64>> = classes.iter().copied().map(oracle_for).collect();
    let poison = WireSpec {
        elements: 25_600,
        ..small_spec(990)
    };

    let totals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let classes = &classes;
                let oracles = &oracles;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut expected: HashMap<u64, Expect> = HashMap::new();
                    let mut token = 0u64;
                    let mut submit =
                        |client: &mut Client, exp: Expect, expected: &mut HashMap<u64, Expect>| {
                            let t = token;
                            token += 1;
                            expected.insert(t, exp);
                            let args = match exp {
                                Expect::Value { class, scale } => SubmitArgs {
                                    token: t,
                                    reply: ReplyMode::Full,
                                    body: if scale == 1 {
                                        WireBody::Sum
                                    } else {
                                        WireBody::Mul(scale)
                                    },
                                    source: WireSource::Gen(classes[class]),
                                },
                                Expect::Rejected => SubmitArgs {
                                    token: t,
                                    reply: ReplyMode::Full,
                                    body: WireBody::Sum,
                                    // Over the 4M-reference admission cap.
                                    source: WireSource::Gen(WireSpec {
                                        iterations: 3_000_000,
                                        refs_per_iter: 2,
                                        ..small_spec(1)
                                    }),
                                },
                                Expect::PanicClass => SubmitArgs {
                                    token: t,
                                    reply: ReplyMode::Ack,
                                    body: WireBody::Panic,
                                    source: WireSource::Gen(poison),
                                },
                            };
                            client.submit(args).expect("submit");
                        };
                    for j in 0..JOBS_PER_CLIENT {
                        let exp = match j % 6 {
                            5 => Expect::PanicClass,
                            3 => Expect::Rejected,
                            _ => Expect::Value {
                                class: (c + j) % classes.len(),
                                scale: 1 + (j % 3) as i64,
                            },
                        };
                        submit(&mut client, exp, &mut expected);
                    }

                    // Flush barrier, then read everything back.
                    let completed = client.drain().expect("drain");
                    assert_eq!(completed as usize, JOBS_PER_CLIENT, "client {c}");
                    let mut seen: HashMap<u64, DoneMsg> = HashMap::new();
                    for _ in 0..JOBS_PER_CLIENT {
                        let d = client.next_done().expect("next_done");
                        assert!(
                            seen.insert(d.token, d.clone()).is_none(),
                            "client {c}: token {} delivered twice",
                            d.token
                        );
                    }
                    assert_eq!(seen.len(), expected.len(), "client {c}: exactly-once");

                    let (mut values, mut panics, mut quarantined) = (0usize, 0usize, 0usize);
                    for (t, exp) in &expected {
                        let d = &seen[t];
                        match (exp, &d.outcome) {
                            (
                                Expect::Value { class, scale },
                                DoneOutcome::Ok {
                                    payload: Payload::Full(got),
                                    ..
                                },
                            ) => {
                                let want: Vec<i64> = oracles[*class]
                                    .iter()
                                    .map(|v| v.wrapping_mul(*scale))
                                    .collect();
                                assert_eq!(got, &want, "client {c} token {t}");
                                values += 1;
                            }
                            (Expect::Rejected, DoneOutcome::Err { kind, .. }) => {
                                assert_eq!(kind, "rejected", "client {c} token {t}");
                            }
                            (Expect::PanicClass, DoneOutcome::Err { kind, .. }) => match &**kind {
                                "panic" => panics += 1,
                                "quarantined" => quarantined += 1,
                                other => panic!("client {c} token {t}: unexpected kind {other}"),
                            },
                            (exp, outcome) => {
                                panic!("client {c} token {t}: expected {exp:?}, got {outcome:?}")
                            }
                        }
                    }
                    (values, panics, quarantined)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
    });

    let (values, panics, quarantined) = totals;
    let poison_jobs = CLIENTS * JOBS_PER_CLIENT / 6;
    assert_eq!(panics + quarantined, poison_jobs, "poison-class accounting");
    assert!(
        panics >= QUARANTINE_AFTER,
        "the streak must really execute before the quarantine engages"
    );
    assert!(
        quarantined > 0,
        "with {poison_jobs} poison jobs over a max_batch-32 queue, later \
         batches must fail fast (got {panics} panics)"
    );
    assert!(values > 0);

    // Server-side counters agree: everything accepted was completed, and
    // the quarantined fast-fails are visible.
    let mut probe = Client::connect(addr).expect("probe");
    let stats = probe.stats().expect("stats");
    let get = |k: &str| stats.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
    assert_eq!(get("submitted"), get("completed"));
    assert_eq!(get("quarantined"), quarantined as u64);

    // The quarantine lifts over the wire: unquarantine the poisoned
    // class (signature taken from a quarantined error), then a *clean*
    // body on the same spec must execute and match its oracle.
    let sig = {
        let mut c = Client::connect(addr).expect("connect");
        c.submit(SubmitArgs {
            token: 0,
            reply: ReplyMode::Ack,
            body: WireBody::Panic,
            source: WireSource::Gen(poison),
        })
        .expect("submit");
        match c.next_done().expect("next_done").outcome {
            DoneOutcome::Err {
                kind, signature, ..
            } => {
                assert_eq!(kind, "quarantined");
                signature
            }
            other => panic!("poisoned class must still be quarantined: {other:?}"),
        }
    };
    let mut c = Client::connect(addr).expect("connect");
    assert!(c.unquarantine(sig).expect("unquarantine"));
    c.submit(SubmitArgs {
        token: 1,
        reply: ReplyMode::Full,
        body: WireBody::Sum,
        source: WireSource::Gen(poison),
    })
    .expect("submit");
    match c.next_done().expect("next_done").outcome {
        DoneOutcome::Ok {
            payload: Payload::Full(got),
            ..
        } => assert_eq!(got, oracle_for(poison), "unquarantined class executes"),
        other => panic!("unquarantined class must run clean: {other:?}"),
    }

    server.shutdown();
}

#[test]
fn fused_sweep_over_the_wire_delivers_every_member_exactly_once() {
    // One dispatcher, deterministic fusing (the in-process recipe of the
    // runtime's fused tests, through the socket): occupy the dispatcher
    // with a big warm-up job, then land a batch of K same-spec sparse
    // jobs behind it — they coalesce into one dispatch batch and pass
    // the fusion gate as one hash sweep.
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 2,
        dispatchers: 1,
        max_batch: 32,
        max_fuse: 8,
        ..RuntimeConfig::default()
    }));
    let server = Server::start(rt.clone(), ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let warm = WireSpec {
        elements: 60_000,
        iterations: 1_200_000,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: WireDist::Uniform,
        seed: 91,
    };
    let sparse = WireSpec {
        elements: 400_000,
        iterations: 4_000,
        refs_per_iter: 12,
        coverage: 0.004,
        dist: WireDist::Uniform,
        seed: 61,
    };
    client
        .submit(SubmitArgs {
            token: 100,
            reply: ReplyMode::Ack,
            body: WireBody::Sum,
            source: WireSource::Gen(warm),
        })
        .expect("warm submit");
    let jobs: Vec<SubmitArgs> = (0..6)
        .map(|k| SubmitArgs {
            token: k,
            reply: ReplyMode::Ack,
            body: WireBody::Mul(k as i64 + 1),
            source: WireSource::Gen(sparse),
        })
        .collect();
    client.submit_batch(jobs).expect("batch submit");

    let base = oracle_for(sparse);
    let mut seen: HashMap<u64, DoneMsg> = HashMap::new();
    for _ in 0..7 {
        let d = client.next_done().expect("next_done");
        assert!(seen.insert(d.token, d).is_none(), "duplicate done");
    }
    for k in 0..6u64 {
        let want: Vec<i64> = base.iter().map(|v| v.wrapping_mul(k as i64 + 1)).collect();
        match &seen[&k].outcome {
            DoneOutcome::Ok {
                scheme,
                fused_with,
                payload: Payload::Checksum { len, sum },
                ..
            } => {
                assert_eq!((*len, *sum), (want.len(), checksum(&want)), "member {k}");
                assert_eq!(*fused_with, 5, "all six must share one sweep");
                assert_eq!(scheme, "hash", "sparse fanout-6 group fuses on hash");
            }
            other => panic!("member {k}: {other:?}"),
        }
    }
    let stats = client.stats().expect("stats");
    let get = |k: &str| stats.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
    assert_eq!(get("fused_sweeps"), 1);
    assert_eq!(get("fused_jobs"), 6);
    server.shutdown();
}

#[test]
fn server_drains_cleanly_on_shutdown_and_leaves_the_runtime_alive() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    }));
    let server = Server::start(rt.clone(), ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let spec = small_spec(770);
    let oracle = oracle_for(spec);
    for t in 0..20u64 {
        client
            .submit(SubmitArgs {
                token: t,
                reply: ReplyMode::Full,
                body: WireBody::Sum,
                source: WireSource::Gen(spec),
            })
            .expect("submit");
    }
    // The barrier proves all 20 were accepted; their `done` lines are
    // stashed client-side.
    assert_eq!(client.drain().expect("drain"), 20);
    server.shutdown();

    // Every response survived the shutdown; the socket then reports EOF
    // instead of hanging.
    let mut tokens = Vec::new();
    for _ in 0..20 {
        let d = client.next_done().expect("stashed done");
        match d.outcome {
            DoneOutcome::Ok {
                payload: Payload::Full(got),
                ..
            } => assert_eq!(got, oracle),
            other => panic!("{other:?}"),
        }
        tokens.push(d.token);
    }
    tokens.sort_unstable();
    assert_eq!(tokens, (0..20).collect::<Vec<u64>>());
    assert!(
        client.next_done().is_err(),
        "closed server must EOF, not hang"
    );

    // The runtime was shared, not owned: in-process traffic still works.
    let stats = rt.stats();
    assert_eq!(stats.submitted, 20);
    assert_eq!(stats.completed, 20);
    let pat = Arc::new(spec.to_pattern_spec().generate());
    let r = rt.run(smartapps_runtime::JobSpec::i64(pat, |_i, r| {
        smartapps_workloads::contribution_i64(r)
    }));
    assert!(r.error.is_none());
    assert_eq!(r.output.as_i64().unwrap(), oracle);
}

#[test]
fn shutdown_with_jobs_in_flight_still_answers_them() {
    // No drain barrier this time: the shutdown races the submissions.
    // Whatever the server accepted must still produce its `done` line
    // before the socket closes — never a lost response, never a hang.
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    }));
    let server = Server::start(rt.clone(), ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for t in 0..12u64 {
        client
            .submit(SubmitArgs {
                token: t,
                reply: ReplyMode::Ack,
                body: WireBody::Sum,
                source: WireSource::Gen(small_spec(771)),
            })
            .expect("submit");
    }
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let mut seen = std::collections::HashSet::new();
    while let Ok(d) = client.next_done() {
        assert!(seen.insert(d.token), "duplicate token {}", d.token);
        assert!(matches!(d.outcome, DoneOutcome::Ok { .. }));
    }
    // The runtime finished everything the server submitted.
    let stats = rt.stats();
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(seen.len() as u64, stats.submitted);
}

/// Nearest-rank quantile recovered from exposition `_bucket` lines the
/// way an external scraper would: smallest `le` whose cumulative count
/// covers the rank.
fn quantile_from_exposition(text: &str, series_prefix: &str, q: f64) -> Option<u64> {
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(series_prefix) else {
            continue;
        };
        let (le, cum) = rest.split_once("\"} ")?;
        let le = le.strip_prefix("le=\"")?;
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        buckets.push((le, cum.trim().parse().ok()?));
    }
    let total = buckets.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = (q * (total - 1) as f64).round() as u64 + 1;
    buckets.iter().find(|(_, cum)| *cum >= rank).map(|(le, _)| {
        if le.is_finite() {
            *le as u64
        } else {
            u64::MAX
        }
    })
}

#[test]
fn metrics_and_stats_v2_reflect_multi_client_traffic() {
    const CLIENTS: u64 = 3;
    const JOBS: u64 = 8;

    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 2,
        dispatchers: 2,
        quarantine_after: 2,
        quarantine_ttl: Duration::from_secs(3600),
        ..RuntimeConfig::default()
    }));
    let server = Server::start(rt.clone(), ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for t in 0..JOBS {
                    client
                        .submit(SubmitArgs {
                            token: t,
                            reply: ReplyMode::Ack,
                            body: WireBody::Sum,
                            source: WireSource::Gen(small_spec(600 + c)),
                        })
                        .expect("submit");
                }
                assert_eq!(client.drain().expect("drain"), JOBS);
            });
        }
    });

    // Poison one class past the quarantine threshold so `stats v2` has a
    // TTL entry to report.
    let mut probe = Client::connect(addr).expect("probe");
    let poison = WireSpec {
        elements: 25_600,
        ..small_spec(991)
    };
    for t in 0..4u64 {
        probe
            .submit(SubmitArgs {
                token: t,
                reply: ReplyMode::Ack,
                body: WireBody::Panic,
                source: WireSource::Gen(poison),
            })
            .expect("submit");
    }
    probe.drain().expect("drain");
    let delivered = CLIENTS * JOBS + 4;

    // Plain `stats` keys are now deterministic (sorted).
    let v1 = probe.stats().expect("stats");
    assert!(v1.windows(2).all(|w| w[0].0 < w[1].0), "stats keys sorted");

    // `stats v2`: the same counters, histogram digests that reflect the
    // traffic, and the quarantined class with its remaining TTL.
    let v2 = probe.stats_v2().expect("stats v2");
    assert_eq!(v2.counters, v1);
    let exec_total: u64 = v2
        .hists
        .iter()
        .filter(|h| h.name == "smartapps_exec_ns")
        .map(|h| h.count)
        .sum();
    assert!(
        exec_total > 0,
        "per-scheme exec histograms must be populated"
    );
    let all = v2
        .hists
        .iter()
        .find(|h| h.name == "smartapps_request_ns" && h.label_value == "all")
        .expect("aggregate request-latency series");
    assert_eq!(all.count, delivered, "one latency sample per delivered job");
    assert!(all.p50 > 0 && all.p99 >= all.p50 && all.max >= all.p99);
    let per_conn: u64 = v2
        .hists
        .iter()
        .filter(|h| h.name == "smartapps_request_ns" && h.label_value != "all")
        .map(|h| h.count)
        .sum();
    assert_eq!(
        per_conn, delivered,
        "per-connection series partition the total"
    );
    assert_eq!(v2.quarantined.len(), 1, "poisoned class listed");
    let (_sig, ttl) = v2.quarantined[0];
    assert!(ttl > 3000 && ttl <= 3600, "remaining TTL in seconds: {ttl}");

    // The `metrics` exposition covers runtime and server series, and a
    // scraper can recover server-side latency quantiles from it.
    let text = probe.metrics().expect("metrics");
    assert!(
        text.contains("# TYPE smartapps_exec_ns histogram"),
        "{text}"
    );
    assert!(text.contains("smartapps_exec_ns_bucket{scheme="), "{text}");
    assert!(
        text.contains(&format!(
            "smartapps_request_ns_count{{conn=\"all\"}} {delivered}"
        )),
        "{text}"
    );
    let p99 = quantile_from_exposition(
        text.as_str(),
        "smartapps_request_ns_bucket{conn=\"all\",",
        0.99,
    )
    .expect("p99 from bucket lines");
    assert!(p99 > 0);
    for (name, lo) in [
        ("smartapps_conn_bytes_in", 1u64),
        ("smartapps_conn_bytes_out", 1),
    ] {
        let sum: u64 = text
            .lines()
            .filter(|l| l.starts_with(&format!("{name}{{conn=")))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert!(sum >= lo, "{name} must count traffic, got {sum}");
    }
    server.shutdown();
}

#[test]
fn protocol_errors_fail_the_connection_not_the_server() {
    use std::io::{BufRead, BufReader, Write};

    let rt = Arc::new(Runtime::with_workers(2));
    let server = Server::start(rt, ServerConfig::default()).expect("start server");

    // A raw socket speaking garbage gets an `err` line and a close.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"warp drive please\n").expect("write");
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("err "), "got: {line}");
    line.clear();
    let n = reader.read_line(&mut line).expect("read-after-error");
    assert_eq!(n, 0, "connection must be closed after a protocol error");

    // The server (and other connections) are unaffected.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .submit(SubmitArgs {
            token: 7,
            reply: ReplyMode::Ack,
            body: WireBody::Sum,
            source: WireSource::Gen(small_spec(772)),
        })
        .expect("submit");
    let d = client.next_done().expect("next_done");
    assert_eq!(d.token, 7);
    assert!(matches!(d.outcome, DoneOutcome::Ok { .. }));
    server.shutdown();

    // The other direction: a peer answering `metrics` with garbage and
    // keeping the socket open fails the client's call instead of
    // leaving it blocked on a reply that never comes.
    let fake = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = fake.local_addr().unwrap();
    let (close, closed) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (sock, _) = fake.accept().expect("accept");
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).expect("read request");
        assert_eq!(line, "metrics\n");
        (&sock).write_all(b"garbage\n").expect("write");
        let _ = closed.recv();
    });
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let _ = tx.send(client.metrics());
    });
    let got = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("metrics() must return on an unparsable reply");
    assert_eq!(
        got.expect_err("garbage is not a metrics reply").kind(),
        std::io::ErrorKind::InvalidData
    );
    drop(close);
    peer.join().expect("fake peer");
}

/// A digest of a `done` payload's exact bits: length and an FNV-1a fold
/// of every value's bit pattern (checksums fold their one value).
fn payload_digest(p: &Payload) -> (usize, u64) {
    let fold = |bits: &mut dyn Iterator<Item = u64>| {
        bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    match p {
        Payload::Full(v) => (v.len(), fold(&mut v.iter().map(|&x| x as u64))),
        Payload::FullF64(v) => (v.len(), fold(&mut v.iter().map(|x| x.to_bits()))),
        Payload::Checksum { len, sum } => (*len, fold(&mut [*sum as u64].into_iter())),
        Payload::ChecksumF64 { len, sum } => (*len, fold(&mut [sum.to_bits()].into_iter())),
    }
}

/// Every named wire body's `done` payload, full and ack, on one fixed
/// sparse class at width 1, pinned to the bits the service produced
/// before named bodies ran as built-ins.  The class is too sparse for
/// `simd`, so whichever software scheme the service picks, its answer is
/// the sequential sweep's.
#[test]
fn every_wire_body_answers_the_pinned_payload() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    }));
    let server = Server::start(rt, ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let spec = WireSpec {
        elements: 20_000,
        iterations: 1500,
        refs_per_iter: 2,
        coverage: 0.05,
        dist: WireDist::Uniform,
        seed: 4242,
    };
    let bodies = [
        WireBody::Sum,
        WireBody::Mul(3),
        WireBody::Mul(-5),
        WireBody::FSum,
        WireBody::Usum,
        WireBody::Fusum,
    ];
    let mut got = Vec::new();
    for (b, body) in bodies.into_iter().enumerate() {
        for (m, reply) in [ReplyMode::Full, ReplyMode::Ack].into_iter().enumerate() {
            let token = (b * 2 + m) as u64;
            client
                .submit(SubmitArgs {
                    token,
                    reply,
                    body,
                    source: WireSource::Gen(spec),
                })
                .expect("submit");
            let d = client.next_done().expect("done");
            assert_eq!(d.token, token);
            match d.outcome {
                DoneOutcome::Ok { payload, .. } => got.push(payload_digest(&payload)),
                other => panic!("{body:?}: {other:?}"),
            }
        }
    }
    let pinned: [(usize, u64); 12] = [
        // sum: full, ack
        (20_000, 0x086615db3a699052),
        (20_000, 0x870b4c48db736fdc),
        // mul:3: full, ack
        (20_000, 0xd1863ac4d4ade744),
        (20_000, 0x3ee02e6a5cd22be2),
        // mul:-5: full, ack
        (20_000, 0xfddc075569cadd8c),
        (20_000, 0x0912758f516f20ca),
        // fsum: full, ack
        (20_000, 0x124a3e2421f20da5),
        (20_000, 0xe0437a382c01b7df),
        // usum: full, ack
        (20_000, 0x5ec587f9db6d3499),
        (20_000, 0x8692ad48daa679af),
        // fusum: full, ack
        (20_000, 0xdf035dd221f20da5),
        (20_000, 0xe044bd7b8601b7df),
    ];
    assert_eq!(got, pinned);
    server.shutdown();
}

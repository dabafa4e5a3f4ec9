//! Torture tests of the server's protocol state machines: request
//! streams delivered at every awkward byte boundary, a text→binary
//! upgrade with frames pipelined behind the upgrade line in the same
//! write, concurrent connections interleaving arbitrarily, and garbage
//! frames — always asserting the data-plane invariant: **every
//! submitted token answers exactly once, with the right result**, and a
//! poisoned connection dies alone.

use smartapps_runtime::Runtime;
use smartapps_server::wire2::{decode_response, encode_request, FRAME_HEADER_BYTES};
use smartapps_server::{
    checksum, BinMsg, DoneOutcome, Payload, ReplyMode, Request, Response, SubmitArgs, WireBody,
    WireDist, WireSource, WireSpec,
};
use smartapps_server::{Server, ServerConfig};
use smartapps_workloads::sequential_reduce_i64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn small_spec(seed: u64) -> WireSpec {
    WireSpec {
        elements: 64,
        iterations: 80,
        refs_per_iter: 2,
        coverage: 0.9,
        dist: WireDist::Uniform,
        seed,
    }
}

fn submit(token: u64, seed: u64) -> SubmitArgs {
    SubmitArgs {
        token,
        reply: ReplyMode::Ack,
        body: WireBody::Sum,
        source: WireSource::Gen(small_spec(seed)),
    }
}

fn expected_checksum(seed: u64) -> (usize, i64) {
    let out = sequential_reduce_i64(&small_spec(seed).to_pattern_spec().generate());
    (out.len(), checksum(&out))
}

/// Write `bytes` in `chunk`-sized slices, flushing each — forcing the
/// server to reassemble requests from arbitrary split points.
fn write_chunked(stream: &mut TcpStream, bytes: &[u8], chunk: usize) {
    for piece in bytes.chunks(chunk.max(1)) {
        stream.write_all(piece).expect("write");
        stream.flush().expect("flush");
    }
}

/// Read one binary frame (blocking) off a buffered reader.
fn read_frame(reader: &mut BufReader<TcpStream>) -> Result<BinMsg, String> {
    let mut head = [0u8; FRAME_HEADER_BYTES];
    reader.read_exact(&mut head).map_err(|e| e.to_string())?;
    let len = u32::from_le_bytes(head) as usize;
    assert!(len > 0 && len < 1 << 20, "absurd frame length {len}");
    let mut frame = vec![0u8; len];
    reader.read_exact(&mut frame).map_err(|e| e.to_string())?;
    decode_response(frame[0], &frame[1..])
}

/// Read binary `done` frames until every wanted token has answered;
/// assert exactly-once delivery and correct checksums.
fn collect_bin_dones(reader: &mut BufReader<TcpStream>, want: &HashMap<u64, u64>) {
    let mut seen: HashMap<u64, ()> = HashMap::new();
    while seen.len() < want.len() {
        let BinMsg::Response(r) = read_frame(reader).expect("frame") else {
            continue;
        };
        let Response::Done(d) = *r else {
            continue;
        };
        let seed = *want
            .get(&d.token)
            .unwrap_or_else(|| panic!("token {} was never submitted on this connection", d.token));
        assert!(
            seen.insert(d.token, ()).is_none(),
            "token {} answered twice",
            d.token
        );
        let (len, sum) = expected_checksum(seed);
        match d.outcome {
            DoneOutcome::Ok {
                payload: Payload::Checksum { len: l, sum: s },
                ..
            } => {
                assert_eq!((l, s), (len, sum), "wrong checksum for token {}", d.token);
            }
            other => panic!("token {}: unexpected outcome {other:?}", d.token),
        }
    }
}

/// One full session — text submits, upgrade, pipelined binary traffic —
/// delivered in `chunk`-byte writes.
fn torture_session(addr: std::net::SocketAddr, chunk: usize, salt: u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Text phase, pipelined and chunk-split.
    let mut script = String::new();
    for t in 0..3u64 {
        let mut line = Request::Submit(submit(salt + t, salt + t)).encode();
        line.push('\n');
        script.push_str(&line);
    }
    write_chunked(&mut stream, script.as_bytes(), chunk);
    let mut text_seen = HashMap::new();
    while text_seen.len() < 3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read line");
        let Ok(Response::Done(d)) = Response::parse(&line) else {
            panic!("unexpected line: {line:?}");
        };
        assert!(
            d.token >= salt && d.token < salt + 3,
            "foreign token {}",
            d.token
        );
        assert!(text_seen.insert(d.token, ()).is_none(), "duplicate done");
        let (len, sum) = expected_checksum(d.token);
        assert!(
            matches!(
                d.outcome,
                DoneOutcome::Ok {
                    payload: Payload::Checksum { len: l, sum: s },
                    ..
                } if l == len && s == sum
            ),
            "bad text-phase outcome"
        );
    }

    // Upgrade with binary frames pipelined in the SAME byte stream —
    // the server must carve the text line off and route the remainder
    // into the frame splitter without losing a byte.
    let mut tail = b"upgrade bin\n".to_vec();
    let mut want: HashMap<u64, u64> = HashMap::new();
    let mut batch = Vec::new();
    for t in 10..14u64 {
        want.insert(salt + t, salt + t);
        batch.push(submit(salt + t, salt + t));
    }
    tail.extend_from_slice(&encode_request(&Request::Batch(batch)));
    for t in 14..17u64 {
        want.insert(salt + t, salt + t);
        tail.extend_from_slice(&encode_request(&Request::Submit(submit(
            salt + t,
            salt + t,
        ))));
    }
    write_chunked(&mut stream, &tail, chunk);

    // The ack is the last text line; everything after is frames.
    let mut line = String::new();
    reader.read_line(&mut line).expect("read upgrade ack");
    assert_eq!(
        Response::parse(&line),
        Ok(Response::Upgraded),
        "line: {line:?}"
    );
    collect_bin_dones(&mut reader, &want);
}

#[test]
fn every_byte_boundary_and_protocol_mix_is_exactly_once() {
    let rt = Arc::new(Runtime::with_workers(3));
    let server = Server::start(rt, ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    // Chunk size 1 is the full every-byte-boundary torture; the larger
    // sizes hit different header/body straddles.
    for (i, chunk) in [1usize, 2, 3, 5, 8, 13].into_iter().enumerate() {
        torture_session(addr, chunk, 1_000 * (i as u64 + 1));
    }
    server.shutdown();
}

#[test]
fn concurrent_sessions_never_leak_partial_state() {
    let rt = Arc::new(Runtime::with_workers(3));
    let server = Server::start(rt, ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    // Four byte-dribbling sessions at once, interleaving arbitrarily on
    // the same reactors.  Each asserts it sees only its own tokens, so
    // any cross-connection buffer leak fails loudly.
    let threads: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || torture_session(addr, 1 + i as usize % 3, 100_000 * (i + 1)))
        })
        .collect();
    for t in threads {
        t.join().expect("session");
    }
    server.shutdown();
}

#[test]
fn upgrade_succeeds_with_a_slow_job_still_in_flight() {
    let rt = Arc::new(Runtime::with_workers(3));
    let server = Server::start(rt, ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    // Heavy enough that its `done` cannot have been written back by the
    // time the pipelined `upgrade bin` line is parsed: the gate must
    // wait out the in-flight job (delivering its completion) instead of
    // failing the connection after a fixed number of spin iterations.
    let slow = WireSpec {
        elements: 30_000,
        iterations: 60_000,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: WireDist::Uniform,
        seed: 424_242,
    };
    let slow_oracle = sequential_reduce_i64(&slow.to_pattern_spec().generate());
    let (slow_len, slow_sum) = (slow_oracle.len(), checksum(&slow_oracle));

    for round in 0..10u64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        let mut script = Request::Submit(SubmitArgs {
            token: round,
            reply: ReplyMode::Ack,
            body: WireBody::Sum,
            source: WireSource::Gen(slow),
        })
        .encode();
        script.push('\n');
        script.push_str("upgrade bin\n");
        stream.write_all(script.as_bytes()).expect("write");

        // The slow job's `done` is the first text line, the upgrade ack
        // the second — never `error upgrade with jobs in flight`.
        let mut line = String::new();
        reader.read_line(&mut line).expect("read done");
        let Ok(Response::Done(d)) = Response::parse(&line) else {
            panic!("round {round}: expected done, got {line:?}");
        };
        assert_eq!(d.token, round);
        assert!(
            matches!(
                d.outcome,
                DoneOutcome::Ok {
                    payload: Payload::Checksum { len, sum },
                    ..
                } if len == slow_len && sum == slow_sum
            ),
            "round {round}: bad slow-job outcome"
        );
        let mut line = String::new();
        reader.read_line(&mut line).expect("read upgrade ack");
        assert_eq!(
            Response::parse(&line),
            Ok(Response::Upgraded),
            "round {round}: {line:?}"
        );

        // The upgraded connection speaks frames.
        let token = 1_000 + round;
        let mut want = HashMap::new();
        want.insert(token, token);
        stream
            .write_all(&encode_request(&Request::Submit(submit(token, token))))
            .expect("write frame");
        collect_bin_dones(&mut reader, &want);
    }
    server.shutdown();
}

/// Which barrier closes a pipelined window in [`barrier_follows_every_done`].
#[derive(Clone, Copy, Debug)]
enum Barrier {
    Upgrade,
    Drain,
}

/// Pipeline a window of 16 fast jobs, then a barrier request, 50 times
/// over on a 2-reactor server.  Replies are coalesced per connection and
/// any reactor may deliver them, so the barrier is exact only if a
/// connection's in-flight count drops *after* its replies are written:
/// every `done` must arrive before the `upgraded` ack or the `drained`
/// line, and the ack must be the last text line on the connection.
/// The jobs are cheap but their full replies are long (a few thousand
/// values each), so a coalesced write takes long enough for a barrier
/// that jumps it to show.
fn barrier_follows_every_done(barrier: Barrier) {
    const WINDOW: u64 = 16;
    const ROUNDS: u64 = 50;
    let wide = |seed: u64| WireSpec {
        elements: 4096,
        ..small_spec(seed)
    };
    let job = |token: u64, seed: u64| SubmitArgs {
        token,
        reply: ReplyMode::Full,
        source: WireSource::Gen(wide(seed)),
        ..submit(token, seed)
    };
    let rt = Arc::new(Runtime::with_workers(2));
    let server = Server::start(
        rt,
        ServerConfig {
            reactors: 2,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();
    let expected: Vec<Vec<i64>> = (0..4)
        .map(|seed| sequential_reduce_i64(&wide(seed).to_pattern_spec().generate()))
        .collect();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };
    // The drain variant keeps one connection, so `drained` also checks
    // the running `done` count.
    let (mut stream, mut reader) = connect();
    for round in 0..ROUNDS {
        if let Barrier::Upgrade = barrier {
            (stream, reader) = connect();
        }
        let mut script = String::new();
        for t in 0..WINDOW {
            let token = round * WINDOW + t;
            let mut line = Request::Submit(job(token, t % 4)).encode();
            line.push('\n');
            script.push_str(&line);
        }
        script.push_str(match barrier {
            Barrier::Upgrade => "upgrade bin\n",
            Barrier::Drain => "drain\n",
        });
        stream.write_all(script.as_bytes()).expect("write");

        let mut seen = HashMap::new();
        while seen.len() < WINDOW as usize {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read done");
            let Ok(Response::Done(d)) = Response::parse(&line) else {
                panic!(
                    "{barrier:?} round {round}: got {line:?} with {} of {WINDOW} dones read",
                    seen.len()
                );
            };
            assert!(
                d.token / WINDOW == round && seen.insert(d.token, ()).is_none(),
                "{barrier:?} round {round}: foreign or duplicate token {}",
                d.token
            );
            let want = &expected[(d.token % WINDOW % 4) as usize];
            assert!(
                matches!(
                    d.outcome,
                    DoneOutcome::Ok {
                        payload: Payload::Full(ref values),
                        ..
                    } if values == want
                ),
                "{barrier:?} round {round}: bad outcome for token {}",
                d.token
            );
        }
        let mut line = String::new();
        reader.read_line(&mut line).expect("read barrier reply");
        match barrier {
            Barrier::Upgrade => {
                assert_eq!(Response::parse(&line), Ok(Response::Upgraded), "{line:?}");
                // Nothing textual may follow the ack: the next bytes must
                // be the frame answering a binary submit.
                let token = 1_000_000 + round;
                stream
                    .write_all(&encode_request(&Request::Submit(submit(token, 0))))
                    .expect("write frame");
                let BinMsg::Response(r) = read_frame(&mut reader).expect("frame") else {
                    panic!("round {round}: expected a done frame");
                };
                assert!(
                    matches!(*r, Response::Done(ref d) if d.token == token),
                    "round {round}: expected done {token}, got {r:?}"
                );
            }
            Barrier::Drain => assert_eq!(
                Response::parse(&line),
                Ok(Response::Drained((round + 1) * WINDOW)),
                "round {round}"
            ),
        }
    }
    server.shutdown();
}

#[test]
fn upgrade_ack_follows_every_coalesced_done() {
    barrier_follows_every_done(Barrier::Upgrade);
}

#[test]
fn drained_follows_every_coalesced_done() {
    barrier_follows_every_done(Barrier::Drain);
}

#[test]
fn binary_garbage_fails_one_connection_not_the_server() {
    let rt = Arc::new(Runtime::with_workers(2));
    let server = Server::start(rt, ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    for poison in [
        // Unknown kind byte.
        {
            let mut f = 5u32.to_le_bytes().to_vec();
            f.extend_from_slice(&[0x7F, 1, 2, 3, 4]);
            f
        },
        // Zero-length frame.
        0u32.to_le_bytes().to_vec(),
        // Length header far over the server's limit.
        {
            let mut f = u32::MAX.to_le_bytes().to_vec();
            f.push(0x01);
            f
        },
        // Valid kind, truncated body with a "complete" length.
        {
            let mut f = 3u32.to_le_bytes().to_vec();
            f.extend_from_slice(&[0x01, 0, 0]);
            f
        },
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(b"upgrade bin\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("ack");
        assert_eq!(Response::parse(&line), Ok(Response::Upgraded));

        stream.write_all(&poison).expect("write poison");
        // The connection must die (typically after an error frame); it
        // must not hang and must not take the server with it.
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);

        let mut probe = smartapps_server::Client::connect(addr).expect("server alive");
        probe.stats().expect("server still answers");
    }
    server.shutdown();
}

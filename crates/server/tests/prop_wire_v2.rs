//! Property tests of both wire codecs: the binary wire v2
//! (`smartapps_server::wire2`) and the text lines
//! (`Request`/`Response::{encode, parse}`).
//!
//! Two families:
//!
//! * **Round trips** — arbitrary requests and responses survive
//!   encode → frame-split → decode, and encode → parse, exactly.  Values
//!   are compared via re-encoded binary bytes, so every float must come
//!   back bit for bit (including NaNs in binary, which `PartialEq` would
//!   reject — the binary protocol's reason to exist is exact i64/f64
//!   transport; text cannot carry NaN payloads, so the text strategies
//!   leave NaN out).
//! * **Decoder robustness** — arbitrary byte soup, truncations of valid
//!   frames at every boundary, lying length headers, every prefix of a
//!   valid text line and token soups over the text grammar's vocabulary
//!   must produce `Err` (failing only the one connection) or a value,
//!   never a panic and never a runaway allocation.

use proptest::prelude::*;
use smartapps_server::wire2::{
    decode_request, decode_response, encode_request, encode_response, FrameBuf, FrameStep,
};
use smartapps_server::{
    DoneMsg, DoneOutcome, ExplainInfo, ExplainTarget, HistSummary, Payload, ReplyMode, Request,
    Response, SlowlogEntry, StatsV2, SubmitArgs, UploadArgs, WireBody, WireCandidate, WireDist,
    WireGate, WireSource, WireSpec,
};

/// Any bit pattern but NaN, whose payload text cannot carry (NaN turns
/// into an infinity of its sign, so infinities stay well covered).
fn no_nan(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_nan() {
        f64::INFINITY.copysign(v)
    } else {
        v
    }
}

/// Floats every wire line can carry: any bits in binary, no NaN in text.
fn arb_f64(text: bool) -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(if text { no_nan } else { f64::from_bits })
}

fn arb_dist(text: bool) -> impl Strategy<Value = WireDist> {
    prop_oneof![
        Just(WireDist::Uniform),
        arb_f64(text).prop_map(WireDist::Zipf),
        any::<u32>().prop_map(WireDist::Clustered),
    ]
}

fn arb_spec(text: bool) -> impl Strategy<Value = WireSpec> {
    (
        (any::<usize>(), any::<usize>(), any::<usize>()),
        arb_f64(text),
        arb_dist(text),
        any::<u64>(),
    )
        .prop_map(
            move |((elements, iterations, refs_per_iter), coverage, dist, seed)| WireSpec {
                elements,
                iterations,
                refs_per_iter,
                // The text grammar refuses a non-finite coverage.
                coverage: if text && !coverage.is_finite() {
                    0.5
                } else {
                    coverage
                },
                dist,
                seed,
            },
        )
}

fn arb_body() -> impl Strategy<Value = WireBody> {
    prop_oneof![
        Just(WireBody::Sum),
        any::<u64>().prop_map(|k| WireBody::Mul(k as i64)),
        Just(WireBody::FSum),
        Just(WireBody::Panic),
    ]
}

fn arb_source(text: bool) -> impl Strategy<Value = WireSource> {
    prop_oneof![
        arb_spec(text).prop_map(WireSource::Gen),
        any::<u64>().prop_map(WireSource::Handle),
    ]
}

fn arb_submit(text: bool) -> impl Strategy<Value = SubmitArgs> {
    (
        any::<u64>(),
        prop_oneof![Just(ReplyMode::Ack), Just(ReplyMode::Full)],
        arb_body(),
        arb_source(text),
    )
        .prop_map(|(token, reply, body, source)| SubmitArgs {
            token,
            reply,
            body,
            source,
        })
}

fn arb_upload() -> impl Strategy<Value = UploadArgs> {
    (
        any::<u64>(),
        0usize..10_000,
        proptest::collection::vec(any::<u32>(), 0..20),
        proptest::collection::vec(any::<u32>(), 0..40),
    )
        .prop_map(|(token, num_elements, iter_ptr, indices)| UploadArgs {
            token,
            num_elements,
            iter_ptr,
            indices,
        })
}

fn arb_request(text: bool) -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_submit(text).prop_map(Request::Submit),
        proptest::collection::vec(arb_submit(text), 1..5).prop_map(Request::Batch),
        arb_upload().prop_map(Request::Upload),
        Just(Request::UpgradeBin),
        Just(Request::Stats),
        Just(Request::StatsV2),
        Just(Request::Metrics),
        Just(Request::Drain),
        any::<u64>().prop_map(Request::Unquarantine),
        any::<u64>().prop_map(|s| Request::Explain(ExplainTarget::Signature(s))),
        any::<u64>().prop_map(|h| Request::Explain(ExplainTarget::Handle(h))),
        any::<usize>().prop_map(Request::Slowlog),
    ]
}

/// Short strings over the label charset the registry emits.
fn arb_ident() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
    proptest::collection::vec(0usize..CHARS.len(), 1..10)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i] as char).collect())
}

fn arb_payload(text: bool) -> impl Strategy<Value = Payload> {
    prop_oneof![
        (0usize..1_000_000, any::<u64>()).prop_map(|(len, sum)| Payload::Checksum {
            len,
            sum: sum as i64,
        }),
        proptest::collection::vec(any::<u64>(), 0..8)
            .prop_map(|v| Payload::Full(v.into_iter().map(|x| x as i64).collect())),
        (0usize..1_000_000, arb_f64(text)).prop_map(|(len, sum)| Payload::ChecksumF64 { len, sum }),
        proptest::collection::vec(arb_f64(text), 0..8).prop_map(Payload::FullF64),
    ]
}

fn arb_done(text: bool) -> impl Strategy<Value = DoneMsg> {
    let ok = (
        (arb_ident(), any::<u64>(), any::<bool>()),
        (any::<u32>(), any::<u32>()),
        arb_payload(text),
    )
        .prop_map(
            |((scheme, elapsed_ns, profile_hit), (fused_with, batched_with), payload)| {
                DoneOutcome::Ok {
                    scheme,
                    elapsed_ns,
                    profile_hit,
                    // The frame carries these as u32 — the round trip is
                    // exact within that range.
                    fused_with: fused_with as usize,
                    batched_with: batched_with as usize,
                    payload,
                }
            },
        );
    let err = (arb_ident(), any::<u64>(), arb_ident()).prop_map(|(kind, signature, message)| {
        DoneOutcome::Err {
            kind,
            signature,
            message,
        }
    });
    (any::<u64>(), prop_oneof![ok, err]).prop_map(|(token, outcome)| DoneMsg { token, outcome })
}

fn arb_summary() -> impl Strategy<Value = HistSummary> {
    (
        (arb_ident(), arb_ident(), arb_ident()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((name, label_key, label_value), (count, p50, p95, p99, max))| HistSummary {
                name,
                label_key,
                label_value,
                count,
                p50,
                p95,
                p99,
                max,
            },
        )
}

fn arb_gate() -> impl Strategy<Value = WireGate> {
    (any::<bool>(), arb_ident()).prop_map(|(fired, reason)| WireGate { fired, reason })
}

fn arb_explain_info(text: bool) -> impl Strategy<Value = ExplainInfo> {
    (
        (any::<u64>(), arb_ident(), arb_ident(), arb_ident()),
        (any::<bool>(), any::<bool>(), any::<u64>()),
        (arb_gate(), arb_gate(), arb_gate()),
        proptest::collection::vec((arb_ident(), arb_f64(text)), 0..6),
        proptest::collection::vec(
            (arb_ident(), arb_f64(text), arb_f64(text), any::<bool>()).prop_map(
                |(scheme, analytic, corrected, feasible)| WireCandidate {
                    scheme,
                    analytic,
                    corrected,
                    feasible,
                },
            ),
            0..6,
        ),
    )
        .prop_map(
            |(
                (signature, domain, winner, backend),
                (explored, rechecked, flips),
                (fusion, simplify, quarantine),
                features,
                candidates,
            )| ExplainInfo {
                signature,
                domain,
                winner,
                backend,
                explored,
                rechecked,
                flips,
                fusion,
                simplify,
                quarantine,
                features,
                candidates,
            },
        )
}

fn arb_slowlog_entry() -> impl Strategy<Value = SlowlogEntry> {
    (
        (any::<u64>(), any::<u64>()),
        (arb_ident(), arb_ident(), arb_ident(), arb_ident()),
        0u16..=u16::MAX,
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (class, latency_ns),
                (scheme, backend, error, winner),
                fused,
                (queue_ns, decide_ns, simplify_ns, exec_ns, completion_ns),
            )| SlowlogEntry {
                class,
                latency_ns,
                scheme,
                backend,
                error,
                fused,
                queue_ns,
                decide_ns,
                simplify_ns,
                exec_ns,
                completion_ns,
                winner,
            },
        )
}

fn arb_response(text: bool) -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_done(text).prop_map(Response::Done),
        proptest::collection::vec((arb_ident(), any::<u64>()), 0..6).prop_map(Response::Stats),
        (
            proptest::collection::vec((arb_ident(), any::<u64>()), 0..5),
            proptest::collection::vec(arb_summary(), 0..4),
            proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        )
            .prop_map(|(counters, hists, quarantined)| {
                Response::StatsV2(StatsV2 {
                    counters,
                    hists,
                    quarantined,
                })
            }),
        any::<u64>().prop_map(Response::Drained),
        any::<bool>().prop_map(Response::Unquarantined),
        (any::<u64>(), any::<u64>())
            .prop_map(|(token, handle)| Response::Uploaded { token, handle }),
        Just(Response::Upgraded),
        Just(Response::Explained(None)),
        arb_explain_info(text).prop_map(|i| Response::Explained(Some(i))),
        proptest::collection::vec(arb_slowlog_entry(), 0..4).prop_map(Response::Slowlog),
        arb_ident().prop_map(Response::Error),
    ]
}

/// Split one encoded frame into `(kind, body)` via the same splitter the
/// server feeds sockets through.
fn split_frame(bytes: &[u8]) -> (u8, Vec<u8>) {
    let mut fb = FrameBuf::new();
    fb.extend(bytes);
    match fb.next_frame(u32::MAX).expect("well-formed frame") {
        FrameStep::Frame { kind, body } => (kind, body),
        FrameStep::NeedMore => panic!("encoder produced a partial frame"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → split → decode → re-encode is byte-identical for
    /// arbitrary requests (bit-exact f64 transport included).
    #[test]
    fn requests_round_trip_bit_exact(req in arb_request(false)) {
        let bytes = encode_request(&req);
        let (kind, body) = split_frame(&bytes);
        let decoded = decode_request(kind, &body);
        prop_assert!(decoded.is_ok(), "decode failed: {decoded:?}");
        prop_assert_eq!(
            encode_request(&decoded.unwrap()),
            bytes,
            "re-encoding diverged"
        );
    }

    /// Same for responses.
    #[test]
    fn responses_round_trip_bit_exact(resp in arb_response(false)) {
        let bytes = encode_response(&resp);
        let (kind, body) = split_frame(&bytes);
        let decoded = decode_response(kind, &body);
        prop_assert!(decoded.is_ok(), "decode failed: {decoded:?}");
        let smartapps_server::BinMsg::Response(r) = decoded.unwrap() else {
            return Err(proptest::TestCaseError::fail("response decoded as metrics"));
        };
        prop_assert_eq!(encode_response(&r), bytes, "re-encoding diverged");
    }

    /// Arbitrary byte soup through the frame splitter and both decoders:
    /// errors are fine (they fail one connection), panics and runaway
    /// allocations are not.
    #[test]
    fn byte_soup_never_panics(soup in proptest::collection::vec(any::<u64>(), 0..64)) {
        let bytes: Vec<u8> = soup.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut fb = FrameBuf::new();
        fb.extend(&bytes);
        // Bound max_frame the way a small server config would; a lying
        // header is a sticky error, not an allocation.
        for _ in 0..64 {
            match fb.next_frame(4096) {
                Ok(FrameStep::Frame { kind, body }) => {
                    let _ = decode_request(kind, &body);
                    let _ = decode_response(kind, &body);
                }
                Ok(FrameStep::NeedMore) => break,
                Err(_) => break,
            }
        }
    }

    /// Every strict prefix of a valid frame body fails to decode: the
    /// cursor hits EOF or the trailing-bytes check, never a panic and
    /// never a silently short value.
    #[test]
    fn truncated_requests_error_at_every_cut(req in arb_request(false)) {
        let bytes = encode_request(&req);
        let (kind, body) = split_frame(&bytes);
        for cut in 0..body.len() {
            prop_assert!(
                decode_request(kind, &body[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                body.len()
            );
        }
    }

    /// A frame cut anywhere mid-stream leaves the splitter waiting for
    /// the rest (NeedMore), and appending the tail later completes the
    /// original frame — reassembly state survives arbitrary splits.
    #[test]
    fn split_frames_reassemble(req in arb_request(false), cut_seed in any::<u64>()) {
        let bytes = encode_request(&req);
        let cut = (cut_seed as usize) % bytes.len();
        let mut fb = FrameBuf::new();
        fb.extend(&bytes[..cut]);
        // Every cut is strictly partial (encoded frames are never
        // empty), so the splitter must wait, not error.
        prop_assert!(matches!(
            fb.next_frame(u32::MAX),
            Ok(FrameStep::NeedMore)
        ));
        fb.extend(&bytes[cut..]);
        let Ok(FrameStep::Frame { kind, body }) = fb.next_frame(u32::MAX) else {
            return Err(proptest::TestCaseError::fail("reassembly failed"));
        };
        prop_assert_eq!(
            encode_request(&decode_request(kind, &body).unwrap()),
            bytes
        );
    }
}

/// Words, numbers and joins the text grammar is made of, for token
/// soups.
const VOCAB: &[&str] = &[
    "submit",
    "batch",
    "stats",
    "v2",
    "stats2",
    "metrics",
    "drain",
    "unquarantine",
    "upload",
    "explain",
    "explained",
    "slowlog",
    "upgrade",
    "upgraded",
    "bin",
    "done",
    "drained",
    "unquarantined",
    "uploaded",
    "err",
    "ok",
    "ack",
    "full",
    "sum",
    "fsum",
    "ffull",
    "mul:",
    "panic",
    "usum",
    "fusum",
    "uniform",
    "zipf:",
    "clustered:",
    "pat:",
    "none",
    "counters",
    "hists",
    "quarantine",
    "features",
    "candidates",
    "0",
    "1",
    "01",
    "2",
    "18446744073709551616",
    "-3",
    "0.75",
    "inf",
    "NaN",
    "1e-9",
    "00000000000000ff",
    "zz",
    "a=1",
    "x:y",
    "-",
    ":",
    "=",
];
const SEPS: &[&str] = &[" ", " ", "  ", "\t", "", ":", "="];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → parse gives the value back, compared by its binary
    /// bytes, and parse → encode gives the line back.
    #[test]
    fn text_requests_round_trip(req in arb_request(true)) {
        let line = req.encode();
        let parsed = Request::parse(&line);
        prop_assert!(parsed.is_ok(), "{line:?}: {parsed:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(encode_request(&parsed), encode_request(&req), "line: {}", line);
        prop_assert_eq!(parsed.encode(), line);
    }

    #[test]
    fn text_responses_round_trip(resp in arb_response(true)) {
        let line = resp.encode();
        let parsed = Response::parse(&line);
        prop_assert!(parsed.is_ok(), "{line:?}: {parsed:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(encode_response(&parsed), encode_response(&resp), "line: {}", line);
        prop_assert_eq!(parsed.encode(), line);
    }

    /// Every prefix of a valid line parses or fails; it never panics.
    #[test]
    fn text_prefixes_never_panic(req in arb_request(true), resp in arb_response(true)) {
        for line in [req.encode(), resp.encode()] {
            for cut in (0..=line.len()).filter(|&c| line.is_char_boundary(c)) {
                let _ = Request::parse(&line[..cut]);
                let _ = Response::parse(&line[..cut]);
            }
        }
    }

    /// Lines stitched from the grammar's own words parse or fail; they
    /// never panic.
    #[test]
    fn text_token_soup_never_panics(
        soup in proptest::collection::vec((0..VOCAB.len(), 0..SEPS.len()), 0..24),
    ) {
        let line: String = soup.iter().map(|&(w, s)| format!("{}{}", VOCAB[w], SEPS[s])).collect();
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }
}

/// Zero and oversized length headers are rejected before any body
/// allocation, and the error is sticky (the connection is done for).
#[test]
fn lying_length_headers_are_rejected() {
    let mut fb = FrameBuf::new();
    fb.extend(&0u32.to_le_bytes());
    assert!(fb.next_frame(1024).is_err(), "zero length must be rejected");
    assert!(fb.next_frame(1024).is_err(), "frame errors must be sticky");

    let mut fb = FrameBuf::new();
    fb.extend(&u32::MAX.to_le_bytes());
    fb.extend(&[0x01]);
    assert!(
        fb.next_frame(1024).is_err(),
        "length over max_frame must be rejected without buffering 4 GiB"
    );
}

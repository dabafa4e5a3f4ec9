//! Binary wire v2: the length-prefixed framed encoding of the same
//! [`Request`]/[`Response`] types the text protocol speaks.
//!
//! The text protocol renders every output value in decimal, the dominant
//! cost of `full`-payload traffic, and it has no i64/f64-exact
//! representation cheaper than printing.  Wire v2 replaces lines with
//! frames:
//!
//! ```text
//! frame    := len:u32le  kind:u8  body:bytes       (len = 1 + |body|)
//! ```
//!
//! `len` counts the kind byte plus the body, so an empty-bodied message
//! (`stats`) is `01 00 00 00` + kind.  All integers are little-endian;
//! floats are IEEE-754 bit patterns (exact, no decimal round-trip);
//! strings are `u32` length + contents; vectors are `u32` count +
//! elements.  Request kinds occupy `0x01..=0x0b`, response kinds
//! `0x81..=0x8b` (high bit = response), so a desynchronized peer is
//! detected by kind byte, not by guessing.
//!
//! The body of each message is not written here: every type describes
//! its fields once in [`wire`](crate::wire), and the kind bytes sit in
//! the same tables as the text verbs.  This module holds the framing —
//! the entry points, the metrics frame and the [`FrameBuf`] splitter.
//!
//! A connection *starts* in text and negotiates the switch: `upgrade
//! bin` line → `upgraded bin` line → frames both ways (see
//! `docs/SERVER.md`).  The [`Upgrade`](crate::wire::Request::UpgradeBin)
//! / [`Upgraded`](crate::wire::Response::Upgraded) messages therefore
//! never legitimately appear *inside* a binary stream, but the codec is
//! total over both enums so round-trip properties can quantify over
//! every variant.
//!
//! **Robustness contract** (proptest-enforced in `tests/prop_wire_v2.rs`):
//! decoding never panics — arbitrary byte soup, truncated frames, and
//! declared lengths past the cap all surface as `Err`/`NeedMore`, and the
//! server fails only the one connection that sent them.

use crate::codec::{self, BinSink};
use crate::wire::{Request, Response};

/// Frame header size: the `u32` little-endian length prefix.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Default cap a peer enforces on one frame's declared length (kind +
/// body).  Large enough for a `full` payload over the server's biggest
/// admissible pattern or a multi-megabyte CSR upload; small enough that
/// a corrupt length prefix cannot make the receiver buffer gigabytes.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// The metrics-exposition reply's kind byte (the other kinds are in the
/// [`Request`] and [`Response`] tables).
const K_METRICS_BODY: u8 = 0x87;

/// A decoded server→client frame: either a [`Response`] or the raw
/// Prometheus exposition bytes (the one reply that is not a `Response`
/// variant, mirroring the text protocol's out-of-band metrics frame).
#[derive(Debug, Clone, PartialEq)]
pub enum BinMsg {
    /// An ordinary response (boxed: the `Explained` variant's candidate
    /// table makes `Response` much larger than the metrics arm).
    Response(Box<Response>),
    /// The metrics exposition body, raw.
    Metrics(Vec<u8>),
}

/// Encode one client→server request as a complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    codec::to_frame(req)
}

/// Encode one server→client response as a complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    codec::to_frame(resp)
}

/// Encode the metrics-exposition reply (raw bytes) as a complete frame.
pub fn encode_metrics_frame(exposition: &[u8]) -> Vec<u8> {
    let mut s = BinSink::new(K_METRICS_BODY);
    s.bytes(exposition);
    s.finish()
}

/// Decode one request frame (kind byte + body, header already split off
/// by [`FrameBuf`]).
pub fn decode_request(kind: u8, body: &[u8]) -> Result<Request, String> {
    codec::from_frame(kind, body)
}

/// Decode one response frame (kind byte + body).
pub fn decode_response(kind: u8, body: &[u8]) -> Result<BinMsg, String> {
    if kind == K_METRICS_BODY {
        return Ok(BinMsg::Metrics(body.to_vec()));
    }
    codec::from_frame(kind, body).map(|r| BinMsg::Response(Box::new(r)))
}

// ---------------------------------------------------------------------
// Incremental frame splitting
// ---------------------------------------------------------------------

/// What [`FrameBuf::next_frame`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStep {
    /// A complete frame: kind byte and body.
    Frame {
        /// The kind byte.
        kind: u8,
        /// The frame body (everything after the kind byte).
        body: Vec<u8>,
    },
    /// The buffer holds only part of a frame; feed more bytes.
    NeedMore,
}

/// Incremental frame splitter: feed arbitrary byte chunks (a nonblocking
/// read may deliver half a header, or three frames and a half), pop
/// complete frames.  One `FrameBuf` per connection per direction;
/// protocol errors (zero or over-cap declared length) are sticky — the
/// caller must fail the connection, matching the text protocol's
/// close-on-error behavior.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by popped frames (compacted
    /// lazily so a trickle of tiny frames does not memmove per frame).
    pos: usize,
}

impl FrameBuf {
    /// An empty splitter.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Append raw bytes received from the peer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing once the dead prefix dominates.
        if self.pos > 0 && (self.pos >= 4096 || self.pos * 2 >= self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pop the next complete frame, if the buffer holds one.  `Err` is a
    /// protocol violation (declared length zero or beyond `max_frame`):
    /// the stream cannot be resynchronized and the connection must be
    /// failed.
    pub fn next_frame(&mut self, max_frame: u32) -> Result<FrameStep, String> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER_BYTES {
            return Ok(FrameStep::NeedMore);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 {
            return Err("frame length 0 (missing kind byte)".into());
        }
        if len > max_frame {
            return Err(format!("frame length {len} exceeds cap {max_frame}"));
        }
        let total = FRAME_HEADER_BYTES + len as usize;
        if avail.len() < total {
            return Ok(FrameStep::NeedMore);
        }
        let kind = avail[FRAME_HEADER_BYTES];
        let body = avail[FRAME_HEADER_BYTES + 1..total].to_vec();
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(FrameStep::Frame { kind, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ReplyMode, SubmitArgs, WireBody, WireDist, WireSource, WireSpec};

    fn sample_submit() -> SubmitArgs {
        SubmitArgs {
            token: 77,
            reply: ReplyMode::Full,
            body: WireBody::FSum,
            source: WireSource::Gen(WireSpec {
                elements: 512,
                iterations: 900,
                refs_per_iter: 2,
                coverage: 0.75,
                dist: WireDist::Zipf(1.1),
                seed: 7,
            }),
        }
    }

    #[test]
    fn framebuf_reassembles_byte_trickle() {
        let a = encode_request(&Request::Submit(sample_submit()));
        let b = encode_request(&Request::Drain);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for &byte in &all {
            fb.extend(&[byte]);
            while let FrameStep::Frame { kind, body } =
                fb.next_frame(DEFAULT_MAX_FRAME_BYTES).unwrap()
            {
                got.push(decode_request(kind, &body).unwrap());
            }
        }
        assert_eq!(got, vec![Request::Submit(sample_submit()), Request::Drain]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn replies_appended_to_one_buffer_match_standalone_encodings() {
        use crate::codec::Proto;
        use crate::wire::{DoneMsg, DoneOutcome, Payload};
        let done = Response::Done(DoneMsg {
            token: 9,
            outcome: DoneOutcome::Ok {
                scheme: "rep".into(),
                elapsed_ns: 1234,
                profile_hit: true,
                fused_with: 0,
                batched_with: 2,
                payload: Payload::FullF64(vec![0.5, -1.25, 3.0]),
            },
        });
        let replies = [done.clone(), Response::Drained(4), done];
        for proto in [Proto::Bin, Proto::Text] {
            let mut appended = Vec::new();
            let mut standalone = Vec::new();
            for r in &replies {
                proto.encode_into(r, &mut appended);
                match proto {
                    Proto::Bin => standalone.extend_from_slice(&encode_response(r)),
                    Proto::Text => {
                        standalone.extend_from_slice(format!("{}\n", r.encode()).as_bytes())
                    }
                }
            }
            assert_eq!(appended, standalone);
        }
    }

    #[test]
    fn framebuf_rejects_zero_and_oversized_lengths() {
        let mut fb = FrameBuf::new();
        fb.extend(&[0, 0, 0, 0]);
        assert!(fb.next_frame(DEFAULT_MAX_FRAME_BYTES).is_err());
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(fb.next_frame(1024).is_err());
    }

    #[test]
    fn truncated_bodies_error_not_panic() {
        let full = encode_request(&Request::Submit(sample_submit()));
        let kind = full[FRAME_HEADER_BYTES];
        let body = &full[FRAME_HEADER_BYTES + 1..];
        for cut in 0..body.len() {
            assert!(
                decode_request(kind, &body[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage is also rejected.
        let mut long = body.to_vec();
        long.push(0);
        assert!(decode_request(kind, &long).is_err());
    }

    #[test]
    fn lying_vec_counts_cannot_allocate() {
        // A batch frame declaring u32::MAX jobs with a 4-byte body must
        // fail fast on the count check, not try to reserve gigabytes.
        let body = u32::MAX.to_le_bytes();
        assert!(decode_request(0x02, &body).is_err());
    }
}

//! A fixed-capacity lock-free ring of job-lifecycle trace events.
//!
//! The [`TraceRing`] keeps the last N [`TraceEvent`]s — one per job,
//! recording every lifecycle timestamp from submission to completion
//! plus the decision tags (scheme, backend, fused, error kind).  Where
//! the histograms answer *"what does the distribution look like?"*, the
//! ring answers *"what happened to the last few thousand jobs,
//! individually?"* — the thing you want when a p99 spike needs a culprit.
//!
//! ## Design: a seqlock ring in safe Rust
//!
//! Writers claim a slot by ticket (`head.fetch_add(1)`), flip the slot's
//! sequence word from the even value they observed to the odd value
//! `2·ticket + 1` via CAS, store the event's words with relaxed atomics,
//! then publish the unique even sequence `(ticket + 1) * 2` with
//! `Release`.  Every sequence value is unique to its ticket forever, so
//! readers load it with `Acquire`, copy the words, and re-check: a
//! concurrent writer leaves it odd or changed — torn events are detected
//! and skipped, never returned, and ABA cannot occur.  If the claim loses (a writer stalled a whole lap
//! while another laps it), the event is **dropped and counted** rather
//! than spun for — recording stays lock-free and the `dropped` counter
//! makes the loss visible.  Slots hold plain `AtomicU64` words, so there
//! is no `unsafe` anywhere.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of `u64` words a [`TraceEvent`] packs into.
const EVENT_WORDS: usize = 8;

/// Which execution backend ran a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceBackend {
    /// Host software execution (wall-clock timed).
    Software,
    /// Simulated PCLR hardware execution.
    Pclr,
    /// Rewritten by the simplification pass and executed as a
    /// difference-array scan instead of a scheme sweep.
    Scan,
    /// SIMD tree-reduction backend execution.
    Simd,
}

impl TraceBackend {
    /// The stable wire label (`software` / `pclr` / `scan` / `simd`).
    pub fn label(self) -> &'static str {
        match self {
            TraceBackend::Software => "software",
            TraceBackend::Pclr => "pclr",
            TraceBackend::Scan => "scan",
            TraceBackend::Simd => "simd",
        }
    }

    /// Inverse of [`TraceBackend::label`].
    pub fn from_label(s: &str) -> Option<TraceBackend> {
        Some(match s {
            "software" => TraceBackend::Software,
            "pclr" => TraceBackend::Pclr,
            "scan" => TraceBackend::Scan,
            "simd" => TraceBackend::Simd,
            _ => return None,
        })
    }
}

/// Why a job failed, if it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// Completed normally.
    None,
    /// The job's kernel panicked.
    Panicked,
    /// Rejected up front: its domain class was quarantined.
    Quarantined,
}

impl TraceError {
    /// The stable wire label (`none` / `panicked` / `quarantined`).
    pub fn label(self) -> &'static str {
        match self {
            TraceError::None => "none",
            TraceError::Panicked => "panicked",
            TraceError::Quarantined => "quarantined",
        }
    }
}

/// One job's lifecycle, timestamps in nanoseconds since the ring's
/// epoch (the owning runtime's start instant).
///
/// A timestamp of `0` means "not reached" for the optional stages; the
/// tags say how the job was routed and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The job's domain signature.
    pub signature: u64,
    /// When the job entered the submission path.
    pub submitted_ns: u64,
    /// When a dispatcher dequeued it.
    pub queued_ns: u64,
    /// When scheme selection finished.
    pub decided_ns: u64,
    /// When backend execution finished.
    pub executed_ns: u64,
    /// When the completion was handed to the sink.
    pub completed_ns: u64,
    /// Chosen parallelization scheme, as a small code (the runtime's
    /// scheme enum discriminant); `u8::MAX` when none was chosen.
    pub scheme: u8,
    /// Which backend executed it.
    pub backend: TraceBackend,
    /// How it ended.
    pub error: TraceError,
    /// Number of jobs fused into the same backend invocation (1 when
    /// the job ran alone).
    pub fused: u16,
    /// Nanoseconds the dispatcher spent probing the simplification pass
    /// for this job's group (0 when no probe ran).  A *duration*, not a
    /// timestamp: the probe happens inside the decided→executed span,
    /// so [`TraceEvent::stage_exec`] subtracts it back out.
    pub simplify_ns: u64,
}

impl TraceEvent {
    /// Queue-wait stage: submission to dispatcher dequeue.
    pub fn stage_queue(&self) -> u64 {
        self.queued_ns.saturating_sub(self.submitted_ns)
    }

    /// Decide stage: dequeue to scheme selection finishing.
    pub fn stage_decide(&self) -> u64 {
        self.decided_ns.saturating_sub(self.queued_ns)
    }

    /// Simplify-probe stage: time spent asking the simplification pass
    /// whether the group lowers to a scan (a duration carved out of the
    /// decided→executed span).
    pub fn stage_simplify(&self) -> u64 {
        self.simplify_ns
    }

    /// Exec stage: decision to backend execution finishing, minus the
    /// simplify-probe time (which [`TraceEvent::stage_simplify`] reports
    /// separately).
    pub fn stage_exec(&self) -> u64 {
        self.executed_ns
            .saturating_sub(self.decided_ns)
            .saturating_sub(self.simplify_ns)
    }

    /// Completion stage: execution finishing to the completion reaching
    /// the sink (the server's write path extends this with its own
    /// `write` series).
    pub fn stage_completion(&self) -> u64 {
        self.completed_ns.saturating_sub(self.executed_ns)
    }

    /// End-to-end latency: submission to completion.
    pub fn end_to_end(&self) -> u64 {
        self.completed_ns.saturating_sub(self.submitted_ns)
    }

    fn pack(&self) -> [u64; EVENT_WORDS] {
        let backend = match self.backend {
            TraceBackend::Software => 0u64,
            TraceBackend::Pclr => 1,
            TraceBackend::Scan => 2,
            TraceBackend::Simd => 3,
        };
        let error = match self.error {
            TraceError::None => 0u64,
            TraceError::Panicked => 1,
            TraceError::Quarantined => 2,
        };
        let tags =
            self.scheme as u64 | (backend << 8) | (error << 16) | ((self.fused as u64) << 24);
        [
            self.signature,
            self.submitted_ns,
            self.queued_ns,
            self.decided_ns,
            self.executed_ns,
            self.completed_ns,
            tags,
            self.simplify_ns,
        ]
    }

    fn unpack(words: &[u64; EVENT_WORDS]) -> TraceEvent {
        let tags = words[6];
        TraceEvent {
            signature: words[0],
            submitted_ns: words[1],
            queued_ns: words[2],
            decided_ns: words[3],
            executed_ns: words[4],
            completed_ns: words[5],
            scheme: (tags & 0xff) as u8,
            backend: match (tags >> 8) & 0xff {
                1 => TraceBackend::Pclr,
                2 => TraceBackend::Scan,
                3 => TraceBackend::Simd,
                _ => TraceBackend::Software,
            },
            error: match (tags >> 16) & 0xff {
                1 => TraceError::Panicked,
                2 => TraceError::Quarantined,
                _ => TraceError::None,
            },
            fused: ((tags >> 24) & 0xffff) as u16,
            simplify_ns: words[7],
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// `0` = never written; odd = write in progress; even `2k` = slot
    /// holds the event of ticket `k - 1`.
    seq: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// Fixed-capacity, lock-free, multi-producer ring of [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Slot>,
    mask: u64,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        TraceRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events pushed (including any later overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because two writers a full lap apart raced for the
    /// same slot (rare; requires `capacity` pushes during one write).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one event.  Wait-free except for a single CAS; on
    /// contention (another writer holds or laps the slot) the event is
    /// dropped and counted instead of blocking.
    pub fn push(&self, event: &TraceEvent) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let cur = slot.seq.load(Ordering::Relaxed);
        // Odd = a writer is mid-update; otherwise claim whatever even
        // value is there (healing slots whose previous lap was dropped).
        if cur % 2 == 1
            || slot
                .seq
                .compare_exchange(cur, 2 * ticket + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (w, v) in slot.words.iter().zip(event.pack()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store((ticket + 1) * 2, Ordering::Release);
    }

    /// Copy out the retained events, most recent first.  Slots a writer
    /// is mid-update on are skipped, never torn.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.mask + 1);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in (start..head).rev() {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let want = (ticket + 1) * 2;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != want {
                continue;
            }
            let mut words = [0u64; EVENT_WORDS];
            for (v, w) in words.iter_mut().zip(&slot.words) {
                *v = w.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) == want {
                out.push(TraceEvent::unpack(&words));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(signature: u64) -> TraceEvent {
        TraceEvent {
            signature,
            submitted_ns: signature * 10,
            queued_ns: signature * 10 + 1,
            decided_ns: signature * 10 + 2,
            executed_ns: signature * 10 + 3,
            completed_ns: signature * 10 + 4,
            scheme: (signature % 7) as u8,
            backend: match signature % 4 {
                0 => TraceBackend::Software,
                1 => TraceBackend::Pclr,
                2 => TraceBackend::Scan,
                _ => TraceBackend::Simd,
            },
            error: TraceError::None,
            fused: (signature % 5) as u16 + 1,
            simplify_ns: signature % 2,
        }
    }

    #[test]
    fn pack_unpack_round_trips() {
        for sig in [0u64, 1, 2, 3, 41, u32::MAX as u64] {
            let mut e = ev(sig);
            e.error = TraceError::Quarantined;
            e.scheme = u8::MAX;
            e.fused = u16::MAX;
            e.simplify_ns = u64::MAX;
            assert_eq!(TraceEvent::unpack(&e.pack()), e);
        }
    }

    #[test]
    fn every_backend_tag_round_trips() {
        for backend in [
            TraceBackend::Software,
            TraceBackend::Pclr,
            TraceBackend::Scan,
            TraceBackend::Simd,
        ] {
            let e = TraceEvent { backend, ..ev(17) };
            assert_eq!(TraceEvent::unpack(&e.pack()).backend, backend);
        }
    }

    #[test]
    fn stage_attribution_sums_to_end_to_end() {
        let e = TraceEvent {
            signature: 1,
            submitted_ns: 100,
            queued_ns: 150,
            decided_ns: 180,
            executed_ns: 480,
            completed_ns: 500,
            scheme: 2,
            backend: TraceBackend::Simd,
            error: TraceError::None,
            fused: 1,
            simplify_ns: 40,
        };
        assert_eq!(e.stage_queue(), 50);
        assert_eq!(e.stage_decide(), 30);
        assert_eq!(e.stage_simplify(), 40);
        assert_eq!(e.stage_exec(), 260);
        assert_eq!(e.stage_completion(), 20);
        assert_eq!(
            e.stage_queue()
                + e.stage_decide()
                + e.stage_simplify()
                + e.stage_exec()
                + e.stage_completion(),
            e.end_to_end()
        );
        // Unexecuted jobs (zeroed decided/executed stamps) attribute to
        // zero, never underflow.
        let dead = TraceEvent {
            decided_ns: 0,
            executed_ns: 0,
            simplify_ns: 0,
            ..e
        };
        assert_eq!(dead.stage_decide(), 0);
        assert_eq!(dead.stage_exec(), 0);
    }

    #[test]
    fn ring_retains_most_recent_first() {
        let ring = TraceRing::new(4);
        for sig in 0..3 {
            ring.push(&ev(sig));
        }
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.signature).collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
    }

    #[test]
    fn wraparound_keeps_only_the_last_capacity_events() {
        let ring = TraceRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for sig in 0..11 {
            ring.push(&ev(sig));
        }
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.signature).collect::<Vec<_>>(),
            vec![10, 9, 8, 7]
        );
        assert_eq!(ring.recorded(), 11);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        let ring = Arc::new(TraceRing::new(64));
        let threads = 8u64;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let ring = ring.clone();
                s.spawn(move || {
                    for i in 0..per {
                        ring.push(&ev(t * per + i));
                    }
                });
            }
            // Snapshot continuously while writers run: every event we
            // get back must be internally consistent (the timestamps
            // are derived from the signature).
            for _ in 0..200 {
                for e in ring.snapshot() {
                    assert_eq!(e.submitted_ns, e.signature * 10);
                    assert_eq!(e.completed_ns, e.signature * 10 + 4);
                    assert_eq!(e.scheme, (e.signature % 7) as u8);
                }
            }
        });
        assert_eq!(ring.recorded(), threads * per);
        let snap = ring.snapshot();
        // Quiescent: every slot readable, nothing torn, at most
        // `dropped` gaps.
        assert!(snap.len() as u64 >= 64 - ring.dropped().min(64));
        for e in &snap {
            assert_eq!(e.queued_ns, e.signature * 10 + 1);
        }
    }
}

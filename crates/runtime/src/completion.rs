//! Completion-driven job delivery: the poll/notify seam that lets one
//! consumer thread multiplex thousands of in-flight jobs.
//!
//! The original submission API is *handle-per-job*: every
//! [`JobHandle::wait`](crate::JobHandle::wait) parks its own thread on a
//! condvar, so a network server fronting the runtime would burn a thread
//! per outstanding client request.  This module inverts the flow:
//! [`Runtime::submit_tagged`](crate::Runtime::submit_tagged) attaches a
//! caller-chosen **token** to the job, and the dispatcher routes the
//! finished [`JobResult`] — fused, offloaded, quarantined, or failed, the
//! delivery path is the same — onto a bounded MPSC completion queue
//! instead of a per-handle slot.  A single consumer drains the shared
//! [`CompletionSet`] with [`poll`](CompletionSet::poll) /
//! [`wait_any`](CompletionSet::wait_any) /
//! [`wait_timeout`](CompletionSet::wait_timeout) /
//! [`drain`](CompletionSet::drain), matching each [`Completion`] back to
//! its submission by token.
//!
//! **Delivery granularity.**  A dispatcher hands over its completions
//! per *batch*, not per job: every member of one coalesced batch is
//! counted and traced as it finishes, and its event is held until the
//! batch ends, then delivered to each set in one step — one lock, one
//! consumer notify and one wake-hook call per chunk that fits under the
//! bound.  A batch-mate's event therefore waits for the batch's last
//! kernel.  Submit-thread completions and `JobHandle`s are delivered at
//! once.
//!
//! **Delivery contract.**  Every accepted submission produces *exactly
//! one* completion event — including submissions rejected before
//! queueing, jobs failed by shutdown or quarantine, and members of fused
//! sweeps.  Events for one job are never duplicated and never dropped
//! while the set is alive; dropping the set releases any producer
//! blocked on a full queue and discards undeliverable events.
//!
//! **Backpressure.**  The queue is bounded ([`CompletionSet::capacity`]):
//! when the consumer falls behind, completing dispatchers block until
//! space frees, so an unbounded event pileup cannot outrun the consumer.
//! Size the capacity to the in-flight window the consumer sustains.
//! Events produced on the *submitting* thread — rejections and
//! shutdown races — are exempt from the bound (the submitter may be the
//! set's only consumer, and blocking it on a queue only it can drain
//! would deadlock); their transient overshoot is bounded by the
//! submitter's own burst.
//!
//! [`JobHandle`](crate::JobHandle) remains as a compatibility shim: it
//! still waits on the same per-job `JobState` slot, now reached through
//! the same internal `CompletionSink` seam the queue path uses.

use crate::job::{JobResult, JobState, PatternSignature};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One finished job, delivered on a [`CompletionSet`]: the submission's
/// token, the signature the job was queued under, and the full result.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The caller-chosen tag passed to
    /// [`submit_tagged`](crate::Runtime::submit_tagged) — the runtime
    /// treats it as opaque and never deduplicates it; reusing a live
    /// token yields two events with the same token.
    pub token: u64,
    /// The pattern signature the job was queued and profiled under
    /// (`PatternSignature(0)` for submissions rejected before queueing).
    pub signature: PatternSignature,
    /// The finished job's result, errors included.
    pub result: JobResult,
}

/// Shared state of one completion queue: the bounded event FIFO plus the
/// in-flight accounting that lets a consumer distinguish "nothing *yet*"
/// from "nothing *ever again*".
struct QueueState {
    events: VecDeque<Completion>,
    /// Jobs routed to this queue whose events have not been popped yet
    /// (events still queued count as in flight until consumed).
    in_flight: usize,
    /// Set when the consumer [`CompletionSet`] is dropped: producers stop
    /// blocking and discard events instead.
    abandoned: bool,
}

/// The bounded MPSC event channel between completing dispatchers and one
/// completion consumer.  Internal to the crate; consumers hold a
/// [`CompletionSet`].
pub(crate) struct CompletionQueue {
    state: Mutex<QueueState>,
    /// Wakes the consumer when an event arrives.
    consumer: Condvar,
    /// Wakes producers when the consumer frees queue space.
    producer: Condvar,
    capacity: usize,
    /// Optional out-of-band consumer wake-up, invoked once per delivery
    /// call (a batch chunk or a submit-thread event) *in addition to*
    /// the condvar notify.  Consumers that
    /// block somewhere other than [`wait_any`](CompletionSet::wait_any)
    /// — a server reactor parked in `epoll_wait` — register a hook
    /// ([`CompletionSet::set_wake_hook`]) that interrupts their blocking
    /// primitive (an eventfd write).  Runs on the completing thread with
    /// no locks held; keep it cheap and non-blocking.
    wake_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl CompletionQueue {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(CompletionQueue {
            state: Mutex::new(QueueState {
                events: VecDeque::new(),
                in_flight: 0,
                abandoned: false,
            }),
            consumer: Condvar::new(),
            producer: Condvar::new(),
            capacity: capacity.max(1),
            wake_hook: Mutex::new(None),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register one submission routed to this queue (pairs with the
    /// eventual delivery of its event; keeps `wait_any` from reporting an
    /// empty set while jobs are still executing).
    pub(crate) fn register(&self) {
        self.lock().in_flight += 1;
    }

    /// Deliver a dispatcher batch's completions for this queue, in order.
    /// Each chunk that fits under `capacity` costs one lock, one
    /// consumer notify and one wake-hook call; between chunks the
    /// producer blocks until the consumer frees space.  If the consumer
    /// abandoned the set, the undelivered rest is discarded (and leaves
    /// `in_flight`) instead of blocking forever.
    pub(crate) fn push_batch(&self, events: Vec<Completion>) {
        let mut events = events.into_iter();
        while events.len() > 0 {
            let mut g = self.lock();
            while g.events.len() >= self.capacity && !g.abandoned {
                g = self.producer.wait(g).unwrap_or_else(|p| p.into_inner());
            }
            if g.abandoned {
                g.in_flight = g.in_flight.saturating_sub(events.len());
                return;
            }
            let room = self.capacity - g.events.len();
            g.events.extend(events.by_ref().take(room));
            drop(g);
            // A chunk may serve several popping threads.
            self.consumer.notify_all();
            self.invoke_wake_hook();
        }
    }

    /// Deliver one completion **without** blocking on the bound.  Used
    /// for completions produced on the *submitting* thread (rejections,
    /// shutdown races): that thread may itself be the set's only
    /// consumer, and parking it on a full queue it alone can drain
    /// would deadlock.  The transient overshoot past `capacity` is
    /// bounded by the submitter's own burst.
    pub(crate) fn push_now(&self, completion: Completion) {
        let mut g = self.lock();
        if g.abandoned {
            g.in_flight = g.in_flight.saturating_sub(1);
            return;
        }
        g.events.push_back(completion);
        drop(g);
        self.consumer.notify_one();
        self.invoke_wake_hook();
    }

    /// Run the registered wake hook, if any (after the state lock is
    /// released — the hook may itself touch the set).
    fn invoke_wake_hook(&self) {
        let hook = {
            let g = self.wake_hook.lock().unwrap_or_else(|p| p.into_inner());
            g.clone()
        };
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// The consumer side of a completion queue: multiplexes every job
/// submitted with this set over one (or a few) consumer threads.
///
/// All methods take `&self`, so a set can be shared (`Arc`) between
/// several popping threads — each event is still delivered to exactly one
/// of them.  Dropping the set abandons the queue: blocked producers wake
/// and further events are discarded.
pub struct CompletionSet {
    queue: Arc<CompletionQueue>,
}

impl CompletionSet {
    /// A set whose queue holds at most `capacity` undelivered events
    /// (clamped to ≥ 1); producers block while it is full.
    pub fn with_capacity(capacity: usize) -> Self {
        CompletionSet {
            queue: CompletionQueue::new(capacity),
        }
    }

    /// The bounded queue capacity.
    pub fn capacity(&self) -> usize {
        self.queue.capacity
    }

    pub(crate) fn queue(&self) -> Arc<CompletionQueue> {
        self.queue.clone()
    }

    /// Jobs submitted with this set whose completions have not been
    /// consumed yet (queued-but-unpopped events count).
    pub fn in_flight(&self) -> usize {
        self.queue.lock().in_flight
    }

    /// Completions queued and ready to pop without blocking.
    pub fn ready(&self) -> usize {
        self.queue.lock().events.len()
    }

    /// Non-blocking pop: the oldest undelivered completion, if any.
    pub fn poll(&self) -> Option<Completion> {
        let mut g = self.queue.lock();
        let c = g.events.pop_front()?;
        g.in_flight = g.in_flight.saturating_sub(1);
        drop(g);
        self.queue.producer.notify_one();
        Some(c)
    }

    /// Block until any in-flight job completes.  Returns `None` only when
    /// nothing is in flight (then nothing could ever arrive — the
    /// "completion queue is dry" signal a consumer loop exits on).
    pub fn wait_any(&self) -> Option<Completion> {
        let mut g = self.queue.lock();
        loop {
            if let Some(c) = g.events.pop_front() {
                g.in_flight = g.in_flight.saturating_sub(1);
                drop(g);
                self.queue.producer.notify_one();
                return Some(c);
            }
            if g.in_flight == 0 {
                return None;
            }
            g = self
                .queue
                .consumer
                .wait(g)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Like [`wait_any`](Self::wait_any) with a deadline: `None` when
    /// nothing completed within `timeout` *or* nothing is in flight.
    /// Disambiguate with [`in_flight`](Self::in_flight) if needed.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Completion> {
        let deadline = Instant::now() + timeout;
        let mut g = self.queue.lock();
        loop {
            if let Some(c) = g.events.pop_front() {
                g.in_flight = g.in_flight.saturating_sub(1);
                drop(g);
                self.queue.producer.notify_one();
                return Some(c);
            }
            if g.in_flight == 0 {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            g = self
                .queue
                .consumer
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Register an out-of-band wake-up called once per delivery call —
    /// each chunk of a dispatcher batch, each submit-thread completion —
    /// after its events are enqueued (in addition to the internal
    /// condvar notify), replacing any previous hook.  One call may stand
    /// for several events.  For consumers that block outside
    /// [`wait_any`](Self::wait_any) — a server reactor parked in
    /// `epoll_wait` registers an eventfd write here, then takes every
    /// ready event with [`drain`](Self::drain) on each wake-up.  The hook runs on
    /// the completing (dispatcher or submitting) thread with no queue
    /// locks held; it must be cheap and must not block.
    pub fn set_wake_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        let mut g = self
            .queue
            .wake_hook
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        *g = Some(Arc::new(hook));
    }

    /// Remove the registered wake hook, if any.
    pub fn clear_wake_hook(&self) {
        let mut g = self
            .queue
            .wake_hook
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        *g = None;
    }

    /// Pop every currently queued completion without blocking.
    pub fn drain(&self) -> Vec<Completion> {
        let mut g = self.queue.lock();
        let n = g.events.len();
        let out: Vec<Completion> = g.events.drain(..).collect();
        g.in_flight = g.in_flight.saturating_sub(n);
        drop(g);
        if n > 0 {
            self.queue.producer.notify_all();
        }
        out
    }
}

impl Drop for CompletionSet {
    fn drop(&mut self) {
        let mut g = self.queue.lock();
        g.abandoned = true;
        g.events.clear();
        drop(g);
        self.queue.producer.notify_all();
    }
}

impl std::fmt::Debug for CompletionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.queue.lock();
        f.debug_struct("CompletionSet")
            .field("capacity", &self.queue.capacity)
            .field("ready", &g.events.len())
            .field("in_flight", &g.in_flight)
            .finish()
    }
}

/// Where a finished job's result goes — the one seam every completion in
/// the service flows through.  `Handle` is the original blocking shape
/// ([`JobHandle`](crate::JobHandle) waits on the shared `JobState`
/// slot); `Queue` routes a tagged event onto a [`CompletionSet`].
pub(crate) enum CompletionSink {
    /// Fill the per-job slot a [`JobHandle`](crate::JobHandle) waits on.
    Handle(Arc<JobState>),
    /// Deliver a tagged event onto the bounded completion queue.
    Queue {
        token: u64,
        queue: Arc<CompletionQueue>,
    },
}

impl CompletionSink {
    /// Deliver a dispatcher-finished result.  A handle completes now; a
    /// queue event is held in `pending` and handed over with the rest
    /// of its batch.  Exactly-once per job is the caller's invariant
    /// (each queued job completes once); this only routes.
    pub(crate) fn complete(
        self,
        signature: PatternSignature,
        result: JobResult,
        pending: &mut PendingDeliveries,
    ) {
        match self {
            CompletionSink::Handle(state) => state.complete(result),
            CompletionSink::Queue { token, queue } => pending.hold(
                queue,
                Completion {
                    token,
                    signature,
                    result,
                },
            ),
        }
    }

    /// Deliver on the *submitting* thread (rejected-before-queueing and
    /// shutdown-raced submissions): at once, and never blocking on a
    /// full queue — the submitter may be the set's only consumer, and
    /// blocking it would deadlock the very thread that must drain the
    /// event.
    pub(crate) fn complete_inline(self, signature: PatternSignature, result: JobResult) {
        match self {
            CompletionSink::Handle(state) => state.complete(result),
            CompletionSink::Queue { token, queue } => queue.push_now(Completion {
                token,
                signature,
                result,
            }),
        }
    }
}

/// The queue events of one dispatcher batch, finished but not yet
/// handed over: held per queue, in finish order, and delivered with one
/// [`push_batch`](CompletionQueue::push_batch) per queue when the guard
/// is dropped — unwinding included — so no exit path of a batch can
/// lose an event it already finished.
#[derive(Default)]
pub(crate) struct PendingDeliveries {
    queues: Vec<(Arc<CompletionQueue>, Vec<Completion>)>,
}

impl PendingDeliveries {
    fn hold(&mut self, queue: Arc<CompletionQueue>, completion: Completion) {
        // A batch feeds one set or a few: a linear scan beats a map.
        match self.queues.iter_mut().find(|(q, _)| Arc::ptr_eq(q, &queue)) {
            Some((_, events)) => events.push(completion),
            None => self.queues.push((queue, vec![completion])),
        }
    }
}

impl Drop for PendingDeliveries {
    fn drop(&mut self) {
        for (queue, events) in self.queues.drain(..) {
            queue.push_batch(events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use smartapps_reductions::Scheme;

    fn done(token: u64) -> Completion {
        Completion {
            token,
            signature: PatternSignature(9),
            result: JobResult {
                output: JobOutput::I64(vec![1]),
                scheme: Scheme::Seq,
                elapsed: Duration::ZERO,
                sim_cycles: None,
                profile_hit: false,
                batched_with: 0,
                fused_with: 0,
                error: None,
            },
        }
    }

    #[test]
    fn poll_and_wait_deliver_in_order() {
        let set = CompletionSet::with_capacity(8);
        let q = set.queue();
        assert!(set.poll().is_none());
        assert!(set.wait_any().is_none(), "nothing in flight: dry");
        q.register();
        q.register();
        q.push_batch(vec![done(1), done(2)]);
        assert_eq!(set.ready(), 2);
        assert_eq!(set.in_flight(), 2);
        assert_eq!(set.poll().unwrap().token, 1);
        assert_eq!(set.wait_any().unwrap().token, 2);
        assert_eq!(set.in_flight(), 0);
        assert!(set.poll().is_none());
    }

    #[test]
    fn wait_any_blocks_until_a_producer_pushes() {
        let set = Arc::new(CompletionSet::with_capacity(4));
        let q = set.queue();
        q.register();
        let consumer = {
            let set = set.clone();
            std::thread::spawn(move || set.wait_any())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push_batch(vec![done(7)]);
        let c = consumer.join().unwrap().expect("must deliver");
        assert_eq!(c.token, 7);
    }

    #[test]
    fn wait_timeout_returns_none_on_deadline_with_work_in_flight() {
        let set = CompletionSet::with_capacity(4);
        let q = set.queue();
        q.register();
        let t0 = Instant::now();
        assert!(set.wait_timeout(Duration::from_millis(30)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(set.in_flight(), 1, "job still owed an event");
        q.push_batch(vec![done(3)]);
        assert_eq!(
            set.wait_timeout(Duration::from_millis(30)).unwrap().token,
            3
        );
    }

    #[test]
    fn full_queue_blocks_the_producer_until_a_pop() {
        let set = Arc::new(CompletionSet::with_capacity(1));
        let q = set.queue();
        q.register();
        q.register();
        q.push_batch(vec![done(1)]);
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                q.push_batch(vec![done(2)]); // must block until the consumer pops
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(set.ready(), 1, "bounded queue holds capacity events");
        assert_eq!(set.poll().unwrap().token, 1);
        producer.join().unwrap();
        assert_eq!(set.wait_any().unwrap().token, 2);
    }

    #[test]
    fn dropping_the_set_releases_blocked_producers() {
        let set = CompletionSet::with_capacity(1);
        let q = set.queue();
        q.register();
        q.register();
        q.push_batch(vec![done(1)]);
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push_batch(vec![done(2)]))
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(set);
        producer.join().unwrap(); // abandoned queue must not deadlock
        q.push_batch(vec![done(3)]); // and further pushes are discarded, not stuck
    }

    /// A hook that counts its calls.
    fn counting_hook(set: &CompletionSet) -> Arc<std::sync::atomic::AtomicUsize> {
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hits.clone();
        set.set_wake_hook(move || {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        hits
    }

    #[test]
    fn wake_hook_fires_on_every_enqueue_path() {
        use std::sync::atomic::Ordering;
        let set = CompletionSet::with_capacity(8);
        let hits = counting_hook(&set);
        let q = set.queue();
        for _ in 0..4 {
            q.register();
        }
        // Dispatcher path: one call per delivery, however many events.
        q.push_batch(vec![done(1), done(2), done(3)]);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        q.push_now(done(4)); // submitting-thread path
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        set.clear_wake_hook();
        q.register();
        q.push_batch(vec![done(5)]);
        assert_eq!(hits.load(Ordering::SeqCst), 2, "cleared hook stays quiet");
        assert_eq!(set.drain().len(), 5);
    }

    #[test]
    fn batch_over_capacity_arrives_whole_and_in_order() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let set = Arc::new(CompletionSet::with_capacity(1));
        let hits = counting_hook(&set);
        let q = set.queue();
        for _ in 0..5 {
            q.register();
        }
        let finished = Arc::new(AtomicBool::new(false));
        let producer = {
            let (q, finished) = (q.clone(), finished.clone());
            std::thread::spawn(move || {
                q.push_batch((0..5).map(done).collect());
                finished.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(set.ready(), 1, "one chunk fits under the bound");
        assert!(
            !finished.load(Ordering::SeqCst),
            "producer blocks between chunks"
        );
        let tokens: Vec<u64> = (0..5).map(|_| set.wait_any().unwrap().token).collect();
        producer.join().unwrap();
        assert_eq!(tokens, vec![0, 1, 2, 3, 4]);
        assert_eq!(hits.load(Ordering::SeqCst), 5, "one wake per chunk");
        assert_eq!(set.in_flight(), 0);
        assert!(set.wait_any().is_none());
    }

    #[test]
    fn abandoning_the_set_mid_batch_releases_the_undelivered_rest() {
        let set = CompletionSet::with_capacity(2);
        let q = set.queue();
        for _ in 0..5 {
            q.register();
        }
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push_batch((0..5).map(done).collect()))
        };
        // Two events fit; whether the producer is already parked on the
        // third or not, the drop leaves it the same three to release.
        while set.ready() < 2 {
            std::thread::yield_now();
        }
        drop(set);
        // The producer must not deadlock.
        producer.join().unwrap();
        // The three events that never reached the queue left `in_flight`;
        // the two the drop discarded were delivered and still count.
        assert_eq!(q.lock().in_flight, 2);
    }

    #[test]
    fn pending_deliveries_deliver_per_set_when_dropped() {
        use std::sync::atomic::Ordering;
        let (a, b) = (
            CompletionSet::with_capacity(8),
            CompletionSet::with_capacity(8),
        );
        let (hits_a, hits_b) = (counting_hook(&a), counting_hook(&b));
        let sink = |set: &CompletionSet, token| {
            set.queue().register();
            CompletionSink::Queue {
                token,
                queue: set.queue(),
            }
        };
        let hold = |sink: CompletionSink, pending: &mut PendingDeliveries| {
            let c = done(0);
            sink.complete(c.signature, c.result, pending);
        };
        {
            let mut pending = PendingDeliveries::default();
            for t in 0..3 {
                hold(sink(&a, t), &mut pending);
                hold(sink(&b, 10 + t), &mut pending);
            }
            assert_eq!((a.ready(), b.ready()), (0, 0), "held until the batch ends");
        } // dropped: the batch ends
        let tokens = |set: &CompletionSet| set.drain().iter().map(|c| c.token).collect::<Vec<_>>();
        assert_eq!(tokens(&a), vec![0, 1, 2]);
        assert_eq!(tokens(&b), vec![10, 11, 12]);
        assert_eq!(hits_a.load(Ordering::SeqCst), 1, "one delivery per set");
        assert_eq!(hits_b.load(Ordering::SeqCst), 1, "one delivery per set");

        // Unwinding drops the guard too: a finished event survives a
        // panic later in its batch.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pending = PendingDeliveries::default();
            hold(sink(&a, 7), &mut pending);
            panic!("batch dies after its first job finished");
        }));
        assert!(unwound.is_err());
        assert_eq!(tokens(&a), vec![7]);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn drain_takes_everything_ready() {
        let set = CompletionSet::with_capacity(8);
        let q = set.queue();
        for t in 0..5 {
            q.register();
            q.push_batch(vec![done(t)]);
        }
        let all = set.drain();
        assert_eq!(all.len(), 5);
        assert_eq!(
            all.iter().map(|c| c.token).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(set.in_flight(), 0);
        assert!(set.drain().is_empty());
    }
}

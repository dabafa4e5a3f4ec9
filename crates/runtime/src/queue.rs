//! The sharded job queue feeding N shard-affine dispatchers.
//!
//! Jobs land in `shards` independent FIFO lanes selected by pattern
//! signature, so concurrent client threads submitting different workload
//! classes never contend on one lock, while jobs of the *same* class
//! always share a shard — which is what makes batch coalescing a cheap
//! single-shard drain instead of a global scan.
//!
//! **Shard affinity.**  The queue is built for a fixed number of `owners`
//! (dispatcher threads); shard `s` belongs to dispatcher `s % owners`.
//! Each dispatcher pops from its own shards in round-robin order (no class
//! it owns can starve another) and receives, in one pop, up to `max_batch`
//! queued jobs carrying the first job's signature.  Affinity keeps a
//! workload class on one dispatcher — its inspection cache stays warm and
//! two dispatchers never race to decide the same class.
//!
//! **Work stealing.**  When a dispatcher's own shards drain while work
//! remains queued elsewhere, it steals one batch from the *longest*
//! foreign shard — the overloaded-peer heuristic — so a single flooded
//! class cannot leave N-1 dispatchers idle.  With `owners == 1` every
//! shard is owned and stealing never happens: the single-dispatcher
//! configuration.

use crate::completion::CompletionSink;
use crate::job::{JobSpec, PatternSignature};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One queued job: the spec, its signature, the completion sink the
/// finished result is routed through (handle slot, completion queue, or
/// callback — see [`CompletionSink`]), and the submission instant the
/// telemetry layer measures queue-wait from.
pub(crate) struct QueuedJob {
    pub spec: JobSpec,
    pub sig: PatternSignature,
    pub sink: CompletionSink,
    pub submitted_at: Instant,
}

/// One successful pop: a same-signature batch plus whether it was taken
/// from a foreign shard (a steal).
pub(crate) struct Pop {
    pub jobs: Vec<QueuedJob>,
    pub stolen: bool,
}

/// Signature-sharded multi-producer queue with coalescing batch pops,
/// shard-affine ownership, and cross-owner stealing.
pub(crate) struct ShardedQueue {
    shards: Vec<Mutex<VecDeque<QueuedJob>>>,
    /// Per-shard queued-job counts (updated under the shard lock; read
    /// without it by the steal heuristic, which only needs a hint).
    lens: Vec<AtomicUsize>,
    /// Count of queued jobs plus the wakeup channel for the dispatchers.
    pending: Mutex<usize>,
    cv: Condvar,
    closed: AtomicBool,
    /// Per-owner round-robin cursors over that owner's shards.
    cursors: Vec<Mutex<usize>>,
    /// Precomputed shard partition per owner (ownership is fixed at
    /// construction; the pop path must not allocate).
    owned_of: Vec<Vec<usize>>,
    foreign_of: Vec<Vec<usize>>,
    owners: usize,
}

impl ShardedQueue {
    /// A queue of `shards` lanes owned by `owners` dispatchers (shard `s`
    /// belongs to owner `s % owners`).
    pub(crate) fn new(shards: usize, owners: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(owners >= 1, "need at least one owner");
        ShardedQueue {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            lens: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            pending: Mutex::new(0),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
            cursors: (0..owners).map(|_| Mutex::new(0)).collect(),
            owned_of: (0..owners)
                .map(|o| (0..shards).filter(|s| s % owners == o).collect())
                .collect(),
            foreign_of: (0..owners)
                .map(|o| (0..shards).filter(|s| s % owners != o).collect())
                .collect(),
            owners,
        }
    }

    fn shard_of(&self, sig: PatternSignature) -> usize {
        (sig.0 % self.shards.len() as u64) as usize
    }

    /// Enqueue a job.  After [`close`](Self::close) the job is handed
    /// back (`Err`) so the caller can complete its sink with a shutdown
    /// error instead of losing it.
    pub(crate) fn push(&self, job: QueuedJob) -> Result<(), QueuedJob> {
        if self.closed.load(Ordering::Acquire) {
            return Err(job);
        }
        let shard = self.shard_of(job.sig);
        // The pending increment happens while the shard lock is held:
        // a popper that drains this job from the shard is then guaranteed
        // to observe its increment too, so the counter can never go
        // negative when a batch coalesces a just-inserted job.
        let mut q = self.shards[shard].lock().unwrap_or_else(|p| p.into_inner());
        q.push_back(job);
        self.lens[shard].fetch_add(1, Ordering::Relaxed);
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        *pending += 1;
        drop(pending);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Drain one coalesced batch from `shard` if it is non-empty: the
    /// oldest job plus every other job of the same signature in the
    /// shard's FIFO, up to `max_batch` total.
    fn drain_shard(&self, shard: usize, max_batch: usize) -> Option<Vec<QueuedJob>> {
        let mut q = self.shards[shard].lock().unwrap_or_else(|p| p.into_inner());
        let first = q.pop_front()?;
        let sig = first.sig;
        let mut batch = vec![first];
        if max_batch > 1 {
            // Coalesce same-signature jobs wherever they sit in this
            // shard's FIFO; other signatures keep their order.
            let mut rest = VecDeque::with_capacity(q.len());
            while let Some(job) = q.pop_front() {
                if batch.len() < max_batch && job.sig == sig {
                    batch.push(job);
                } else {
                    rest.push_back(job);
                }
            }
            *q = rest;
        }
        self.lens[shard].fetch_sub(batch.len(), Ordering::Relaxed);
        // Settle the counter before releasing the shard so a concurrent
        // push to this shard (which orders its increment after our drain)
        // still sees consistent state.
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        *pending -= batch.len();
        drop(pending);
        drop(q);
        Some(batch)
    }

    /// Block until `owner` can pop a batch (or the queue is closed and
    /// drained — then `None`).
    ///
    /// Owned shards are scanned first, round-robin from the owner's
    /// cursor.  When they are all empty but jobs remain queued, the owner
    /// *steals* one batch from the longest foreign shard (`stolen: true`).
    pub(crate) fn pop_batch_for(&self, owner: usize, max_batch: usize) -> Option<Pop> {
        assert!(max_batch >= 1);
        assert!(owner < self.owners, "unknown owner {owner}");
        let owned = &self.owned_of[owner];
        let foreign = &self.foreign_of[owner];
        loop {
            {
                let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if *pending > 0 {
                        break;
                    }
                    if self.closed.load(Ordering::Acquire) {
                        return None;
                    }
                    pending = self.cv.wait(pending).unwrap_or_else(|p| p.into_inner());
                }
            }
            // Own shards first, round-robin so no owned class starves.
            if !owned.is_empty() {
                let start = {
                    let mut cur = self.cursors[owner]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner());
                    let s = *cur;
                    *cur = (*cur + 1) % owned.len();
                    s
                };
                for k in 0..owned.len() {
                    let shard = owned[(start + k) % owned.len()];
                    if let Some(jobs) = self.drain_shard(shard, max_batch) {
                        return Some(Pop {
                            jobs,
                            stolen: false,
                        });
                    }
                }
            }
            // Own shards drained: steal from the most overloaded peer
            // shard.  Lengths are racy hints; the drain itself re-checks
            // under the shard lock, and a missed steal just loops.  Pick
            // the current longest shard each attempt (no allocation on
            // this hot path); a failed drain updates the hint, so the
            // bounded retry loop converges.
            for _ in 0..foreign.len() {
                let victim = foreign
                    .iter()
                    .copied()
                    .max_by_key(|&s| self.lens[s].load(Ordering::Relaxed));
                let Some(shard) = victim else { break };
                if self.lens[shard].load(Ordering::Relaxed) == 0 {
                    break; // longest shard empty: nothing left to steal
                }
                if let Some(jobs) = self.drain_shard(shard, max_batch) {
                    return Some(Pop { jobs, stolen: true });
                }
            }
            // Raced with other poppers that drained every shard between
            // our counter read and the scan; go back to waiting.
        }
    }

    /// Close the queue: rejects new pushes and wakes every dispatcher so
    /// they can drain what remains and exit.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _g = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        self.cv.notify_all();
    }

    /// Jobs currently queued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        *self.pending.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobBody, JobOutput, JobResult, JobState};
    use smartapps_reductions::Scheme;
    use smartapps_workloads::pattern::AccessPattern;
    use std::sync::Arc;
    use std::time::Duration;

    fn job(sig: u64) -> QueuedJob {
        let pattern = Arc::new(AccessPattern::from_iters(4, &[vec![0u32, 1]]));
        QueuedJob {
            spec: JobSpec {
                pattern,
                body: JobBody::I64(Arc::new(|_i, _r| 1)),
                threads: None,
                lw_feasible: false,
                uniform_body: false,
            },
            sig: PatternSignature(sig),
            sink: CompletionSink::Handle(JobState::new()),
            submitted_at: Instant::now(),
        }
    }

    /// Single-owner pop, as the old single-dispatcher runtime did it.
    fn pop(q: &ShardedQueue, max_batch: usize) -> Option<Vec<QueuedJob>> {
        q.pop_batch_for(0, max_batch).map(|p| {
            assert!(!p.stolen, "single owner can never steal");
            p.jobs
        })
    }

    #[test]
    fn coalesces_same_signature_within_shard() {
        let q = ShardedQueue::new(4, 1);
        for sig in [8u64, 8, 12, 8, 8] {
            assert!(q.push(job(sig)).is_ok());
        }
        // Shard 0 holds sigs 8 (x4) and 12 (x1); first pop batches all 8s.
        let batch = pop(&q, 16).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().all(|j| j.sig == PatternSignature(8)));
        let batch = pop(&q, 16).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].sig, PatternSignature(12));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let q = ShardedQueue::new(2, 1);
        for _ in 0..5 {
            assert!(q.push(job(6)).is_ok());
        }
        assert_eq!(pop(&q, 2).unwrap().len(), 2);
        assert_eq!(pop(&q, 2).unwrap().len(), 2);
        assert_eq!(pop(&q, 2).unwrap().len(), 1);
    }

    #[test]
    fn round_robin_across_shards() {
        let q = ShardedQueue::new(2, 1);
        assert!(q.push(job(0)).is_ok()); // shard 0
        assert!(q.push(job(1)).is_ok()); // shard 1
        assert!(q.push(job(2)).is_ok()); // shard 0
        let sigs: Vec<u64> = (0..3).map(|_| pop(&q, 1).unwrap()[0].sig.0).collect();
        // Each shard gets a turn before shard 0 is revisited.
        assert_eq!(sigs, vec![0, 1, 2]);
    }

    #[test]
    fn owners_prefer_their_own_shards() {
        let q = ShardedQueue::new(4, 2);
        assert!(q.push(job(0)).is_ok()); // shard 0 → owner 0
        assert!(q.push(job(1)).is_ok()); // shard 1 → owner 1
        let p0 = q.pop_batch_for(0, 4).unwrap();
        assert!(!p0.stolen);
        assert_eq!(p0.jobs[0].sig.0, 0);
        let p1 = q.pop_batch_for(1, 4).unwrap();
        assert!(!p1.stolen);
        assert_eq!(p1.jobs[0].sig.0, 1);
    }

    #[test]
    fn owner_with_empty_shards_steals_the_longest_foreign_shard() {
        let q = ShardedQueue::new(4, 2);
        // Owner 0 owns shards 0 and 2; owner 1 owns 1 and 3.  Flood
        // shard 2 and put one job on shard 0 — owner 1 has nothing of its
        // own and must steal, picking the longer shard 2 first.
        assert!(q.push(job(0)).is_ok());
        for _ in 0..3 {
            assert!(q.push(job(2)).is_ok());
        }
        let p = q.pop_batch_for(1, 16).unwrap();
        assert!(p.stolen, "foreign shard pop must count as a steal");
        assert_eq!(p.jobs.len(), 3, "steal takes the overloaded shard");
        assert!(p.jobs.iter().all(|j| j.sig.0 == 2));
        // The remaining job is still owner 0's to take, unstolen.
        let p = q.pop_batch_for(0, 16).unwrap();
        assert!(!p.stolen);
        assert_eq!(p.jobs[0].sig.0, 0);
    }

    #[test]
    fn steal_happens_only_when_own_shards_drain() {
        let q = ShardedQueue::new(4, 2);
        assert!(q.push(job(1)).is_ok()); // owner 1's own shard
        assert!(q.push(job(0)).is_ok()); // owner 0's shard
        let p = q.pop_batch_for(1, 4).unwrap();
        assert!(!p.stolen, "own work must win over a steal");
        assert_eq!(p.jobs[0].sig.0, 1);
        let p = q.pop_batch_for(1, 4).unwrap();
        assert!(p.stolen, "now only foreign work remains");
        assert_eq!(p.jobs[0].sig.0, 0);
    }

    #[test]
    fn close_rejects_pushes_and_unblocks_pop() {
        let q = Arc::new(ShardedQueue::new(2, 2));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_batch_for(1, 4));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(t.join().unwrap().is_none());
        assert!(q.push(job(0)).is_err());
    }

    #[test]
    fn close_still_drains_queued_jobs() {
        let q = ShardedQueue::new(2, 1);
        assert!(q.push(job(0)).is_ok());
        assert!(q.push(job(1)).is_ok());
        q.close();
        assert!(pop(&q, 4).is_some());
        assert!(pop(&q, 4).is_some());
        assert!(q.pop_batch_for(0, 4).is_none());
    }

    #[test]
    fn more_owners_than_shards_still_drain_by_stealing() {
        // Owners 2 and 3 own no shard of a 2-shard queue; they must be
        // able to steal everything rather than deadlock.
        let q = ShardedQueue::new(2, 4);
        assert!(q.push(job(0)).is_ok());
        assert!(q.push(job(1)).is_ok());
        let p = q.pop_batch_for(3, 4).unwrap();
        assert!(p.stolen);
        let p = q.pop_batch_for(2, 4).unwrap();
        assert!(p.stolen);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn completing_a_popped_job_wakes_its_handle() {
        let q = ShardedQueue::new(1, 1);
        let j = job(3);
        let CompletionSink::Handle(state) = &j.sink else {
            unreachable!()
        };
        let handle = crate::job::JobHandle {
            state: state.clone(),
            signature: j.sig,
        };
        assert!(q.push(j).is_ok());
        let batch = pop(&q, 1).unwrap();
        batch[0].sink.complete(
            batch[0].sig,
            JobResult {
                output: JobOutput::I64(vec![]),
                scheme: Scheme::Seq,
                elapsed: Duration::ZERO,
                sim_cycles: None,
                profile_hit: false,
                batched_with: 0,
                fused_with: 0,
                error: None,
            },
        );
        assert!(handle.try_wait().is_some());
    }
}

//! Property tests for the completion subsystem's delivery contract:
//! under arbitrary interleavings of tagged submissions (valid, invalid,
//! and panicking) with consumer polls/waits/drains, the [`CompletionSet`]
//! delivers **exactly one** completion per token — none lost, none
//! duplicated — and clean results still match the sequential oracle.
//!
//! The consumer side races the dispatchers on purpose: polls interleave
//! with submissions, drains happen mid-storm, and the final sweep uses
//! `wait_any` until the set reports dry (`in_flight == 0`), which is
//! itself part of the contract under test.

use proptest::prelude::*;
use smartapps_runtime::{Completion, CompletionSet, JobErrorKind, JobSpec, Runtime, RuntimeConfig};
use smartapps_workloads::pattern::sequential_reduce_i64;
use smartapps_workloads::{contribution_i64, AccessPattern, Distribution, PatternSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// What one scripted step does: submit a job of some flavor, or consume.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit a clean job of workload class `0..CLASSES`.
    SubmitClean(usize),
    /// Submit a structurally invalid job (rejected before queueing).
    SubmitInvalid,
    /// Submit a job whose body panics.
    SubmitPanic(usize),
    /// Non-blocking poll.
    Poll,
    /// Drain everything currently queued.
    Drain,
    /// Bounded wait.
    WaitTimeout,
}

const CLASSES: usize = 3;

fn arb_op() -> impl Strategy<Value = Op> {
    // Submissions dominate (the vendored stand-in's `prop_oneof` has no
    // weights, so the bias is written out as repeated variants).
    prop_oneof![
        (0usize..CLASSES).prop_map(Op::SubmitClean),
        (0usize..CLASSES).prop_map(Op::SubmitClean),
        (0usize..CLASSES).prop_map(Op::SubmitClean),
        Just(Op::SubmitInvalid),
        (0usize..CLASSES).prop_map(Op::SubmitPanic),
        Just(Op::Poll),
        Just(Op::Poll),
        Just(Op::Drain),
        Just(Op::WaitTimeout),
    ]
}

fn class_pattern(class: usize) -> Arc<AccessPattern> {
    Arc::new(
        PatternSpec {
            num_elements: 300,
            iterations: 400,
            refs_per_iter: 2,
            coverage: 0.9,
            dist: Distribution::Uniform,
            seed: 7000 + class as u64,
        }
        .generate(),
    )
}

fn broken_pattern() -> Arc<AccessPattern> {
    Arc::new(AccessPattern {
        num_elements: 2,
        iter_ptr: vec![0, 1],
        indices: vec![9],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn completion_set_delivers_exactly_once_per_token(
        ops in proptest::collection::vec(arb_op(), 1..60),
        capacity in 1usize..64,
    ) {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            shards: 4,
            dispatchers: 2,
            ..RuntimeConfig::default()
        });
        let set = CompletionSet::with_capacity(capacity);
        let classes: Vec<Arc<AccessPattern>> = (0..CLASSES).map(class_pattern).collect();
        let oracles: Vec<Vec<i64>> = classes.iter().map(|p| sequential_reduce_i64(p)).collect();

        // token → (class, expect) bookkeeping for every submission.
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Expect { Value(usize), Rejected, Panic }
        let mut submitted: HashMap<u64, Expect> = HashMap::new();
        let mut received: HashMap<u64, Completion> = HashMap::new();
        let mut token = 0u64;

        let record = |c: Completion, received: &mut HashMap<u64, Completion>| {
            prop_assert!(
                received.insert(c.token, c.clone()).is_none(),
                "token {} delivered twice", c.token
            );
            Ok(())
        };

        for op in ops {
            match op {
                Op::SubmitClean(class) => {
                    submitted.insert(token, Expect::Value(class));
                    rt.submit_tagged(
                        JobSpec::i64(classes[class].clone(), |_i, r| contribution_i64(r)),
                        token,
                        &set,
                    );
                    token += 1;
                }
                Op::SubmitInvalid => {
                    submitted.insert(token, Expect::Rejected);
                    rt.submit_tagged(JobSpec::i64(broken_pattern(), |_i, _r| 1), token, &set);
                    token += 1;
                }
                Op::SubmitPanic(class) => {
                    submitted.insert(token, Expect::Panic);
                    rt.submit_tagged(
                        JobSpec::i64(classes[class].clone(), |_i, _r| panic!("prop poison")),
                        token,
                        &set,
                    );
                    token += 1;
                }
                Op::Poll => {
                    if let Some(c) = set.poll() {
                        record(c, &mut received)?;
                    }
                }
                Op::Drain => {
                    for c in set.drain() {
                        record(c, &mut received)?;
                    }
                }
                Op::WaitTimeout => {
                    if let Some(c) = set.wait_timeout(std::time::Duration::from_millis(5)) {
                        record(c, &mut received)?;
                    }
                }
            }
        }

        // Final sweep: wait_any must hand over every outstanding event
        // and then — and only then — report the set dry.
        while let Some(c) = set.wait_any() {
            record(c, &mut received)?;
        }
        prop_assert_eq!(set.in_flight(), 0);
        prop_assert_eq!(received.len(), submitted.len(), "lost or phantom completions");

        for (tok, expect) in &submitted {
            let c = &received[tok];
            match expect {
                Expect::Value(class) => {
                    prop_assert!(c.result.error.is_none(), "token {}: {:?}", tok, c.result.error);
                    prop_assert_eq!(c.result.output.as_i64().unwrap(), &oracles[*class][..]);
                }
                Expect::Rejected => {
                    prop_assert_eq!(
                        c.result.error.as_ref().map(|e| e.kind),
                        Some(JobErrorKind::Rejected)
                    );
                }
                Expect::Panic => {
                    prop_assert_eq!(
                        c.result.error.as_ref().map(|e| e.kind),
                        Some(JobErrorKind::Panic)
                    );
                }
            }
        }
        rt.shutdown();
    }

    #[test]
    fn mixed_sinks_each_deliver_exactly_once(
        jobs in 1usize..24,
        seed in 0u64..1000,
    ) {
        // The two delivery channels — handle and tagged queue — share the
        // dispatcher path; interleaved submissions must reach exactly
        // their own sink, exactly once.
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            shards: 4,
            dispatchers: 2,
            ..RuntimeConfig::default()
        });
        let set = CompletionSet::with_capacity(16);
        let pat = class_pattern((seed % CLASSES as u64) as usize);
        let oracle = sequential_reduce_i64(&pat);

        let mut handles = Vec::new();
        let mut tagged = Vec::new();
        for j in 0..jobs {
            if (seed as usize + j).is_multiple_of(2) {
                handles.push(rt.submit(JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r))));
            } else {
                rt.submit_tagged(
                    JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r)),
                    j as u64,
                    &set,
                );
                tagged.push(j as u64);
            }
        }
        for h in handles {
            let r = h.wait();
            prop_assert!(r.error.is_none());
            prop_assert_eq!(r.output.as_i64().unwrap(), &oracle[..]);
        }
        let mut seen = Vec::new();
        while let Some(c) = set.wait_any() {
            prop_assert!(c.result.error.is_none());
            prop_assert_eq!(c.result.output.as_i64().unwrap(), &oracle[..]);
            seen.push(c.token);
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, tagged, "tagged tokens delivered exactly once each");
        rt.shutdown();
    }
}

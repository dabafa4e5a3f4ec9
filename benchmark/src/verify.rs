//! The sequential oracle and the check of every reply against it:
//! checksums for acks, exact equality for i64 payloads, 1e-9 relative
//! for f64 (parallel schemes reorder float additions).

use smartapps_runtime::JobOutput;
use smartapps_server::{checksum, checksum_f64, DoneMsg, DoneOutcome, Payload};
use smartapps_workloads::{sequential_reduce, sequential_reduce_i64, AccessPattern};

pub const F64_REL_TOL: f64 = 1e-9;

/// What the oracle says a job's output is.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    I64(Vec<i64>),
    F64(Vec<f64>),
}

impl Expected {
    /// Oracle of the wire body `sum` over `pat`.
    pub fn sum_i64(pat: &AccessPattern) -> Expected {
        Expected::I64(sequential_reduce_i64(pat))
    }

    /// Oracle of the wire body `fsum` over `pat`.
    pub fn sum_f64(pat: &AccessPattern) -> Expected {
        Expected::F64(sequential_reduce(pat))
    }
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= F64_REL_TOL * want.abs().max(1.0)
}

fn f64_slices_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| close(g, w))
}

/// The checksum a correct ack carries, precomputed once per class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExpectedAck {
    I64 { len: usize, sum: i64 },
    F64 { len: usize, sum: f64 },
}

impl ExpectedAck {
    pub fn of(expected: &Expected) -> ExpectedAck {
        match expected {
            Expected::I64(v) => ExpectedAck::I64 {
                len: v.len(),
                sum: checksum(v),
            },
            Expected::F64(v) => ExpectedAck::F64 {
                len: v.len(),
                sum: checksum_f64(v),
            },
        }
    }

    /// Check an ack reply; `Err` says what was wrong.
    pub fn check(&self, done: &DoneMsg) -> Result<(), String> {
        let payload = match &done.outcome {
            DoneOutcome::Ok { payload, .. } => payload,
            DoneOutcome::Err { kind, message, .. } => {
                return Err(format!("token {} failed: {kind}: {message}", done.token))
            }
        };
        let ok = match (self, payload) {
            (ExpectedAck::I64 { len, sum }, Payload::Checksum { len: l, sum: s }) => {
                l == len && s == sum
            }
            (ExpectedAck::F64 { len, sum }, Payload::ChecksumF64 { len: l, sum: s }) => {
                // The sum of `len` values carries `len` rounding errors.
                l == len
                    && (s - sum).abs() <= F64_REL_TOL * sum.abs().max(1.0) * (*len as f64).sqrt()
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "token {}: ack {payload:?} does not match {self:?}",
                done.token
            ))
        }
    }
}

/// Check a full-payload reply against the oracle.
pub fn check_full(expected: &Expected, done: &DoneMsg) -> Result<(), String> {
    let payload = match &done.outcome {
        DoneOutcome::Ok { payload, .. } => payload,
        DoneOutcome::Err { kind, message, .. } => {
            return Err(format!("token {} failed: {kind}: {message}", done.token))
        }
    };
    let ok = match (expected, payload) {
        (Expected::I64(want), Payload::Full(got)) => got == want,
        (Expected::F64(want), Payload::FullF64(got)) => f64_slices_close(got, want),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "token {}: full payload does not match the oracle",
            done.token
        ))
    }
}

/// Check an embedded job's output array against the oracle.
pub fn check_output(expected: &Expected, got: &JobOutput) -> Result<(), String> {
    let ok = match (expected, got) {
        (Expected::I64(want), JobOutput::I64(got)) => got == want,
        (Expected::F64(want), JobOutput::F64(got)) => f64_slices_close(got, want),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err("output does not match the sequential oracle".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(token: u64, payload: Payload) -> DoneMsg {
        DoneMsg {
            token,
            outcome: DoneOutcome::Ok {
                scheme: "rep".into(),
                elapsed_ns: 1,
                profile_hit: true,
                fused_with: 0,
                batched_with: 0,
                payload,
            },
        }
    }

    #[test]
    fn a_corrupted_checksum_is_caught() {
        let pat = AccessPattern::from_iters(4, &[vec![0, 1], vec![1, 3]]);
        let good = ExpectedAck::of(&Expected::sum_i64(&pat));
        let ExpectedAck::I64 { len, sum } = good else {
            panic!("i64 oracle")
        };
        assert!(good.check(&ack(1, Payload::Checksum { len, sum })).is_ok());
        let corrupted = ExpectedAck::I64 { len, sum: sum ^ 1 };
        assert!(corrupted
            .check(&ack(1, Payload::Checksum { len, sum }))
            .is_err());
        // The wrong payload flavour is wrong too, and an error reply fails.
        assert!(good
            .check(&ack(1, Payload::ChecksumF64 { len, sum: 0.0 }))
            .is_err());
        let failed = DoneMsg {
            token: 1,
            outcome: DoneOutcome::Err {
                kind: "rejected".into(),
                signature: 0,
                message: "no".into(),
            },
        };
        assert!(good.check(&failed).is_err());
    }

    #[test]
    fn f64_payloads_compare_within_the_tolerance() {
        let pat = AccessPattern::from_iters(3, &[vec![0, 1], vec![1, 2], vec![0]]);
        let want = Expected::sum_f64(&pat);
        let Expected::F64(v) = &want else { panic!() };
        let mut near = v.clone();
        near[1] *= 1.0 + 1e-12;
        assert!(check_full(&want, &ack(2, Payload::FullF64(near.clone()))).is_ok());
        assert!(check_output(&want, &JobOutput::F64(near.clone())).is_ok());
        near[1] *= 1.0 + 1e-6;
        assert!(check_full(&want, &ack(2, Payload::FullF64(near.clone()))).is_err());
        assert!(check_output(&want, &JobOutput::F64(near)).is_err());
        assert!(check_output(&want, &JobOutput::I64(vec![0; 3])).is_err());
    }
}

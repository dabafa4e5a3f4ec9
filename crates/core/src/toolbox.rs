//! The ToolBox (Figure 2): performance evaluator, predictor, optimizer and
//! configurer.
//!
//! * the **Performance Evaluator** is the calibrator's residual — a
//!   sample measured over the estimate in force before it
//!   ([`Calibrator::observe`](crate::calibrate::Calibrator::observe));
//! * the **predictor** is the [`Calibrator`](crate::calibrate::Calibrator):
//!   the analytic model corrected by measured samples, keyed by the
//!   functioning domain ([`DomainKey`]) defined here;
//! * the **optimizer** is the adaptation policy [`step`]: one pure
//!   decision over a priced candidate table that keeps, explores,
//!   re-decides or fuses, and judges each sample for drift.  The runtime's
//!   dispatcher and the library's [`AdaptiveReduction`](crate::adaptive::AdaptiveReduction)
//!   both call it;
//! * the **Configurer** (`configurer`) applies a configuration.

use crate::provenance::{CandidateCost, DecisionRecord, GateVerdict};
use serde::{Deserialize, Serialize};
use smartapps_reductions::Scheme;

/// A coarse digest of a pattern's characteristics: the "functioning
/// domain" an application instance falls into.  Instances in the same
/// domain share optimization decisions and database entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DomainKey {
    /// log2 bucket of the array dimension.
    pub dim_bucket: u8,
    /// log2 bucket of references per element (contention).
    pub reuse_bucket: u8,
    /// Sparsity decile (0-10).
    pub sparsity_decile: u8,
    /// Rounded mobility (distinct elements per iteration).
    pub mo: u8,
}

impl DomainKey {
    /// Pack the four buckets into one `u32`
    /// (`dim | reuse | sparsity | mo`, big-endian by field) — the stable
    /// encoding the runtime's profile store uses for `corr` records.
    ///
    /// ```
    /// use smartapps_core::toolbox::DomainKey;
    /// let d = DomainKey { dim_bucket: 12, reuse_bucket: 4, sparsity_decile: 10, mo: 2 };
    /// assert_eq!(DomainKey::unpack(d.pack()), d);
    /// assert_eq!(d.pack(), 0x0c040a02);
    /// ```
    pub fn pack(&self) -> u32 {
        u32::from_be_bytes([
            self.dim_bucket,
            self.reuse_bucket,
            self.sparsity_decile,
            self.mo,
        ])
    }

    /// Inverse of [`pack`](DomainKey::pack).
    pub fn unpack(bits: u32) -> Self {
        let [dim_bucket, reuse_bucket, sparsity_decile, mo] = bits.to_be_bytes();
        DomainKey {
            dim_bucket,
            reuse_bucket,
            sparsity_decile,
            mo,
        }
    }

    /// Compute the domain of a characterization.
    pub fn of(chars: &smartapps_workloads::PatternChars) -> Self {
        let log2b = |x: f64| -> u8 {
            if x <= 1.0 {
                0
            } else {
                (x.log2().round() as i64).clamp(0, 255) as u8
            }
        };
        DomainKey {
            dim_bucket: log2b(chars.num_elements as f64),
            reuse_bucket: log2b(if chars.distinct > 0 {
                chars.references as f64 / chars.distinct as f64
            } else {
                0.0
            }),
            sparsity_decile: (chars.sp * 10.0).round().clamp(0.0, 10.0) as u8,
            mo: chars.mo.round().clamp(0.0, 255.0) as u8,
        }
    }
}

/// What one invocation of the adaptive loop did to its decision — the
/// "nested multi-level adaptive feedback loop that ... based on the
/// magnitude of deviation from expected performance, compensates with
/// various actions", in increasing order of disruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Adaptation {
    /// Performance on target: keep everything.
    Keep,
    /// The sample read as drift ([`Effects::marks_due`]): the next
    /// invocation rechecks the decision with learned corrections
    /// (possibly switching scheme) — "small adaption (tuning)".
    Redecide,
    /// The pattern changed phase: this invocation re-characterized it
    /// from scratch — "large adaption (failure, phase change)".
    Recharacterize,
}

/// The calibrator's residual (measured over its pre-sample estimate)
/// beyond which a judged sample is suspect of drift (a phase change): it
/// marks the decided state due, and the next decision rechecks it.  Only
/// a recheck that displaces the state evicts it, so a lone outlier costs
/// one pricing, never an entry.
pub const DRIFT_EVICT_RATIO: f64 = 4.0;

/// Decided states with at least this many runs are judged: their samples
/// are checked for drift (the runtime pays an inspection to learn them).
pub const DRIFT_MIN_RUNS: u64 = 3;

/// Hysteresis of the recheck: a decided scheme is displaced only when
/// the corrected challenger undercuts it by at least this factor, so
/// photo-finish classes do not flip-flop between rechecks.
pub const RECHECK_MARGIN: f64 = 0.85;

/// Calibration confidence at which a scheme counts as measured (four
/// samples): exploration targets schemes below it, and only a challenger
/// at it may displace a decided scheme or fuse outside `hash`.
pub const MEASURED_CONFIDENCE: f64 = 0.5;

/// The decided state a [`step`] starts from: a runtime profile entry, or
/// the adaptive loop's current decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The decided scheme.
    pub scheme: Scheme,
    /// Executions recorded under it.
    pub runs: u64,
    /// A drift-suspect sample marked it for a recheck.
    pub due: bool,
}

/// What a [`step`] reads besides the priced table (whose rows carry the
/// evidence, [`CandidateCost::confidence`]).  `split` and `probe_due`
/// cost a pricing or a tick of a shared cadence, so the step asks for
/// each ([`Ask`]) only when it reaches it.
#[derive(Debug, Clone, Default)]
pub struct View {
    /// Fanout of the decision (1: a single-job decision).
    pub k: usize,
    /// A scheme the jobs cannot run (a masked re-decide).
    pub mask: Option<Scheme>,
    /// The class's decided state, if it has one.
    pub entry: Option<Entry>,
    /// Whether this single-job decision takes the exploration slot.
    pub explore_due: bool,
    /// Recheck cadence in entry runs (0: only when due).
    pub recheck_every: usize,
    /// The cheapest software split (K = 1) cost of the class.
    pub split: Option<f64>,
    /// Whether this untrusted, unmeasured group takes the probe slot.
    pub probe_due: Option<bool>,
}

/// An input a [`step`] needs before it can finish.  The caller answers it
/// and steps again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// Price the candidates at the view's fanout and mask.
    Table,
    /// Price the class's [`View::split`] cost.
    Split,
    /// Tick the fused-probe cadence ([`View::probe_due`]).
    Probe,
}

/// What the caller applies once jobs run a [`step`]'s choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// The choice keeps the entry's scheme (a profile hit): neither
    /// explored nor displaced, its samples feed the entry.
    pub kept: bool,
    /// Count an exploration: the choice is a calibration sample, not the
    /// class's best-known scheme.
    pub explored: bool,
    /// Evict the entry: a recheck displaced it.
    pub evict: bool,
    /// Clear the entry's due mark: a recheck kept it.
    pub clear_due: bool,
    /// Count a fused probe.
    pub probe: bool,
    /// The choice's samples are judged for drift ([`Effects::marks_due`]).
    pub judged: bool,
    /// The fusion gate's verdict (K ≥ 2; not consulted otherwise).
    pub fusion: GateVerdict,
}

impl Effects {
    /// The drift judgement: a judged sample whose residual exceeds
    /// [`DRIFT_EVICT_RATIO`] marks the entry due.
    pub fn marks_due(&self, residual: Option<f64>) -> bool {
        self.judged && residual.is_some_and(|r| r > DRIFT_EVICT_RATIO)
    }
}

/// The adaptation policy, once: one decision over (fanout `k`, feasibility
/// `mask`) for a class, read from a priced candidate `table`
/// ([`Calibrator::explain`](crate::calibrate::Calibrator::explain), ranked
/// order).  Pure: it takes no lock and reads no clock or counter — what
/// it needs beyond `view` and `table` it asks for ([`Ask`]).  The choice
/// is the scheme the jobs run, `None` when the fusion gate declines.
///
/// * **K = 1, no mask** — a decided entry with nothing due is kept with
///   no table.  Otherwise the table's best runs, with two detours:
///   **exploration** — when the slot is due, the best-ranked feasible
///   software scheme not [measured](MEASURED_CONFIDENCE) in the domain,
///   never the scheme that would run anyway; and **recheck** — when the
///   entry is due or its runs hit the `recheck_every` cadence, a measured
///   best that undercuts the entry's scheme by [`RECHECK_MARGIN`]
///   displaces it (evict), else the entry is kept (clear due).  A kept
///   entry with [`DRIFT_MIN_RUNS`] runs is judged.
/// * **K ≥ 2** — the fusion gate.  The group fuses when the table's best
///   software scheme is `hash` (analytically validated), or when fused
///   evidence backs it and the fused cost beats K split traversals, or,
///   failing both, when the probe slot is due.
/// * **A mask** — the table's best with the masked scheme infeasible; no
///   entry, no detour.
pub fn step(view: &View, table: Option<&DecisionRecord>) -> Result<(Option<Scheme>, Effects), Ask> {
    let single = view.k == 1 && view.mask.is_none();
    let entry = view.entry.filter(|_| single);
    let explore = single && view.explore_due;
    let cadence =
        |runs: u64| view.recheck_every > 0 && runs.is_multiple_of(view.recheck_every as u64);
    let recheck = entry.is_some_and(|e| e.due || cadence(e.runs));
    let measured = |c: &CandidateCost| c.confidence >= MEASURED_CONFIDENCE;
    let mut fx = Effects::default();
    let mut scheme = entry.map(|e| e.scheme);
    if scheme.is_none() || explore || recheck {
        let table = table.ok_or(Ask::Table)?;
        let rows = table.candidates.iter();
        if view.k > 1 {
            // The fusion gate.
            let best = rows.clone().find(|c| c.feasible && c.scheme.is_software());
            let k = view.k as f64;
            fx.fusion = match best {
                None => GateVerdict::declined("no-feasible-scheme"),
                Some(b) if b.scheme == Scheme::Hash => GateVerdict::fired("hash-trusted"),
                Some(b) if measured(b) && b.corrected < k * view.split.ok_or(Ask::Split)? => {
                    GateVerdict::fired("measured-evidence")
                }
                Some(_) if view.probe_due.ok_or(Ask::Probe)? => {
                    fx.probe = true;
                    GateVerdict::fired("probe")
                }
                Some(_) => GateVerdict::declined("no-fused-evidence"),
            };
            return Ok((best.map(|b| b.scheme).filter(|_| fx.fusion.fired), fx));
        }
        let best = table.winner;
        let would_run = scheme.unwrap_or(best);
        let target = rows.clone().find(|c| {
            explore && c.feasible && c.scheme.is_software() && c.scheme != would_run && !measured(c)
        });
        let rival = rows.clone().find(|c| c.scheme == best && measured(c));
        fx.explored = target.is_some();
        fx.evict = !fx.explored
            && recheck
            && best != would_run
            && rival.is_some_and(|c| {
                c.corrected < RECHECK_MARGIN * table.cheapest(|c| c.scheme == would_run)
            });
        scheme = Some(target.map_or(if fx.evict { best } else { would_run }, |c| c.scheme));
    }
    if let Some(e) = entry.filter(|_| !fx.explored && !fx.evict) {
        fx.kept = true;
        fx.judged = e.runs >= DRIFT_MIN_RUNS;
        fx.clear_due = e.due;
    }
    Ok((scheme, fx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::FeatureVector;
    use smartapps_workloads::{Distribution, PatternChars, PatternSpec};
    use Scheme::*;

    fn chars() -> PatternChars {
        PatternChars::measure(
            &PatternSpec {
                num_elements: 1024,
                iterations: 4096,
                refs_per_iter: 2,
                coverage: 1.0,
                dist: Distribution::Uniform,
                seed: 1,
            }
            .generate(),
        )
    }

    #[test]
    fn domain_key_buckets_similar_instances_together() {
        let a = DomainKey::of(&chars());
        let b = DomainKey::of(&chars());
        assert_eq!(a, b);
        // A 64x larger array lands in a different domain.
        let big = PatternChars::measure(
            &PatternSpec {
                num_elements: 65536,
                iterations: 4096,
                refs_per_iter: 2,
                coverage: 1.0,
                dist: Distribution::Uniform,
                seed: 1,
            }
            .generate(),
        );
        assert_ne!(DomainKey::of(&big), a);
    }

    /// A priced table from `(scheme, corrected cost, confidence)` rows,
    /// ranked as [`Calibrator::explain`] ranks them; an infinite cost is
    /// an infeasible row.
    fn table(rows: &[(Scheme, f64, f64)]) -> DecisionRecord {
        let mut candidates: Vec<_> = (rows.iter())
            .map(|&(scheme, cost, confidence)| CandidateCost {
                scheme,
                analytic: cost,
                corrected: cost,
                feasible: cost.is_finite(),
                confidence,
            })
            .collect();
        candidates.sort_by(|a, b| a.corrected.total_cmp(&b.corrected));
        let winner = candidates
            .iter()
            .find(|c| c.feasible)
            .map_or(Rep, |c| c.scheme);
        DecisionRecord {
            signature: 0,
            domain: DomainKey::default(),
            features: FeatureVector::default(),
            candidates,
            winner,
            backend: "pending",
            explored: false,
            rechecked: false,
            fusion: GateVerdict::not_consulted(),
            simplify: GateVerdict::not_consulted(),
            quarantine: GateVerdict::not_consulted(),
            flips: 0,
        }
    }

    /// Run one row of a step table, `"<setup> => <outcome> | <asks>"`.
    /// The setup's words build the view (`hit:<scheme>:<runs>` or
    /// `due:<scheme>:<runs>` for the entry — none is a miss —, `k:<K>`,
    /// `mask:<scheme>`, `every:<recheck cadence>`, `explore`), the table
    /// (`<scheme>=<cost>`, `inf` infeasible) and the answers to the
    /// step's asks: `measured:<schemes>` have evidence 0.5, every other
    /// scheme 0.45 (both sides of the gate), `split:<cost>`, `probe`.
    /// The outcome is the scheme run (or `declined`), the effects set
    /// and a fusion verdict; the asks are those the step made, in order.
    fn check(rows: &[&str]) {
        for row in rows {
            let (setup, want) = row.split_once(" => ").unwrap();
            assert_eq!(run(setup), want, "{setup}");
        }
    }

    fn run(setup: &str) -> String {
        let scheme = |s: &str| Scheme::from_abbrev(s).unwrap();
        let mut view = View {
            k: 1,
            ..View::default()
        };
        let (mut rows, mut measured, mut split, mut probe) = (vec![], vec![], 0.0, false);
        for word in setup.split_whitespace() {
            let (key, val) = word.split_once(':').unwrap_or((word, ""));
            match key {
                "hit" | "due" => {
                    let (s, runs) = val.split_once(':').unwrap();
                    let (scheme, runs, due) = (scheme(s), runs.parse().unwrap(), key == "due");
                    view.entry = Some(Entry { scheme, runs, due });
                }
                "k" => view.k = val.parse().unwrap(),
                "mask" => view.mask = Some(scheme(val)),
                "every" => view.recheck_every = val.parse().unwrap(),
                "explore" => view.explore_due = true,
                "measured" => measured = val.split(',').map(scheme).collect(),
                "split" => split = val.parse().unwrap(),
                "probe" => probe = true,
                _ => {
                    let (s, cost) = word.split_once('=').unwrap();
                    rows.push((scheme(s), cost.parse().unwrap()));
                }
            }
        }
        let conf = |s| if measured.contains(&s) { 0.5 } else { 0.45 };
        let rows: Vec<_> = rows
            .into_iter()
            .map(|(s, cost)| (s, cost, conf(s)))
            .collect();
        let priced = table(&rows);
        let (mut table, mut asks) = (None, vec![]);
        let (chosen, fx) = loop {
            let ask = match step(&view, table.as_ref()) {
                Ok(done) => break done,
                Err(ask) => ask,
            };
            asks.push(format!("{ask:?}"));
            match ask {
                Ask::Table => table = Some(priced.clone()),
                Ask::Split => view.split = Some(split),
                Ask::Probe => view.probe_due = Some(probe),
            }
        };
        let mut out = chosen.map_or("declined", Scheme::abbrev).to_string();
        let flags = [
            (fx.kept, "kept"),
            (fx.explored, "explored"),
            (fx.evict, "evict"),
            (fx.clear_due, "clear-due"),
            (fx.probe, "probe"),
            (fx.judged, "judged"),
        ];
        for (_, flag) in flags.iter().filter(|f| f.0) {
            out += &format!(" {flag}");
        }
        if fx.fusion != GateVerdict::not_consulted() {
            let verdict = if fx.fusion.fired { "fired" } else { "declined" };
            out += &format!(" {verdict}:{}", fx.fusion.reason);
        }
        format!("{out} | {}", asks.join(" ")).trim_end().to_string()
    }

    #[test]
    fn single_job_decisions() {
        check(&[
            // A miss prices once and takes the table's best.
            "ll=1 rep=2 => ll | Table",
            // A hit with nothing due prices nothing; from DRIFT_MIN_RUNS
            // runs on, its samples are judged.
            "hit:rep:2 ll=1 => rep kept |",
            "hit:rep:3 ll=1 => rep kept judged |",
            // The cadence rechecks on the entry's runs, and only then.
            "hit:rep:4 every:4 ll=1 rep=2 => rep kept judged | Table",
            "hit:rep:5 every:4 ll=1 rep=2 => rep kept judged |",
            // `due` overrides the cadence: a measured rival past the
            // margin displaces the entry ...
            "due:rep:5 ll=0.84 rep=1 measured:ll => ll evict | Table",
            // ... one at or inside it (a 10 % alternation, either way
            // round) leaves it kept, no longer due ...
            "due:rep:5 ll=0.85 rep=1 measured:ll => rep kept clear-due judged | Table",
            "due:rep:5 every:1 ll=0.9 rep=1 measured:ll => rep kept clear-due judged | Table",
            "hit:rep:6 every:1 rep=0.9 ll=1 measured:ll => rep kept judged | Table",
            // ... and so does a rival ten times cheaper without evidence
            // in the domain (the evidence gate).
            "due:rep:5 ll=0.1 rep=1 => rep kept clear-due judged | Table",
            // Exploration takes the best-ranked feasible, unmeasured
            // software scheme, never the one that would run anyway (the
            // entry's, or on a miss the table's best) ...
            "hit:ll:2 explore ll=1 lw=inf rep=2 sel=3 measured:rep => sel explored | Table",
            "explore pclr=0.5 ll=1 rep=2 => ll explored | Table",
            "hit:rep:2 explore ll=1 rep=2 => ll explored | Table",
            // ... preempts a due recheck, which stays due ...
            "due:rep:5 explore ll=0.1 rep=1 sel=3 measured:ll => sel explored | Table",
            // ... and with every rival measured, the slot runs normally.
            "hit:ll:2 explore ll=1 rep=2 measured:rep => ll kept | Table",
            // A masked re-decide takes the table's best (the mask is
            // infeasible in it): no entry, no exploration, no recheck.
            "mask:pclr due:rep:9 every:1 explore pclr=inf ll=1 rep=2 => ll | Table",
        ]);
    }

    #[test]
    fn fusion_gate_decisions() {
        // Each group carries a due entry and a due exploration slot; the
        // gate ignores both.
        check(&[
            // `hash` is trusted at K >= 2 (a cheaper backend row never
            // fuses): no split priced, no probe slot taken.
            "k:4 due:rep:9 explore probe pclr=1 hash=8 rep=9 => hash fired:hash-trusted | Table",
            // Fused evidence and fused < K x split: fused, no probe slot.
            "k:4 rep=7.9 hash=9 measured:rep split:2 => rep fired:measured-evidence | Table Split",
            // Fused >= K x split, or no evidence (then no split is
            // priced): the probe slot decides.
            "k:4 rep=8 hash=9 measured:rep split:2 => declined declined:no-fused-evidence | Table Split Probe",
            "k:4 rep=1 hash=9 probe => rep probe fired:probe | Table Probe",
            "k:4 pclr=1 lw=inf probe => declined declined:no-feasible-scheme | Table",
        ]);
    }

    #[test]
    fn a_judged_sample_past_the_drift_ratio_marks_due() {
        let judged = Effects {
            judged: true,
            ..Effects::default()
        };
        assert!(judged.marks_due(Some(4.01)));
        assert!(!judged.marks_due(Some(DRIFT_EVICT_RATIO)));
        assert!(!judged.marks_due(None));
        assert!(!Effects::default().marks_due(Some(31.0)));
    }
}

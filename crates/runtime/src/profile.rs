//! The cross-run profile store: pattern signature → best known scheme +
//! calibration, surviving process restarts.
//!
//! The paper's ToolBox keeps "data bases specific to the application and
//! the system" so optimization decisions improve across runs; the seed
//! threw that state away at process exit.  [`ProfileStore`] persists it:
//! a restarted service that sees a known workload class skips the
//! decision and goes straight to the remembered scheme.  The entry keeps
//! no cost estimate: the calibrator learns the class's cost, so a hit the
//! dispatcher judges for drift pays its allocation's inspection once.
//!
//! The on-disk format is a deliberately simple line-oriented text file —
//! the workspace's serde is a no-op stand-in (see `vendor/serde`), and a
//! format this small is easier to audit than a binary blob.  Three record
//! kinds share the file (each line self-identifies; a reader that knows
//! only one kind skips the others as malformed, which the lossy parser
//! tolerates by design):
//!
//! ```text
//! smartapps-profile-v1
//! <sig:016x> <scheme> <threads> <runs> <best_ns>
//! corr <scheme|*> <domain:08x|*> <s|f> <ns_per_unit:e> <updates>
//! simp <sig:016x> <0|1>
//! cyc <cycle_ns:e> <updates>
//! ```
//!
//! An entry line of the older six-field format carries a per-entry
//! ns-per-reference average between `<threads>` and `<runs>`; the parser
//! reads such lines and drops that field.
//! `corr` records persist the online calibrator's learned state (see
//! `smartapps_core::calibrate` and `docs/MODEL.md`): `*` in the scheme
//! column is the global ns-per-unit scale, `*` in the domain column a
//! per-scheme estimate, and `s`/`f` marks split vs fused execution.
//! `simp` records persist the simplification pass's *structural*
//! recognizer verdict per workload class (`docs/MODEL.md`,
//! "Simplification pass"): a `0` short-circuits recognition on sight —
//! the class provably lacks scan structure, so declared-uniform jobs
//! skip the row walk — while a `1` (or no record) still requires the
//! full structural walk before any rewrite, so a signature collision can
//! downgrade performance but never correctness.  `cyc` persists the
//! fitted PCLR cycle→nanosecond conversion.

use crate::job::PatternSignature;
use smartapps_core::calibrate::{CorrLevel, Correction};
use smartapps_core::toolbox::{DomainKey, Entry};
use smartapps_reductions::Scheme;
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Duration;

/// Magic first line of the on-disk format.
const HEADER: &str = "smartapps-profile-v1";

/// What the store remembers about one workload class.  How long the class
/// takes is the calibrator's to learn, not the entry's.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Best known scheme for the class.
    pub scheme: Scheme,
    /// SPMD width the scheme was measured at.
    pub threads: usize,
    /// Executions folded into this entry.
    pub runs: u64,
    /// Fastest observed execution, nanoseconds.
    pub best_ns: u64,
    /// A sample of the class measured far over the calibrator's estimate:
    /// the next decision of the class rechecks the entry (transient —
    /// never persisted).
    pub(crate) due: bool,
}

impl ProfileEntry {
    /// The adaptation policy's view of the entry.
    pub(crate) fn policy(&self) -> Entry {
        Entry {
            scheme: self.scheme,
            runs: self.runs,
            due: self.due,
        }
    }
}

/// A serializable signature → [`ProfileEntry`] map, plus the calibration
/// state (`corr`/`cyc` records) that rides along in the same file.
#[derive(Debug, Default, Clone)]
pub struct ProfileStore {
    entries: HashMap<u64, ProfileEntry>,
    calibration: HashMap<CorrLevel, Correction>,
    /// Simplification-pass recognizer verdicts per signature (`simp`
    /// records): `false` = structurally not a scan (safe to skip
    /// recognition), `true` = scan structure was seen here before (the
    /// structural walk still re-runs before any rewrite).
    scan_verdicts: HashMap<u64, bool>,
    cycle_fit: Option<Correction>,
    /// Malformed lines skipped by the most recent parse (not persisted).
    skipped: usize,
}

impl ProfileStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of remembered workload classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a signature.
    pub fn get(&self, sig: PatternSignature) -> Option<&ProfileEntry> {
        self.entries.get(&sig.0)
    }

    /// Fold one measured execution into the store.  A first observation
    /// creates the entry; repeats update the run count and best time, and
    /// a different scheme takes the entry over only when it beats the
    /// incumbent's best.  The entry keeps no per-reference cost (the
    /// calibrator learns it), so `refs` is not read.
    pub fn record(
        &mut self,
        sig: PatternSignature,
        scheme: Scheme,
        threads: usize,
        _refs: usize,
        elapsed: Duration,
    ) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let e = self.entries.entry(sig.0).or_insert(ProfileEntry {
            scheme,
            threads,
            runs: 0,
            best_ns: ns,
            due: false,
        });
        e.runs += 1;
        if scheme == e.scheme {
            e.best_ns = e.best_ns.min(ns);
        } else if ns < e.best_ns {
            *e = ProfileEntry {
                scheme,
                threads,
                best_ns: ns,
                due: false,
                ..*e
            };
        }
    }

    /// Drop a signature (the dispatcher evicts an entry a recheck
    /// displaced, or one naming a backend this service cannot run).
    pub fn evict(&mut self, sig: PatternSignature) -> bool {
        self.entries.remove(&sig.0).is_some()
    }

    /// Mark `sig`'s entry due for a recheck, or clear the mark once a
    /// recheck kept the entry.
    pub(crate) fn set_due(&mut self, sig: PatternSignature, due: bool) {
        if let Some(e) = self.entries.get_mut(&sig.0) {
            e.due = due;
        }
    }

    /// Replace the stored calibration state with an exported calibrator
    /// snapshot (`Calibrator::export`).  Invalid estimates are dropped.
    pub fn set_calibration(&mut self, state: impl IntoIterator<Item = (CorrLevel, Correction)>) {
        self.calibration = state
            .into_iter()
            .filter(|(_, c)| c.ns_per_unit.is_finite() && c.ns_per_unit > 0.0)
            .collect();
    }

    /// The persisted calibration state, for seeding a fresh calibrator.
    pub fn calibration(&self) -> impl Iterator<Item = (CorrLevel, Correction)> + '_ {
        self.calibration.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of persisted calibration records (excluding entries).
    pub fn calibration_len(&self) -> usize {
        self.calibration.len()
    }

    /// Record the simplification pass's structural verdict for a class
    /// (`simp` record): whether the pattern family behind `sig` has
    /// contiguous-interval scan structure.  Last writer wins — the
    /// verdict is a property of the pattern, re-derived whenever the
    /// recognizer actually walks one.
    pub fn set_scan_verdict(&mut self, sig: PatternSignature, is_scan: bool) {
        self.scan_verdicts.insert(sig.0, is_scan);
    }

    /// The persisted recognizer verdict for `sig`, if any.  `Some(false)`
    /// lets the dispatcher skip recognition outright; `Some(true)` only
    /// says a walk is worth paying — it never authorizes a rewrite by
    /// itself.
    pub fn scan_verdict(&self, sig: PatternSignature) -> Option<bool> {
        self.scan_verdicts.get(&sig.0).copied()
    }

    /// Number of persisted recognizer verdicts.
    pub fn scan_verdict_len(&self) -> usize {
        self.scan_verdicts.len()
    }

    /// Store the fitted PCLR cycle→nanosecond conversion (`cyc` record).
    pub fn set_cycle_fit(&mut self, fit: Correction) {
        if fit.ns_per_unit.is_finite() && fit.ns_per_unit > 0.0 && fit.updates > 0 {
            self.cycle_fit = Some(fit);
        }
    }

    /// The persisted PCLR cycle fit, if any.
    pub fn cycle_fit(&self) -> Option<Correction> {
        self.cycle_fit
    }

    /// Serialize to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|(sig, e)| {
                format!(
                    "{:016x} {} {} {} {}",
                    sig,
                    e.scheme.abbrev(),
                    e.threads,
                    e.runs,
                    e.best_ns
                )
            })
            .collect();
        lines.sort(); // deterministic output
        let mut corr_lines: Vec<String> = self
            .calibration
            .iter()
            .map(|(level, c)| {
                let (scheme, domain, fused) = match level {
                    CorrLevel::Global => ("*".to_string(), "*".to_string(), 's'),
                    CorrLevel::Scheme(s, fused) => {
                        (s.abbrev().to_string(), "*".to_string(), fused_tag(*fused))
                    }
                    CorrLevel::Class(s, d, fused) => (
                        s.abbrev().to_string(),
                        format!("{:08x}", d.pack()),
                        fused_tag(*fused),
                    ),
                };
                format!(
                    "corr {scheme} {domain} {fused} {:e} {}",
                    c.ns_per_unit, c.updates
                )
            })
            .collect();
        corr_lines.sort();
        let mut simp_lines: Vec<String> = self
            .scan_verdicts
            .iter()
            .map(|(sig, v)| format!("simp {sig:016x} {}", u8::from(*v)))
            .collect();
        simp_lines.sort();
        let mut out =
            String::with_capacity((lines.len() + corr_lines.len() + simp_lines.len()) * 48 + 64);
        out.push_str(HEADER);
        out.push('\n');
        for l in lines.into_iter().chain(corr_lines).chain(simp_lines) {
            out.push_str(&l);
            out.push('\n');
        }
        if let Some(fit) = &self.cycle_fit {
            out.push_str(&format!("cyc {:e} {}\n", fit.ns_per_unit, fit.updates));
        }
        out
    }

    /// Parse the versioned text format.
    ///
    /// A missing header is a hard error (the file is not a profile
    /// store).  A **malformed line** — truncated fields, an unknown
    /// scheme, unparsable numbers, a non-finite calibration — is
    /// *skipped*, not fatal: one corrupt line (a torn write, a partial
    /// edit) must not poison every valid profile around it.  The number
    /// of skipped lines is available via [`last_load_skipped`]
    /// (diagnostics only).
    ///
    /// [`last_load_skipped`]: ProfileStore::last_load_skipped
    pub fn from_text(text: &str) -> io::Result<Self> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("profile store missing `{HEADER}` header"),
            ));
        }
        let mut store = ProfileStore::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = match line.split_ascii_whitespace().next() {
                Some("corr") => Self::parse_corr_line(line)
                    .map(|(level, c)| {
                        store.calibration.insert(level, c);
                    })
                    .is_some(),
                Some("simp") => Self::parse_simp_line(line)
                    .map(|(sig, v)| {
                        store.scan_verdicts.insert(sig, v);
                    })
                    .is_some(),
                Some("cyc") => Self::parse_cyc_line(line)
                    .map(|c| store.cycle_fit = Some(c))
                    .is_some(),
                _ => Self::parse_line(line)
                    .map(|(sig, entry)| {
                        store.entries.insert(sig, entry);
                    })
                    .is_some(),
            };
            if !parsed {
                store.skipped += 1;
            }
        }
        Ok(store)
    }

    /// Parse one `<sig> <scheme> <threads> <runs> <best_ns>` line, or an
    /// older line with a non-negative ns-per-reference field before
    /// `<runs>` (read and dropped); `None` if a field is missing, trailing
    /// junk follows, or a field fails validation.
    fn parse_line(line: &str) -> Option<(u64, ProfileEntry)> {
        let mut f = line.split_ascii_whitespace();
        let (sig, scheme, threads) = (f.next()?, f.next()?, f.next()?);
        let (mut runs, mut best) = (f.next()?, f.next()?);
        if let Some(last) = f.next() {
            // An older line: the field read as `runs` is the dropped one.
            let old: f64 = runs.parse().ok()?;
            if !old.is_finite() || old < 0.0 {
                return None;
            }
            (runs, best) = (best, last);
        }
        if f.next().is_some() {
            return None; // trailing fields: not our format
        }
        Some((
            u64::from_str_radix(sig, 16).ok()?,
            ProfileEntry {
                scheme: Scheme::from_abbrev(scheme)?,
                threads: threads.parse().ok()?,
                runs: runs.parse().ok()?,
                best_ns: best.parse().ok()?,
                due: false,
            },
        ))
    }

    /// Parse one `corr <scheme|*> <domain|*> <s|f> <ns_per_unit> <updates>`
    /// line; `None` on any malformed field (the lossy parser skips it).
    fn parse_corr_line(line: &str) -> Option<(CorrLevel, Correction)> {
        let mut f = line.split_ascii_whitespace();
        let (kind, scheme, domain, fused, value, updates) = (
            f.next()?,
            f.next()?,
            f.next()?,
            f.next()?,
            f.next()?,
            f.next()?,
        );
        if kind != "corr" || f.next().is_some() {
            return None;
        }
        let fused = match fused {
            "s" => false,
            "f" => true,
            _ => return None,
        };
        let ns_per_unit: f64 = value.parse().ok()?;
        if !ns_per_unit.is_finite() || ns_per_unit <= 0.0 {
            return None;
        }
        let updates: u64 = updates.parse().ok()?;
        let level = match (scheme, domain) {
            ("*", "*") if !fused => CorrLevel::Global,
            ("*", _) => return None, // a global row carries no domain/fused refinement
            (s, "*") => CorrLevel::Scheme(Scheme::from_abbrev(s)?, fused),
            (s, d) => {
                if d.len() != 8 {
                    return None;
                }
                let bits = u32::from_str_radix(d, 16).ok()?;
                CorrLevel::Class(Scheme::from_abbrev(s)?, DomainKey::unpack(bits), fused)
            }
        };
        Some((
            level,
            Correction {
                ns_per_unit,
                updates,
            },
        ))
    }

    /// Parse one `simp <sig> <0|1>` line.
    fn parse_simp_line(line: &str) -> Option<(u64, bool)> {
        let mut f = line.split_ascii_whitespace();
        let (kind, sig, verdict) = (f.next()?, f.next()?, f.next()?);
        if kind != "simp" || f.next().is_some() {
            return None;
        }
        let sig = u64::from_str_radix(sig, 16).ok()?;
        let verdict = match verdict {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some((sig, verdict))
    }

    /// Parse one `cyc <cycle_ns> <updates>` line.
    fn parse_cyc_line(line: &str) -> Option<Correction> {
        let mut f = line.split_ascii_whitespace();
        let (kind, value, updates) = (f.next()?, f.next()?, f.next()?);
        if kind != "cyc" || f.next().is_some() {
            return None;
        }
        let ns_per_unit: f64 = value.parse().ok()?;
        if !ns_per_unit.is_finite() || ns_per_unit <= 0.0 {
            return None;
        }
        Some(Correction {
            ns_per_unit,
            updates: updates.parse().ok()?,
        })
    }

    /// How many malformed lines the most recent [`from_text`] /
    /// [`load`](ProfileStore::load) skipped.
    ///
    /// [`from_text`]: ProfileStore::from_text
    pub fn last_load_skipped(&self) -> usize {
        self.skipped
    }

    /// Write to `path` (atomically via a sibling temp file).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Read from `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::from_text(&std::fs::read_to_string(path)?)
    }

    /// Merge another store in, keeping the faster entry per signature and
    /// the higher-confidence (more-samples) calibration record per level.
    pub fn merge(&mut self, other: &ProfileStore) {
        for (sig, e) in &other.entries {
            match self.entries.get(sig) {
                Some(mine) if mine.best_ns <= e.best_ns => {}
                _ => {
                    self.entries.insert(*sig, e.clone());
                }
            }
        }
        for (level, c) in &other.calibration {
            match self.calibration.get(level) {
                Some(mine) if mine.updates >= c.updates => {}
                _ => {
                    self.calibration.insert(*level, *c);
                }
            }
        }
        // Recognizer verdicts: local knowledge wins (it is at least as
        // fresh); absent classes adopt the imported verdict.
        for (sig, v) in &other.scan_verdicts {
            self.scan_verdicts.entry(*sig).or_insert(*v);
        }
        if let Some(theirs) = other.cycle_fit {
            match self.cycle_fit {
                Some(mine) if mine.updates >= theirs.updates => {}
                _ => self.cycle_fit = Some(theirs),
            }
        }
    }
}

/// The one-character split/fused tag of a `corr` record.
fn fused_tag(fused: bool) -> char {
    if fused {
        'f'
    } else {
        's'
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: u64) -> PatternSignature {
        PatternSignature(n)
    }

    #[test]
    fn record_creates_updates_and_switches() {
        let mut s = ProfileStore::new();
        s.record(sig(1), Scheme::Rep, 4, 1000, Duration::from_micros(100));
        assert_eq!(s.len(), 1);
        let e = s.get(sig(1)).unwrap();
        assert_eq!(e.scheme, Scheme::Rep);
        assert_eq!(e.runs, 1);
        assert_eq!(e.best_ns, 100_000);

        // Same scheme: run count + best update.
        s.record(sig(1), Scheme::Rep, 4, 1000, Duration::from_micros(50));
        s.record(sig(1), Scheme::Rep, 4, 1000, Duration::from_micros(70));
        let e = s.get(sig(1)).unwrap();
        assert_eq!(e.runs, 3);
        assert_eq!(e.best_ns, 50_000);

        // Slower different scheme: incumbent keeps the entry.
        s.record(sig(1), Scheme::Hash, 4, 1000, Duration::from_micros(500));
        let e = s.get(sig(1)).unwrap();
        assert_eq!((e.scheme, e.runs, e.best_ns), (Scheme::Rep, 4, 50_000));

        // Faster different scheme: takeover.
        s.record(sig(1), Scheme::Sel, 4, 1000, Duration::from_micros(10));
        let e = s.get(sig(1)).unwrap();
        assert_eq!((e.scheme, e.runs, e.best_ns), (Scheme::Sel, 5, 10_000));
    }

    #[test]
    fn text_round_trip_preserves_entries() {
        let mut s = ProfileStore::new();
        s.record(
            sig(0xdead_beef),
            Scheme::Ll,
            8,
            123_456,
            Duration::from_millis(3),
        );
        s.record(sig(42), Scheme::Hash, 2, 10, Duration::from_nanos(777));
        s.record(sig(42), Scheme::Hash, 2, 10, Duration::from_nanos(555));
        let text = s.to_text();
        let back = ProfileStore::from_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(sig(42)).unwrap(), s.get(sig(42)).unwrap());
        assert_eq!(
            back.get(sig(0xdead_beef)).unwrap(),
            s.get(sig(0xdead_beef)).unwrap()
        );
        // Deterministic serialization.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn missing_header_is_fatal_but_bad_lines_are_skipped() {
        // Not a profile store at all: hard error.
        assert!(ProfileStore::from_text("").is_err());
        assert!(ProfileStore::from_text("wrong-header\n").is_err());
        // Malformed lines are dropped without poisoning valid neighbors.
        let text = format!(
            "{HEADER}\n\
             zzzz rep 4\n\
             00000000000000ff nope 4 1.0 1 10\n\
             0000000000000001 rep 4 1.5e2 3 77\n\
             0000000000000002 pclr 8 nan 1 10\n\
             0000000000000002 pclr 8 2e0 1 10\n\
             0000000000000003 hash 2 1e0 1 10 trailing-junk\n\
             0000000000000004 sel 2 5 99\n\
             0000000000000005 sel 2 1e0 99\n"
        );
        let s = ProfileStore::from_text(&text).unwrap();
        assert_eq!(s.len(), 3, "every valid line survives");
        assert_eq!(s.get(sig(1)).unwrap().scheme, Scheme::Rep);
        assert_eq!(s.get(sig(2)).unwrap().scheme, Scheme::Pclr);
        assert!(s.get(sig(3)).is_none(), "trailing junk is not our format");
        assert_eq!(s.get(sig(4)).unwrap().runs, 5);
        assert!(s.get(sig(5)).is_none(), "runs is an integer");
        assert_eq!(s.last_load_skipped(), 5);
        let ok_empty = ProfileStore::from_text(&format!("{HEADER}\n")).unwrap();
        assert!(ok_empty.is_empty());
        assert_eq!(ok_empty.last_load_skipped(), 0);
    }

    #[test]
    fn a_store_in_the_six_field_entry_format_still_loads() {
        // Written by the previous format, whose entry lines carried the
        // per-entry ns-per-reference average as a sixth field.
        let old = "smartapps-profile-v1\n\
                   0000000000000007 pclr 4 9.765625e0 1 40000\n\
                   000000000000002a hash 2 7.6758e1 3 555\n\
                   00000000deadbeef ll 8 2.405715396578538e1 2 2900000\n\
                   corr * * s 2.5e0 40\n\
                   simp 0000000000000007 0\n\
                   cyc 8e-1 5\n";
        let s = ProfileStore::from_text(old).unwrap();
        assert_eq!(s.last_load_skipped(), 0);
        let entry = |n| {
            let e = s.get(sig(n)).unwrap();
            (e.scheme, e.threads, e.runs, e.best_ns)
        };
        assert_eq!(entry(7), (Scheme::Pclr, 4, 1, 40_000));
        assert_eq!(entry(42), (Scheme::Hash, 2, 3, 555));
        assert_eq!(entry(0xdead_beef), (Scheme::Ll, 8, 2, 2_900_000));
        assert_eq!(s.calibration_len(), 1);
        assert_eq!(s.scan_verdict(sig(7)), Some(false));
        assert_eq!(s.cycle_fit(), Some(Correction::seeded(0.8, 5)));
        // Saved again, the entries drop the column and read back equal.
        let text = s.to_text();
        assert!(text.contains("\n000000000000002a hash 2 3 555\n"), "{text}");
        let back = ProfileStore::from_text(&text).unwrap();
        assert_eq!(back.get(sig(42)), s.get(sig(42)));
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("smartapps-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("store-{}.txt", std::process::id()));
        let mut s = ProfileStore::new();
        s.record(sig(5), Scheme::Lw, 16, 9999, Duration::from_micros(250));
        s.save(&path).unwrap();
        let back = ProfileStore::load(&path).unwrap();
        assert_eq!(back.get(sig(5)), s.get(sig(5)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn eviction_forgets_a_class() {
        let mut s = ProfileStore::new();
        s.record(sig(9), Scheme::Rep, 4, 100, Duration::from_micros(1));
        assert!(s.evict(sig(9)));
        assert!(!s.evict(sig(9)));
        assert!(s.get(sig(9)).is_none());
    }

    #[test]
    fn calibration_records_round_trip() {
        let mut s = ProfileStore::new();
        s.record(sig(7), Scheme::Hash, 4, 500, Duration::from_micros(40));
        let d = DomainKey {
            dim_bucket: 12,
            reuse_bucket: 4,
            sparsity_decile: 10,
            mo: 2,
        };
        s.set_calibration([
            (CorrLevel::Global, Correction::seeded(2.5, 40)),
            (
                CorrLevel::Scheme(Scheme::Hash, false),
                Correction::seeded(7.25, 12),
            ),
            (
                CorrLevel::Class(Scheme::Ll, d, true),
                Correction::seeded(1.5e-1, 3),
            ),
            // Invalid estimates are filtered out at set time.
            (
                CorrLevel::Scheme(Scheme::Rep, true),
                Correction::seeded(f64::NAN, 9),
            ),
        ]);
        s.set_cycle_fit(Correction::seeded(0.8, 5));
        assert_eq!(s.calibration_len(), 3);
        let text = s.to_text();
        assert!(text.contains("corr * * s"), "{text}");
        assert!(text.contains("corr ll 0c040a02 f"), "{text}");
        assert!(text.contains("cyc "), "{text}");
        let back = ProfileStore::from_text(&text).unwrap();
        assert_eq!(back.last_load_skipped(), 0);
        assert_eq!(back.calibration_len(), 3);
        assert_eq!(back.cycle_fit(), Some(Correction::seeded(0.8, 5)));
        let levels: std::collections::HashMap<_, _> = back.calibration().collect();
        assert_eq!(levels[&CorrLevel::Global], Correction::seeded(2.5, 40));
        assert_eq!(
            levels[&CorrLevel::Class(Scheme::Ll, d, true)],
            Correction::seeded(0.15, 3)
        );
        // Deterministic: the second save reproduces the first.
        assert_eq!(back.to_text(), text);
        // Entry count is unaffected by calibration records.
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn malformed_calibration_lines_are_skipped_not_fatal() {
        let text = format!(
            "{HEADER}\n\
             corr * * s 2.5e0 40\n\
             corr hash * s nope 12\n\
             corr hash * x 1.0 12\n\
             corr * 0c040a02 s 1.0 12\n\
             corr warp * s 1.0 12\n\
             corr ll zz040a02 f 1.0 12\n\
             corr ll 0c040a02 f -1.0 12\n\
             corr ll 0c040a02 f 1.0 12 extra\n\
             cyc 1.5e0 3\n\
             cyc inf 3\n\
             cyc 1.0\n\
             0000000000000001 rep 4 1.5e2 3 77\n"
        );
        let s = ProfileStore::from_text(&text).unwrap();
        assert_eq!(s.calibration_len(), 1, "only the valid corr line lands");
        assert_eq!(s.cycle_fit(), Some(Correction::seeded(1.5, 3)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.last_load_skipped(), 9);
    }

    #[test]
    fn scan_verdicts_round_trip_and_merge() {
        let mut s = ProfileStore::new();
        s.record(sig(7), Scheme::Hash, 4, 500, Duration::from_micros(40));
        s.set_scan_verdict(sig(0xabc), true);
        s.set_scan_verdict(sig(0xdef), false);
        // Last writer wins.
        s.set_scan_verdict(sig(0xabc), false);
        s.set_scan_verdict(sig(0xabc), true);
        assert_eq!(s.scan_verdict(sig(0xabc)), Some(true));
        assert_eq!(s.scan_verdict(sig(0xdef)), Some(false));
        assert_eq!(s.scan_verdict(sig(0x123)), None);
        assert_eq!(s.scan_verdict_len(), 2);
        let text = s.to_text();
        assert!(text.contains("simp 0000000000000abc 1"), "{text}");
        assert!(text.contains("simp 0000000000000def 0"), "{text}");
        let back = ProfileStore::from_text(&text).unwrap();
        assert_eq!(back.last_load_skipped(), 0);
        assert_eq!(back.scan_verdict(sig(0xabc)), Some(true));
        assert_eq!(back.scan_verdict(sig(0xdef)), Some(false));
        // Deterministic serialization, entries unaffected.
        assert_eq!(back.to_text(), text);
        assert_eq!(back.len(), 1);
        // Merge: local verdicts win, absent ones are adopted.
        let mut other = ProfileStore::new();
        other.set_scan_verdict(sig(0xabc), false);
        other.set_scan_verdict(sig(0x999), true);
        let mut merged = back.clone();
        merged.merge(&other);
        assert_eq!(merged.scan_verdict(sig(0xabc)), Some(true));
        assert_eq!(merged.scan_verdict(sig(0x999)), Some(true));
    }

    #[test]
    fn malformed_simp_lines_are_skipped_not_fatal() {
        let text = format!(
            "{HEADER}\n\
             simp 0000000000000abc 1\n\
             simp zzzz 1\n\
             simp 0000000000000abc 2\n\
             simp 0000000000000abc\n\
             simp 0000000000000abc 1 extra\n"
        );
        let s = ProfileStore::from_text(&text).unwrap();
        assert_eq!(s.scan_verdict_len(), 1);
        assert_eq!(s.scan_verdict(sig(0xabc)), Some(true));
        assert_eq!(s.last_load_skipped(), 4);
    }

    #[test]
    fn merge_keeps_higher_confidence_calibration() {
        let mut a = ProfileStore::new();
        a.set_calibration([(CorrLevel::Global, Correction::seeded(1.0, 10))]);
        a.set_cycle_fit(Correction::seeded(1.0, 2));
        let mut b = ProfileStore::new();
        b.set_calibration([
            (CorrLevel::Global, Correction::seeded(9.0, 3)),
            (
                CorrLevel::Scheme(Scheme::Sel, false),
                Correction::seeded(4.0, 7),
            ),
        ]);
        b.set_cycle_fit(Correction::seeded(2.0, 8));
        a.merge(&b);
        let levels: std::collections::HashMap<_, _> = a.calibration().collect();
        assert_eq!(
            levels[&CorrLevel::Global],
            Correction::seeded(1.0, 10),
            "10 samples beat 3"
        );
        assert_eq!(
            levels[&CorrLevel::Scheme(Scheme::Sel, false)],
            Correction::seeded(4.0, 7)
        );
        assert_eq!(a.cycle_fit(), Some(Correction::seeded(2.0, 8)));
    }
}

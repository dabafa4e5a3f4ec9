//! The runtime's one per-allocation cache: what the service remembers
//! about each pattern allocation it was handed.
//!
//! Submission signs a job's pattern here (`Shared::sign`) and the
//! queued job carries the [`WidthFacts`] it got back, so every dispatcher
//! — the shard's owner or a thief — reads and fills the same products.
//! Per allocation: the slot numbering with the characterization derived
//! from it, and a positive simplification walk.  Per (allocation, SPMD
//! width): the inspection, whose width pass reuses the allocation's
//! numbering, so a new width pays only that pass.  Each product is filled
//! once, on first use.  `runtime.inspections` counts one per inspection
//! filled (the numbering included when that fill pays it), plus one per
//! numbering filled alone, for a `hash` run no inspection preceded (a
//! profile hit).  Dispatchers keep no pattern state of their own.

use crate::job::PatternSignature;
use crate::stats::RuntimeStats;
use smartapps_reductions::{Analyses, Inspection, Inspector, LocalIndex, ScanMatch, Scheme};
use smartapps_workloads::{AccessPattern, PatternChars};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock, Weak};

/// Widths remembered per allocation; a submitter cycling through more
/// widths re-signs (and re-inspects) the oldest one.
const WIDTHS_PER_PATTERN: usize = 4;

/// A small FIFO cache keyed by a pattern's *allocation address*.  An
/// address can be reused after the original `Arc` dies, so an entry only
/// hits when its stored [`Weak`] still upgrades to *the same allocation*
/// the caller holds.  A live `Weak` also freezes the allocation's content
/// — `Arc::get_mut` refuses and `Arc::make_mut` moves the value out — so
/// a hit vouches for exactly the content the value was computed from.
///
/// The runtime holds one instance, the pattern registry
/// ([`Registry`], behind the submit path's lock).
pub(crate) struct PatternCache<V> {
    entries: HashMap<usize, (Weak<AccessPattern>, V)>,
    order: VecDeque<usize>,
    cap: usize,
}

impl<V> PatternCache<V> {
    pub(crate) fn new(cap: usize) -> Self {
        PatternCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The value cached for this exact pattern allocation, if any.
    pub(crate) fn get(&self, pat: &Arc<AccessPattern>) -> Option<&V> {
        let (weak, value) = self.entries.get(&(Arc::as_ptr(pat) as usize))?;
        weak.upgrade()
            .is_some_and(|live| Arc::ptr_eq(&live, pat))
            .then_some(value)
    }

    /// The value cached for `pat`, or `make()` cached in place of a
    /// (necessarily stale) entry under the same address, evicting the
    /// oldest entry once full.
    pub(crate) fn get_or_insert_with(
        &mut self,
        pat: &Arc<AccessPattern>,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        let key = Arc::as_ptr(pat) as usize;
        if self.get(pat).is_none() {
            if self.entries.contains_key(&key) {
                self.order.retain(|k| *k != key);
            } else if self.order.len() >= self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
            self.order.push_back(key);
            self.entries.insert(key, (Arc::downgrade(pat), make()));
        }
        &mut self.entries.get_mut(&key).expect("entry present").1
    }
}

/// The width-free products of one pattern allocation, each filled on
/// first use and shared by every width, job and dispatcher.
#[derive(Default)]
pub(crate) struct PatternFacts {
    /// The slot numbering and the characterization derived from it: the
    /// width-free half of every inspection, and `hash`'s slots.
    numbered: OnceLock<(Arc<LocalIndex>, PatternChars)>,
    /// A *positive* recognizer walk, set only on a match.  A negative one
    /// persists per signature as the profile store's `simp … 0` verdict.
    pub(crate) scan: OnceLock<ScanMatch>,
}

/// What one allocation is queued under at one SPMD width: the signature,
/// the inspection at that width, and the allocation's [`PatternFacts`].
/// Every fill takes the pattern the facts were registered for — the
/// pattern of the job carrying them.
pub(crate) struct WidthFacts {
    pub(crate) sig: PatternSignature,
    pub(crate) threads: usize,
    /// Learning reads this cell with `get()`: a calibration sample is
    /// worth a lookup, not a pattern walk.  Only a judged profile hit
    /// (one the drift check needs a residual for) fills it, once per
    /// allocation.
    pub(crate) inspection: OnceLock<Inspection>,
    pub(crate) allocation: Arc<PatternFacts>,
}

impl WidthFacts {
    /// The inspection of `pat` at this width, paying (and counting) it on
    /// first use: the width pass, and the allocation's numbering if no
    /// width has filled it yet.  A concurrent caller waits for that fill
    /// instead of repeating it; a panicking fill leaves the cell empty.
    pub(crate) fn inspection(&self, pat: &AccessPattern, stats: &RuntimeStats) -> &Inspection {
        self.inspection.get_or_init(|| {
            RuntimeStats::add(&stats.inspections, 1);
            let numbered = &self.allocation.numbered;
            let (local, chars) = numbered.get_or_init(|| Inspector::number(pat));
            Inspector::at_width(pat, local.clone(), chars.clone(), self.threads)
        })
    }

    /// What a `scheme` kernel over `pat` reuses, paying a pass on first
    /// use: the inspection for `sel`/`lw`, the allocation's slot numbering
    /// for `hash` (the one an inspection built, or a localize walk of its
    /// own, counted as an inspection), nothing for the rest — and nothing
    /// at width 1, where every software scheme runs the sequential sweep.
    pub(crate) fn kernel_analyses(
        &self,
        scheme: Scheme,
        pat: &AccessPattern,
        stats: &RuntimeStats,
    ) -> Analyses<'_> {
        if self.threads == 1 {
            return Analyses::default();
        }
        match scheme {
            Scheme::Sel | Scheme::Lw => Some(self.inspection(pat, stats)).into(),
            Scheme::Hash => {
                let (local, _) = self.allocation.numbered.get_or_init(|| {
                    RuntimeStats::add(&stats.inspections, 1);
                    Inspector::number(pat)
                });
                Analyses {
                    inspection: None,
                    local: Some(local),
                }
            }
            _ => Analyses::default(),
        }
    }
}

/// The pattern registry: per allocation, the short list of widths it was
/// submitted at, all sharing the allocation's [`PatternFacts`].
pub(crate) type Registry = PatternCache<Vec<Arc<WidthFacts>>>;

impl Registry {
    /// The facts `pat` is queued under at `threads`, if registered.
    pub(crate) fn lookup(
        &self,
        pat: &Arc<AccessPattern>,
        threads: usize,
    ) -> Option<Arc<WidthFacts>> {
        self.get(pat)?
            .iter()
            .find(|w| w.threads == threads)
            .cloned()
    }

    /// Register `pat` at `threads` under `sig`, or return the facts a
    /// concurrent submitter registered first: one allocation never has
    /// two entries, nor one width two signatures.
    pub(crate) fn register(
        &mut self,
        pat: &Arc<AccessPattern>,
        threads: usize,
        sig: PatternSignature,
    ) -> Arc<WidthFacts> {
        let widths = self.get_or_insert_with(pat, Vec::new);
        if let Some(w) = widths.iter().find(|w| w.threads == threads) {
            return w.clone();
        }
        let allocation = widths
            .first()
            .map_or_else(Arc::default, |w| w.allocation.clone());
        if widths.len() >= WIDTHS_PER_PATTERN {
            widths.remove(0);
        }
        let w = Arc::new(WidthFacts {
            sig,
            threads,
            inspection: OnceLock::new(),
            allocation,
        });
        widths.push(w.clone());
        w
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runtime::tests::pattern;

    /// Facts registered nowhere, for jobs queued behind the submit path.
    pub(crate) fn unregistered(sig: PatternSignature, threads: usize) -> Arc<WidthFacts> {
        Arc::new(WidthFacts {
            sig,
            threads,
            inspection: OnceLock::new(),
            allocation: Arc::default(),
        })
    }

    fn registered(reg: &mut Registry, pat: &Arc<AccessPattern>, threads: usize) -> Arc<WidthFacts> {
        reg.register(pat, threads, PatternSignature(threads as u64))
    }

    /// A pattern allocation at the address `addr` once held, if the
    /// allocator hands it out again within a few tries.
    fn reuse_address(addr: usize, seed: u64) -> Arc<AccessPattern> {
        let mut fresh = pattern(seed);
        for _ in 0..64 {
            if Arc::as_ptr(&fresh) as usize == addr {
                break;
            }
            fresh = pattern(seed);
        }
        fresh
    }

    #[test]
    fn inspections_are_shared_per_width_and_revalidated() {
        let stats = RuntimeStats::default();
        let mut reg = PatternCache::new(4);
        let pat = pattern(31);
        let [a, b, c] = [0; 3].map(|_| registered(&mut reg, &pat, 3));
        let first = a.inspection(&pat, &stats);
        let second = b.inspection(&pat, &stats);
        let third = c.inspection(&pat, &stats);
        assert_eq!(stats.snapshot().inspections, 1, "same Arc + width must hit");
        assert!(
            std::ptr::eq(first, second) && std::ptr::eq(second, third),
            "a hit must share the cached inspection, not copy it"
        );
        // `hash` reuses the numbering the inspection built.
        let hash = a.kernel_analyses(Scheme::Hash, &pat, &stats);
        assert!(std::ptr::eq(hash.local.unwrap(), &*first.local));
        assert_eq!(stats.snapshot().inspections, 1);
        let narrow = registered(&mut reg, &pat, 2);
        let narrow = narrow.inspection(&pat, &stats);
        assert_eq!(stats.snapshot().inspections, 2, "new width must analyze");
        assert!(
            Arc::ptr_eq(&first.local, &narrow.local),
            "a new width re-runs only the width pass, on the shared numbering"
        );
        // A dead Arc whose address gets reused must not serve a stale
        // inspection: the Weak upgrade guard forces a fresh analysis.
        let addr = Arc::as_ptr(&pat) as usize;
        drop(pat);
        let fresh = reuse_address(addr, 32);
        assert!(reg.lookup(&fresh, 3).is_none());
        registered(&mut reg, &fresh, 3).inspection(&fresh, &stats);
        assert_eq!(stats.snapshot().inspections, 3);
    }

    #[test]
    fn slot_numberings_are_shared_across_widths_and_revalidated() {
        let stats = RuntimeStats::default();
        let mut reg = PatternCache::new(4);
        let pat = pattern(33);
        let local = |w: &WidthFacts, pat: &AccessPattern| {
            let analyses = w.kernel_analyses(Scheme::Hash, pat, &stats);
            assert!(analyses.inspection.is_none());
            analyses.local.expect("hash reuses a slot numbering") as *const LocalIndex
        };
        let first = local(&registered(&mut reg, &pat, 3), &pat);
        let second = local(&registered(&mut reg, &pat, 3), &pat);
        assert_eq!(stats.snapshot().inspections, 1, "same Arc must hit");
        assert_eq!(
            first, second,
            "a hit must share the cached index, not copy it"
        );
        // The index does not depend on the SPMD width: a second width
        // shares it.
        assert_eq!(local(&registered(&mut reg, &pat, 5), &pat), first);
        assert_eq!(stats.snapshot().inspections, 1, "a new width must hit");
        // An inspection after it pays the width pass alone, on that index.
        let insp = registered(&mut reg, &pat, 3);
        let insp = insp.inspection(&pat, &stats);
        assert_eq!(stats.snapshot().inspections, 2);
        assert_eq!(&*insp.local as *const LocalIndex, first);
        // A dead Arc whose address gets reused gets a fresh pass.
        let addr = Arc::as_ptr(&pat) as usize;
        drop(pat);
        let fresh = reuse_address(addr, 34);
        local(&registered(&mut reg, &fresh, 3), &fresh);
        assert_eq!(stats.snapshot().inspections, 3);
    }

    #[test]
    fn one_allocation_keeps_one_entry_and_a_short_width_list() {
        let mut reg = PatternCache::new(4);
        let pat = pattern(35);
        let first = registered(&mut reg, &pat, 2);
        // A racing submitter that signed the same width gets the entry
        // registered first, not a second one.
        let racer = reg.register(&pat, 2, PatternSignature(99));
        assert!(Arc::ptr_eq(&first, &racer));
        for t in 3..3 + WIDTHS_PER_PATTERN {
            registered(&mut reg, &pat, t);
        }
        assert!(reg.lookup(&pat, 2).is_none(), "the oldest width is dropped");
        assert!(reg.lookup(&pat, 3).is_some());
        assert_eq!(reg.entries.len(), 1);
    }
}

//! Uploaded-pattern interning: the handle registry behind CSR upload.
//!
//! The server's text protocol describes patterns as *generator specs* —
//! nine numbers a [`PatternSpec`](smartapps_workloads::PatternSpec)
//! expands into a synthetic CSR structure.  Real irregular applications
//! do not have a generator: they have the sparse structure itself (a
//! SuiteSparse matrix, a mesh adjacency), and shipping it inline with
//! every job would swamp the wire.  The [`PatternInterner`] is the seam
//! that fixes this: a client uploads an [`AccessPattern`] **once**, the
//! interner validates it, dedupes it by content, and hands back a small
//! opaque `u64` handle; every subsequent job references the handle and
//! the runtime resolves it to the same shared `Arc`.
//!
//! The content hash only picks a bucket: it is word-wise (independent
//! multiply lanes over pairs of `u32`s, so hashing runs at memory speed
//! rather than one multiply per byte) and process-local, and equal
//! content, not an equal hash, decides a dedup.
//!
//! Content deduplication matters beyond memory: jobs from
//! *different* connections that uploaded the *same* structure resolve to
//! one `Arc<AccessPattern>`, so the queue's same-pattern coalescing and
//! fused sweeps work across clients exactly as they do for spec-described
//! patterns (pointer identity is what the fusion gate keys on).
//!
//! The registry is bounded: interning past
//! [`capacity`](PatternInterner::capacity) fails with
//! [`InternError::Full`] rather than letting remote clients grow server
//! memory without limit.  Re-uploading an already-interned structure
//! never counts against the bound — it returns the existing handle.

use smartapps_workloads::AccessPattern;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Why an upload was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InternError {
    /// The structure failed [`AccessPattern::validate`] — the message is
    /// the validator's diagnosis (out-of-bounds index, non-monotone row
    /// pointers, ...).
    Invalid(String),
    /// The registry holds `capacity` distinct patterns and this one is
    /// new; the upload is refused rather than evicting a pattern some
    /// other connection may still reference by handle.
    Full {
        /// The configured bound that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for InternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InternError::Invalid(msg) => write!(f, "invalid pattern: {msg}"),
            InternError::Full { capacity } => {
                write!(f, "pattern registry full ({capacity} patterns)")
            }
        }
    }
}

impl std::error::Error for InternError {}

/// A successful [`intern`](PatternInterner::intern): the handle jobs will
/// reference, the shared structure itself, and whether this upload
/// created the entry or deduplicated onto an existing one.
#[derive(Debug, Clone)]
pub struct Interned {
    /// Opaque nonzero handle; stable for the life of the runtime.
    pub handle: u64,
    /// The interned structure (the *one* `Arc` every same-content upload
    /// resolves to).
    pub pattern: Arc<AccessPattern>,
    /// `true` when this call created the entry, `false` when the content
    /// matched an existing pattern and its handle was returned instead.
    pub fresh: bool,
}

struct InternState {
    by_handle: HashMap<u64, Arc<AccessPattern>>,
    /// Content hash → handles with that hash (a chain, because a hash
    /// collision must not alias two distinct structures).
    by_hash: HashMap<u64, Vec<u64>>,
    next_handle: u64,
}

/// Bounded, content-deduplicating registry of uploaded access patterns.
///
/// Owned by the [`Runtime`](crate::Runtime) (one registry per service);
/// all methods take `&self` and are safe to call from any thread.
pub struct PatternInterner {
    state: Mutex<InternState>,
    capacity: usize,
}

impl PatternInterner {
    /// A registry holding at most `capacity` distinct patterns (clamped
    /// to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        PatternInterner {
            state: Mutex::new(InternState {
                by_handle: HashMap::new(),
                by_hash: HashMap::new(),
                next_handle: 1,
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InternState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The configured bound on distinct interned patterns.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Distinct patterns currently interned.
    pub fn len(&self) -> usize {
        self.lock().by_handle.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.lock().by_handle.is_empty()
    }

    /// Validate and intern `pattern`, returning its handle.  Content
    /// already in the registry — byte-identical `num_elements` /
    /// `iter_ptr` / `indices` — returns the existing handle and `Arc`
    /// with `fresh == false` and never counts against the capacity.
    pub fn intern(&self, pattern: AccessPattern) -> Result<Interned, InternError> {
        pattern.validate().map_err(InternError::Invalid)?;
        let hash = content_hash(&pattern);
        let mut g = self.lock();
        if let Some(handles) = g.by_hash.get(&hash) {
            for &h in handles {
                let existing = &g.by_handle[&h];
                if **existing == pattern {
                    return Ok(Interned {
                        handle: h,
                        pattern: existing.clone(),
                        fresh: false,
                    });
                }
            }
        }
        if g.by_handle.len() >= self.capacity {
            return Err(InternError::Full {
                capacity: self.capacity,
            });
        }
        let handle = g.next_handle;
        g.next_handle += 1;
        let arc = Arc::new(pattern);
        g.by_handle.insert(handle, arc.clone());
        g.by_hash.entry(hash).or_default().push(handle);
        Ok(Interned {
            handle,
            pattern: arc,
            fresh: true,
        })
    }

    /// Resolve a handle to its interned pattern (`None` for handles this
    /// registry never issued).
    pub fn get(&self, handle: u64) -> Option<Arc<AccessPattern>> {
        self.lock().by_handle.get(&handle).cloned()
    }
}

impl std::fmt::Debug for PatternInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.lock();
        f.debug_struct("PatternInterner")
            .field("len", &g.by_handle.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Independent multiply chains the content hash runs side by side.
const LANES: usize = 4;
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One multiply-rotate round (the xxHash64 round) folding `word` into
/// `acc`.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Fold `words` into the lanes, a pair of `u32`s per lane per step, so
/// the [`LANES`] multiply chains run independently instead of one chain
/// per byte.  A last partial step goes in zero-padded; the caller mixes
/// in the array lengths, which tells the padding apart.
fn eat(lanes: &mut [u64; LANES], words: &[u32]) {
    let mut step = |s: &[u32; 2 * LANES]| {
        for (lane, p) in lanes.iter_mut().zip(s.chunks_exact(2)) {
            *lane = round(*lane, u64::from(p[0]) | u64::from(p[1]) << 32);
        }
    };
    let (steps, rest) = words.as_chunks::<{ 2 * LANES }>();
    steps.iter().for_each(&mut step);
    if !rest.is_empty() {
        let mut last = [0; 2 * LANES];
        last[..rest.len()].copy_from_slice(rest);
        step(&last);
    }
}

/// Word-wise hash of the pattern's structural content: `iter_ptr` then
/// `indices` through [`LANES`] independent lanes, folded together with
/// `num_elements` and both array lengths.  Process-local: handles are
/// never persisted, so the function may change between builds (unlike
/// [`PatternSignature`](crate::PatternSignature), which profile stores
/// persist).  Dedup is decided by content equality; the hash only picks
/// the bucket.
fn content_hash(pattern: &AccessPattern) -> u64 {
    let mut lanes = [P1; LANES];
    eat(&mut lanes, &pattern.iter_ptr);
    eat(&mut lanes, &pattern.indices);
    let lens = [
        pattern.num_elements,
        pattern.iter_ptr.len(),
        pattern.indices.len(),
    ];
    lanes
        .into_iter()
        .chain(lens.map(|n| n as u64))
        .fold(P2, round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::{Distribution, PatternSpec};

    fn sample(seed: u64) -> AccessPattern {
        PatternSpec {
            num_elements: 64,
            iterations: 200,
            refs_per_iter: 3,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed,
        }
        .generate()
    }

    #[test]
    fn intern_then_get_round_trips() {
        let reg = PatternInterner::new(8);
        let a = reg.intern(sample(1)).unwrap();
        assert!(a.fresh);
        assert!(a.handle != 0);
        let got = reg.get(a.handle).expect("issued handle resolves");
        assert!(Arc::ptr_eq(&got, &a.pattern));
        assert!(reg.get(a.handle + 999).is_none());
    }

    #[test]
    fn same_content_dedupes_to_one_arc() {
        let reg = PatternInterner::new(8);
        let a = reg.intern(sample(7)).unwrap();
        let b = reg.intern(sample(7)).unwrap();
        assert!(!b.fresh);
        assert_eq!(a.handle, b.handle);
        assert!(
            Arc::ptr_eq(&a.pattern, &b.pattern),
            "cross-upload fusion needs pointer identity"
        );
        assert_eq!(reg.len(), 1);
        let c = reg.intern(sample(8)).unwrap();
        assert!(c.fresh);
        assert_ne!(c.handle, a.handle);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn invalid_patterns_are_refused() {
        let reg = PatternInterner::new(8);
        let mut bad = sample(1);
        bad.indices[0] = u32::MAX; // out of bounds for num_elements = 64
        match reg.intern(bad) {
            Err(InternError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(reg.is_empty());
    }

    #[test]
    fn malformed_csr_row_pointers_are_refused() {
        // Every way the row-pointer array can be malformed — not just an
        // out-of-bounds index — must be refused before interning, since a
        // handle resolves straight into dispatcher walks with no further
        // validation.
        let reg = PatternInterner::new(8);
        // Non-monotone row pointers.
        let mut bad = sample(1);
        let mid = bad.iter_ptr.len() / 2;
        bad.iter_ptr[mid] = bad.iter_ptr[mid - 1].wrapping_sub(1);
        assert!(matches!(reg.intern(bad), Err(InternError::Invalid(_))));
        // First pointer not zero.
        let mut bad = sample(2);
        bad.iter_ptr[0] = 1;
        assert!(matches!(reg.intern(bad), Err(InternError::Invalid(_))));
        // Last pointer disagrees with the reference count.
        let mut bad = sample(3);
        *bad.iter_ptr.last_mut().unwrap() += 1;
        assert!(matches!(reg.intern(bad), Err(InternError::Invalid(_))));
        // Empty row-pointer array (no leading 0 at all).
        let mut bad = sample(4);
        bad.iter_ptr.clear();
        bad.indices.clear();
        assert!(matches!(reg.intern(bad), Err(InternError::Invalid(_))));
        assert!(reg.is_empty(), "refused uploads must not consume capacity");
        // The registry still accepts well-formed structures afterwards.
        assert!(reg.intern(sample(5)).is_ok());
    }

    #[test]
    fn capacity_bounds_distinct_patterns_but_not_reuploads() {
        let reg = PatternInterner::new(2);
        let a = reg.intern(sample(1)).unwrap();
        reg.intern(sample(2)).unwrap();
        match reg.intern(sample(3)) {
            Err(InternError::Full { capacity: 2 }) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        // A re-upload of existing content still succeeds at capacity.
        let again = reg.intern(sample(1)).unwrap();
        assert_eq!(again.handle, a.handle);
        assert!(!again.fresh);
    }

    #[test]
    fn hash_collisions_do_not_alias_distinct_patterns() {
        // Seed `b`'s bucket with `a`'s handle, so that `b` lands in one
        // chain with `a`: only the content compare tells them apart.
        let reg = PatternInterner::new(8);
        let (pa, pb) = (sample(1), sample(2));
        let a = reg.intern(pa.clone()).unwrap();
        reg.lock()
            .by_hash
            .entry(content_hash(&pb))
            .or_default()
            .push(a.handle);
        let b = reg.intern(pb.clone()).unwrap();
        assert!(b.fresh, "a colliding chain entry is not a dedup hit");
        assert_ne!(b.handle, a.handle, "a collision aliased two contents");
        assert_eq!(reg.lock().by_hash[&content_hash(&pb)], [a.handle, b.handle]);
        // And `a`'s bucket now leads with `b`'s handle.
        reg.lock()
            .by_hash
            .get_mut(&content_hash(&pa))
            .unwrap()
            .insert(0, b.handle);
        // Each re-upload walks past the other's entry to its own handle.
        for (p, want) in [(pa, a.handle), (pb, b.handle)] {
            let again = reg.intern(p).unwrap();
            assert!(!again.fresh);
            assert_eq!(again.handle, want);
            assert!(Arc::ptr_eq(&again.pattern, &reg.get(want).unwrap()));
        }
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn content_hash_frames_its_fields() {
        let pat = |num_elements, iter_ptr: &[u32], indices: &[u32]| AccessPattern {
            num_elements,
            iter_ptr: iter_ptr.to_vec(),
            indices: indices.to_vec(),
        };
        // The same concatenated words, split differently between the
        // two arrays (no valid pattern can do this, but the hash must
        // not rely on validation).
        let words = [0u32, 2, 3, 1, 0, 2, 1, 0, 5, 4];
        let splits: Vec<u64> = (0..=words.len())
            .map(|k| content_hash(&pat(8, &words[..k], &words[k..])))
            .collect();
        for (i, x) in splits.iter().enumerate() {
            for y in &splits[i + 1..] {
                assert_ne!(x, y, "a different split must hash differently");
            }
        }
        // A zero-padded tail is not the same as explicit zeros.
        assert_ne!(
            content_hash(&pat(8, &[0, 1], &[3])),
            content_hash(&pat(8, &[0, 1], &[3, 0]))
        );
        // The same arrays over a different `num_elements`: distinct
        // hashes, and distinct handles once interned.
        let (p8, p9) = (
            pat(8, &[0, 2, 3], &[1, 7, 7]),
            pat(9, &[0, 2, 3], &[1, 7, 7]),
        );
        assert_ne!(content_hash(&p8), content_hash(&p9));
        let reg = PatternInterner::new(8);
        let (a, b) = (reg.intern(p8.clone()).unwrap(), reg.intern(p9).unwrap());
        assert!(a.fresh && b.fresh);
        assert_ne!(a.handle, b.handle);
        assert_eq!(reg.intern(p8).unwrap().handle, a.handle);
    }

    #[test]
    fn content_hash_sees_every_word() {
        // Flip each word of a pattern that spans several full steps and
        // a partial one; every flip must move the hash.
        let base = sample(3);
        let h = content_hash(&base);
        for i in 0..base.iter_ptr.len() {
            let mut p = base.clone();
            p.iter_ptr[i] ^= 1;
            assert_ne!(content_hash(&p), h, "iter_ptr[{i}]");
        }
        for i in 0..base.indices.len() {
            let mut p = base.clone();
            p.indices[i] ^= 1 << (i % 32);
            assert_ne!(content_hash(&p), h, "indices[{i}]");
        }
    }
}

//! Inspector/executor wavefront parallelization: computing "sequences of
//! mutually independent sets of iterations that can be executed in
//! parallel" (Section 3, technique ii).
//!
//! The inspector walks the loop's access pattern once, assigns each
//! iteration a dependence level (one more than the deepest level among
//! earlier iterations it conflicts with), and the executor sweeps the
//! levels, running each level's iterations in parallel.

use std::ops::Range;

/// Declared per-iteration accesses (the inspector's input; in SmartApps
//  the compiler extracts this address computation as a side-effect-free
/// slice of the loop).
#[derive(Debug, Clone, Default)]
pub struct IterAccess {
    /// Elements read by the iteration.
    pub reads: Vec<u32>,
    /// Elements written by the iteration.
    pub writes: Vec<u32>,
}

/// The inspector's output: iterations grouped into dependence levels
/// ("wavefronts").
#[derive(Debug, Clone)]
pub struct Wavefronts {
    /// `levels[k]` lists the iterations of wavefront `k`.
    pub levels: Vec<Vec<u32>>,
    /// Per-iteration level (inverse of `levels`).
    pub level_of: Vec<u32>,
}

impl Wavefronts {
    /// Number of wavefronts (critical-path length in iterations).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Average parallelism: iterations / depth.
    pub fn parallelism(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.level_of.len() as f64 / self.levels.len() as f64
    }
}

/// Run the inspector: compute wavefronts from per-iteration accesses over
/// an array of `n_elements`.
///
/// Dependences considered: flow (read-after-write), anti
/// (write-after-read) and output (write-after-write) — the executor runs
/// iterations *in place*, so all three order the levels.
pub fn inspect(n_elements: usize, accesses: &[IterAccess]) -> Wavefronts {
    // For each element: the deepest level that wrote it and the deepest
    // level that read it so far.
    let mut last_write_level = vec![0i64; n_elements]; // 0 = none, else level+1
    let mut last_read_level = vec![0i64; n_elements];
    let mut level_of = Vec::with_capacity(accesses.len());
    let mut levels: Vec<Vec<u32>> = Vec::new();
    for (i, acc) in accesses.iter().enumerate() {
        let mut lvl = 0i64;
        for &r in &acc.reads {
            lvl = lvl.max(last_write_level[r as usize]); // flow
        }
        for &w in &acc.writes {
            lvl = lvl.max(last_write_level[w as usize]); // output
            lvl = lvl.max(last_read_level[w as usize]); // anti
        }
        let lvl = lvl as usize;
        if levels.len() <= lvl {
            levels.resize_with(lvl + 1, Vec::new);
        }
        levels[lvl].push(i as u32);
        level_of.push(lvl as u32);
        for &r in &acc.reads {
            last_read_level[r as usize] = last_read_level[r as usize].max(lvl as i64 + 1);
        }
        for &w in &acc.writes {
            last_write_level[w as usize] = lvl as i64 + 1;
        }
    }
    Wavefronts { levels, level_of }
}

/// Shared element view handed to wavefront loop bodies: per-element cell
/// access, sound because iterations within one level touch disjoint
/// elements (the inspector's invariant).
pub struct WfData<'a> {
    cells: &'a [std::cell::UnsafeCell<f64>],
}

unsafe impl Send for WfData<'_> {}
unsafe impl Sync for WfData<'_> {}

impl WfData<'_> {
    /// Read element `i`.
    ///
    /// Within a level, only iterations that declared `i` in their access
    /// sets may touch it; the inspector keeps conflicting iterations in
    /// different levels, so reads and writes never race.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        unsafe { *self.cells[i].get() }
    }

    /// Write element `i` (see [`WfData::get`] for the non-racing argument).
    #[inline]
    pub fn set(&self, i: usize, v: f64) {
        unsafe { *self.cells[i].get() = v }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Execute the loop level by level; iterations within a level run in
/// parallel on `threads` threads.  The body receives the iteration index
/// and a [`WfData`] element view; disjointness within a level is
/// guaranteed by the inspector.
pub fn execute<F>(wf: &Wavefronts, data: &mut [f64], threads: usize, body: &F)
where
    F: Fn(usize, &WfData<'_>) + Sync,
{
    assert!(threads >= 1);
    // SAFETY: `&mut [f64]` and `&[UnsafeCell<f64>]` have identical layout;
    // exclusive access is handed to the cells for the duration.
    let cells = unsafe { &*(data as *mut [f64] as *const [std::cell::UnsafeCell<f64>]) };
    let view = WfData { cells };
    let view = &view;
    for level in &wf.levels {
        std::thread::scope(|s| {
            for t in 0..threads {
                let chunk: Range<usize> =
                    level.len() * t / threads..level.len() * (t + 1) / threads;
                let level = &level[chunk];
                s.spawn(move || {
                    for &i in level {
                        body(i as usize, view);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(reads: &[u32], writes: &[u32]) -> IterAccess {
        IterAccess {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn independent_iterations_form_one_level() {
        let accs: Vec<IterAccess> = (0..16).map(|i| acc(&[], &[i])).collect();
        let wf = inspect(16, &accs);
        assert_eq!(wf.depth(), 1);
        assert_eq!(wf.levels[0].len(), 16);
        assert_eq!(wf.parallelism(), 16.0);
    }

    #[test]
    fn chain_is_fully_sequential() {
        // i reads i-1's output.
        let accs: Vec<IterAccess> = (0..8)
            .map(|i| {
                if i == 0 {
                    acc(&[], &[0])
                } else {
                    acc(&[i - 1], &[i])
                }
            })
            .collect();
        let wf = inspect(8, &accs);
        assert_eq!(wf.depth(), 8);
        for (i, &l) in wf.level_of.iter().enumerate() {
            assert_eq!(l as usize, i);
        }
    }

    #[test]
    fn diamond_dependences() {
        // 0 writes a; 1 and 2 read a, write b/c; 3 reads b and c.
        let accs = vec![
            acc(&[], &[0]),
            acc(&[0], &[1]),
            acc(&[0], &[2]),
            acc(&[1, 2], &[3]),
        ];
        let wf = inspect(4, &accs);
        assert_eq!(wf.depth(), 3);
        assert_eq!(wf.level_of, vec![0, 1, 1, 2]);
    }

    #[test]
    fn anti_and_output_dependences_order_levels() {
        // 0 reads x; 1 writes x (anti: must come after 0's level).
        let accs = vec![acc(&[5], &[0]), acc(&[], &[5])];
        let wf = inspect(8, &accs);
        assert!(wf.level_of[1] > wf.level_of[0]);
        // Output: two writes to the same element.
        let accs = vec![acc(&[], &[5]), acc(&[], &[5])];
        let wf = inspect(8, &accs);
        assert!(wf.level_of[1] > wf.level_of[0]);
    }

    #[test]
    fn execute_matches_sequential_sweep() {
        // A wavefront-friendly stencil: x[i] += x[i-4] over a ring,
        // expressed with explicit accesses.
        let n = 64;
        let accs: Vec<IterAccess> = (0..n)
            .map(|i| {
                if i < 4 {
                    acc(&[], &[i as u32])
                } else {
                    acc(&[(i - 4) as u32], &[i as u32])
                }
            })
            .collect();
        let wf = inspect(n, &accs);
        assert!(wf.depth() < n, "parallelism exists");
        let body = |i: usize, data: &WfData<'_>| {
            if i < 4 {
                data.set(i, i as f64 + 1.0);
            } else {
                data.set(i, data.get(i - 4) * 2.0);
            }
        };
        let mut seq = vec![0.0; n];
        {
            let cells = unsafe {
                &*(seq.as_mut_slice() as *mut [f64] as *const [std::cell::UnsafeCell<f64>])
            };
            let view = WfData { cells };
            for i in 0..n {
                body(i, &view);
            }
        }
        let mut par = vec![0.0; n];
        execute(&wf, &mut par, 4, &body);
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_loop() {
        let wf = inspect(8, &[]);
        assert_eq!(wf.depth(), 0);
        assert_eq!(wf.parallelism(), 0.0);
        let mut data = vec![0.0; 8];
        execute(&wf, &mut data, 2, &|_, _: &WfData<'_>| {
            panic!("no iterations")
        });
    }
}

//! Reusable f32 workspace buffers for the execution hot path.
//!
//! Every SpMM execution needs two large transient buffers — the output
//! C and the converted-B panel scratch — whose sizes repeat from call
//! to call in steady-state serving. A [`WorkspacePool`] keeps returned
//! buffers on a shelf so the next acquisition touches no memory at
//! all: a warm server performs **zero** per-request C/scratch
//! allocations, observable through [`WorkspacePool::stats`] (and the
//! global `pool.hits` / `pool.misses` counters when tracing is on).
//! A reused buffer keeps whatever its last holder wrote: every caller
//! overwrites the whole slice (the grid stores C, panelization writes
//! the scratch), so re-zeroing would be a wasted pass over memory.
//!
//! Every slice the pool hands out starts on a 64-byte cache line, on
//! hits and misses alike, so the vector-row microkernels' 16-lane B
//! loads never straddle two lines because of where the allocator
//! happened to place the buffer (DESIGN.md §11).

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use jigsaw_obs::Counter;

use crate::fault::{self, points};
use crate::sync::lock_recover;

/// Default number of buffers a pool retains.
const DEFAULT_MAX_RETAINED: usize = 16;

/// Byte alignment of every slice an [`AlignedBuf`] (and so every
/// [`PoolBuf`]) exposes: one cache line.
pub(crate) const ALIGN_BYTES: usize = 64;

/// Spare floats reserved so an aligned start always fits: a
/// `Vec<f32>` is 4-byte aligned, so its first line boundary lies at
/// most 15 floats in. At most 60 bytes per buffer.
const ALIGN_SLACK: usize = ALIGN_BYTES / 4 - 1;

/// f32 storage whose slice starts on an [`ALIGN_BYTES`] boundary: a
/// plain `Vec` whose first `off` floats (before its first line
/// boundary) are skipped and whose slice is the `len` floats after
/// them. The `Vec` keeps its whole initialized length, so reusing it
/// for any length that fits touches no memory. The one aligned-buffer
/// implementation: the pool shelves its `Vec`s, and
/// [`crate::CompiledKernel::execute_opts`] allocates through it.
#[derive(Debug, Default)]
pub(crate) struct AlignedBuf {
    buf: Vec<f32>,
    off: usize,
    len: usize,
}

impl AlignedBuf {
    /// A freshly allocated zeroed aligned slice of `len` floats.
    pub(crate) fn zeroed(len: usize) -> AlignedBuf {
        // `vec!` of zeros allocates pre-zeroed memory.
        let padded = len
            .checked_add(ALIGN_SLACK)
            .expect("buffer length fits in usize");
        let buf = vec![0.0f32; padded];
        let off = lead(&buf);
        AlignedBuf { buf, off, len }
    }

    /// `buf`'s allocation as an aligned slice of `len` floats, holding
    /// whatever its last holder wrote. `buf` must [`fits`] `len`, so
    /// nothing reallocates and the start stays where `lead` found it.
    fn reuse(buf: Vec<f32>, len: usize) -> AlignedBuf {
        debug_assert!(fits(&buf, len));
        let off = lead(&buf);
        AlignedBuf { buf, off, len }
    }

    /// The contents as a plain `Vec` (shifted to its start when the
    /// aligned slice did not begin there).
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        self.buf.truncate(self.off + self.len);
        self.buf.drain(..self.off);
        self.buf
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// Floats from `buf`'s start to its first [`ALIGN_BYTES`] boundary.
fn lead(buf: &[f32]) -> usize {
    buf.as_ptr().align_offset(ALIGN_BYTES)
}

/// Whether `buf` holds `len` initialized floats from its first line
/// boundary. An unallocated `Vec` fits nothing: its dangling pointer
/// would move on the first write.
fn fits(buf: &[f32], len: usize) -> bool {
    !buf.is_empty() && lead(buf) + len <= buf.len()
}

/// Snapshot of a pool's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions satisfied by a shelved buffer of sufficient
    /// capacity (no allocation).
    pub hits: u64,
    /// Acquisitions that had to allocate or grow a buffer.
    pub misses: u64,
    /// Buffers currently shelved.
    pub resident: usize,
}

impl PoolStats {
    /// Hit fraction of all acquisitions (0 when nothing was acquired).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe shelf of reusable `Vec<f32>` buffers.
///
/// Acquire with [`WorkspacePool::acquire`]; the returned [`PoolBuf`]
/// starts on a 64-byte cache line, holds unspecified contents (the
/// caller overwrites it), and hands its storage back on drop. Capacity-based matching means one pool serves mixed
/// sizes (different models, different batch widths): a buffer big
/// enough for the largest request satisfies every smaller one without
/// reallocating.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    shelf: Mutex<Vec<Vec<f32>>>,
    max_retained: usize,
    hits: Counter,
    misses: Counter,
}

impl WorkspacePool {
    /// A pool retaining up to a default number of buffers.
    pub fn new() -> WorkspacePool {
        Self::with_max_retained(DEFAULT_MAX_RETAINED)
    }

    /// A pool retaining up to `max_retained` returned buffers; further
    /// returns are dropped (freed) instead of shelved.
    pub fn with_max_retained(max_retained: usize) -> WorkspacePool {
        WorkspacePool {
            shelf: Mutex::new(Vec::new()),
            max_retained,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Acquires a buffer of exactly `len` elements whose first element
    /// sits on a 64-byte (cache-line) boundary. Its contents are
    /// unspecified: a miss is zeroed by the allocation, a hit holds
    /// whatever its previous holder wrote. Every caller must overwrite
    /// the slice before reading it.
    ///
    /// A shelved buffer that already holds `len` floats past its first
    /// line boundary is a *hit* (neither reallocated nor cleared);
    /// anything else is a *miss* that allocates `len` plus at most 15
    /// floats of alignment slack. Matching is best-fit — the smallest
    /// adequate buffer is taken — so a small acquisition (C) never
    /// consumes the shelf's large buffer (scratch) and forces the next
    /// large acquisition to reallocate. Mirrored onto the global
    /// `pool.hits` / `pool.misses` counters when `jigsaw_obs` tracing
    /// is enabled.
    pub fn acquire(&self, len: usize) -> PoolBuf<'_> {
        fault::trip(points::POOL_ACQUIRE);
        let reused = {
            let mut shelf = lock_recover(&self.shelf);
            let found = shelf
                .iter()
                .enumerate()
                .filter(|(_, b)| fits(b, len))
                .min_by_key(|(_, b)| b.len())
                .map(|(i, _)| i);
            found.map(|i| shelf.swap_remove(i))
        };
        let hit = reused.is_some();
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        if jigsaw_obs::enabled() {
            jigsaw_obs::global()
                .counter(if hit { "pool.hits" } else { "pool.misses" })
                .inc();
        }
        let buf = match reused {
            Some(buf) => AlignedBuf::reuse(buf, len),
            None => AlignedBuf::zeroed(len),
        };
        PoolBuf { buf, pool: self }
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            resident: lock_recover(&self.shelf).len(),
        }
    }

    /// Overwrites every float of every shelved buffer with `bits`, so a
    /// test can check that callers never read what they did not write.
    #[cfg(test)]
    pub(crate) fn fill_shelved(&self, bits: u32) {
        for buf in lock_recover(&self.shelf).iter_mut() {
            buf.fill(f32::from_bits(bits));
        }
    }

    // `lock_recover` matters here specifically: PoolBuf returns its
    // storage from Drop, which also runs mid-unwind — a poisoned shelf
    // must not turn one panic into a double panic (abort).
    fn give_back(&self, buf: Vec<f32>) {
        let mut shelf = lock_recover(&self.shelf);
        if shelf.len() < self.max_retained {
            shelf.push(buf);
        }
    }
}

/// A pooled buffer; derefs to a 64-byte-aligned `[f32]` of unspecified
/// contents (see [`WorkspacePool::acquire`]) and returns
/// its storage to the pool on drop. Use [`PoolBuf::into_vec`] to keep
/// the storage instead (counts as permanently borrowing it from the
/// pool).
#[derive(Debug)]
pub struct PoolBuf<'p> {
    buf: AlignedBuf,
    pool: &'p WorkspacePool,
}

impl PoolBuf<'_> {
    /// Detaches the buffer from the pool, keeping its contents (the
    /// returned `Vec` carries no alignment promise).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.buf).into_vec()
    }
}

impl Deref for PoolBuf<'_> {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for PoolBuf<'_> {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for PoolBuf<'_> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf.buf);
        if buf.capacity() > 0 {
            self.pool.give_back(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_acquire_misses_then_hits() {
        let pool = WorkspacePool::new();
        {
            let mut b = pool.acquire(128);
            b[0] = 3.0;
        }
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                resident: 1
            }
        );
        {
            let b = pool.acquire(100);
            assert_eq!(b.len(), 100);
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn too_small_shelved_buffer_is_a_miss() {
        let pool = WorkspacePool::new();
        drop(pool.acquire(16));
        let b = pool.acquire(1024);
        assert_eq!(b.len(), 1024);
        let s = pool.stats();
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn best_fit_keeps_mixed_size_pairs_allocation_free() {
        // The execute_pooled pattern: every call acquires a small C
        // then a large scratch. First-fit would hand the large buffer
        // to the small request and re-allocate the large one forever;
        // best-fit reaches steady state after the cold call.
        let pool = WorkspacePool::new();
        for _ in 0..4 {
            let c = pool.acquire(100);
            let scratch = pool.acquire(1000);
            drop(scratch);
            drop(c);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 2, "only the cold call allocates: {s:?}");
        assert_eq!(s.hits, 6);
    }

    #[test]
    fn retention_is_bounded() {
        let pool = WorkspacePool::with_max_retained(2);
        let a = pool.acquire(8);
        let b = pool.acquire(8);
        let c = pool.acquire(8);
        drop(a);
        drop(b);
        drop(c);
        assert_eq!(pool.stats().resident, 2, "third return is dropped");
    }

    #[test]
    fn into_vec_detaches_storage() {
        let pool = WorkspacePool::new();
        let v = pool.acquire(4).into_vec();
        assert_eq!(v.len(), 4);
        assert_eq!(pool.stats().resident, 0, "detached buffer never returns");
    }

    /// Lengths around the 16-float line (0, 1, 15, 17) and the largest
    /// kernel_sweep scratch (K = 4096, N = 256), which the allocator
    /// serves from its own mapping rather than the heap.
    const LENS: [usize; 5] = [0, 1, 15, 17, 4096 * 256];

    fn line_aligned(b: &[f32]) -> bool {
        (b.as_ptr() as usize).is_multiple_of(ALIGN_BYTES)
    }

    /// Asserts `b` is a line-aligned slice of `len` floats, then writes
    /// all of it, as every caller does.
    fn check_fresh(b: &mut [f32], len: usize) {
        assert_eq!(b.len(), len);
        assert!(line_aligned(b), "len {len} at {:p}", b.as_ptr());
        b.fill(7.0);
    }

    #[test]
    fn every_acquire_is_line_aligned() {
        let pool = WorkspacePool::new();
        // Cold: every acquisition misses (all are held at once).
        let mut held: Vec<PoolBuf<'_>> = LENS.iter().map(|&len| pool.acquire(len)).collect();
        for (b, &len) in held.iter_mut().zip(&LENS) {
            check_fresh(b, len);
        }
        drop(held);
        assert_eq!(pool.stats().misses, LENS.len() as u64);
        // Warm: the same lengths, largest first, all hit their own
        // (dirtied) buffers.
        for &len in LENS.iter().rev() {
            check_fresh(&mut pool.acquire(len), len);
        }
        let s = pool.stats();
        assert_eq!(s.misses, LENS.len() as u64, "warm pool only hits: {s:?}");

        // One shelved buffer serves every shorter length, each still
        // starting on the line.
        let one = WorkspacePool::with_max_retained(1);
        drop(one.acquire(4096 * 256));
        for len in [4096 * 256 - 5, 4096 * 64 + 3, 31, 16, 1, 0] {
            check_fresh(&mut one.acquire(len), len);
        }
        assert_eq!(one.stats().misses, 1);
    }

    #[test]
    fn mixed_size_sequences_stay_aligned_and_warm_pools_only_hit() {
        // (C, scratch) pairs of a serve mix: widths on and off the
        // 16-float grid, smaller and larger than what came before.
        let pairs = [
            (100, 1000),
            (37, 4096),
            (1, 17),
            (512 * 64, 2048 * 64),
            (2048 * 13, 512 * 13),
            (0, 15),
        ];
        let pool = WorkspacePool::new();
        for round in 0..3 {
            let misses = pool.stats().misses;
            for &(c_len, s_len) in &pairs {
                let mut c = pool.acquire(c_len);
                let mut scratch = pool.acquire(s_len);
                check_fresh(&mut c, c_len);
                check_fresh(&mut scratch, s_len);
            }
            if round > 0 {
                let s = pool.stats();
                assert_eq!(s.misses, misses, "round {round} allocated: {s:?}");
            }
        }
    }

    #[test]
    fn into_vec_keeps_the_contents() {
        let pool = WorkspacePool::new();
        for pass in ["miss", "hit"] {
            for &len in &LENS {
                let mut b = pool.acquire(len);
                for (i, v) in b.iter_mut().enumerate() {
                    *v = i as f32;
                }
                let want: Vec<f32> = (0..len).map(|i| i as f32).collect();
                assert_eq!(b.into_vec(), want, "{pass} len {len}");
                // Shelve a buffer of this length for the hit pass.
                drop(pool.acquire(len));
            }
        }
        let mut b = AlignedBuf::zeroed(4096 * 256);
        b[4096 * 256 - 1] = 1.0;
        let v = b.into_vec();
        assert_eq!((v.len(), v[4096 * 256 - 1]), (4096 * 256, 1.0));
    }
}

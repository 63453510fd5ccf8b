//! The microkernel dispatch layer: a registry of named axpy variants
//! with runtime ISA detection, a typed selection policy, and
//! per-variant poisoning for the resilience ladder.
//!
//! [`CompiledKernel::execute_prepaneled_into_opts`](super::CompiledKernel::execute_prepaneled_into_opts)
//! resolves one [`Selection`] per execution through [`select`].
//! Selection is governed by the single typed [`KernelPolicy`] on
//! [`ExecOptions`]:
//!
//! 1. [`KernelPolicy::Forced`] — an explicit per-call/per-model pin,
//! 2. [`KernelPolicy::Auto`] — the widest available, un-poisoned ISA
//!    (avx512f → avx2_fma → neon → scalar).
//!
//! A forced variant whose ISA is absent (or which has been poisoned)
//! **falls back cleanly** to the auto ladder — never a panic, always a
//! correct product — and bumps `kernel.forced_fallbacks`. Poisoning a
//! variant ([`poison`], used by the serve degradation ladder after a
//! caught panic) removes it from selection process-wide and bumps
//! `degrade.kernel.<name>`; the scalar floor can never be poisoned.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

use super::kernels_scalar::axpy_group_scalar;
use super::GROUP_ROWS;

/// Microkernel signature: a panel's vector-row groups two at a time
/// (`second` is `None` for a panel's last, odd group), each against the
/// same converted B panel. Every variant **overwrites** each group's
/// rectangle of C: its accumulators start at zero and are stored once,
/// so an empty stream stores zeros.
///
/// # Safety
///
/// Every column of every group's stream must be below `slab.k`, the
/// number of B rows the slab holds. The grid's streams come from
/// [`CompiledKernel`](super::CompiledKernel), whose compilation rejects
/// any column at or past its `k` and records the stream's column bound;
/// the grid checks, once per call, that B was cut for that `k` and
/// holds that bound. The remaining slice conditions are checked per
/// call by [`assert_group_args`].
pub(crate) type AxpyFn = unsafe fn(Group<'_>, Option<Group<'_>>, Slab<'_>);

/// One vector-row group's operands for a microkernel call: its C
/// rectangle, its `h` rows' values interleaved per nonzero
/// (`vals[i * h + r]` is row `r`'s value at `cols[i]`), and the shared
/// column stream, whose entries are B rows of the slab.
#[derive(Debug)]
pub(crate) struct Group<'a> {
    pub(crate) c: GroupC<'a>,
    pub(crate) vals: &'a [f32],
    pub(crate) cols: &'a [u32],
}

/// One converted B panel: `k` rows of `w` floats, row `r` at
/// `data[r·w..][..w]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slab<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) k: usize,
    pub(crate) w: usize,
}

/// The C side of one microkernel call: the `h` rows of one vector-row
/// group, cut down to one B panel's `w` columns. Row `r` is the `w`
/// floats starting `r · ldc` into the borrowed tail of C, so
/// consecutive rows never overlap (`w <= ldc`). The execution grid
/// builds one per group and panel.
#[derive(Debug)]
pub(crate) struct GroupC<'a> {
    base: *mut f32,
    ldc: usize,
    h: usize,
    w: usize,
    _rows: PhantomData<&'a mut [f32]>,
}

impl<'a> GroupC<'a> {
    /// The `h × w` rectangle whose row `r` is `c[r·ldc..][..w]`, where
    /// `c` is C from the group's first element on. Asserts `1 <= h <=
    /// GROUP_ROWS`, non-overlapping rows, and that the extent
    /// `(h−1)·ldc + w` stays inside `c`.
    pub(crate) fn new(c: &'a mut [f32], ldc: usize, h: usize, w: usize) -> GroupC<'a> {
        assert!((1..=GROUP_ROWS).contains(&h), "group height {h}");
        assert!(h == 1 || w <= ldc, "group rows overlap");
        assert!((h - 1) * ldc + w <= c.len(), "group extent in C");
        GroupC {
            base: c.as_mut_ptr(),
            ldc,
            h,
            w,
            _rows: PhantomData,
        }
    }

    /// Rows in the group (`h`).
    pub(crate) fn rows(&self) -> usize {
        self.h
    }

    /// Columns per row (`w`, the B panel width).
    pub(crate) fn width(&self) -> usize {
        self.w
    }

    /// Row `r` as an exclusive slice, for kernels that apply the group
    /// row by row.
    pub(crate) fn row(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.h);
        // SAFETY: the constructor proved row `r` lies inside the
        // exclusively borrowed `c`; `&mut self` makes the slice unique.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(r * self.ldc), self.w) }
    }

    /// Raw pointer to column `start` of row `r`, for the
    /// register-blocked kernels (which stay inside `w` columns).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn row_ptr(&mut self, r: usize, start: usize) -> *mut f32 {
        assert!(r < self.h && start <= self.w);
        // SAFETY: in bounds of row `r` per the constructor's extent check.
        unsafe { self.base.add(r * self.ldc + start) }
    }
}

/// The entry assertions every variant's wrapper makes once per group
/// call, all O(1): `h` values per shared column, a group as wide as the
/// panel, and a slab that holds `k` rows of that width. With
/// [`GroupC`]'s own extent check and the [`AxpyFn`] contract (every
/// column below `k`, established when the stream was compiled and
/// checked against B by the grid) these are all the raw-pointer
/// kernels rely on.
pub(crate) fn assert_group_args(g: &Group<'_>, slab: &Slab<'_>) {
    assert_eq!(g.vals.len(), g.c.h * g.cols.len(), "h values per column");
    assert_eq!(g.c.w, slab.w, "group as wide as the panel");
    assert!(slab.data.len() >= slab.k * slab.w, "slab holds k rows");
    debug_assert!(
        g.cols.iter().all(|&col| (col as usize) < slab.k),
        "B row in slab"
    );
}

/// The named microkernel variants of the dispatch registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Sequential f32 adds, one row at a time — the semantic reference
    /// and the un-poisonable floor.
    Scalar,
    /// 8-lane AVX2 with fused multiply-adds (x86-64): each group's
    /// rows held in a register block of `⌈8 / h⌉` YMM per row (12 for
    /// a single row).
    Avx2Fma,
    /// 16-lane AVX-512F with fused multiply-adds (x86-64): each group's
    /// rows held in a register block of `16 / h` ZMM per row; on a
    /// panel at most 16 wide, two groups share one block.
    Avx512f,
    /// 4×f32x4 NEON with fused multiply-adds (aarch64), row by row.
    Neon,
}

/// Every variant the registry knows, in auto-selection preference
/// order: one kernel per ISA, then the [`KernelKind::Scalar`] floor.
pub const ALL_KERNELS: [KernelKind; 4] = [
    KernelKind::Avx512f,
    KernelKind::Avx2Fma,
    KernelKind::Neon,
    KernelKind::Scalar,
];

impl KernelKind {
    /// Stable registry name (used in counters and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2Fma => "avx2_fma",
            KernelKind::Avx512f => "avx512f",
            KernelKind::Neon => "neon",
        }
    }

    /// The variant whose [`KernelKind::name`] is `s` (bench rows name
    /// variants this way).
    pub fn parse(s: &str) -> Option<KernelKind> {
        ALL_KERNELS.into_iter().find(|kind| kind.name() == s)
    }

    /// True when the running host can execute this variant right now.
    pub fn available(self) -> bool {
        match self {
            KernelKind::Scalar => true,
            KernelKind::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelKind::Avx512f => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelKind::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    fn poison_slot(self) -> usize {
        match self {
            KernelKind::Scalar => 0,
            KernelKind::Avx2Fma => 1,
            KernelKind::Avx512f => 2,
            KernelKind::Neon => 3,
        }
    }

    /// The variant's axpy function (callers must have verified
    /// [`KernelKind::available`]; the scalar floor backs the rest).
    fn axpy(self) -> AxpyFn {
        match self {
            KernelKind::Scalar => axpy_group_scalar,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2Fma => super::kernels_x86::axpy_group_avx2,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512f => super::kernels_x86::axpy_group_avx512,
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => super::kernels_aarch64::axpy_group_neon,
            // Cross-compiled-out ISAs resolve through the auto ladder,
            // never through this arm.
            #[allow(unreachable_patterns)]
            _ => axpy_group_scalar,
        }
    }
}

/// How [`select`] picks the variant that executes (see the module docs
/// for the precedence).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// Static widest-ISA ladder.
    #[default]
    Auto,
    /// Pin one named variant. An unavailable or poisoned pin falls
    /// back to the auto ladder (correct results, counted on
    /// `kernel.forced_fallbacks`) — except [`KernelKind::Scalar`],
    /// which is always honored.
    Forced(KernelKind),
}

/// Execution options threaded from the public API ([`crate::JigsawSpmm`],
/// the serve registry's per-model configuration) down to [`select`]:
/// the selection policy. Build with `ExecOptions::from(policy)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOptions {
    policy: KernelPolicy,
}

impl ExecOptions {
    /// The forced-scalar options of the degradation ladder's floor
    /// rung: bit-identical to `execute_fast`, never falls back.
    pub fn scalar() -> ExecOptions {
        ExecOptions::from(KernelPolicy::Forced(KernelKind::Scalar))
    }

    /// The variant pinned by a [`KernelPolicy::Forced`] policy, if any.
    pub fn forced_kernel(&self) -> Option<KernelKind> {
        match self.policy {
            KernelPolicy::Forced(kind) => Some(kind),
            KernelPolicy::Auto => None,
        }
    }
}

impl From<KernelPolicy> for ExecOptions {
    fn from(policy: KernelPolicy) -> ExecOptions {
        ExecOptions { policy }
    }
}

/// Process-wide per-variant poison flags (index = `poison_slot`).
static POISONED: [AtomicBool; 4] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

/// Marks one variant unusable process-wide (sticky until
/// [`unpoison_all`]); the serve ladder calls this after catching a
/// panic out of the variant. Poisoning the scalar floor is ignored —
/// selection must always terminate at a usable kernel.
pub fn poison(kind: KernelKind) {
    if kind == KernelKind::Scalar {
        return;
    }
    if !POISONED[kind.poison_slot()].swap(true, Ordering::Relaxed) {
        let reg = jigsaw_obs::global();
        reg.counter("degrade.fallbacks").inc();
        reg.counter(match kind {
            KernelKind::Avx2Fma => "degrade.kernel.avx2_fma",
            KernelKind::Avx512f => "degrade.kernel.avx512f",
            KernelKind::Neon => "degrade.kernel.neon",
            KernelKind::Scalar => unreachable!("scalar is never poisoned"),
        })
        .inc();
    }
}

/// True when [`poison`] has marked the variant unusable.
pub fn is_poisoned(kind: KernelKind) -> bool {
    POISONED[kind.poison_slot()].load(Ordering::Relaxed)
}

/// Clears every poison flag (tests and operator resets).
pub fn unpoison_all() {
    for flag in &POISONED {
        flag.store(false, Ordering::Relaxed);
    }
}

/// Variants the running host can execute right now (detection only;
/// poisoning is a separate, resettable axis).
pub fn available_kernels() -> Vec<KernelKind> {
    ALL_KERNELS.into_iter().filter(|k| k.available()).collect()
}

/// One resolved selection: which variant runs and the axpy that
/// executes it.
#[derive(Clone, Copy, Debug)]
pub struct Selection {
    /// The variant that will run (after any fallback).
    pub kind: KernelKind,
    pub(crate) axpy: AxpyFn,
}

/// Widest available un-poisoned ISA kernel (the auto ladder's floor is
/// the scalar kernel, which is always available and never poisoned).
fn auto_kind() -> KernelKind {
    for kind in [KernelKind::Avx512f, KernelKind::Avx2Fma, KernelKind::Neon] {
        if kind.available() && !is_poisoned(kind) {
            return kind;
        }
    }
    KernelKind::Scalar
}

/// Resolves `opts` to the microkernel that will execute, falling back
/// cleanly when a forced variant is absent or poisoned.
pub fn select(opts: &ExecOptions) -> Selection {
    let kind = match opts.policy {
        KernelPolicy::Auto => auto_kind(),
        KernelPolicy::Forced(KernelKind::Scalar) => KernelKind::Scalar,
        KernelPolicy::Forced(k) if k.available() && !is_poisoned(k) => k,
        KernelPolicy::Forced(_) => {
            // Absent ISA or poisoned variant: fall back, never fail.
            if jigsaw_obs::enabled() {
                jigsaw_obs::global()
                    .counter("kernel.forced_fallbacks")
                    .inc();
            }
            auto_kind()
        }
    };
    Selection {
        kind,
        axpy: kind.axpy(),
    }
}

/// The variant [`select`] would run for `opts` — what the serve ladder
/// poisons after catching a panic out of an execution.
pub fn selected_kind(opts: &ExecOptions) -> KernelKind {
    select(opts).kind
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global poison flags.
    static POISON_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn names_round_trip() {
        for kind in ALL_KERNELS {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(KernelKind::parse("mma.sp"), None);
    }

    #[test]
    fn forced_absent_isa_falls_back_cleanly() {
        // At most one of NEON / AVX-512 is available on any host, so
        // one of these forces must fall back — and both must resolve
        // to *some* usable kernel without panicking.
        for kind in [KernelKind::Neon, KernelKind::Avx512f] {
            let sel = select(&ExecOptions::from(KernelPolicy::Forced(kind)));
            assert!(sel.kind.available(), "fell back to a runnable kernel");
        }
    }

    #[test]
    fn poisoning_removes_a_variant_from_auto_and_forced_selection() {
        let _g = POISON_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        unpoison_all();
        let auto = select(&ExecOptions::default()).kind;
        if auto == KernelKind::Scalar {
            // Scalar host: poisoning is a no-op by contract.
            poison(KernelKind::Scalar);
            assert!(!is_poisoned(KernelKind::Scalar));
            return;
        }
        poison(auto);
        assert!(is_poisoned(auto));
        let after = select(&ExecOptions::default()).kind;
        assert_ne!(after, auto, "poisoned variant is skipped");
        let forced = select(&ExecOptions::from(KernelPolicy::Forced(auto))).kind;
        assert_ne!(forced, auto, "forcing a poisoned variant falls back");
        unpoison_all();
        assert_eq!(select(&ExecOptions::default()).kind, auto);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(KernelKind::Scalar.available());
        assert!(available_kernels().contains(&KernelKind::Scalar));
    }

    #[test]
    fn forced_scalar_is_always_honored() {
        assert_eq!(select(&ExecOptions::scalar()).kind, KernelKind::Scalar);
    }
}

//! Process-wide deterministic work counters for the zero-copy IR plane.
//!
//! The paper's empirical core (Fig. 4c) is that most passes leave most
//! shaders unchanged; the engineering consequence is that the snapshot /
//! fingerprint plane should spend almost nothing discovering that. These
//! counters make the cost *observable and gateable*: every deep [`Shader`]
//! clone, every from-scratch fingerprint computation, every structural
//! equality confirmation, and every identity stage transition bumps a
//! monotonic process-global counter. They count real work only — a memoised
//! fingerprint read or an `Arc::ptr_eq` short-circuit bumps nothing — so the
//! perf gate can pin "≥30% fewer clones / hashes" as a deterministic
//! baseline instead of a wall-clock guess.
//!
//! All counters are relaxed atomics: they are statistics, not
//! synchronisation, and the gate only reads them from single-threaded
//! deterministic sweeps.
//!
//! Counters that a memo hit bumps live in a [`Striped`] set instead: each
//! thread adds into its own cache-line-aligned stripe, so concurrent hits
//! write no shared line, and a reading sums the stripes.
//!
//! [`Shader`]: crate::shader::Shader

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per [`Striped`] set. Threads take stripes round-robin in the
/// order they first count, so up to this many threads never share one.
const STRIPES: usize = 16;

/// One thread's slice of a [`Striped`] set, alone on its cache lines: 128
/// bytes, because x86 prefetchers fetch 64-byte lines in adjacent pairs.
#[repr(align(128))]
struct Stripe<const N: usize>([AtomicUsize; N]);

/// `N` monotonic counters striped per thread: [`Striped::add`] writes only
/// the calling thread's cache-line-aligned stripe, and [`Striped::get`] sums
/// every stripe. A reading is exact once the counting threads are joined
/// (or otherwise quiescent); while they run it is a statistic, like any set
/// of relaxed atomics. Counters are named by index.
pub struct Striped<const N: usize> {
    stripes: [Stripe<N>; STRIPES],
}

impl<const N: usize> Default for Striped<N> {
    fn default() -> Self {
        Striped::new()
    }
}

impl<const N: usize> Striped<N> {
    /// `N` counters at 0.
    pub const fn new() -> Striped<N> {
        Striped {
            stripes: [const { Stripe([const { AtomicUsize::new(0) }; N]) }; STRIPES],
        }
    }

    /// Adds `n` to `counter` in the calling thread's stripe.
    #[inline]
    pub fn add(&self, counter: usize, n: usize) {
        self.stripes[stripe()].0[counter].fetch_add(n, Ordering::Relaxed);
    }

    /// `counter` summed over every stripe.
    pub fn get(&self, counter: usize) -> usize {
        self.stripes
            .iter()
            .map(|stripe| stripe.0[counter].load(Ordering::Relaxed))
            .sum()
    }
}

/// The calling thread's stripe index, taken on its first count.
#[inline]
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|stripe| *stripe)
}

/// Deep `Shader::clone` calls (the allocation the zero-copy plane avoids).
pub static IR_CLONES: AtomicU64 = AtomicU64::new(0);
/// From-scratch structural fingerprint computations (memo misses only).
pub static FINGERPRINTS_COMPUTED: AtomicU64 = AtomicU64::new(0);
/// Full structural-equality walks (`Shader::same_structure` bodies actually
/// compared; `Arc::ptr_eq` fast paths are not counted).
pub static EQUALITY_CONFIRMS: AtomicU64 = AtomicU64::new(0);
/// Stage applications whose passes all reported clean, satisfied by the O(1)
/// identity fast path (no clone, no re-fingerprint, no snapshot insert).
/// Striped: every memo-answered request can bump it.
pub static IDENTITY_TRANSITIONS: Striped<1> = Striped::new();

/// A point-in-time reading of all four counters. Subtract two snapshots to
/// attribute work to a region of a deterministic single-threaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrCounters {
    /// See [`IR_CLONES`].
    pub ir_clones: u64,
    /// See [`FINGERPRINTS_COMPUTED`].
    pub fingerprints_computed: u64,
    /// See [`EQUALITY_CONFIRMS`].
    pub equality_confirms: u64,
    /// See [`IDENTITY_TRANSITIONS`].
    pub identity_transitions: u64,
}

/// Reads all counters (relaxed; the counters are monotonic).
pub fn snapshot() -> IrCounters {
    IrCounters {
        ir_clones: IR_CLONES.load(Ordering::Relaxed),
        fingerprints_computed: FINGERPRINTS_COMPUTED.load(Ordering::Relaxed),
        equality_confirms: EQUALITY_CONFIRMS.load(Ordering::Relaxed),
        identity_transitions: IDENTITY_TRANSITIONS.get(0) as u64,
    }
}

impl IrCounters {
    /// The work performed since `earlier` (saturating, in case a counter
    /// snapshot pair is accidentally reversed).
    pub fn since(&self, earlier: &IrCounters) -> IrCounters {
        IrCounters {
            ir_clones: self.ir_clones.saturating_sub(earlier.ir_clones),
            fingerprints_computed: self
                .fingerprints_computed
                .saturating_sub(earlier.fingerprints_computed),
            equality_confirms: self
                .equality_confirms
                .saturating_sub(earlier.equality_confirms),
            identity_transitions: self
                .identity_transitions
                .saturating_sub(earlier.identity_transitions),
        }
    }
}

#[inline]
pub(crate) fn count_ir_clone() {
    IR_CLONES.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_fingerprint_computed() {
    FINGERPRINTS_COMPUTED.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_equality_confirm() {
    EQUALITY_CONFIRMS.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` identity stage transitions in one add. Called by the
/// session/cache layer (outside this crate), hence public.
#[inline]
pub fn count_identity_transitions(n: usize) {
    IDENTITY_TRANSITIONS.add(0, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_are_attributable() {
        let before = snapshot();
        count_ir_clone();
        count_fingerprint_computed();
        count_fingerprint_computed();
        count_identity_transitions(1);
        let after = snapshot();
        let delta = after.since(&before);
        // Other tests in this process may bump counters concurrently, so the
        // delta is a lower bound, not an exact figure.
        assert!(delta.ir_clones >= 1);
        assert!(delta.fingerprints_computed >= 2);
        assert!(delta.identity_transitions >= 1);
    }

    #[test]
    fn striped_counts_from_many_threads_sum_exactly() {
        // More threads than stripes, so some stripes are shared.
        let counters: Striped<2> = Striped::new();
        std::thread::scope(|scope| {
            for t in 0..2 * STRIPES {
                let counters = &counters;
                scope.spawn(move || {
                    for _ in 0..100 {
                        counters.add(0, 1);
                        counters.add(1, t);
                    }
                });
            }
        });
        assert_eq!(counters.get(0), 2 * STRIPES * 100);
        assert_eq!(counters.get(1), (0..2 * STRIPES).sum::<usize>() * 100);
    }

    #[test]
    fn reversed_snapshots_saturate_instead_of_wrapping() {
        let newer = IrCounters {
            ir_clones: 5,
            fingerprints_computed: 5,
            equality_confirms: 5,
            identity_transitions: 5,
        };
        let older = IrCounters::default();
        assert_eq!(older.since(&newer), IrCounters::default());
    }
}

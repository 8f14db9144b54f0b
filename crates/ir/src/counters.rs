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
//! [`Shader`]: crate::shader::Shader

use std::sync::atomic::{AtomicU64, Ordering};

/// Deep `Shader::clone` calls (the allocation the zero-copy plane avoids).
pub static IR_CLONES: AtomicU64 = AtomicU64::new(0);
/// From-scratch structural fingerprint computations (memo misses only).
pub static FINGERPRINTS_COMPUTED: AtomicU64 = AtomicU64::new(0);
/// Full structural-equality walks (`Shader::same_structure` bodies actually
/// compared; `Arc::ptr_eq` fast paths are not counted).
pub static EQUALITY_CONFIRMS: AtomicU64 = AtomicU64::new(0);
/// Stage applications whose passes all reported clean, satisfied by the O(1)
/// identity fast path (no clone, no re-fingerprint, no snapshot insert).
pub static IDENTITY_TRANSITIONS: AtomicU64 = AtomicU64::new(0);

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
        identity_transitions: IDENTITY_TRANSITIONS.load(Ordering::Relaxed),
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
    IDENTITY_TRANSITIONS.fetch_add(n as u64, Ordering::Relaxed);
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

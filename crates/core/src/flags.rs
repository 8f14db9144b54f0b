//! The eight optimization flags explored by the paper.
//!
//! LunarGlass exposes six passes via command-line flags (ADCE, Hoist, Unroll,
//! Coalesce, GVN, integer Reassociate); the paper adds two custom unsafe
//! floating-point passes (FP Reassociate and constant-division-to-
//! multiplication). With 8 flags there are 256 possible combinations, which
//! the paper explores exhaustively (§III-A).

use std::fmt;

/// One optimization flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Flag {
    /// Aggressive dead code elimination.
    Adce,
    /// Collapse per-component vector insertions into one constructor.
    Coalesce,
    /// Global value numbering.
    Gvn,
    /// Integer arithmetic reassociation (plus `f × 0` simplification).
    Reassociate,
    /// Loop unrolling for constant loop indices.
    Unroll,
    /// Flatten conditionals by turning branch assignments into selects.
    Hoist,
    /// Unsafe floating-point reassociation (factorisation, constant and
    /// scalar grouping) — the paper's custom pass.
    FpReassociate,
    /// Replace division by a constant with multiplication by its inverse —
    /// the paper's custom pass.
    DivToMul,
}

impl Flag {
    /// All eight flags, in the order used for tables and bit positions.
    pub const ALL: [Flag; 8] = [
        Flag::Adce,
        Flag::Coalesce,
        Flag::Gvn,
        Flag::Reassociate,
        Flag::Unroll,
        Flag::Hoist,
        Flag::FpReassociate,
        Flag::DivToMul,
    ];

    /// The short name used in tables (matches the paper's Table I headers).
    pub fn name(self) -> &'static str {
        match self {
            Flag::Adce => "ADCE",
            Flag::Coalesce => "Coalesce",
            Flag::Gvn => "GVN",
            Flag::Reassociate => "Reassociate",
            Flag::Unroll => "Unroll",
            Flag::Hoist => "Hoist",
            Flag::FpReassociate => "FP Reassociate",
            Flag::DivToMul => "Div to Mul",
        }
    }

    /// Bit position of the flag inside an [`OptFlags`] mask.
    pub fn bit(self) -> u8 {
        Flag::ALL
            .iter()
            .position(|f| *f == self)
            .expect("flag present in ALL") as u8
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A set of optimization flags (one of the 256 combinations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OptFlags(u8);

impl OptFlags {
    /// The empty flag set: only the always-on canonicalisation passes run.
    pub const NONE: OptFlags = OptFlags(0);

    /// Every flag enabled.
    pub fn all() -> OptFlags {
        OptFlags(0xFF)
    }

    /// The flags LunarGlass enables by default (ADCE, Hoist, Unroll, Coalesce,
    /// GVN and integer Reassociate — see §III-A); the paper's custom unsafe
    /// passes are off by default.
    pub fn lunarglass_default() -> OptFlags {
        OptFlags::from_flags(&[
            Flag::Adce,
            Flag::Hoist,
            Flag::Unroll,
            Flag::Coalesce,
            Flag::Gvn,
            Flag::Reassociate,
        ])
    }

    /// Builds a set from a list of flags.
    pub fn from_flags(flags: &[Flag]) -> OptFlags {
        let mut s = OptFlags::NONE;
        for f in flags {
            s = s.with(*f);
        }
        s
    }

    /// Builds a set from the raw 8-bit mask.
    pub fn from_bits(bits: u8) -> OptFlags {
        OptFlags(bits)
    }

    /// The raw 8-bit mask.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Returns this set with `flag` enabled.
    #[must_use]
    pub fn with(self, flag: Flag) -> OptFlags {
        OptFlags(self.0 | (1 << flag.bit()))
    }

    /// Returns this set with `flag` disabled.
    #[must_use]
    pub fn without(self, flag: Flag) -> OptFlags {
        OptFlags(self.0 & !(1 << flag.bit()))
    }

    /// Whether `flag` is enabled.
    pub fn contains(self, flag: Flag) -> bool {
        self.0 & (1 << flag.bit()) != 0
    }

    /// The enabled flags in canonical order.
    pub fn flags(self) -> Vec<Flag> {
        Flag::ALL
            .iter()
            .copied()
            .filter(|f| self.contains(*f))
            .collect()
    }

    /// Number of enabled flags.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` when no flag is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over all 256 possible flag combinations, in mask order.
    pub fn all_combinations() -> impl Iterator<Item = OptFlags> {
        (0u16..256).map(|bits| OptFlags(bits as u8))
    }

    /// The flag set containing only `flag` (used for the per-flag isolation
    /// experiments of Fig. 9).
    pub fn only(flag: Flag) -> OptFlags {
        OptFlags::NONE.with(flag)
    }
}

impl fmt::Display for OptFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        let names: Vec<&str> = self.flags().iter().map(|fl| fl.name()).collect();
        write!(f, "{}", names.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_256_combinations() {
        let all: Vec<OptFlags> = OptFlags::all_combinations().collect();
        assert_eq!(all.len(), 256);
        // All distinct.
        let mut bits: Vec<u8> = all.iter().map(|f| f.bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 256);
    }

    #[test]
    fn with_without_contains() {
        let f = OptFlags::NONE.with(Flag::Unroll).with(Flag::Gvn);
        assert!(f.contains(Flag::Unroll));
        assert!(f.contains(Flag::Gvn));
        assert!(!f.contains(Flag::Hoist));
        assert_eq!(f.len(), 2);
        let g = f.without(Flag::Gvn);
        assert!(!g.contains(Flag::Gvn));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn default_lunarglass_flags_match_paper() {
        let d = OptFlags::lunarglass_default();
        for f in [
            Flag::Adce,
            Flag::Hoist,
            Flag::Unroll,
            Flag::Coalesce,
            Flag::Gvn,
            Flag::Reassociate,
        ] {
            assert!(d.contains(f), "default should contain {f}");
        }
        assert!(!d.contains(Flag::FpReassociate));
        assert!(!d.contains(Flag::DivToMul));
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn display_forms() {
        assert_eq!(OptFlags::NONE.to_string(), "none");
        assert_eq!(OptFlags::only(Flag::Unroll).to_string(), "Unroll");
        let two = OptFlags::from_flags(&[Flag::Coalesce, Flag::DivToMul]);
        assert_eq!(two.to_string(), "Coalesce+Div to Mul");
    }

    #[test]
    fn bits_round_trip() {
        for flags in OptFlags::all_combinations() {
            assert_eq!(OptFlags::from_bits(flags.bits()), flags);
            assert_eq!(OptFlags::from_flags(&flags.flags()), flags);
        }
    }
}

//! Saturating diameter-bound arithmetic.
//!
//! Structural diameter approximation multiplies bounds by `2^k` for general
//! components, which overflows any fixed-width integer almost immediately.
//! [`Bound`] keeps the arithmetic honest: finite values saturate into
//! [`Bound::Exponential`], and the "practically useful" predicate the
//! paper's tables are built on (`d̂ < 50`) stays well-defined.

use std::fmt;

/// The paper's usefulness threshold: a bound below it is "practically
/// useful for discharging with BMC" ([`Bound::is_useful`]). The tables,
/// `diam bound` and the generators' self-checks all count against it.
pub const USEFUL_THRESHOLD: u64 = 50;

/// An upper bound on a diameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bound {
    /// A concrete bound.
    Finite(u64),
    /// Too large to represent (or provably astronomically large) —
    /// practically useless for bounding BMC.
    Exponential,
}

impl Bound {
    /// The diameter of a purely combinational netlist (Definition 3 is one
    /// greater than the classic graph diameter, and never zero).
    pub const ONE: Bound = Bound::Finite(1);

    /// Saturating addition.
    ///
    /// Deliberately *not* `std::ops::Add`: the semantics saturate into
    /// [`Bound::Exponential`], which an operator would make too easy to
    /// overlook in bound arithmetic.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Bound) -> Bound {
        match (self, rhs) {
            (Bound::Finite(a), Bound::Finite(b)) => match a.checked_add(b) {
                Some(s) => Bound::Finite(s),
                None => Bound::Exponential,
            },
            _ => Bound::Exponential,
        }
    }

    /// Saturating addition of a constant.
    #[must_use]
    pub fn add_const(self, k: u64) -> Bound {
        self.add(Bound::Finite(k))
    }

    /// Saturating multiplication (see [`Bound::add`] for why this is not
    /// `std::ops::Mul`).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Bound) -> Bound {
        match (self, rhs) {
            (Bound::Finite(a), Bound::Finite(b)) => match a.checked_mul(b) {
                Some(p) => Bound::Finite(p),
                None => Bound::Exponential,
            },
            _ => Bound::Exponential,
        }
    }

    /// Saturating multiplication by a constant.
    #[must_use]
    pub fn mul_const(self, k: u64) -> Bound {
        self.mul(Bound::Finite(k))
    }

    /// `2^k`, saturating.
    pub fn pow2(k: u64) -> Bound {
        if k >= 63 {
            Bound::Exponential
        } else {
            Bound::Finite(1u64 << k)
        }
    }

    /// The larger of two bounds.
    #[must_use]
    pub fn max(self, rhs: Bound) -> Bound {
        match (self, rhs) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.max(b)),
            _ => Bound::Exponential,
        }
    }

    /// Whether the bound is below `threshold` — the paper uses
    /// [`USEFUL_THRESHOLD`] as the cut-off for "practically useful for
    /// discharging with BMC".
    pub fn is_useful(self, threshold: u64) -> bool {
        matches!(self, Bound::Finite(v) if v < threshold)
    }

    /// The finite value, if any.
    pub fn finite(self) -> Option<u64> {
        match self {
            Bound::Finite(v) => Some(v),
            Bound::Exponential => None,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(v) => write!(f, "{v}"),
            Bound::Exponential => write!(f, "exp"),
        }
    }
}

impl From<u64> for Bound {
    fn from(v: u64) -> Bound {
        Bound::Finite(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Bound::Finite(3).add(Bound::Finite(4)), Bound::Finite(7));
        assert_eq!(Bound::Finite(u64::MAX).add_const(1), Bound::Exponential);
        assert_eq!(Bound::Finite(10).mul_const(5), Bound::Finite(50));
        assert_eq!(Bound::Finite(u64::MAX / 2).mul_const(3), Bound::Exponential);
        assert_eq!(Bound::Exponential.add_const(0), Bound::Exponential);
    }

    #[test]
    fn pow2_saturates_at_63() {
        assert_eq!(Bound::pow2(0), Bound::Finite(1));
        assert_eq!(Bound::pow2(10), Bound::Finite(1024));
        assert_eq!(Bound::pow2(62), Bound::Finite(1 << 62));
        assert_eq!(Bound::pow2(63), Bound::Exponential);
        assert_eq!(Bound::pow2(10_000), Bound::Exponential);
    }

    #[test]
    fn usefulness_threshold() {
        assert!(Bound::Finite(49).is_useful(50));
        assert!(!Bound::Finite(50).is_useful(50));
        assert!(!Bound::Exponential.is_useful(50));
    }

    #[test]
    fn ordering_puts_exponential_last() {
        assert!(Bound::Finite(u64::MAX) < Bound::Exponential);
        assert_eq!(Bound::Finite(3).max(Bound::Exponential), Bound::Exponential);
        assert_eq!(Bound::Finite(3).max(Bound::Finite(9)), Bound::Finite(9));
    }

    #[test]
    fn from_u64() {
        assert_eq!(Bound::from(7u64), Bound::Finite(7));
        let b: Bound = 0u64.into();
        assert_eq!(b, Bound::Finite(0));
    }

    #[test]
    fn display() {
        assert_eq!(Bound::Finite(42).to_string(), "42");
        assert_eq!(Bound::Exponential.to_string(), "exp");
    }
}

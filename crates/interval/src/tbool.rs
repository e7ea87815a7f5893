//! Three-valued booleans for interval comparisons (Section IV-B).
//!
//! Comparing two overlapping intervals cannot be decided, so IGen's
//! runtime models branch conditions with `tbool`: true, false, or unknown.
//! Converting an unknown to a branch decision signals an exception by
//! default (the compiler's alternative is to emit both branches and join).

/// The error signalled when a branch condition is unknown (the paper's
/// default policy for `ia_cvt2bool_tb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownBranch;

impl core::fmt::Display for UnknownBranch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "interval comparison is unknown: cannot decide branch")
    }
}

impl std::error::Error for UnknownBranch {}

/// A three-valued boolean (`tbool` in the generated C).
///
/// # Example
///
/// ```
/// use igen_interval::{F64I, TBool};
/// let a = F64I::new(0.0, 2.0).unwrap();
/// let b = F64I::new(1.0, 3.0).unwrap();
/// assert_eq!(a.cmp_lt(&b), TBool::Unknown); // [0,2] < [1,3] is undecidable
/// assert!(a.cmp_lt(&b).to_bool().is_err()); // default policy: exception
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TBool {
    /// The comparison holds for every pair of points.
    True,
    /// The comparison fails for every pair of points.
    False,
    /// Undecidable: some pairs satisfy it, some do not.
    #[default]
    Unknown,
}

impl TBool {
    /// Lifts a definite boolean.
    pub fn from_bool(b: bool) -> TBool {
        if b {
            TBool::True
        } else {
            TBool::False
        }
    }

    /// Converts to a branch decision — the `ia_cvt2bool_tb` of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownBranch`] when the value is [`TBool::Unknown`].
    pub fn to_bool(self) -> Result<bool, UnknownBranch> {
        match self {
            TBool::True => Ok(true),
            TBool::False => Ok(false),
            TBool::Unknown => Err(UnknownBranch),
        }
    }

    /// Kleene three-valued negation (named after the runtime's
    /// `ia_not_tb`; `std::ops::Not` is also implemented and forwards
    /// here).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> TBool {
        match self {
            TBool::True => TBool::False,
            TBool::False => TBool::True,
            TBool::Unknown => TBool::Unknown,
        }
    }

    /// Kleene three-valued conjunction.
    #[must_use]
    pub fn and(self, other: TBool) -> TBool {
        match (self, other) {
            (TBool::False, _) | (_, TBool::False) => TBool::False,
            (TBool::True, TBool::True) => TBool::True,
            _ => TBool::Unknown,
        }
    }

    /// Kleene three-valued disjunction.
    #[must_use]
    pub fn or(self, other: TBool) -> TBool {
        match (self, other) {
            (TBool::True, _) | (_, TBool::True) => TBool::True,
            (TBool::False, TBool::False) => TBool::False,
            _ => TBool::Unknown,
        }
    }

    /// True iff definitely true.
    pub fn is_true(self) -> bool {
        self == TBool::True
    }

    /// True iff definitely false.
    pub fn is_false(self) -> bool {
        self == TBool::False
    }

    /// True iff undecidable.
    pub fn is_unknown(self) -> bool {
        self == TBool::Unknown
    }
}

impl core::fmt::Display for TBool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TBool::True => write!(f, "true"),
            TBool::False => write!(f, "false"),
            TBool::Unknown => write!(f, "unknown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kleene_truth_tables() {
        use TBool::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
    }

    #[test]
    fn conversion_policy() {
        assert_eq!(TBool::True.to_bool(), Ok(true));
        assert_eq!(TBool::False.to_bool(), Ok(false));
        assert_eq!(TBool::Unknown.to_bool(), Err(UnknownBranch));
        assert_eq!(TBool::from_bool(true), TBool::True);
    }

    #[test]
    fn overlapping_comparison_signals_on_conversion() {
        let a = crate::F64I::new(0.0, 2.0).unwrap();
        let b = crate::F64I::new(1.0, 3.0).unwrap();
        assert_eq!(a.cmp_gt(&b).to_bool(), Err(UnknownBranch));
    }

    #[test]
    fn de_morgan_holds() {
        use TBool::*;
        for a in [True, False, Unknown] {
            for b in [True, False, Unknown] {
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.or(b).not(), a.not().and(b.not()));
            }
        }
    }
}

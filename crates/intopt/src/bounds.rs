//! The exact [`Interval`] arithmetic the triplet encoder infers
//! helper-variable ranges with.

/// A closed integer interval `[lo, hi]` with exact (tightest-possible)
/// interval arithmetic.
///
/// This is the range algebra behind the paper's "appropriate ranges … from
/// the ranges of the subexpressions": the triplet encoder infers every
/// helper variable's bit-width from the interval computed bottom-up over
/// its defining expression, so each operation here must return exactly
/// `{a ⊗ b | a ∈ self, b ∈ other}`'s convex hull — a looser result wastes
/// encoding bits, a tighter one makes the encoding unsound.
///
/// Arithmetic is plain (non-saturating) `i64`: the encoder only ever feeds
/// ranges derived from validated instance data, far from overflow.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower end.
    pub lo: i64,
    /// Inclusive upper end.
    pub hi: i64,
}

// The arithmetic methods intentionally mirror the `IntExpr` node names
// (`add`/`neg`/`mul`/…) rather than the operator traits, so the blaster's
// per-node range computation reads 1:1 against the expression walker.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The interval `[lo, hi]`; requires `lo ≤ hi`.
    pub fn new(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The one-point interval `[v, v]`.
    pub fn singleton(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `true` if `v` lies in the interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Pointwise sum: `[a+c, b+d]`.
    pub fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo + o.lo, self.hi + o.hi)
    }

    /// Pointwise negation: `-[a, b] = [-b, -a]`.
    pub fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }

    /// Pointwise difference, via `self + (-o)`.
    pub fn sub(self, o: Interval) -> Interval {
        self.add(o.neg())
    }

    /// Pointwise product. Multiplication is monotone in each operand only
    /// per sign region, so the hull is the min/max over the four corner
    /// products — the classical zero-crossing-safe rule.
    pub fn mul(self, o: Interval) -> Interval {
        let p = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval::new(
            p.iter().copied().min().unwrap(),
            p.iter().copied().max().unwrap(),
        )
    }

    /// Pointwise left shift (multiplication by `2^k`), used for power-of-two
    /// scalings without a corner scan: shifting is monotone, so the ends
    /// shift independently even across zero.
    pub fn shl(self, k: u32) -> Interval {
        Interval::new(self.lo << k, self.hi << k)
    }

    /// Number of integers in the interval (saturating).
    pub fn width(&self) -> u64 {
        self.hi.abs_diff(self.lo).saturating_add(1)
    }
}

#[cfg(test)]
mod interval_tests {
    use super::Interval;
    use proptest::prelude::*;

    /// Brute-force hull of `{f(a, b) | a ∈ x, b ∈ y}` by exhaustive
    /// enumeration — the ground truth every interval op is checked against.
    fn exhaustive_hull(x: Interval, y: Interval, f: impl Fn(i64, i64) -> i64) -> Interval {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for a in x.lo..=x.hi {
            for b in y.lo..=y.hi {
                let v = f(a, b);
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        Interval::new(lo, hi)
    }

    /// A small interval strategy that deliberately produces negative,
    /// positive and zero-crossing ranges (the sign regions where interval
    /// multiplication is easiest to get wrong).
    fn small_interval() -> impl Strategy<Value = Interval> {
        (-12i64..=12, 0i64..=9).prop_map(|(lo, w)| Interval::new(lo, lo + w))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn add_matches_exhaustive_enumeration(
            x in small_interval(), y in small_interval()
        ) {
            prop_assert_eq!(x.add(y), exhaustive_hull(x, y, |a, b| a + b));
        }

        #[test]
        fn sub_matches_exhaustive_enumeration(
            x in small_interval(), y in small_interval()
        ) {
            prop_assert_eq!(x.sub(y), exhaustive_hull(x, y, |a, b| a - b));
        }

        #[test]
        fn mul_matches_exhaustive_enumeration(
            x in small_interval(), y in small_interval()
        ) {
            // The four-corner rule must be *exactly* the enumerated hull:
            // sound (no product escapes) and tight (both ends attained).
            prop_assert_eq!(x.mul(y), exhaustive_hull(x, y, |a, b| a * b));
        }

        #[test]
        fn neg_matches_exhaustive_enumeration(x in small_interval()) {
            prop_assert_eq!(x.neg(), exhaustive_hull(x, x, |a, _| -a));
            // Involution: negating twice is the identity.
            prop_assert_eq!(x.neg().neg(), x);
        }

        #[test]
        fn shl_matches_mul_by_power_of_two(
            x in small_interval(), k in 0u32..=6
        ) {
            let pow = Interval::singleton(1i64 << k);
            prop_assert_eq!(x.shl(k), x.mul(pow));
            prop_assert_eq!(x.shl(k), exhaustive_hull(x, x, |a, _| a << k));
        }

        #[test]
        fn ops_are_sound_pointwise(
            x in small_interval(), y in small_interval()
        ) {
            // Membership closure: every concrete pair lands inside the
            // computed interval for every operator (incl. across zero).
            for a in x.lo..=x.hi {
                for b in y.lo..=y.hi {
                    prop_assert!(x.add(y).contains(a + b));
                    prop_assert!(x.sub(y).contains(a - b));
                    prop_assert!(x.mul(y).contains(a * b));
                    prop_assert!(x.neg().contains(-a));
                }
            }
        }
    }

    #[test]
    fn zero_crossing_mul_corners() {
        // Hand-picked sign-region cases: (neg × neg), (neg × pos),
        // (crossing × crossing), (crossing × neg).
        let cases = [
            (Interval::new(-5, -2), Interval::new(-7, -3), (6, 35)),
            (Interval::new(-5, -2), Interval::new(3, 7), (-35, -6)),
            (Interval::new(-4, 3), Interval::new(-2, 5), (-20, 15)),
            (Interval::new(-4, 3), Interval::new(-6, -1), (-18, 24)),
        ];
        for (x, y, (lo, hi)) in cases {
            assert_eq!(x.mul(y), Interval::new(lo, hi), "{x:?} × {y:?}");
        }
    }

    #[test]
    fn width_counts_inclusively() {
        assert_eq!(Interval::new(-3, 3).width(), 7);
        assert_eq!(Interval::singleton(9).width(), 1);
        assert_eq!(Interval::new(i64::MIN, i64::MAX).width(), u64::MAX);
    }
}

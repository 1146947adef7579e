//! The [`PathCost`] abstraction: totally ordered costs accumulated along paths.
//!
//! The exact-weight Dijkstra in `rsp-graph` is generic over the cost type so
//! that the same shortest-path engine serves all three tiebreaking weight
//! constructions of the paper:
//!
//! * Theorem 20 (random grid) and Corollary 22 (isolation lemma) scale their
//!   rational weights to integers that fit in [`u128`];
//! * Theorem 23 (deterministic geometric) needs `O(|E|)`-bit integers, i.e.
//!   [`crate::BigInt`].

use crate::BigInt;

/// Which priority-queue layout the scratch-based Dijkstra in `rsp-graph`
/// uses for a given cost type.
///
/// This is the *heap policy* of a [`PathCost`] implementation, selected at
/// compile time through [`PathCost::HEAP`]. Both layouts produce
/// byte-identical search results — same trees, costs, settle order, and tie
/// flags — they differ only in constant factors:
///
/// * [`HeapKind::InlineKey`] — a flat lazy binary heap whose entries are
///   `(cost, vertex)` pairs stored inline. No per-vertex heap-position
///   bookkeeping, no indirection through the cost array on comparisons;
///   improved keys are pushed as fresh entries and stale ones are skipped
///   at pop. The right choice when cloning a cost is a register copy
///   (`u32`/`u64`/`u128`): the decrease-key machinery of the indexed heap
///   costs more than the duplicate entries it avoids.
/// * [`HeapKind::Indexed`] — an indexed 4-ary heap with decrease-key: the
///   heap stores vertex ids only and compares through the scratch's cost
///   array, so each exact cost is stored exactly once per vertex and never
///   cloned into the heap. The right choice for heavyweight costs
///   ([`crate::BigInt`]), where one avoided clone pays for all the position
///   bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HeapKind {
    /// Flat lazy heap of `(cost, vertex)` entries; cheap-to-clone costs.
    InlineKey,
    /// Indexed decrease-key heap of vertex ids; heavyweight costs.
    Indexed,
}

/// A totally ordered cost that can be accumulated along a path.
///
/// Implementors must form a *commutative monoid* under [`PathCost::plus`]
/// with identity [`PathCost::zero`], and the order must be translation
/// invariant (`a < b` implies `a+c < b+c`) — both hold trivially for the
/// provided integer implementations. Dijkstra additionally requires edge
/// costs to be non-negative, which the tiebreaking constructions guarantee
/// by scaling (each perturbed weight `1 + r(u,v)` is strictly positive since
/// `|r| < 1/(2n)`).
///
/// # Examples
///
/// ```
/// use rsp_arith::PathCost;
///
/// let total = u128::zero().plus(&10).plus(&32);
/// assert_eq!(total, 42);
/// ```
pub trait PathCost: Clone + Ord + std::fmt::Debug {
    /// The heap policy the scratch-based Dijkstra uses for this cost type
    /// (see [`HeapKind`] for the trade-off).
    ///
    /// The default is the always-safe [`HeapKind::Indexed`]; implementations
    /// whose `Clone` is a register copy should override to
    /// [`HeapKind::InlineKey`]. Either choice yields identical search
    /// results — the property suite in `crates/graph/tests/` pins the two
    /// engines against each other — so this is purely a performance knob.
    const HEAP: HeapKind = HeapKind::Indexed;

    /// The identity cost (an empty path).
    fn zero() -> Self;

    /// Returns the cost extended by one edge.
    ///
    /// # Panics
    ///
    /// Native integer implementations panic on overflow; callers size their
    /// weight scales so that the longest simple path cannot overflow.
    fn plus(&self, edge: &Self) -> Self;

    /// Writes `self + edge` into `out`, reusing `out`'s existing storage
    /// where possible.
    ///
    /// This is the relaxation hot path of the scratch-based Dijkstra in
    /// `rsp-graph`: with arbitrary-precision costs ([`crate::BigInt`]) the
    /// override reuses `out`'s limb buffer instead of allocating a fresh
    /// integer per relaxed edge. The default simply assigns `self.plus(edge)`
    /// — correct for any implementation, optimal for `Copy` integers.
    ///
    /// # Panics
    ///
    /// Same overflow behavior as [`PathCost::plus`].
    fn add_into(&self, edge: &Self, out: &mut Self) {
        *out = self.plus(edge);
    }

    /// Resets `self` to [`PathCost::zero`] in place, keeping its storage.
    fn set_zero(&mut self) {
        *self = Self::zero();
    }

    /// The floor quotient `⌊self / divisor⌋`, saturating at `u32::MAX`.
    ///
    /// This is how hop counts are read off exact path costs: under hop
    /// dominance a path of `h` hops costs in `[h·min, (h+1)·min)`, so
    /// `cost.floor_div(min)` is `h`. The default is
    /// [`floor_div_by_doubling`], built on `plus` and `Ord` alone; the
    /// native integers override it with `/`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is not greater than [`PathCost::zero`].
    fn floor_div(&self, divisor: &Self) -> u32 {
        floor_div_by_doubling(self, divisor)
    }
}

/// `⌊a / d⌋` saturating at `u32::MAX`, by doubling search over
/// [`PathCost::plus`]: collect `d·2^k` while it stays `≤ a`, then take
/// the powers greedily from the top. `O(log(a/d))` additions, no
/// division, so it serves any [`PathCost`] (the default of
/// [`PathCost::floor_div`]).
///
/// # Panics
///
/// Panics if `d` is not greater than zero, or (native integers only) if
/// a doubling step overflows, which needs `a` above half the type's range.
pub fn floor_div_by_doubling<C: PathCost>(a: &C, d: &C) -> u32 {
    assert!(*d > C::zero(), "floor_div by a non-positive divisor");
    if *d > *a {
        return 0;
    }
    let mut powers = vec![d.clone()];
    loop {
        let top = powers.last().expect("starts non-empty");
        let next = top.plus(top);
        if next > *a {
            break;
        }
        if powers.len() == 32 {
            return u32::MAX; // d·2^32 ≤ a
        }
        powers.push(next);
    }
    let mut q = 0u32;
    let mut acc = C::zero();
    for (k, p) in powers.iter().enumerate().rev() {
        let next = acc.plus(p);
        if next <= *a {
            acc = next;
            q |= 1 << k;
        }
    }
    q
}

impl PathCost for u64 {
    const HEAP: HeapKind = HeapKind::InlineKey;

    fn zero() -> Self {
        0
    }

    fn plus(&self, edge: &Self) -> Self {
        self.checked_add(*edge).expect("u64 path cost overflow")
    }

    fn floor_div(&self, divisor: &Self) -> u32 {
        assert!(*divisor > 0, "floor_div by a non-positive divisor");
        u32::try_from(self / divisor).unwrap_or(u32::MAX)
    }
}

impl PathCost for u128 {
    const HEAP: HeapKind = HeapKind::InlineKey;

    fn zero() -> Self {
        0
    }

    fn plus(&self, edge: &Self) -> Self {
        self.checked_add(*edge).expect("u128 path cost overflow")
    }

    fn floor_div(&self, divisor: &Self) -> u32 {
        assert!(*divisor > 0, "floor_div by a non-positive divisor");
        u32::try_from(self / divisor).unwrap_or(u32::MAX)
    }
}

impl PathCost for u32 {
    const HEAP: HeapKind = HeapKind::InlineKey;

    fn zero() -> Self {
        0
    }

    fn plus(&self, edge: &Self) -> Self {
        self.checked_add(*edge).expect("u32 path cost overflow")
    }

    fn floor_div(&self, divisor: &Self) -> u32 {
        assert!(*divisor > 0, "floor_div by a non-positive divisor");
        self / divisor
    }
}

impl PathCost for BigInt {
    // A BigInt clone allocates; keep costs out of the heap entirely.
    const HEAP: HeapKind = HeapKind::Indexed;

    fn zero() -> Self {
        BigInt::zero()
    }

    fn plus(&self, edge: &Self) -> Self {
        self + edge
    }

    fn add_into(&self, edge: &Self, out: &mut Self) {
        BigInt::sum_into(self, edge, out);
    }

    fn set_zero(&mut self) {
        self.clear_to_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_monoid() {
        assert_eq!(u128::zero().plus(&5).plus(&7), 12);
        assert_eq!(u128::zero().plus(&0), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn u64_overflow_panics() {
        let _ = u64::MAX.plus(&1);
    }

    #[test]
    fn bigint_monoid() {
        let a = BigInt::pow2(100);
        let b = BigInt::pow2(100);
        assert_eq!(a.plus(&b), BigInt::pow2(101));
        assert_eq!(BigInt::zero().plus(&BigInt::one()), BigInt::one());
    }

    #[test]
    fn add_into_matches_plus_for_integers() {
        let mut out = 0u128;
        7u128.add_into(&5, &mut out);
        assert_eq!(out, 12);
        let mut out = 0u64;
        u64::zero().add_into(&9, &mut out);
        assert_eq!(out, 9);
    }

    #[test]
    fn add_into_matches_plus_for_bigint() {
        let a = BigInt::pow2(130);
        let b = BigInt::pow2(130);
        // Seed `out` with unrelated storage: the in-place path must fully
        // overwrite it.
        let mut out = BigInt::pow2(5);
        a.add_into(&b, &mut out);
        assert_eq!(out, a.plus(&b));
        assert_eq!(out, BigInt::pow2(131));
    }

    #[test]
    fn set_zero_resets_in_place() {
        let mut x = BigInt::pow2(200);
        x.set_zero();
        assert_eq!(x, BigInt::zero());
        let mut y = 42u64;
        y.set_zero();
        assert_eq!(y, 0);
    }

    #[test]
    fn native_and_doubling_floor_quotients_agree() {
        let divisors = [1u64, 2, 3, 7, 1000, 65_537, 1 << 40];
        let numerators = [0u64, 1, 2, 6, 7, 999, 1000, 1001, 123_456_789, (1 << 41) + 5];
        for &d in &divisors {
            for &a in &numerators {
                let want = u32::try_from(a / d).unwrap_or(u32::MAX);
                assert_eq!(a.floor_div(&d), want, "u64 {a}/{d}");
                assert_eq!(floor_div_by_doubling(&a, &d), want, "u64 doubling {a}/{d}");
                let (a128, d128) = (u128::from(a) << 20, u128::from(d) << 20);
                assert_eq!(a128.floor_div(&d128), want, "u128 {a}/{d}");
                assert_eq!(floor_div_by_doubling(&a128, &d128), want);
                let (ab, db) = (BigInt::from_u128(a128) << 70, BigInt::from_u128(d128) << 70);
                assert_eq!(ab.floor_div(&db), want, "BigInt {a}/{d}");
                if let (Ok(a32), Ok(d32)) = (u32::try_from(a), u32::try_from(d)) {
                    assert_eq!(a32.floor_div(&d32), want, "u32 {a}/{d}");
                    assert_eq!(floor_div_by_doubling(&a32, &d32), want);
                }
            }
        }
        // Quotients past u32::MAX saturate on both routes.
        assert_eq!((1u64 << 40).floor_div(&1), u32::MAX);
        assert_eq!(floor_div_by_doubling(&(1u64 << 40), &1), u32::MAX);
        assert_eq!(floor_div_by_doubling(&(u64::from(u32::MAX) - 1), &1), u32::MAX - 1);
        assert_eq!(BigInt::pow2(200).floor_div(&BigInt::pow2(100)), u32::MAX);
        assert_eq!(BigInt::pow2(131).floor_div(&BigInt::pow2(100)), 1 << 31);
    }

    #[test]
    #[should_panic(expected = "non-positive divisor")]
    fn floor_div_by_zero_panics() {
        let _ = BigInt::one().floor_div(&BigInt::zero());
    }

    #[test]
    fn heap_policies_match_clone_cost() {
        // Register-copy costs ride the flat inline-key heap; allocating
        // costs keep the indexed decrease-key heap.
        assert_eq!(u32::HEAP, HeapKind::InlineKey);
        assert_eq!(u64::HEAP, HeapKind::InlineKey);
        assert_eq!(u128::HEAP, HeapKind::InlineKey);
        assert_eq!(BigInt::HEAP, HeapKind::Indexed);

        // The trait default stays the always-safe indexed policy.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
        struct Plain(u8);
        impl PathCost for Plain {
            fn zero() -> Self {
                Plain(0)
            }
            fn plus(&self, e: &Self) -> Self {
                Plain(self.0 + e.0)
            }
        }
        assert_eq!(Plain::HEAP, HeapKind::Indexed);
    }

    #[test]
    fn order_translation_invariance_spot_check() {
        let a = 3u128;
        let b = 9u128;
        let c = 1u128 << 100;
        assert!(a < b && a.plus(&c) < b.plus(&c));
    }
}

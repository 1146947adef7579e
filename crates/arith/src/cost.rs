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
}

impl PathCost for u64 {
    const HEAP: HeapKind = HeapKind::InlineKey;

    fn zero() -> Self {
        0
    }

    fn plus(&self, edge: &Self) -> Self {
        self.checked_add(*edge).expect("u64 path cost overflow")
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
}

impl PathCost for u32 {
    const HEAP: HeapKind = HeapKind::InlineKey;

    fn zero() -> Self {
        0
    }

    fn plus(&self, edge: &Self) -> Self {
        self.checked_add(*edge).expect("u32 path cost overflow")
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

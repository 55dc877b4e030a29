//! `proptest::collection` — the `vec` strategy.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// A length specification: a fixed size or a half-open range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            min: r.start,
            max: r.end,
        }
    }
}

/// Generates `Vec`s whose elements come from `element` and whose length
/// falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone, Copy)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64;
        let len = self.size.min + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

//! A seeded property-test harness: the workspace's property suites run in
//! every `cargo test`, with no registry dependency.
//!
//! [`check`] runs a property on a fixed number of cases. Case `i` of a
//! property draws its inputs from a [`Gen`] whose seed is a pure function
//! of the property's name and `i`, so every run checks the same cases. A
//! property asserts with the standard macros. When one panics, [`check`]
//! prints the property, the case index and the seed before the panic
//! fails the test; rerunning the test reproduces the case, and
//! `Gen::new(seed)` replays it alone. There is no shrinking.
//!
//! ```
//! use siesta_prop::check;
//!
//! check("addition_commutes", 64, |g| {
//!     let (a, b) = (g.draw(0u32..1000), g.draw(0u32..1000));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

use siesta_perfmodel::noise::{combine, splitmix64};

/// Run `property` on `cases` seeded cases and fail on the first that
/// panics, after printing its index and seed.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    let name_seed = name.bytes().fold(0, |h, b| combine(&[h, u64::from(b)]));
    for case in 0..cases {
        let seed = combine(&[name_seed, u64::from(case)]);
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed))))
        {
            eprintln!("property `{name}` failed on case {case} of {cases}, seed {seed:#018x}");
            panic::resume_unwind(panic);
        }
    }
}

/// A stream of pseudo-random draws: SplitMix64 from one seed.
pub struct Gen {
    state: u64,
}

impl Gen {
    /// The draws of the case whose seed [`check`] printed.
    pub fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// A value drawn uniformly from an integer or float range.
    pub fn draw<R: Draw>(&mut self, range: R) -> R::Value {
        range.draw(self)
    }

    /// Index `i` with probability `weights[i] / weights.iter().sum()`.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total = weights.iter().map(|&w| u64::from(w)).sum();
        let mut x = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            match x.checked_sub(u64::from(w)) {
                Some(rest) => x = rest,
                None => return i,
            }
        }
        unreachable!("a draw below the total weight falls in some weight")
    }

    /// A vector with a length drawn from `len`, each item from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.draw(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A set with a size drawn from `len`: items are drawn until that
    /// many are distinct, so `item` must be able to reach that many.
    pub fn set<T: Ord>(
        &mut self,
        len: Range<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> BTreeSet<T> {
        let n = self.draw(len);
        let mut set = BTreeSet::new();
        for draws in 0.. {
            if set.len() == n {
                break;
            }
            assert!(draws < 64 * n, "{draws} draws gave {} distinct items of {n}", set.len());
            set.insert(item(self));
        }
        set
    }

    /// `None` or `Some(item)`, each half the time.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| item(self))
    }

    /// Uniform in `0..n` (a multiply-shift, so `n` need not be a power
    /// of two).
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "nothing to draw from an empty range");
        ((u128::from(self.u64()) * u128::from(n)) >> 64) as u64
    }
}

/// What [`Gen::draw`] draws from.
pub trait Draw {
    type Value;
    fn draw(self, g: &mut Gen) -> Self::Value;
}

macro_rules! draw_ints {
    ($($t:ty),*) => {$(
        impl Draw for Range<$t> {
            type Value = $t;
            fn draw(self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range {self:?}");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + i128::from(g.below(span))) as $t
            }
        }

        impl Draw for RangeInclusive<$t> {
            type Value = $t;
            fn draw(self, g: &mut Gen) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range {lo}..={hi}");
                match u64::try_from(hi as i128 - lo as i128 + 1) {
                    Ok(span) => (lo as i128 + i128::from(g.below(span))) as $t,
                    // The whole of a 64-bit type.
                    Err(_) => g.u64() as $t,
                }
            }
        }
    )*};
}

draw_ints!(u32, u64, usize, i32, i64);

impl Draw for Range<f64> {
    type Value = f64;
    fn draw(self, g: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        // 53 high bits → a double in [0, 1).
        let unit = (g.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_stay_in_range() {
        let draws = |seed| {
            let mut g = Gen::new(seed);
            let mut out = Vec::new();
            for _ in 0..1000 {
                let i = g.draw(-5i32..5);
                assert!((-5..5).contains(&i));
                let u = g.draw(2usize..=8);
                assert!((2..=8).contains(&u));
                let f = g.draw(1.0f64..20.0);
                assert!((1.0..20.0).contains(&f));
                out.push((i, u, f.to_bits(), g.draw(0..=u64::MAX)));
            }
            out
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn weighted_choice_follows_weights() {
        let mut g = Gen::new(1);
        let mut counts = [0u32; 4];
        for _ in 0..9000 {
            counts[g.weighted(&[4, 3, 0, 2])] += 1;
        }
        assert_eq!(counts[2], 0);
        for (count, weight) in [(counts[0], 4), (counts[1], 3), (counts[3], 2)] {
            assert!(count.abs_diff(weight * 1000) < 200, "{counts:?}");
        }
    }

    #[test]
    fn collections_take_their_drawn_lengths() {
        let mut g = Gen::new(3);
        for _ in 0..200 {
            assert!(g.vec(0..6, |g| g.bool()).len() < 6);
            let set = g.set(1..3, |g| g.draw(0u32..3));
            assert!((1..3).contains(&set.len()));
        }
    }

    #[test]
    fn check_repeats_its_cases_and_fails_on_a_panic() {
        let seen = || {
            let mut seen = Vec::new();
            check("repeat", 16, |g| seen.push(g.u64()));
            seen
        };
        assert_eq!(seen(), seen());
        let failed = panic::catch_unwind(|| check("fails", 16, |g| assert!(g.draw(0u32..4) != 0)));
        assert!(failed.is_err());
    }
}

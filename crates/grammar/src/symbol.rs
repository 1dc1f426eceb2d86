//! Grammar symbols, run-length symbols, and rank sets.

use std::fmt;

/// A grammar symbol: either a terminal (a unique trace event id) or a
/// non-terminal (a rule id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sym {
    /// Terminal — an entry of the (eventually global) event table.
    T(u32),
    /// Non-terminal — a grammar rule.
    N(u32),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::T(t) => write!(f, "t{t}"),
            Sym::N(n) => write!(f, "R{n}"),
        }
    }
}

/// A run-length symbol `sym^exp` — the space optimization of Section 2.5.2
/// (constraint 3): adjacent equal symbols merge into powers, taking regular
/// loops from `O(log n)` rule chains to `O(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RSym {
    pub sym: Sym,
    pub exp: u64,
}

impl RSym {
    pub fn new(sym: Sym, exp: u64) -> RSym {
        debug_assert!(exp >= 1);
        RSym { sym, exp }
    }

    pub fn once(sym: Sym) -> RSym {
        RSym { sym, exp: 1 }
    }
}

impl fmt::Display for RSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.exp == 1 {
            write!(f, "{}", self.sym)
        } else {
            write!(f, "{}^{}", self.sym, self.exp)
        }
    }
}

/// A compact set of process ranks, stored as sorted, disjoint, inclusive
/// ranges. Main-rule symbols carry one of these after the inter-process
/// merge; code generation turns it into a branch condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RankSet {
    /// Sorted, coalesced `[start, end]` ranges (inclusive).
    ranges: Vec<(u32, u32)>,
}

impl RankSet {
    pub fn empty() -> RankSet {
        RankSet { ranges: Vec::new() }
    }

    pub fn single(rank: u32) -> RankSet {
        RankSet { ranges: vec![(rank, rank)] }
    }

    /// The full set `0..nranks`.
    pub fn all(nranks: u32) -> RankSet {
        if nranks == 0 {
            RankSet::empty()
        } else {
            RankSet { ranges: vec![(0, nranks - 1)] }
        }
    }

    /// The set of the given inclusive ranges, or `None` unless they are
    /// what a set keeps: every `start <= end`, ascending and coalesced (at
    /// least one rank between neighbours), all below `nranks`. Decoders
    /// build rank sets here, so a corrupt range is refused instead of
    /// expanded rank by rank.
    pub fn from_ranges(ranges: Vec<(u32, u32)>, nranks: usize) -> Option<RankSet> {
        let valid = ranges.iter().all(|&(s, e)| s <= e && (e as usize) < nranks)
            && ranges.windows(2).all(|w| w[0].1 as u64 + 1 < w[1].0 as u64);
        valid.then_some(RankSet { ranges })
    }

    fn push_sorted(&mut self, rank: u32) {
        if let Some(last) = self.ranges.last_mut() {
            if rank <= last.1 {
                return;
            }
            if rank == last.1 + 1 {
                last.1 = rank;
                return;
            }
        }
        self.ranges.push((rank, rank));
    }

    pub fn contains(&self, rank: u32) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if rank < s {
                    std::cmp::Ordering::Greater
                } else if rank > e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| (e - s + 1) as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges.iter().flat_map(|&(s, e)| s..=e)
    }

    /// Set union.
    pub fn union(&self, other: &RankSet) -> RankSet {
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.ranges.len() + other.ranges.len());
        merged.extend_from_slice(&self.ranges);
        merged.extend_from_slice(&other.ranges);
        merged.sort_unstable();
        let mut out: Vec<(u32, u32)> = Vec::with_capacity(merged.len());
        for (s, e) in merged {
            match out.last_mut() {
                Some(last) if s <= last.1.saturating_add(1) => {
                    last.1 = last.1.max(e);
                }
                _ => out.push((s, e)),
            }
        }
        RankSet { ranges: out }
    }

    /// The underlying ranges (for code generation of branch conditions).
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

impl FromIterator<u32> for RankSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> RankSet {
        let mut v: Vec<u32> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let mut out = RankSet::empty();
        for r in v {
            out.push_sorted(r);
        }
        out
    }
}

impl fmt::Display for RankSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, e)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if s == e {
                write!(f, "{s}")?;
            } else {
                write!(f, "{s}-{e}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(RSym::new(Sym::T(3), 1).to_string(), "t3");
        assert_eq!(RSym::new(Sym::N(2), 5).to_string(), "R2^5");
    }

    #[test]
    fn rankset_from_iter_coalesces() {
        let s = RankSet::from_iter([3, 1, 2, 2, 7, 8, 10]);
        assert_eq!(s.ranges(), &[(1, 3), (7, 8), (10, 10)]);
        assert_eq!(s.len(), 6);
        assert!(s.contains(2));
        assert!(s.contains(10));
        assert!(!s.contains(4));
        assert!(!s.contains(0));
    }

    #[test]
    fn rankset_union() {
        let a = RankSet::from_iter([0, 1, 2, 8]);
        let b = RankSet::from_iter([3, 4, 9, 20]);
        let u = a.union(&b);
        assert_eq!(u.ranges(), &[(0, 4), (8, 9), (20, 20)]);
        // Union with self is identity.
        assert_eq!(a.union(&a), a);
        // Union is commutative.
        assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn rankset_all_and_empty() {
        assert!(RankSet::empty().is_empty());
        assert_eq!(RankSet::all(4).ranges(), &[(0, 3)]);
        assert_eq!(RankSet::all(0), RankSet::empty());
        assert_eq!(RankSet::all(4).len(), 4);
    }

    #[test]
    fn rankset_iter_round_trips() {
        let original: Vec<u32> = vec![0, 5, 6, 7, 9];
        let s = RankSet::from_iter(original.clone());
        let back: Vec<u32> = s.iter().collect();
        assert_eq!(back, original);
    }

    #[test]
    fn rankset_display() {
        assert_eq!(RankSet::from_iter([1, 2, 3, 9]).to_string(), "{1-3,9}");
        assert_eq!(RankSet::empty().to_string(), "{}");
    }
}

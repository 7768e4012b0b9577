//! Hitlist overlap and target-set similarity (Appendices A.2 and A.4).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Overlap of a target set with a hitlist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HitlistOverlap {
    /// Distinct targets examined.
    pub targets: u64,
    /// Targets also present in the hitlist.
    pub in_hitlist: u64,
}

impl HitlistOverlap {
    /// Fraction of targets found in the hitlist (the paper: ≈0 on most
    /// days, 99.2% on 2021-05-27 for AS#1).
    pub fn fraction(&self) -> f64 {
        crate::stats::share(self.in_hitlist, self.targets)
    }
}

/// Computes the overlap of (deduplicated) `targets` with `hitlist`.
pub fn hitlist_overlap<'a, I>(targets: I, hitlist: &HashSet<u128>) -> HitlistOverlap
where
    I: IntoIterator<Item = &'a u128>,
{
    let distinct: HashSet<u128> = targets.into_iter().copied().collect();
    let in_hitlist = distinct.iter().filter(|t| hitlist.contains(t)).count() as u64;
    HitlistOverlap {
        targets: distinct.len() as u64,
        in_hitlist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_counts_distinct() {
        let hitlist: HashSet<u128> = (0..100u128).collect();
        let targets = [1u128, 1, 2, 3, 200];
        let o = hitlist_overlap(targets.iter(), &hitlist);
        assert_eq!(o.targets, 4);
        assert_eq!(o.in_hitlist, 3);
        assert!((o.fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_targets() {
        let hitlist: HashSet<u128> = HashSet::new();
        let o = hitlist_overlap([].iter(), &hitlist);
        assert_eq!(o.fraction(), 0.0);
    }
}

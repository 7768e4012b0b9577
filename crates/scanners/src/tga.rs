//! Target generation algorithms (TGA).
//!
//! Scanning IPv6 means *generating* worthwhile targets, not enumerating the
//! space. The paper observes scanners probing not-in-DNS addresses and
//! leaves "how scanners generate target addresses" as future work, citing
//! the TGA literature (Entropy/IP, 6Gen, 6Tree, ...). This module
//! implements the two building blocks those algorithms share, at honest
//! simulation scale:
//!
//! - [`IidModel`]: learn the per-nibble value distribution of the Interface
//!   IDs of a *seed set* (e.g. DNS-harvested addresses), then synthesize
//!   fresh IIDs inside known /64s. Because server IIDs are heavily
//!   structured (low-byte, small counters), a learned model rediscovers
//!   unadvertised neighbors — like the telescope's not-in-DNS pair members
//!   — orders of magnitude better than random generation.
//! - [`seed_networks`]: the distinct seed /64s, the networks a model
//!   generates inside (the 6Tree/6Gen "divide where the seeds are" idea).
//!
//! [`evaluate_hit_rate`] scores a candidate list against a ground-truth
//! responder set — the standard TGA metric.

use lumen6_addr::entropy::{EntropyProfile, NIBBLES};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A per-nibble generative model of Interface IDs (the low 64 bits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IidModel {
    profile: EntropyProfile,
}

impl IidModel {
    /// Learns the model from seed addresses (their low 64 bits).
    pub fn learn(seeds: &[u128]) -> IidModel {
        IidModel {
            profile: EntropyProfile::from_addrs(seeds.iter().copied()),
        }
    }

    /// Mean entropy of the modeled IID nibbles — how "guessable" the seed
    /// population is.
    pub fn iid_entropy(&self) -> f64 {
        self.profile.iid_entropy()
    }

    /// Samples one IID: each of the 16 IID nibbles drawn from its learned
    /// distribution (with a small smoothing floor so unseen values remain
    /// reachable).
    pub fn sample_iid<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut iid = 0u64;
        for i in 16..NIBBLES {
            let counts = self.profile.counts(i);
            let total: u64 = counts.iter().sum::<u64>() + 16; // +1 smoothing
            let mut pick = rng.gen_range(0..total);
            let mut value = 0u8;
            for (v, &c) in counts.iter().enumerate() {
                let w = c + 1;
                if pick < w {
                    value = v as u8;
                    break;
                }
                pick -= w;
            }
            iid = (iid << 4) | u64::from(value);
        }
        iid
    }

    /// Generates `n` candidate addresses: for each, a seed /64 is chosen at
    /// random and a fresh modeled IID is placed in it. Candidates that
    /// exactly reproduce a seed address are re-rolled a few times (a
    /// scanner wants *new* targets).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        seed_64s: &[u64],
        seeds: &HashSet<u128>,
        n: usize,
    ) -> Vec<u128> {
        assert!(!seed_64s.is_empty(), "need at least one seed /64");
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let net = seed_64s[rng.gen_range(0..seed_64s.len())];
            let mut cand = ((net as u128) << 64) | u128::from(self.sample_iid(rng));
            for _ in 0..4 {
                if !seeds.contains(&cand) {
                    break;
                }
                cand = ((net as u128) << 64) | u128::from(self.sample_iid(rng));
            }
            out.push(cand);
        }
        out
    }
}

/// The distinct /64 networks of a seed set, sorted: where the seeds are,
/// and so where [`IidModel::generate`] places fresh IIDs.
pub fn seed_networks(seeds: &[u128]) -> Vec<u64> {
    let nets: std::collections::BTreeSet<u64> = seeds.iter().map(|&s| (s >> 64) as u64).collect();
    nets.into_iter().collect()
}

/// Fraction of `candidates` (deduplicated, seeds excluded) present in
/// `responders` — the standard TGA hit-rate metric.
pub fn evaluate_hit_rate(
    candidates: &[u128],
    seeds: &HashSet<u128>,
    responders: &HashSet<u128>,
) -> f64 {
    let fresh: HashSet<u128> = candidates
        .iter()
        .copied()
        .filter(|c| !seeds.contains(c))
        .collect();
    if fresh.is_empty() {
        return 0.0;
    }
    let hits = fresh.iter().filter(|c| responders.contains(c)).count();
    hits as f64 / fresh.len() as f64
}

/// Baseline: random IIDs in the seed /64s (what a structure-blind scanner
/// would do).
pub fn random_baseline<R: Rng + ?Sized>(rng: &mut R, seed_64s: &[u64], n: usize) -> Vec<u128> {
    (0..n)
        .map(|_| {
            let net = seed_64s[rng.gen_range(0..seed_64s.len())];
            lumen6_addr::gen::random_iid(rng, net)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A synthetic responder world: servers with small structured IIDs in
    /// 50 /64s; half are "seeds" (known), half are hidden responders.
    fn world() -> (Vec<u128>, HashSet<u128>, HashSet<u128>) {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut all = Vec::new();
        for net in 0..50u64 {
            let net64 = 0x2001_0db8_0000_0000 | net;
            for _ in 0..40 {
                all.push(lumen6_addr::gen::low_weight_iid(&mut rng, net64, 4));
            }
        }
        all.sort_unstable();
        all.dedup();
        let seeds: Vec<u128> = all.iter().step_by(2).copied().collect();
        let responders: HashSet<u128> = all.iter().copied().collect();
        let seed_set: HashSet<u128> = seeds.iter().copied().collect();
        (seeds, seed_set, responders)
    }

    #[test]
    fn learned_model_beats_random_by_orders_of_magnitude() {
        let (seed_list, seed_set, responders) = world();
        let model = IidModel::learn(&seed_list);
        let nets = seed_networks(&seed_list);
        let mut rng = SmallRng::seed_from_u64(12);

        let candidates = model.generate(&mut rng, &nets, &seed_set, 20_000);
        let hit = evaluate_hit_rate(&candidates, &seed_set, &responders);

        let baseline = random_baseline(&mut rng, &nets, 20_000);
        let base_hit = evaluate_hit_rate(&baseline, &seed_set, &responders);

        assert!(hit > 0.001, "model hit rate {hit}");
        // Random 64-bit IIDs essentially never hit.
        assert!(base_hit < 1e-3, "baseline {base_hit}");
        assert!(
            hit > 100.0 * (base_hit + 1e-9),
            "model {hit} vs baseline {base_hit}"
        );
    }

    #[test]
    fn model_iid_entropy_reflects_seed_structure() {
        let (seed_list, _, _) = world();
        let structured = IidModel::learn(&seed_list);
        assert!(
            structured.iid_entropy() < 1.0,
            "{}",
            structured.iid_entropy()
        );

        let mut rng = SmallRng::seed_from_u64(13);
        let random_seeds: Vec<u128> = (0..2000)
            .map(|_| lumen6_addr::gen::random_iid(&mut rng, 1))
            .collect();
        let random = IidModel::learn(&random_seeds);
        assert!(random.iid_entropy() > 3.5, "{}", random.iid_entropy());
    }

    #[test]
    fn seed_networks_are_distinct_and_sorted() {
        let seeds = [(2u128 << 64) | 1, (1u128 << 64) | 7, (2u128 << 64) | 9];
        assert_eq!(seed_networks(&seeds), vec![1, 2]);
        assert!(seed_networks(&[]).is_empty());
    }

    #[test]
    fn hit_rate_excludes_seeds() {
        let seeds: HashSet<u128> = [1u128, 2].into_iter().collect();
        let responders: HashSet<u128> = [1u128, 2, 3].into_iter().collect();
        // Candidates: one seed (excluded), one hidden responder, one miss.
        let hit = evaluate_hit_rate(&[1, 3, 99], &seeds, &responders);
        assert!((hit - 0.5).abs() < 1e-12);
        assert_eq!(evaluate_hit_rate(&[1, 2], &seeds, &responders), 0.0);
    }

    #[test]
    fn generate_avoids_exact_seed_reproduction_mostly() {
        let (seed_list, seed_set, _) = world();
        let model = IidModel::learn(&seed_list);
        let nets = seed_networks(&seed_list);
        let mut rng = SmallRng::seed_from_u64(16);
        let cands = model.generate(&mut rng, &nets, &seed_set, 5_000);
        let dupes = cands.iter().filter(|c| seed_set.contains(c)).count();
        // Re-rolling keeps exact seed reproduction rare.
        assert!(dupes * 10 < cands.len(), "{dupes} of {}", cands.len());
    }
}

//! The CDN deployment: machines, addresses, DNS exposure, paired subset.

use lumen6_addr::{fxhash::FxHashSet, gen, Ipv6Prefix};
use lumen6_netmodel::{AsType, InternetRegistry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Scale and shape of the simulated CDN deployment.
///
/// The paper's real deployment (≈230,000 machines, >700 ASes, 160,000 DNS
/// address pairs) is scaled down by default to keep experiments fast; the
/// default is 1/100 scale. All structure is preserved: per-machine
/// client-facing and non-client-facing addresses, and a paired subset where
/// the two addresses of a pair sit within the same /123.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Number of CDN machines.
    pub machines: usize,
    /// Number of distinct hosting ASes machines are spread over.
    pub ases: usize,
    /// Number of in-DNS / not-in-DNS address pairs (the §3.3 instrument).
    pub dns_pairs: usize,
    /// Base ASN for the CDN hosting networks.
    pub base_asn: u32,
    /// Allocation slot base in the netmodel address plan (keeps CDN space
    /// disjoint from scanner-source space).
    pub base_slot: u32,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            machines: 2_300,
            ases: 70,
            dns_pairs: 1_600,
            base_asn: 20_000,
            base_slot: 5_000,
        }
    }
}

impl DeploymentConfig {
    /// A tiny deployment for unit tests.
    pub fn tiny() -> Self {
        DeploymentConfig {
            machines: 50,
            ases: 5,
            dns_pairs: 20,
            ..Default::default()
        }
    }
}

/// One CDN machine: a client-facing address (exposed via DNS) and a non
/// client-facing address (never in DNS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Machine {
    /// Hosting AS.
    pub asn: u32,
    /// Client-facing address (in DNS).
    pub client_facing: u128,
    /// Non client-facing address (not in DNS).
    pub non_client_facing: u128,
}

/// The built deployment: the telescope.
#[derive(Debug, Clone)]
pub struct CdnDeployment {
    machines: Vec<Machine>,
    /// FxHash: the capture test probes `telescope` once per record.
    telescope: FxHashSet<u128>,
    in_dns: FxHashSet<u128>,
    pairs: Vec<(u128, u128)>,
    as_prefixes: Vec<(u32, Ipv6Prefix)>,
}

impl CdnDeployment {
    /// Builds a deterministic deployment, registering the hosting ASes and
    /// their prefixes in `registry`.
    pub fn build(config: &DeploymentConfig, registry: &mut InternetRegistry, seed: u64) -> Self {
        assert!(config.ases > 0, "need at least one hosting AS");
        assert!(config.machines >= config.ases, "fewer machines than ASes");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xcd15_cd15);

        // Hosting networks: one /32 per AS.
        let mut as_prefixes = Vec::with_capacity(config.ases);
        for i in 0..config.ases {
            let asn = config.base_asn + i as u32;
            let prefix = registry.register_with_allocation(
                asn,
                AsType::Cdn,
                "global",
                &format!("cdn-host-{i}"),
                config.base_slot + i as u32,
            );
            let prefix = prefix.expect("deployment slots fit the /32 allocation layout");
            as_prefixes.push((asn, prefix));
        }

        let mut machines = Vec::with_capacity(config.machines);
        let (mut telescope, mut in_dns) = (FxHashSet::default(), FxHashSet::default());
        for m in 0..config.machines {
            let (asn, net) = as_prefixes[m % as_prefixes.len()];
            // Each machine gets its own /64 inside the hosting /32; the two
            // addresses live in that /64 with server-like low IIDs.
            let m64 = net
                .nth_subnet(64, (m / as_prefixes.len()) as u128 + 1)
                .expect("machine subnet fits");
            let net64 = (m64.bits() >> 64) as u64;
            let client_facing = gen::low_byte_addr(&mut rng, net64);
            let mut non_client_facing = gen::low_weight_iid(&mut rng, net64, 6);
            while non_client_facing == client_facing {
                non_client_facing = gen::low_weight_iid(&mut rng, net64, 6);
            }
            machines.push(Machine {
                asn,
                client_facing,
                non_client_facing,
            });
            telescope.insert(client_facing);
            telescope.insert(non_client_facing);
            in_dns.insert(client_facing);
        }

        // Paired subset: one in-DNS address and one not-in-DNS address that
        // sit within the same /123 (the two differ only in the low 5 bits).
        let mut pairs = Vec::with_capacity(config.dns_pairs);
        for p in 0..config.dns_pairs {
            let (_, net) = as_prefixes[p % as_prefixes.len()];
            // Dedicated /64s past the machine range to avoid collisions.
            let p64 = net
                .nth_subnet(64, 1_000_000 + (p / as_prefixes.len()) as u128)
                .expect("pair subnet fits");
            let net64 = (p64.bits() >> 64) as u64;
            let exposed = gen::low_byte_addr(&mut rng, net64);
            let hidden = gen::nearby_addr(&mut rng, exposed, 5); // same /123
            telescope.insert(exposed);
            telescope.insert(hidden);
            in_dns.insert(exposed);
            pairs.push((exposed, hidden));
        }

        CdnDeployment {
            machines,
            telescope,
            in_dns,
            pairs,
            as_prefixes,
        }
    }

    /// All machines.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Whether `addr` is one of the telescope's addresses.
    pub fn is_telescope_addr(&self, addr: u128) -> bool {
        self.telescope.contains(&addr)
    }

    /// Whether `addr` is exposed via DNS (client-facing or an exposed pair
    /// member).
    pub fn is_in_dns(&self, addr: u128) -> bool {
        self.in_dns.contains(&addr)
    }

    /// The in-DNS / not-in-DNS address pairs (§3.3 instrument).
    pub fn pairs(&self) -> &[(u128, u128)] {
        &self.pairs
    }

    /// Every telescope address, sorted (deterministic iteration).
    pub fn all_addrs(&self) -> Vec<u128> {
        let mut v: Vec<u128> = self.telescope.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The DNS-exposed addresses, sorted — what a hitlist crawler harvesting
    /// DNS would learn about this CDN.
    pub fn dns_hitlist(&self) -> Vec<u128> {
        let mut v: Vec<u128> = self.in_dns.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of telescope addresses.
    pub fn telescope_size(&self) -> usize {
        self.telescope.len()
    }

    /// Hosting ASes and their allocated prefixes.
    pub fn as_prefixes(&self) -> &[(u32, Ipv6Prefix)] {
        &self.as_prefixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> (CdnDeployment, InternetRegistry) {
        let mut reg = InternetRegistry::new();
        let dep = CdnDeployment::build(&DeploymentConfig::tiny(), &mut reg, 1);
        (dep, reg)
    }

    #[test]
    fn deployment_matches_config() {
        let (dep, _) = build();
        assert_eq!(dep.machines().len(), 50);
        assert_eq!(dep.pairs().len(), 20);
        // Two addresses per machine + two per pair, all distinct.
        assert_eq!(dep.telescope_size(), 50 * 2 + 20 * 2);
        assert_eq!(dep.as_prefixes().len(), 5);
    }

    #[test]
    fn client_facing_in_dns_non_client_facing_not() {
        let (dep, _) = build();
        for m in dep.machines() {
            assert!(dep.is_in_dns(m.client_facing));
            assert!(!dep.is_in_dns(m.non_client_facing));
            assert!(dep.is_telescope_addr(m.client_facing));
            assert!(dep.is_telescope_addr(m.non_client_facing));
        }
    }

    #[test]
    fn pairs_are_close_in_address_space() {
        let (dep, _) = build();
        for &(exposed, hidden) in dep.pairs() {
            assert!(dep.is_in_dns(exposed));
            assert!(!dep.is_in_dns(hidden));
            assert_ne!(exposed, hidden);
            // Within the same /123: only the low 5 bits differ.
            assert_eq!(exposed >> 5, hidden >> 5);
        }
    }

    #[test]
    fn machines_attributable_to_hosting_ases() {
        let (dep, reg) = build();
        for m in dep.machines() {
            assert_eq!(reg.origin_asn(m.client_facing), Some(m.asn));
            assert_eq!(reg.origin_asn(m.non_client_facing), Some(m.asn));
        }
        // Spread over all hosting ASes.
        let distinct: FxHashSet<u32> = dep.machines().iter().map(|m| m.asn).collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn deterministic_same_seed() {
        let mut r1 = InternetRegistry::new();
        let mut r2 = InternetRegistry::new();
        let a = CdnDeployment::build(&DeploymentConfig::tiny(), &mut r1, 9);
        let b = CdnDeployment::build(&DeploymentConfig::tiny(), &mut r2, 9);
        assert_eq!(a.all_addrs(), b.all_addrs());
        assert_eq!(a.pairs(), b.pairs());
    }

    #[test]
    fn different_seed_different_addresses() {
        let mut r1 = InternetRegistry::new();
        let mut r2 = InternetRegistry::new();
        let a = CdnDeployment::build(&DeploymentConfig::tiny(), &mut r1, 1);
        let b = CdnDeployment::build(&DeploymentConfig::tiny(), &mut r2, 2);
        assert_ne!(a.all_addrs(), b.all_addrs());
    }

    #[test]
    fn hitlist_is_exactly_dns_exposed() {
        let (dep, _) = build();
        let hitlist = dep.dns_hitlist();
        assert_eq!(hitlist.len(), 50 + 20);
        assert!(hitlist.iter().all(|&a| dep.is_in_dns(a)));
        assert!(hitlist.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn server_style_addresses() {
        // Telescope addresses should have low-Hamming-weight IIDs (they are
        // servers), which is what makes hitlist scanners look structured.
        let (dep, _) = build();
        let mean_w: f64 = dep
            .all_addrs()
            .iter()
            .map(|&a| f64::from(lumen6_addr::hamming_weight_iid(a)))
            .sum::<f64>()
            / dep.telescope_size() as f64;
        assert!(mean_w < 8.0, "mean IID weight {mean_w}");
    }
}

//! The firewall capture filter (paper §2.1).
//!
//! The CDN firewall logs *unsolicited incoming* packets destined to the
//! telescope's addresses, excluding TCP/80 and TCP/443 (the machines serve
//! real traffic there) and excluding ICMPv6 entirely. This module applies
//! exactly that filter to a generated world-traffic stream, producing the
//! dataset the detection pipeline runs on.

use crate::deployment::CdnDeployment;
use lumen6_trace::{PacketRecord, Transport};
use serde::{Deserialize, Serialize};

/// Which packets the firewall logger keeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaptureConfig {
    /// TCP destination ports that are served, hence never logged.
    pub served_tcp_ports: Vec<u16>,
    /// Whether ICMPv6 is excluded from collection (true at the CDN; false
    /// for the MAWI-style link vantage).
    pub drop_icmpv6: bool,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            served_tcp_ports: vec![80, 443],
            drop_icmpv6: true,
        }
    }
}

/// Per-run capture statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaptureStats {
    /// Packets offered to the filter.
    pub offered: u64,
    /// Packets logged.
    pub logged: u64,
    /// Dropped: destination not a telescope address.
    pub dropped_foreign: u64,
    /// Dropped: served TCP port (80/443).
    pub dropped_served_port: u64,
    /// Dropped: ICMPv6.
    pub dropped_icmpv6: u64,
}

/// The firewall capture filter bound to a deployment.
#[derive(Debug, Clone)]
pub struct FirewallCapture<'a> {
    deployment: &'a CdnDeployment,
    config: CaptureConfig,
}

impl<'a> FirewallCapture<'a> {
    /// Creates a capture filter over the deployment.
    pub fn new(deployment: &'a CdnDeployment, config: CaptureConfig) -> Self {
        FirewallCapture { deployment, config }
    }

    /// Whether a single packet would be logged.
    pub fn logs(&self, r: &PacketRecord) -> bool {
        self.logs_service(r.proto, r.dport) && self.logs_dst(r.dst)
    }

    /// Whether packets of `proto` to `dport` would be logged, whatever
    /// their destination: [`logs`](Self::logs) is this and
    /// [`logs_dst`](Self::logs_dst), so a caller holding many packets of
    /// one destination can test it once.
    pub fn logs_service(&self, proto: Transport, dport: u16) -> bool {
        if self.config.drop_icmpv6 && proto == Transport::Icmpv6 {
            return false;
        }
        !(proto == Transport::Tcp && self.config.served_tcp_ports.contains(&dport))
    }

    /// Whether packets to `dst` would be logged on a service that is.
    pub fn logs_dst(&self, dst: u128) -> bool {
        self.deployment.is_telescope_addr(dst)
    }

    /// Filters a stream, returning the logged packets and statistics.
    pub fn capture(&self, records: &[PacketRecord]) -> (Vec<PacketRecord>, CaptureStats) {
        let mut stats = CaptureStats::default();
        let mut out = Vec::with_capacity(records.len());
        for r in records {
            stats.offered += 1;
            if self.config.drop_icmpv6 && r.proto == Transport::Icmpv6 {
                stats.dropped_icmpv6 += 1;
                continue;
            }
            if r.proto == Transport::Tcp && self.config.served_tcp_ports.contains(&r.dport) {
                stats.dropped_served_port += 1;
                continue;
            }
            if !self.deployment.is_telescope_addr(r.dst) {
                stats.dropped_foreign += 1;
                continue;
            }
            stats.logged += 1;
            out.push(*r);
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentConfig;
    use lumen6_netmodel::InternetRegistry;

    fn deployment() -> CdnDeployment {
        let mut reg = InternetRegistry::new();
        CdnDeployment::build(&DeploymentConfig::tiny(), &mut reg, 1)
    }

    #[test]
    fn served_ports_are_dropped() {
        let dep = deployment();
        let cap = FirewallCapture::new(&dep, CaptureConfig::default());
        let dst = dep.machines()[0].client_facing;
        assert!(!cap.logs(&PacketRecord::tcp(0, 1, dst, 1, 80, 60)));
        assert!(!cap.logs(&PacketRecord::tcp(0, 1, dst, 1, 443, 60)));
        assert!(cap.logs(&PacketRecord::tcp(0, 1, dst, 1, 22, 60)));
        // UDP on 80/443 IS logged (only TCP is served there).
        assert!(cap.logs(&PacketRecord::udp(0, 1, dst, 1, 443, 60)));
    }

    #[test]
    fn icmpv6_dropped_at_cdn_but_configurable() {
        let dep = deployment();
        let dst = dep.machines()[0].client_facing;
        let cap = FirewallCapture::new(&dep, CaptureConfig::default());
        assert!(!cap.logs(&PacketRecord::icmpv6_echo(0, 1, dst, 96)));
        let link = FirewallCapture::new(
            &dep,
            CaptureConfig {
                drop_icmpv6: false,
                ..Default::default()
            },
        );
        assert!(link.logs(&PacketRecord::icmpv6_echo(0, 1, dst, 96)));
    }

    #[test]
    fn foreign_destinations_dropped() {
        let dep = deployment();
        let cap = FirewallCapture::new(&dep, CaptureConfig::default());
        assert!(!cap.logs(&PacketRecord::tcp(0, 1, 0xdead_beef, 1, 22, 60)));
    }

    #[test]
    fn non_client_facing_addresses_are_part_of_the_telescope() {
        let dep = deployment();
        let cap = FirewallCapture::new(&dep, CaptureConfig::default());
        let hidden = dep.machines()[0].non_client_facing;
        assert!(cap.logs(&PacketRecord::tcp(0, 1, hidden, 1, 8080, 60)));
    }

    #[test]
    fn stats_account_for_every_packet() {
        let dep = deployment();
        let cap = FirewallCapture::new(&dep, CaptureConfig::default());
        let dst = dep.machines()[0].client_facing;
        let records = vec![
            PacketRecord::tcp(0, 1, dst, 1, 22, 60),     // logged
            PacketRecord::tcp(1, 1, dst, 1, 80, 60),     // served port
            PacketRecord::icmpv6_echo(2, 1, dst, 96),    // icmpv6
            PacketRecord::tcp(3, 1, 0xdead, 1, 22, 60),  // foreign
            PacketRecord::udp(4, 1, dst, 500, 500, 120), // logged
        ];
        let (logged, stats) = cap.capture(&records);
        assert_eq!(logged.len(), 2);
        assert_eq!(stats.offered, 5);
        assert_eq!(stats.logged, 2);
        assert_eq!(stats.dropped_served_port, 1);
        assert_eq!(stats.dropped_icmpv6, 1);
        assert_eq!(stats.dropped_foreign, 1);
        assert_eq!(
            stats.logged + stats.dropped_foreign + stats.dropped_icmpv6 + stats.dropped_served_port,
            stats.offered
        );
    }
}

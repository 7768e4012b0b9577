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
    fn every_drop_reason_is_counted_once() {
        use std::collections::BTreeMap;
        let dep = deployment();
        let cap = FirewallCapture::new(&dep, CaptureConfig::default());
        // The same firewall with both service rules lifted: what it still
        // drops, it drops for the destination alone.
        let open = FirewallCapture::new(
            &dep,
            CaptureConfig {
                served_tcp_ports: Vec::new(),
                drop_icmpv6: false,
            },
        );
        let dst = dep.machines()[0].client_facing;
        // Each packet with the one reason the firewall drops it for, if any.
        let records = [
            (PacketRecord::tcp(0, 1, dst, 1, 22, 60), None),
            (PacketRecord::tcp(1, 1, dst, 1, 80, 60), Some("served port")),
            (PacketRecord::icmpv6_echo(2, 1, dst, 96), Some("icmpv6")),
            (PacketRecord::tcp(3, 1, 0xdead, 1, 22, 60), Some("foreign")),
            (PacketRecord::udp(4, 1, dst, 500, 500, 120), None),
        ];
        let (mut logged, mut dropped) = (0, BTreeMap::new());
        for (r, reason) in &records {
            assert_eq!(cap.logs(r), reason.is_none(), "{r:?}");
            assert_eq!(open.logs(r), *reason != Some("foreign"), "{r:?}");
            match reason {
                None => logged += 1,
                Some(why) => *dropped.entry(*why).or_insert(0) += 1,
            }
        }
        assert_eq!(logged, 2);
        let want = BTreeMap::from([("foreign", 1), ("icmpv6", 1), ("served port", 1)]);
        assert_eq!(dropped, want);
        assert_eq!(logged + dropped.values().sum::<usize>(), records.len());
    }
}

//! The [`PacketRecord`]: what a firewall log line reduces to.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Transport protocol of a logged packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Transport {
    /// TCP (only SYNs matter for scan logs, but we do not model flags).
    Tcp,
    /// UDP.
    Udp,
    /// ICMPv6; `sport`/`dport` carry (type, code) for these records.
    Icmpv6,
    /// Any other IPv6 next-header value.
    Other(u8),
}

impl Transport {
    /// Wire encoding used by the trace codec.
    pub fn to_byte(self) -> u8 {
        match self {
            Transport::Tcp => 6,
            Transport::Udp => 17,
            Transport::Icmpv6 => 58,
            Transport::Other(x) => x,
        }
    }

    /// Inverse of [`Transport::to_byte`].
    pub fn from_byte(b: u8) -> Transport {
        match b {
            6 => Transport::Tcp,
            17 => Transport::Udp,
            58 => Transport::Icmpv6,
            x => Transport::Other(x),
        }
    }

    /// Short protocol label as used in the paper's tables ("TCP/22").
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Tcp => "TCP",
            Transport::Udp => "UDP",
            Transport::Icmpv6 => "ICMPv6",
            Transport::Other(_) => "OTHER",
        }
    }
}

/// One unsolicited packet as logged by a firewall or captured at a link.
///
/// This is the unit of data for the whole pipeline. 56 bytes, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Milliseconds since the simulation epoch (2021-01-01T00:00:00Z).
    pub ts_ms: u64,
    /// Source IPv6 address.
    pub src: u128,
    /// Destination IPv6 address.
    pub dst: u128,
    /// Transport protocol.
    pub proto: Transport,
    /// Source port (ICMPv6: message type).
    pub sport: u16,
    /// Destination port (ICMPv6: message code).
    pub dport: u16,
    /// IP packet length in bytes.
    pub len: u16,
}

impl PacketRecord {
    /// Convenience constructor for a TCP packet.
    pub fn tcp(ts_ms: u64, src: u128, dst: u128, sport: u16, dport: u16, len: u16) -> Self {
        PacketRecord {
            ts_ms,
            src,
            dst,
            proto: Transport::Tcp,
            sport,
            dport,
            len,
        }
    }

    /// Convenience constructor for a UDP packet.
    pub fn udp(ts_ms: u64, src: u128, dst: u128, sport: u16, dport: u16, len: u16) -> Self {
        PacketRecord {
            ts_ms,
            src,
            dst,
            proto: Transport::Udp,
            sport,
            dport,
            len,
        }
    }

    /// Convenience constructor for an ICMPv6 echo request (type 128, code 0).
    pub fn icmpv6_echo(ts_ms: u64, src: u128, dst: u128, len: u16) -> Self {
        PacketRecord {
            ts_ms,
            src,
            dst,
            proto: Transport::Icmpv6,
            sport: 128,
            dport: 0,
            len,
        }
    }
}

impl fmt::Display for PacketRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} > {} {}/{} len={}",
            self.ts_ms,
            std::net::Ipv6Addr::from(self.src),
            std::net::Ipv6Addr::from(self.dst),
            self.proto.label(),
            self.dport,
            self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_byte_roundtrip() {
        for t in [
            Transport::Tcp,
            Transport::Udp,
            Transport::Icmpv6,
            Transport::Other(99),
        ] {
            assert_eq!(Transport::from_byte(t.to_byte()), t);
        }
        // Bytes 6/17/58 canonicalize to the named variants.
        assert_eq!(Transport::from_byte(6), Transport::Tcp);
        assert_eq!(Transport::from_byte(17), Transport::Udp);
        assert_eq!(Transport::from_byte(58), Transport::Icmpv6);
    }

    #[test]
    fn display_is_humane() {
        let r = PacketRecord::tcp(1500, 1, 2, 4000, 22, 60);
        let s = r.to_string();
        assert!(s.contains("TCP/22"), "{s}");
        assert!(s.contains("::1"), "{s}");
    }
}

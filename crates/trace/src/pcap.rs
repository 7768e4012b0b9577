//! Classic pcap import/export (LINKTYPE_RAW, IPv6).
//!
//! The native `.l6tr` format stores exactly what detection needs; this
//! module bridges to the rest of the world:
//!
//! - [`write_pcap`] synthesizes real IPv6 packets — proper headers, valid
//!   TCP/UDP/ICMPv6 checksums over the IPv6 pseudo-header — so generated
//!   traces open in Wireshark/tcpdump and can drive other tools.
//! - [`PcapReader`] ingests captures (both endiannesses, micro- and
//!   nanosecond variants, LINKTYPE_RAW and LINKTYPE_ETHERNET) and reduces
//!   each IPv6 TCP/UDP/ICMPv6 packet to a [`PacketRecord`]; anything else
//!   (IPv4, ARP, extension-header chains) is counted and skipped, never an
//!   error.
//!
//! Timestamps map between pcap epoch seconds and the simulation clock
//! 1:1 — a capture taken "now" simply lands far past the simulated window,
//! which is irrelevant to detection (only deltas matter).

use crate::record::{PacketRecord, Transport};
use lumen6_addr::cast::{sat_u16, sat_u32};
use lumen6_obs::MetricsRegistry;
use std::borrow::Borrow;
use std::io::{self, Read, Write};

/// LINKTYPE_RAW: packets start directly with the IP header.
pub const LINKTYPE_RAW: u32 = 101;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_NS: u32 = 0xa1b2_3c4d;

/// Errors from pcap parsing.
#[derive(Debug)]
pub enum PcapError {
    /// Not a pcap file (unknown magic).
    BadMagic(u32),
    /// Link type this reader does not handle.
    UnsupportedLinkType(u32),
    /// Truncated global or record header.
    Truncated,
    /// A record field does not fit its on-disk width (e.g. a timestamp past
    /// the 32-bit pcap epoch range).
    FieldOverflow(&'static str, u64),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::UnsupportedLinkType(lt) => write!(f, "unsupported link type {lt}"),
            PcapError::Truncated => write!(f, "truncated pcap"),
            PcapError::FieldOverflow(name, v) => {
                write!(f, "field {name} = {v} does not fit the pcap format")
            }
            PcapError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Internet checksum (RFC 1071) over the given byte slices.
fn checksum(parts: &[&[u8]]) -> u16 {
    let mut sum = 0u32;
    for part in parts {
        let mut chunks = part.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    // The fold loop above leaves `sum` < 0x10000, so the mask is exact.
    !((sum & 0xffff) as u16)
}

/// Builds the on-wire IPv6 packet for a record: header + transport header +
/// zero padding up to the recorded packet length.
fn build_packet(r: &PacketRecord) -> Vec<u8> {
    let next_header = r.proto.to_byte();
    let transport_len = match r.proto {
        Transport::Tcp => 20usize,
        Transport::Udp => 8,
        Transport::Icmpv6 => 8,
        Transport::Other(_) => 0,
    };
    // Total IP length is the recorded length, but never shorter than the
    // headers we must emit.
    let total = usize::from(r.len).max(40 + transport_len);
    let payload_len = total - 40;
    let mut pkt = Vec::with_capacity(total);

    // IPv6 header.
    pkt.extend_from_slice(&[0x60, 0, 0, 0]); // version 6, tc 0, flow 0
    pkt.extend_from_slice(&sat_u16(payload_len).to_be_bytes());
    pkt.push(next_header);
    pkt.push(64); // hop limit
    pkt.extend_from_slice(&r.src.to_be_bytes());
    pkt.extend_from_slice(&r.dst.to_be_bytes());

    // Pseudo-header for transport checksums.
    let mut pseudo = Vec::with_capacity(40);
    pseudo.extend_from_slice(&r.src.to_be_bytes());
    pseudo.extend_from_slice(&r.dst.to_be_bytes());
    pseudo.extend_from_slice(&sat_u32(payload_len).to_be_bytes());
    pseudo.extend_from_slice(&[0, 0, 0, next_header]);

    let pad = payload_len - transport_len;
    let padding = vec![0u8; pad];
    match r.proto {
        Transport::Tcp => {
            let mut tcp = Vec::with_capacity(20);
            tcp.extend_from_slice(&r.sport.to_be_bytes());
            tcp.extend_from_slice(&r.dport.to_be_bytes());
            tcp.extend_from_slice(&1u32.to_be_bytes()); // seq
            tcp.extend_from_slice(&0u32.to_be_bytes()); // ack
            tcp.push(5 << 4); // data offset 5 words
            tcp.push(0x02); // SYN
            tcp.extend_from_slice(&64_240u16.to_be_bytes()); // window
            tcp.extend_from_slice(&[0, 0]); // checksum placeholder
            tcp.extend_from_slice(&[0, 0]); // urgent
            let ck = checksum(&[&pseudo, &tcp, &padding]);
            tcp[16..18].copy_from_slice(&ck.to_be_bytes());
            pkt.extend_from_slice(&tcp);
        }
        Transport::Udp => {
            let mut udp = Vec::with_capacity(8);
            udp.extend_from_slice(&r.sport.to_be_bytes());
            udp.extend_from_slice(&r.dport.to_be_bytes());
            udp.extend_from_slice(&sat_u16(payload_len).to_be_bytes());
            udp.extend_from_slice(&[0, 0]);
            let ck = checksum(&[&pseudo, &udp, &padding]);
            // UDP checksum 0 means "none" — RFC 8200 forbids it for IPv6;
            // an all-zero result is transmitted as 0xffff.
            let ck = if ck == 0 { 0xffff } else { ck };
            udp[6..8].copy_from_slice(&ck.to_be_bytes());
            pkt.extend_from_slice(&udp);
        }
        Transport::Icmpv6 => {
            // sport carries the type, dport the code.
            let mut icmp = vec![r.sport as u8, r.dport as u8, 0, 0];
            icmp.extend_from_slice(&[0, 0x2a, 0, 1]); // identifier/sequence
            let ck = checksum(&[&pseudo, &icmp, &padding]);
            icmp[2..4].copy_from_slice(&ck.to_be_bytes());
            pkt.extend_from_slice(&icmp);
        }
        Transport::Other(_) => {}
    }
    pkt.extend_from_slice(&padding);
    pkt
}

/// Writes records as a classic pcap file (microsecond timestamps,
/// LINKTYPE_RAW), a packet as each is drawn from `records` — resident or
/// streamed. Returns the number of packets written.
///
/// Classic pcap stores epoch seconds in 32 bits; a record whose timestamp
/// does not fit is a [`PcapError::FieldOverflow`] — previously it was
/// silently wrapped, producing a capture with scrambled times.
pub fn write_pcap<W: Write>(
    records: impl IntoIterator<Item = impl Borrow<PacketRecord>>,
    mut out: W,
) -> Result<u64, PcapError> {
    // Global header.
    out.write_all(&MAGIC_US.to_le_bytes())?;
    out.write_all(&2u16.to_le_bytes())?; // major
    out.write_all(&4u16.to_le_bytes())?; // minor
    out.write_all(&0i32.to_le_bytes())?; // thiszone
    out.write_all(&0u32.to_le_bytes())?; // sigfigs
    out.write_all(&65_535u32.to_le_bytes())?; // snaplen
    out.write_all(&LINKTYPE_RAW.to_le_bytes())?;

    let mut packets = 0;
    for r in records {
        let r = r.borrow();
        let ts_sec = r.ts_ms / 1000;
        let ts_sec =
            u32::try_from(ts_sec).map_err(|_| PcapError::FieldOverflow("ts_sec", ts_sec))?;
        let pkt = build_packet(r);
        out.write_all(&ts_sec.to_le_bytes())?;
        out.write_all(&(((r.ts_ms % 1000) * 1000) as u32).to_le_bytes())?;
        let wire_len = sat_u32(pkt.len());
        out.write_all(&wire_len.to_le_bytes())?;
        out.write_all(&wire_len.to_le_bytes())?;
        out.write_all(&pkt)?;
        packets += 1;
    }
    out.flush()?;
    MetricsRegistry::global()
        .counter("trace.pcap.packets_written")
        .add(packets);
    Ok(packets)
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

fn u16_at(b: &[u8], o: usize) -> u16 {
    u16::from_be_bytes([b[o], b[o + 1]])
}

/// Parses one link-layer frame into a record. Returns `None` for anything
/// that is not a plain IPv6 TCP/UDP/ICMPv6 packet. A frame longer than the
/// 16-bit record length field clamps `len` to `u16::MAX` and bumps
/// `truncated`.
fn parse_frame(
    link_type: u32,
    ts_ms: u64,
    frame: &[u8],
    truncated: &mut u64,
) -> Option<PacketRecord> {
    let ip = match link_type {
        LINKTYPE_RAW => frame,
        LINKTYPE_ETHERNET => {
            if frame.len() < 14 || u16_at(frame, 12) != 0x86dd {
                return None;
            }
            &frame[14..]
        }
        _ => return None,
    };
    if ip.len() < 40 || ip[0] >> 4 != 6 {
        return None;
    }
    let next_header = ip[6];
    let src = u128::from_be_bytes(ip[8..24].try_into().ok()?);
    let dst = u128::from_be_bytes(ip[24..40].try_into().ok()?);
    let transport = &ip[40..];
    let (proto, sport, dport) = match next_header {
        6 if transport.len() >= 4 => (Transport::Tcp, u16_at(transport, 0), u16_at(transport, 2)),
        17 if transport.len() >= 4 => (Transport::Udp, u16_at(transport, 0), u16_at(transport, 2)),
        58 if transport.len() >= 2 => (
            Transport::Icmpv6,
            u16::from(transport[0]),
            u16::from(transport[1]),
        ),
        _ => return None,
    };
    if ip.len() > usize::from(u16::MAX) {
        *truncated += 1;
    }
    Some(PacketRecord {
        ts_ms,
        src,
        dst,
        proto,
        sport,
        dport,
        len: sat_u16(ip.len()),
    })
}

/// Largest frame the reader will buffer. Classic pcap snaplen tops out at
/// 64 KiB in practice; anything bigger is treated as unparseable and the
/// bytes are discarded in chunks so a corrupt length field cannot force a
/// giant allocation.
const MAX_FRAME_LEN: usize = 256 * 1024;

/// Locally accumulated import telemetry, flushed to the global registry on
/// drop (`trace.pcap.*`).
#[derive(Debug, Default)]
struct PcapStats {
    imported: u64,
    skipped: u64,
    truncated: u64,
}

impl PcapStats {
    fn flush(&mut self) {
        let reg = MetricsRegistry::global();
        if self.imported > 0 {
            reg.counter("trace.pcap.frames_imported").add(self.imported);
        }
        if self.skipped > 0 {
            reg.counter("trace.pcap.frames_skipped").add(self.skipped);
        }
        if self.truncated > 0 {
            reg.counter("trace.pcap.frames_truncated")
                .add(self.truncated);
        }
        // Field-by-field: `*self = default()` would recurse through Drop.
        self.imported = 0;
        self.skipped = 0;
        self.truncated = 0;
    }
}

impl Drop for PcapStats {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Streaming classic-pcap reader over any [`Read`] source in bounded
/// memory: only the 24-byte global header, one 16-byte record header, and
/// one frame (≤ [`MAX_FRAME_LEN`]) are ever buffered, matching the
/// [`StreamingTraceReader`](crate::codec::StreamingTraceReader) guarantee.
///
/// Yields each parseable IPv6 TCP/UDP/ICMPv6 packet; everything else
/// (non-IPv6 frames, unhandled next headers, truncated tails, oversized
/// frames) is counted in [`skipped`](PcapReader::skipped) and never an
/// error. I/O failures surface as `Err` items and fuse the iterator.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    src: R,
    big_endian: bool,
    nanos: bool,
    link_type: u32,
    frame: Vec<u8>,
    skipped: u64,
    stats: PcapStats,
    done: bool,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the 24-byte global header.
    pub fn new(mut src: R) -> Result<Self, PcapError> {
        let mut header = [0u8; 24];
        src.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                PcapError::Truncated
            } else {
                PcapError::Io(e)
            }
        })?;
        let magic = [header[0], header[1], header[2], header[3]];
        let magic_le = u32::from_le_bytes(magic);
        let magic_be = u32::from_be_bytes(magic);
        let (big_endian, nanos) = if magic_le == MAGIC_US {
            (false, false)
        } else if magic_le == MAGIC_NS {
            (false, true)
        } else if magic_be == MAGIC_US {
            (true, false)
        } else if magic_be == MAGIC_NS {
            (true, true)
        } else {
            return Err(PcapError::BadMagic(magic_le));
        };
        let link_bytes = [header[20], header[21], header[22], header[23]];
        let link_type = if big_endian {
            u32::from_be_bytes(link_bytes)
        } else {
            u32::from_le_bytes(link_bytes)
        };
        if link_type != LINKTYPE_RAW && link_type != LINKTYPE_ETHERNET {
            return Err(PcapError::UnsupportedLinkType(link_type));
        }
        Ok(PcapReader {
            src,
            big_endian,
            nanos,
            link_type,
            frame: Vec::new(),
            skipped: 0,
            stats: PcapStats::default(),
            done: false,
        })
    }

    /// Packets skipped so far (non-IPv6, unhandled next header, truncated
    /// or oversized data).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    fn u32_field(&self, b: &[u8; 16], o: usize) -> u32 {
        let arr = [b[o], b[o + 1], b[o + 2], b[o + 3]];
        if self.big_endian {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    }

    /// Fills `out` from the source. Returns how many bytes were read before
    /// EOF (== `out.len()` when fully filled).
    fn fill(&mut self, out: &mut [u8]) -> Result<usize, PcapError> {
        let mut filled = 0;
        while filled < out.len() {
            let n = self.src.read(&mut out[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        Ok(filled)
    }

    /// Discards exactly `n` bytes in bounded chunks. Returns false on EOF.
    fn discard(&mut self, mut n: usize) -> Result<bool, PcapError> {
        let mut sink = [0u8; 8 * 1024];
        while n > 0 {
            let want = n.min(sink.len());
            let got = self.fill(&mut sink[..want])?;
            if got == 0 {
                return Ok(false);
            }
            n -= got;
        }
        Ok(true)
    }

    fn next_packet(&mut self) -> Result<Option<PacketRecord>, PcapError> {
        loop {
            let mut rec_hdr = [0u8; 16];
            let got = self.fill(&mut rec_hdr)?;
            if got == 0 {
                return Ok(None); // clean EOF at a record boundary
            }
            if got < rec_hdr.len() {
                // Trailing garbage shorter than a record header: count and stop.
                self.skipped += 1;
                self.stats.skipped += 1;
                return Ok(None);
            }
            let ts_sec = u64::from(self.u32_field(&rec_hdr, 0));
            let ts_frac = u64::from(self.u32_field(&rec_hdr, 4));
            let incl = self.u32_field(&rec_hdr, 8) as usize;
            if incl > MAX_FRAME_LEN {
                self.skipped += 1;
                self.stats.skipped += 1;
                if !self.discard(incl)? {
                    return Ok(None);
                }
                continue;
            }
            self.frame.resize(incl, 0);
            let mut frame = std::mem::take(&mut self.frame);
            let got = self.fill(&mut frame)?;
            self.frame = frame;
            if got < incl {
                self.skipped += 1;
                self.stats.skipped += 1;
                return Ok(None);
            }
            let ts_ms = ts_sec * 1000
                + if self.nanos {
                    ts_frac / 1_000_000
                } else {
                    ts_frac / 1000
                };
            match parse_frame(
                self.link_type,
                ts_ms,
                &self.frame,
                &mut self.stats.truncated,
            ) {
                Some(r) => {
                    self.stats.imported += 1;
                    return Ok(Some(r));
                }
                None => {
                    self.skipped += 1;
                    self.stats.skipped += 1;
                }
            }
        }
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<PacketRecord, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_packet() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<PacketRecord> {
        vec![
            PacketRecord::tcp(1_500, 0x2001 << 112 | 1, 0x2001 << 112 | 2, 40_000, 22, 60),
            PacketRecord::udp(2_000, 3, 4, 500, 500, 120),
            PacketRecord::icmpv6_echo(3_250, 5, 6, 96),
            PacketRecord::tcp(4_000, 7, 8, 1, 65_535, 1_400),
        ]
    }

    /// Drains a [`PcapReader`] over `bytes`: the records, in capture order,
    /// and the packets it skipped.
    fn import(bytes: &[u8]) -> Result<(Vec<PacketRecord>, u64), PcapError> {
        let mut reader = PcapReader::new(bytes)?;
        let records = reader.by_ref().collect::<Result<_, _>>()?;
        Ok((records, reader.skipped()))
    }

    #[test]
    fn roundtrip_preserves_records() {
        // A 40-byte TCP and a 40-byte UDP record are shorter than their
        // headers: the smallest packet of each transport.
        let mut recs = sample();
        recs.push(PacketRecord::tcp(5_000, 9, 10, 2, 22, 40));
        recs.push(PacketRecord::udp(6_000, 11, 12, 3, 53, 40));
        let mut buf = Vec::new();
        assert_eq!(write_pcap(&recs, &mut buf).unwrap(), 6);
        let (records, skipped) = import(&buf).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), recs.len());
        for (got, want) in records.iter().zip(&recs) {
            assert_eq!(got.src, want.src);
            assert_eq!(got.dst, want.dst);
            assert_eq!(got.proto, want.proto);
            assert_eq!(got.dport, want.dport);
            assert_eq!(got.sport, want.sport);
            // Millisecond timestamps survive the µs encoding.
            assert_eq!(got.ts_ms, want.ts_ms);
            // Length is padded up to the IPv6 header plus the transport's.
            let headers = match want.proto {
                Transport::Tcp => 40 + 20,
                _ => 40 + 8,
            };
            assert_eq!(got.len, want.len.max(headers), "{:?}", want.proto);
        }
        assert_eq!((records[4].len, records[5].len), (60, 48));
    }

    #[test]
    fn tcp_checksum_is_valid() {
        // Verify our own checksum: recomputing over the emitted packet with
        // the checksum field zeroed must reproduce the stored value.
        let r = PacketRecord::tcp(0, 0xaaaa, 0xbbbb, 1234, 80, 80);
        let pkt = build_packet(&r);
        assert_eq!(pkt[0] >> 4, 6, "IPv6 version");
        let payload_len = usize::from(u16_at(&pkt, 4));
        let stored = u16_at(&pkt, 40 + 16);
        let mut zeroed = pkt.clone();
        zeroed[40 + 16] = 0;
        zeroed[40 + 17] = 0;
        let mut pseudo = Vec::new();
        pseudo.extend_from_slice(&r.src.to_be_bytes());
        pseudo.extend_from_slice(&r.dst.to_be_bytes());
        pseudo.extend_from_slice(&(payload_len as u32).to_be_bytes());
        pseudo.extend_from_slice(&[0, 0, 0, 6]);
        assert_eq!(checksum(&[&pseudo, &zeroed[40..]]), stored);
    }

    #[test]
    fn udp_and_icmpv6_checksums_verify_to_zero() {
        // RFC 1071: checksumming a packet *including* its checksum yields 0.
        for r in [
            PacketRecord::udp(0, 1, 2, 500, 500, 200),
            PacketRecord::icmpv6_echo(0, 1, 2, 96),
        ] {
            let pkt = build_packet(&r);
            let payload_len = usize::from(u16_at(&pkt, 4));
            let mut pseudo = Vec::new();
            pseudo.extend_from_slice(&r.src.to_be_bytes());
            pseudo.extend_from_slice(&r.dst.to_be_bytes());
            pseudo.extend_from_slice(&(payload_len as u32).to_be_bytes());
            pseudo.extend_from_slice(&[0, 0, 0, r.proto.to_byte()]);
            let full = checksum(&[&pseudo, &pkt[40..]]);
            assert_eq!(full, 0, "{:?}", r.proto);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = import(b"NOTPCAP_AT_ALL_________").unwrap_err();
        assert!(matches!(err, PcapError::Truncated | PcapError::BadMagic(_)));
        let mut bogus = [0u8; 24];
        bogus[0..4].copy_from_slice(&0xdeadbeefu32.to_le_bytes());
        assert!(matches!(
            import(&bogus).unwrap_err(),
            PcapError::BadMagic(_)
        ));
    }

    #[test]
    fn truncated_record_counts_as_skipped() {
        let mut buf = Vec::new();
        write_pcap(sample(), &mut buf).unwrap();
        let cut = &buf[..buf.len() - 10];
        let (records, skipped) = import(cut).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn ethernet_frames_parse_and_non_ipv6_skipped() {
        // Hand-build an Ethernet-linktype capture with one IPv6 TCP packet
        // and one ARP frame.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0i32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65_535u32.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());

        let r = PacketRecord::tcp(5_000, 0x11, 0x22, 1000, 443, 60);
        let ip = build_packet(&r);
        let mut frame = vec![0u8; 12];
        frame.extend_from_slice(&0x86ddu16.to_be_bytes());
        frame.extend_from_slice(&ip);
        buf.extend_from_slice(&5u32.to_le_bytes()); // ts_sec
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&frame);

        // An ARP frame (ethertype 0x0806).
        let mut arp = vec![0u8; 12];
        arp.extend_from_slice(&0x0806u16.to_be_bytes());
        arp.extend_from_slice(&[0u8; 28]);
        buf.extend_from_slice(&6u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(arp.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(arp.len() as u32).to_le_bytes());
        buf.extend_from_slice(&arp);

        let (records, skipped) = import(&buf).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 1);
        assert_eq!(records[0].dport, 443);
        assert_eq!(records[0].src, 0x11);
    }

    #[test]
    fn big_endian_and_nanosecond_captures_parse() {
        // Big-endian, nanosecond-resolution header with one RAW IPv6 packet.
        let r = PacketRecord::udp(7_000, 9, 10, 53, 53, 80);
        let ip = build_packet(&r);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NS.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65_535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes()); // sec
        buf.extend_from_slice(&500_000u32.to_be_bytes()); // ns = 0.5 ms
        buf.extend_from_slice(&(ip.len() as u32).to_be_bytes());
        buf.extend_from_slice(&(ip.len() as u32).to_be_bytes());
        buf.extend_from_slice(&ip);
        let (records, _) = import(&buf).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].ts_ms, 7_000);
        assert_eq!(records[0].dport, 53);
    }

    #[test]
    fn unsupported_link_type_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        buf.extend_from_slice(&147u32.to_le_bytes()); // USER0
        assert!(matches!(
            import(&buf).unwrap_err(),
            PcapError::UnsupportedLinkType(147)
        ));
    }

    #[test]
    fn empty_capture_is_fine() {
        let mut buf = Vec::new();
        write_pcap(std::iter::empty::<PacketRecord>(), &mut buf).unwrap();
        let (records, skipped) = import(&buf).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn timestamp_past_u32_epoch_is_field_overflow() {
        // 2^32 seconds (~year 2106) does not fit the classic pcap ts_sec
        // field; the writer must refuse instead of silently wrapping.
        let r = PacketRecord::tcp((u64::from(u32::MAX) + 1) * 1000, 1, 2, 1, 22, 60);
        let err = write_pcap([r], Vec::new()).unwrap_err();
        assert!(matches!(err, PcapError::FieldOverflow("ts_sec", _)));
        // The last representable second is still fine.
        let r = PacketRecord::tcp(u64::from(u32::MAX) * 1000, 1, 2, 1, 22, 60);
        assert_eq!(write_pcap([r], Vec::new()).unwrap(), 1);
    }

    #[test]
    fn oversized_frame_clamps_len_and_counts_truncation() {
        // A RAW IPv6 frame longer than the 16-bit record length field:
        // hand-build a 70 000-byte packet (header + zero payload).
        let mut ip = vec![0u8; 70_000];
        ip[0] = 0x60; // version 6
        ip[6] = 6; // next header TCP
        ip[40..44].copy_from_slice(&[0x01, 0x00, 0x01, 0xbb]); // ports 256 → 443

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0i32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65_535u32.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(ip.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(ip.len() as u32).to_le_bytes());
        buf.extend_from_slice(&ip);

        let before = lumen6_obs::MetricsRegistry::global()
            .counter("trace.pcap.frames_truncated")
            .get();
        let (records, _) = import(&buf).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].len, u16::MAX, "length clamped");
        assert_eq!(records[0].dport, 443);
        let after = lumen6_obs::MetricsRegistry::global()
            .counter("trace.pcap.frames_truncated")
            .get();
        assert_eq!(after - before, 1, "clamp recorded in metrics");
    }

    #[test]
    fn absurd_length_field_skips_in_bounded_memory() {
        // A corrupt record claiming a multi-megabyte frame must not trigger
        // a matching allocation; the reader discards what bytes exist.
        let mut buf = Vec::new();
        write_pcap(sample(), &mut buf).unwrap();
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(64 * 1024 * 1024u32).to_le_bytes());
        buf.extend_from_slice(&(64 * 1024 * 1024u32).to_le_bytes());
        buf.extend_from_slice(&[0u8; 100]); // only 100 of the claimed 64 MiB
        let (records, skipped) = import(&buf).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn streaming_reader_yields_records_one_at_a_time() {
        let mut buf = Vec::new();
        write_pcap(sample(), &mut buf).unwrap();
        let mut reader = PcapReader::new(&buf[..]).unwrap();
        let first = reader.next().unwrap().unwrap();
        assert_eq!((first.ts_ms, first.dport), (1_500, 22));
        assert_eq!(reader.by_ref().count(), 3);
        assert!(reader.next().is_none(), "fused at the end");
        assert_eq!(reader.skipped(), 0);
    }
}

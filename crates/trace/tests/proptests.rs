//! Property tests: codec round-trip over arbitrary sorted traces, and
//! calendar round-trips.

use lumen6_trace::codec::{decode, encode};
use lumen6_trace::time::{civil_from_days, days_from_civil};
use lumen6_trace::{merge_sorted, PacketRecord, Transport};
use proptest::prelude::*;

fn arb_transport() -> impl Strategy<Value = Transport> {
    prop_oneof![
        Just(Transport::Tcp),
        Just(Transport::Udp),
        Just(Transport::Icmpv6),
        any::<u8>().prop_map(Transport::from_byte),
    ]
}

fn arb_record() -> impl Strategy<Value = (u64, PacketRecord)> {
    (
        0u64..10_000,
        any::<u128>(),
        any::<u128>(),
        arb_transport(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(dt, src, dst, proto, sport, dport, len)| {
            (
                dt,
                PacketRecord {
                    ts_ms: 0,
                    src,
                    dst,
                    proto,
                    sport,
                    dport,
                    len,
                },
            )
        })
}

proptest! {
    #[test]
    fn codec_roundtrip(deltas in proptest::collection::vec(arb_record(), 0..200)) {
        let mut ts = 0u64;
        let recs: Vec<PacketRecord> = deltas
            .into_iter()
            .map(|(dt, mut r)| {
                ts += dt;
                r.ts_ms = ts;
                r
            })
            .collect();
        let bytes = encode(&recs).unwrap();
        prop_assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn truncation_never_panics(
        deltas in proptest::collection::vec(arb_record(), 1..50),
        cut in 0usize..100,
    ) {
        let mut ts = 0u64;
        let recs: Vec<PacketRecord> = deltas
            .into_iter()
            .map(|(dt, mut r)| {
                ts += dt;
                r.ts_ms = ts;
                r
            })
            .collect();
        let bytes = encode(&recs).unwrap();
        let cut = cut.min(bytes.len());
        // Either a header error or a per-record error; never a panic, and
        // successfully decoded prefix records must match the originals.
        match lumen6_trace::StreamingTraceReader::new(&bytes[..cut]) {
            Err(_) => {}
            Ok(reader) => {
                for (i, item) in reader.enumerate() {
                    match item {
                        Ok(r) => prop_assert_eq!(r, recs[i]),
                        Err(_) => break,
                    }
                }
            }
        }
    }

    #[test]
    fn civil_date_roundtrip(days in -1_000_000i64..1_000_000) {
        let (y, m, d) = civil_from_days(days);
        prop_assert_eq!(days_from_civil(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    #[test]
    fn merge_sorted_is_sorted_and_complete(
        lens in proptest::collection::vec(proptest::collection::vec(0u64..100, 0..30), 0..6)
    ) {
        let traces: Vec<Vec<PacketRecord>> = lens
            .into_iter()
            .map(|deltas| {
                let mut ts = 0u64;
                deltas
                    .into_iter()
                    .map(|d| {
                        ts += d;
                        PacketRecord::tcp(ts, 1, 2, 1, 22, 60)
                    })
                    .collect()
            })
            .collect();
        let total: usize = traces.iter().map(std::vec::Vec::len).sum();
        let merged = merge_sorted(traces);
        prop_assert_eq!(merged.len(), total);
        prop_assert!(merged.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
    }
}

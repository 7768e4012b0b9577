//! Property tests: codec round-trip over arbitrary sorted traces,
//! calendar round-trips, and the day sort against the stable time sort.

use lumen6_trace::codec::{decode, encode};
use lumen6_trace::time::{civil_from_days, days_from_civil};
use lumen6_trace::{sort_day_by_time, PacketRecord, Transport, DAY_MS};
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
    fn day_sort_is_the_stable_time_sort(
        day in 1u64..20_000,
        // A few milliseconds of the day, so most records tie; the day's
        // first and last millisecond are always among them.
        mut offsets in proptest::collection::vec(0..DAY_MS, 0..6),
        picks in proptest::collection::vec(any::<usize>(), 0..2_000),
        // Whether one record lies outside the day (1: just before it, 2:
        // up to a day after it), and where it is inserted.
        (outside, at) in (0u8..3, any::<usize>()),
    ) {
        offsets.extend([0, DAY_MS - 1]);
        let t0 = day * DAY_MS;
        // Each record's arrival position is in `sport`, so a reordering of
        // tied records shows.
        let rec = |i: usize, ts| PacketRecord::tcp(ts, 1, 2, i as u16, 22, 60);
        let mut recs: Vec<PacketRecord> = picks
            .iter()
            .enumerate()
            .map(|(i, pick)| rec(i, t0 + offsets[pick % offsets.len()]))
            .collect();
        if outside > 0 {
            let ts = if outside == 2 {
                t0 + DAY_MS + offsets[at % offsets.len()]
            } else {
                t0 - 1
            };
            recs.insert(at % (recs.len() + 1), rec(recs.len(), ts));
        }
        let mut expected = recs.clone();
        expected.sort_by_key(|r| r.ts_ms);
        sort_day_by_time(&mut recs, day, |r| r.ts_ms);
        prop_assert_eq!(recs, expected);
    }
}

//! Streams generated a day at a time.
//!
//! A vantage's fixed streams — the CDN's artifacts and noise, MAWI's
//! background traffic and small scanners — are each a [`DayStepper`]: a
//! value that holds its RNG and configuration and writes one UTC day's
//! records at a time into a reused [`DayRows`], drawing exactly as one loop
//! over the whole horizon would. A consumer holds one day of rows, whatever
//! the horizon.
//!
//! A stepper pushes a flow when it mints an address pair
//! ([`DayRows::flow`]) and each packet as a 16-byte row carrying the flow's
//! id, in any order within the day. [`DayRows::sorted`] sorts the day
//! stably by time ([`sort_day_by_time`], moving rows, not records) and
//! rebuilds each record as it is read. Every row falls in the day it is
//! pushed under, so the days read one after another are the whole stream's
//! stable time sort.

use crate::{sort_day_by_time, PacketRecord, Transport, DAY_MS};
use lumen6_addr::cast::sat_u32;
use std::fmt;

/// One packet: its millisecond of the day, its flow's id and the fields
/// the flow does not hold. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    ms: u32,
    flow: u32,
    sport: u16,
    dport: u16,
    len: u16,
    proto: Transport,
}

/// One day of a stream: a flow table of (source, destination) pairs and
/// the rows that name them (see the [module docs](self)). The default is
/// day 0, empty.
#[derive(Debug, Default)]
pub struct DayRows {
    day: u64,
    flows: Vec<(u128, u128)>,
    rows: Vec<Row>,
}

impl DayRows {
    /// Drops the rows and flows held and opens `day`, keeping the capacity.
    pub fn open_day(&mut self, day: u64) {
        self.flows.clear();
        self.rows.clear();
        self.day = day;
    }

    /// Adds the flow `src → dst` and returns its id. Pairs are not
    /// interned: adding one twice gives two ids.
    pub fn flow(&mut self, src: u128, dst: u128) -> u32 {
        let id = sat_u32(self.flows.len());
        assert!(id < u32::MAX, "a day holds fewer than 2^32 - 1 flows");
        self.flows.push((src, dst));
        id
    }

    /// Adds a packet of flow `flow` at `ts_ms`, which must fall inside the
    /// open day.
    pub fn push(
        &mut self,
        ts_ms: u64,
        flow: u32,
        proto: Transport,
        sport: u16,
        dport: u16,
        len: u16,
    ) {
        let ms = u32::try_from(ts_ms.wrapping_sub(self.day * DAY_MS)).unwrap_or(u32::MAX);
        assert!(
            u64::from(ms) < DAY_MS,
            "a row falls in the day it is pushed under"
        );
        assert!((flow as usize) < self.flows.len(), "row of an unknown flow");
        self.rows.push(Row {
            ms,
            flow,
            sport,
            dport,
            len,
            proto,
        });
    }

    /// How many rows the day holds.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the day holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Heap bytes the flow table and the rows hold.
    pub fn held_bytes(&self) -> usize {
        self.flows.capacity() * std::mem::size_of::<(u128, u128)>()
            + self.rows.capacity() * std::mem::size_of::<Row>()
    }

    /// The flow table: flow `id`'s (source, destination) pair is entry
    /// `id`.
    pub fn flows(&self) -> &[(u128, u128)] {
        &self.flows
    }

    /// Sorts the day's rows stably by time and reads each one's flow id
    /// and record in that order.
    pub fn sorted(&mut self) -> impl Iterator<Item = (u32, PacketRecord)> + '_ {
        let t0 = self.day * DAY_MS;
        sort_day_by_time(&mut self.rows, self.day, |r| t0 + u64::from(r.ms));
        let flows = &self.flows;
        self.rows.iter().map(move |row| {
            let (src, dst) = flows[row.flow as usize];
            let record = PacketRecord {
                ts_ms: t0 + u64::from(row.ms),
                src,
                dst,
                proto: row.proto,
                sport: row.sport,
                dport: row.dport,
                len: row.len,
            };
            (row.flow, record)
        })
    }
}

/// A stream generated one UTC day at a time (see the [module docs](self)).
/// A stepper that has not stepped is the stream's recipe: its clones start
/// the stream from its first day.
pub trait DayStepper: CloneStepper + fmt::Debug + Send + Sync {
    /// Writes the stream's next day into `out`, opened with
    /// [`DayRows::open_day`], and returns `true`; once every day is
    /// written, returns `false` and leaves `out` as it is.
    fn step(&mut self, out: &mut DayRows) -> bool;
}

/// Copies a boxed [`DayStepper`]; every `Clone` stepper has it.
pub trait CloneStepper {
    /// This stepper, in its current state, boxed.
    fn clone_box(&self) -> Box<dyn DayStepper>;
}

impl<T: DayStepper + Clone + 'static> CloneStepper for T {
    fn clone_box(&self) -> Box<dyn DayStepper> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_row_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
    }

    #[test]
    #[should_panic(expected = "in the day")]
    fn a_row_outside_its_day_is_refused() {
        let mut day = DayRows::default();
        day.open_day(2);
        let flow = day.flow(1, 2);
        day.push(3 * DAY_MS, flow, Transport::Tcp, 1, 2, 3);
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn a_row_of_an_unknown_flow_is_refused() {
        let mut day = DayRows::default();
        day.push(5, 0, Transport::Tcp, 1, 2, 3);
    }

    #[test]
    fn opening_a_day_drops_the_last_and_keeps_the_capacity() {
        let mut day = DayRows::default();
        day.open_day(1);
        let flow = day.flow(1, 2);
        for ms in 0..100 {
            day.push(DAY_MS + ms, flow, Transport::Udp, 1, 2, 3);
        }
        let held = day.held_bytes();
        day.open_day(4);
        assert!(day.is_empty() && day.sorted().next().is_none());
        assert_eq!(day.held_bytes(), held);
    }

    fn transport() -> impl Strategy<Value = Transport> {
        prop_oneof![
            Just(Transport::Tcp),
            Just(Transport::Udp),
            Just(Transport::Icmpv6),
            // The byte a `Tcp` row encodes to on the wire: kept distinct.
            Just(Transport::Other(6)),
            any::<u8>().prop_map(Transport::Other),
        ]
    }

    proptest! {
        #[test]
        fn a_day_pushed_in_any_order_comes_back_stably_sorted(
            rows in proptest::collection::vec((0u64..DAY_MS, transport(), 0u8..3), 0..300),
            day in 0u64..1_000,
        ) {
            let mut out = DayRows::default();
            out.open_day(day);
            let flows: Vec<u32> = (0..3u128).map(|f| out.flow(f, !f)).collect();
            let mut expected = Vec::new();
            for (i, &(ms, proto, f)) in rows.iter().enumerate() {
                // The arrival position is in `sport`, so a reordering of
                // tied rows shows.
                let ts = day * DAY_MS + ms;
                out.push(ts, flows[f as usize], proto, i as u16, 0, 60);
                let (src, dst) = (u128::from(f), !u128::from(f));
                expected.push(PacketRecord { ts_ms: ts, src, dst, proto, sport: i as u16, dport: 0, len: 60 });
            }
            expected.sort_by_key(|r| r.ts_ms);
            prop_assert_eq!(out.len(), expected.len());
            prop_assert_eq!(out.sorted().map(|(_, r)| r).collect::<Vec<_>>(), expected);
        }
    }
}

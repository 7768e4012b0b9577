//! Fused generation: the [`Source`] that *defines* a vantage's trace —
//! its scanner actors merged with its fixed streams and, at the CDN, passed
//! through the firewall capture, in timestamp order — synthesized straight
//! from the actors without ever materializing the actors' traffic.
//!
//! # One engine, three vantages
//!
//! The engine is the lanes, the release queues, the in-place merge step,
//! the fixed-stream days and the positions. What it generates is a
//! [`Vantage`]: the actors, the seed, the intensity, the fixed streams'
//! recipes in merge order and an optional firewall capture.
//!
//! - **CDN** ([`FleetSource::new`], [`FleetSource::with_gen_threads`]): the
//!   fleet's actors, the artifact and noise streams, and the capture of the
//!   world's telescope. [`World::cdn_trace`] is a collect of this source.
//! - **MAWI** (`lumen6_mawi::MawiWorld::source`): the transit-link actors,
//!   then background traffic and the small scanners, with no capture, at 1x.
//! - **Custom** (`lumen6 generate custom`): a fleet file's actors alone.
//!
//! At paper scale (intensity ≥ 100×) the CDN trace runs to tens of
//! gigabytes. The source produces it incrementally: each actor holds only
//! its not-yet-releasable packets (roughly the one or two scanning sessions
//! overlapping the merge frontier), so that part of memory is bounded by
//! per-session packet budgets, not by the trace length.
//!
//! # Inline or threaded lanes
//!
//! The vantage's actors are dealt round-robin to `gen_threads` *lanes*. A
//! lane's [`Generator`] runs its actors' [`ActorStream`]s under a local
//! merge and emits sorted, capture-filtered runs of at most [`RUN_ROWS`]
//! rows, each tagged with its global stream index; the consumer k-way-merges
//! the lane heads with the fixed streams' days, each one more lane.
//! `gen_threads` changes only *where* an actor lane's generator runs:
//!
//! - `gen_threads = 1`: the single lane owns its generator and refills its
//!   run on the consumer's thread — no thread, no channel, no cross-thread
//!   lane state.
//! - `gen_threads ≥ 2`: every record costs several RNG draws, and one
//!   thread expanding all actors caps fused throughput well below what the
//!   detector backends can absorb, so each lane hands its generator to a
//!   spawned thread behind a pair of bounded channels.
//!
//! The fixed streams' day lanes are built on the consumer's thread at
//! every `gen_threads`, each day when the merge has taken the last row of
//! the one before. They stay there because `gen_threads = N` means exactly
//! N worker threads, one per actor lane, and `tests/threads.rs` pins that
//! count: a worker per day lane would make the CDN source run N + 2.
//!
//! # The sequence and its determinism
//!
//! The trace is the merge, by (timestamp, stream index), of one stream per
//! actor at its index, then each fixed stream in order, minus the records
//! the capture rejects — the order the test oracles' `merge_sorted`
//! builds. It is a pure function of the vantage — not of the lane count,
//! the fill sizes or thread scheduling:
//!
//! - An actor's stream is its probes ([`ScannerActor::draw_session`], the
//!   loop [`ScannerActor::generate_scaled`] collects and stable-sorts) in
//!   (timestamp, emission index) order, kept by a release queue that each
//!   session joins sorted as it is expanded: its front is releasable once
//!   every not-yet-expanded session starts at or after its timestamp, since
//!   later sessions can only contribute equal-or-later timestamps with
//!   larger emission indices.
//! - The merge key is a total order over the *record sequence itself*, not
//!   over any runtime state. Each lane is a sorted run of a disjoint subset
//!   of the streams (its local merge uses the same key), and merging
//!   disjoint sorted subsequences of one totally ordered sequence
//!   reconstructs it exactly — no scheduling order can change which key is
//!   smallest.
//! - The capture filter is a pure per-record predicate, so applying it
//!   lane-side, before the merge, deletes the same records and cuts
//!   channel volume.
//!
//! The check is independent of all of the above: test-side oracles
//! (`tests/oracle/mod.rs` for the CDN — whole `generate_scaled` streams and
//! repeated fixed streams, one `merge_sorted`, one `capture`; the MAWI
//! crate's `tests/reference/mod.rs` for MAWI and custom fleets) must equal
//! the source at every lane count, fill size, intensity and horizon, and
//! after a backward resume; the table1/fig2/fig5 goldens pin the draw
//! sequence itself.
//!
//! Feeding the detector straight from the lanes, skipping the merge, is
//! not an option: detector state is keyed by *aggregated source prefix*,
//! which does not align with actor identity, so the detector must see the
//! one time-ordered stream only the merge makes. One detector thread
//! behind the merge is the whole detection side (`detect::parallel`).
//!
//! The fixed streams are generated a day at a time. A vantage holds each
//! one as a recipe — a [`DayStepper`] that has not stepped: its name, its
//! seeded RNG and its configuration — and the source runs a clone of it,
//! one UTC day into a reused [`DayRows`] buffer whenever the merge has
//! taken the last. The day is built into a run as a lane run is: sorted by
//! time, each row given its copies by the [`emission_due`] schedule from
//! its index in the whole stream, the records the capture rejects dropped.
//! It then merges like a lane run, every head row below the runner-up key
//! taken as one range. Every generator ([`Artifacts`], [`Noise`], MAWI's
//! background and small scanners) writes that form directly: it pushes a
//! flow when it mints an address pair and rows that carry the flow's id,
//! so no record is hashed. A row's copies depend on the stream's length
//! only at a fractional intensity (at an integral `k` they are `k`), so
//! only then does the source count the stream at open: a pass of another
//! clone of the recipe that counts each day's rows and keeps none.
//! `scanners.fleet.fixed_stream_bytes` gauges the peak bytes of the day
//! buffers: one day of rows, not the horizon.
//!
//! # Bounded memory
//!
//! Generator-side buffering is the per-actor release queues. Lane-side
//! buffering is bounded by construction: an inline lane owns one run
//! buffer; a threaded lane circulates exactly [`LANE_DEPTH`] recycled run
//! buffers — a worker that outruns the consumer blocks waiting for a free
//! buffer, it never allocates more: `LANE_DEPTH × RUN_ROWS` rows. The
//! [`peak_buffered_records`](FleetSource::peak_buffered_records) accessor
//! (and its pinned test) covers all three tiers: release-queue entries,
//! records in flight in the channels, and the consumer-held lane heads.
//! Beside them stay each fixed stream's day buffers (its biggest day's rows
//! and run: O(day), whatever `--days` and `--intensity`), held and refilled
//! on the consumer's thread at every `gen_threads`, and the actors'
//! schedules and target pools.
//!
//! # Runs
//!
//! `--intensity` repeats a probe as adjacent identical records, and a *run*
//! — `count` copies of one record — is the unit every loop here steps by
//! and what it emits: a release-queue entry holds its copies
//! run-length-encoded and hands out `min(copies, room)` per step
//! (`pop_run`), [`Generator::fill`] does one in-place merge step and one
//! capture test per entry and pushes one row with the copies as its count
//! ([`RecordBatch::push_n`]), a fixed stream's day is one such row per
//! record, and the consumer takes from the winning lane every head row
//! below the runner-up's key at once, counts included. No copy is ever
//! expanded. A lane run is cut in rows, so a hand-off costs the same at
//! any intensity: an entry leaves with all its copies (up to `u32::MAX`),
//! and a lane's runs ramp from [`FIRST_RUN_ROWS`] to [`RUN_ROWS`] rows. The
//! consumer cuts a row at the caller's `max` or the runner-up key; a cut
//! leaves the rest of the copies where they were, under the same merge
//! key, so the record sequence does not depend on where the cuts fall.
//!
//! # Positions
//!
//! [`Source::position`] offsets are *delivered* (post-filter) record
//! indices — a property of the record sequence, so a position taken at one
//! `gen_threads` resumes at any other, and one inside a run names a copy
//! of it. [`Source::resume`] seeks forward by generating and discarding,
//! one step per run; only a position behind the current one rebuilds the
//! generators from the vantage's seed and its fixed streams' recipes and
//! replays from the start —
//! generation is cheap relative to detection, and a checkpoint resume
//! happens at most once per run. Replayed packets are re-counted by the
//! `scanners.fleet.packets_emitted.*` telemetry, which counts generation
//! work actually performed in this process.
//!
//! # Telemetry
//!
//! Accounting is per run and allocation- and atomic-free; counters are
//! flushed at fill boundaries (`scanners.fleet.packets_emitted.*` count
//! packets, not runs; totals are partition-invariant). The
//! `scanners.parallel.*` metrics describe threaded lanes and are not
//! registered at `gen_threads = 1`: `merge_stalls` (consumer blocked on an
//! empty lane — generation is the bottleneck; a worker blocked for a free
//! buffer shows up as zero stalls and full channels), `runs_merged` (lane
//! runs of up to [`RUN_ROWS`] rows: about as many at any intensity),
//! `channel_depth` (lane runs in flight), `buffered_records` (records
//! buffered across all tiers) and `gen_threads`.

use crate::actor::ScannerActor;
use crate::fleet::{emission_due, scale_intensity, World};
use crate::noise::Noise;
use lumen6_telescope::artifacts::Artifacts;
use lumen6_telescope::{CaptureConfig, CdnDeployment, FirewallCapture};
use lumen6_trace::{
    CodecError, DayRows, DayStepper, PacketRecord, RecordBatch, Source, TracePosition,
};
use rand::rngs::SmallRng;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Rows per emitted run (a row costs the same at any intensity): large
/// enough to amortize channel traffic, small enough to stay in cache.
const RUN_ROWS: usize = 4_096;

/// Rows in a lane's first run, which a fused start waits for; each later
/// run doubles, up to [`RUN_ROWS`].
const FIRST_RUN_ROWS: usize = 512;

/// Run buffers per threaded lane — one merging, one filling, one queued —
/// so it buffers `LANE_DEPTH * RUN_ROWS` rows at most, by construction.
const LANE_DEPTH: usize = 3;

/// A generated probe waiting in an actor's release queue. Ordered by
/// (timestamp, emission index) — exactly the order a stable time-sort of
/// the fully materialized stream would produce (unique per actor, so an
/// unstable sort by it is exact). Intensity repeats of one probe are
/// run-length-encoded in `reps`: all copies share the timestamp and occupy
/// consecutive emission indices (`idx` is the first), so delivering them
/// back-to-back from a single entry reproduces the materialized order
/// while keeping queue memory intensity-invariant.
#[derive(Debug, Clone, Copy)]
struct Pending {
    idx: u64,
    /// Remaining copies to deliver (≥ 1 while queued).
    reps: u64,
    rec: PacketRecord,
}

impl Pending {
    fn key(&self) -> (u64, u64) {
        (self.rec.ts_ms, self.idx)
    }
}

/// One actor's incremental packet generator.
///
/// Sessions are drawn eagerly at construction (they must be: the session
/// draws and the packet draws share one RNG, in that order), but packets
/// are expanded one session at a time, on demand.
#[derive(Debug, Clone)]
struct ActorStream {
    rng: SmallRng,
    /// Volume multiplier, applied per session at expansion time.
    intensity: f64,
    sessions: Vec<crate::actor::Session>,
    /// `suffix_min_start[i]` = earliest `start_ms` among `sessions[i..]`
    /// (`u64::MAX` past the end): the release horizon while `next_session
    /// == i`. No future packet can have a smaller timestamp.
    suffix_min_start: Vec<u64>,
    next_session: usize,
    emit_idx: u64,
    /// Expanded probes in (timestamp, emission index) order.
    queue: VecDeque<Pending>,
    targets_buf: Vec<u128>,
}

impl ActorStream {
    /// Seeds the RNG and draws the session list.
    fn new(actor: &ScannerActor, seed: u64, intensity: f64) -> ActorStream {
        let mut rng = actor.rng(seed);
        let sessions = actor.schedule.sessions(&mut rng);
        let mut suffix_min_start = vec![u64::MAX; sessions.len() + 1];
        for i in (0..sessions.len()).rev() {
            suffix_min_start[i] = suffix_min_start[i + 1].min(sessions[i].start_ms);
        }
        ActorStream {
            rng,
            intensity,
            sessions,
            suffix_min_start,
            next_session: 0,
            emit_idx: 0,
            queue: VecDeque::new(),
            targets_buf: Vec::with_capacity(2),
        }
    }

    /// Expands the next session's probes into the release queue, one
    /// run-length-encoded entry per probe that is due at all: drawn into
    /// `scratch`, sorted once, then appended — or, when the session
    /// overlaps what the queue still holds, merged in from the back.
    fn expand_next_session(&mut self, actor: &ScannerActor, scratch: &mut Vec<Pending>) {
        let s = self.sessions[self.next_session];
        self.next_session += 1;
        scratch.clear();
        let emit_idx = &mut self.emit_idx;
        let push = |rec: PacketRecord, reps| {
            scratch.push(Pending {
                idx: *emit_idx,
                reps,
                rec,
            });
            *emit_idx += reps;
        };
        actor.draw_session(
            &mut self.rng,
            &s,
            self.intensity,
            &mut self.targets_buf,
            push,
        );
        scratch.sort_unstable_by_key(Pending::key);
        let (last, mut i) = (self.queue.back().map(Pending::key), self.queue.len());
        self.queue.extend(scratch.iter());
        if scratch.first().is_none_or(|first| last < Some(first.key())) {
            return;
        }
        // Backward merge: the largest remaining key of the old entries
        // (`queue[..i]`) and the new ones (`scratch[..=j]`) fills the back.
        let queue = self.queue.make_contiguous();
        for j in (0..scratch.len()).rev() {
            while i > 0 && queue[i - 1].key() > scratch[j].key() {
                queue[i + j] = queue[i - 1];
                i -= 1;
            }
            queue[i + j] = scratch[j];
        }
    }

    /// Timestamp of this actor's next packet, expanding sessions until the
    /// queue front is confirmed releasable. `None` once exhausted.
    fn peek_ts(&mut self, actor: &ScannerActor, scratch: &mut Vec<Pending>) -> Option<u64> {
        loop {
            let horizon = self.suffix_min_start[self.next_session];
            match self.queue.front() {
                Some(p) if p.rec.ts_ms <= horizon => return Some(p.rec.ts_ms),
                _ if self.next_session == self.sessions.len() => return None,
                _ => self.expand_next_session(actor, scratch),
            }
        }
    }

    /// Pops this actor's next run, which [`peek_ts`](ActorStream::peek_ts)
    /// has confirmed: the front entry's record and how many of its
    /// remaining copies — at most `room` — are handed out. The entry is
    /// dequeued only once its repeats are exhausted, so a run cut by `room`
    /// resumes from the same entry with the adjacent duplicates a stable
    /// sort would produce.
    fn pop_run(&mut self, room: u64) -> Option<(PacketRecord, u64)> {
        let front = self.queue.front_mut()?;
        let (rec, k) = (front.rec, front.reps.min(room));
        front.reps -= k;
        if front.reps == 0 {
            self.queue.pop_front();
        }
        Some((rec, k))
    }
}

/// What one vantage point sees, as [`FleetSource`] generates it (see the
/// [module docs](self) for the three vantages).
#[derive(Debug)]
pub struct Vantage {
    /// The scanner actors; an actor's index is its stream index.
    pub actors: Arc<[ScannerActor]>,
    /// Master seed of every actor's draws.
    pub seed: u64,
    /// Volume multiplier of the actors and the fixed streams
    /// ([`scale_intensity`]).
    pub intensity: f64,
    /// The recipes of the streams generated a day at a time, each at 1x
    /// and named by its `scanners.fleet.packets_emitted.<name>` counter,
    /// merged after the actors in this order.
    pub fixed: Vec<(&'static str, Box<dyn DayStepper>)>,
    /// The telescope whose firewall capture every record must pass; `None`
    /// logs every record.
    pub capture: Option<Arc<CdnDeployment>>,
}

impl Vantage {
    /// The CDN vantage of `world`: its fleet, then the artifact and noise
    /// streams, through its telescope's capture.
    fn cdn(world: &World) -> Vantage {
        let cfg = world.config();
        let (start, end, seed) = (cfg.start_day, cfg.end_day, cfg.seed);
        let deployment = Arc::clone(&world.deployment);
        let artifacts = Artifacts::new(deployment, cfg.artifacts.clone(), start, end, seed);
        let addrs = world.deployment.all_addrs().into();
        let noise = Noise::new(addrs, cfg.noise_sources_per_day, start, end, seed);
        Vantage {
            actors: Arc::clone(&world.fleet.actors),
            seed,
            intensity: cfg.intensity,
            fixed: vec![
                ("artifacts", Box::new(artifacts)),
                ("noise", Box::new(noise)),
            ],
            capture: Some(Arc::clone(&world.deployment)),
        }
    }

    /// The capture filter every record passes, if the vantage has one: the
    /// default [`CaptureConfig`].
    fn capture_filter(&self) -> Option<FirewallCapture<'_>> {
        let deployment = self.capture.as_deref()?;
        Some(FirewallCapture::new(deployment, CaptureConfig::default()))
    }
}

/// How many copies of each of a fixed stream's rows are due: the stream is
/// generated at its base (1×) size and scaled as each day is built
/// ([`emission_due`]). The CDN's artifacts and noise scale with the
/// scanners because the A.1 duplicate prefilter compares packet *counts*:
/// only then is the detected shape intensity-invariant.
#[derive(Debug, Clone, Copy)]
enum Copies {
    /// An integral intensity `k` (below 2^32): `k` of every row — what the
    /// schedule gives, `k·B·i / B`, for any stream of `B` < 2^32 rows.
    Each(u64),
    /// Any other: `due(i + 1) - due(i)` of row `i`, where `due` is
    /// `emission_due(scaled, base, ·)` over the stream's `base` rows, and
    /// `drawn` rows have had theirs, `due` copies in all.
    Due {
        scaled: u64,
        base: u64,
        drawn: u64,
        due: u64,
    },
}

impl Copies {
    /// The copy rule of the stream `recipe` generates at `intensity`,
    /// counting the stream in `rows` when the rule needs its length.
    fn new(recipe: &dyn DayStepper, intensity: f64, rows: &mut DayRows) -> Copies {
        let k = scale_intensity(1, intensity);
        if intensity.fract() == 0.0 && k <= u64::from(u32::MAX) {
            return Copies::Each(k);
        }
        let (mut counter, mut base) = (recipe.clone_box(), 0);
        while counter.step(rows) {
            base += rows.len() as u64;
        }
        Copies::Due {
            scaled: scale_intensity(base, intensity),
            base,
            drawn: 0,
            due: 0,
        }
    }

    /// The copies of the stream's next row.
    fn next(&mut self) -> u64 {
        match self {
            Copies::Each(k) => *k,
            Copies::Due {
                scaled,
                base,
                drawn,
                due,
            } => {
                *drawn += 1;
                let through = emission_due(*scaled, *base, *drawn);
                through - std::mem::replace(due, through)
            }
        }
    }
}

/// A fixed stream's generation engine: a clone of its recipe stepped a day
/// at a time into `rows`, each day built into a lane run.
#[derive(Debug)]
struct DayFeed {
    /// The vantage, for its capture filter.
    vantage: Arc<Vantage>,
    stepper: Box<dyn DayStepper>,
    rows: DayRows,
    /// Whether the capture logs each of the day's flows' destinations.
    logged_dsts: Vec<bool>,
    copies: Copies,
    /// The stream's global index: the merge tie-break of all its rows.
    si: usize,
    /// `scanners.fleet.packets_emitted.<name>`.
    emitted: lumen6_obs::Counter,
}

impl DayFeed {
    /// Refills `run` with the stream's next day that logs any record: its
    /// records in time order, one row each with its due copies as the
    /// row's count, less those the capture rejects. An empty run means the
    /// stream is exhausted.
    fn fill(&mut self, run: &mut Run) {
        run.recs.clear();
        run.si.clear();
        while run.recs.is_empty() && self.stepper.step(&mut self.rows) {
            // Sized to the biggest day so far, not to a power of two above it.
            run.recs.reserve_exact(self.rows.len());
            run.si.reserve_exact(self.rows.len());
            // The capture tests a destination once a flow, not once a row.
            let filter = self.vantage.capture_filter();
            self.logged_dsts.clear();
            let dsts = self.rows.flows().iter().map(|&(_, dst)| dst);
            let logs_dst = |dst| filter.as_ref().is_none_or(|f| f.logs_dst(dst));
            self.logged_dsts.extend(dsts.map(logs_dst));
            let logs_service = |r: &PacketRecord| {
                filter
                    .as_ref()
                    .is_none_or(|f| f.logs_service(r.proto, r.dport))
            };
            let mut emitted = 0;
            for (flow, rec) in self.rows.sorted() {
                let k = self.copies.next();
                emitted += k;
                if k > 0 && self.logged_dsts[flow as usize] && logs_service(&rec) {
                    run.recs.push_n(rec, k as usize);
                }
            }
            self.emitted.add(emitted);
        }
        run.si.resize(run.recs.rows(), self.si);
    }

    /// Heap bytes of the day buffers: the rows, their flows' capture
    /// verdicts and the run built from them.
    fn held_bytes(&self, run: &Run) -> usize {
        self.rows.held_bytes()
            + self.logged_dsts.capacity()
            + run.recs.held_bytes()
            + run.si.capacity() * std::mem::size_of::<usize>()
    }
}

/// One sorted run from a generator: filtered records, one row per queue
/// entry with its copies as the row's count, plus the per-row global stream
/// index (the merge tie-break key).
#[derive(Debug, Default)]
struct Run {
    recs: RecordBatch,
    si: Vec<usize>,
    /// Release-queue entries its generator held when the run was cut.
    held: u64,
}

impl Run {
    /// An empty run with room for [`RUN_ROWS`] rows, on the consumer's thread.
    fn full_size() -> Run {
        Run {
            recs: RecordBatch::with_capacity(RUN_ROWS),
            si: Vec::with_capacity(RUN_ROWS),
            held: 0,
        }
    }
}

/// One lane's generation engine: a disjoint, ascending subset of the
/// vantage's actors, locally merged by the global (timestamp, stream index)
/// key and capture-filtered. A value, so a lane can run it on the
/// consumer's thread or hand it to a worker.
#[derive(Debug)]
struct Generator {
    /// The vantage, shared by every lane; this one runs actors only.
    vantage: Arc<Vantage>,
    /// One stream per actor of this lane, ascending by fleet index, and the
    /// pre-filter emission counter of its target-strategy kind
    /// (`scanners.fleet.packets_emitted.<kind>`).
    streams: Vec<ActorStream>,
    emitted: Vec<lumen6_obs::Counter>,
    /// Local merge frontier: (timestamp, global stream index, local
    /// position). The global index orders; the position locates.
    merge: BinaryHeap<Reverse<(u64, usize, usize)>>,
    /// Packets popped per stream since its counter was last
    /// added to — dense and apart from the streams, so the per-run
    /// increment stays in cache — and which streams have any: at 1250x a
    /// lane run is three or four entries, so a fill boundary must not cost
    /// a pass over every actor.
    unflushed: Vec<u64>,
    dirty: Vec<usize>,
    /// Release-queue entries held across all streams, kept as they change.
    held: u64,
    /// Where a stream draws a session before queueing it.
    scratch: Vec<Pending>,
    /// Rows of the lane's next run.
    run_rows: usize,
}

impl Generator {
    /// Draws every actor's schedule and primes the local merge.
    fn new(vantage: Arc<Vantage>, actor_ids: impl Iterator<Item = usize>) -> Generator {
        let reg = lumen6_obs::MetricsRegistry::global();
        let (mut streams, mut emitted) = (Vec::new(), Vec::new());
        let mut merge = BinaryHeap::new();
        let (mut held, mut scratch) = (0, Vec::new());
        for (pos, ai) in actor_ids.enumerate() {
            let actor = &vantage.actors[ai];
            let kind = actor.targets.kind();
            emitted.push(reg.counter(&format!("scanners.fleet.packets_emitted.{kind}")));
            let mut stream = ActorStream::new(actor, vantage.seed, vantage.intensity);
            if let Some(ts) = stream.peek_ts(actor, &mut scratch) {
                merge.push(Reverse((ts, ai, pos)));
            }
            held += stream.queue.len() as u64;
            streams.push(stream);
        }
        Generator {
            unflushed: vec![0; streams.len()],
            dirty: Vec::with_capacity(streams.len()),
            held,
            scratch,
            vantage,
            streams,
            emitted,
            merge,
            run_rows: FIRST_RUN_ROWS,
        }
    }

    /// Refills `run` with the lane's next run, at `run_rows` rows.
    fn next_run(&mut self, run: &mut Run) {
        self.fill(run, self.run_rows);
        self.run_rows = (self.run_rows * 2).min(RUN_ROWS);
    }

    /// Refills `run` with this lane's next `max_rows` rows of logged records
    /// at most, in merge order; empty once the lane's actors are exhausted.
    fn fill(&mut self, run: &mut Run, max_rows: usize) {
        run.recs.clear();
        run.si.clear();
        let vantage: &Vantage = &self.vantage;
        let filter = vantage.capture_filter();
        while run.recs.rows() < max_rows {
            let Some(mut top) = self.merge.peek_mut() else {
                break;
            };
            let Reverse((_, ai, pos)) = *top;
            let actor = &vantage.actors[ai];
            // One step per queue entry: its copies share the merge key, so
            // they leave back to back, as one row of all it can count.
            let stream = &mut self.streams[pos];
            self.held -= stream.queue.len() as u64;
            let popped = stream.pop_run(u64::from(u32::MAX));
            // The actor's next key replaces the frontier's top in place;
            // only an exhausted actor leaves it.
            match stream.peek_ts(actor, &mut self.scratch) {
                Some(ts) => top.0 .0 = ts,
                None => _ = PeekMut::pop(top),
            }
            self.held += stream.queue.len() as u64;
            let Some((rec, k)) = popped else {
                continue; // unreachable: frontier entries are confirmed
            };
            if self.unflushed[pos] == 0 {
                self.dirty.push(pos);
            }
            self.unflushed[pos] += k;
            if filter.as_ref().is_none_or(|f| f.logs(&rec)) {
                run.recs.push_n(rec, k as usize);
                run.si.resize(run.recs.rows(), ai);
            }
        }
        // Fill boundary: per-run accounting stays atomic-free.
        run.held = self.held;
        for pos in self.dirty.drain(..) {
            self.emitted[pos].add(std::mem::take(&mut self.unflushed[pos]));
        }
    }
}

/// Body of a threaded lane's worker: ships the generator's runs, an empty
/// one last, then waits until the consumer lets go of the lane.
fn run_worker(
    mut gen: Generator,
    data: SyncSender<Run>,
    recycle: Receiver<Run>,
    in_flight: Arc<[AtomicU64; 2]>,
) {
    // Bounded by construction: the only buffers are the LANE_DEPTH runs
    // circulating through the recycle channel.
    while let Ok(mut run) = recycle.recv() {
        gen.next_run(&mut run);
        let end = run.recs.is_empty();
        in_flight[0].fetch_add(run.recs.len() as u64, Relaxed);
        in_flight[1].fetch_add(1, Relaxed);
        // An empty run ends the lane; a failed send, the consumer's end.
        if data.send(run).is_err() || end {
            break;
        }
    }
    // Why the worker stays: see `spawn_lanes`.
    drop(gen);
    while recycle.recv().is_ok() {}
}

/// Where a lane's generator runs.
#[derive(Debug)]
enum Feed {
    /// `gen_threads = 1`: owned, and refilled on the consumer's thread.
    Inline(Box<Generator>),
    /// A fixed stream, a day per run, refilled on the consumer's thread.
    Day(Box<DayFeed>),
    /// `gen_threads ≥ 2`: on a worker thread, behind a data channel and
    /// the recycle channel that returns drained run buffers to it.
    Threaded {
        data: Receiver<Run>,
        recycle: SyncSender<Run>,
        handle: JoinHandle<()>,
        /// Filtered records, then runs, in the data channel, updated per run.
        in_flight: Arc<[AtomicU64; 2]>,
        /// `scanners.parallel.merge_stalls`.
        merge_stalls: lumen6_obs::Counter,
        /// `scanners.parallel.runs_merged`.
        runs_merged: lumen6_obs::Counter,
    },
}

/// Consumer-side state of one lane: the run being merged and how to get
/// the next one.
#[derive(Debug)]
struct Lane {
    /// `None` once an actor lane is exhausted; a fixed stream's lane keeps
    /// its day feed, which then fills nothing.
    feed: Option<Feed>,
    /// A threaded feed whose worker sent its empty run, until shutdown.
    parked: Option<Feed>,
    head: Run,
    /// The head row being merged, how many of its copies have gone, and how
    /// many records the head still holds.
    cursor: usize,
    used: usize,
    left: usize,
}

impl Lane {
    /// A lane on `feed` whose first run is yet to be fetched into `head`.
    fn new(feed: Feed, head: Run) -> Lane {
        Lane {
            feed: Some(feed),
            parked: None,
            head,
            cursor: 0,
            used: 0,
            left: 0,
        }
    }

    /// The (timestamp, stream index) merge key of the lane's next record,
    /// fetching the next run when the current one is drained. `None` once
    /// the lane is exhausted.
    fn head_key(&mut self) -> Option<(u64, usize)> {
        if self.left == 0 && !self.next_run() {
            return None;
        }
        Some((
            self.head.recs.ts_ms()[self.cursor],
            self.head.si[self.cursor],
        ))
    }

    /// Replaces the drained head with the lane's next run: refilled in
    /// place (inline), or swapped for the worker's next one, blocking for
    /// it if need be (threaded). Returns `false` once the lane is
    /// exhausted.
    fn next_run(&mut self) -> bool {
        (self.cursor, self.used) = (0, 0);
        let mut ended = false;
        match &mut self.feed {
            None => return false,
            Some(Feed::Inline(gen)) => gen.next_run(&mut self.head),
            Some(Feed::Day(feed)) => feed.fill(&mut self.head),
            Some(Feed::Threaded {
                data,
                recycle,
                in_flight,
                merge_stalls,
                runs_merged,
                ..
            }) => {
                // Capacity equals the buffer count, so recycling can never
                // block; if the worker is gone the buffer just drops.
                let _ = recycle.send(std::mem::take(&mut self.head));
                let next = match data.try_recv() {
                    Ok(run) => Some(run),
                    Err(TryRecvError::Empty) => {
                        // Generation is behind the merge: the stall
                        // counter is the "generators are the bottleneck"
                        // occupancy signal.
                        merge_stalls.add(1);
                        data.recv().ok()
                    }
                    Err(TryRecvError::Disconnected) => None,
                };
                ended = next.is_some();
                if let Some(run) = next {
                    runs_merged.add(u64::from(!run.recs.is_empty()));
                    in_flight[0].fetch_sub(run.recs.len() as u64, Relaxed);
                    in_flight[1].fetch_sub(1, Relaxed);
                    self.head = run;
                }
            }
        }
        self.left = self.head.recs.len();
        if self.left > 0 {
            return true;
        }
        // Generators never emit an empty run before exhaustion. A day feed
        // stays: its buffers are what `fixed_stream_bytes` gauges.
        match self.feed.take() {
            feed @ Some(Feed::Threaded { .. }) if ended => self.parked = feed,
            Some(Feed::Threaded { handle, .. }) => {
                // A worker that panicked disconnects without an empty run:
                // surface it, so a crash never reads as an end of stream.
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            day @ Some(Feed::Day(_)) => self.feed = day,
            _ => {}
        }
        false
    }
}

/// A [`Source`] that generates a [`Vantage`]'s trace — by default the
/// firewall-logged CDN trace of a [`World`] — on the fly, byte-identical at
/// every `gen_threads`. See the module docs for the engine, the
/// equivalence argument and the position semantics.
#[derive(Debug)]
pub struct FleetSource {
    /// The vantage the lanes generate.
    vantage: Arc<Vantage>,
    /// One lane per generator thread (a single lane runs inline), then one
    /// per fixed stream, in merge order.
    lanes: Vec<Lane>,
    /// How many of `lanes` generate actors.
    actor_lanes: usize,
    /// Each fixed stream's copy rule, as its first row finds it.
    copies: Vec<Copies>,
    delivered: u64,
    prev_ts: u64,
    /// `scanners.fleet.fixed_stream_bytes` and the peak it reports.
    fixed_bytes: lumen6_obs::Gauge,
    fixed_peak: usize,
    /// `scanners.parallel.{channel_depth, buffered_records}`; like every
    /// `scanners.parallel.*` metric, registered only with threaded lanes.
    occupancy_gauges: Option<[lumen6_obs::Gauge; 2]>,
    peak_buffered: u64,
}

impl FleetSource {
    /// Builds a fused source over `world` that generates on the caller's
    /// thread.
    pub fn new(world: World) -> FleetSource {
        FleetSource::with_gen_threads(world, 1)
    }

    /// Builds a fused source over `world` whose generation runs on
    /// `gen_threads` worker threads (clamped to `1..=actor count`; 1 spawns
    /// none).
    pub fn with_gen_threads(world: World, gen_threads: usize) -> FleetSource {
        FleetSource::from_vantage(Vantage::cdn(&world), gen_threads)
    }

    /// Builds a source over any vantage, generating on `gen_threads`
    /// threads as [`with_gen_threads`](Self::with_gen_threads) does. A
    /// fractional intensity counts the fixed streams here, while threaded
    /// workers fill their first runs.
    pub fn from_vantage(vantage: Vantage, gen_threads: usize) -> FleetSource {
        let n = gen_threads.clamp(1, vantage.actors.len().max(1));
        let reg = lumen6_obs::MetricsRegistry::global();
        let vantage = Arc::new(vantage);
        let mut lanes = FleetSource::spawn_lanes(&vantage, n);
        let mut rows = DayRows::default();
        let copies: Vec<Copies> = vantage
            .fixed
            .iter()
            .map(|(_, recipe)| Copies::new(recipe.as_ref(), vantage.intensity, &mut rows))
            .collect();
        lanes.extend(FleetSource::day_lanes(&vantage, &copies));
        FleetSource {
            lanes,
            actor_lanes: n,
            copies,
            vantage,
            delivered: 0,
            prev_ts: 0,
            fixed_bytes: reg.gauge("scanners.fleet.fixed_stream_bytes"),
            fixed_peak: 0,
            occupancy_gauges: (n > 1).then(|| {
                reg.gauge("scanners.parallel.gen_threads").set(n as i64);
                [
                    reg.gauge("scanners.parallel.channel_depth"),
                    reg.gauge("scanners.parallel.buffered_records"),
                ]
            }),
            peak_buffered: 0,
        }
    }

    /// Peak buffered records observed so far, across all tiers: release-
    /// queue entries, records in flight in the lane channels, and
    /// consumer-held actor lane heads. Sampled at fill boundaries; the
    /// pinned bounded-memory test asserts it does not scale with trace
    /// length.
    pub fn peak_buffered_records(&self) -> u64 {
        self.peak_buffered
    }

    /// Builds `n` lanes over `vantage`'s actors (workers when `n > 1`) and
    /// returns once each worker has built its generator. A worker then
    /// allocates before a detector thread started next and exits after it
    /// (`run_worker`), so glibc gives each kind its arena back.
    fn spawn_lanes(vantage: &Arc<Vantage>, n: usize) -> Vec<Lane> {
        let actors = vantage.actors.len();
        let reg = lumen6_obs::MetricsRegistry::global();
        let (ready, built) = sync_channel::<()>(0);
        let lanes = (0..n)
            .map(|k| {
                // Round-robin partition: balances the per-kind expansion
                // cost better than contiguous blocks, and keeps each
                // lane's id list ascending (so its runs are sorted runs
                // of a disjoint subset).
                let ids = (k..actors).step_by(n);
                let vantage = Arc::clone(vantage);
                let feed = if n == 1 {
                    Feed::Inline(Box::new(Generator::new(vantage, ids)))
                } else {
                    let (data_tx, data) = sync_channel::<Run>(LANE_DEPTH);
                    let (recycle, recycle_rx) = sync_channel::<Run>(LANE_DEPTH);
                    for _ in 1..LANE_DEPTH {
                        // Seed the circulation set; the lane's first head
                        // below is its last member.
                        let _ = recycle.send(Run::full_size());
                    }
                    let in_flight = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
                    let worker_in_flight = Arc::clone(&in_flight);
                    // The worker builds its own generator, so schedule
                    // drawing is spread across the lanes too.
                    let ready = ready.clone();
                    let handle = std::thread::spawn(move || {
                        let gen = Generator::new(vantage, ids);
                        drop(ready);
                        run_worker(gen, data_tx, recycle_rx, worker_in_flight);
                    });
                    Feed::Threaded {
                        data,
                        recycle,
                        handle,
                        in_flight,
                        merge_stalls: reg.counter("scanners.parallel.merge_stalls"),
                        runs_merged: reg.counter("scanners.parallel.runs_merged"),
                    }
                };
                Lane::new(feed, Run::full_size())
            })
            .collect();
        drop(ready);
        let _ = built.recv(); // once every worker has built (or panicked)
        lanes
    }

    /// One lane per fixed stream of `vantage`, each on a fresh clone of
    /// its recipe under its copy rule.
    fn day_lanes<'a>(
        vantage: &'a Arc<Vantage>,
        copies: &'a [Copies],
    ) -> impl Iterator<Item = Lane> + 'a {
        let reg = lumen6_obs::MetricsRegistry::global();
        let streams = vantage.fixed.iter().zip(copies).enumerate();
        streams.map(move |(fi, ((name, recipe), &copies))| {
            let feed = Feed::Day(Box::new(DayFeed {
                vantage: Arc::clone(vantage),
                stepper: recipe.clone_box(),
                rows: DayRows::default(),
                logged_dsts: Vec::new(),
                copies,
                si: vantage.actors.len() + fi,
                emitted: reg.counter(&format!("scanners.fleet.packets_emitted.{name}")),
            }));
            Lane::new(feed, Run::default())
        })
    }

    /// Builds every lane afresh — the actors' from the seed, the fixed
    /// streams' from their recipes — after joining the old generator
    /// threads: the source is back at its first record.
    fn restart(&mut self) {
        self.shutdown();
        self.lanes = FleetSource::spawn_lanes(&self.vantage, self.actor_lanes);
        let day_lanes = FleetSource::day_lanes(&self.vantage, &self.copies);
        self.lanes.extend(day_lanes);
        (self.delivered, self.prev_ts) = (0, 0);
    }

    /// Disconnects all lanes, then joins the generator threads. Dropping
    /// the channel endpoints unblocks workers stuck in `send` (data) or
    /// `recv` (recycle), so the joins cannot deadlock.
    fn shutdown(&mut self) {
        let handles: Vec<JoinHandle<()>> = self
            .lanes
            .drain(..)
            .filter_map(|lane| match lane.feed.or(lane.parked) {
                Some(Feed::Threaded { handle, .. }) => Some(handle),
                _ => None,
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Samples actor lane occupancy into the peak tracker (and, for
    /// threaded lanes, the gauges), and the fixed streams' day buffers into
    /// theirs. Called at fill boundaries, never per record.
    fn sample_buffering(&mut self) {
        let (actor_lanes, day_lanes) = self.lanes.split_at(self.actor_lanes);
        let mut runs = 0u64;
        let mut buffered = 0u64;
        for lane in actor_lanes {
            buffered += lane.head.held + lane.left as u64;
            if let Some(Feed::Threaded { in_flight, .. }) = &lane.feed {
                buffered += in_flight[0].load(Relaxed);
                runs += in_flight[1].load(Relaxed);
            }
        }
        if let Some([depth, buffered_records]) = &self.occupancy_gauges {
            depth.set(runs as i64);
            buffered_records.set(buffered as i64);
        }
        self.peak_buffered = self.peak_buffered.max(buffered);
        let fixed: usize = day_lanes
            .iter()
            .map(|lane| match &lane.feed {
                Some(Feed::Day(feed)) => feed.held_bytes(&lane.head),
                _ => 0,
            })
            .sum();
        if fixed > self.fixed_peak {
            self.fixed_peak = fixed;
            self.fixed_bytes.set(fixed as i64);
        }
    }

    /// Produces up to `max` *logged* records, appending to `out` when
    /// given (resume-skip passes `None` and discards). Returns how many
    /// logged records were produced; fewer than `max` means end of stream.
    pub(crate) fn produce(&mut self, mut out: Option<&mut RecordBatch>, max: usize) -> usize {
        let FleetSource {
            lanes,
            delivered,
            prev_ts,
            ..
        } = self;
        let mut produced = 0usize;
        while produced < max {
            // The candidate with the smallest (timestamp, stream index)
            // key is next — exactly the oracles' `merge_sorted` order — and
            // it stays next until its key passes the runner-up's. Stream
            // indices are disjoint across lanes, so keys never tie between
            // them.
            let mut best: Option<((u64, usize), usize)> = None;
            let mut runner_up = (u64::MAX, usize::MAX);
            for (slot, lane) in lanes.iter_mut().enumerate() {
                let Some(key) = lane.head_key() else {
                    continue;
                };
                match best {
                    Some((k, _)) if k <= key => runner_up = runner_up.min(key),
                    _ => {
                        runner_up = best.map_or(runner_up, |(k, _)| k);
                        best = Some((key, slot));
                    }
                }
            }
            let Some((_, slot)) = best else {
                break; // every lane exhausted
            };
            let room = max - produced;
            let lane = &mut lanes[slot];
            let (recs, si) = (&lane.head.recs, &lane.head.si);
            let (ts, first) = (recs.ts_ms(), lane.cursor);
            let due = recs.count(first) as usize - lane.used;
            *prev_ts = ts[first];
            let k = if lane.used > 0 || due > room {
                // The head row is cut as `pop_run` cuts: `min(copies,
                // room)` now, the rest stays under the same key.
                let k = due.min(room);
                (lane.cursor, lane.used) = if k == due {
                    (first + 1, 0)
                } else {
                    (first, lane.used + k)
                };
                if let Some(batch) = out.as_deref_mut() {
                    batch.push_n(recs.get(first), k);
                }
                k
            } else {
                // Every whole head row below the runner-up key that the
                // room holds, as one range.
                let (mut end, mut k) = (first + 1, due);
                while end < ts.len() && (ts[end], si[end]) < runner_up {
                    let copies = recs.count(end) as usize;
                    if k + copies > room {
                        break;
                    }
                    (end, k) = (end + 1, k + copies);
                }
                (lane.cursor, *prev_ts) = (end, ts[end - 1]);
                if let Some(batch) = out.as_deref_mut() {
                    batch.extend_from_range(recs, first..end);
                }
                k
            };
            lane.left -= k;
            produced += k;
            *delivered += k as u64;
        }
        self.sample_buffering();
        produced
    }
}

impl Drop for FleetSource {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Source for FleetSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        Ok(self.produce(Some(out), max))
    }

    fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.delivered,
            prev_ts: self.prev_ts,
        }
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        // Forward seeks continue from here (a session resumes a source it
        // has just built); only going backwards rewinds: rebuilds the lanes
        // (same seed, same recipes, same draws).
        if at.offset < self.delivered {
            self.restart();
        }
        let mut remaining = at.offset - self.delivered;
        while remaining > 0 {
            let step = usize::try_from(remaining).unwrap_or(usize::MAX).min(65_536);
            let n = self.produce(None, step);
            if n == 0 {
                return Err(CodecError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "resume offset {} beyond fleet stream of {} records",
                        at.offset, self.delivered
                    ),
                )));
            }
            remaining -= n as u64;
        }
        if at.offset > 0 && self.prev_ts != at.prev_ts {
            return Err(CodecError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "resume timestamp mismatch at offset {}: checkpoint recorded {} but the \
                     regenerated stream has {} (was the checkpoint taken against a different \
                     seed or fleet configuration?)",
                    at.offset, at.prev_ts, self.prev_ts
                ),
            )));
        }
        Ok(())
    }
}

/// The pre-fold name of [`FleetSource::with_gen_threads`], kept only
/// because the frozen `pipebench/` package names it: a delegate with no
/// state or behaviour of its own. Delete it once a benchmark PR retargets
/// `pipebench` at [`FleetSource`].
#[derive(Debug)]
pub struct ParallelFleetSource(FleetSource);

impl ParallelFleetSource {
    /// [`FleetSource::with_gen_threads`].
    pub fn new(world: World, gen_threads: usize) -> ParallelFleetSource {
        ParallelFleetSource(FleetSource::with_gen_threads(world, gen_threads))
    }

    /// [`FleetSource::peak_buffered_records`].
    pub fn peak_buffered_records(&self) -> u64 {
        self.0.peak_buffered_records()
    }
}

impl Source for ParallelFleetSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        self.0.fill(out, max)
    }

    fn position(&self) -> TracePosition {
        self.0.position()
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        self.0.resume(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use lumen6_trace::Transport;

    /// Drains one actor's stream through `pop_run`, handing out at most
    /// `room` copies per step, and counts the `peek_ts` calls after which a
    /// newly expanded entry sits before one queued earlier: only the merge
    /// path leaves the queue so.
    fn drain(actor: &ScannerActor, intensity: f64, room: u64) -> (Vec<PacketRecord>, usize) {
        let (mut stream, mut scratch) = (ActorStream::new(actor, 42, intensity), Vec::new());
        let (mut drained, mut merges) = (Vec::new(), 0);
        loop {
            let (expanded, queued_before) = (stream.next_session, stream.emit_idx);
            if stream.peek_ts(actor, &mut scratch).is_none() {
                return (drained, merges);
            }
            if stream.next_session > expanded {
                let mut entries = stream.queue.iter().map(|p| p.idx < queued_before);
                merges += usize::from(entries.by_ref().any(|old| !old) && entries.any(|old| old));
            }
            let (rec, copies) = stream.pop_run(room).expect("confirmed front");
            drained.extend(std::iter::repeat_n(rec, copies as usize));
        }
    }

    #[test]
    fn drained_actor_stream_is_generate_scaled_per_actor() {
        // Both callers of `draw_session`: one pushes the copies and
        // stable-sorts, the other queues runs in (timestamp, emission
        // index) order. Drained, the queue yields the sorted stream — the
        // same multiset, and in the same order. 2.5 gives probes two and
        // three copies, 0.4 drops some.
        for intensity in [0.4, 1.0, 2.5] {
            let world = World::build(FleetConfig {
                intensity,
                end_day: 5,
                ..FleetConfig::small()
            });
            let mut records = 0;
            for actor in world.fleet.actors.iter() {
                let (drained, _) = drain(actor, intensity, u64::MAX);
                assert!(
                    drained == actor.generate_scaled(42, intensity),
                    "{} at {intensity}x",
                    actor.name
                );
                records += drained.len();
            }
            assert!(records > 10_000, "fleet too quiet: {records}");
        }
    }

    #[test]
    fn overlapping_sessions_merge_into_the_queue() {
        // Two schedules whose sessions overlap: three 20-hour sessions a
        // day, and one 24-hour session a day whose follow-up probes cross
        // midnight into the next day's session. Expanding such a session
        // merges it into what the queue still holds; drained at any
        // intensity and any room, the queue is the stable-sorted stream.
        use crate::actor::Schedule;
        use crate::samplers::{PortSampler, SourceSampler, TargetSampler};
        let hitlist: std::sync::Arc<[u128]> = (1..=400u128).map(|i| i << 8).collect();
        let actor =
            |name: &str, sessions_per_week, session_hours, packets_per_session| ScannerActor {
                name: name.into(),
                asn: 64500,
                sources: SourceSampler::Single(0x5001),
                targets: TargetSampler::HitlistNearby {
                    hitlist: hitlist.clone(),
                    explore_prob: 0.5,
                    span_bits: 4,
                },
                ports: PortSampler::Single(Transport::Tcp, 22),
                schedule: Schedule {
                    start_day: 0,
                    end_day: 4,
                    sessions_per_week,
                    session_hours,
                    packets_per_session,
                    pin_start_ms_in_day: None,
                },
                probe_len: 60,
            };
        for actor in [
            actor("thrice-daily", 21.0, 20.0, 2_000),
            actor("round-the-clock", 7.0, 24.0, 100_000),
        ] {
            let mut merges = 0;
            for intensity in [0.3, 1.0, 7.0] {
                let sorted = actor.generate_scaled(42, intensity);
                for room in [1, 4_096] {
                    let (drained, merged) = drain(&actor, intensity, room);
                    assert!(
                        drained == sorted,
                        "{} at {intensity}x, room {room}",
                        actor.name
                    );
                    merges += merged;
                }
            }
            assert!(
                merges > 0,
                "{}: no session overlapped the queue",
                actor.name
            );
        }
    }

    /// A fixed stream given day by day, each day's records in the order
    /// they are pushed.
    #[derive(Debug, Clone)]
    struct Days(std::collections::VecDeque<(u64, Vec<PacketRecord>)>);

    impl DayStepper for Days {
        fn step(&mut self, out: &mut DayRows) -> bool {
            let Some((day, records)) = self.0.pop_front() else {
                return false;
            };
            out.open_day(day);
            for r in records {
                let flow = out.flow(r.src, r.dst);
                out.push(r.ts_ms, flow, r.proto, r.sport, r.dport, r.len);
            }
            true
        }
    }

    proptest::proptest! {
        #[test]
        fn a_fixed_stream_delivers_emission_due_copies_of_each_record(
            // Days with gaps between them, some empty; each day's records
            // pushed in any order, with many ties.
            days in proptest::collection::vec(
                (1u64..4, proptest::collection::vec(0u64..50, 0..80)),
                0..8,
            ),
        ) {
            let (mut stream, mut sorted, mut day) = (Days(Default::default()), Vec::new(), 0);
            for (gap, offsets) in &days {
                day += gap;
                let records: Vec<PacketRecord> = offsets
                    .iter()
                    .enumerate()
                    .map(|(i, &ms)| PacketRecord::tcp(day * lumen6_trace::DAY_MS + ms, i as u128, 7, 1, 25, 80))
                    .collect();
                let at = sorted.len();
                sorted.extend(records.iter().copied());
                sorted[at..].sort_by_key(|r: &PacketRecord| r.ts_ms);
                stream.0.push_back((day, records));
            }
            let base = sorted.len() as u64;
            for intensity in [0.37, 1.0, 10.0] {
                let scaled = scale_intensity(base, intensity);
                let due = |i: u64| emission_due(scaled, base, i);
                let want: Vec<PacketRecord> = (0..base)
                    .flat_map(|i| std::iter::repeat_n(sorted[i as usize], (due(i + 1) - due(i)) as usize))
                    .collect();
                let vantage = Vantage {
                    actors: Arc::new([]),
                    seed: 0,
                    intensity,
                    fixed: vec![("proptest", Box::new(stream.clone()))],
                    capture: None,
                };
                let mut source = FleetSource::from_vantage(vantage, 1);
                let mut batch = RecordBatch::new();
                for _pass in 0..2 {
                    let mut got = Vec::new();
                    while source.fill(&mut batch, 3).expect("generation") > 0 {
                        got.extend(batch.iter());
                    }
                    proptest::prop_assert_eq!(&got, &want, "at {}x", intensity);
                    source.resume(TracePosition::default()).expect("rewind");
                }
            }
        }
    }

    #[test]
    fn release_queue_entries_are_intensity_invariant() {
        // Intensity repeats are run-length-encoded in the release queues:
        // driving the volume 25x must not change the number of buffered
        // entries at all (the footprint — and so the entry set — is
        // intensity-invariant by construction).
        // Single-row runs so every queue state is observed: the peak is
        // then an exact property of the entry sequence, not of where run
        // boundaries happen to fall. A row is a whole entry, all its
        // copies, so the runs cut the stream at the same entries at 1x and
        // at 25x; the volume is the records those runs deliver.
        fn run(intensity: f64) -> (u64, u64) {
            let world = World::build(FleetConfig {
                seed: 42,
                intensity,
                end_day: 7,
                ..FleetConfig::small()
            });
            let actors = world.fleet.actors.len();
            let mut gen = Generator::new(Arc::new(Vantage::cdn(&world)), 0..actors);
            let mut run = Run::default();
            let (mut peak, mut total) = (0, 0);
            loop {
                gen.fill(&mut run, 1);
                if run.recs.is_empty() {
                    return (peak, total);
                }
                assert_eq!(run.recs.rows(), 1);
                peak = peak.max(run.held);
                total += run.recs.len() as u64;
            }
        }
        let (peak_1x, total_1x) = run(1.0);
        let (peak_25x, total_25x) = run(25.0);
        assert!(
            total_25x > total_1x * 20,
            "volume did not scale: {total_1x} → {total_25x}"
        );
        // An entry leaves with all its copies, so none is ever partly
        // delivered: the same entries are resident at both intensities.
        assert!(
            peak_25x == peak_1x,
            "queue entries must not scale with intensity: {peak_1x} → {peak_25x}"
        );
    }

    #[test]
    fn fill_size_cuts_runs_without_changing_the_stream() {
        // A lane run fills up at `max_rows` rows, so `max_rows` decides
        // where runs are cut — never what is delivered. Intensity 0.3 has
        // probes whose repeat count is zero, 25 has long runs. The stream's
        // first records suffice (single-row fills pay the run-boundary
        // accounting per row).
        const PREFIX: usize = 5_000;
        fn stream(intensity: f64, max_rows: usize) -> (Vec<PacketRecord>, Vec<usize>) {
            let world = World::build(FleetConfig {
                seed: 42,
                intensity,
                end_day: 3,
                ..FleetConfig::small()
            });
            let actors = world.fleet.actors.len();
            let mut gen = Generator::new(Arc::new(Vantage::cdn(&world)), 0..actors);
            let mut run = Run::default();
            let (mut recs, mut si) = (Vec::new(), Vec::new());
            loop {
                gen.fill(&mut run, max_rows);
                assert_eq!(run.recs.rows(), run.si.len());
                assert!(run.recs.rows() <= max_rows, "fill overran {max_rows} rows");
                recs.extend(run.recs.iter());
                for (row, &ai) in run.si.iter().enumerate() {
                    si.extend(std::iter::repeat_n(ai, run.recs.count(row) as usize));
                }
                if run.recs.is_empty() || recs.len() >= PREFIX {
                    recs.truncate(PREFIX);
                    si.truncate(PREFIX);
                    return (recs, si);
                }
            }
        }
        for intensity in [0.3, 25.0] {
            let one_by_one = stream(intensity, 1);
            assert_eq!(one_by_one.0.len(), PREFIX, "stream too small");
            for max_rows in [2, 3, RUN_ROWS] {
                assert!(
                    stream(intensity, max_rows) == one_by_one,
                    "intensity={intensity} max_rows={max_rows}"
                );
            }
        }
    }
}

//! Fused generation: the [`Source`] that *defines* the firewall-logged CDN
//! trace — scanner traffic plus artifacts plus noise, capture-filtered, in
//! timestamp order — synthesized straight from the fleet actors without
//! ever materializing it. [`World::cdn_trace`] is a collect of this source.
//!
//! At paper scale (intensity ≥ 100×) the trace runs to tens of gigabytes.
//! The source produces it incrementally: each actor holds only its
//! not-yet-releasable packets (roughly the one or two scanning sessions
//! overlapping the merge frontier), so peak memory is bounded by
//! per-session packet budgets, not by the trace length.
//!
//! # One engine, inline or threaded lanes
//!
//! The fleet's actors are dealt round-robin to `gen_threads` *lanes*. A
//! lane's [`Generator`] runs its actors' [`ActorStream`]s under a local
//! merge and emits sorted, capture-filtered runs of at most
//! [`RUN_RECORDS`] records, each record tagged with its global stream
//! index; the consumer k-way-merges the lane heads with the artifact and
//! noise streams. The only thing `gen_threads` changes is *where* a lane's
//! generator runs:
//!
//! - `gen_threads = 1`: the single lane owns its generator and refills its
//!   run on the consumer's thread — no thread, no channel, no cross-thread
//!   lane state.
//! - `gen_threads ≥ 2`: every record costs several RNG draws, and one
//!   thread expanding all actors caps fused throughput well below what the
//!   detector backends can absorb, so each lane hands its generator to a
//!   spawned thread behind a pair of bounded channels.
//!
//! # The sequence and its determinism
//!
//! The trace is the merge, by (timestamp, stream index), of one stream per
//! actor at its fleet index, then the artifact stream, then the noise
//! stream, minus the records [`FirewallCapture::logs`] rejects. It is a
//! pure function of the [`FleetConfig`](crate::FleetConfig) — not of the
//! lane count, the fill sizes or thread scheduling:
//!
//! - An actor's stream is its probes ([`ScannerActor::draw_session`], the
//!   loop [`ScannerActor::generate_scaled`] collects and stable-sorts) in
//!   (timestamp, emission index) order, kept by a release heap instead of
//!   a sort: an entry is releasable once every not-yet-expanded session
//!   starts at or after its timestamp, since later sessions can only
//!   contribute equal-or-later timestamps with larger emission indices.
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
//! The check is independent of all of the above: a test-side oracle
//! (`tests/oracle/mod.rs` — whole `generate_scaled` streams and repeated
//! fixed streams, one `merge_sorted`, one `capture`) must equal the source
//! at every lane count, fill size and intensity; the table1/fig2/fig5
//! goldens pin the draw sequence itself.
//!
//! Feeding the detector straight from the lanes, skipping the merge, is
//! not an option: detector state is keyed by *aggregated source prefix*,
//! which does not align with actor identity, so the detector must see the
//! one time-ordered stream only the merge makes. One detector thread
//! behind the merge is the whole detection side (`detect::parallel`).
//!
//! The artifact and noise streams *are* held whole, at their base (1×)
//! size ([`artifacts::generate`] and [`noise::generate`] return a day window
//! as one `Vec`), and scaled at delivery by [`FixedStream`]'s run-length
//! cursor: independent of `intensity`, outside the bounded-memory claim.
//! Both generators sort each day as they finish it — every record stays in
//! its day, so that is the whole stream's stable sort — and no whole-stream
//! sort scratch is ever allocated. `scanners.fleet.fixed_stream_bytes`
//! gauges what the two streams hold.
//!
//! # Bounded memory
//!
//! Generator-side buffering is the per-actor release heaps. Lane-side
//! buffering is bounded by construction: an inline lane owns one run
//! buffer; a threaded lane circulates exactly [`LANE_DEPTH`] recycled run
//! buffers — a worker that outruns the consumer blocks waiting for a free
//! buffer, it never allocates more. The
//! [`peak_buffered_records`](FleetSource::peak_buffered_records) accessor
//! (and its pinned test) covers all three tiers: release-heap entries,
//! records in flight in the channels, and the consumer-held lane heads.
//!
//! # Runs
//!
//! `--intensity` repeats a probe as adjacent identical records, and a *run*
//! — `count` copies of one record — is the unit every loop here steps by
//! and what it emits: a release-heap entry and a fixed-stream cursor hold
//! their copies run-length-encoded and hand out `min(copies, room)` per
//! step (`pop_run`), [`Generator::fill`] does one merge pop/push and one
//! capture test per entry and pushes one row with the copies as its count
//! ([`RecordBatch::push_n`]), and the consumer takes from the winning lane
//! every head row below the runner-up's key at once, counts included. No
//! copy is ever expanded. A run is cut in three places — a lane run filling
//! up ([`RUN_RECORDS`] records), the caller's `max`, the runner-up key —
//! and each cut leaves the rest of the copies where they were, under the
//! same merge key, so the next step resumes with them: the record sequence
//! does not depend on where the cuts fall.
//!
//! # Positions
//!
//! [`Source::position`] offsets are *delivered* (post-filter) record
//! indices — a property of the record sequence, so a position taken at one
//! `gen_threads` resumes at any other, and one inside a run names a copy
//! of it. [`Source::resume`] seeks forward by generating and discarding,
//! one step per run; only a position behind the current one rebuilds the
//! generators from the world's seed and replays from the start —
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
//! runs, the [`RUN_RECORDS`]-sized buffers), `channel_depth` (lane runs in
//! flight), `buffered_records` (total buffered across all tiers) and
//! `gen_threads`.

use crate::actor::ScannerActor;
use crate::fleet::{emission_due, scale_intensity, World};
use crate::noise;
use lumen6_telescope::{artifacts, CaptureConfig, FirewallCapture};
use lumen6_trace::{CodecError, PacketRecord, RecordBatch, Source, TracePosition};
use rand::rngs::SmallRng;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Records per emitted run: large enough to amortize channel traffic, small
/// enough that a lane's circulation set stays in cache.
const RUN_RECORDS: usize = 4_096;

/// Run buffers circulating per threaded lane. Total channel-side buffering
/// per lane is `LANE_DEPTH * RUN_RECORDS` records, by construction.
const LANE_DEPTH: usize = 4;

/// A generated probe waiting in an actor's release heap. Ordered by
/// (timestamp, emission index) — exactly the order a stable time-sort of
/// the fully materialized stream would produce. Intensity repeats of one
/// probe are run-length-encoded in `reps` rather than stored as separate
/// entries: all copies share the timestamp and occupy consecutive emission
/// indices (`idx` is the first), so delivering them back-to-back from a
/// single entry reproduces the materialized order while keeping heap
/// memory intensity-invariant.
#[derive(Debug, Clone, Copy)]
struct Pending {
    idx: u64,
    /// Remaining copies to deliver (≥ 1 while queued).
    reps: u64,
    rec: PacketRecord,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.rec.ts_ms == other.rec.ts_ms && self.idx == other.idx
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.rec.ts_ms, self.idx).cmp(&(other.rec.ts_ms, other.idx))
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
    heap: BinaryHeap<Reverse<Pending>>,
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
            heap: BinaryHeap::new(),
            targets_buf: Vec::with_capacity(2),
        }
    }

    /// Expands the next session's probes into the release heap, one
    /// run-length-encoded entry per probe that is due at all.
    fn expand_next_session(&mut self, actor: &ScannerActor) {
        let s = self.sessions[self.next_session];
        self.next_session += 1;
        let (heap, emit_idx) = (&mut self.heap, &mut self.emit_idx);
        let queue = |rec: PacketRecord, reps| {
            heap.push(Reverse(Pending {
                idx: *emit_idx,
                reps,
                rec,
            }));
            *emit_idx += reps;
        };
        actor.draw_session(
            &mut self.rng,
            &s,
            self.intensity,
            &mut self.targets_buf,
            queue,
        );
    }

    /// Timestamp of this actor's next packet, expanding sessions until the
    /// heap top is confirmed releasable. `None` once exhausted.
    fn peek_ts(&mut self, actor: &ScannerActor) -> Option<u64> {
        loop {
            let horizon = self.suffix_min_start[self.next_session];
            match self.heap.peek() {
                Some(Reverse(p)) if p.rec.ts_ms <= horizon => return Some(p.rec.ts_ms),
                _ if self.next_session == self.sessions.len() => return None,
                _ => self.expand_next_session(actor),
            }
        }
    }

    /// Pops this actor's next run (after confirming it, as
    /// [`peek_ts`](ActorStream::peek_ts) does): the top entry's record and
    /// how many of its remaining copies — at most `room` — are handed out.
    /// The entry is dequeued only once its repeats are exhausted; the heap
    /// key is unchanged while copies remain, so a run cut by `room` resumes
    /// from the same entry with the adjacent duplicates a stable sort
    /// would produce.
    fn pop_run(&mut self, actor: &ScannerActor, room: u64) -> Option<(PacketRecord, u64)> {
        self.peek_ts(actor)?;
        let mut top = self.heap.peek_mut()?;
        let (rec, k) = (top.0.rec, top.0.reps.min(room));
        if k < top.0.reps {
            top.0.reps -= k;
        } else {
            std::collections::binary_heap::PeekMut::pop(top);
        }
        Some((rec, k))
    }
}

/// A fixed (artifact or noise) stream and its delivery cursor: the stream
/// is held at its base (1×) size and scaled at delivery time
/// ([`emission_due`]), so memory stays intensity-invariant. It scales with
/// the scanners because the A.1 duplicate prefilter compares packet
/// *counts*: only then is the detected shape intensity-invariant.
/// Invariant outside of [`pop_run`](FixedStream::pop_run): either `pos` is
/// past the end, or `rem > 0` copies of `records[pos]` remain due — a run
/// cut short by the caller's room stays under the cursor.
#[derive(Debug)]
struct FixedStream {
    records: Vec<PacketRecord>,
    /// Scaled delivery total.
    scaled: u64,
    pos: usize,
    rem: u64,
    /// `scanners.fleet.packets_emitted.{artifacts,noise}` and its per-fill
    /// local accumulation.
    counter: lumen6_obs::Counter,
    pending: u64,
}

impl FixedStream {
    /// Generates the artifact and noise streams of a world, in the order
    /// they merge after the actors.
    fn pair(world: &World) -> [FixedStream; 2] {
        let cfg = world.config();
        let reg = lumen6_obs::MetricsRegistry::global();
        let stream = |records: Vec<PacketRecord>, name: &str| FixedStream {
            scaled: scale_intensity(records.len() as u64, cfg.intensity),
            records,
            pos: 0,
            rem: 0,
            counter: reg.counter(&format!("scanners.fleet.packets_emitted.{name}")),
            pending: 0,
        };
        let artifacts = artifacts::generate(
            &world.deployment,
            &cfg.artifacts,
            cfg.start_day,
            cfg.end_day,
            cfg.seed,
        );
        let noise = noise::generate(
            &world.deployment.all_addrs(),
            cfg.noise_sources_per_day,
            cfg.start_day,
            cfg.end_day,
            cfg.seed,
        );
        let held = (artifacts.len() + noise.len()) * std::mem::size_of::<PacketRecord>();
        reg.gauge("scanners.fleet.fixed_stream_bytes")
            .set(held as i64);
        let mut pair = [stream(artifacts, "artifacts"), stream(noise, "noise")];
        pair.iter_mut().for_each(FixedStream::rewind);
        pair
    }

    /// Puts the cursor on the first due record.
    fn rewind(&mut self) {
        (self.pos, self.rem) = (0, 0);
        self.normalize();
    }

    /// Re-establishes the invariant after `rem` hits zero: advances `pos`
    /// past records whose repeat count is zero (fractional intensities
    /// drop records) and loads the next record's count.
    fn normalize(&mut self) {
        let base = self.records.len() as u64;
        while self.rem == 0 && (self.pos as u64) < base {
            let i = self.pos as u64;
            self.rem = emission_due(self.scaled, base, i + 1) - emission_due(self.scaled, base, i);
            if self.rem == 0 {
                self.pos += 1;
            }
        }
    }

    /// Timestamp of the next due copy, `None` once exhausted.
    fn peek_ts(&self) -> Option<u64> {
        self.records.get(self.pos).map(|r| r.ts_ms)
    }

    /// Delivers the record under the cursor, which
    /// [`peek_ts`](FixedStream::peek_ts) has confirmed, and how many of its
    /// due copies — at most `room` — are handed out.
    fn pop_run(&mut self, room: u64) -> (PacketRecord, u64) {
        let rec = self.records[self.pos];
        let k = self.rem.min(room);
        self.pending += k;
        self.rem -= k;
        if self.rem == 0 {
            self.pos += 1;
            self.normalize();
        }
        (rec, k)
    }

    /// Adds the local emission count to the registry counter — once per
    /// fill, so per-run accounting stays atomic-free.
    fn flush_count(&mut self) {
        if self.pending > 0 {
            self.counter.add(std::mem::take(&mut self.pending));
        }
    }
}

/// The capture filter every record passes: the default [`CaptureConfig`].
fn capture_filter(world: &World) -> FirewallCapture<'_> {
    FirewallCapture::new(&world.deployment, CaptureConfig::default())
}

/// One sorted run from a generator: filtered records, one row per heap
/// entry with its copies as the row's count, plus the per-row global stream
/// index (the merge tie-break key).
#[derive(Debug, Default)]
struct Run {
    recs: RecordBatch,
    si: Vec<usize>,
    /// Release-heap entries its generator held when the run was cut.
    held: u64,
}

/// One lane's generation engine: a disjoint, ascending subset of the
/// fleet's actors, locally merged by the global (timestamp, stream index)
/// key and capture-filtered. A value, so a lane can run it on the
/// consumer's thread or hand it to a worker.
#[derive(Debug)]
struct Generator {
    world: World,
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
    /// Release-heap entries held across all streams, kept as they change.
    held: u64,
}

impl Generator {
    /// Draws every actor's schedule and primes the local merge.
    fn new(world: World, actor_ids: impl Iterator<Item = usize>) -> Generator {
        let cfg = world.config();
        let reg = lumen6_obs::MetricsRegistry::global();
        let (mut streams, mut emitted) = (Vec::new(), Vec::new());
        let mut merge = BinaryHeap::new();
        let mut held = 0;
        for (pos, ai) in actor_ids.enumerate() {
            let actor = &world.fleet.actors[ai];
            let kind = actor.targets.kind();
            emitted.push(reg.counter(&format!("scanners.fleet.packets_emitted.{kind}")));
            let mut stream = ActorStream::new(actor, cfg.seed, cfg.intensity);
            if let Some(ts) = stream.peek_ts(actor) {
                merge.push(Reverse((ts, ai, pos)));
            }
            held += stream.heap.len() as u64;
            streams.push(stream);
        }
        Generator {
            unflushed: vec![0; streams.len()],
            dirty: Vec::with_capacity(streams.len()),
            held,
            world,
            streams,
            emitted,
            merge,
        }
    }

    /// Refills `run` with this lane's next (at most `max`) logged records,
    /// in merge order. An empty run means the lane's actors are exhausted.
    fn fill(&mut self, run: &mut Run, max: usize) {
        run.recs.clear();
        run.si.clear();
        let world: &World = &self.world;
        let filter = capture_filter(world);
        while run.recs.len() < max {
            let Some(Reverse((_, ai, pos))) = self.merge.pop() else {
                break;
            };
            let actor = &world.fleet.actors[ai];
            // One step per heap entry: its copies share the merge key, so
            // they leave back to back — as many as the run has room for.
            let room = (max - run.recs.len()) as u64;
            let stream = &mut self.streams[pos];
            self.held -= stream.heap.len() as u64;
            let popped = stream.pop_run(actor, room);
            if let Some(ts) = stream.peek_ts(actor) {
                self.merge.push(Reverse((ts, ai, pos)));
            }
            self.held += stream.heap.len() as u64;
            let Some((rec, k)) = popped else {
                continue; // unreachable: frontier entries are confirmed
            };
            if self.unflushed[pos] == 0 {
                self.dirty.push(pos);
            }
            self.unflushed[pos] += k;
            if filter.logs(&rec) {
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

/// Body of a threaded lane's worker: ships the generator's runs until it
/// is exhausted or the consumer disconnects.
fn run_worker(
    mut gen: Generator,
    data: SyncSender<Run>,
    recycle: Receiver<Run>,
    in_flight: Arc<AtomicU64>,
) {
    // Bounded by construction: the only buffers are the LANE_DEPTH runs
    // circulating through the recycle channel.
    while let Ok(mut run) = recycle.recv() {
        gen.fill(&mut run, RUN_RECORDS);
        if run.recs.is_empty() {
            // Exhausted: dropping `data` disconnects the lane, which the
            // consumer reads as this lane's end of stream.
            return;
        }
        in_flight.fetch_add(run.recs.len() as u64, Relaxed);
        if data.send(run).is_err() {
            return; // consumer dropped the lane
        }
    }
}

/// Where a lane's generator runs.
#[derive(Debug)]
enum Feed {
    /// `gen_threads = 1`: owned, and refilled on the consumer's thread.
    Inline(Box<Generator>),
    /// `gen_threads ≥ 2`: on a worker thread, behind a data channel and
    /// the recycle channel that returns drained run buffers to it.
    Threaded {
        data: Receiver<Run>,
        recycle: SyncSender<Run>,
        handle: JoinHandle<()>,
        /// Filtered records currently in the data channel, updated at run
        /// boundaries (never per record). Every run but a lane's last is
        /// full, so this also counts the runs in flight.
        in_flight: Arc<AtomicU64>,
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
    /// `None` once the lane is exhausted.
    feed: Option<Feed>,
    head: Run,
    /// The head row being merged, how many of its copies have gone, and how
    /// many records the head still holds.
    cursor: usize,
    used: usize,
    left: usize,
}

impl Lane {
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
        match &mut self.feed {
            None => return false,
            Some(Feed::Inline(gen)) => gen.fill(&mut self.head, RUN_RECORDS),
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
                if let Some(run) = next {
                    runs_merged.add(1);
                    in_flight.fetch_sub(run.recs.len() as u64, Relaxed);
                    self.head = run;
                }
            }
        }
        self.left = self.head.recs.len();
        if self.left > 0 {
            return true;
        }
        // Generators never emit an empty run before exhaustion.
        if let Some(Feed::Threaded { handle, .. }) = self.feed.take() {
            // A worker that panicked disconnects too: surface it, so a
            // crashed generator never reads as a clean end of stream.
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        false
    }
}

/// A [`Source`] that generates the firewall-logged CDN trace of a [`World`]
/// on the fly, byte-identical at every `gen_threads`. See the module docs
/// for the engine, the equivalence argument and the position semantics.
#[derive(Debug)]
pub struct FleetSource {
    world: World,
    /// One lane per generator thread; a single lane runs inline.
    lanes: Vec<Lane>,
    /// The artifact and noise streams, merged after the actors.
    fixed: [FixedStream; 2],
    delivered: u64,
    prev_ts: u64,
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

    /// Builds a fused source whose generation runs on `gen_threads` worker
    /// threads (clamped to `1..=actor count`; 1 spawns none).
    pub fn with_gen_threads(world: World, gen_threads: usize) -> FleetSource {
        let n = gen_threads.clamp(1, world.fleet.actors.len().max(1));
        let reg = lumen6_obs::MetricsRegistry::global();
        FleetSource {
            // Lanes first: threaded workers prime and fill their first
            // runs while this thread materializes the fixed streams.
            lanes: FleetSource::spawn_lanes(&world, n),
            fixed: FixedStream::pair(&world),
            world,
            delivered: 0,
            prev_ts: 0,
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
    /// heap entries, records in flight in the lane channels, and
    /// consumer-held lane heads. Sampled at fill boundaries; the pinned
    /// bounded-memory test asserts it does not scale with trace length.
    pub fn peak_buffered_records(&self) -> u64 {
        self.peak_buffered
    }

    /// Builds `n` lanes over `world`, spawning their workers when `n > 1`.
    fn spawn_lanes(world: &World, n: usize) -> Vec<Lane> {
        let actors = world.fleet.actors.len();
        let reg = lumen6_obs::MetricsRegistry::global();
        (0..n)
            .map(|k| {
                // Round-robin partition: balances the per-kind expansion
                // cost better than contiguous blocks, and keeps each
                // lane's id list ascending (so its runs are sorted runs
                // of a disjoint subset).
                let ids = (k..actors).step_by(n);
                let world = world.clone();
                let feed = if n == 1 {
                    Feed::Inline(Box::new(Generator::new(world, ids)))
                } else {
                    let (data_tx, data) = sync_channel::<Run>(LANE_DEPTH);
                    let (recycle, recycle_rx) = sync_channel::<Run>(LANE_DEPTH);
                    for _ in 1..LANE_DEPTH {
                        // Seed the circulation set; the lane's first head
                        // below is its last member.
                        let _ = recycle.send(Run::default());
                    }
                    let in_flight = Arc::new(AtomicU64::new(0));
                    let worker_in_flight = Arc::clone(&in_flight);
                    // The worker builds its own generator, so schedule
                    // drawing is spread across the lanes too.
                    let handle = std::thread::spawn(move || {
                        run_worker(
                            Generator::new(world, ids),
                            data_tx,
                            recycle_rx,
                            worker_in_flight,
                        );
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
                Lane {
                    feed: Some(feed),
                    head: Run::default(),
                    cursor: 0,
                    used: 0,
                    left: 0,
                }
            })
            .collect()
    }

    /// Disconnects all lanes, then joins the generator threads. Dropping
    /// the channel endpoints unblocks workers stuck in `send` (data) or
    /// `recv` (recycle), so the joins cannot deadlock.
    fn shutdown(&mut self) {
        let handles: Vec<JoinHandle<()>> = self
            .lanes
            .drain(..)
            .filter_map(|lane| match lane.feed {
                Some(Feed::Threaded { handle, .. }) => Some(handle),
                _ => None,
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Samples lane occupancy into the peak tracker (and, for threaded
    /// lanes, the gauges). Called at fill boundaries, never per record.
    fn sample_buffering(&mut self) {
        let mut runs = 0u64;
        let mut buffered = 0u64;
        for lane in &self.lanes {
            buffered += lane.head.held + lane.left as u64;
            if let Some(Feed::Threaded { in_flight, .. }) = &lane.feed {
                let records = in_flight.load(Relaxed);
                runs += records.div_ceil(RUN_RECORDS as u64);
                buffered += records;
            }
        }
        if let Some([depth, buffered_records]) = &self.occupancy_gauges {
            depth.set(runs as i64);
            buffered_records.set(buffered as i64);
        }
        self.peak_buffered = self.peak_buffered.max(buffered);
    }

    /// Produces up to `max` *logged* records, appending to `out` when
    /// given (resume-skip passes `None` and discards). Returns how many
    /// logged records were produced; fewer than `max` means end of stream.
    pub(crate) fn produce(&mut self, mut out: Option<&mut RecordBatch>, max: usize) -> usize {
        let FleetSource {
            world,
            lanes,
            fixed,
            delivered,
            prev_ts,
            ..
        } = self;
        // Consumer-side filter for the fixed streams only — actor records
        // arrive pre-filtered from the lanes.
        let filter = capture_filter(world);
        let actors = world.fleet.actors.len();
        let mut produced = 0usize;
        while produced < max {
            // The candidate with the smallest (timestamp, stream index)
            // key is next — exactly the `merge_sorted` order — and it stays
            // next until its key passes the runner-up's. Slots number the
            // lanes first, then artifacts, then noise; stream indices are
            // disjoint across slots, so keys never tie between them.
            let n = lanes.len();
            let mut best: Option<((u64, usize), usize)> = None;
            let mut runner_up = (u64::MAX, usize::MAX);
            let mut offer = |key: (u64, usize), slot: usize| match best {
                Some((k, _)) if k <= key => runner_up = runner_up.min(key),
                _ => {
                    runner_up = best.map_or(runner_up, |(k, _)| k);
                    best = Some((key, slot));
                }
            };
            for (slot, lane) in lanes.iter_mut().enumerate() {
                if let Some(key) = lane.head_key() {
                    offer(key, slot);
                }
            }
            for (fi, stream) in fixed.iter().enumerate() {
                if let Some(ts) = stream.peek_ts() {
                    offer((ts, actors + fi), n + fi);
                }
            }
            let Some((_, slot)) = best else {
                break; // all lanes and fixed streams exhausted
            };
            let room = max - produced;
            let k = if let Some(lane) = lanes.get_mut(slot) {
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
                k
            } else {
                // The copies due of one fixed record, after one filter test.
                let (rec, k) = fixed[slot - n].pop_run(room as u64);
                if !filter.logs(&rec) {
                    continue;
                }
                *prev_ts = rec.ts_ms;
                if let Some(batch) = out.as_deref_mut() {
                    batch.push_n(rec, k as usize);
                }
                k as usize
            };
            produced += k;
            *delivered += k as u64;
        }
        for stream in &mut self.fixed {
            stream.flush_count();
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
        // (same seed, same draws) and resets the fixed cursors.
        if at.offset < self.delivered {
            let n = self.lanes.len();
            self.shutdown();
            (self.delivered, self.prev_ts) = (0, 0);
            self.lanes = FleetSource::spawn_lanes(&self.world, n);
            for stream in &mut self.fixed {
                stream.rewind();
            }
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

    #[test]
    fn drained_actor_stream_is_generate_scaled_per_actor() {
        // Both callers of `draw_session`: one pushes the copies and
        // stable-sorts, the other queues runs in a (timestamp, emission
        // index) heap. Drained, the heap yields the sorted stream — the same
        // multiset, and in the same order. 2.5 gives probes two and three
        // copies, 0.4 drops some.
        for intensity in [0.4, 1.0, 2.5] {
            let world = World::build(FleetConfig {
                intensity,
                end_day: 5,
                ..FleetConfig::small()
            });
            let mut records = 0;
            for actor in &world.fleet.actors {
                let mut stream = ActorStream::new(actor, 42, intensity);
                let mut drained = Vec::new();
                while let Some((rec, copies)) = stream.pop_run(actor, u64::MAX) {
                    drained.extend(std::iter::repeat_n(rec, copies as usize));
                }
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
    fn release_heap_entries_are_intensity_invariant() {
        // Intensity repeats are run-length-encoded in the release heaps:
        // driving the volume 25x must not change the number of buffered
        // entries at all (the footprint — and so the entry set — is
        // intensity-invariant by construction).
        // Single-record runs so every heap state is observed: the peak is
        // then an exact property of the entry sequence, not of where run
        // boundaries happen to fall.
        fn run(intensity: f64) -> (u64, u64) {
            let world = World::build(FleetConfig {
                seed: 42,
                intensity,
                end_day: 7,
                ..FleetConfig::small()
            });
            let actors = world.fleet.actors.len();
            let mut gen = Generator::new(world, 0..actors);
            let mut run = Run::default();
            let (mut peak, mut total) = (0, 0);
            loop {
                gen.fill(&mut run, 1);
                if run.recs.is_empty() {
                    return (peak, total);
                }
                peak = peak.max(run.held);
                total += 1;
            }
        }
        let (peak_1x, total_1x) = run(1.0);
        let (peak_25x, total_25x) = run(25.0);
        assert!(
            total_25x > total_1x * 20,
            "volume did not scale: {total_1x} → {total_25x}"
        );
        // A partially-delivered entry stays resident until its last copy
        // (at 1x it would already be popped), so allow exactly that one.
        assert!(
            peak_25x <= peak_1x + 1,
            "heap entries must not scale with intensity: {peak_1x} → {peak_25x}"
        );
    }

    #[test]
    fn fill_size_cuts_runs_without_changing_the_stream() {
        // A heap entry's copies leave `min(reps, room)` at a time, so `max`
        // decides where runs are cut — never what is delivered. Intensity
        // 0.3 has probes whose repeat count is zero, 25 has long runs.
        // The stream's first records suffice (single-record fills pay the
        // run-boundary accounting per record).
        const PREFIX: usize = 5_000;
        fn stream(intensity: f64, max: usize) -> (Vec<PacketRecord>, Vec<usize>) {
            let world = World::build(FleetConfig {
                seed: 42,
                intensity,
                end_day: 3,
                ..FleetConfig::small()
            });
            let actors = world.fleet.actors.len();
            let mut gen = Generator::new(world, 0..actors);
            let mut run = Run::default();
            let (mut recs, mut si) = (Vec::new(), Vec::new());
            loop {
                gen.fill(&mut run, max);
                assert_eq!(run.recs.rows(), run.si.len());
                assert!(run.recs.len() <= max, "fill overran max={max}");
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
            for max in [2, 3, 4_096] {
                assert!(
                    stream(intensity, max) == one_by_one,
                    "intensity={intensity} max={max}"
                );
            }
        }
    }
}

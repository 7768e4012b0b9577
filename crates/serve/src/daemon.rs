//! The multi-tenant detection daemon.
//!
//! A [`Daemon`] hosts every tenant of a [`ServeConfig`] concurrently: each
//! tenant is an independent checkpointed [`Session`] over its own ingest
//! source, with its own watermark, quarantine counters, checkpoint file,
//! and spool directory. A small fixed worker pool multiplexes the tenants
//! via [`Session::step`] — the re-entrant core the consuming `run` loop is
//! a wrapper over — so three tailed live feeds and a bulk replay can share
//! two threads without any tenant starving the rest.
//!
//! # Spool layout
//!
//! ```text
//! <spool>/
//!   shutdown              # graceful-stop trigger (configurable path)
//!   <tenant>/
//!     checkpoint.l6ck     # + .prev + .tmp, via the session's own policy
//!     report.json         # newest SessionReport (periodic, then final)
//!     metrics.json        # newest per-tenant MetricsSnapshot
//!     status.json         # name, state, slices, records, resumed, error
//! ```
//!
//! All three JSON files are written atomically (tmp + rename), so a reader
//! — or a crash — never observes a torn document.
//!
//! # Crash recovery
//!
//! Tenants whose checkpoint path is unset get `<spool>/<tenant>/checkpoint.l6ck`
//! assigned automatically, so *every* tenant is durable under the daemon.
//! On restart each session auto-resumes from its newest valid checkpoint
//! (falling back to the `.prev` generation if the newest is torn) and
//! re-positions its source; a `kill -9` mid-ingest therefore loses at most
//! the records since the last checkpoint grid point, and the re-run's final
//! report is byte-identical to an uninterrupted run.
//!
//! # Graceful shutdown
//!
//! `unsafe` is forbidden workspace-wide, so there are no signal handlers:
//! the daemon polls for a stop file (default `<spool>/shutdown`). When it
//! appears, workers park, and every unfinished tenant is drained to a final
//! off-grid checkpoint ([`Session::checkpoint_now`]) plus a point-in-time
//! report ([`Session::report_now`]), then the daemon returns normally.
//! Wire it to signals from the shell: `trap 'touch spool/shutdown' TERM INT`.

use crate::config::{RunConfig, ServeConfig};
use lumen6_detect::{Session, SessionError, SessionReport, Step};
use lumen6_obs::MetricsRegistry;
use lumen6_trace::{CodecError, Source};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often the coordinator polls the stop file and completion count.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Back-off before re-queueing a tenant whose source reported `Pending`.
const PENDING_BACKOFF: Duration = Duration::from_millis(2);

/// Errors from daemon construction and the run loop.
#[derive(Debug)]
pub enum ServeError {
    /// Spool or publication filesystem failure.
    Io(std::io::Error),
    /// Invalid manifest.
    Config(String),
    /// A tenant's ingest source failed to open.
    Codec(CodecError),
    /// A tenant session failed outside the step loop (drain path).
    Session(SessionError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "spool io: {e}"),
            ServeError::Config(m) => write!(f, "config: {m}"),
            ServeError::Codec(e) => write!(f, "ingest: {e}"),
            ServeError::Session(e) => write!(f, "session: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::Codec(e)
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

/// Lifecycle state of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Still ingesting.
    Running,
    /// Stream finished; final report published.
    Finished,
    /// Drained by graceful shutdown; checkpoint and report published,
    /// resumable on the next start.
    Stopped,
    /// Step error; other tenants keep running.
    Failed,
}

impl TenantState {
    /// Stable lowercase name used in `status.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            TenantState::Running => "running",
            TenantState::Finished => "finished",
            TenantState::Stopped => "stopped",
            TenantState::Failed => "failed",
        }
    }
}

/// Final per-tenant summary returned by [`Daemon::run`].
#[derive(Debug, Clone, Serialize)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Terminal state (`finished`, `stopped`, or `failed`).
    pub state: String,
    /// Records ingested by this daemon process (not counting pre-resume
    /// history).
    pub records: u64,
    /// Scheduling slices the tenant received.
    pub slices: u64,
    /// Whether the tenant resumed from an existing checkpoint at startup.
    pub resumed: bool,
    /// The step error, for `failed` tenants.
    pub error: Option<String>,
}

/// What [`Daemon::run`] returns: one [`TenantStatus`] per tenant, in
/// manifest order.
#[derive(Debug, Clone, Serialize)]
pub struct DaemonSummary {
    /// Per-tenant terminal states.
    pub tenants: Vec<TenantStatus>,
    /// True when the run ended via the stop file rather than every tenant
    /// finishing its stream.
    pub stopped: bool,
}

impl DaemonSummary {
    /// True if any tenant ended in the `failed` state.
    pub fn any_failed(&self) -> bool {
        self.tenants.iter().any(|t| t.state == "failed")
    }
}

/// Runtime state of one tenant: its session, source, spool directory, and
/// private metrics registry.
struct TenantRt {
    name: String,
    session: Session,
    source: Box<dyn Source>,
    registry: MetricsRegistry,
    dir: PathBuf,
    state: TenantState,
    slices: u64,
    records: u64,
    resumed: bool,
    error: Option<String>,
}

impl TenantRt {
    fn status(&self) -> TenantStatus {
        TenantStatus {
            name: self.name.clone(),
            state: self.state.as_str().to_string(),
            records: self.records,
            slices: self.slices,
            resumed: self.resumed,
            error: self.error.clone(),
        }
    }
}

/// Recovers a poisoned lock: metrics and spool publication must survive a
/// panicking worker.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes `path` atomically: `write` fills a buffered sibling file,
/// `<path>.tmp`, which is flushed and renamed over `path` once it returns
/// `Ok` — a reader of `path` sees the previous content or the new, never a
/// part of either. On any failure (create, `write`'s own, flush, rename) the
/// tmp file is removed and `path` keeps what it held. `write` is also the
/// fault-injection point: a test wraps the writer it is handed.
pub fn write_atomic<T, E: From<std::io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<T, E>,
) -> Result<T, E> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let result = File::create(&tmp).map_err(E::from).and_then(|file| {
        let mut file = BufWriter::new(file);
        let done = write(&mut file)?;
        file.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(done)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Publishes `value` as pretty JSON; returns the bytes written.
fn write_json(path: &Path, value: &impl Serialize) -> std::io::Result<u64> {
    write_atomic(path, |file| {
        serde_json::to_writer_pretty(file, value).map_err(std::io::Error::other)
    })
}

/// Publishes a tenant's `report.json` + `metrics.json` + `status.json`.
/// IO failures are recorded on the tenant rather than tearing the daemon
/// down — the session itself is unharmed and keeps checkpointing.
fn publish(rt: &mut TenantRt, report: Option<&SessionReport>) {
    let mut result = Ok(0);
    if let Some(report) = report {
        // Stopped before the snapshot below, so `metrics.json` carries the
        // publication it accompanies.
        let timer = rt.registry.stage("serve.tenant.publish_us");
        result = write_json(&rt.dir.join("report.json"), report);
        timer.stop();
        if let Ok(bytes) = result {
            let bytes = i64::try_from(bytes).unwrap_or(i64::MAX);
            rt.registry.gauge("serve.tenant.report_bytes").set(bytes);
        }
        rt.registry.counter("serve.tenant.publishes").add(1);
    }
    for (level, memory) in rt.session.memory() {
        memory.publish(&rt.registry, *level);
    }
    let snap = rt.registry.snapshot();
    let metrics = write_json(&rt.dir.join("metrics.json"), &snap);
    let status = write_json(&rt.dir.join("status.json"), &rt.status());
    if let Err(e) = result.and(metrics).and(status) {
        rt.error = Some(format!("publish: {e}"));
    }
}

/// Shared scheduler state: the ready queue plus one slot per tenant.
/// A worker *takes* the tenant out of its slot and runs the slice on the
/// owned value, so no lock is ever held across session stepping or spool
/// I/O (L006); queue discipline guarantees exclusivity — an index is
/// never in the ready queue while its slot is empty.
struct Shared {
    tenants: Vec<Mutex<Option<TenantRt>>>,
    queue: Mutex<VecDeque<usize>>,
    cvar: Condvar,
    quit: AtomicBool,
    done: AtomicUsize,
}

/// The configured daemon, ready to [`run`](Daemon::run).
pub struct Daemon {
    config: ServeConfig,
    tenants: Vec<TenantRt>,
    stop_file: PathBuf,
}

impl Daemon {
    /// Validates the manifest, lays out the spool, opens every tenant's
    /// ingest source, and builds its session. Tenants without an explicit
    /// checkpoint path get `<spool>/<tenant>/checkpoint.l6ck`, so every
    /// tenant is durable; tenants whose checkpoint file already exists
    /// will auto-resume on the first step.
    pub fn new(config: ServeConfig) -> Result<Daemon, ServeError> {
        config.validate().map_err(ServeError::Config)?;
        let spool = PathBuf::from(&config.spool);
        std::fs::create_dir_all(&spool)?;
        let stop_file = config
            .stop_file
            .as_ref()
            .map_or_else(|| spool.join("shutdown"), PathBuf::from);
        // A stale trigger from a previous graceful stop must not kill the
        // new process on arrival.
        match std::fs::remove_file(&stop_file) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let mut tenants = Vec::with_capacity(config.tenants.len());
        for spec in &config.tenants {
            let dir = spool.join(&spec.name);
            std::fs::create_dir_all(&dir)?;
            let mut run: RunConfig = spec.run.clone();
            if run.checkpoint.is_none() {
                run.checkpoint = Some(dir.join("checkpoint.l6ck").to_string_lossy().into_owned());
            }
            let resumed = run
                .checkpoint
                .as_ref()
                .is_some_and(|p| Path::new(p).exists());
            let source = run.make_source()?;
            let session = run.make_session();
            let registry = MetricsRegistry::new();
            if resumed {
                registry.counter("serve.tenant.resumed").add(1);
            }
            tenants.push(TenantRt {
                name: spec.name.clone(),
                session,
                source,
                registry,
                dir,
                state: TenantState::Running,
                slices: 0,
                records: 0,
                resumed,
                error: None,
            });
        }
        Ok(Daemon {
            config,
            tenants,
            stop_file,
        })
    }

    /// The stop file this daemon polls (for tests and status output).
    pub fn stop_file(&self) -> &Path {
        &self.stop_file
    }

    /// Number of configured tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Runs every tenant to completion or until the stop file appears,
    /// then drains unfinished tenants to a final checkpoint + report.
    /// Always returns a summary; individual tenant failures surface as
    /// `failed` entries, not as an error.
    pub fn run(mut self) -> Result<DaemonSummary, ServeError> {
        let total = self.tenants.len();
        let shared = Shared {
            tenants: self
                .tenants
                .drain(..)
                .map(|t| Mutex::new(Some(t)))
                .collect(),
            queue: Mutex::new((0..total).collect()),
            cvar: Condvar::new(),
            quit: AtomicBool::new(false),
            done: AtomicUsize::new(0),
        };
        let steps = self.config.steps_per_slice;
        let publish_every = self.config.publish_every_slices.max(1);
        let mut stopped = false;
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                scope.spawn(|| worker(&shared, steps, publish_every));
            }
            loop {
                if shared.done.load(Ordering::Acquire) >= total {
                    break;
                }
                if self.stop_file.exists() {
                    stopped = true;
                    break;
                }
                // Wake promptly when a worker finishes the last tenant
                // (workers notify the condvar); the timeout bounds how
                // stale the stop-file check can get.
                let queue = lock(&shared.queue);
                drop(
                    shared
                        .cvar
                        .wait_timeout(queue, POLL_INTERVAL)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0,
                );
            }
            shared.quit.store(true, Ordering::Release);
            shared.cvar.notify_all();
        });
        let mut tenants: Vec<TenantRt> = shared
            .tenants
            .into_iter()
            .filter_map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        if stopped {
            for rt in &mut tenants {
                if rt.state != TenantState::Running {
                    continue;
                }
                match drain(rt) {
                    Ok(report) => {
                        rt.state = TenantState::Stopped;
                        publish(rt, Some(&report));
                    }
                    Err(e) => {
                        rt.state = TenantState::Failed;
                        rt.error = Some(format!("drain: {e}"));
                        publish(rt, None);
                    }
                }
            }
        }
        Ok(DaemonSummary {
            tenants: tenants.iter().map(TenantRt::status).collect(),
            stopped,
        })
    }
}

/// Graceful-shutdown drain of one running tenant: off-grid checkpoint so
/// the next start resumes here, then a point-in-time report that leaves
/// the session resumable.
fn drain(rt: &mut TenantRt) -> Result<SessionReport, SessionError> {
    rt.session.checkpoint_now(rt.source.as_mut())?;
    rt.session.report_now()
}

/// Worker loop: pop a tenant, give it `steps` session steps, publish on
/// its slice grid, re-queue it unless it reached a terminal state.
fn worker(shared: &Shared, steps: u32, publish_every: u64) {
    loop {
        let idx = {
            let mut queue = lock(&shared.queue);
            loop {
                if shared.quit.load(Ordering::Acquire) {
                    return;
                }
                if let Some(idx) = queue.pop_front() {
                    break idx;
                }
                queue = shared
                    .cvar
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        // Take the tenant out of its slot: the slice below does file I/O
        // (checkpoints, spool publication), which must not run under the
        // slot lock. The slot lock is only ever held for the take/put.
        let Some(mut tenant) = lock(&shared.tenants[idx]).take() else {
            // Defensive — queue discipline means this cannot happen, but
            // an empty slot must not kill the worker: whoever holds the
            // tenant is responsible for re-queueing it.
            continue;
        };
        let rt = &mut tenant;
        let mut requeue = true;
        let mut pending = false;
        let mut slice_records: u64 = 0;
        for _ in 0..steps {
            if shared.quit.load(Ordering::Acquire) {
                break;
            }
            match rt.session.step(rt.source.as_mut()) {
                Ok(Step::Ingested(n)) => {
                    let n = n as u64;
                    rt.records += n;
                    slice_records += n;
                }
                Ok(Step::Pending) => {
                    rt.registry.counter("serve.tenant.pending_polls").add(1);
                    pending = true;
                    break;
                }
                Ok(Step::Finished(report)) => {
                    rt.state = TenantState::Finished;
                    publish(rt, Some(&report));
                    requeue = false;
                    break;
                }
                // `stop_after` is rejected by manifest validation, so a
                // deliberate stop cannot normally happen; treat it like a
                // drain if it does (e.g. a future knob).
                Ok(Step::Stopped { .. }) | Err(SessionError::Done) => {
                    rt.state = TenantState::Stopped;
                    let report = rt.session.report_now().ok();
                    publish(rt, report.as_ref());
                    requeue = false;
                    break;
                }
                Err(e) => {
                    rt.state = TenantState::Failed;
                    rt.error = Some(e.to_string());
                    publish(rt, None);
                    requeue = false;
                    break;
                }
            }
        }
        rt.slices += 1;
        rt.registry.counter("serve.tenant.slices").add(1);
        rt.registry
            .counter("serve.tenant.records")
            .add(slice_records);
        rt.registry
            .histogram("serve.tenant.slice_records")
            .record(slice_records);
        if requeue && rt.slices.is_multiple_of(publish_every) {
            match rt.session.report_now() {
                Ok(report) => publish(rt, Some(&report)),
                Err(_) => publish(rt, None),
            }
        }
        // Put the tenant back before re-queueing its index, so the next
        // worker to pop it always finds the slot occupied.
        *lock(&shared.tenants[idx]) = Some(tenant);
        if requeue {
            if pending {
                std::thread::sleep(PENDING_BACKOFF);
            }
            lock(&shared.queue).push_back(idx);
            // The main loop shares this condvar, so `notify_one` could
            // wake it instead of an idle worker and strand the tenant for
            // a worker wait-timeout; wake everyone.
            shared.cvar.notify_all();
        } else {
            shared.done.fetch_add(1, Ordering::AcqRel);
            shared.cvar.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RunConfig, TenantSpec};
    use lumen6_detect::SessionOutcome;
    use lumen6_trace::TraceWriter;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("lumen6-serve-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn fused_run(days: u64) -> RunConfig {
        RunConfig {
            fused: true,
            small: true,
            days: Some(days),
            sequential: true,
            checkpoint_every: 100,
            ..Default::default()
        }
    }

    fn manifest(spool: &Path, tenants: Vec<TenantSpec>) -> ServeConfig {
        ServeConfig {
            spool: spool.to_string_lossy().into_owned(),
            workers: 2,
            tenants,
            ..Default::default()
        }
    }

    #[test]
    fn daemon_runs_two_fused_tenants_to_completion() {
        let tmp = TempDir::new("run");
        let spool = tmp.path("spool");
        let cfg = manifest(
            &spool,
            vec![
                TenantSpec {
                    name: "alpha".into(),
                    run: fused_run(1),
                },
                TenantSpec {
                    name: "beta".into(),
                    run: RunConfig {
                        seed: 7,
                        ..fused_run(2)
                    },
                },
            ],
        );
        let summary = Daemon::new(cfg).unwrap().run().unwrap();
        assert!(!summary.stopped);
        assert!(!summary.any_failed());
        for t in &summary.tenants {
            assert_eq!(t.state, "finished", "{t:?}");
            assert!(t.records > 0);
            assert!(!t.resumed);
            let dir = spool.join(&t.name);
            for f in ["report.json", "metrics.json", "status.json"] {
                assert!(dir.join(f).exists(), "{} missing {f}", t.name);
            }
            assert!(dir.join("checkpoint.l6ck").exists());
            // The emitter's byte count is the file's size, and every
            // publication was timed — the final one included.
            let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
            let snap: lumen6_obs::MetricsSnapshot = serde_json::from_str(&metrics).unwrap();
            assert!(lumen6_obs::validate(&snap).is_empty());
            let on_disk = std::fs::metadata(dir.join("report.json")).unwrap().len();
            assert_eq!(snap.gauges["serve.tenant.report_bytes"], on_disk as i64);
            assert_eq!(
                snap.histograms["serve.tenant.publish_us"].count,
                snap.counters["serve.tenant.publishes"]
            );
            // The tenant's own detector footprint, from its session.
            let held = |name: &str| snap.gauges[&format!("detect.multi.l64.{name}")];
            assert!((1..100).contains(&held("open_runs")), "{}", t.name);
            assert!(held("exact_dst_entries") > 0 && held("port_entries") > 0);
            assert!(held("pending_events") >= 0);
        }
    }

    /// Passes `left` bytes through, then fails every write.
    struct FailAfter<'f> {
        file: &'f mut BufWriter<File>,
        left: usize,
    }

    impl Write for FailAfter<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::other("injected: disk full"));
            }
            let n = self.file.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    /// A publication that fails after any number of bytes is an error, never
    /// a panic or a rename: the tmp file is gone and the previously
    /// published document is byte-for-byte what it was.
    #[test]
    fn failed_write_leaves_the_previous_publication_and_no_tmp_file() {
        let tmp = TempDir::new("failing-writer");
        let path = tmp.path("report.json");
        let previous = b"{\"previous\": true}";
        std::fs::write(&path, previous).unwrap();
        let run = fused_run(2);
        let outcome = run
            .make_session()
            .run_source(run.make_source().unwrap().as_mut())
            .unwrap();
        let SessionOutcome::Finished(full) = outcome else {
            panic!("fused run did not finish")
        };
        let len = serde_json::to_string_pretty(&full).unwrap().len();
        assert!(len > 64 * 1024, "must cross the emitter's drain threshold");
        let mut small = full.clone();
        for level in small.reports.values_mut() {
            level.events.truncate(1);
        }
        let small_len = serde_json::to_string_pretty(&small).unwrap().len();

        let publish_through = |report: &SessionReport, left: usize| {
            write_atomic(&path, |file| {
                serde_json::to_writer_pretty(FailAfter { file, left }, report)
                    .map_err(std::io::Error::other)
            })
        };
        let check = |report: &SessionReport, left: usize| {
            let result = publish_through(report, left);
            assert!(result.is_err(), "failing after {left} bytes: {result:?}");
            assert_eq!(std::fs::read(&path).unwrap(), previous, "after {left}");
            assert!(!tmp.path("report.json.tmp").exists(), "after {left}");
        };
        for left in 0..small_len {
            check(&small, left);
        }
        for left in [64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1, len / 2, len - 1] {
            check(&full, left);
        }
        // Once the fault clears the same call publishes.
        let bytes = publish_through(&full, len).unwrap();
        assert_eq!(bytes, len as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
    }

    /// A tenant whose report cannot be published records that and keeps
    /// stepping to the end of its stream; the earlier report stays.
    #[test]
    fn tenant_with_unwritable_report_records_it_and_finishes() {
        let tmp = TempDir::new("unwritable");
        let dir = tmp.path("spool").join("alpha");
        // A directory where the tmp file goes: creating it fails every time.
        std::fs::create_dir_all(dir.join("report.json.tmp")).unwrap();
        std::fs::write(dir.join("report.json"), b"previous").unwrap();
        let cfg = ServeConfig {
            publish_every_slices: 1,
            ..manifest(
                &tmp.path("spool"),
                vec![TenantSpec {
                    name: "alpha".into(),
                    run: fused_run(1),
                }],
            )
        };
        let summary = Daemon::new(cfg).unwrap().run().unwrap();
        let t = &summary.tenants[0];
        assert_eq!(t.state, "finished", "{t:?}");
        assert!(t.slices > 1 && t.records > 0, "{t:?}");
        let error = t.error.as_deref().unwrap_or_default();
        assert!(error.starts_with("publish: "), "{t:?}");
        assert_eq!(std::fs::read(dir.join("report.json")).unwrap(), b"previous");
        assert!(dir.join("status.json").exists() && dir.join("metrics.json").exists());
    }

    fn write_trace(path: &Path, records: &[lumen6_trace::PacketRecord]) {
        let mut w = TraceWriter::new(std::fs::File::create(path).unwrap()).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        w.finish().unwrap();
    }

    fn small_world_records(days: u64) -> Vec<lumen6_trace::PacketRecord> {
        lumen6_scanners::World::build(lumen6_scanners::FleetConfig {
            end_day: days,
            ..lumen6_scanners::FleetConfig::small()
        })
        .cdn_trace()
    }

    /// A graceful stop drains to an off-grid checkpoint; the restarted
    /// daemon resumes there and its finished report carries the same
    /// detection results as an uninterrupted run. (`checkpoints_written`
    /// legitimately differs by the drain checkpoint, so the comparison is
    /// on the parsed `reports`/`records` fields, not raw bytes — the raw
    /// byte identity under `kill -9` is covered by the CLI serve tests.)
    #[test]
    fn stopped_daemon_resumes_to_equivalent_report() {
        let tmp = TempDir::new("resume");
        let trace = tmp.path("live.l6tr");
        let records = small_world_records(1);
        assert!(records.len() > 100, "trace too small to exercise resume");
        write_trace(&trace, &records);

        // Uninterrupted reference over the same bytes, as a plain trace.
        let ref_cfg = manifest(
            &tmp.path("ref"),
            vec![TenantSpec {
                name: "t".into(),
                run: RunConfig {
                    trace: Some(trace.to_string_lossy().into_owned()),
                    sequential: true,
                    checkpoint_every: 100,
                    ..Default::default()
                },
            }],
        );
        let summary = Daemon::new(ref_cfg).unwrap().run().unwrap();
        assert_eq!(summary.tenants[0].state, "finished");
        let reference = std::fs::read_to_string(tmp.path("ref").join("t/report.json")).unwrap();

        // A tail tenant over the same file, with no `.eof` marker: it can
        // only pend once the file is drained, so the stop file always wins.
        let spool = tmp.path("spool");
        let tail_run = RunConfig {
            tail: Some(trace.to_string_lossy().into_owned()),
            sequential: true,
            checkpoint_every: 100,
            ..Default::default()
        };
        let make = |run: RunConfig| {
            manifest(
                &spool,
                vec![TenantSpec {
                    name: "t".into(),
                    run,
                }],
            )
        };
        let daemon = Daemon::new(make(tail_run.clone())).unwrap();
        let stop = daemon.stop_file().to_path_buf();
        let handle = std::thread::spawn(move || daemon.run().unwrap());
        // Wait until the tenant demonstrably made progress (first periodic
        // publication), then trigger the graceful stop.
        let metrics = spool.join("t/metrics.json");
        for _ in 0..400 {
            if metrics.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(metrics.exists(), "tenant never published");
        std::fs::write(&stop, b"").unwrap();
        let summary = handle.join().unwrap();
        assert!(summary.stopped);
        assert_eq!(summary.tenants[0].state, "stopped");
        assert!(spool.join("t/checkpoint.l6ck").exists());

        // Restart with the EOF marker present: the tenant resumes from its
        // drain checkpoint and finishes.
        std::fs::write(tmp.path("live.l6tr.eof"), b"").unwrap();
        let summary = Daemon::new(make(tail_run)).unwrap().run().unwrap();
        assert_eq!(summary.tenants[0].state, "finished");
        assert!(summary.tenants[0].resumed);
        let resumed = std::fs::read_to_string(spool.join("t/report.json")).unwrap();
        let reference: serde_json::Value = serde_json::from_str(&reference).unwrap();
        let resumed: serde_json::Value = serde_json::from_str(&resumed).unwrap();
        for field in ["reports", "records", "late_dropped", "decode_skipped"] {
            assert_eq!(
                resumed.get(field),
                reference.get(field),
                "field {field} differs after resume"
            );
        }
    }

    #[test]
    fn tail_tenant_pends_until_eof_marker() {
        let tmp = TempDir::new("tail");
        let trace = tmp.path("live.l6tr");
        // Write a complete small trace, then mark EOF up front: the tenant
        // must drain it and finish.
        let records = small_world_records(1);
        write_trace(&trace, &records);
        std::fs::write(tmp.path("live.l6tr.eof"), b"").unwrap();

        let cfg = manifest(
            &tmp.path("spool"),
            vec![TenantSpec {
                name: "live".into(),
                run: RunConfig {
                    tail: Some(trace.to_string_lossy().into_owned()),
                    sequential: true,
                    ..Default::default()
                },
            }],
        );
        let summary = Daemon::new(cfg).unwrap().run().unwrap();
        assert_eq!(summary.tenants[0].state, "finished");
        assert_eq!(summary.tenants[0].records, records.len() as u64);
    }

    #[test]
    fn failed_tenant_does_not_take_down_the_rest() {
        let tmp = TempDir::new("fail");
        let bogus = tmp.path("garbage.l6tr");
        std::fs::write(&bogus, b"not a trace at all").unwrap();
        let cfg = manifest(
            &tmp.path("spool"),
            vec![TenantSpec {
                name: "ok".into(),
                run: fused_run(1),
            }],
        );
        // A bad trace fails at Daemon::new (source open), so build it with
        // a tail source instead: opening is lazy, decode fails on step.
        let mut cfg = cfg;
        cfg.tenants.push(TenantSpec {
            name: "bad".into(),
            run: RunConfig {
                tail: Some(bogus.to_string_lossy().into_owned()),
                strict: true,
                ..Default::default()
            },
        });
        std::fs::write(tmp.path("garbage.l6tr.eof"), b"").unwrap();
        let summary = Daemon::new(cfg).unwrap().run().unwrap();
        assert!(summary.any_failed());
        let by_name = |n: &str| {
            summary
                .tenants
                .iter()
                .find(|t| t.name == n)
                .unwrap()
                .clone()
        };
        assert_eq!(by_name("ok").state, "finished");
        assert_eq!(by_name("bad").state, "failed");
        assert!(by_name("bad").error.is_some());
    }
}

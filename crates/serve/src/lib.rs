//! `lumen6-serve` — the multi-tenant detection daemon.
//!
//! The `lumen6 detect` command runs one detection session over one trace
//! and exits. An operator watching several vantage points wants the
//! opposite shape: a single long-running process hosting many concurrent
//! *tenants* — live tailed feeds, bulk replays, and synthetic fused
//! streams side by side — each with its own detector configuration,
//! watermark, quarantine accounting, checkpoint file, and periodically
//! published report, and all of them recoverable after a crash.
//!
//! This crate provides that runtime in three layers:
//!
//! - [`toml`] — a minimal TOML-subset parser (the build vendors no TOML
//!   crate) producing `serde` values.
//! - [`config`] — [`RunConfig`], the single-run configuration shared with
//!   the `detect` CLI (`--config FILE`), and [`ServeConfig`], the daemon
//!   manifest mapping tenant names to runs.
//! - [`daemon`] — the [`Daemon`] itself: a fixed worker pool multiplexing
//!   re-entrant [`lumen6_detect::Session::step`] calls across tenants,
//!   spool publication, stop-file graceful shutdown, and checkpoint-based
//!   crash recovery.
//!
//! See `DESIGN.md` ("Multi-tenant runtime") for the scheduling and
//! recovery invariants.

#![warn(missing_docs)]

pub mod config;
pub mod daemon;
pub mod toml;

pub use config::{Flags, Key, RunConfig, ServeConfig, TenantSpec};
pub use daemon::{write_atomic, Daemon, DaemonSummary, ServeError, TenantState, TenantStatus};

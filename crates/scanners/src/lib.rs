//! Scanner actor models.
//!
//! The paper characterizes real IPv6 scanning actors along four independent
//! axes, and this crate models each as a composable sampler:
//!
//! - **Source strategy** ([`samplers::SourceSampler`]): a single /128, a few
//!   addresses in one /64 (AS#2), low-bit variation (AS#9 varied the lowest
//!   7–9 bits), random addresses across an entire allocation (AS#18 used a
//!   whole /32), or multiple sub-prefixes (multi-tenant clouds).
//! - **Target strategy** ([`samplers::TargetSampler`]): DNS-derived hitlist
//!   sweeps, hitlist-seeded *nearby* exploration (probing the neighborhood
//!   of a known address, §3.3), mixes of in-DNS and not-in-DNS pair members,
//!   and prefix sweeps with structured (low Hamming weight) or uniformly
//!   random IIDs (§4, Fig. 7).
//! - **Port strategy** ([`samplers::PortSampler`]): one service, a fixed
//!   set, a wide sweep of the port space (AS#3 hit ~45 K TCP ports), or a
//!   mid-measurement strategy switch (AS#1 went from ~444 ports to 4 in
//!   May 2021).
//! - **Temporal pattern** ([`actor::Schedule`]): continuous scanning,
//!   activity windows (AS#9 only appears from November 2021 — the /128
//!   uptick in Fig. 2), and single-day bursts (the MAWI ICMPv6 peaks).
//!
//! [`fleet`] assembles calibrated actors reproducing the 20 source ASes of
//! the paper's Table 2 plus the MAWI-only ICMPv6 scanners, at configurable
//! scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod fleet;
pub mod fleet_source;
pub mod noise;
pub mod samplers;
pub mod tga;

pub use actor::{ScannerActor, Schedule, Session};
pub use fleet::{scale_intensity, Fleet, FleetConfig, World};
pub use fleet_source::{FleetSource, ParallelFleetSource};
pub use samplers::{IidMode, PortSampler, SourceSampler, TargetSampler};

//! # lumen6 — illuminating large-scale IPv6 scanning
//!
//! A full reproduction of *“Illuminating Large-Scale IPv6 Scanning in the
//! Internet”* (Richter, Gasser & Berger, IMC 2022) as a production-quality
//! Rust library: the paper's scan-detection methodology, the vantage-point
//! substrates it depends on (a CDN firewall telescope and a MAWI-style
//! transit link, both simulated), a calibrated scanner fleet reproducing
//! the paper's ground truth, and the analysis machinery behind every table
//! and figure.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. Depend on the individual `lumen6-*` crates to slim the tree.
//!
//! ## Quickstart
//!
//! ```
//! use lumen6::prelude::*;
//!
//! // Build a small simulated world: telescope + calibrated scanner fleet.
//! let world = World::build(FleetConfig::small());
//! let trace = world.cdn_trace();
//!
//! // The paper's pipeline: artifact prefilter, then scan detection.
//! let (clean, _report) = ArtifactFilter::default().filter(&trace);
//! let scans = detect(&clean, ScanDetectorConfig::paper(AggLevel::L64));
//! assert!(scans.scans() > 0);
//!
//! // Aggregation matters: /48 sources can exceed /64 sources when a
//! // scanner spreads across a routed prefix.
//! let at48 = detect(&clean, ScanDetectorConfig::paper(AggLevel::L48));
//! println!("/64 sources: {}  /48 sources: {}", scans.sources(), at48.sources());
//! ```
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`addr`] | `lumen6-addr` | prefixes, radix trie, Hamming/IID analysis |
//! | [`trace`] | `lumen6-trace` | packet records, binary codec, sim time |
//! | [`netmodel`] | `lumen6-netmodel` | AS registry, allocations, LPM routing |
//! | [`telescope`] | `lumen6-telescope` | CDN deployment, capture filter, artifacts |
//! | [`scanners`] | `lumen6-scanners` | scanner actors and the Table-2 fleet |
//! | [`detect`] | `lumen6-detect` | scan detection, MAWI detector, adaptive IDS |
//! | [`analysis`] | `lumen6-analysis` | series, tables, targeting, concentration |
//! | [`mawi`] | `lumen6-mawi` | transit-link vantage with daily 15-min windows |
//! | [`report`] | `lumen6-report` | tables, CSV, paper-style formatting |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lumen6_addr as addr;
pub use lumen6_analysis as analysis;
pub use lumen6_backscatter as backscatter;
pub use lumen6_detect as detect;
pub use lumen6_mawi as mawi;
pub use lumen6_netmodel as netmodel;
pub use lumen6_report as report;
pub use lumen6_scanners as scanners;
pub use lumen6_telescope as telescope;
pub use lumen6_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use lumen6_addr::{Ipv6Prefix, PrefixTrie};
    pub use lumen6_detect::detector::detect;
    pub use lumen6_detect::{
        AggLevel, ArtifactFilter, MawiDetector, ScanDetector, ScanDetectorConfig, ScanEvent,
        ScanReport,
    };
    pub use lumen6_netmodel::{AsType, InternetRegistry};
    pub use lumen6_scanners::{FleetConfig, ScannerActor, World};
    pub use lumen6_telescope::{CdnDeployment, DeploymentConfig, FirewallCapture};
    pub use lumen6_trace::{PacketRecord, SimTime, StreamingTraceReader, TraceWriter, Transport};
}

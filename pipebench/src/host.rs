//! What the benchmark reads about its own process and host: CPU time and
//! peak RSS from `/proc`, core count, toolchain and commit for provenance.

use serde::{Deserialize, Serialize};
use std::process::Command;

/// Kernel clock ticks per second assumed when reading `/proc/self/stat`.
/// Linux reports `utime`/`stime` in `USER_HZ`, which is 100 on every
/// mainstream configuration; reading the real value needs `sysconf` (libc,
/// `unsafe`), so the assumption is recorded with every result instead.
pub const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all threads
/// (exited ones included), at `USER_HZ` resolution.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 (`comm`) may contain spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Provenance recorded with every output file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub host_cores: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// The `USER_HZ` assumption behind `cpu_s`.
    pub user_hz_assumed: f64,
    /// Where checkpoints and the serve spool are written.
    pub ckpt_fs: String,
    /// Whether the binary was built with debug assertions.
    pub debug_build: bool,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostInfo {
    /// Collects the provenance fields (runs `rustc` and `git` once each).
    pub fn collect() -> HostInfo {
        HostInfo {
            host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            rustc: first_line_of("rustc", &["--version"]),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            user_hz_assumed: USER_HZ,
            ckpt_fs: "work dir inside the checkout (fsynced)".to_string(),
            debug_build: cfg!(debug_assertions),
        }
    }
}

//! Golden-output tests for the experiments harness.
//!
//! Each test renders one paper artifact (Table 1, Fig. 2, Fig. 5) from a
//! small fixed-seed lab and compares it against the expected output
//! committed as JSON under `tests/golden/` at the repository root. The
//! goldens pin the *full rendered text*, so any behavioral drift in the
//! generators, the artifact filter, or the detection pipeline shows up as
//! a reviewable diff rather than a silently shifted number.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p lumen6-experiments --test golden
//! ```

use lumen6_detect::{AggLevel, Backend};
use lumen6_experiments::{cdn, mawi_exp, CdnLab, MawiLab};
use lumen6_mawi::MawiConfig;
use lumen6_scanners::FleetConfig;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The committed golden file format: the experiment output plus enough
/// metadata to regenerate it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Golden {
    /// Experiment name (`table1`, `fig2`, `fig5`).
    experiment: String,
    /// World seed the lab was built with.
    seed: u64,
    /// Human description of the fixture configuration.
    config: String,
    /// The full rendered experiment output.
    output: String,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Compares `got` against the committed golden, printing a line diff on
/// mismatch. With `GOLDEN_BLESS=1`, rewrites the golden instead.
fn check_golden(experiment: &str, seed: u64, config: &str, output: &str) {
    let path = golden_dir().join(format!("{experiment}.json"));
    let got = Golden {
        experiment: experiment.to_string(),
        seed,
        config: config.to_string(),
        output: output.to_string(),
    };
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        let json = serde_json::to_string_pretty(&got).expect("golden serializes");
        std::fs::write(&path, json + "\n").expect("write golden");
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun with GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    let want: Golden = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("corrupt golden {}: {e:?}", path.display()));
    if got == want {
        return;
    }
    // A reviewable diff: metadata first, then the first diverging lines.
    let mut msg = format!("golden mismatch for {experiment} ({})\n", path.display());
    if (got.seed, got.config.as_str()) != (want.seed, want.config.as_str()) {
        msg += &format!(
            "fixture drift: golden was seed {} / {:?}, test ran seed {} / {:?}\n",
            want.seed, want.config, got.seed, got.config
        );
    }
    let got_lines: Vec<&str> = got.output.lines().collect();
    let want_lines: Vec<&str> = want.output.lines().collect();
    let n = got_lines.len().max(want_lines.len());
    let mut shown = 0;
    for i in 0..n {
        let g = got_lines.get(i).copied().unwrap_or("<missing>");
        let w = want_lines.get(i).copied().unwrap_or("<missing>");
        if g != w {
            msg += &format!("line {}:\n  expected: {w}\n  got:      {g}\n", i + 1);
            shown += 1;
            if shown >= 10 {
                msg += "...(further differences elided)\n";
                break;
            }
        }
    }
    msg += "re-bless with GOLDEN_BLESS=1 if the change is intentional";
    panic!("{msg}");
}

const SEED: u64 = 42;
const CDN_CONFIG: &str = "FleetConfig::small, end_day 21, sequential backend";
const MAWI_CONFIG: &str = "MawiConfig::small, end_day 14, sequential backend";

fn cdn_lab() -> CdnLab {
    CdnLab::build_with(
        FleetConfig {
            seed: SEED,
            end_day: 21,
            ..FleetConfig::small()
        },
        Backend::Sequential,
    )
}

fn mawi_lab() -> MawiLab {
    MawiLab::build(
        MawiConfig {
            seed: SEED,
            end_day: 14,
            ..MawiConfig::small()
        },
        None,
    )
}

#[test]
fn table1_matches_golden() {
    let lab = cdn_lab();
    check_golden("table1", SEED, CDN_CONFIG, &cdn::table1_totals(&lab));
}

#[test]
fn fig2_matches_golden() {
    let lab = cdn_lab();
    check_golden("fig2", SEED, CDN_CONFIG, &cdn::fig2_weekly_sources(&lab));
}

#[test]
fn fig5_matches_golden() {
    let lab = mawi_lab();
    check_golden(
        "fig5",
        SEED,
        MAWI_CONFIG,
        &mawi_exp::fig5_daily_sources(&lab),
    );
}

fn cdn_lab_at_intensity(intensity: f64) -> CdnLab {
    CdnLab::build_with(
        FleetConfig {
            seed: SEED,
            end_day: 21,
            intensity,
            ..FleetConfig::small()
        },
        Backend::Sequential,
    )
}

/// The intensity-invariant "shape" of the paper's headline artifacts:
/// Table 1 with the packets column dropped (packet totals scale with
/// intensity by construction) plus the full Fig. 2 rendering, which only
/// counts sources and therefore must not move at all.
fn intensity_shape(lab: &CdnLab) -> String {
    let mut out = String::from("## Table 1 shape (packets column elided)\n");
    for lvl in [AggLevel::L128, AggLevel::L64, AggLevel::L48] {
        let r = &lab.reports[&lvl];
        let ases = lab.world.registry.distinct_origin_ases(
            r.source_set().iter().map(lumen6_addr::Ipv6Prefix::bits),
            true,
        );
        writeln!(
            out,
            "{lvl}: scans={} sources={} ases={ases}",
            r.scans(),
            r.sources()
        )
        .unwrap();
    }
    out.push('\n');
    out + &cdn::fig2_weekly_sources(lab)
}

/// `--intensity` scales packet *volume* without distorting the detected
/// structure: scans, sources, source ASes, and the Fig. 2 weekly source
/// series are byte-identical from 1x to the paper's volume, 1250x, while
/// every detected packet is there `intensity` times. The lab holds counted
/// rows, so each intensity costs about what 1x does. The 1x shape is
/// additionally pinned as a golden so drift is reviewable.
#[test]
fn intensity_scales_volume_not_shape() {
    let base = cdn_lab_at_intensity(1.0);
    let shape = intensity_shape(&base);
    check_golden(
        "shape_intensity",
        SEED,
        "FleetConfig::small, end_day 21, sequential backend, intensity sweep {1, 10, 100, 1250}x",
        &shape,
    );
    let packets = base.reports[&AggLevel::L64].packets();
    drop(base);
    for intensity in [10u32, 100, 1250] {
        let lab = cdn_lab_at_intensity(f64::from(intensity));
        assert_eq!(
            intensity_shape(&lab),
            shape,
            "{intensity}x intensity distorted the Table 1 / Fig. 2 shape"
        );
        assert_eq!(
            lab.reports[&AggLevel::L64].packets(),
            u64::from(intensity) * packets,
            "{intensity}x intensity should multiply packet volume"
        );
    }
}

/// The golden fixture is backend-independent: the threaded pipeline renders
/// byte-identical artifacts, so the goldens also pin cross-backend
/// equivalence at the experiment level.
#[test]
fn table1_is_backend_independent() {
    let seq = cdn::table1_totals(&cdn_lab());
    let threaded = cdn::table1_totals(&CdnLab::build_with(
        FleetConfig {
            seed: SEED,
            end_day: 21,
            ..FleetConfig::small()
        },
        Backend::default(),
    ));
    assert_eq!(seq, threaded);
}

//! Smoke coverage of every experiment: each must render non-empty output on
//! a reduced world without panicking, and its headline lines must be
//! present. (The full-window numbers live in EXPERIMENTS.md; this guards
//! the machinery itself.)

use lumen6_experiments::{run_cdn, run_mawi, CdnLab, MawiLab, CDN_EXPERIMENTS, MAWI_EXPERIMENTS};
use std::sync::OnceLock;

fn cdn() -> &'static CdnLab {
    static LAB: OnceLock<CdnLab> = OnceLock::new();
    LAB.get_or_init(|| {
        let fleet = lumen6_scanners::FleetConfig {
            seed: 3,
            ..lumen6_scanners::FleetConfig::small()
        };
        CdnLab::build_with(fleet, lumen6_detect::Backend::default())
    })
}

fn mawi() -> &'static MawiLab {
    static LAB: OnceLock<MawiLab> = OnceLock::new();
    LAB.get_or_init(|| {
        MawiLab::build(
            lumen6_mawi::MawiConfig {
                seed: 3,
                ..lumen6_mawi::MawiConfig::small()
            },
            Some(&cdn().world),
        )
    })
}

#[test]
fn every_cdn_experiment_renders() {
    for name in CDN_EXPERIMENTS {
        let out = run_cdn(name, cdn()).unwrap_or_else(|| panic!("{name} not dispatched"));
        assert!(out.starts_with("## "), "{name} lacks a heading:\n{out}");
        // ext_portshift legitimately reports "no change point" on windows
        // that end before May 2021 — two lines is its valid minimum.
        assert!(out.lines().count() >= 2, "{name} output too small:\n{out}");
    }
}

#[test]
fn every_mawi_experiment_renders() {
    for name in MAWI_EXPERIMENTS {
        let out = run_mawi(name, mawi()).unwrap_or_else(|| panic!("{name} not dispatched"));
        assert!(out.starts_with("## "), "{name} lacks a heading:\n{out}");
        assert!(out.lines().count() >= 3, "{name} output too small:\n{out}");
    }
}

#[test]
fn unknown_experiment_is_none() {
    assert!(run_cdn("not_an_experiment", cdn()).is_none());
    assert!(run_mawi("not_an_experiment", mawi()).is_none());
}

#[test]
fn headline_claims_present_in_reduced_world() {
    // Table 2 renders all ranks and the share lines.
    let t2 = run_cdn("table2", cdn()).unwrap();
    assert!(t2.contains("top-5 AS share"));
    assert!(t2.contains("Datacenter (CN)"));
    // Sensitivity names the AS#18 blow-up.
    let sens = run_cdn("sensitivity", cdn()).unwrap();
    assert!(sens.contains("AS#18"));
    // The MAWI share experiment confirms cross-vantage identity.
    let f6 = run_mawi("fig6", mawi()).unwrap();
    assert!(
        f6.contains("most active source is the CDN fleet's AS#1 source: true"),
        "{f6}"
    );
}

#[test]
fn csv_export_writes_all_series() {
    let dir = std::env::temp_dir().join(format!("lumen6-exp-csv-{}", std::process::id()));
    let cdn_files = lumen6_experiments::csv_out::export_cdn(cdn(), &dir).expect("cdn csv");
    assert_eq!(cdn_files.len(), 6);
    let mawi_files = lumen6_experiments::csv_out::export_mawi(mawi(), &dir).expect("mawi csv");
    assert_eq!(mawi_files.len(), 3);
    for f in cdn_files.iter().chain(&mawi_files) {
        let content = std::fs::read_to_string(dir.join(f)).expect("file written");
        assert!(content.lines().count() >= 1, "{f} is empty");
        assert!(
            content.lines().next().unwrap().contains(','),
            "{f} lacks a CSV header"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! `pipeline compare BASE.json NEW.json` — the table a later change pastes:
//! per workload × end-to-end metric, both medians and quartiles, how much
//! worse (+) or better (−) the new median is, the metric's bound, and a
//! verdict. A pairing whose base runs spread wider than the bound is
//! `unresolved`, not unchanged — unless every new run beats every base run.

use crate::names::{EndToEndDef, END_TO_END};
use crate::suite::{MetricSummary, Summary};

fn load(path: &str) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// How much worse `new` is than `base`, as a share of `base` (negative =
/// better), in the metric's own direction.
fn worsening(def: &EndToEndDef, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (new - base) / base.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

fn every_new_run_is_better(def: &EndToEndDef, base: &MetricSummary, new: &MetricSummary) -> bool {
    if def.higher_is_better {
        new.min > base.max
    } else {
        new.max < base.min
    }
}

/// The verdict for one pairing.
fn verdict(def: &EndToEndDef, base: &MetricSummary, new: &MetricSummary) -> &'static str {
    let worse_by = worsening(def, base.median, new.median);
    if base.spread() > def.bound && !every_new_run_is_better(def, base, new) {
        "unresolved"
    } else if worse_by > def.bound {
        "REGRESSION"
    } else {
        "within bound"
    }
}

/// Prints the comparison table.
pub fn compare(base_path: &str, new_path: &str) -> Result<(), String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    if (base.scale.as_str(), base.seconds) != (new.scale.as_str(), new.seconds) {
        return Err(format!(
            "not comparable: base is {} scale x {} s, new is {} scale x {} s",
            base.scale, base.seconds, new.scale, new.seconds
        ));
    }
    println!(
        "base: {base_path} (commit {}, seed {}, n = {}, {} core(s))",
        base.host.git_commit, base.seed, base.reps, base.host.host_cores
    );
    println!(
        "new:  {new_path} (commit {}, seed {}, n = {}, {} core(s))",
        new.host.git_commit, new.seed, new.reps, new.host.host_cores
    );
    println!(
        "{:<14} {:<14} {:>34} {:>34} {:>9} {:>7} {:>8}  verdict",
        "workload",
        "metric",
        "base median [q1, q3]",
        "new median [q1, q3]",
        "worse by",
        "bound",
        "base iqr"
    );
    for w in &base.workloads {
        let Some(nw) = new.workloads.iter().find(|n| n.name == w.name) else {
            println!("{:<14} missing from {new_path}", w.name);
            continue;
        };
        for def in END_TO_END {
            let find = |ms: &[MetricSummary]| ms.iter().find(|m| m.name == def.name).cloned();
            let (Some(b), Some(n)) = (find(&w.end_to_end), find(&nw.end_to_end)) else {
                println!("{:<14} {:<14} missing", w.name, def.name);
                continue;
            };
            let cell = |m: &MetricSummary| format!("{:.4} [{:.4}, {:.4}]", m.median, m.q1, m.q3);
            println!(
                "{:<14} {:<14} {:>34} {:>34} {:>+8.2}% {:>6.0}% {:>7.2}%  {}",
                w.name,
                def.name,
                cell(&b),
                cell(&n),
                worsening(def, b.median, n.median) * 100.0,
                def.bound * 100.0,
                b.spread() * 100.0,
                verdict(def, &b, &n)
            );
        }
    }
    println!(
        "failed_share: base {}, new {}",
        base.failed_share, new.failed_share
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[f64]) -> MetricSummary {
        crate::suite::summarize("m", "u", values.to_vec())
    }

    const LOWER: EndToEndDef = EndToEndDef {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.05,
    };
    const HIGHER: EndToEndDef = EndToEndDef {
        name: "records_per_s",
        unit: "rec/s",
        higher_is_better: true,
        bound: 0.05,
    };

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(&LOWER, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&HIGHER, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(&LOWER, 0.0, 1.0), 0.0);
    }

    #[test]
    fn verdicts_cover_bound_regression_and_unresolved() {
        let steady = summary(&[10.0, 10.0, 10.1, 9.9, 10.0]);
        assert_eq!(
            verdict(&LOWER, &steady, &summary(&[10.2, 10.3, 10.2, 10.1, 10.2])),
            "within bound"
        );
        assert_eq!(
            verdict(&LOWER, &steady, &summary(&[11.0, 11.1, 11.0, 10.9, 11.0])),
            "REGRESSION"
        );
        assert_eq!(
            verdict(&HIGHER, &steady, &summary(&[9.0, 9.1, 9.0, 8.9, 9.0])),
            "REGRESSION"
        );
        // A base whose own runs spread wider than the bound resolves
        // nothing — unless the new runs all beat all the base runs.
        let noisy = summary(&[8.0, 12.0, 10.0, 9.0, 11.0]);
        assert_eq!(
            verdict(&LOWER, &noisy, &summary(&[10.0, 10.0, 10.0, 10.0, 10.0])),
            "unresolved"
        );
        assert_eq!(
            verdict(&LOWER, &noisy, &summary(&[7.0, 7.1, 7.0, 6.9, 7.0])),
            "within bound"
        );
    }
}

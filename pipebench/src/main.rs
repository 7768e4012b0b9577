//! `pipeline` — the lumen6 pipeline benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! pipeline --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
//!     one run of one workload; the last stdout line is the result object
//! pipeline [--seed 42] [--reps 5] [--seconds 15] [--no-trace] [--out FILE] [--smoke]
//!     the suite: every workload x repetition as child processes, then the
//!     traced runs, the cross-workload gate and a summary
//! pipeline compare BASE.json NEW.json
//!     per workload x end-to-end metric: medians, quartiles, delta vs bound
//! pipeline names
//!     the workloads / end_to_end / per_layer sections of BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the glossary and procedures.

mod compare;
mod drive;
mod gate;
mod host;
mod names;
mod run;
mod span;
mod stats;
mod suite;
mod timed;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{Scale, Workload};

/// `run_seconds` of `BENCHMARK.json`: the measuring time of one run unless
/// `--seconds` says otherwise.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  pipeline --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
  pipeline [--seed N] [--reps N] [--seconds S] [--no-trace] [--out FILE] [--smoke]
  pipeline compare BASE.json NEW.json
  pipeline names
workloads: fused-seq fused-par trace-levels fused-ckpt serve-tenants";

/// Parsed command line: positional words, `--key value` options, flags.
struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        const OPTIONS: [&str; 6] = ["workload", "seed", "seconds", "trace", "out", "reps"];
        const FLAGS: [&str; 2] = ["smoke", "no-trace"];
        let mut args = Args {
            positional: Vec::new(),
            options: BTreeMap::new(),
            flags: Vec::new(),
        };
        let mut argv = argv;
        while let Some(word) = argv.next() {
            match word.strip_prefix("--") {
                Some(key) if OPTIONS.contains(&key) => {
                    let value = argv.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.insert(key.to_string(), value);
                }
                Some(key) if FLAGS.contains(&key) => args.flags.push(key.to_string()),
                Some(key) => return Err(format!("unknown option --{key}")),
                None => args.positional.push(word),
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: cannot read {text:?}")),
        }
    }
}

fn write_out(path: Option<&String>, json: Result<String, serde_json::Error>) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    let json = json.map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if args.positional.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.positional.as_slice() else {
            return Err("compare takes BASE.json NEW.json".into());
        };
        return compare::compare(base, new).map(|()| ExitCode::SUCCESS);
    }
    if args.positional == ["names"] {
        let json = serde_json::to_string_pretty(&names::declaration());
        println!("{}", json.map_err(|e| e.to_string())?);
        return Ok(ExitCode::SUCCESS);
    }
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", args.positional[0]));
    }

    let scale = if args.flag("smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    if scale == Scale::Full && cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release, \
                    or pass --smoke for the functional check"
            .into());
    }
    let seed = args.number("seed", 42u64)?;
    let out = args.options.get("out");

    if let Some(name) = args.options.get("workload") {
        let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
        let trace = match args.options.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let detail = run::run_one(&run::RunArgs {
            workload,
            seed,
            seconds: args.number("seconds", RUN_SECONDS)?,
            trace,
            scale,
        });
        write_out(out, serde_json::to_string_pretty(&detail))?;
        detail.print();
        // The result line carries `correct`; the exit code says only that
        // a result was produced.
        return Ok(ExitCode::SUCCESS);
    }

    let smoke = scale == Scale::Smoke;
    let summary = suite::run(&suite::SuiteArgs {
        seed,
        reps: args.number("reps", if smoke { 2 } else { 5 })?,
        seconds: args.number("seconds", if smoke { 0.2 } else { RUN_SECONDS })?,
        traced: !args.flag("no-trace"),
        scale,
    })?;
    write_out(out, serde_json::to_string_pretty(&summary))?;
    summary.print();
    Ok(
        if summary.failed_share == 0.0 && summary.checks.iter().all(|c| c.ok) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        },
    )
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("pipeline: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

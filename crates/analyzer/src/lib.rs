//! `lumen6-analyzer`: the workspace static-analysis pass.
//!
//! Parses every crate in the workspace (via the vendored `syn` lexer) and
//! enforces project invariants as named, individually-suppressible lints:
//!
//! | lint | invariant |
//! |------|-----------|
//! | L001 | no `unwrap`/`expect`/`panic!` in non-test library-crate code |
//! | L002 | no `partial_cmp` calls — float ordering must use `total_cmp` |
//! | L003 | no wall-clock / OS entropy in deterministic simulation crates |
//! | L004 | snapshot format drift requires a `SNAPSHOT_VERSION` bump |
//! | L005 | metric-name literals must satisfy the `lumen6-obs` scheme |
//! | L006 | no lock guard held across a blocking boundary in daemon crates |
//! | L007 | no truncating `as` cast on provably-wider address/counter operands |
//! | L008 | every file is published through `lumen6_trace::write_atomic` |
//! | L009 | no unbounded growth primitives in daemon-resident loops |
//!
//! L006–L009 run on a scope tree built over the token stream (see
//! [`scope`]): brace-matched scopes, guard/integer binding tables, and a
//! conservative expression-width resolver.
//!
//! A violation is suppressed by an inline comment on the same line or the
//! line above — the reason is mandatory and stale allows are rejected:
//!
//! ```text
//! // lumen6: allow(L001, length checked by the caller two lines up)
//! ```
//!
//! Run with `cargo run -p lumen6-analyzer`; exits non-zero when any
//! unsuppressed violation remains. `--json` emits the machine-readable
//! report CI archives.

pub mod ctx;
pub mod lints;
pub mod scope;
pub mod scoped;
pub mod snapshot;

use ctx::FileCtx;
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// A lint's identity and one-line summary (`--list-lints`).
pub struct LintInfo {
    /// Stable ID, e.g. `L001`.
    pub id: &'static str,
    /// What it enforces.
    pub summary: &'static str,
}

/// Every lint the analyzer knows, including L000 (suppression hygiene —
/// not itself suppressible).
pub const KNOWN_LINTS: &[LintInfo] = &[
    LintInfo {
        id: "L001",
        summary: "no unwrap/expect/panic! in non-test code of library crates",
    },
    LintInfo {
        id: "L002",
        summary: "no partial_cmp calls; float ordering must use total_cmp",
    },
    LintInfo {
        id: "L003",
        summary: "no SystemTime::now/Instant::now/thread_rng in deterministic sim crates",
    },
    LintInfo {
        id: "L004",
        summary: "snapshot-format changes require a SNAPSHOT_VERSION bump + re-bless",
    },
    LintInfo {
        id: "L005",
        summary: "metric-name literals must match the lumen6-obs crate.subsystem.metric scheme",
    },
    LintInfo {
        id: "L006",
        summary: "no lock guard held across a blocking boundary (channel/condvar/join/file I/O)",
    },
    LintInfo {
        id: "L007",
        summary: "no truncating `as` cast on provably-wider address/counter operands",
    },
    LintInfo {
        id: "L008",
        summary: "File::create/fs::write only in the one publisher, lumen6_trace::write_atomic",
    },
    LintInfo {
        id: "L009",
        summary: "no unbounded channels or ever-growing resident state in daemon loops",
    },
];

/// One diagnostic.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Lint ID (`L000`–`L009`).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
    /// True when an allow directive matched.
    pub suppressed: bool,
    /// The allow directive's reason, when suppressed.
    pub reason: Option<String>,
}

/// Analysis options.
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Rewrite the snapshot fingerprint file instead of checking it.
    pub bless_snapshot: bool,
    /// Allow blessing without a `SNAPSHOT_VERSION` bump (wire-compatible
    /// refactors only).
    pub force_bless: bool,
    /// Lint a single file as if it lived in the named crate (fixture
    /// mode); skips L004.
    pub single_file: Option<(PathBuf, Option<String>)>,
}

impl Options {
    /// Workspace scan of `root` with checking semantics.
    pub fn workspace(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            bless_snapshot: false,
            force_bless: false,
            single_file: None,
        }
    }
}

/// Result of an analysis run.
#[derive(Debug, Serialize)]
pub struct Outcome {
    /// Every finding, suppressed ones included.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// True when `--bless-snapshot` rewrote the fingerprint file.
    pub blessed: bool,
}

impl Outcome {
    /// Findings that fail the build.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }
}

/// Relative path of the committed fingerprint file.
pub const FINGERPRINT_FILE: &str = "crates/analyzer/snapshot.fingerprint.json";

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            walk_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Classifies a workspace-relative path into (crate name, is-test-file).
fn classify(rel: &str) -> (Option<String>, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = (parts.len() > 2 && parts[0] == "crates").then(|| parts[1].to_string());
    let is_test = parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    (crate_name, is_test)
}

fn lex_file(root: &Path, path: &Path, crate_override: Option<&str>) -> Result<FileCtx, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let (mut crate_name, is_test) = classify(&rel);
    if let Some(c) = crate_override {
        crate_name = Some(c.to_string());
    }
    FileCtx::new(rel.clone(), crate_name, is_test, &src)
        .map_err(|e| format!("{rel}: lex error {e}"))
}

fn run_token_lints(ctx: &mut FileCtx, findings: &mut Vec<Finding>) {
    let mut file_findings = Vec::new();
    lints::l001(ctx, &mut file_findings);
    lints::l002(ctx, &mut file_findings);
    lints::l003(ctx, &mut file_findings);
    lints::l005(ctx, &mut file_findings);
    let tree = scope::ScopeTree::build(ctx);
    scoped::l006(ctx, &tree, &mut file_findings);
    scoped::l007(ctx, &tree, &mut file_findings);
    scoped::l008(ctx, &tree, &mut file_findings);
    scoped::l009(ctx, &tree, &mut file_findings);
    ctx.apply_allows(&mut file_findings);
    findings.append(&mut file_findings);
}

/// Runs the analysis described by `opts`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut findings = Vec::new();

    if let Some((path, as_crate)) = &opts.single_file {
        let mut ctx = lex_file(
            path.parent().unwrap_or(Path::new(".")),
            path,
            as_crate.as_deref(),
        )?;
        run_token_lints(&mut ctx, &mut findings);
        return Ok(Outcome {
            findings,
            files_scanned: 1,
            blessed: false,
        });
    }

    let root = &opts.root;
    let mut files = Vec::new();
    walk_rs(&root.join("crates"), &mut files);
    walk_rs(&root.join("src"), &mut files);
    walk_rs(&root.join("examples"), &mut files);
    walk_rs(&root.join("tests"), &mut files);
    if files.is_empty() {
        return Err(format!("no .rs files under {}", root.display()));
    }

    let mut ctxs = Vec::with_capacity(files.len());
    for f in &files {
        ctxs.push(lex_file(root, f, None)?);
    }

    // L004 first: it reads all files, before allows are consumed.
    let fp_path = root.join(FINGERPRINT_FILE);
    let mut blessed = false;
    match snapshot::compute(&ctxs) {
        Ok(current) => {
            let stored: Option<snapshot::SnapshotFingerprint> = fs::read_to_string(&fp_path)
                .ok()
                .and_then(|s| serde_json::from_str(&s).ok());
            if opts.bless_snapshot {
                if let Some(s) = &stored {
                    if s.snapshot_version == current.snapshot_version
                        && s.fingerprint != current.fingerprint
                        && !opts.force_bless
                    {
                        return Err(format!(
                            "refusing to bless: snapshot shape changed but \
                             SNAPSHOT_VERSION is still {} — bump it in \
                             crates/detect/src/snapshot.rs first, or pass \
                             --force-bless for a wire-compatible refactor",
                            current.snapshot_version
                        ));
                    }
                }
                let json = serde_json::to_string_pretty(&current)
                    .map_err(|e| format!("serialize fingerprint: {e}"))?;
                fs::write(&fp_path, json + "\n")
                    .map_err(|e| format!("write {}: {e}", fp_path.display()))?;
                blessed = true;
            } else {
                snapshot::l004(&current, stored.as_ref(), FINGERPRINT_FILE, &mut findings);
            }
        }
        Err(e) => findings.push(Finding {
            lint: "L004",
            file: FINGERPRINT_FILE.to_string(),
            line: 1,
            col: 1,
            message: format!("snapshot fingerprint anchors missing: {e}"),
            suppressed: false,
            reason: None,
        }),
    }

    let files_scanned = ctxs.len();
    for ctx in &mut ctxs {
        run_token_lints(ctx, &mut findings);
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    Ok(Outcome {
        findings,
        files_scanned,
        blessed,
    })
}

/// Renders the human diagnostics to a string.
pub fn render_human(out: &Outcome) -> String {
    let mut s = String::new();
    for f in &out.findings {
        if f.suppressed {
            continue;
        }
        s.push_str(&format!(
            "{} {}:{}:{} — {}\n",
            f.lint, f.file, f.line, f.col, f.message
        ));
    }
    let bad = out.unsuppressed().count();
    let sup = out.findings.len() - bad;
    s.push_str(&format!(
        "lumen6-analyzer: {bad} violation{} ({sup} suppressed) across {} files\n",
        if bad == 1 { "" } else { "s" },
        out.files_scanned
    ));
    s
}

//! Scope-aware lints L006–L009, built on [`crate::scope::ScopeTree`].
//!
//! These target the failure classes that kill a months-long telescope
//! soak rather than a unit test: a lock guard held across blocking I/O
//! (deadlock / tail-latency collapse under multi-tenant load), a
//! silently truncating cast on 128-bit address state (wrong /64
//! attribution, not a crash), a torn spool write observed by a reader
//! mid-`File::create`, and per-tenant state that only ever grows.

use crate::ctx::FileCtx;
use crate::lints::finding;
use crate::scope::{prim_width, rmatch_delim, BindKind, ScopeTree};
use crate::Finding;
use std::collections::BTreeSet;
use syn::TokenKind;

/// Crates running inside the long-lived daemon process where a held lock
/// can stall every tenant (L006).
pub const LOCK_DISCIPLINE_CRATES: &[&str] = &["serve", "obs", "detect"];

/// Crates carrying 128-bit address/counter state where a truncating cast
/// is a silent wrong-answer bug (L007): the detector, the daemon, the
/// codec, the generator's repeat schedule and the CLI's counts.
pub const CAST_DISCIPLINE_CRATES: &[&str] = &["detect", "serve", "trace", "scanners", "cli"];

/// Crates publishing spool/checkpoint files that concurrent readers poll
/// (L008).
pub const ATOMIC_WRITE_CRATES: &[&str] = &["serve", "detect", "cli"];

/// Crates whose loops are daemon-resident: unbounded growth there is a
/// slow OOM over a soak run (L009).
pub const BOUNDED_GROWTH_CRATES: &[&str] = &["serve", "detect"];

/// Methods that block the calling thread: channel ops, condvar waits,
/// thread joins, and file sync/flush-to-disk.
const BLOCKING_METHODS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "sync_all",
    "sync_data",
    "write_all",
    "sleep",
];

/// `std::fs` free functions that hit the filesystem.
const FS_FNS: &[&str] = &[
    "write",
    "read",
    "read_to_string",
    "rename",
    "copy",
    "remove_file",
    "create_dir_all",
    "read_dir",
    "metadata",
];

/// Growth methods L009 polices inside daemon-resident loops.
const GROWTH_METHODS: &[&str] = &["push", "extend", "push_back", "insert", "append"];

/// Evidence that a collection is periodically emptied or bounded.
const CLEAR_METHODS: &[&str] = &[
    "clear",
    "drain",
    "truncate",
    "retain",
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "swap_remove",
    "split_off",
    "dedup",
    "take",
];

fn in_crate(ctx: &FileCtx, crates: &[&str]) -> bool {
    ctx.crate_name
        .as_deref()
        .is_some_and(|c| crates.contains(&c))
}

/// Describes the blocking call starting at code index `i`, if any.
/// `blocked_fns` holds names of same-file functions already known to
/// block (transitively).
fn blocking_site(ctx: &FileCtx, i: usize, blocked_fns: &BTreeSet<String>) -> Option<String> {
    let t = ctx.ct(i);
    if t.kind != TokenKind::Ident {
        return None;
    }
    if i + 1 >= ctx.code.len() || !ctx.ct(i + 1).is_punct('(') {
        return None;
    }
    let prev_dot = i > 0 && ctx.ct(i - 1).is_punct('.');
    let prev_path = i > 1 && ctx.ct(i - 1).is_punct(':') && ctx.ct(i - 2).is_punct(':');
    let name = t.text.as_str();
    if prev_dot {
        if BLOCKING_METHODS.contains(&name) {
            return Some(format!(".{name}()"));
        }
        // `JoinHandle::join()` takes no arguments; `Path::join(p)` and
        // `slice::join(sep)` do — only the nullary form blocks.
        if name == "join" && i + 2 < ctx.code.len() && ctx.ct(i + 2).is_punct(')') {
            return Some(".join()".to_string());
        }
        return None;
    }
    if prev_path && i >= 3 {
        let base = ctx.ct(i - 3).text.as_str();
        let hit = (base == "fs" && FS_FNS.contains(&name))
            || (base == "File" && matches!(name, "create" | "open" | "create_new"))
            || (base == "thread" && name == "sleep");
        if hit {
            return Some(format!("{base}::{name}()"));
        }
        return None;
    }
    // Plain same-file call: transitively blocking functions count, so a
    // guard held across `publish(...)` is caught even though the actual
    // `fs::write` lives two calls down.
    if !prev_dot && !prev_path && name != "drop" && blocked_fns.contains(name) {
        return Some(format!("{name}() (does blocking I/O transitively)"));
    }
    None
}

/// Fixpoint over same-file functions: which ones (transitively) contain
/// a blocking call?
fn blocking_fns(ctx: &FileCtx, tree: &ScopeTree) -> BTreeSet<String> {
    let mut blocked: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for f in &tree.fns {
            if blocked.contains(&f.name) {
                continue;
            }
            let s = &tree.scopes[f.scope];
            for i in s.open + 1..s.close {
                if blocking_site(ctx, i, &blocked).is_some() {
                    blocked.insert(f.name.clone());
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return blocked;
        }
    }
}

/// L006: no lock guard held across a blocking boundary. A guard that is
/// an *argument* of the blocking call is exempt — that is the condvar
/// `wait(guard)` idiom, which atomically releases the lock.
pub fn l006(ctx: &FileCtx, tree: &ScopeTree, out: &mut Vec<Finding>) {
    if !in_crate(ctx, LOCK_DISCIPLINE_CRATES) || ctx.is_test_file {
        return;
    }
    let blocked = blocking_fns(ctx, tree);
    for b in tree.bindings.iter().filter(|b| b.kind == BindKind::Guard) {
        let decl_line = if b.decl < ctx.code.len() {
            ctx.ct(b.decl).span.line
        } else {
            0
        };
        if ctx.in_test(decl_line) {
            continue;
        }
        let close = tree.scopes[b.scope].close;
        let end = b.drop_at.unwrap_or(close).min(close);
        for i in b.decl + 1..end {
            let Some(desc) = blocking_site(ctx, i, &blocked) else {
                continue;
            };
            if ctx.in_test(ctx.ct(i).span.line) {
                continue;
            }
            // Consuming-wait exemption: guard passed into the call.
            if let Some(close_paren) = ctx.match_delim(i + 1, '(', ')') {
                if (i + 2..close_paren).any(|k| ctx.ct(k).is_ident(&b.name)) {
                    continue;
                }
            }
            out.push(finding(
                ctx,
                "L006",
                i,
                format!(
                    "lock guard `{}` (declared on line {decl_line}) is held \
                     across blocking call {desc}: drop or scope the guard \
                     first, or move the I/O out of the critical section",
                    b.name
                ),
            ));
        }
    }
}

/// L007: no truncating `as` cast where the operand's width is provably
/// wider than the target. `(x >> K) as T` and `(x & MASK) as T` that
/// keep only in-range bits are recognized as exact and allowed.
pub fn l007(ctx: &FileCtx, tree: &ScopeTree, out: &mut Vec<Finding>) {
    if !in_crate(ctx, CAST_DISCIPLINE_CRATES) || ctx.is_test_file {
        return;
    }
    for i in 1..ctx.code.len() {
        let t = ctx.ct(i);
        if !t.is_ident("as") || ctx.in_test(t.span.line) {
            continue;
        }
        let Some(target) = ctx.code.get(i + 1).map(|_| ctx.ct(i + 1)) else {
            continue;
        };
        let Some(tw) = prim_width(&target.text) else {
            continue;
        };
        if tw >= 128 {
            continue; // widening to u128 is always safe
        }
        let Some(ow) = tree.width_of_chain(ctx, i - 1) else {
            continue; // operand width unknown — stay silent
        };
        if ow > tw {
            out.push(finding(
                ctx,
                "L007",
                i,
                format!(
                    "possibly-truncating cast: {ow}-bit operand narrowed \
                     `as {}` — use the lumen6_addr::cast helpers \
                     (low64/high64/sat_u32/sat_u16), mask or shift the \
                     exact bits, or add a reasoned allow",
                    target.text
                ),
            ));
        }
    }
}

/// L008: `File::create` / `fs::write` in a publishing crate must live in
/// a function that also renames (the write-temp-then-rename idiom);
/// anything else can expose a torn file to a concurrent reader.
pub fn l008(ctx: &FileCtx, tree: &ScopeTree, out: &mut Vec<Finding>) {
    if !in_crate(ctx, ATOMIC_WRITE_CRATES) || ctx.is_test_file {
        return;
    }
    for i in 3..ctx.code.len() {
        let t = ctx.ct(i);
        if t.kind != TokenKind::Ident || ctx.in_test(t.span.line) {
            continue;
        }
        let prev_path = ctx.ct(i - 1).is_punct(':') && ctx.ct(i - 2).is_punct(':');
        if !prev_path || i + 1 >= ctx.code.len() || !ctx.ct(i + 1).is_punct('(') {
            continue;
        }
        let base = ctx.ct(i - 3).text.as_str();
        let name = t.text.as_str();
        let is_write = (base == "File" && matches!(name, "create" | "create_new"))
            || (base == "fs" && name == "write");
        if !is_write {
            continue;
        }
        let renames = tree.enclosing_fn(i).is_some_and(|f| {
            let s = &tree.scopes[f];
            (s.open + 1..s.close).any(|k| ctx.ct(k).is_ident("rename"))
        });
        if !renames {
            out.push(finding(
                ctx,
                "L008",
                i,
                format!(
                    "{base}::{name} outside a temp+rename function: a \
                     concurrent reader can observe a torn or empty file — \
                     write to a temp path and fs::rename into place, or add \
                     a reasoned allow",
                ),
            ));
        }
    }
}

/// L009: unbounded growth in daemon-resident code — `channel()` without
/// a bound, or `.push`/`.extend`/`.insert` inside a `loop`/`while` into
/// state reachable from outside the call (`self.…` or a parameter) with
/// no clear/drain/reassign evidence anywhere in the file.
pub fn l009(ctx: &FileCtx, tree: &ScopeTree, out: &mut Vec<Finding>) {
    if !in_crate(ctx, BOUNDED_GROWTH_CRATES) || ctx.is_test_file {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.ct(i);
        if t.kind != TokenKind::Ident || ctx.in_test(t.span.line) {
            continue;
        }
        if t.is_ident("channel") && !(i > 0 && ctx.ct(i - 1).is_punct('.')) {
            // Skip an optional `::<T>` turbofish to find the call parens.
            let mut k = i + 1;
            if k + 1 < ctx.code.len() && ctx.ct(k).is_punct(':') && ctx.ct(k + 1).is_punct(':') {
                k += 2;
                if k < ctx.code.len() && ctx.ct(k).is_punct('<') {
                    let mut depth = 0i32;
                    while k < ctx.code.len() {
                        if ctx.ct(k).is_punct('<') {
                            depth += 1;
                        } else if ctx.ct(k).is_punct('>') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    k += 1;
                }
            }
            if k < ctx.code.len() && ctx.ct(k).is_punct('(') {
                out.push(finding(
                    ctx,
                    "L009",
                    i,
                    "unbounded channel() in a daemon-resident crate: use \
                     sync_channel with an explicit depth so backpressure \
                     reaches the producer, or add a reasoned allow \
                     documenting the cap"
                        .to_string(),
                ));
            }
            continue;
        }
        if !GROWTH_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        let callish = i > 0
            && ctx.ct(i - 1).is_punct('.')
            && i + 1 < ctx.code.len()
            && ctx.ct(i + 1).is_punct('(');
        if !callish || tree.enclosing_loop(i).is_none() {
            continue;
        }
        let Some((root, owner)) = receiver_chain(ctx, i) else {
            continue; // computed receiver — cannot reason about it
        };
        let resident = if root == "self" {
            true
        } else {
            match tree.lookup(&root, i) {
                Some(b) => b.is_param,
                // Unresolved roots (statics, destructured patterns) are
                // skipped: flagging them would drown real findings.
                None => false,
            }
        };
        if !resident || clear_evidence(ctx, &owner) || (owner != root && clear_evidence(ctx, &root))
        {
            continue;
        }
        out.push(finding(
            ctx,
            "L009",
            i,
            format!(
                ".{}() into `{owner}` inside a daemon-resident loop with no \
                 clear/drain/truncate or reassignment in this file: bound it \
                 with a documented cap or add a reasoned allow",
                t.text
            ),
        ));
    }
}

/// Walks the dotted receiver chain backwards from the growth method at
/// code index `m`: returns (root identifier, identifier owning the
/// collection — the segment right before the method).
fn receiver_chain(ctx: &FileCtx, m: usize) -> Option<(String, String)> {
    let mut owner: Option<String> = None;
    let mut j = m - 1; // the `.` before the method
    loop {
        if j == 0 {
            return None;
        }
        let mut k = j - 1;
        // Skip an index expression `…[e]`.
        if ctx.ct(k).is_punct(']') {
            k = rmatch_delim(ctx, k, '[', ']')?;
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        let t = ctx.ct(k);
        let seg = match t.kind {
            TokenKind::Ident => t.text.clone(),
            // Tuple field like `.1` — transparent, keep walking.
            TokenKind::Number => String::new(),
            _ => return None,
        };
        if owner.is_none() && !seg.is_empty() {
            owner = Some(seg.clone());
        }
        if k == 0 || !ctx.ct(k - 1).is_punct('.') {
            if seg.is_empty() {
                return None;
            }
            return Some((seg.clone(), owner.unwrap_or(seg)));
        }
        j = k - 1;
    }
}

/// Does the file ever empty, shrink, or reassign collection `name`?
fn clear_evidence(ctx: &FileCtx, name: &str) -> bool {
    for k in 0..ctx.code.len() {
        let t = ctx.ct(k);
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name = …` reassignment (not `==`).
        if t.is_ident(name)
            && k + 1 < ctx.code.len()
            && ctx.ct(k + 1).is_punct('=')
            && !(k + 2 < ctx.code.len() && ctx.ct(k + 2).is_punct('='))
        {
            return true;
        }
        // `name.clear()`-family call.
        if CLEAR_METHODS.contains(&t.text.as_str())
            && k >= 2
            && ctx.ct(k - 1).is_punct('.')
            && ctx.ct(k - 2).is_ident(name)
            && k + 1 < ctx.code.len()
            && ctx.ct(k + 1).is_punct('(')
        {
            return true;
        }
    }
    false
}

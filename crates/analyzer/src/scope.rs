//! Scope-aware structural layer over the token stream.
//!
//! The token lints (L001–L005) ask "does this token pattern appear"; the
//! concurrency/resource lints (L006–L009) need to ask *where*: is a lock
//! guard still live at this call, what is the declared width of this
//! operand, is this statement inside a daemon-resident loop. This module
//! builds that structure from the lexed tokens alone — no type checking,
//! no name resolution beyond lexical scoping — so every answer is
//! deliberately conservative: when a width or binding cannot be resolved,
//! the query returns `None` and the lint stays silent rather than guessing.
//!
//! Three layers:
//!
//! 1. a brace-matched **scope tree** ([`Scope`]) classifying each `{…}`
//!    as a `fn` body, a `loop`/`while` body, or a plain block;
//! 2. a **binding table** ([`Binding`]) of `let`-bound names and `fn`
//!    parameters, each tagged as a lock guard, an integer of known bit
//!    width, or opaque — with a live range ending at `drop(name)` or the
//!    end of the declaring scope;
//! 3. an **expression-width resolver** that walks a postfix chain (or a
//!    parenthesized group) backwards from a cast site, understanding
//!    literal suffixes, `uNN::from(…)`, `.len()`, width-preserving
//!    methods (`min`, `saturating_*`, …), and the two exactness idioms
//!    `(x >> K) as T` and `(x & MASK) as T`.

use crate::ctx::FileCtx;
use syn::TokenKind;

/// What kind of block a scope is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// A `fn` body.
    Fn,
    /// A `loop { … }` or `while … { … }` body — the daemon-resident
    /// shapes L009 polices. `for` bodies are plain blocks: their
    /// iteration count is bounded by the iterator they consume.
    Loop,
    /// Everything else (`if`, `match`, struct literals, free blocks).
    Block,
}

/// One brace-delimited scope; `open`/`close` index [`FileCtx::code`].
pub struct Scope {
    /// Block classification.
    pub kind: ScopeKind,
    /// Enclosing scope, if any.
    pub parent: Option<usize>,
    /// Code index of the `{`.
    pub open: usize,
    /// Code index of the matching `}`.
    pub close: usize,
    /// Function name for `Fn` scopes.
    pub fn_name: Option<String>,
}

/// What a tracked binding is known to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindKind {
    /// A mutex/rwlock guard (`let g = m.lock()…`, `lock(&m)`, or a
    /// `MutexGuard`-family type ascription).
    Guard,
    /// An unsigned integer of the given bit width (usize counts as 64).
    Int(u32),
    /// Anything else.
    Other,
}

/// A `let` binding or `fn` parameter.
pub struct Binding {
    /// Bound name.
    pub name: String,
    /// Index of the scope it lives in.
    pub scope: usize,
    /// Code index from which the binding is usable (the statement's `;`
    /// for lets, the body `{` for parameters).
    pub decl: usize,
    /// Classification.
    pub kind: BindKind,
    /// True for `fn` parameters (state reachable from outside the call —
    /// what L009 treats as daemon-resident).
    pub is_param: bool,
    /// Code index of an explicit `drop(name)`, ending the live range.
    pub drop_at: Option<usize>,
}

/// A named function and its body scope.
pub struct FnInfo {
    /// Function name (unqualified).
    pub name: String,
    /// Index of its body scope.
    pub scope: usize,
}

/// The assembled structure for one file.
pub struct ScopeTree {
    /// All scopes, in order of their opening brace.
    pub scopes: Vec<Scope>,
    /// All tracked bindings, in source order.
    pub bindings: Vec<Binding>,
    /// All named functions.
    pub fns: Vec<FnInfo>,
}

/// Bit width of a primitive unsigned integer type name.
pub fn prim_width(name: &str) -> Option<u32> {
    Some(match name {
        "u8" => 8,
        "u16" => 16,
        "u32" => 32,
        "u64" | "usize" => 64,
        "u128" => 128,
        _ => return None,
    })
}

/// Methods that return the same integer type as their receiver, so the
/// receiver's width carries through the call.
const SAME_WIDTH_METHODS: &[&str] = &[
    "max",
    "min",
    "clamp",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "rotate_left",
    "rotate_right",
    "swap_bytes",
    "reverse_bits",
    "to_be",
    "to_le",
    "pow",
];

/// Struct fields holding full 128-bit IPv6 addresses throughout the
/// workspace; a truncating cast on these is exactly the wrong-answer bug
/// L007 exists to catch.
const ADDR_FIELDS: &[&str] = &["src", "dst"];

/// Type names that mark a binding as a lock guard.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

impl ScopeTree {
    /// Builds the scope tree, parameter and `let` binding tables, and
    /// `drop()` live-range ends for one file.
    pub fn build(ctx: &FileCtx) -> ScopeTree {
        let mut tree = ScopeTree {
            scopes: Vec::new(),
            bindings: Vec::new(),
            fns: Vec::new(),
        };
        tree.build_scopes(ctx);
        tree.collect_fns();
        tree.collect_params(ctx);
        tree.collect_lets(ctx);
        tree.collect_drops(ctx);
        tree
    }

    fn build_scopes(&mut self, ctx: &FileCtx) {
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..ctx.code.len() {
            let t = ctx.ct(i);
            if t.is_punct('{') {
                let (kind, fn_name) = classify_brace(ctx, i);
                let idx = self.scopes.len();
                self.scopes.push(Scope {
                    kind,
                    parent: stack.last().copied(),
                    open: i,
                    close: ctx.code.len().saturating_sub(1),
                    fn_name,
                });
                stack.push(idx);
            } else if t.is_punct('}') {
                if let Some(idx) = stack.pop() {
                    self.scopes[idx].close = i;
                }
            }
        }
    }

    fn collect_fns(&mut self) {
        for (i, s) in self.scopes.iter().enumerate() {
            if s.kind == ScopeKind::Fn {
                if let Some(name) = &s.fn_name {
                    self.fns.push(FnInfo {
                        name: name.clone(),
                        scope: i,
                    });
                }
            }
        }
    }

    /// Innermost scope whose braces strictly contain code index `i`.
    pub fn scope_at(&self, i: usize) -> Option<usize> {
        self.scopes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.open < i && i < s.close)
            .max_by_key(|(_, s)| s.open)
            .map(|(idx, _)| idx)
    }

    /// Nearest enclosing `Fn` scope of code index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<usize> {
        let mut cur = self.scope_at(i);
        while let Some(s) = cur {
            if self.scopes[s].kind == ScopeKind::Fn {
                return Some(s);
            }
            cur = self.scopes[s].parent;
        }
        None
    }

    /// Nearest enclosing `Loop` scope of code index `i`, stopping at the
    /// first `Fn` boundary (a loop in an outer function does not make a
    /// nested closure's body loop-resident).
    pub fn enclosing_loop(&self, i: usize) -> Option<usize> {
        let mut cur = self.scope_at(i);
        while let Some(s) = cur {
            match self.scopes[s].kind {
                ScopeKind::Loop => return Some(s),
                ScopeKind::Fn => return None,
                ScopeKind::Block => cur = self.scopes[s].parent,
            }
        }
        None
    }

    /// Innermost binding of `name` visible at code index `at`.
    pub fn lookup(&self, name: &str, at: usize) -> Option<&Binding> {
        self.bindings
            .iter()
            .filter(|b| {
                b.name == name && b.decl < at && {
                    let s = &self.scopes[b.scope];
                    s.open <= b.decl && at < s.close
                }
            })
            .max_by_key(|b| b.decl)
    }

    /// Parses `fn` parameter lists into guard/int bindings scoped to the
    /// function body.
    fn collect_params(&mut self, ctx: &FileCtx) {
        let mut params = Vec::new();
        for f in &self.fns {
            let body = &self.scopes[f.scope];
            // Walk back from the body `{` to the `fn` keyword, then
            // forward over `name`, optional generics, and the `(…)` list.
            let Some(fn_kw) = find_back(ctx, body.open, "fn") else {
                continue;
            };
            let mut k = fn_kw + 2; // past `fn name`
            if k < ctx.code.len() && ctx.ct(k).is_punct('<') {
                let Some(close) = skip_angles(ctx, k) else {
                    continue;
                };
                k = close + 1;
            }
            if k >= ctx.code.len() || !ctx.ct(k).is_punct('(') {
                continue;
            }
            let Some(close) = ctx.match_delim(k, '(', ')') else {
                continue;
            };
            let mut seg_start = k + 1;
            let mut depth = 0i32;
            for j in k + 1..=close {
                let t = ctx.ct(j);
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(')')
                    || t.is_punct(']')
                    || t.is_punct('}')
                    || (t.is_punct('>') && !(j > 0 && ctx.ct(j - 1).is_punct('-')))
                {
                    depth -= 1;
                }
                if (t.is_punct(',') && depth == 0) || j == close {
                    if let Some(b) = parse_param(ctx, seg_start, j, f.scope, body.open) {
                        params.push(b);
                    }
                    seg_start = j + 1;
                }
            }
        }
        self.bindings.append(&mut params);
    }

    /// Records `let [mut] name [: ty] [= init];` bindings for plain
    /// identifier patterns (destructuring patterns are left untracked).
    fn collect_lets(&mut self, ctx: &FileCtx) {
        let mut i = 0;
        while i < ctx.code.len() {
            if !ctx.ct(i).is_ident("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if j < ctx.code.len() && ctx.ct(j).is_ident("mut") {
                j += 1;
            }
            let name_ok = j < ctx.code.len()
                && ctx.ct(j).kind == TokenKind::Ident
                && ctx.ct(j).text != "_"
                && !(j + 1 < ctx.code.len()
                    && (ctx.ct(j + 1).is_punct('(')
                        || ctx.ct(j + 1).is_punct('{')
                        || ctx.ct(j + 1).is_punct(':')
                            && j + 2 < ctx.code.len()
                            && ctx.ct(j + 2).is_punct(':')));
            if !name_ok {
                i += 1;
                continue;
            }
            let name = ctx.ct(j).text.clone();
            let mut k = j + 1;
            let mut ty: Option<(usize, usize)> = None;
            if k < ctx.code.len() && ctx.ct(k).is_punct(':') {
                let ty_lo = k + 1;
                k = skip_type(ctx, ty_lo);
                ty = Some((ty_lo, k));
            }
            let mut init: Option<(usize, usize)> = None;
            if k < ctx.code.len() && ctx.ct(k).is_punct('=') {
                let init_lo = k + 1;
                k = stmt_end(ctx, init_lo);
                init = Some((init_lo, k));
            }
            // `k` now indexes the terminating `;` (or the end of file).
            let decl = k.min(ctx.code.len().saturating_sub(1));
            let Some(scope) = self.scope_at(i) else {
                i = k + 1;
                continue;
            };
            let kind = self.classify_binding(ctx, ty, init);
            self.bindings.push(Binding {
                name,
                scope,
                decl,
                kind,
                is_param: false,
                drop_at: None,
            });
            i = k + 1;
        }
    }

    fn classify_binding(
        &self,
        ctx: &FileCtx,
        ty: Option<(usize, usize)>,
        init: Option<(usize, usize)>,
    ) -> BindKind {
        if let Some((lo, hi)) = ty {
            for k in lo..hi {
                if GUARD_TYPES.contains(&ctx.ct(k).text.as_str()) {
                    return BindKind::Guard;
                }
            }
            if let Some(w) = type_width(ctx, lo, hi) {
                return BindKind::Int(w);
            }
        }
        if let Some((lo, hi)) = init {
            // Only a `lock(…)` outside nested braces marks a guard: a
            // block initializer `let idx = { let g = lock(…); … }` binds
            // the block's value, not the guard.
            let mut braces = 0i32;
            for k in lo..hi {
                let t = ctx.ct(k);
                if t.is_punct('{') {
                    braces += 1;
                } else if t.is_punct('}') {
                    braces -= 1;
                } else if braces == 0
                    && (t.is_ident("lock") || t.is_ident("try_lock"))
                    && k + 1 < hi
                    && ctx.ct(k + 1).is_punct('(')
                {
                    return BindKind::Guard;
                }
            }
            if ty.is_none() {
                if let Some(w) = self.width_of_range(ctx, lo, hi) {
                    return BindKind::Int(w);
                }
            }
        }
        BindKind::Other
    }

    /// Ends guard live ranges at explicit `drop(name)` calls.
    fn collect_drops(&mut self, ctx: &FileCtx) {
        for i in 0..ctx.code.len().saturating_sub(3) {
            if ctx.ct(i).is_ident("drop")
                && ctx.ct(i + 1).is_punct('(')
                && ctx.ct(i + 2).kind == TokenKind::Ident
                && ctx.ct(i + 3).is_punct(')')
            {
                let name = ctx.ct(i + 2).text.clone();
                let target = self
                    .bindings
                    .iter_mut()
                    .filter(|b| b.name == name && b.decl < i && b.drop_at.is_none())
                    .max_by_key(|b| b.decl);
                if let Some(b) = target {
                    b.drop_at = Some(i);
                }
            }
        }
    }

    /// Bit width of the expression spanning code indices `[lo, hi)`, or
    /// `None` when it cannot be proven. For `x >> K` and `x & MASK`
    /// forms the result is the number of bits the *value* can occupy,
    /// which is what cast-exactness needs.
    pub fn width_of_range(&self, ctx: &FileCtx, mut lo: usize, hi: usize) -> Option<u32> {
        while lo < hi && (ctx.ct(lo).is_punct('&') || ctx.ct(lo).is_ident("mut")) {
            // Leading `&`/`&mut` borrow — width of the referent. But an
            // `&` that is a binary mask is handled below, so only strip
            // when the next token starts a chain.
            if ctx.ct(lo).is_punct('&') && lo + 1 < hi && ctx.ct(lo + 1).is_punct('&') {
                return None; // `&&` logical — boolean expression
            }
            lo += 1;
        }
        if lo >= hi {
            return None;
        }
        // A trailing top-level `as TYPE` fixes the width outright.
        let mut depth = 0i32;
        let mut last_as: Option<usize> = None;
        for k in lo..hi {
            let t = ctx.ct(k);
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_ident("as") {
                last_as = Some(k);
            }
        }
        if let Some(a) = last_as {
            if a + 1 < hi {
                return prim_width(&ctx.ct(a + 1).text);
            }
        }
        // Comparison / boolean operators at top level mean the value is
        // a bool, not an integer — refuse to guess.
        if has_top_level_bool_op(ctx, lo, hi) {
            return None;
        }
        // `expr & LITERAL` — the literal mask bounds the value bits
        // regardless of the operand's type width.
        if let Some(bits) = top_level_mask_bits(ctx, lo, hi) {
            return Some(bits);
        }
        // `expr >> LITERAL` — the shift discards that many high bits.
        if let Some((pos, k_shift)) = top_level_shift_right(ctx, lo, hi) {
            let lhs = self.width_of_range(ctx, lo, pos)?;
            return Some(lhs.saturating_sub(k_shift).max(1));
        }
        // Split on remaining top-level arithmetic; same-type operands
        // mean any resolvable segment names the width.
        let mut best: Option<u32> = None;
        let mut depth = 0i32;
        let mut seg_start = lo;
        let mut k = lo;
        while k <= hi {
            let at_end = k == hi;
            let is_split = !at_end && depth == 0 && is_arith_punct(ctx, k, lo);
            if at_end || is_split {
                if seg_start < k {
                    if let Some(w) = self.width_of_chain(ctx, k - 1) {
                        best = Some(best.map_or(w, |b: u32| b.max(w)));
                    }
                }
                seg_start = k + 1;
                if at_end {
                    break;
                }
                k += 1;
                continue;
            }
            let t = ctx.ct(k);
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            }
            k += 1;
        }
        best
    }

    /// Bit width of the postfix chain *ending* at code index `end`.
    pub fn width_of_chain(&self, ctx: &FileCtx, end: usize) -> Option<u32> {
        let t = ctx.ct(end);
        match t.kind {
            TokenKind::Number => number_suffix_width(&t.text),
            TokenKind::Ident => {
                if end > 0 && ctx.ct(end - 1).is_punct('.') {
                    // Field access: only the address fields are known.
                    return ADDR_FIELDS.contains(&t.text.as_str()).then_some(128);
                }
                if (t.is_ident("MAX") || t.is_ident("MIN"))
                    && end >= 3
                    && ctx.ct(end - 1).is_punct(':')
                    && ctx.ct(end - 2).is_punct(':')
                {
                    return prim_width(&ctx.ct(end - 3).text);
                }
                match self.lookup(&t.text, end)?.kind {
                    BindKind::Int(w) => Some(w),
                    _ => None,
                }
            }
            TokenKind::Punct if t.is_punct(')') => {
                let open = rmatch_delim(ctx, end, '(', ')')?;
                if open == 0 {
                    return self.width_of_range(ctx, open + 1, end);
                }
                let before = ctx.ct(open - 1);
                if before.kind == TokenKind::Ident {
                    if open >= 2 && ctx.ct(open - 2).is_punct('.') {
                        // Method call.
                        if before.is_ident("len") || before.is_ident("count") {
                            return Some(64);
                        }
                        if SAME_WIDTH_METHODS.contains(&before.text.as_str()) && open >= 3 {
                            return self.width_of_chain(ctx, open - 3);
                        }
                        return None;
                    }
                    if before.is_ident("from")
                        && open >= 4
                        && ctx.ct(open - 2).is_punct(':')
                        && ctx.ct(open - 3).is_punct(':')
                    {
                        return prim_width(&ctx.ct(open - 4).text);
                    }
                    return None; // plain function call — unknown
                }
                // Grouping parentheses.
                self.width_of_range(ctx, open + 1, end)
            }
            _ => None,
        }
    }
}

/// Classifies the `{` at code index `i` by walking its header backwards
/// to the previous statement boundary.
fn classify_brace(ctx: &FileCtx, i: usize) -> (ScopeKind, Option<String>) {
    let mut hdr: Vec<usize> = Vec::new(); // reversed (closest token first)
    let mut k = i;
    let mut steps = 0;
    while k > 0 && steps < 96 {
        k -= 1;
        steps += 1;
        let t = ctx.ct(k);
        if t.is_punct(')') || t.is_punct(']') {
            let (o, c) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            match rmatch_delim(ctx, k, o, c) {
                Some(open) => {
                    hdr.push(k);
                    hdr.push(open);
                    k = open;
                    continue;
                }
                None => break,
            }
        }
        // `,` is deliberately not a boundary: it appears inside return
        // types (`-> Result<A, B> {`), and fn detection must see past it.
        if t.is_punct(';')
            || t.is_punct('{')
            || t.is_punct('}')
            || t.is_punct('(')
            || t.is_punct('[')
        {
            break;
        }
        hdr.push(k);
    }
    // `fn NAME` anywhere in the header wins.
    for w in (0..hdr.len()).rev() {
        if ctx.ct(hdr[w]).is_ident("fn") && w > 0 {
            let name_tok = ctx.ct(hdr[w - 1]);
            if name_tok.kind == TokenKind::Ident {
                return (ScopeKind::Fn, Some(name_tok.text.clone()));
            }
        }
    }
    let has = |kw: &str| hdr.iter().any(|&h| ctx.ct(h).is_ident(kw));
    let item = ["impl", "struct", "enum", "trait", "mod", "union", "match"]
        .iter()
        .any(|kw| has(kw));
    if !item && (has("loop") || has("while")) {
        return (ScopeKind::Loop, None);
    }
    (ScopeKind::Block, None)
}

/// Backwards delimiter match: code index of the `open` matching the
/// `close` at `close_idx`.
pub fn rmatch_delim(ctx: &FileCtx, close_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close_idx + 1;
    while k > 0 {
        k -= 1;
        let t = ctx.ct(k);
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Nearest preceding code index bearing the given keyword.
fn find_back(ctx: &FileCtx, from: usize, kw: &str) -> Option<usize> {
    (0..from).rev().take(96).find(|&k| ctx.ct(k).is_ident(kw))
}

/// Given the code index of a `<`, returns the index of its matching `>`
/// (angle-depth aware, skipping `->` arrows).
fn skip_angles(ctx: &FileCtx, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in open..ctx.code.len() {
        let t = ctx.ct(k);
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && ctx.ct(k - 1).is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Advances past a type (after `let name:`) to the `=` or `;` ending it.
fn skip_type(ctx: &FileCtx, lo: usize) -> usize {
    let mut depth = 0i32;
    let mut k = lo;
    while k < ctx.code.len() {
        let t = ctx.ct(k);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')')
            || t.is_punct(']')
            || (t.is_punct('>') && !(k > 0 && ctx.ct(k - 1).is_punct('-')))
        {
            depth -= 1;
        } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
            return k;
        }
        k += 1;
    }
    k
}

/// Advances past an initializer expression to its terminating `;` at
/// delimiter depth zero.
fn stmt_end(ctx: &FileCtx, lo: usize) -> usize {
    let mut depth = 0i32;
    let mut k = lo;
    while k < ctx.code.len() {
        let t = ctx.ct(k);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            return k;
        }
        k += 1;
    }
    k
}

/// Width from a single-primitive type ascription (ignoring `&`/`mut`).
fn type_width(ctx: &FileCtx, lo: usize, hi: usize) -> Option<u32> {
    let mut width = None;
    for k in lo..hi {
        let t = ctx.ct(k);
        if t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime {
            continue;
        }
        if t.kind == TokenKind::Ident {
            if width.is_some() {
                return None; // compound type — don't guess
            }
            width = Some(prim_width(&t.text)?);
        } else {
            return None;
        }
    }
    width
}

/// Width from a numeric literal's suffix (`42u64`, `0xffffu32`); `None`
/// for unsuffixed or signed/float literals.
fn number_suffix_width(text: &str) -> Option<u32> {
    for (suffix, w) in [
        ("u128", 128),
        ("usize", 64),
        ("u64", 64),
        ("u32", 32),
        ("u16", 16),
        ("u8", 8),
    ] {
        if text.ends_with(suffix) {
            return Some(w);
        }
    }
    None
}

/// Value of a numeric literal (decimal, hex, octal, binary, with `_`
/// separators and an optional width suffix).
fn number_value(text: &str) -> Option<u128> {
    let t = text.replace('_', "");
    // A type suffix, if present, starts at the first non-digit character
    // past the radix prefix and is dropped below.
    let (radix, digits) = if let Some(h) = t.strip_prefix("0x") {
        (16, h)
    } else if let Some(o) = t.strip_prefix("0o") {
        (8, o)
    } else if let Some(b) = t.strip_prefix("0b") {
        (2, b)
    } else {
        (10, t.as_str())
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    u128::from_str_radix(&digits[..end], radix).ok()
}

/// Bits needed to represent `v` (0 needs 1 bit for our purposes).
fn bits_of(v: u128) -> u32 {
    (128 - v.leading_zeros()).max(1)
}

/// Is the code token at `k` a top-level arithmetic operator (split point
/// for width resolution)? Excludes a leading unary `-`/`&`.
fn is_arith_punct(ctx: &FileCtx, k: usize, lo: usize) -> bool {
    let t = ctx.ct(k);
    if k == lo {
        return false; // unary position
    }
    ['+', '-', '*', '/', '%', '|', '^', '&']
        .iter()
        .any(|&c| t.is_punct(c))
}

/// Any comparison / boolean operator at delimiter depth zero?
fn has_top_level_bool_op(ctx: &FileCtx, lo: usize, hi: usize) -> bool {
    let mut depth = 0i32;
    for k in lo..hi {
        let t = ctx.ct(k);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 {
            let next = (k + 1 < hi).then(|| ctx.ct(k + 1));
            let prev = (k > lo).then(|| ctx.ct(k - 1));
            let double = |c: char| {
                next.is_some_and(|n| n.is_punct(c)) || prev.is_some_and(|p| p.is_punct(c))
            };
            if t.is_punct('=') && double('=') {
                return true;
            }
            if t.is_punct('&') && double('&') {
                return true;
            }
            if t.is_punct('|') && double('|') {
                return true;
            }
            if t.is_punct('!') && next.is_some_and(|n| n.is_punct('=')) {
                return true;
            }
            // Single `<`/`>` (not shifts `<<`/`>>`, arrows, or turbofish)
            // are comparisons.
            if t.is_punct('<') && !double('<') && !prev.is_some_and(|p| p.is_punct(':')) {
                return true;
            }
            if t.is_punct('>')
                && !double('>')
                && !prev.is_some_and(|p| p.is_punct('-') || p.is_punct('='))
            {
                return true;
            }
        }
    }
    false
}

/// For a top-level `expr & LITERAL` (or `LITERAL & expr`): the bit count
/// of the literal mask.
fn top_level_mask_bits(ctx: &FileCtx, lo: usize, hi: usize) -> Option<u32> {
    let mut depth = 0i32;
    for k in lo..hi {
        let t = ctx.ct(k);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('&') && k > lo {
            let lhs_lit = (k > lo && ctx.ct(k - 1).kind == TokenKind::Number)
                .then(|| number_value(&ctx.ct(k - 1).text))
                .flatten();
            let rhs_lit = (k + 1 < hi && ctx.ct(k + 1).kind == TokenKind::Number)
                .then(|| number_value(&ctx.ct(k + 1).text))
                .flatten();
            if let Some(v) = rhs_lit.or(lhs_lit) {
                return Some(bits_of(v));
            }
        }
    }
    None
}

/// For a top-level `expr >> LITERAL`: (index of the first `>`, shift
/// amount).
fn top_level_shift_right(ctx: &FileCtx, lo: usize, hi: usize) -> Option<(usize, u32)> {
    let mut depth = 0i32;
    for k in lo..hi.saturating_sub(2) {
        let t = ctx.ct(k);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0
            && t.is_punct('>')
            && ctx.ct(k + 1).is_punct('>')
            && ctx.ct(k + 2).kind == TokenKind::Number
        {
            let amount = number_value(&ctx.ct(k + 2).text)?;
            return Some((k, u32::try_from(amount).ok()?));
        }
    }
    None
}

/// Parses one `fn` parameter segment (`[mut] name: Type`) into a binding.
fn parse_param(
    ctx: &FileCtx,
    mut lo: usize,
    hi: usize,
    scope: usize,
    decl: usize,
) -> Option<Binding> {
    while lo < hi
        && (ctx.ct(lo).is_punct('&')
            || ctx.ct(lo).is_ident("mut")
            || ctx.ct(lo).kind == TokenKind::Lifetime)
    {
        lo += 1;
    }
    if lo >= hi || ctx.ct(lo).kind != TokenKind::Ident || ctx.ct(lo).is_ident("self") {
        return None;
    }
    let name = ctx.ct(lo).text.clone();
    if lo + 1 >= hi || !ctx.ct(lo + 1).is_punct(':') {
        return None;
    }
    let (ty_lo, ty_hi) = (lo + 2, hi);
    let mut kind = BindKind::Other;
    for k in ty_lo..ty_hi {
        if GUARD_TYPES.contains(&ctx.ct(k).text.as_str()) {
            kind = BindKind::Guard;
            break;
        }
    }
    if kind == BindKind::Other {
        if let Some(w) = type_width(ctx, ty_lo, ty_hi) {
            kind = BindKind::Int(w);
        }
    }
    Some(Binding {
        name,
        scope,
        decl,
        kind,
        is_param: true,
        drop_at: None,
    })
}

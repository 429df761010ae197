//! The rule pipeline: four project-invariant checks over the token
//! stream of one file. Rules are lexical approximations — they know
//! nothing about types — tuned to this codebase's idioms; each is
//! path-scoped so the approximation only has to hold where the
//! invariant matters.

use crate::config::LockOrderConfig;
use crate::lexer::{TokKind, Token};
use crate::{Finding, SourceFile};

/// Keywords that can directly precede a `[` without forming an index
/// expression (`let [a] = …`, `match x { … }`, `return [1]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "match", "if", "else", "return", "in", "for", "while", "loop", "move",
    "as", "dyn", "impl", "where", "pub", "use", "static", "const", "fn", "enum", "struct", "type",
    "break", "continue", "unsafe", "async", "await", "box", "yield",
];

/// Methods that acquire a lock guard on their receiver.
const ACQUIRE_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "lock_recovered",
    "read_recovered",
    "write_recovered",
];

fn in_panic_scope(rel: &str) -> bool {
    rel.starts_with("crates/memdb/src/store/")
        || rel == "crates/memdb/src/catalog.rs"
        || rel == "crates/core/src/service.rs"
}

fn in_lock_scope(rel: &str) -> bool {
    in_panic_scope(rel)
}

fn in_wallclock_scope(rel: &str) -> bool {
    // Engine and database time themselves on the injected obs clock.
    rel.starts_with("crates/memdb/src/")
        || rel.starts_with("crates/core/src/")
        // The soak harness's workload decisions must replay
        // byte-identically from the seed: wall clock is confined to the
        // latency-measurement shim, everything else runs on virtual
        // time.
        || (rel.starts_with("crates/bench/src/soak/") && rel != "crates/bench/src/soak/shim.rs")
        || rel == "crates/bench/src/bin/soak.rs"
        // All observability timing flows through the Clock trait so
        // the soak can inject virtual time; the monotonic production
        // shim is the single file allowed to touch the real clock.
        || (rel.starts_with("crates/obs/src/") && rel != "crates/obs/src/clock.rs")
}

fn in_fsync_scope(rel: &str) -> bool {
    rel.starts_with("crates/memdb/src/store/")
}

/// `panic-free-io`: no `unwrap`/`expect`, no panicking macros, no
/// `[i]`-index/slice expressions in non-test code of the durable layer
/// and the service.
pub fn panic_free_io(f: &SourceFile) -> Vec<Finding> {
    if !in_panic_scope(&f.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        match t.kind {
            // Method call `.unwrap(` — `unwrap_or_else` etc. are
            // different idents and intentionally not flagged.
            TokKind::Ident
                if matches!(t.text.as_str(), "unwrap" | "expect")
                    && next_is('(')
                    && prev.is_some_and(|p| p.is_punct('.')) =>
            {
                out.push(finding(
                    "panic-free-io",
                    f,
                    t.line,
                    format!(
                        ".{}() can panic — propagate a typed DbError instead",
                        t.text
                    ),
                ));
            }
            TokKind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && next_is('!') =>
            {
                out.push(finding(
                    "panic-free-io",
                    f,
                    t.line,
                    format!("{}! is banned here — return a typed DbError", t.text),
                ));
            }
            TokKind::Punct if t.text == "[" => {
                let Some(p) = prev else { continue };
                let is_index_base = match p.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                    TokKind::Punct => matches!(p.text.as_str(), ")" | "]" | "?"),
                    _ => false,
                };
                if !is_index_base {
                    continue;
                }
                // `&buf[..]` (full-range) cannot panic — skip when the
                // bracket content is exactly `..`.
                if let Some(close) = crate::matching_bracket(toks, i) {
                    let inner = &toks[i + 1..close];
                    let full_range = inner.len() == 2 && inner.iter().all(|t| t.is_punct('.'));
                    if full_range {
                        continue;
                    }
                }
                out.push(finding(
                    "panic-free-io",
                    f,
                    t.line,
                    "index/slice expression can panic — use .get()/.get_mut() and handle None"
                        .into(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// State of one held lock during the lexical walk of a function body.
struct Held {
    name: String,
    rank: u32,
    /// Brace depth at acquisition (body opens at depth 1).
    depth: i32,
    /// `Some(binding)` for `let guard = …;` (held to end of block or
    /// `drop(binding)`), `None` for statement temporaries (held to the
    /// `;` that ends the statement at `depth`).
    binding: Option<String>,
}

/// `lock-order`: per function body, lock-acquisition nesting must
/// strictly increase in declared rank, and functions on a lock's
/// forbid-list must not be called while it is held.
pub fn lock_order(f: &SourceFile, cfg: &LockOrderConfig) -> Vec<Finding> {
    if !in_lock_scope(&f.rel) || cfg.ranks.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &f.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") && !f.in_test[i] {
            if let Some((body_open, body_close)) = fn_body(toks, i) {
                walk_body(f, cfg, body_open, body_close, &mut out);
                i = body_open + 1; // nested fns get their own walk
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Locate the body `{ … }` of the fn whose `fn` keyword is at `at`.
/// Returns `None` for body-less declarations (trait methods).
fn fn_body(toks: &[Token], at: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = at + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => {
                    return crate::matching_brace(toks, j).map(|close| (j, close));
                }
                ";" if paren == 0 && bracket == 0 => return None,
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Walk one function body tracking held locks.
fn walk_body(
    f: &SourceFile,
    cfg: &LockOrderConfig,
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
) {
    let toks = &f.tokens;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                }
                ";" => held.retain(|h| !(h.binding.is_none() && h.depth == depth)),
                _ => {}
            }
            i += 1;
            continue;
        }
        // Explicit release: drop(guard).
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    held.retain(|h| h.binding.as_deref() != Some(arg.text.as_str()));
                }
            }
            i += 4;
            continue;
        }
        // Lock acquisition?
        if let Some(lock_name) = acquisition_at(toks, i, cfg) {
            let rank = cfg.ranks[&lock_name];
            for h in &held {
                if rank <= h.rank {
                    let msg = if h.name == lock_name {
                        format!("re-entrant acquisition of lock `{lock_name}` (already held)")
                    } else {
                        format!(
                            "lock-order inversion: acquiring `{lock_name}` (rank {rank}) while \
                             holding `{}` (rank {}) — declared order is lower rank first",
                            h.name, h.rank
                        )
                    };
                    out.push(finding("lock-order", f, t.line, msg));
                }
            }
            let binding = guard_binding(toks, i);
            held.push(Held {
                name: lock_name,
                rank,
                depth,
                binding,
            });
            i += 1;
            continue;
        }
        // Forbidden call while a lock is held?
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            for h in &held {
                if let Some(forbidden) = cfg.forbid_while_held.get(&h.name) {
                    if forbidden.iter().any(|c| c == &t.text) {
                        out.push(finding(
                            "lock-order",
                            f,
                            t.line,
                            format!(
                                "`{}` called while lock `{}` is held — this lock must not be \
                                 held across plan execution",
                                t.text, h.name
                            ),
                        ));
                    }
                }
            }
        }
        i += 1;
    }
}

/// If the token at `i` is the method ident of a lock acquisition
/// (`<lock>.lock()`, `<lock>.read_recovered()`, …) or a configured
/// acquire-fn call, return the lock's configured name.
fn acquisition_at(toks: &[Token], i: usize, cfg: &LockOrderConfig) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    if let Some(lock) = cfg.acquire_fns.get(&t.text) {
        return Some(lock.clone());
    }
    if !ACQUIRE_METHODS.contains(&t.text.as_str()) {
        return None;
    }
    // Receiver chain: `… . <recv> . <method> (` — the ident two back.
    if !i.checked_sub(1).is_some_and(|j| toks[j].is_punct('.')) {
        return None;
    }
    let recv = i.checked_sub(2).map(|j| &toks[j])?;
    if recv.kind == TokKind::Ident && cfg.ranks.contains_key(&recv.text) {
        return Some(recv.text.clone());
    }
    None
}

/// Classify the guard produced by the acquisition whose method ident is
/// at `i`: `Some(binding)` when the statement is exactly
/// `let [mut] <binding> = <chain>.<acquire>();` (guard lives to end of
/// block), `None` otherwise (statement temporary).
fn guard_binding(toks: &[Token], i: usize) -> Option<String> {
    // The call's `(` is at i+1; the guard is let-bound only when the
    // matching `)` is immediately followed by `;`.
    let close = matching_paren(toks, i + 1)?;
    if !toks.get(close + 1).is_some_and(|n| n.is_punct(';')) {
        return None;
    }
    // Walk back over the receiver chain (`ident` / `.` / `self`) to the
    // statement head, expecting `let [mut] <ident> =`.
    let mut j = i;
    while j >= 1 {
        let p = &toks[j - 1];
        if p.is_punct('.') || p.kind == TokKind::Ident && j >= 2 && toks[j - 2].is_punct('.') {
            j -= 1;
            continue;
        }
        if p.kind == TokKind::Ident {
            // chain head like `self` or a local; one more step back.
            j -= 1;
            continue;
        }
        break;
    }
    // toks[j-1] should be `=`, toks[j-2] the binding ident.
    if j >= 2 && toks[j - 1].is_punct('=') && toks[j - 2].kind == TokKind::Ident {
        let name = toks[j - 2].text.clone();
        let head = j.checked_sub(3).map(|k| &toks[k]);
        let head2 = j.checked_sub(4).map(|k| &toks[k]);
        let is_let = head.is_some_and(|h| h.is_ident("let"))
            || (head.is_some_and(|h| h.is_ident("mut"))
                && head2.is_some_and(|h| h.is_ident("let")));
        if is_let {
            return Some(name);
        }
    }
    None
}

fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `no-wallclock-in-plan`: the database and engine crates (plan,
/// fingerprint, on-disk format, executor, pipeline) must not read wall
/// clocks — fingerprints and encodings have to be deterministic across
/// runs and machines, and timings come from the injected clock.
pub fn no_wallclock_in_plan(f: &SourceFile) -> Vec<Finding> {
    if !in_wallclock_scope(&f.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in f.tokens.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "Instant" | "SystemTime") {
            out.push(finding(
                "no-wallclock-in-plan",
                f,
                t.line,
                format!(
                    "{} in engine/plan/format code — outputs must be deterministic, \
                     derive ordering from versions or logical ticks and time from the \
                     injected clock",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `metrics-naming`: every metric name passed as a string literal to a
/// registry `register_*` call must be dotted lower-snake
/// (`^[a-z0-9_.]+$`) — the JSON telemetry surface stays grep-able and
/// collision-free by convention. Applies workspace-wide (any crate may
/// register metrics); dynamically built names are invisible to this
/// lexical check and are left to `seedb_obs::is_valid_name` at runtime.
pub fn metrics_naming(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if f.in_test[i]
            || t.kind != TokKind::Ident
            || !matches!(
                t.text.as_str(),
                "register_counter" | "register_gauge" | "register_histogram"
            )
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else { continue };
        if arg.kind != TokKind::StrLit {
            continue;
        }
        let ok = !arg.text.is_empty()
            && arg
                .text
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.');
        if !ok {
            out.push(finding(
                "metrics-naming",
                f,
                arg.line,
                format!(
                    "metric name {:?} does not match ^[a-z0-9_.]+$ — use dotted \
                     lower-snake names like `service.cache.hits`",
                    arg.text
                ),
            ));
        }
    }
    out
}

/// `fsync-before-rename`: a rename-publish without a preceding
/// `sync_all`/`sync_data` in the same function can publish a file whose
/// contents are not yet durable.
pub fn fsync_before_rename(f: &SourceFile) -> Vec<Finding> {
    if !in_fsync_scope(&f.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &f.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") && !f.in_test[i] {
            if let Some((open, close)) = fn_body(toks, i) {
                let mut synced = false;
                for j in open..=close {
                    let t = &toks[j];
                    if t.kind != TokKind::Ident || !toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                    {
                        continue;
                    }
                    match t.text.as_str() {
                        "sync_all" | "sync_data" => synced = true,
                        "rename" if !synced => out.push(finding(
                            "fsync-before-rename",
                            f,
                            t.line,
                            "rename without a preceding sync_all/sync_data in this function — \
                             the published file may not be durable"
                                .into(),
                        )),
                        _ => {}
                    }
                }
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn finding(rule: &'static str, f: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: f.rel.clone(),
        line,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    const STORE: &str = "crates/memdb/src/store/x.rs";

    fn run_panic(src: &str) -> Vec<Finding> {
        panic_free_io(&SourceFile::parse(STORE, src))
    }

    #[test]
    fn unwrap_and_expect_fire_outside_tests_only() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); }\n#[cfg(test)]\nmod tests { fn t() { c.unwrap(); } }\n";
        let got = run_panic(src);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        assert!(run_panic("fn f() { a.unwrap_or_else(|| 0); a.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn panic_macros_fire() {
        let got = run_panic("fn f() { panic!(\"x\"); unreachable!(); }");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn indexing_fires_but_patterns_and_types_do_not() {
        // Index expressions: flagged.
        assert_eq!(run_panic("fn f(v: Vec<u8>) { v[0]; }").len(), 1);
        assert_eq!(run_panic("fn f() { foo()[1]; }").len(), 1);
        assert_eq!(run_panic("fn f() { x?[1]; }").len(), 1);
        // Slice with a range: flagged (can panic).
        assert_eq!(run_panic("fn f(v: &[u8]) { &v[1..3]; }").len(), 1);
        // Full-range slice: cannot panic.
        assert!(run_panic("fn f(v: &[u8]) { &v[..]; }").is_empty());
        // Patterns, types, attributes, macros: not index expressions.
        assert!(run_panic("fn f() { let [a] = pair; }").is_empty());
        assert!(run_panic("fn f(x: [u8; 4]) {}").is_empty());
        assert!(run_panic("#[derive(Debug)]\nstruct S;").is_empty());
        assert!(run_panic("fn f() { vec![1, 2]; }").is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let f = SourceFile::parse("crates/viz/src/lib.rs", "fn f() { a.unwrap(); }");
        assert!(panic_free_io(&f).is_empty());
    }

    fn run_lock(src: &str) -> Vec<Finding> {
        lock_order(
            &SourceFile::parse("crates/memdb/src/catalog.rs", src),
            &LockOrderConfig::default_declared(),
        )
    }

    #[test]
    fn correct_nesting_is_clean() {
        let src = "fn f(&self) {\n  let _m = self.mutate_lock.lock_recovered();\n  let t = self.tables.read_recovered();\n  let d = self.durability.lock_recovered();\n}\n";
        assert!(run_lock(src).is_empty());
    }

    #[test]
    fn inversion_fires() {
        let src = "fn f(&self) {\n  let d = self.durability.lock_recovered();\n  let t = self.tables.read_recovered();\n}\n";
        let got = run_lock(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("inversion"), "{}", got[0].message);
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn reentrancy_fires() {
        let src = "fn f(&self) {\n  let a = self.tables.read_recovered();\n  let b = self.tables.read_recovered();\n}\n";
        let got = run_lock(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("re-entrant"));
    }

    #[test]
    fn drop_releases_named_guard() {
        let src = "fn f(&self) {\n  let d = self.durability.lock_recovered();\n  drop(d);\n  let t = self.tables.read_recovered();\n}\n";
        assert!(run_lock(src).is_empty());
    }

    #[test]
    fn block_scope_releases_named_guard() {
        let src = "fn f(&self) {\n  { let d = self.durability.lock_recovered(); }\n  let t = self.tables.read_recovered();\n}\n";
        assert!(run_lock(src).is_empty());
    }

    #[test]
    fn statement_temporary_releases_at_semicolon() {
        // The guard in `self.durability.lock_recovered().probe()` dies
        // at the `;`, so the later tables read is fine.
        let src = "fn f(&self) {\n  self.durability.lock_recovered().probe();\n  let t = self.tables.read_recovered();\n}\n";
        assert!(run_lock(src).is_empty());
    }

    #[test]
    fn let_bound_call_result_is_still_a_temporary() {
        // `let evicted = cache.lock_recovered().insert(..);` binds the
        // insert result, not the guard — the guard dies at the `;`.
        let src = "fn f(&self) {\n  let evicted = self.cache.lock_recovered().insert(1);\n  let t = self.pending.lock_recovered();\n}\n";
        assert!(run_lock(src).is_empty());
    }

    #[test]
    fn forbidden_call_under_cache_lock_fires() {
        let src = "fn f(&self) {\n  let c = self.cache.lock_recovered();\n  execute(plan);\n}\n";
        let got = run_lock(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("execute"));
    }

    #[test]
    fn acquire_fn_maps_to_its_lock() {
        let src = "fn f(&self) {\n  let s = self.lock_state(b);\n  let t = self.tables.read_recovered();\n}\n";
        let got = run_lock(src);
        assert_eq!(got.len(), 1, "state (60) then tables (20) inverts: {got:?}");
    }

    #[test]
    fn wallclock_fires_in_plan_scope_only() {
        let f = SourceFile::parse("crates/memdb/src/plan.rs", "use std::time::Instant;\n");
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        // The whole engine and database are in scope, kernel included.
        let f = SourceFile::parse("crates/memdb/src/exec/mod.rs", "use std::time::Instant;\n");
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        let f = SourceFile::parse("crates/core/src/engine.rs", "let t = Instant::now();\n");
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        // Crates outside the engine, such as dataset generators, are not.
        let f = SourceFile::parse("crates/data/src/synthetic.rs", "use std::time::Instant;\n");
        assert!(no_wallclock_in_plan(&f).is_empty());
        // Soak workload code may not read wall clocks — except the
        // latency shim, which exists to hold that single exemption.
        let f = SourceFile::parse(
            "crates/bench/src/soak/driver.rs",
            "use std::time::Instant;\n",
        );
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        let f = SourceFile::parse(
            "crates/bench/src/bin/soak.rs",
            "let t = SystemTime::now();\n",
        );
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        let f = SourceFile::parse("crates/bench/src/soak/shim.rs", "use std::time::Instant;\n");
        assert!(no_wallclock_in_plan(&f).is_empty());
    }

    #[test]
    fn wallclock_fires_in_obs_except_the_clock_shim() {
        let f = SourceFile::parse("crates/obs/src/trace.rs", "use std::time::Instant;\n");
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        // The telemetry pipeline (sampler windows, watchdog rules,
        // flight-recorder dumps) must tick on the injected Clock only —
        // a wall read there would make sampled windows and dump bytes
        // non-replayable under the soak's virtual clock.
        let f = SourceFile::parse(
            "crates/obs/src/timeseries.rs",
            "fn tick() { let t = Instant::now(); }\n",
        );
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        let f = SourceFile::parse(
            "crates/obs/src/watchdog.rs",
            "fn stamp() { let t = SystemTime::now(); }\n",
        );
        assert_eq!(no_wallclock_in_plan(&f).len(), 1);
        let f = SourceFile::parse("crates/obs/src/clock.rs", "use std::time::Instant;\n");
        assert!(no_wallclock_in_plan(&f).is_empty());
    }

    #[test]
    fn metric_names_must_be_dotted_lower_snake() {
        let run = |src: &str| metrics_naming(&SourceFile::parse("crates/any/src/x.rs", src));
        assert!(run("fn f() { r.register_counter(\"a.b_c.d1\"); }").is_empty());
        assert_eq!(run("fn f() { r.register_counter(\"A.b\"); }").len(), 1);
        assert_eq!(run("fn f() { r.register_gauge(\"a-b\"); }").len(), 1);
        assert_eq!(run("fn f() { r.register_histogram(\"a b\"); }").len(), 1);
        assert_eq!(run("fn f() { r.register_counter(\"\"); }").len(), 1);
        // Non-literal arguments are out of lexical reach.
        assert!(run("fn f() { r.register_counter(name); }").is_empty());
        // Unrelated calls with string args are not metric names.
        assert!(run("fn f() { r.register(\"NOT A METRIC\"); }").is_empty());
        // The telemetry pipeline's own instruments follow the same
        // convention (these are the literal names the service
        // registers).
        assert!(run("fn f() { r.register_counter(\"telemetry.windows\"); \
             r.register_counter(\"telemetry.breaches\"); \
             r.register_counter(\"telemetry.dumps\"); }")
        .is_empty());
        assert_eq!(
            run("fn f() { r.register_counter(\"telemetry.Dumps\"); }").len(),
            1
        );
    }

    #[test]
    fn rename_without_sync_fires_with_sync_clean() {
        let bad = SourceFile::parse(STORE, "fn publish(p: &Path) { fs::rename(a, b); }\n");
        assert_eq!(fsync_before_rename(&bad).len(), 1);
        let good = SourceFile::parse(
            STORE,
            "fn publish(f: &File) { f.sync_all(); fs::rename(a, b); }\n",
        );
        assert!(fsync_before_rename(&good).is_empty());
    }
}

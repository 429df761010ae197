//! `seedb-lint` — a project-invariant static analyzer for the SeeDB
//! workspace.
//!
//! PRs 4–5 made the engine's correctness rest on conventions (typed
//! `DbError` instead of panics in the durable layer, a fixed lock
//! acquisition order, fsync-before-rename publish, wall-clock-free plan
//! fingerprints). This crate machine-checks those conventions on every
//! PR: a hand-written lexer ([`lexer`]) feeds an ordered rule pipeline
//! ([`rules`]) over the workspace sources, mirroring the pass-pipeline
//! shape the optimizer wants.
//!
//! Rules (see the README's "Static analysis & invariants"):
//!
//! * `panic-free-io` — no `unwrap`/`expect`/`panic!`-family macros or
//!   `[i]`-indexing in non-test `memdb::store`, `memdb::catalog`,
//!   `core::service` code;
//! * `lock-order` — lock nesting per function must follow the declared
//!   partial order (`crates/lint/lock-order.toml`), and the service
//!   cache lock is never held across plan execution;
//! * `no-wallclock-in-plan` — `Instant`/`SystemTime` are banned from
//!   `crates/memdb/src` and `crates/core/src` (fingerprints must be
//!   deterministic; timings come from the injected clock);
//! * `fsync-before-rename` — every rename-publish in the store is
//!   preceded by `sync_all`/`sync_data` in the same function;
//! * `metrics-naming` — metric names registered with the observability
//!   registry are dotted lower-snake (`^[a-z0-9_.]+$`), and the wall
//!   clocks banned above are also banned in `crates/obs` outside its
//!   single monotonic-clock shim.
//!
//! Violations are suppressible only by a
//! `// lint:allow(<rule>): <reason>` comment on the same or preceding
//! line; the reason is mandatory (a reasonless allow suppresses nothing
//! and is itself reported under the `allow-syntax` meta-rule).

pub mod config;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use config::LockOrderConfig;
use lexer::{lex, Comment, TokKind, Token};

/// Names of all rules, in pipeline order.
pub const RULE_NAMES: &[&str] = &[
    "panic-free-io",
    "lock-order",
    "no-wallclock-in-plan",
    "fsync-before-rename",
    "metrics-naming",
    "allow-syntax",
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A parsed `lint:allow` suppression comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment starts on.
    pub line: u32,
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Whether a non-empty `: <reason>` followed — required for the
    /// allow to take effect.
    pub reason_ok: bool,
}

/// A lexed source file ready for the rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Per-token flag: true when the token sits inside test code
    /// (`#[cfg(test)]` / `#[test]` items or `mod tests` blocks).
    pub in_test: Vec<bool>,
    /// Comments, for diagnostics.
    pub comments: Vec<Comment>,
    /// Parsed suppressions.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lex `src` and compute test spans and suppressions. `rel` is the
    /// workspace-relative path used for rule scoping.
    pub fn parse(rel: impl Into<String>, src: &str) -> SourceFile {
        let lexed = lex(src);
        let in_test = mark_test_spans(&lexed.tokens);
        let allows = parse_allows(&lexed.comments);
        SourceFile {
            rel: rel.into(),
            tokens: lexed.tokens,
            in_test,
            comments: lexed.comments,
            allows,
        }
    }
}

/// Mark tokens under `#[cfg(test)]`/`#[test]` attributes and inside
/// `mod tests { … }` blocks.
fn mark_test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        // `#[ … ]` attribute.
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_end = match matching_bracket(tokens, i + 1) {
                Some(e) => e,
                None => break,
            };
            if attr_is_test(&tokens[i + 2..attr_end]) {
                let item_end = mark_item(tokens, &mut in_test, i, attr_end + 1);
                i = item_end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        // `mod tests { … }` without an attribute.
        if tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            if let Some(close) = matching_brace(tokens, i + 2) {
                for flag in in_test.iter_mut().take(close + 1).skip(i) {
                    *flag = true;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    in_test
}

/// Does the attribute body (tokens between `[` and `]`) gate test code?
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` do;
/// `#[cfg(not(test))]` does not.
fn attr_is_test(body: &[Token]) -> bool {
    let has = |s: &str| body.iter().any(|t| t.is_ident(s));
    if body.first().is_some_and(|t| t.is_ident("test")) {
        return true;
    }
    has("cfg") && has("test") && !has("not")
}

/// Mark from `start` (the `#` of the first attribute) through the end
/// of the annotated item. Skips any further attributes, then marks to
/// the item's closing `}` (or `;` for brace-less items). Returns the
/// index just past the item.
fn mark_item(tokens: &[Token], in_test: &mut [bool], start: usize, mut i: usize) -> usize {
    // Skip (and include) any stacked attributes.
    while i < tokens.len()
        && tokens[i].is_punct('#')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match matching_bracket(tokens, i + 1) {
            Some(e) => i = e + 1,
            None => break,
        }
    }
    // Find the item body: the first `{` at zero paren/bracket depth, or
    // a `;` there for brace-less items (`use`, fn declarations).
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut end = tokens.len().saturating_sub(1);
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => {
                    end = matching_brace(tokens, i).unwrap_or(tokens.len() - 1);
                    break;
                }
                ";" if paren == 0 && bracket == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        i += 1;
    }
    for flag in in_test.iter_mut().take(end + 1).skip(start) {
        *flag = true;
    }
    end + 1
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Extract `lint:allow(rule): reason` suppressions from comments. Only
/// a comment that *starts* with `lint:allow` (after doc-comment
/// sigils) is a suppression — prose that merely mentions the syntax is
/// not.
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let text = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(rest) = text.strip_prefix("lint:allow") else {
            continue;
        };
        let malformed = Allow {
            line: c.line,
            rule: String::new(),
            reason_ok: false,
        };
        let Some(body) = rest.trim_start().strip_prefix('(') else {
            out.push(malformed);
            continue;
        };
        let Some(close) = body.find(')') else {
            out.push(malformed);
            continue;
        };
        let rule = body[..close].trim().to_string();
        let after = body[close + 1..].trim_start();
        let reason_ok = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        out.push(Allow {
            line: c.line,
            rule,
            reason_ok,
        });
    }
    out
}

/// The analyzer: ordered rule pipeline plus suppression handling.
pub struct Engine {
    /// Declared lock order for the `lock-order` rule.
    pub lock_cfg: LockOrderConfig,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine {
            lock_cfg: LockOrderConfig::default_declared(),
        }
    }
}

impl Engine {
    /// Run every rule over `files`, apply `lint:allow` suppressions,
    /// and return the surviving findings sorted by file/line/rule.
    pub fn run(&self, files: &[SourceFile]) -> Vec<Finding> {
        let mut findings = Vec::new();
        if self.lock_cfg.ranks.is_empty() {
            findings.push(Finding {
                rule: "lock-order",
                file: "crates/lint/lock-order.toml".into(),
                line: 1,
                message: "no lock order declared (empty or unparsable configuration)".into(),
            });
        }
        for f in files {
            let mut file_findings = Vec::new();
            file_findings.extend(rules::panic_free_io(f));
            file_findings.extend(rules::lock_order(f, &self.lock_cfg));
            file_findings.extend(rules::no_wallclock_in_plan(f));
            file_findings.extend(rules::fsync_before_rename(f));
            file_findings.extend(rules::metrics_naming(f));
            findings.extend(self.apply_allows(f, file_findings));
        }
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        findings
    }

    /// Suppress findings covered by a well-formed allow on the same or
    /// preceding line; report malformed or unknown-rule allows.
    fn apply_allows(&self, f: &SourceFile, mut file_findings: Vec<Finding>) -> Vec<Finding> {
        file_findings.retain(|finding| {
            !f.allows.iter().any(|a| {
                a.reason_ok
                    && a.rule == finding.rule
                    && (a.line == finding.line || a.line + 1 == finding.line)
            })
        });
        let mut out = file_findings;
        for a in &f.allows {
            if !a.reason_ok {
                out.push(Finding {
                    rule: "allow-syntax",
                    file: f.rel.clone(),
                    line: a.line,
                    message: format!(
                        "lint:allow({}) without a reason — use `// lint:allow(<rule>): <reason>` \
                         (a reasonless allow suppresses nothing)",
                        a.rule
                    ),
                });
            } else if !RULE_NAMES.contains(&a.rule.as_str()) {
                out.push(Finding {
                    rule: "allow-syntax",
                    file: f.rel.clone(),
                    line: a.line,
                    message: format!("lint:allow names unknown rule `{}`", a.rule),
                });
            }
        }
        out
    }
}

/// Recursively collect and lex every `.rs` file under `root`, skipping
/// `target`, `vendor`, `fixtures`, and VCS directories. Paths in the
/// result are `root`-relative with forward slashes.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let src = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(rel, &src));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | "vendor" | "fixtures" | ".git" | ".claude"
            ) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Serialize findings as a JSON array (std-only, hand-escaped).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str("  {\"rule\": ");
        json_str(&mut s, f.rule);
        s.push_str(", \"file\": ");
        json_str(&mut s, &f.file);
        s.push_str(&format!(", \"line\": {}, \"message\": ", f.line));
        json_str(&mut s, &f.message);
        s.push('}');
        if i + 1 < findings.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push(']');
    s
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_marks_the_following_item() {
        let f = SourceFile::parse(
            "x.rs",
            "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }\n",
        );
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &in_test)| in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let f = SourceFile::parse("x.rs", "#[cfg(not(test))]\nfn live() { a.unwrap(); }\n");
        assert!(f.in_test.iter().all(|&b| !b));
    }

    #[test]
    fn test_attr_and_stacked_attrs() {
        let f = SourceFile::parse(
            "x.rs",
            "#[test]\n#[ignore]\nfn t() { x.unwrap(); }\nfn live() {}\n",
        );
        let live_pos = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!f.in_test[live_pos]);
        let unwrap_pos = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test[unwrap_pos]);
    }

    #[test]
    fn mod_tests_without_attr_is_test_code() {
        let f = SourceFile::parse(
            "x.rs",
            "mod tests { fn t() { x.unwrap(); } }\nfn live() {}\n",
        );
        let unwrap_pos = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test[unwrap_pos]);
        let live_pos = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!f.in_test[live_pos]);
    }

    #[test]
    fn allow_requires_reason() {
        let f = SourceFile::parse(
            "x.rs",
            "// lint:allow(panic-free-io): checked above\n// lint:allow(lock-order)\n// lint:allow(lock-order):   \n",
        );
        assert_eq!(f.allows.len(), 3);
        assert!(f.allows[0].reason_ok);
        assert_eq!(f.allows[0].rule, "panic-free-io");
        assert!(!f.allows[1].reason_ok);
        assert!(!f.allows[2].reason_ok, "blank reason must not count");
    }

    #[test]
    fn reasonless_allow_is_reported_and_suppresses_nothing() {
        let src = "fn f() -> u8 { v.unwrap() } // lint:allow(panic-free-io)\n";
        let f = SourceFile::parse("crates/memdb/src/store/x.rs", src);
        let findings = Engine::default().run(&[f]);
        assert!(findings.iter().any(|f| f.rule == "panic-free-io"));
        assert!(findings.iter().any(|f| f.rule == "allow-syntax"));
    }

    #[test]
    fn reasoned_allow_suppresses_same_and_next_line() {
        let src = "// lint:allow(panic-free-io): invariant: slot filled in loop above\nfn f() -> u8 { v.unwrap() }\n";
        let f = SourceFile::parse("crates/memdb/src/store/x.rs", src);
        let findings = Engine::default().run(&[f]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let f = SourceFile::parse("x.rs", "// lint:allow(no-such-rule): because\n");
        let findings = Engine::default().run(&[f]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "allow-syntax");
        assert!(findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn json_escapes() {
        let findings = vec![Finding {
            rule: "panic-free-io",
            file: "a\"b.rs".into(),
            line: 3,
            message: "tab\there".into(),
        }];
        let j = findings_to_json(&findings);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("tab\\there"));
    }
}

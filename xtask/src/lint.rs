//! The repo-invariant lint pass (`cargo xtask lint`).
//!
//! A hand-rolled scanner (no external dependencies) that enforces the
//! conventions PRs 2–8 established but nothing checked:
//!
//! | rule id            | invariant                                                        |
//! |--------------------|------------------------------------------------------------------|
//! | `safety-comment`   | every `unsafe` keyword carries a `// SAFETY:` (or `# Safety`) comment immediately above or on the same line |
//! | `io-panic`         | no `.unwrap()` / `.expect(` / `panic!(` on the library load/IO paths (`crates/graph/src/io/`) — they must surface `IoError` |
//! | `fs-choke-point`   | no direct `std::fs` / `File::open` / `File::create` … outside the `io/mod.rs` failpoint choke points, so every byte of file IO can be failure-injected |
//! | `clock-discipline` | no `Instant::now` / `SystemTime::now` outside the approved timing modules (deadline handling in `cancel.rs`, bench), so `--timeout-checks` determinism can't regress |
//! | `hash-determinism` | no std-hasher `HashMap::new` / `HashSet::new` (& friends) in library crates — use the fixed-seed hasher, sort before emitting, or justify with an allow tag |
//! | `dead-pub`         | every module-level `pub fn` and every `pub fn` of a module-level `impl` under `crates/*/src` (bar the test-serving `testkit` and `modelcheck`) has a caller outside test code; a cross-file pass, see [`scan_dead_pub`] |
//! | `twin-entry`       | no module-level `pub fn` under `crates/*/src` (bar `testkit` and `modelcheck`) is named `*_cancel`, `*_with_split` or `*_with_scratch`: one entry point per algorithm takes the token, split or scratch as an argument |
//!
//! A finding is silenced by a justification tag on the same line or the
//! line directly above:
//!
//! ```text
//! // lint:allow(hash-determinism): lookup-only registry, iteration order never observed
//! ```
//!
//! The justification text after the `:` is mandatory — a bare tag is itself
//! a violation. Code is separated from comments and string literals by a
//! small Rust lexer, so patterns inside comments, strings and doc examples
//! never fire. `#[cfg(test)] mod … { … }` blocks and files under `tests/`
//! are exempt from every rule except `safety-comment`; lint fixture files
//! under `tests/fixtures/` are skipped entirely. `dead-pub` also reads
//! `perfbench/src` for callers, but never lints it.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint finding at `path:line:col`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line of the match.
    pub line: usize,
    /// 1-based column (in bytes) of the match.
    pub col: usize,
    /// Stable rule id (the thing `lint:allow(...)` names).
    pub rule: &'static str,
    /// Human explanation including the expected fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.col,
            self.rule,
            self.message
        )
    }
}

/// Which rules apply to a given file (derived from its repo-relative path
/// by [`rules_for_path`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleSet {
    /// `safety-comment`
    pub safety_comment: bool,
    /// `io-panic`
    pub io_panic: bool,
    /// `fs-choke-point`
    pub fs_choke_point: bool,
    /// `clock-discipline`
    pub clock_discipline: bool,
    /// `hash-determinism`
    pub hash_determinism: bool,
    /// `twin-entry`
    pub twin_entry: bool,
}

impl RuleSet {
    fn any(&self) -> bool {
        self.safety_comment
            || self.io_panic
            || self.fs_choke_point
            || self.clock_discipline
            || self.hash_determinism
            || self.twin_entry
    }
}

/// Decides which rules apply to `rel` (repo-relative, `/`-separated).
///
/// The approved-location lists live here, in one place:
/// * file IO outside `crates/graph/src/io/mod.rs` (the failpoint choke
///   points) is banned in library crates; `xtask` itself, benches and
///   examples are tools and exempt;
/// * wall-clock reads are approved only in `crates/graph/src/cancel.rs`
///   (cooperative deadlines), `crates/bench/` and examples;
/// * the std-hasher rule covers `crates/*/src` only (vendored shims do not
///   feed ordered output);
/// * the twin-entry rule covers the shipped crates' `src/` (not the
///   test-serving crates).
pub fn rules_for_path(rel: &str) -> RuleSet {
    if rel.contains("tests/fixtures/") {
        return RuleSet::default();
    }
    let in_tests_dir = rel.contains("/tests/") || rel.starts_with("tests/");
    let lib_src =
        (rel.starts_with("crates/") || rel.starts_with("vendor/") || rel.starts_with("src/"))
            && !in_tests_dir;
    let mut rules = RuleSet {
        // SAFETY discipline applies everywhere, tests included: an unsafe
        // block in a test still needs its argument written down.
        safety_comment: true,
        ..RuleSet::default()
    };
    if !lib_src {
        return rules;
    }
    rules.io_panic = rel.starts_with("crates/graph/src/io/");
    // Bench binaries are operator tools (they write reports and scratch
    // files on explicit request); the choke-point discipline protects the
    // library load/store paths.
    rules.fs_choke_point = rel != "crates/graph/src/io/mod.rs" && !rel.starts_with("crates/bench/");
    rules.clock_discipline =
        rel != "crates/graph/src/cancel.rs" && !rel.starts_with("crates/bench/");
    rules.hash_determinism = rel.starts_with("crates/");
    rules.twin_entry = is_crate_src(rel) && !serves_tests(rel);
    rules
}

/// Byte classification produced by the lexer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Code,
    Comment,
    Literal,
}

/// Classifies every byte of `src` as code, comment, or string/char
/// literal. Handles line comments, nested block comments, (raw, byte)
/// string literals, char literals and lifetimes.
fn classify(src: &str) -> Vec<Class> {
    let b = src.as_bytes();
    let n = b.len();
    let mut class = vec![Class::Code; n];
    let mut i = 0;
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                while i < n && b[i] != b'\n' {
                    class[i] = Class::Comment;
                    i += 1;
                }
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < n {
                    if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        class[i] = Class::Comment;
                        class[i + 1] = Class::Comment;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        class[i] = Class::Comment;
                        class[i + 1] = Class::Comment;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        class[i] = Class::Comment;
                        i += 1;
                    }
                }
            }
            b'"' => {
                class[i] = Class::Literal;
                i += 1;
                while i < n {
                    class[i] = Class::Literal;
                    if b[i] == b'\\' && i + 1 < n {
                        class[i + 1] = Class::Literal;
                        i += 2;
                    } else if b[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' => {
                // Raw / byte string starts: r"…", r#"…"#, br"…", b"…", b'…'.
                let mut j = i + 1;
                if b[i] == b'b' && j < n && b[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0usize;
                while j < n && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                let is_raw = j > i + 1 || (j < n && b[j] == b'"' && b[i] != b'b');
                if j < n && b[j] == b'"' && (is_raw || b[i] == b'b') {
                    for slot in &mut class[i..=j] {
                        *slot = Class::Literal;
                    }
                    i = j + 1;
                    // Raw strings end at `"` + the same number of `#`s;
                    // plain byte strings honor escapes.
                    let raw = hashes > 0 || b[i - 1] == b'"' && (j > i) || is_raw;
                    while i < n {
                        class[i] = Class::Literal;
                        if !raw && b[i] == b'\\' && i + 1 < n {
                            class[i + 1] = Class::Literal;
                            i += 2;
                            continue;
                        }
                        if b[i] == b'"' {
                            let mut h = 0usize;
                            while h < hashes && i + 1 + h < n && b[i + 1 + h] == b'#' {
                                h += 1;
                            }
                            if h == hashes {
                                for k in 0..hashes {
                                    class[i + 1 + k] = Class::Literal;
                                }
                                i += 1 + hashes;
                                break;
                            }
                        }
                        i += 1;
                    }
                } else if b[i] == b'b' && i + 1 < n && b[i + 1] == b'\'' {
                    class[i] = Class::Literal;
                    i += 1; // fall through to char-literal handling below
                    continue;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with `'` within
                // a few bytes (or starts with an escape); a lifetime does
                // not close.
                let is_char = if i + 1 < n && b[i + 1] == b'\\' {
                    true
                } else {
                    let mut close = false;
                    let mut k = i + 1;
                    let limit = (i + 6).min(n);
                    while k < limit {
                        if b[k] == b'\'' {
                            close = k > i + 1;
                            break;
                        }
                        if b[k] == b'\n' {
                            break;
                        }
                        k += 1;
                    }
                    close
                };
                if is_char {
                    class[i] = Class::Literal;
                    i += 1;
                    while i < n {
                        class[i] = Class::Literal;
                        if b[i] == b'\\' && i + 1 < n {
                            class[i + 1] = Class::Literal;
                            i += 2;
                        } else if b[i] == b'\'' {
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                } else {
                    i += 1; // lifetime tick stays code
                }
            }
            _ => i += 1,
        }
    }
    class
}

/// Renders `src` with every byte not of class `keep` replaced by a space
/// (newlines preserved), so substring positions map 1:1 to the original.
fn mask(src: &str, class: &[Class], keep: Class) -> String {
    src.bytes()
        .zip(class)
        .map(|(byte, c)| if byte == b'\n' || *c == keep { byte as char } else { ' ' })
        .collect()
}

/// Byte ranges of `#[cfg(test)] mod … { … }` blocks (test-only code inside
/// a src file), found on the code mask so strings/comments can't confuse
/// the brace matcher.
fn test_mod_ranges(code: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("#[cfg(test)]") {
        let attr_at = from + pos;
        from = attr_at + 1;
        let Some(open_rel) = code[attr_at..].find('{') else { continue };
        let open = attr_at + open_rel;
        // Only treat it as a module if `mod` appears between the attribute
        // and the brace (the attribute may also sit on a single item, or on
        // a `mod name;` whose brace-less declaration ends at the `;`).
        let between = &code[attr_at..open];
        if !between.contains("mod ") || between.contains(';') {
            continue;
        }
        let bytes = code.as_bytes();
        let mut depth = 0usize;
        let mut end = code.len();
        for (k, &byte) in bytes.iter().enumerate().skip(open) {
            if byte == b'{' {
                depth += 1;
            } else if byte == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = k + 1;
                    break;
                }
            }
        }
        ranges.push((attr_at, end));
    }
    ranges
}

fn line_col(line_starts: &[usize], offset: usize) -> (usize, usize) {
    let line = line_starts.partition_point(|&s| s <= offset);
    (line, offset - line_starts[line - 1] + 1)
}

fn is_ident_byte(byte: u8) -> bool {
    byte == b'_' || byte.is_ascii_alphanumeric()
}

/// Whole-word occurrences of `word` in the code mask.
fn find_word(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        from = at + 1;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
    }
    out
}

struct SourceView<'a> {
    lines: Vec<&'a str>,
    code_lines: Vec<String>,
    comment_lines: Vec<String>,
    line_starts: Vec<usize>,
}

impl<'a> SourceView<'a> {
    fn new(src: &'a str, code: &str, comments: &str) -> Self {
        let mut line_starts = vec![0usize];
        for (i, byte) in src.bytes().enumerate() {
            if byte == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceView {
            lines: src.lines().collect(),
            code_lines: code.lines().map(str::to_string).collect(),
            comment_lines: comments.lines().map(str::to_string).collect(),
            line_starts,
        }
    }

    fn comment_on(&self, line: usize) -> &str {
        self.comment_lines.get(line - 1).map_or("", String::as_str)
    }

    fn code_on(&self, line: usize) -> &str {
        self.code_lines.get(line - 1).map_or("", String::as_str)
    }

    /// Is a `lint:allow(rule): why` tag present on `line` or in the
    /// contiguous comment block immediately above it?
    fn allowed(&self, line: usize, rule: &str) -> bool {
        let tag = format!("lint:allow({rule}):");
        let has_tag = |l: usize| {
            let comment = self.comment_on(l);
            match comment.find(&tag) {
                // The justification after the colon is mandatory.
                Some(pos) => !comment[pos + tag.len()..].trim().is_empty(),
                None => false,
            }
        };
        if has_tag(line) {
            return true;
        }
        // Walk up through the contiguous comment block above the site (tags
        // often have a wrapped justification), but stop at the first line
        // that contains code so a tag can never apply past another statement.
        let mut l = line;
        while l > 1 {
            l -= 1;
            if !self.code_on(l).trim().is_empty() {
                break;
            }
            if self.comment_on(l).trim().is_empty() {
                break;
            }
            if has_tag(l) {
                return true;
            }
        }
        false
    }
}

/// Scans one file's source and returns its findings. `rel` is the
/// repo-relative path used both for rule selection (see [`rules_for_path`])
/// and in the diagnostics.
pub fn scan_source(rel: &Path, src: &str) -> Vec<Diagnostic> {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let rules = rules_for_path(&rel_str);
    if !rules.any() {
        return Vec::new();
    }
    let class = classify(src);
    let code = mask(src, &class, Class::Code);
    let comments = mask(src, &class, Class::Comment);
    let view = SourceView::new(src, &code, &comments);
    let test_ranges = test_mod_ranges(&code);
    let in_test_mod =
        |offset: usize| test_ranges.iter().any(|&(start, end)| offset >= start && offset < end);

    let mut out = Vec::new();
    let mut push = |offset: usize, rule: &'static str, message: String| {
        let (line, col) = line_col(&view.line_starts, offset);
        if !view.allowed(line, rule) {
            out.push(Diagnostic { path: rel.to_path_buf(), line, col, rule, message });
        }
    };

    if rules.safety_comment {
        for at in find_word(&code, "unsafe") {
            let (line, col) = line_col(&view.line_starts, at);
            if has_safety_comment(&view, line, col) {
                continue;
            }
            push(
                at,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment on the same line or directly above \
                 (doc `# Safety` sections also count); write down why this is sound"
                    .to_string(),
            );
        }
    }

    if rules.io_panic {
        for pat in [".unwrap()", ".expect(", "panic!(", "unreachable!("] {
            for at in find_pattern(&code, pat) {
                if in_test_mod(at) {
                    continue;
                }
                push(
                    at,
                    "io-panic",
                    format!(
                        "`{pat}` on a load/IO path; surface the error as `IoError` instead of \
                         panicking (callers rely on failpoint-injected errors propagating)"
                    ),
                );
            }
        }
    }

    if rules.fs_choke_point {
        for pat in [
            "std::fs::",
            "fs::File",
            "File::open",
            "File::create",
            "File::options",
            "OpenOptions",
            "fs::read",
            "fs::write",
            "fs::remove_file",
            "fs::rename",
            "fs::create_dir",
            "fs::metadata",
        ] {
            for at in find_pattern(&code, pat) {
                if in_test_mod(at) {
                    continue;
                }
                let (line, _) = line_col(&view.line_starts, at);
                // Bare imports are fine — only operations are choke-pointed.
                if view.code_on(line).trim_start().starts_with("use ") {
                    continue;
                }
                push(
                    at,
                    "fs-choke-point",
                    format!(
                        "direct file IO (`{pat}`) outside the io/mod.rs choke points; route \
                         through `open_file` / `read_file_bytes` / `write_bytes_atomic` so \
                         failpoints and IO retries apply"
                    ),
                );
            }
        }
    }

    if rules.clock_discipline {
        for pat in ["Instant::now", "SystemTime::now"] {
            for at in find_pattern(&code, pat) {
                if in_test_mod(at) {
                    continue;
                }
                push(
                    at,
                    "clock-discipline",
                    format!(
                        "`{pat}` outside the approved timing modules (cancel.rs deadlines, \
                         bench); ambient clock reads break `--timeout-checks` determinism"
                    ),
                );
            }
        }
    }

    if rules.hash_determinism {
        for pat in [
            "HashMap::new",
            "HashSet::new",
            "HashMap::with_capacity(",
            "HashSet::with_capacity(",
            "HashMap::default()",
            "HashSet::default()",
        ] {
            for at in find_pattern(&code, pat) {
                if in_test_mod(at) {
                    continue;
                }
                push(
                    at,
                    "hash-determinism",
                    format!(
                        "`{pat}` uses the randomly-seeded std hasher; iteration order can leak \
                         into output. Use `with_capacity_and_hasher(_, \
                         BuildHasherDefault::default())`, sort before emitting, or justify \
                         with `// lint:allow(hash-determinism): <why>`"
                    ),
                );
            }
        }
    }

    if rules.twin_entry {
        for (at, name, _) in checked_pub_fns(&code).into_iter().filter(|&(_, _, method)| !method) {
            let Some(suffix) = TWIN_SUFFIXES.iter().find(|suffix| name.ends_with(*suffix)) else {
                continue;
            };
            if in_test_mod(at) {
                continue;
            }
            push(
                at,
                "twin-entry",
                format!(
                    "`pub fn {name}` is a `{suffix}` twin that fills in one argument of \
                     another entry point; take the argument instead, or justify with \
                     `// lint:allow(twin-entry): <why>`"
                ),
            );
        }
    }

    out.sort_by_key(|d| (d.line, d.col, d.rule));
    // Overlapping patterns (`std::fs::File::create` hits both `std::fs::`
    // and `File::create`) collapse to one diagnostic per line and rule.
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

/// `safety-comment` proximity search: a comment containing "safety" on the
/// `unsafe` line itself, or on the run of comment/attribute/blank lines
/// directly above it (stopping at the first unrelated code line).
fn has_safety_comment(view: &SourceView<'_>, line: usize, col: usize) -> bool {
    let mentions_safety = |l: usize| view.comment_on(l).to_ascii_lowercase().contains("safety");
    if mentions_safety(line) {
        return true;
    }
    // Code on the `unsafe` line before the keyword is fine (e.g. `let x =
    // unsafe { … }`); what matters is the lines above.
    let _ = col;
    let mut l = line;
    for _ in 0..12 {
        if l <= 1 {
            return false;
        }
        l -= 1;
        if mentions_safety(l) {
            return true;
        }
        let code_line = view.code_on(l).trim();
        let attr_only = {
            let raw = view.lines.get(l - 1).copied().unwrap_or("").trim();
            raw.starts_with("#[") || raw.starts_with("#![")
        };
        if !code_line.is_empty() && !attr_only {
            return false;
        }
    }
    false
}

/// All occurrences of `pat` in the code mask (no word boundary — patterns
/// carry their own punctuation).
fn find_pattern(code: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        out.push(from + pos);
        from = from + pos + 1;
    }
    out
}

/// Is `rel` in a crate that exists to serve tests (`cldiam-testkit`,
/// `cldiam-modelcheck`)? `dead-pub` and `twin-entry` do not check its
/// `pub fn`s, and its calls keep nothing alive.
fn serves_tests(rel: &str) -> bool {
    ["crates/testkit/", "crates/modelcheck/"].iter().any(|krate| rel.starts_with(krate))
}

/// Name endings of an entry point's twin that fills in one argument with a
/// default (`twin-entry`).
const TWIN_SUFFIXES: [&str; 3] = ["_cancel", "_with_split", "_with_scratch"];

/// Is `rel` under some `crates/<name>/src/`?
fn is_crate_src(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, inner)| inner.starts_with("src/"))
}

/// Can a call in `rel` keep a `pub fn` alive? Test directories, the skipped
/// crates and vendored shims cannot.
fn is_caller_path(rel: &str) -> bool {
    let in_tests_dir = rel.contains("/tests/") || rel.starts_with("tests/");
    !in_tests_dir
        && !serves_tests(rel)
        && (is_crate_src(rel)
            || ["src/", "examples/", "xtask/src/", "perfbench/src/"]
                .iter()
                .any(|top| rel.starts_with(top)))
}

/// The identifier starting at byte `at` of the code mask, if any.
fn ident_at(code: &str, at: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let end = (at..bytes.len()).find(|&k| !is_ident_byte(bytes[k])).unwrap_or(bytes.len());
    (end > at && !bytes[at].is_ascii_digit()).then(|| &code[at..end])
}

/// The word that follows byte `at` after any whitespace, with its offset.
fn next_word(code: &str, at: usize) -> Option<(usize, &str)> {
    let bytes = code.as_bytes();
    let start = (at..bytes.len()).find(|&k| !bytes[k].is_ascii_whitespace())?;
    ident_at(code, start).map(|word| (start, word))
}

/// What an open brace opens, as far as [`checked_pub_fns`] cares.
#[derive(Clone, Copy, PartialEq)]
enum Block {
    Mod,
    Impl,
    Other,
}

/// The offset of `pub`, the name and whether it is a method, of every
/// `pub fn` in the code mask that sits at module level or directly in an
/// `impl` block at module level.
fn checked_pub_fns(code: &str) -> Vec<(usize, &str, bool)> {
    let bytes = code.as_bytes();
    let mut blocks: Vec<Block> = Vec::new();
    let mut item_start = 0;
    let mut out = Vec::new();
    for (i, &byte) in bytes.iter().enumerate() {
        match byte {
            b'{' => {
                let header: Vec<&str> = code[item_start..i].split_whitespace().collect();
                let is_impl = |k: usize| {
                    (header[k] == "impl" || header[k].starts_with("impl<"))
                        && (k == 0 || header[k - 1].ends_with(']') || header[k - 1] == "unsafe")
                };
                blocks.push(if header.len() >= 2 && header[header.len() - 2] == "mod" {
                    Block::Mod
                } else if (0..header.len()).any(is_impl) {
                    Block::Impl
                } else {
                    Block::Other
                });
                item_start = i + 1;
            }
            b'}' => {
                blocks.pop();
                item_start = i + 1;
            }
            b';' => item_start = i + 1,
            b'p' if (i == 0 || !is_ident_byte(bytes[i - 1]))
                && ident_at(code, i) == Some("pub") =>
            {
                let method = match blocks.iter().position(|&b| b != Block::Mod) {
                    None => false,
                    Some(k) if k + 1 == blocks.len() && blocks[k] == Block::Impl => true,
                    Some(_) => continue,
                };
                // An item compiled only for tests (`#[cfg(test)]`,
                // `#[cfg(any(test, …))]`) is not checked.
                let attrs = &code[item_start..i];
                if attrs.contains("#[cfg(") && !find_word(attrs, "test").is_empty() {
                    continue;
                }
                let mut at = i + 3;
                while let Some((word_at, word)) = next_word(code, at) {
                    at = word_at + word.len();
                    match word {
                        "const" | "unsafe" | "async" => continue,
                        "fn" => {
                            if let Some((_, name)) = next_word(code, at) {
                                out.push((i, name, method));
                            }
                        }
                        _ => {}
                    }
                    break;
                }
            }
            _ => {}
        }
    }
    out
}

/// The end of the item starting at `start`: its body's closing brace, or
/// the `;` of a body-less declaration.
fn item_end(code: &str, start: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (k, &byte) in bytes.iter().enumerate().skip(start) {
        match byte {
            b';' if depth == 0 => return k + 1,
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

/// Byte ranges of `pub use …;` re-exports (any `pub(…)` visibility).
fn pub_use_ranges(code: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for at in find_word(code, "pub") {
        let mut after = at + 3;
        let rest = code[after..].trim_start();
        if rest.starts_with('(') {
            let Some(close) = code[after..].find(')') else { continue };
            after += close + 1;
        }
        if let Some((_, "use")) = next_word(code, after) {
            let end = code[at..].find(';').map_or(code.len(), |k| at + k + 1);
            out.push((at, end));
        }
    }
    out
}

/// Repo-relative paths of module files declared as `#[cfg(test)] mod name;`
/// in `rel`: `name.rs` and `name/mod.rs` next to a `lib.rs` / `main.rs` /
/// `mod.rs`, else inside the directory named after `rel`'s stem.
fn test_module_files(rel: &str, code: &str) -> Vec<String> {
    let (dir, file) = rel.rsplit_once('/').unwrap_or(("", rel));
    let stem = file.trim_end_matches(".rs");
    let base = if ["lib", "main", "mod"].contains(&stem) {
        dir.to_string()
    } else {
        format!("{dir}/{stem}")
    };
    let mut out = Vec::new();
    for at in find_pattern(code, "#[cfg(test)]") {
        let mut after = at + "#[cfg(test)]".len();
        if let Some((word_at, "pub")) = next_word(code, after) {
            after = word_at + 3;
        }
        let Some((word_at, "mod")) = next_word(code, after) else { continue };
        let Some((name_at, name)) = next_word(code, word_at + 3) else { continue };
        if code[name_at + name.len()..].trim_start().starts_with(';') {
            out.push(format!("{base}/{name}.rs"));
            out.push(format!("{base}/{name}/mod.rs"));
        }
    }
    out
}

/// One file as the `dead-pub` pass sees it.
struct DeadPubFile<'a> {
    rel: String,
    src: &'a str,
    code: String,
    /// `#[cfg(test)]` module blocks and `pub use` re-exports: a name here
    /// is not a caller.
    ignored: Vec<(usize, usize)>,
}

/// The `dead-pub` rule, a cross-file pass over `(repo-relative path,
/// source)` pairs: every module-level `pub fn` and every `pub fn` of a
/// module-level `impl` under `crates/*/src` (bar the test-serving
/// `crates/testkit` and `crates/modelcheck`, and test-only code) must have
/// its name occur as code in a caller file (`src/`, `crates/*/src`,
/// `examples/`, `xtask/src`, `perfbench/src`), outside test modules, `pub
/// use` re-exports, declarations (`fn name`, `mod name`) and its own body.
/// A function's name must not follow `.`; a method's must follow `.` or
/// `::`. Only `lint:allow(dead-pub): <why>` silences a finding.
pub fn scan_dead_pub(files: &[(PathBuf, String)]) -> Vec<Diagnostic> {
    let mut views: Vec<DeadPubFile<'_>> = files
        .iter()
        .map(|(rel, src)| {
            let class = classify(src);
            let code = mask(src, &class, Class::Code);
            let mut ignored = test_mod_ranges(&code);
            ignored.extend(pub_use_ranges(&code));
            let rel = rel.to_string_lossy().replace('\\', "/");
            DeadPubFile { rel, src, code, ignored }
        })
        .collect();
    let test_files: Vec<String> =
        views.iter().flat_map(|f| test_module_files(&f.rel, &f.code)).collect();
    views.retain(|f| !test_files.contains(&f.rel));
    let ignored =
        |f: &DeadPubFile<'_>, at: usize| f.ignored.iter().any(|&(s, e)| at >= s && at < e);

    // Every declaration the rule checks: (file, offset of `pub`, name, is a
    // method).
    let mut decls = Vec::new();
    for (idx, f) in views.iter().enumerate() {
        if is_crate_src(&f.rel) && is_caller_path(&f.rel) {
            for (at, name, method) in checked_pub_fns(&f.code) {
                if !ignored(f, at) {
                    decls.push((idx, at, name, method));
                }
            }
        }
    }

    // Where each checked name occurs in a caller file, and whether it
    // follows `.` or `::` there.
    let mut uses: std::collections::BTreeMap<&str, Vec<(usize, usize, bool, bool)>> =
        decls.iter().map(|&(_, _, name, _)| (name, Vec::new())).collect();
    for (idx, f) in views.iter().enumerate().filter(|(_, f)| is_caller_path(&f.rel)) {
        let bytes = f.code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !is_ident_byte(bytes[i]) || (i > 0 && is_ident_byte(bytes[i - 1])) {
                i += 1;
                continue;
            }
            let word = ident_at(&f.code, i).unwrap_or("");
            let start = i;
            i += word.len().max(1);
            let Some(sites) = uses.get_mut(word) else { continue };
            let before = f.code[..start].trim_end();
            let dot = before.ends_with('.') && !before.ends_with("..");
            let declared = ["fn", "mod"].iter().any(|kw| {
                before
                    .strip_suffix(kw)
                    .is_some_and(|rest| !rest.ends_with(|c: char| is_ident_byte(c as u8)))
            });
            if !declared && !ignored(f, start) {
                sites.push((idx, start, dot, before.ends_with("::")));
            }
        }
    }

    let mut out = Vec::new();
    for (idx, at, name, method) in decls {
        let f = &views[idx];
        let body = (at, item_end(&f.code, at));
        // A method is called after `.` or `::`; a function anywhere but
        // after `.`.
        let called = uses[name].iter().any(|&(site_idx, site, dot, path)| {
            (if method { dot || path } else { !dot })
                && (site_idx != idx || site < body.0 || site >= body.1)
        });
        if called {
            continue;
        }
        let comments = mask(f.src, &classify(f.src), Class::Comment);
        let view = SourceView::new(f.src, &f.code, &comments);
        let (line, col) = line_col(&view.line_starts, at);
        if !view.allowed(line, "dead-pub") {
            out.push(Diagnostic {
                path: PathBuf::from(&f.rel),
                line,
                col,
                rule: "dead-pub",
                message: format!(
                    "`pub fn {name}` has no caller outside test code; delete it, fold it into \
                     the twin the pipeline calls, move it next to its tests (or into \
                     cldiam-testkit), or justify with `// lint:allow(dead-pub): <why>`"
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Walks the workspace sources and returns every finding. perfbench's
/// sources are read as `dead-pub` callers only, never linted.
pub fn scan_repo(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "vendor", "xtask/src", "examples", "tests", "perfbench/src"] {
        collect_rs(&root.join(top), root, &mut files)?;
    }
    files.sort();
    let mut sources = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    let mut out = Vec::new();
    for (rel, src) in &sources {
        if !rel.starts_with("perfbench") {
            out.extend(scan_source(rel, src));
        }
    }
    out.extend(scan_dead_pub(&sources));
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Entry point for `cargo xtask lint`.
pub fn run(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        eprintln!("cargo xtask lint takes no arguments (got {args:?})");
        return ExitCode::from(2);
    }
    // The xtask crate sits at the workspace root's `xtask/` — derive the
    // root from the manifest dir so the pass works from any cwd.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf);
    let Some(root) = root else {
        eprintln!("cannot locate the workspace root");
        return ExitCode::FAILURE;
    };
    match scan_repo(&root) {
        Ok(diags) if diags.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!("xtask lint: {} violation(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask lint: IO error while scanning: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(src: &str) -> (String, String) {
        let class = classify(src);
        (mask(src, &class, Class::Code), mask(src, &class, Class::Comment))
    }

    #[test]
    fn lexer_separates_comments_and_literals_from_code() {
        let src = "let a = \"x.unwrap()\"; // .unwrap() here\nb.unwrap();\n";
        let (code, comments) = classes(src);
        assert!(!code.contains(".unwrap()") || code.matches(".unwrap()").count() == 1);
        assert!(code.lines().nth(1).unwrap().contains("b.unwrap()"));
        assert!(comments.contains(".unwrap() here"));
        assert!(!code.contains("x.unwrap()"));
    }

    #[test]
    fn lexer_handles_nested_block_comments_and_raw_strings() {
        let src = "/* outer /* inner unsafe */ still comment */ code();\nlet r = r#\"panic!(\"no\")\"#;\n";
        let (code, _) = classes(src);
        assert!(!code.contains("unsafe"));
        assert!(code.contains("code()"));
        assert!(!code.contains("panic!("));
    }

    #[test]
    fn lexer_distinguishes_char_literals_from_lifetimes() {
        let src = "fn f<'a>(x: &'a u8) -> char { '\"' }\nlet q = 'y';\n";
        let (code, _) = classes(src);
        // The double-quote inside the char literal must not open a string:
        // `let q` on the next line has to stay classified as code.
        assert!(code.contains("let q"));
        assert!(code.contains("fn f<'a>"));
    }

    #[test]
    fn test_mod_ranges_cover_the_braced_block_only() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() { y.unwrap(); }\n";
        let class = classify(src);
        let code = mask(src, &class, Class::Code);
        let ranges = test_mod_ranges(&code);
        assert_eq!(ranges.len(), 1);
        let (start, end) = ranges[0];
        let inside = src.find("x.unwrap").unwrap();
        let outside = src.find("y.unwrap").unwrap();
        assert!(inside >= start && inside < end);
        assert!(!(outside >= start && outside < end));
    }

    #[test]
    fn cfg_test_on_a_single_item_is_not_a_module_range() {
        let src = "#[cfg(test)]\nfn helper() { x.unwrap(); }\n";
        let class = classify(src);
        let code = mask(src, &class, Class::Code);
        assert!(test_mod_ranges(&code).is_empty());
    }

    #[test]
    fn cfg_test_on_a_file_module_is_not_a_module_range() {
        // `mod helpers;` ends at its `;`: the brace of the next item must
        // not be mistaken for the module's body.
        let src = "#[cfg(test)]\nmod helpers;\nfn c() { y.unwrap(); }\n";
        let class = classify(src);
        let code = mask(src, &class, Class::Code);
        assert!(test_mod_ranges(&code).is_empty());
    }

    #[test]
    fn checked_pub_fns_are_module_level_functions_and_inherent_methods() {
        // Not `nested` (in a body whose signature takes `impl Trait`),
        // `local` (an `impl` inside a function) or the test-gated `gated`.
        let src = "pub fn f(x: impl Iterator) { pub fn nested() {} }\n\
                   impl<T> S<T> { pub fn m(&self) {} }\nmod inner { pub fn g() {} }\n\
                   fn h() { impl S { pub fn local() {} } }\n#[cfg(test)]\npub fn gated() {}\n";
        let (code, _) = classes(src);
        let found: Vec<(&str, bool)> =
            checked_pub_fns(&code).into_iter().map(|(_, name, method)| (name, method)).collect();
        assert_eq!(found, vec![("f", false), ("m", true), ("g", false)]);
    }

    #[test]
    fn find_word_respects_identifier_boundaries() {
        let code = "unsafe fn f() {} // x\nlet not_unsafe_here = unsafe2;\n";
        assert_eq!(find_word(code, "unsafe").len(), 1);
    }

    #[test]
    fn allow_tag_requires_a_justification() {
        let src = "// lint:allow(io-panic):\nx.unwrap();\n";
        let diags = scan_source(Path::new("crates/graph/src/io/f.rs"), src);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        let src = "// lint:allow(io-panic): parser precondition documented above\nx.unwrap();\n";
        let diags = scan_source(Path::new("crates/graph/src/io/f.rs"), src);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn allow_tag_does_not_reach_past_intervening_code() {
        let src =
            "// lint:allow(io-panic): justified for the line below only\ny.parse();\nx.unwrap();\n";
        let diags = scan_source(Path::new("crates/graph/src/io/f.rs"), src);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].line, 3);
    }
}

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
//! under `tests/fixtures/` are skipped entirely.

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
}

impl RuleSet {
    fn any(&self) -> bool {
        self.safety_comment
            || self.io_panic
            || self.fs_choke_point
            || self.clock_discipline
            || self.hash_determinism
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
///   feed ordered output).
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
        // and the brace (the attribute may also sit on a single item).
        let between = &code[attr_at..open];
        if !between.contains("mod ") {
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
                         through `open_file` / `create_file` / `read_file_bytes` / \
                         `write_bytes_atomic` so failpoints and IO retries apply"
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

/// Walks the workspace sources and returns every finding.
pub fn scan_repo(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "vendor", "xtask/src", "examples", "tests"] {
        collect_rs(&root.join(top), root, &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        out.extend(scan_source(&rel, &src));
    }
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

//! The workspace lint engine: determinism rules D001–D005 and the
//! reachability rule D006.
//!
//! Every guarantee in this reproduction is of the form "byte-identical
//! to the serial / from-scratch definition". The property tests check
//! that contract after the fact; these rules enforce the programming
//! discipline that makes it hold *by construction*, at CI time:
//!
//! | Rule | Contract |
//! |------|----------|
//! | D001 | No `HashMap`/`HashSet` state in replay-critical crates (`overlay`, `core`, `sim`, `geom`): hash iteration order is seeded per process, so any map/set that reaches a fold, a delta stream, or a fingerprint must be a `BTreeMap`/`BTreeSet`. |
//! | D002 | No `Instant::now`/`SystemTime` outside telemetry: wall-clock reads may feed stats columns, never control flow. |
//! | D003 | No unseeded RNG (`thread_rng`, `from_entropy`) outside `bench`: every experiment replays from a seed. |
//! | D004 | No `partial_cmp` on floats outside `geom`: coordinate ordering goes through the total-order comparator (`f64::total_cmp`) so NaN/tie handling cannot diverge between engines. |
//! | D005 | Every crate root carries `#![forbid(unsafe_code)]`. |
//! | D006 | A `pub fn` / `pub struct` / `pub enum` of a library crate (`geom`, `sim`, `overlay`, `core`, `metrics`) is named somewhere that is not a test: outside its own definition, `#[cfg(test)]` items, `tests/`, `examples/` and `pub use` re-exports. A name defined twice counts as reached (conservative). The waiver's reason names the production behaviour the tests observe through it, or the open ROADMAP item that names it. |
//!
//! A site that is deliberately exempt carries an inline waiver:
//!
//! ```text
//! // lint:allow(D001, reason = "queried by key only, never iterated")
//! ```
//!
//! The waiver covers the next code line (or its own line when it is a
//! trailing comment). A waiver without a reason, or one that suppresses
//! nothing, is itself a violation (W001) — waivers must stay honest.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, LexedFile};

/// Crates whose state feeds replay/fingerprint comparisons (D001).
pub const REPLAY_CRITICAL: [&str; 4] = ["overlay", "core", "sim", "geom"];
/// Crates allowed to read wall clocks freely (D002).
pub const TIMING_EXEMPT: [&str; 1] = ["bench"];
/// Crates allowed entropy-seeded RNG (D003).
pub const RNG_EXEMPT: [&str; 1] = ["bench"];
/// The crate hosting the sanctioned float total-order comparisons (D004).
pub const FLOAT_ORD_HOME: &str = "geom";
/// Crates whose public surface must be reached by something that is not
/// a test (D006).
pub const LIBRARY_CRATES: [&str; 5] = ["geom", "sim", "overlay", "core", "metrics"];

/// One finding: a rule violation (or waiver-hygiene problem, W001).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule code (`D001`–`D006`, `W001`).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the fix/waiver guidance.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files: usize,
    /// Waivers honored (matched a violation they suppress).
    pub waivers_honored: usize,
}

impl LintReport {
    /// Machine-readable JSON rendering (no external deps: the format
    /// is a flat array of objects plus a summary object).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
                v.rule,
                json_escape(&v.file),
                v.line,
                json_escape(&v.message),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"files_scanned\": {},\n  \"waivers_honored\": {},\n  \"clean\": {}\n}}\n",
            self.files,
            self.waivers_honored,
            self.violations.is_empty()
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// An inline `lint:allow` waiver parsed from a comment.
#[derive(Debug)]
struct Waiver {
    rule: String,
    reason: Option<String>,
    /// Line of the comment itself.
    at: usize,
    /// Code line the waiver covers.
    covers: usize,
    used: bool,
}

/// Scans comment text for `lint:allow(RULE, reason = "...")`.
fn parse_waivers(lexed: &LexedFile) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for &(line, ref text) in &lexed.comments {
        // A waiver is a plain `//` comment. Doc comments (`///`,
        // `//!`) merely *describe* the syntax — rustdoc prose is not a
        // suppression site.
        let lead = text.trim_start();
        if lead.starts_with("///") || lead.starts_with("//!") {
            continue;
        }
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            let inner = &rest[pos + "lint:allow(".len()..];
            // The waiver closes after its quoted reason, which may
            // itself hold parentheses.
            let close = inner
                .find("\")")
                .map(|quote| quote + 1)
                .or_else(|| inner.find(')'))
                .unwrap_or(inner.len());
            let body = &inner[..close];
            let rule = body.split(',').next().unwrap_or("").trim().to_string();
            // Only rule-shaped tokens (`D001`, `W001`, …) are waivers;
            // anything else is prose mentioning the syntax.
            let rule_shaped = rule.len() == 4
                && (rule.starts_with('D') || rule.starts_with('W'))
                && rule[1..].bytes().all(|b| b.is_ascii_digit());
            if !rule_shaped {
                rest = &inner[close..];
                continue;
            }
            let reason = body.find("reason").and_then(|r| {
                let after = &body[r..];
                let q1 = after.find('"')? + 1;
                let q2 = after[q1..].find('"')? + q1;
                let reason = after[q1..q2].trim();
                (!reason.is_empty()).then(|| reason.to_string())
            });
            let covers = if lexed.has_code(line) {
                line
            } else {
                // Standalone comment: cover the next code line.
                let mut n = line + 1;
                while n <= lexed.masked.len() && !lexed.has_code(n) {
                    n += 1;
                }
                n
            };
            waivers.push(Waiver {
                rule,
                reason,
                at: line,
                covers,
                used: false,
            });
            rest = &inner[close..];
        }
    }
    waivers
}

/// Finds `token` as a whole identifier in `line`, returning `true` on
/// at least one hit.
fn has_token(line: &str, token: &str) -> bool {
    token_at(line, token).is_some()
}

/// Byte offset of the first whole-identifier occurrence of `token`.
fn token_at(line: &str, token: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let pre_ok = start == 0 || !ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` for a file of integration tests or examples: nothing in it
/// makes a name reached (D006).
fn is_test_path(file_label: &str) -> bool {
    Path::new(file_label)
        .components()
        .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "examples")))
}

/// Marks, per masked line, the lines of every `#[cfg(test)]` item: from
/// the attribute to the brace that closes the item, or to its `;`.
fn test_lines(lexed: &LexedFile) -> Vec<bool> {
    let lines = &lexed.masked;
    let mut is_test = vec![false; lines.len()];
    let mut n = 0;
    while n < lines.len() {
        if lines[n].trim() != "#[cfg(test)]" {
            n += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut opened = false;
        'item: while n < lines.len() {
            is_test[n] = true;
            for b in lines[n].bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth = depth.saturating_sub(1),
                    b';' if !opened => break 'item,
                    _ => {}
                }
                if opened && depth == 0 {
                    break 'item;
                }
            }
            n += 1;
        }
        n += 1;
    }
    is_test
}

/// The whole identifiers of a masked line.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii() && ident_byte(c as u8)))
        .filter(|t| !t.is_empty())
}

/// The name a masked line declares with `pub fn`, `pub const fn`,
/// `pub struct` or `pub enum`.
fn declared_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = ["fn ", "struct ", "enum "]
        .iter()
        .find_map(|kind| rest.strip_prefix(kind))?;
    identifiers(rest).next()
}

/// How often each identifier occurs in code that is not a test — D006's
/// notion of "reached". A declaration counts once, so a name is reached
/// from its second occurrence on.
#[derive(Debug, Default)]
pub struct NameCounts(BTreeMap<String, usize>);

impl NameCounts {
    /// Counts the identifiers of one file; files under `tests/` or
    /// `examples/` and `#[cfg(test)]` items contribute nothing.
    pub fn add(&mut self, file_label: &str, lexed: &LexedFile) {
        if is_test_path(file_label) {
            return;
        }
        let is_test = test_lines(lexed);
        // A `pub use` hands a name on; it does not reach it.
        let mut in_reexport = false;
        for (line, _) in lexed.masked.iter().zip(&is_test).filter(|(_, &t)| !t) {
            in_reexport |= line.trim_start().starts_with("pub use ");
            if !in_reexport {
                for name in identifiers(line) {
                    *self.0.entry(name.to_string()).or_insert(0) += 1;
                }
            }
            in_reexport &= !line.contains(';');
        }
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Lints one source file without the cross-file rule D006; see
/// [`lint_lexed`].
#[must_use]
pub fn lint_source(
    crate_name: &str,
    file_label: &str,
    source: &str,
    is_crate_root: bool,
) -> (Vec<Violation>, usize) {
    lint_lexed(crate_name, file_label, &lex(source), is_crate_root, None)
}

/// Lints one lexed file. `crate_name` is the short crate directory
/// name (`overlay`, `core`, …, or `root` for the workspace root
/// package); `is_crate_root` marks `src/lib.rs` / `src/main.rs`, where
/// D005 applies; `reached` holds the workspace's name counts, without
/// which D006 is skipped.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn lint_lexed(
    crate_name: &str,
    file_label: &str,
    lexed: &LexedFile,
    is_crate_root: bool,
    reached: Option<&NameCounts>,
) -> (Vec<Violation>, usize) {
    let mut waivers = parse_waivers(lexed);
    let mut raw: Vec<Violation> = Vec::new();

    let replay_critical = REPLAY_CRITICAL.contains(&crate_name);
    let timing_exempt = TIMING_EXEMPT.contains(&crate_name);
    let rng_exempt = RNG_EXEMPT.contains(&crate_name);

    for (idx, masked) in lexed.masked.iter().enumerate() {
        let line = idx + 1;
        let trimmed = masked.trim_start();
        // D001 — hash-ordered collections in replay-critical crates.
        // `use` declarations are inert (rustc flags unused imports);
        // the rule targets declarations, construction, and type
        // positions.
        if replay_critical && !trimmed.starts_with("use ") && !trimmed.starts_with("pub use ") {
            for token in ["HashMap", "HashSet"] {
                if has_token(masked, token) {
                    raw.push(Violation {
                        rule: "D001",
                        file: file_label.to_string(),
                        line,
                        message: format!(
                            "{token} in replay-critical crate `{crate_name}`: hash iteration \
                             order is per-process, so replay state must use BTreeMap/BTreeSet; \
                             if this site never iterates, waive with `// lint:allow(D001, \
                             reason = \"...\")`"
                        ),
                    });
                }
            }
        }
        // D002 — wall-clock reads outside telemetry.
        if !timing_exempt {
            for pat in ["Instant", "SystemTime"] {
                if let Some(pos) = token_at(masked, pat) {
                    // `Instant` only matters when the clock is read or
                    // a value is stored; type-position uses (fn args,
                    // struct fields of telemetry) are covered by the
                    // read sites. Flag reads: `Instant::now`,
                    // `SystemTime::now`, `SystemTime::UNIX_EPOCH`.
                    let after = &masked[pos..];
                    if pat == "SystemTime" || after.starts_with("Instant::now") {
                        raw.push(Violation {
                            rule: "D002",
                            file: file_label.to_string(),
                            line,
                            message: format!(
                                "{pat} read outside a telemetry context: wall-clock values may \
                                 feed stats columns only, never control flow; waive with \
                                 `// lint:allow(D002, reason = \"feeds <stat>; no control flow \
                                 reads the clock\")`"
                            ),
                        });
                    }
                }
            }
        }
        // D003 — unseeded RNG.
        if !rng_exempt {
            for token in ["thread_rng", "from_entropy"] {
                if has_token(masked, token) {
                    raw.push(Violation {
                        rule: "D003",
                        file: file_label.to_string(),
                        line,
                        message: format!(
                            "{token} draws process entropy: every experiment must replay from \
                             a seed (StdRng::seed_from_u64); entropy is allowed only in `bench`"
                        ),
                    });
                }
            }
        }
        // D004 — float ordering outside the sanctioned comparator.
        if crate_name != FLOAT_ORD_HOME {
            if let Some(pos) = token_at(masked, "partial_cmp") {
                let before = masked[..pos].trim_end();
                if !before.ends_with("fn") {
                    raw.push(Violation {
                        rule: "D004",
                        file: file_label.to_string(),
                        line,
                        message: "partial_cmp on float coordinates is not a total order (NaN, \
                                  unwrap panics): use f64::total_cmp with an id tie-break, as \
                                  geom's comparators do"
                            .to_string(),
                    });
                }
            }
        }
    }

    // D006 — public library names nothing but tests reaches.
    if let Some(reached) = reached {
        if LIBRARY_CRATES.contains(&crate_name) && !is_test_path(file_label) {
            let is_test = test_lines(lexed);
            for (idx, masked) in lexed.masked.iter().enumerate() {
                let Some(name) = declared_name(masked).filter(|_| !is_test[idx]) else {
                    continue;
                };
                if reached.count(name) <= 1 {
                    raw.push(Violation {
                        rule: "D006",
                        file: file_label.to_string(),
                        line: idx + 1,
                        message: format!(
                            "`{name}` is named only by tests and examples: delete it, or waive \
                             with `// lint:allow(D006, reason = \"...\")` naming the production \
                             behaviour its tests observe or the open ROADMAP item that names it"
                        ),
                    });
                }
            }
        }
    }

    // D005 — crate roots must forbid unsafe code.
    if is_crate_root
        && !lexed
            .masked
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"))
    {
        raw.push(Violation {
            rule: "D005",
            file: file_label.to_string(),
            line: 1,
            message: "crate root missing `#![forbid(unsafe_code)]`: the determinism contract \
                      assumes no unsafe aliasing anywhere in the workspace"
                .to_string(),
        });
    }

    // Apply waivers.
    let mut violations: Vec<Violation> = Vec::new();
    let mut honored = 0usize;
    for v in raw {
        let waived = waivers
            .iter_mut()
            .find(|w| w.rule == v.rule && w.covers == v.line && w.reason.is_some());
        if let Some(w) = waived {
            w.used = true;
            honored += 1;
        } else {
            violations.push(v);
        }
    }
    // Waiver hygiene (W001).
    for w in &waivers {
        if w.reason.is_none() {
            violations.push(Violation {
                rule: "W001",
                file: file_label.to_string(),
                line: w.at,
                message: format!(
                    "waiver for {} carries no reason: write `lint:allow({}, reason = \"...\")`",
                    w.rule, w.rule
                ),
            });
        } else if !w.used {
            violations.push(Violation {
                rule: "W001",
                file: file_label.to_string(),
                line: w.at,
                message: format!(
                    "waiver for {} suppresses nothing on line {}: remove it or move it next \
                     to the site it justifies",
                    w.rule, w.covers
                ),
            });
        }
    }
    violations.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    (violations, honored)
}

/// Recursively collects `.rs` files under `dir` (sorted for
/// deterministic reports), skipping `fixtures` directories — those
/// hold deliberately-bad lint test inputs.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name != "fixtures" && name != "target" {
                rust_files(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Lints every workspace crate under `root`: the root package's
/// `src`/`tests`/`examples` plus each `crates/*` member (vendored
/// stand-ins under `vendor/` are outside the contract and skipped).
///
/// # Errors
///
/// Returns an error if a source file cannot be read.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut units: Vec<(String, PathBuf)> = vec![("root".to_string(), root.to_path_buf())];
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unknown")
            .to_string();
        units.push((name, dir));
    }

    let mut sources: Vec<(String, String, bool, LexedFile)> = Vec::new();
    let mut reached = NameCounts::default();
    let mut read = |path: &Path| -> Result<(String, LexedFile), String> {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        let lexed = lex(&source);
        reached.add(&label, &lexed);
        Ok((label, lexed))
    };
    for (crate_name, dir) in units {
        let mut files = Vec::new();
        for sub in ["src", "tests", "examples", "benches"] {
            // Members live under `crates/`, so the root package's
            // `src`/`tests` never overlap with member sources.
            rust_files(&dir.join(sub), &mut files);
        }
        for path in files {
            let (label, lexed) = read(&path)?;
            let is_crate_root = path.ends_with("src/lib.rs") || path.ends_with("src/main.rs");
            sources.push((crate_name.clone(), label, is_crate_root, lexed));
        }
    }
    // The end-to-end benchmark is a package of its own and is not
    // linted, but what it imports is reached.
    let mut harness = Vec::new();
    rust_files(&root.join("benchmark").join("src"), &mut harness);
    for path in harness {
        read(&path)?;
    }

    for (crate_name, label, is_crate_root, lexed) in &sources {
        let (violations, honored) =
            lint_lexed(crate_name, label, lexed, *is_crate_root, Some(&reached));
        report.files += 1;
        report.waivers_honored += honored;
        report.violations.extend(violations);
    }
    report
        .violations
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(report)
}

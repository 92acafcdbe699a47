//! Source-hygiene linter (std-only, no syn/proc-macro dependencies).
//!
//! Scans the workspace's crate sources with a small lexical pass that
//! blanks comments and string literals (so tokens inside docs or
//! messages never fire) and skips `#[cfg(test)]` modules and `tests/`
//! integration files. One rule, specific to this project:
//!
//! * `dir-match` — no `match` arms on `DirState::` / `DirEvent::`
//!   patterns and no row action tests (`SpecRow::has`) outside the
//!   guarded-action spec. The spec rows and their one executor,
//!   `SpecRow::effect`, are the single source of truth for protocol
//!   decisions; the engine, the conformance replay and the model
//!   checker all read rows through `effect`. A hand-rolled match or
//!   action test elsewhere is a shadow transition table that can
//!   silently drift from the proved one.
//!
//! The generic determinism and hot-path rules (no wall clock, no hash
//! or tree collections in simulator state, no `unwrap`/`expect` there)
//! are clippy lints, configured in `crates/clippy.toml` and scoped by
//! each package's `[lints.clippy]` table (docs/STATIC_ANALYSIS.md).
//!
//! Suppression grammar: `// audit:allow(<rule-id>): <justification>` on
//! the same line as the flagged token or in the contiguous comment block
//! immediately above it. An allow without a justification is itself a
//! violation.

use std::path::Path;

use crate::findings::Finding;

/// The only file allowed to pattern-match on `DirState`/`DirEvent` or
/// to test a row for an action: the guarded-action spec, the source of
/// truth and home of the one row executor. Anywhere else, such a match
/// is a shadow transition table and such a test a second execution
/// semantics for the rows.
const DIR_MATCH_HOME: &str = "crates/protocol/src/spec.rs";

/// A row action test: `SpecRow::has` called on an `Action`.
const ACTION_TEST: &str = concat!(".has", "(Action::");

/// A fake source file injected by the self-test machinery so seeded
/// violations produce deterministic `file:line` diagnostics without
/// touching the real tree.
#[derive(Debug, Clone)]
pub struct SyntheticFile {
    /// Workspace-relative path the file pretends to live at.
    pub path: &'static str,
    /// Its source text.
    pub text: String,
}

/// Runs every lint over `root`'s crate sources plus any injected
/// synthetic files. Returns the findings and the number of files
/// scanned.
pub fn run(root: &Path, extra: &[SyntheticFile]) -> (Vec<Finding>, usize) {
    let mut out = Vec::new();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();

    let mut scanned = 0usize;
    for abs in &files {
        let Ok(rel) = abs.strip_prefix(root) else {
            continue;
        };
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str.contains("/tests/") || rel_str.contains("/benches/") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(abs) else {
            continue;
        };
        scanned += 1;
        lint_file(&rel_str, &text, &mut out);
    }
    for syn in extra {
        scanned += 1;
        lint_file(syn.path, &syn.text, &mut out);
    }
    (out, scanned)
}

/// Lints one file's text under its workspace-relative path.
fn lint_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    if rel == DIR_MATCH_HOME {
        return;
    }
    let raw: Vec<&str> = text.lines().collect();
    let stripped_text = strip_comments_and_strings(text);
    let stripped: Vec<&str> = stripped_text.lines().collect();
    let test_mask = test_module_mask(&stripped);

    for (i, line) in stripped.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let lineno = i + 1;
        // A `DirState::X =>` / `DirEvent::X =>` arm is protocol
        // decision logic living outside the spec. (Expression uses
        // — passing a variant to the spec API — carry no `=>`.) An
        // action test runs a row outside `SpecRow::effect`.
        let is_arm = ["DirState::", "DirEvent::"]
            .iter()
            .any(|tok| line.find(tok).is_some_and(|pos| line[pos..].contains("=>")));
        if (is_arm || line.contains(ACTION_TEST)) && !allowed(&raw, i, rel, lineno, out) {
            out.push(Finding::new(
                "dir-match",
                rel,
                lineno,
                "`match` arm on DirState/DirEvent or a row action test outside the \
                 guarded-action spec — protocol decisions must come from \
                 hmg_protocol::spec rows (the table the audit proves), executed by \
                 `SpecRow::effect`, not a hand-rolled shadow table. Call \
                 `ProtocolSpec::row` and read the row's `effect`, or justify with \
                 `// audit:allow(dir-match): <why this is not transition logic>`",
            ));
        }
    }
}

/// Whether the flagged line (0-indexed `i` in `raw`) carries an
/// `audit:allow(dir-match)` on the same line or in the contiguous comment
/// block immediately above. Pushes a finding if an allow is present but
/// gives no justification.
fn allowed(raw: &[&str], i: usize, rel: &str, lineno: usize, out: &mut Vec<Finding>) -> bool {
    const MARKER: &str = "audit:allow(dir-match)";
    let above = raw[..i].iter().rev().take_while(|l| {
        let t = l.trim_start();
        t.starts_with("//") || t.starts_with("#[")
    });
    let Some(rest) = std::iter::once(&raw[i])
        .chain(above)
        .find_map(|l| l.find(MARKER).map(|pos| &l[pos + MARKER.len()..]))
    else {
        return false;
    };
    // Require `): justification` — a bare allow is not a justification.
    let justified = rest
        .trim_start()
        .strip_prefix(':')
        .is_some_and(|r| !r.trim().is_empty());
    if !justified {
        out.push(Finding::new(
            "dir-match",
            rel,
            lineno,
            "audit:allow without a justification — write \
             `// audit:allow(dir-match): <why this is sound>`",
        ));
    }
    true
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Blanks comments, string literals, and char literals (preserving the
/// line structure) so token matching only sees code. Handles nested
/// block comments, escapes, raw strings, and lifetimes-vs-char-literals.
fn strip_comments_and_strings(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let n = b.len();
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };

    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"..." / r#"..."# (optionally b-prefixed).
        let raw_at = |j: usize| -> Option<usize> {
            if j < n && b[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0;
                while k < n && b[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == '"' {
                    return Some(hashes);
                }
            }
            None
        };
        let (raw_start, hashes) = if let Some(h) = raw_at(i) {
            (Some(i), h)
        } else if c == 'b' {
            if let Some(h) = raw_at(i + 1) {
                (Some(i), h)
            } else {
                (None, 0)
            }
        } else {
            (None, 0)
        };
        if let Some(start) = raw_start {
            // Skip prefix + opening quote.
            let mut j = start;
            while j < n && b[j] != '"' {
                out.push(' ');
                j += 1;
            }
            out.push(' ');
            j += 1;
            // Scan to closing quote followed by `hashes` hashes.
            while j < n {
                if b[j] == '"' {
                    let mut k = j + 1;
                    let mut h = 0;
                    while k < n && b[k] == '#' && h < hashes {
                        h += 1;
                        k += 1;
                    }
                    if h == hashes {
                        for _ in j..k {
                            out.push(' ');
                        }
                        j = k;
                        break;
                    }
                }
                out.push(blank(b[j]));
                j += 1;
            }
            i = j;
            continue;
        }
        // Plain string (optionally b-prefixed).
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: `'a` keeps, `'x'` / `'\n'` blanks.
        if c == '\'' {
            let is_char = if i + 1 < n && b[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && b[i + 2] == '\''
            };
            if is_char {
                out.push(' ');
                i += 1;
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        out.push(' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Marks the lines belonging to `#[cfg(test)]` items (modules or
/// functions) via brace counting on the stripped text.
fn test_module_mask(stripped: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; stripped.len()];
    let mut pending = false;
    let mut active = false;
    let mut depth: i64 = 0;
    for (i, line) in stripped.iter().enumerate() {
        if !pending && !active && line.contains("#[cfg(test)]") {
            pending = true;
        }
        if pending || active {
            mask[i] = true;
            for ch in line.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        active = true;
                        pending = false;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if active && depth <= 0 {
                active = false;
                depth = 0;
            }
        }
    }
    mask
}

/// Synthetic file for the `dir-match` seeded-violation self-test: a
/// hand-rolled shadow of the transition table in engine territory, and
/// a row executed by testing its actions outside `SpecRow::effect`.
pub fn synthetic_dir_match_file() -> SyntheticFile {
    SyntheticFile {
        path: "crates/gpu/src/__audit_selftest_dirmatch.rs",
        text: format!(
            "use hmg_protocol::{{DirEvent, DirState}};\n\n\
             pub fn shadow_transition(s: DirState, e: DirEvent) -> DirState {{\n    \
             match (s, e) {{\n        \
             (DirState::Invalid, DirEvent::RemoteLoad) => DirState::Valid,\n        \
             _ => s,\n    }}\n}}\n\n\
             pub fn shadow_action(row: &SpecRow) -> bool {{\n    \
             row{ACTION_TEST}AddSharer)\n}}\n"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn the_tree_is_clean() {
        let (findings, scanned) = run(&root(), &[]);
        assert!(findings.is_empty(), "{findings:#?}");
        assert!(scanned > 20, "only scanned {scanned} files");
    }

    #[test]
    fn injected_dir_match_is_reported_with_location() {
        let (findings, _) = run(&root(), &[synthetic_dir_match_file()]);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == "dir-match").collect();
        assert_eq!(hits.len(), 2, "{findings:?}");
        assert_eq!(hits[0].line, 5, "the shadow arm is on line 5");
        assert_eq!(hits[1].line, 11, "the shadow action test is on line 11");
        assert!(hits[0]
            .file
            .to_string_lossy()
            .contains("__audit_selftest_dirmatch"));
    }

    #[test]
    fn dir_match_rule_spares_the_spec_and_expression_uses() {
        // The same arm and action test inside the spec itself are the
        // source of truth and its executor, not a shadow; and
        // expression-position variants never fire.
        let in_spec = SyntheticFile {
            path: "crates/protocol/src/spec.rs",
            text: format!(
                "fn f(s: DirState) -> &'static str {{\n    \
                 match s {{\n        DirState::Invalid => \"I\",\n        \
                 DirState::Valid => \"V\",\n    }}\n}}\n\
                 fn g(row: &SpecRow) -> bool {{\n    row{ACTION_TEST}Defer)\n}}\n"
            ),
        };
        let expr_use = SyntheticFile {
            path: "crates/gpu/src/__audit_selftest_dirmatch_expr.rs",
            text: "pub fn g() {\n    let _ = hmg_protocol::DirEvent::RemoteLoad;\n}\n".to_string(),
        };
        let (findings, _) = run(&root(), &[in_spec, expr_use]);
        assert!(
            findings.iter().all(|f| f.rule != "dir-match"),
            "{findings:?}"
        );
        // The engine, the replay and the model read rows through
        // `effect` only: an action test in any of them is a finding.
        for path in [
            "crates/gpu/src/engine/directory.rs",
            "crates/protocol/src/conformance.rs",
            "crates/audit/src/model.rs",
        ] {
            let text = format!("fn f(row: &SpecRow) -> bool {{\n    row{ACTION_TEST}Defer)\n}}\n");
            let (findings, _) = run(&root(), &[SyntheticFile { path, text }]);
            let hits = findings.iter().filter(|f| f.rule == "dir-match");
            assert_eq!(hits.count(), 1, "{path}: {findings:?}");
        }
    }

    /// A live shadow arm for the lexer tests' control lines.
    const LIVE_ARM: &str =
        "pub fn f(s: DirState) -> u8 { match s { DirState::Valid => 1, _ => 0 } }";

    #[test]
    fn tokens_inside_strings_and_comments_do_not_fire() {
        let syn = SyntheticFile {
            path: "crates/gpu/src/__audit_selftest_quiet.rs",
            text: format!(
                "// DirState::Valid => in a comment is fine\n\
                 pub const DOC: &str = \"DirEvent::Replace => inside a string\";\n\
                 /* row{ACTION_TEST}Defer) in a block comment */\n\
                 pub const RAW: &str = r#\"x\" DirState::Invalid => \"y\"#;\n\
                 {LIVE_ARM}\n"
            ),
        };
        let (findings, _) = run(&root(), &[syn]);
        // Only the live arm on line 5 fires.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5, "{findings:?}");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let syn = SyntheticFile {
            path: "crates/gpu/src/__audit_selftest_testmod.rs",
            text: format!(
                "pub fn fine() {{}}\n\n\
                 #[cfg(test)]\nmod tests {{\n    #[test]\n    fn t(row: &SpecRow) {{\n        \
                 assert!(match DirState::Valid {{ DirState::Valid => true, _ => false }});\n        \
                 assert!(!row{ACTION_TEST}Defer));\n    }}\n}}\n\
                 {LIVE_ARM}\n"
            ),
        };
        let (findings, _) = run(&root(), &[syn]);
        // The mask ends with the module: the arm after it fires.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 11, "{findings:?}");
    }

    #[test]
    fn allow_requires_a_justification() {
        let syn = SyntheticFile {
            path: "crates/gpu/src/__audit_selftest_allow.rs",
            text: format!(
                "// audit:allow(dir-match)\n{LIVE_ARM}\n\
                 // audit:allow(dir-match): a display helper, not transition logic\n{LIVE_ARM}\n"
            ),
        };
        let (findings, _) = run(&root(), &[syn]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2, "{findings:?}");
        assert!(findings[0].msg.contains("justification"), "{findings:?}");
    }

    #[test]
    fn clippy_rules_are_scoped_to_the_simulator_state_packages() {
        // The generic rules live in crates/clippy.toml; each package's
        // `[lints.clippy]` table decides which bind it. A lost or
        // loosened table would silently drop a package from the check.
        let config = std::fs::read_to_string(root().join("crates/clippy.toml")).expect("config");
        for path in [
            "std::time::Instant::now",
            "std::time::SystemTime::now",
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::collections::BTreeMap",
            "std::collections::BTreeSet",
            "std::collections::BinaryHeap",
        ] {
            assert!(config.contains(&format!("path = \"{path}\"")), "{path}");
        }
        let sim_state = ["sim", "gpu", "mem", "interconnect", "protocol"];
        let mut seen = 0;
        for dir in std::fs::read_dir(root().join("crates")).expect("crates/") {
            let dir = dir.expect("entry").path();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let table: Vec<&str> = manifest
                .split_once("[lints.clippy]")
                .map_or("", |(_, rest)| rest)
                .lines()
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            let name = dir.file_name().expect("name").to_string_lossy();
            if sim_state.contains(&&*name) {
                seen += 1;
                assert_eq!(
                    table,
                    ["unwrap_used = \"warn\"", "expect_used = \"warn\""],
                    "{name}"
                );
            } else {
                assert_eq!(table, ["disallowed_types = \"allow\""], "{name}");
            }
        }
        assert_eq!(seen, sim_state.len());
    }
}

//! Source-hygiene linter (std-only, no syn/proc-macro dependencies).
//!
//! Scans the workspace's crate sources with a small lexical pass that
//! blanks comments and string literals (so tokens inside docs or
//! messages never fire) and skips `#[cfg(test)]` modules and `tests/`
//! integration files. Six rules:
//!
//! * `unordered-map` — no iteration-order-sensitive `HashMap`/`HashSet`
//!   in simulator-state crates (sim, gpu, mem, interconnect, protocol).
//!   Iteration order of std hash maps is randomized per process, so any
//!   map that feeds simulated state breaks same-seed reproducibility.
//!   Use `BTreeMap`/`BTreeSet`, or annotate `// audit:allow(unordered-map): why`.
//! * `entropy` — no wall-clock or OS entropy (`SystemTime::now`,
//!   `Instant::now`, `OsRng`, ...) anywhere outside `sim/src/rng.rs`;
//!   simulated time comes from the event queue and randomness from the
//!   seeded `hmg_sim::rng` stream.
//! * `panic-path` — no `.unwrap()` / `.expect(` in the protocol, mem,
//!   sim, gpu, and interconnect hot paths; fallible paths return typed
//!   `SimError`s. Documented panicking wrappers carry an
//!   `audit:allow(panic-path)` justification.
//! * `stats-registration` — every public counter field of a `*Stats`
//!   struct in `sim/src/stats.rs` must be printed by that struct's
//!   `Display` impl, so no counter silently vanishes from reports.
//! * `hot-path-struct` — no `BinaryHeap`/`BTreeMap`/`BTreeSet` in the
//!   files the DES hot-path rewrite moved onto calendar-bucket and
//!   flat-array structures (see DESIGN.md). Tree-based std collections
//!   cost a pointer chase per probe and must not creep back into those
//!   files; the retained reference oracle carries an explicit
//!   `audit:allow(hot-path-struct)` justification.
//! * `dir-match` — no `match` arms on `DirState::` / `DirEvent::`
//!   patterns and no row action tests (`SpecRow::has`) outside the
//!   guarded-action spec. The spec rows and their one executor,
//!   `SpecRow::effect`, are the single source of truth for protocol
//!   decisions; the engine, the conformance replay and the model
//!   checker all read rows through `effect`. A hand-rolled match or
//!   action test elsewhere is a shadow transition table that can
//!   silently drift from the proved one.
//!
//! Suppression grammar: `// audit:allow(<rule-id>): <justification>` on
//! the same line as the flagged token or in the contiguous comment block
//! immediately above it. An allow without a justification is itself a
//! violation.

use std::path::Path;

use crate::findings::Finding;

/// Crates whose state must iterate deterministically.
const SIM_STATE_CRATES: &[&str] = &["sim", "gpu", "mem", "interconnect", "protocol"];

/// The one file allowed to touch OS entropy (it defines the seeded
/// deterministic stream everything else must use).
const ENTROPY_WHITELIST: &[&str] = &["crates/sim/src/rng.rs"];

/// Files the DES hot-path rewrite moved onto calendar-bucket / flat
/// structures; tree-based std collections must not creep back in. The
/// `__audit_selftest` entry routes the seeded self-test's synthetic
/// file through the rule without touching the real tree.
const HOT_PATH_FILES: &[&str] = &[
    "crates/sim/src/event.rs",
    "crates/sim/src/collect.rs",
    "crates/gpu/src/engine.rs",
    "crates/gpu/src/engine/directory.rs",
    "crates/gpu/src/engine/recovery.rs",
    "crates/gpu/src/engine/snapshot.rs",
    "crates/interconnect/src/fabric.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/page.rs",
    "crates/mem/src/version.rs",
    "crates/sim/src/__audit_selftest_hotpath.rs",
];

/// Tree-based std collections that trade a pointer chase per probe for
/// ordering the hot path does not need.
const HOT_PATH_TOKENS: &[&str] = &["BinaryHeap", "BTreeMap", "BTreeSet"];

/// The only file allowed to pattern-match on `DirState`/`DirEvent` or
/// to test a row for an action: the guarded-action spec, the source of
/// truth and home of the one row executor. Anywhere else, such a match
/// is a shadow transition table and such a test a second execution
/// semantics for the rows.
const DIR_MATCH_HOME: &str = "crates/protocol/src/spec.rs";

/// A row action test: `SpecRow::has` called on an `Action`.
const ACTION_TEST: &str = concat!(".has", "(Action::");

/// Tokens that read wall-clock time or OS entropy.
const ENTROPY_TOKENS: &[&str] = &[
    "SystemTime::now",
    "Instant::now",
    "OsRng",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "rand::random",
];

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
    out.extend(check_stats_registration(root));
    (out, scanned)
}

/// Crate name for a workspace-relative path like `crates/gpu/src/engine.rs`.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// Lints one file's text under its workspace-relative path.
fn lint_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    let krate = crate_of(rel);
    let sim_state = SIM_STATE_CRATES.contains(&krate);
    let entropy_ok = ENTROPY_WHITELIST.contains(&rel);
    let hot_path = HOT_PATH_FILES.contains(&rel);
    let dir_match_ok = rel == DIR_MATCH_HOME;

    let raw: Vec<&str> = text.lines().collect();
    let stripped_text = strip_comments_and_strings(text);
    let stripped: Vec<&str> = stripped_text.lines().collect();
    let test_mask = test_module_mask(&stripped);

    for (i, line) in stripped.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let lineno = i + 1;

        if !entropy_ok {
            for tok in ENTROPY_TOKENS {
                if line.contains(tok) && !allowed(&raw, i, "entropy", rel, lineno, out) {
                    out.push(Finding::new(
                        "entropy",
                        rel,
                        lineno,
                        format!(
                            "`{tok}` reads wall-clock time or OS entropy — simulated state \
                             must derive time from the event queue and randomness from the \
                             seeded sim/src/rng.rs stream, or the run is not reproducible"
                        ),
                    ));
                }
            }
        }

        if sim_state {
            for tok in ["HashMap", "HashSet"] {
                if contains_word(line, tok) && !allowed(&raw, i, "unordered-map", rel, lineno, out)
                {
                    out.push(Finding::new(
                        "unordered-map",
                        rel,
                        lineno,
                        format!(
                            "`{tok}` iterates in process-random order inside a simulator-state \
                             crate — use BTreeMap/BTreeSet so same-seed runs stay bit-identical"
                        ),
                    ));
                }
            }
            for tok in [".unwrap()", ".expect("] {
                if line.contains(tok) && !allowed(&raw, i, "panic-path", rel, lineno, out) {
                    out.push(Finding::new(
                        "panic-path",
                        rel,
                        lineno,
                        format!(
                            "`{tok}` on a simulator hot path — return a typed SimError instead, \
                             or justify with `// audit:allow(panic-path): <why infallible>`"
                        ),
                    ));
                }
            }
        }

        if !dir_match_ok {
            // A `DirState::X =>` / `DirEvent::X =>` arm is protocol
            // decision logic living outside the spec. (Expression uses
            // — passing a variant to the spec API — carry no `=>`.) An
            // action test runs a row outside `SpecRow::effect`.
            let is_arm = ["DirState::", "DirEvent::"]
                .iter()
                .any(|tok| line.find(tok).is_some_and(|pos| line[pos..].contains("=>")));
            if (is_arm || line.contains(ACTION_TEST))
                && !allowed(&raw, i, "dir-match", rel, lineno, out)
            {
                out.push(Finding::new(
                    "dir-match",
                    rel,
                    lineno,
                    "`match` arm on DirState/DirEvent or a row action test outside the \
                     guarded-action spec — protocol decisions must come from \
                     hmg_protocol::spec rows (the table the audit proves), executed by \
                     `SpecRow::effect`, not a hand-rolled shadow table. Call \
                     `ProtocolSpec::row` and read the row's `effect`, or justify with \
                     `// audit:allow(dir-match): <why this is not transition logic>`"
                        .to_string(),
                ));
            }
        }

        if hot_path {
            for tok in HOT_PATH_TOKENS {
                if contains_word(line, tok)
                    && !allowed(&raw, i, "hot-path-struct", rel, lineno, out)
                {
                    out.push(Finding::new(
                        "hot-path-struct",
                        rel,
                        lineno,
                        format!(
                            "`{tok}` in a DES hot-path file — these files were rewritten onto \
                             calendar-bucket / flat-array structures; a tree pays a pointer \
                             chase per probe. Use the flat replacements, or justify with \
                             `// audit:allow(hot-path-struct): <why this is off the hot path>`"
                        ),
                    ));
                }
            }
        }
    }
}

/// Whether the flagged line (0-indexed `i` in `raw`) carries an
/// `audit:allow(<rule>)` on the same line or in the contiguous comment
/// block immediately above. Pushes a finding if an allow is present but
/// gives no justification.
fn allowed(
    raw: &[&str],
    i: usize,
    rule: &str,
    rel: &str,
    lineno: usize,
    out: &mut Vec<Finding>,
) -> bool {
    let marker = format!("audit:allow({rule})");
    let check = |line: &str| -> Option<bool> {
        let pos = line.find(&marker)?;
        let rest = &line[pos + marker.len()..];
        // Require `): justification` — a bare allow is not a justification.
        let justified = rest
            .trim_start()
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        Some(justified)
    };
    if let Some(justified) = check(raw[i]) {
        if !justified {
            out.push(Finding::new(
                rule,
                rel,
                lineno,
                "audit:allow without a justification — write \
                 `// audit:allow(rule): <why this is sound>`",
            ));
        }
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = raw[j].trim_start();
        if !(t.starts_with("//") || t.starts_with("#[")) {
            break;
        }
        if let Some(justified) = check(raw[j]) {
            if !justified {
                out.push(Finding::new(
                    rule,
                    rel,
                    lineno,
                    "audit:allow without a justification — write \
                     `// audit:allow(rule): <why this is sound>`",
                ));
            }
            return true;
        }
    }
    false
}

/// `needle` appears in `line` as a standalone identifier (not a
/// substring of a longer identifier like `MyHashMapWrapper`).
fn contains_word(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
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

/// Every public field of a `*Stats` struct in `sim/src/stats.rs` must be
/// printed by that struct's `Display` impl.
fn check_stats_registration(root: &Path) -> Vec<Finding> {
    let rel = "crates/sim/src/stats.rs";
    let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
        return vec![Finding::new(
            "stats-registration",
            rel,
            1,
            "sim/src/stats.rs not found — the stats registry is gone",
        )];
    };
    let mut out = Vec::new();
    let lines: Vec<&str> = text.lines().collect();

    // Find each `pub struct FooStats {` and collect its pub fields.
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim();
        let header = t
            .strip_prefix("pub struct ")
            .and_then(|r| r.split_whitespace().next())
            .filter(|name| name.ends_with("Stats"));
        let Some(name) = header else {
            i += 1;
            continue;
        };
        let mut fields: Vec<(String, usize)> = Vec::new();
        let mut j = i + 1;
        while j < lines.len() && !lines[j].trim().starts_with('}') {
            let ft = lines[j].trim();
            if let Some(rest) = ft.strip_prefix("pub ") {
                if let Some((fname, _)) = rest.split_once(':') {
                    fields.push((fname.trim().to_string(), j + 1));
                }
            }
            j += 1;
        }

        // Extract the Display impl body for this struct.
        let display_body = extract_impl_block(&lines, &format!("Display for {name}"));
        match display_body {
            None => out.push(Finding::new(
                "stats-registration",
                rel,
                i + 1,
                format!("{name} has no Display impl — its counters are unreportable"),
            )),
            Some(body) => {
                for (fname, fline) in &fields {
                    if !body.contains(fname.as_str()) {
                        out.push(Finding::new(
                            "stats-registration",
                            rel,
                            *fline,
                            format!(
                                "counter `{fname}` of {name} is never printed by its Display \
                                 impl — the stat is collected but silently dropped from reports"
                            ),
                        ));
                    }
                }
            }
        }
        i = j + 1;
    }
    out
}

/// Returns the text of the brace-delimited block whose header line
/// contains `header_needle`.
fn extract_impl_block(lines: &[&str], header_needle: &str) -> Option<String> {
    let start = lines.iter().position(|l| l.contains(header_needle))?;
    let mut depth: i64 = 0;
    let mut body = String::new();
    let mut started = false;
    for line in &lines[start..] {
        body.push_str(line);
        body.push('\n');
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth <= 0 {
            break;
        }
    }
    Some(body)
}

/// Synthetic file for the `entropy` seeded-violation self-test.
pub fn synthetic_entropy_file() -> SyntheticFile {
    SyntheticFile {
        path: "crates/gpu/src/__audit_selftest_entropy.rs",
        text: "pub fn smuggled_clock() -> std::time::SystemTime {\n    \
               std::time::SystemTime::now()\n}\n"
            .to_string(),
    }
}

/// Synthetic file for the `unordered-map` seeded-violation self-test.
pub fn synthetic_unordered_map_file() -> SyntheticFile {
    SyntheticFile {
        path: "crates/mem/src/__audit_selftest_unordered.rs",
        text: "use std::collections::HashMap;\n\n\
               pub struct Sharers {\n    pub by_gpm: HashMap<u32, u64>,\n}\n"
            .to_string(),
    }
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

/// Synthetic file for the `hot-path-struct` seeded-violation self-test.
pub fn synthetic_hot_path_file() -> SyntheticFile {
    SyntheticFile {
        path: "crates/sim/src/__audit_selftest_hotpath.rs",
        text: "use std::collections::BTreeMap;\n\n\
               pub struct Calendar {\n    pub pending: BTreeMap<u64, u32>,\n}\n"
            .to_string(),
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
    fn injected_entropy_is_reported_with_location() {
        let (findings, _) = run(&root(), &[synthetic_entropy_file()]);
        let f = findings
            .iter()
            .find(|f| f.rule == "entropy")
            .expect("entropy finding");
        assert!(f
            .file
            .to_string_lossy()
            .contains("__audit_selftest_entropy"));
        assert_eq!(f.line, 2, "the SystemTime::now() call is on line 2");
    }

    #[test]
    fn injected_unordered_map_is_reported_with_location() {
        let (findings, _) = run(&root(), &[synthetic_unordered_map_file()]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "unordered-map")
            .collect();
        assert_eq!(hits.len(), 2, "import + field: {findings:?}");
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 4);
    }

    #[test]
    fn injected_hot_path_struct_is_reported_with_location() {
        let (findings, _) = run(&root(), &[synthetic_hot_path_file()]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "hot-path-struct")
            .collect();
        assert_eq!(hits.len(), 2, "import + field: {findings:?}");
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 4);
        assert!(hits[0]
            .file
            .to_string_lossy()
            .contains("__audit_selftest_hotpath"));
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

    #[test]
    fn hot_path_rule_is_scoped_to_the_designated_files() {
        // The same BTreeMap outside the designated file list is not a
        // hot-path violation (ordered trees are fine in cold code).
        let syn = SyntheticFile {
            path: "crates/plot/src/__audit_selftest_coldpath.rs",
            text: "use std::collections::BTreeMap;\n\
                   pub type Series = BTreeMap<u64, f64>;\n"
                .to_string(),
        };
        let (findings, _) = run(&root(), &[syn]);
        assert!(
            findings.iter().all(|f| f.rule != "hot-path-struct"),
            "{findings:?}"
        );
    }

    #[test]
    fn tokens_inside_strings_and_comments_do_not_fire() {
        let syn = SyntheticFile {
            path: "crates/sim/src/__audit_selftest_quiet.rs",
            text: "// HashMap in a comment is fine\n\
                   pub const DOC: &str = \"Instant::now() inside a string\";\n\
                   /* .unwrap() in a block comment */\n"
                .to_string(),
        };
        let (findings, _) = run(&root(), &[syn]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let syn = SyntheticFile {
            path: "crates/sim/src/__audit_selftest_testmod.rs",
            text: "pub fn fine() {}\n\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    \
                   #[test]\n    fn t() {\n        let m: HashMap<u8, u8> = HashMap::new();\n        \
                   assert!(m.is_empty());\n        let _ = std::time::Instant::now();\n    }\n}\n"
                .to_string(),
        };
        let (findings, _) = run(&root(), &[syn]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_requires_a_justification() {
        let syn = SyntheticFile {
            path: "crates/sim/src/__audit_selftest_allow.rs",
            text: "// audit:allow(unordered-map)\n\
                   pub type M = std::collections::HashMap<u8, u8>;\n"
                .to_string(),
        };
        let (findings, _) = run(&root(), &[syn]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].msg.contains("justification"), "{findings:?}");
    }

    #[test]
    fn word_boundaries_protect_wrapper_types() {
        assert!(contains_word("let m: HashMap<u8, u8>;", "HashMap"));
        assert!(!contains_word("let m: OrderedHashMap<u8, u8>;", "HashMap"));
        assert!(!contains_word("let m: HashMapLike;", "HashMap"));
    }

    #[test]
    fn stats_fields_are_all_registered() {
        let findings = check_stats_registration(&root());
        assert!(findings.is_empty(), "{findings:?}");
    }
}

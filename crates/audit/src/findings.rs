//! Audit findings: one rule violation, pinned to a source location.

use std::fmt;
use std::path::{Path, PathBuf};

/// One violation an audit engine found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`incomplete-row`, `undeclared-consumer`,
    /// `waitsfor-cycle`, `waitsfor-evidence`, `dir-match`,
    /// `model-violation`).
    pub rule: String,
    /// Path of the offending file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-indexed line the finding anchors to.
    pub line: usize,
    /// Human-readable diagnosis.
    pub msg: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(
        rule: impl Into<String>,
        file: impl Into<PathBuf>,
        line: usize,
        msg: impl Into<String>,
    ) -> Self {
        Finding {
            rule: rule.into(),
            file: file.into(),
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// Locates `needle` in `file` under `root`, returning its 1-indexed line
/// so findings about *model-level* facts (table cells, waits-for edges)
/// still point at real source. Falls back to line 1 when the file or the
/// needle cannot be found (e.g. auditing a partial checkout).
pub fn locate(root: &Path, file: &Path, needle: &str) -> usize {
    let Ok(text) = std::fs::read_to_string(root.join(file)) else {
        return 1;
    };
    text.lines()
        .position(|l| l.contains(needle))
        .map_or(1, |i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_rule_msg() {
        let f = Finding::new("dir-match", "crates/x/src/a.rs", 7, "shadow arm");
        assert_eq!(f.to_string(), "crates/x/src/a.rs:7: [dir-match] shadow arm");
    }

    #[test]
    fn locate_falls_back_to_line_one() {
        let tmp = std::env::temp_dir();
        assert_eq!(locate(&tmp, Path::new("no-such-file.rs"), "x"), 1);
    }
}

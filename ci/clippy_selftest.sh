#!/bin/sh
# Seeded self-test of the clippy rules in crates/clippy.toml: plants one
# violation of each rule in a file the rule covers, requires
# `cargo clippy -p <crate> -- -D warnings` to fail for that rule's lint
# (so a build break cannot pass), and restores the tree with
# `git checkout -- crates`. Run from the workspace root of a git
# checkout with a clean `crates/`; exits non-zero on the first miss.
set -eu

plant() { # plant CRATE FILE LINT SOURCE-LINE
    printf '\n/// Planted rule violation.\n%s\n' "$4" >> "$2"
    if cargo clippy -q -p "$1" -- -D warnings > clippy-selftest.log 2>&1; then
        git checkout -- crates
        echo "clippy missed the planted $3 in $2" >&2
        exit 1
    fi
    git checkout -- crates
    if ! grep -q "index.html#$3" clippy-selftest.log; then
        cat clippy-selftest.log >&2
        echo "clippy failed on $2, but not for $3" >&2
        exit 1
    fi
    echo "caught: $3 in $2"
}

plant hmg-gpu crates/gpu/src/engine.rs disallowed_methods \
    'pub fn planted_clock() -> std::time::SystemTime { std::time::SystemTime::now() }'
plant hmg-mem crates/mem/src/cache.rs disallowed_types \
    'pub struct PlantedSharers { pub by_line: std::collections::HashMap<u64, u64> }'
plant hmg-sim crates/sim/src/event.rs disallowed_types \
    'pub struct PlantedCalendar { pub pending: std::collections::BTreeMap<u64, u32> }'
plant hmg-interconnect crates/interconnect/src/fabric.rs unwrap_used \
    'pub fn planted_unwrap(x: Option<u64>) -> u64 { x.unwrap() }'
rm -f clippy-selftest.log

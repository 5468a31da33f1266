#!/bin/sh
# Non-test Rust lines per workspace crate, as a Markdown table.
#
# Counts every line (code, docs and blank) of each .rs file under a
# crate's src/, up to the file's first `#[cfg(test)]` line; integration
# tests, benches and examples are not counted. Every change reports its
# net line count with this one measure: run it before and after.
#
# Usage: scripts/loc.sh            (from anywhere in the repository)
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }'
}

total=0
echo "| crate | non-test lines |"
echo "|---|---:|"
for src in src crates/*/src; do
    case "$src" in
        src) name=dck ;;
        *) name=$(basename "$(dirname "$src")") ;;
    esac
    n=$(count "$src")
    total=$((total + n))
    echo "| $name | $n |"
done
echo "| **total** | $total |"

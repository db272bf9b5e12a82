#!/bin/sh
# Lines before the first `#[cfg(test)]` of every product source file, per
# file and summed per crate: the table simplification PRs count by.
# Usage: tools/loc.sh [ROOT]   (default: the repository this script is in)
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
done | awk '
    { crate = $2; if (!sub(/\/src\/.*/, "/src", crate)) crate = "src"
      sum[crate] += $1; total += $1; print }
    END { for (c in sum) print sum[c], c "  (total)" | "sort -k2"
          close("sort -k2"); print total, "all" }'

#!/usr/bin/env bash
# Non-test line counts of the simulator, the experiments layer and the job
# service. A file's non-test lines are those above its first `#[cfg(test)]`
# (all of its lines when it has none).
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the checkout holding this script)
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
total=0
for crate in pipeline experiments service; do
    lines=$(find "$root/crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 }
                      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
                      counting { n++ }
                      END { print n + 0 }')
    printf '%-24s %6d\n' "crates/$crate/src" "$lines"
    total=$((total + lines))
done
printf '%-24s %6d\n' total "$total"

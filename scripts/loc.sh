#!/usr/bin/env bash
# Non-test line counts of the LTP mechanism, the simulator, the experiments
# layer, the job service and the persistence codec. A file's non-test lines
# are those above its first `#[cfg(test)]` (all of its lines when it has
# none); a file compiled only through `#[cfg(test)] mod name;` is test code
# and not counted.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the checkout holding this script)
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
total=0
for crate in core pipeline experiments service snapshot; do
    lines=$(find "$root/crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            # While reading, note the files `#[cfg(test)] mod name;` pulls in;
            # count at the end, once every such file is known.
            FNR == 1 { dir = FILENAME; sub(/[^\/]*$/, "", dir); gated = 0 }
            gated && match($0, /^[[:space:]]*mod [A-Za-z_0-9]+;/) {
                name = $0; sub(/^[[:space:]]*mod /, "", name); sub(/;.*/, "", name)
                test_only[dir name ".rs"] = 1
            }
            { gated = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }
            { file[NR] = FILENAME; text[NR] = $0 }
            END {
                for (i = 1; i <= NR; i++) {
                    if (file[i] != file[i - 1]) counting = !(file[i] in test_only)
                    if (text[i] ~ /^[[:space:]]*#\[cfg\(test\)\]/) counting = 0
                    if (counting) n++
                }
                print n + 0
            }')
    printf '%-24s %6d\n' "crates/$crate/src" "$lines"
    total=$((total + lines))
done
printf '%-24s %6d\n' total "$total"

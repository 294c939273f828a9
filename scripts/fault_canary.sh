#!/usr/bin/env bash
# Fault-tolerance canary: proves the sampled runner's recovery machinery
# works end to end on the real binary, not just in unit tests.
#
#   1. A fault-free `experiments sample --quick` run with journaling on must
#      exit 0 and report journaling overhead <= 5% of the sampled wall-clock
#      (the fault-tolerant path must stay effectively free when nothing
#      fails).
#   2. The same run with an injected worker panic (`--inject panic@0`,
#      panicking interval 0 of every point) must lose that interval: exit 4
#      and print `DEGRADED RUN`. A resume over its journals must replay the
#      105 intervals it measured, simulate the 21 it lost, and print the
#      *same* result digest as the fault-free run: recovery is bit-exact,
#      not approximate.
#   3. A resume over the journals written in step 1 must replay intervals
#      (no re-simulation) and again reproduce the digest.
#
# The digest is the report's `result digest: 0x...` line — an FNV-1a over
# every measured interval's (workload, config, index, instructions, cycles).
#
# Usage: scripts/fault_canary.sh [OUT_DIR]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-fault-canary}"
BIN=(cargo run --release -q -p ltp --bin experiments --)
rm -rf "$OUT"
mkdir -p "$OUT"

digest_of() {
    # digest_of REPORT -> the hex digest, failing loudly if the line is gone
    awk '/^result digest:/ { print $3; found = 1 }
         END { if (!found) { print "no result digest line in " ARGV[1] > "/dev/stderr"; exit 1 } }' "$1"
}

echo "== fault canary: fault-free journaled run"
"${BIN[@]}" sample --quick --out "$OUT/clean" --journal "$OUT/journals"

# Journaling overhead gate: the breakdown line prints
#   ... journaling <S>s (<P>% of sampled wall-clock)
# The cost being gated is deterministic work, but the measurement rides on a
# shared CI host — take the best of up to three runs so a load spike on the
# box cannot fail the gate (a real regression fails all three).
GATE_OK=""
for attempt in 1 2 3; do
    if [[ "$attempt" -gt 1 ]]; then
        echo "canary: overhead gate retry $attempt"
        "${BIN[@]}" sample --quick --out "$OUT/clean" --journal "$OUT/journals"
    fi
    PCT="$(sed -n 's/.*journaling [0-9.]*s (\([0-9.]*\)% of sampled wall-clock).*/\1/p' "$OUT/clean/sample.txt")"
    if [[ -z "$PCT" ]]; then
        echo "canary: no journaling overhead in the breakdown line — report drift?" >&2
        exit 1
    fi
    echo "canary: journaling overhead ${PCT}% of sampled wall-clock"
    if awk -v pct="$PCT" 'BEGIN { exit !(pct + 0 <= 5.0) }'; then
        GATE_OK=1
        break
    fi
done
if [[ -z "$GATE_OK" ]]; then
    echo "canary: journaling overhead exceeds 5% on the fault-free path in 3 runs" >&2
    exit 1
fi
CLEAN_DIGEST="$(digest_of "$OUT/clean/sample.txt")"

echo "== fault canary: injected worker panic (lost, then recovered by resume)"
STATUS=0
"${BIN[@]}" sample --quick --out "$OUT/faulted" --journal "$OUT/faulted-journals" \
    --inject panic@0 || STATUS=$?
if [[ "$STATUS" -ne 4 ]]; then
    echo "canary: a run with a lost interval exited $STATUS, not 4 (partial)" >&2
    exit 1
fi
if ! grep -q "DEGRADED RUN" "$OUT/faulted/sample.txt"; then
    echo "canary: a lost interval must flag the run as degraded" >&2
    exit 1
fi
"${BIN[@]}" sample --quick --out "$OUT/recovered" --resume "$OUT/faulted-journals"
RECOVERED_DIGEST="$(digest_of "$OUT/recovered/sample.txt")"
if [[ "$RECOVERED_DIGEST" != "$CLEAN_DIGEST" ]]; then
    echo "canary: resume-recovered digest $RECOVERED_DIGEST != fault-free digest $CLEAN_DIGEST" >&2
    exit 1
fi
if ! grep -q "^resume: 105/126 intervals replayed" "$OUT/recovered/sample.txt"; then
    echo "canary: the recovering resume must replay exactly the 105 measured intervals" >&2
    exit 1
fi

echo "== fault canary: resume from the journals of the fault-free run"
"${BIN[@]}" sample --quick --out "$OUT/resumed" --resume "$OUT/journals"
RESUME_DIGEST="$(digest_of "$OUT/resumed/sample.txt")"
if [[ "$RESUME_DIGEST" != "$CLEAN_DIGEST" ]]; then
    echo "canary: resumed digest $RESUME_DIGEST != fault-free digest $CLEAN_DIGEST" >&2
    exit 1
fi
if ! grep -q "^resume: " "$OUT/resumed/sample.txt"; then
    echo "canary: resumed run did not report replayed intervals" >&2
    exit 1
fi

echo "fault canary passed: digest $CLEAN_DIGEST stable across fault injection and resume"

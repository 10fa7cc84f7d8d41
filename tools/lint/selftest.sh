#!/bin/sh
# Seed-and-restore self-test for ppdc-lint's concurrency rules.
#
# A lint gate that silently stops firing is worse than no gate, so CI
# re-proves the two hardest rules end to end on every run: append a
# lock-order inversion reached through a function call (R6 needs the
# interprocedural summary to see it) and a manual lock span that leaks
# the mutex on the raise path (R7) to the engine, assert each produces
# exactly one finding at the expected file:line:col, then restore the
# file and assert the tree is clean again.
#
# Run from anywhere; operates on the repo containing this script.
set -eu
cd "$(dirname "$0")/../.."

TARGET=lib/server/engine.ml
SEED=tools/lint/ci_seed.snippet
BACKUP=$(mktemp /tmp/ppdc-selftest.XXXXXX)

BASE=$(wc -l < "$TARGET")
# Offsets into ci_seed.snippet (1-based, counting its leading blank
# line): the R6 inversion is the seed_find_session call on line 7
# (col 38) — a shard lock taken through a callee (Registry.find) while
# a session lock is held — the R7 leak is the bare Mutex.lock on line
# 10 (col 2).
R6_LOC="$TARGET:$((BASE + 7)):38 [R6-lock-order]"
R7_LOC="$TARGET:$((BASE + 10)):2 [R7-unsafe-locking]"

cp "$TARGET" "$BACKUP"
trap 'cp "$BACKUP" "$TARGET"; rm -f "$BACKUP"' EXIT

cat "$SEED" >> "$TARGET"
dune build 2>&1 || { echo "selftest: seeded tree failed to build" >&2; exit 1; }

set +e
OUT=$(dune exec ppdc-lint -- -q lib bin bench 2>&1)
STATUS=$?
set -e

fail() {
  echo "selftest: $1" >&2
  echo "--- lint output ---" >&2
  echo "$OUT" >&2
  exit 1
}

[ "$STATUS" -eq 1 ] || fail "expected exit 1 on the seeded tree, got $STATUS"
echo "$OUT" | grep -F "$R6_LOC" > /dev/null || fail "missing R6 at $R6_LOC"
echo "$OUT" | grep -F "$R7_LOC" > /dev/null || fail "missing R7 at $R7_LOC"
[ "$(echo "$OUT" | grep -c 'R6-lock-order')" -eq 1 ] \
  || fail "expected exactly one R6 finding"
[ "$(echo "$OUT" | grep -c 'R7-unsafe-locking')" -eq 1 ] \
  || fail "expected exactly one R7 finding"

cp "$BACKUP" "$TARGET"
rm -f "$BACKUP"
trap - EXIT
dune build 2>&1
dune exec ppdc-lint -- -q lib bin bench \
  || { echo "selftest: restored tree is not clean" >&2; exit 1; }

echo "selftest: R6/R7 fire at the seeded locations and the restored tree is clean"

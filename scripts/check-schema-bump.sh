#!/usr/bin/env bash
# CI tripwire for store-schema discipline — results AND snapshots.
#
# Two content-addressed artifact generations live in the store, each with
# its own version string and its own golden fixture set:
#
#   1. Results. The fixtures under internal/exp/testdata/ (tables,
#      figures, result digests), internal/sched/testdata/ (the
#      controller's fixed-trace statistics) and
#      testdata/stepped_fractions.txt (the engine's stepped cycles) pin
#      the simulator's observable behavior, and exp.SchemaVersion salts
#      every result key. If a change alters one of them, the same change
#      MUST bump SchemaVersion — otherwise every warm store keeps serving
#      results computed under the old behavior, silently, forever.
#
#   2. Snapshots. internal/sim/testdata/ pins the serialized machine
#      state: golden.snap byte-for-byte (TestGoldenSnapshotBytes) and
#      every mechanism's checkpoints by digest (TestSnapshotDigests), and
#      snap.Version salts every checkpoint prefix key and is refused at
#      restore time on mismatch. If the fixture's bytes change, the same
#      change MUST bump snap.Version — otherwise stored snapshots would
#      restore into a machine they no longer describe (or, at best,
#      waste every warm checkpoint without retiring its key).
#
# This script fails when the diff against the given base modifies an
# existing golden fixture without also changing the corresponding version
# line. Newly added fixtures are exempt: they pin behavior that never had
# stored artifacts to go stale. scripts/regen.sh rewrites the fixtures; it
# bumps no version, so a bump stays a reviewed hand edit.
#
# Usage: scripts/check-schema-bump.sh <base-ref>   (e.g. origin/main)
set -euo pipefail

BASE="${1:?usage: check-schema-bump.sh <base-ref>}"

# version_at <ref> <file> <const-name>: the version string value at a ref.
# Matching the value (not diff lines) means a move/reformat of the const
# without a value change cannot fool the check.
version_at() {
    git show "$1:$2" 2>/dev/null \
        | sed -n "s/^const $3 = \"\(.*\)\"\$/\1/p"
}

# check_generation <label> <version-file> <const-name> <fixture-path>...
# Returns 0 when this generation needs no bump or got one; prints the
# failure story and returns 1 otherwise.
check_generation() {
    local label="$1" vfile="$2" vconst="$3"
    shift 3
    # --no-renames: a renamed-and-tweaked fixture must show as D+A, not
    # slip through as R (which --diff-filter=MD would exclude).
    local modified
    modified=$(git diff --no-renames --name-only --diff-filter=MD "$BASE"...HEAD -- "$@" || true)
    if [ -z "$modified" ]; then
        echo "schema tripwire [$label]: no golden fixture modified; no bump required"
        return 0
    fi
    local old new
    old=$(version_at "$BASE" "$vfile" "$vconst")
    new=$(version_at HEAD "$vfile" "$vconst")
    if [ -z "$new" ]; then
        echo "schema tripwire [$label]: cannot find $vconst in $vfile at HEAD" >&2
        return 1
    fi
    if [ "$old" != "$new" ]; then
        echo "schema tripwire [$label]: golden fixtures modified AND $vconst bumped ($old -> $new) — OK"
        echo "$modified" | sed 's/^/    /'
        return 0
    fi
    echo "schema tripwire [$label]: FAIL"
    echo
    echo "These golden fixtures changed:"
    echo "$modified" | sed 's/^/    /'
    echo
    echo "...but $vconst ($vfile) did not. A golden change means the"
    echo "stored artifact's bytes changed for the same key, so every warm"
    echo "store would keep serving stale pre-change artifacts. Bump"
    echo "$vconst in the same commit (and state the behavior change in"
    echo "the commit message), or revert the golden change."
    return 1
}

rc=0
check_generation "results" "internal/exp/spec.go" "SchemaVersion" \
    internal/exp/testdata internal/sched/testdata testdata/stepped_fractions.txt || rc=1
check_generation "snapshots" "internal/snap/snap.go" "Version" internal/sim/testdata || rc=1
exit $rc

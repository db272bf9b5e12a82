#!/bin/sh
# Scripted mutants smoke: is a test able to fail for the reason it exists?
# Usage: tools/mutants.sh <patch-dir | patch-file> <cargo-test-args...>
#   e.g. tools/mutants.sh tools/mutants --test group_sweep_equivalence
# Copies the tree (tracked and untracked-but-not-ignored files) to a
# temporary directory, checks that `cargo test <args>` passes there
# unpatched, then applies each `<patch-dir>/*.patch` (or the one patch
# file) in turn, reruns the test and reverts. Exit 0 iff the unpatched run
# passes and every mutant is killed (its run fails); the survivors are
# listed otherwise. One rebuild per patch, so this is a tool for the PR
# that touches the mutated code, not a CI step. Honours TMPDIR.
set -u
[ $# -ge 2 ] || { echo "usage: $0 <patch-dir | patch-file> <cargo-test-args...>" >&2; exit 1; }
root=$(cd "$(dirname "$0")/.." && pwd) || exit 1
if [ -d "$1" ]; then
    patches=$(cd "$1" && pwd) || exit 1
    ls "$patches"/*.patch >/dev/null 2>&1 || { echo "no *.patch in $patches" >&2; exit 1; }
    glob='*.patch'
else
    [ -f "$1" ] || { echo "no such patch or directory: $1" >&2; exit 1; }
    patches=$(cd "$(dirname "$1")" && pwd) || exit 1
    glob=$(basename "$1")
fi
shift

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX") || exit 1
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -co --exclude-standard -z | xargs -0 cp --parents -t "$work") || exit 1
cd "$work" || exit 1
run() { CARGO_TARGET_DIR="$work/target" cargo test --offline -q "$@" >"$work/log" 2>&1; }

if ! run "$@"; then
    tail -n 30 "$work/log"
    echo "the unpatched tree fails \`cargo test $*\`: nothing to conclude" >&2
    exit 1
fi
survivors=""
for patch in "$patches"/$glob; do
    name=$(basename "$patch" .patch)
    git apply "$patch" || { echo "$name: does not apply" >&2; exit 1; }
    if run "$@"; then
        echo "SURVIVED  $name"
        survivors="$survivors $name"
    else
        echo "killed    $name"
    fi
    git apply -R "$patch" || exit 1
done
[ -z "$survivors" ] || { echo "survivors:$survivors" >&2; exit 1; }

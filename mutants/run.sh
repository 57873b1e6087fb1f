#!/bin/sh
# Runs the mutation catalogue in mutants/INDEX.
#
#   mutants/run.sh [FILTER]   run every mutant whose patch name contains FILTER
#   mutants/run.sh --check    only check that every patch still applies
#
# Each mutant is applied in one reused worktree at target/mutants/tree,
# checked out at HEAD and built into target/mutants/target, so that each
# mutant rebuilds only the crates its patch touches; its named tests run
# in release. A mutant is `killed` when they fail, `survived` when they
# pass, and `stale` when its patch no longer applies or the mutated tree
# does not build. Any survived or stale mutant makes the run exit 1.
set -u
check=0 filter=
for arg in "$@"; do
    case $arg in
    --check) check=1 ;;
    -*) sed -n '4,5p' "$0" >&2; exit 2 ;;
    *) filter=$arg ;;
    esac
done
root=$(git rev-parse --show-toplevel) && cd "$root" || exit 2
tree=target/mutants/tree log=target/mutants/log
export CARGO_TARGET_DIR="$root/target/mutants/target"
if [ "$check" -eq 0 ]; then
    if [ -e "$tree/.git" ]; then
        git -C "$tree" checkout -q --detach "$(git rev-parse HEAD)" && git -C "$tree" reset -q --hard
    else
        mkdir -p target/mutants && git worktree add -q --detach "$tree" HEAD
    fi || exit 2
fi

total=0 failed=0 start=$(date +%s)
while read -r patch package target tests claim; do
    case $patch in '' | '#'*) continue ;; *"$filter"*) ;; *) continue ;; esac
    total=$((total + 1))
    if [ "$check" -eq 1 ]; then
        verdict=applies
        git apply --check "mutants/$patch" 2>/dev/null || verdict=stale
    else
        selector=--lib filters=
        [ "$target" = lib ] || selector="--test $target"
        [ "$tests" = - ] || filters=$(echo "$tests" | tr ',' ' ')
        test="cargo test --release -q -p $package $selector"
        if ! git -C "$tree" apply "$root/mutants/$patch" 2>/dev/null; then
            verdict="stale (no longer applies)"
        elif ! (cd "$tree" && $test --no-run) </dev/null >"$log" 2>&1; then
            verdict="stale (does not build)"
        elif (cd "$tree" && $test -- $filters) </dev/null >"$log" 2>&1; then
            verdict=survived
        else
            verdict=killed
        fi
        git -C "$tree" checkout -q -- .
    fi
    echo "$verdict $patch ($package $target $tests; $claim)"
    case $verdict in applies | killed) ;; *) failed=$((failed + 1)) ;; esac
done <mutants/INDEX
echo "$total patches, $failed survived or stale, $(($(date +%s) - start)) s"
[ "$total" -gt 0 ] && [ "$failed" -eq 0 ]

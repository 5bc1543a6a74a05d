#!/usr/bin/env bash
# Byte-compares two `cldiam` builds over the CLI's input × flag matrix.
#
# usage: ci/cli-sweep.sh OLD_CLDIAM NEW_CLDIAM
#
# Runs every command below from the workspace root with `--no-time --json -`
# under both binaries and compares stdout and the exit code, but not stderr,
# which carries load times. Prints each command that differs and the totals,
# and exits 1 on any difference. The matrix: tests/data/{roads.gr,social.tsv}
# and gen:{road:60x60,rmat:12,rmat:14,mesh:40} × --algo
# cldiam|delta|bounds|both × {plain, --largest-component, --compress,
# --timeout-checks 2, --cluster2, --no-quotient} × --threads 1|4, plus the
# directed bounds engine on social.tsv, --help, an unknown flag and a missing
# file. About 300 commands, ~20 s a side for release builds.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_CLDIAM NEW_CLDIAM" >&2
    exit 2
fi
old=$(realpath "$1")
new=$(realpath "$2")
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

commands=()
for input in tests/data/roads.gr tests/data/social.tsv \
    gen:road:60x60 gen:rmat:12 gen:rmat:14 gen:mesh:40; do
    for algo in cldiam delta bounds both; do
        for flags in "" --largest-component --compress "--timeout-checks 2" \
            --cluster2 --no-quotient; do
            for threads in 1 4; do
                commands+=("$input --algo $algo $flags --threads $threads")
            done
        done
    done
done
for flags in "" --largest-component "--timeout-checks 2"; do
    for threads in 1 4; do
        commands+=("tests/data/social.tsv --directed --algo bounds $flags --threads $threads")
    done
done
commands+=("--help" "tests/data/roads.gr --no-such-flag" "tests/data/no-such-file.gr")

differ=0
for command in "${commands[@]}"; do
    # $command is an argument list: word splitting is intended.
    # shellcheck disable=SC2086
    "$old" $command --no-time --json - >"$tmp/old" 2>/dev/null
    old_status=$?
    # shellcheck disable=SC2086
    "$new" $command --no-time --json - >"$tmp/new" 2>/dev/null
    new_status=$?
    if [ "$old_status" -ne "$new_status" ] || ! cmp -s "$tmp/old" "$tmp/new"; then
        echo "differs: cldiam $command (exit $old_status -> $new_status)"
        differ=$((differ + 1))
    fi
done
echo "${#commands[@]} commands: $((${#commands[@]} - differ)) identical, $differ differ"
[ "$differ" -eq 0 ]

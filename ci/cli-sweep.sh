#!/usr/bin/env bash
# Byte-compares two `cldiam` builds over the CLI's input × flag matrix and its
# usage and load errors.
#
# usage: ci/cli-sweep.sh OLD_CLDIAM NEW_CLDIAM
#
# Runs every command below from the workspace root under both binaries and
# compares stdout, stderr and the exit code. In stderr the load time
# (`loaded in N.NNs`) is masked, as the one field that differs between runs.
# Prints each command that differs and the totals, and exits 1 on any
# difference. The matrix runs with `--no-time --json -`:
# tests/data/{roads.gr,social.tsv} and gen:{road:60x60,rmat:12,rmat:14,mesh:40}
# × --algo cldiam|delta|bounds|both × {plain, --largest-component,
# --compress, --timeout-checks 2, --cluster2, --no-quotient} × --threads 1|4,
# plus the directed bounds engine on social.tsv and on the strongly connected
# ring.tsv. Then come --help and -h, and the failing commands: an unknown
# flag, a missing file, each valued flag without a value or with a value it
# rejects, and each rule between flags and inputs. About 340 commands, ~20 s
# a side for release builds.
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

report="--no-time --json -"
commands=()
for input in tests/data/roads.gr tests/data/social.tsv \
    gen:road:60x60 gen:rmat:12 gen:rmat:14 gen:mesh:40; do
    for algo in cldiam delta bounds both; do
        for flags in "" --largest-component --compress "--timeout-checks 2" \
            --cluster2 --no-quotient; do
            for threads in 1 4; do
                commands+=("$input --algo $algo $flags --threads $threads $report")
            done
        done
    done
done
for input in tests/data/social.tsv tests/data/ring.tsv; do
    for flags in "" --largest-component "--timeout-checks 2"; do
        for threads in 1 4; do
            commands+=("$input --directed --algo bounds $flags --threads $threads $report")
        done
    done
done
roads=tests/data/roads.gr
social=tests/data/social.tsv
commands+=(
    "--help" "-h" "$roads --no-such-flag $report" "tests/data/no-such-file.gr $report"
    # A valued flag as the last argument.
    "$roads --tau" "$roads --algo" "$roads --json"
    # A value each valued flag rejects.
    "$roads --tau 0" "$roads --quotient 0" "$roads --delta 0" "$roads --bounds-budget 0"
    "$roads --tolerance 0.5" "$roads --tolerance inf" "$roads --tolerance NaN"
    "$roads --timeout-ms -1" "$roads --timeout-checks 0" "$roads --seed -1"
    "$roads --threads 0" "$roads --shards 0" "$roads --algo nope"
    # The arguments around the flags.
    "$roads $social" "" "--algo bounds"
    # The rules between flags and inputs, alone and several at once.
    "$social --directed --symmetrize" "gen:mesh:4 --directed"
    "$social --directed --algo cldiam" "$social --directed --algo delta"
    "$social --directed --compress" "$social --directed --mmap" "gen:mesh:4 --mmap"
    "$roads --mmap" "$roads --timeout-ms 5 --algo delta" "$roads --timeout-checks 2 --algo cldiam"
    "gen:mesh:4 --directed --symmetrize" "gen:mesh:4 --directed --algo cldiam"
    "$social --directed --algo delta --compress" "gen:mesh:4 --mmap --timeout-ms 5 --algo delta"
    # Load and write errors.
    "gen:nope:3" "$roads --algo delta --no-time --json tests/data"
)

# Runs binary $1 on the argument list $2 and leaves its stdout, masked stderr
# and exit code in $tmp/$3.{out,err,status}.
run() {
    # $2 is an argument list: word splitting is intended.
    # shellcheck disable=SC2086
    "$1" $2 >"$tmp/$3.out" 2>"$tmp/$3.raw"
    echo $? >"$tmp/$3.status"
    sed -E 's/loaded in [0-9.]+s/loaded in Ns/' "$tmp/$3.raw" >"$tmp/$3.err"
}

differ=0
for command in "${commands[@]}"; do
    run "$old" "$command" old
    run "$new" "$command" new
    for part in status out err; do
        if ! cmp -s "$tmp/old.$part" "$tmp/new.$part"; then
            echo "differs: cldiam $command" \
                "(exit $(cat "$tmp/old.status") -> $(cat "$tmp/new.status"); first in $part)"
            differ=$((differ + 1))
            break
        fi
    done
done
echo "${#commands[@]} commands: $((${#commands[@]} - differ)) identical, $differ differ"
[ "$differ" -eq 0 ]

#!/usr/bin/env bash
# Runs the mutation table, tests/mutations.tsv, and checks each row's
# pinned verdict.
#
#   tests/mutate.sh          every row, then the kill rate
#   tests/mutate.sh <job>    the rows of one CI job (the table's `job` column)
#
# One row per line, eight tab-separated fields (`#` lines are comments):
#
#   name  job  file  pattern  replacement  command  evidence  verdict
#
# `pattern` and `replacement` are literal text, `\n` standing for a
# newline; `pattern` must occur exactly once in `file`. `evidence` is a
# `|`-separated list of strings. A row is killed when `command`, run from
# the repository root on the mutated file, fails and prints every evidence
# string; a command that fails without them (a mutation that merely breaks
# the build) is not a kill. `verdict` is `killed` or `survives: <reason>`.
#
# Before running anything, every row's pattern is checked; a stale row
# fails the run. Each mutated file is restored from a copy on every exit
# path. Prints `killed|survived|stale <row> <secs>` per row, then
# `kill rate K/N`, and exits non-zero when any row is stale or any observed
# verdict differs from the table's.
set -uo pipefail
shopt -u patsub_replacement 2>/dev/null || true

if (($# > 1)); then
    echo "usage: tests/mutate.sh [job]" >&2
    exit 2
fi
want_job=${1:-}
cd "$(dirname "$0")/.." || exit 2
table=tests/mutations.tsv

names=() jobs=() files=() pats=() reps=() cmds=() evs=() verdicts=()
lineno=0
while IFS= read -r line || [[ -n $line ]]; do
    lineno=$((lineno + 1))
    [[ -z $line || $line == '#'* || $line == name$'\t'* ]] && continue
    IFS=$'\t' read -r -a f <<<"$line"
    if ((${#f[@]} != 8)); then
        echo "$table:$lineno: ${#f[@]} fields, want 8 (none may be empty)" >&2
        exit 2
    fi
    names+=("${f[0]}") jobs+=("${f[1]}") files+=("${f[2]}")
    pats+=("${f[3]//\\n/$'\n'}") reps+=("${f[4]//\\n/$'\n'}")
    cmds+=("${f[5]}") evs+=("${f[6]}") verdicts+=("${f[7]}")
done <"$table"

# Every invocation checks every row, whichever job it runs.
stale=0
for i in "${!names[@]}"; do
    count=0
    if [[ -f ${files[i]} ]]; then
        IFS= read -r -d '' content <"${files[i]}"
        rest=${content//"${pats[i]}"/}
        count=$(((${#content} - ${#rest}) / ${#pats[i]}))
    fi
    if ((count != 1)); then
        echo "stale ${names[i]} 0"
        echo "  pattern occurs $count times in ${files[i]}" >&2
        stale=1
    fi
done
((stale)) && exit 1

selected=()
for i in "${!names[@]}"; do
    [[ -z $want_job || ${jobs[i]} == "$want_job" ]] && selected+=("$i")
done
if ((${#selected[@]} == 0)); then
    echo "no rows for job '$want_job'" >&2
    exit 2
fi

backup=$(mktemp) log=$(mktemp)
live=
restore() {
    if [[ -n $live ]]; then
        cat "$backup" >"$live"
        live=
    fi
}
trap 'restore; rm -f "$backup" "$log"' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
export CARGO_TERM_COLOR=never RUST_BACKTRACE=0

killed=0 mismatches=0
for i in "${selected[@]}"; do
    file=${files[i]}
    cp "$file" "$backup"
    IFS= read -r -d '' content <"$file"
    live=$file
    printf '%s' "${content/"${pats[i]}"/"${reps[i]}"}" >"$file"
    start=$SECONDS
    bash -c "${cmds[i]}" >"$log" 2>&1
    status=$?
    restore
    missing=()
    IFS='|' read -r -a evidence <<<"${evs[i]}"
    for e in "${evidence[@]}"; do
        grep -qF -- "$e" "$log" || missing+=("$e")
    done
    observed=survived
    if ((status != 0 && ${#missing[@]} == 0)); then
        observed=killed
        killed=$((killed + 1))
    fi
    echo "$observed ${names[i]} $((SECONDS - start))"
    expected=killed
    [[ ${verdicts[i]} == survives* ]] && expected=survived
    if [[ $observed != "$expected" ]]; then
        mismatches=$((mismatches + 1))
        echo "  table says: ${verdicts[i]}; command exited $status" >&2
        for e in "${missing[@]}"; do
            echo "  evidence missing: $e" >&2
        done
        tail -n 30 "$log" | sed 's/^/  | /' >&2
    fi
done
echo "kill rate $killed/${#selected[@]}"
((mismatches == 0))

#!/usr/bin/env bash
# "Nothing the model or the user sees moved": runs two armine binaries on
# the same jobs and compares what each wrote, one row per comparison. With
# the same binary on both sides it is a determinism check.
#
# The model (96 rows):
# - every formulation x counter, every formulation under a crash plan,
#   CD/IDD/HD under adaptive placement on a two-speed cluster, every
#   formulation with a memory capacity below |C_2|, and HPA with ELD, on
#   the sim backend, their --metrics-json files compared byte for byte. Virtual
#   time, the work ledger and the message counts are all in there, so a
#   host-only change leaves every file identical;
# - CD/IDD/HD x counter and the six other formulations natively on two
#   ranks, stdout compared without its host timings: candidates per pass,
#   grid, itemsets and bytes moved;
# - HPA, HPA-ELD and PDM (filtering every pass) five passes deep, natively
#   too for HPA and HPA-ELD, on a 200-item dataset whose transactions hold
#   up to 31 items, so the potential candidates run to millions per pass;
# - serial `mine --rules` on a dense dataset with each counter at three
#   confidences and three `--top` sizes, stdout compared without its
#   `(…s)` timing: the rule count and every printed rule.
#
# The datasets and their readers (78 rows):
# - for seeds {7, 4242} x the two Quest shapes of the benchmark x
#   --format text|binary at N = 20000, `gen` with each binary and the files
#   compared; then `mine --max-k 2`, `stats` and `parallel --algorithm cd
#   --procs 2` on each file with each binary;
# - four malformed inputs, seven at the edges of the reader's fast path
#   (CRLF, a line over 64 KB, tabs, a comment between lines, the item-id
#   limit and one past it, no final newline), and two whose lines it takes
#   out of order (unsorted and repeated ids; a 20K file with its item ids
#   permuted), comparing stdout without host timings, stderr and exit code.
#
# usage: scripts/equiv.sh OLD_ARMINE NEW_ARMINE
# Prints each differing row and `identical: N of M`; exits 1 on any
# difference.
set -uo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_ARMINE NEW_ARMINE" >&2
    exit 2
fi
old=$1
new=$2
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

total=0
same=0
# check NAME FILE_A FILE_B: counts one comparison. A model run that fails
# leaves no file, so its row differs.
check() {
    total=$((total + 1))
    if cmp -s "$2" "$3"; then
        same=$((same + 1))
    else
        echo "DIFFERS: $1"
    fi
}

# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

"$new" gen --out "$tmp/db.txt" --transactions 4000 --items 300 --patterns 200 --seed 7 > /dev/null
"$new" gen --out "$tmp/dense.txt" --transactions 2000 --items 250 --patterns 120 \
    --avg-len 10 --pattern-len 4 --seed 7 > /dev/null
"$new" gen --out "$tmp/deep.txt" --transactions 3000 --items 200 --seed 7 > /dev/null

# compare NAME FLAG...: one sim `parallel` run per binary, --metrics-json
# compared. `db=NAME max_k=K compare …` points a row at another dataset
# and depth.
compare() {
    local name=$1
    shift
    for side in old new; do
        "${!side}" parallel --input "$tmp/${db:-db}.txt" --procs 8 --page-size 100 \
            --min-support 0.01 --max-k "${max_k:-4}" "$@" \
            --metrics-json "$tmp/$name.$side" > /dev/null || rm -f "$tmp/$name.$side"
    done
    check "$name" "$tmp/$name.old" "$tmp/$name.new"
}
# compare_native NAME FLAG...: one native `parallel` run per binary on two
# ranks, stdout compared without `wall …s`, `… ms` and the compute
# imbalance, which is measured from the same clocks.
compare_native() {
    local name=$1
    shift
    for side in old new; do
        "${!side}" parallel --input "$tmp/${db:-db}.txt" --procs 2 --backend native \
            --page-size 100 --min-support 0.01 --max-k "${max_k:-4}" "$@" |
            sed -E 's/wall [0-9.]+s//; s/ +[0-9.]+ ms/ ms/g; s/imbalance [0-9.]+%/imbalance/' \
                > "$tmp/$name.$side" || rm -f "$tmp/$name.$side"
    done
    check "$name" "$tmp/$name.old" "$tmp/$name.new"
}
# compare_rules NAME FLAG...: one serial `mine` per binary on the dense
# dataset, stdout compared without the `(…s)` timing.
compare_rules() {
    local name=$1
    shift
    for side in old new; do
        "${!side}" mine --input "$tmp/dense.txt" --min-support 0.01 "$@" |
            sed -E 's/\([0-9.]+s\)//' > "$tmp/$name.$side" || rm -f "$tmp/$name.$side"
    done
    check "$name" "$tmp/$name.old" "$tmp/$name.new"
}

for algorithm in cd npa pdm dd dd-comm idd idd-1src hd hpa; do
    for counter in hashtree trie vertical; do
        compare "$algorithm-$counter" --algorithm "$algorithm" --counter "$counter"
    done
done
for algorithm in cd npa pdm dd dd-comm idd idd-1src hd hpa; do
    compare "$algorithm-crash" --algorithm "$algorithm" \
        --fault-plan "$root/experiments/faults/single-crash-per-pass.plan"
done
for algorithm in cd idd hd; do
    compare "$algorithm-adaptive" --algorithm "$algorithm" \
        --cluster "$root/experiments/clusters/two-speed.cluster" --placement adaptive
    for counter in hashtree trie vertical; do
        compare_native "$algorithm-$counter-native" --algorithm "$algorithm" --counter "$counter"
    done
done
for algorithm in npa pdm dd dd-comm idd-1src hpa; do
    compare_native "$algorithm-native" --algorithm "$algorithm"
done
# |C_2| is 28,920 here: a capacity of 5,000 cuts CD's and PDM's pass 2
# into six scans, and must leave every other formulation's run as it is.
for algorithm in cd npa pdm dd dd-comm idd idd-1src hd hpa; do
    compare "$algorithm-capped" --algorithm "$algorithm" --memory-capacity 5000
done
compare hpa-eld --algorithm hpa --eld-permille 200
db=deep max_k=5 compare hpa-deep --algorithm hpa
db=deep max_k=5 compare hpa-eld-deep --algorithm hpa --eld-permille 200
db=deep max_k=5 compare pdm-deep --algorithm pdm --filter-passes 4
db=deep max_k=5 compare_native hpa-deep-native --algorithm hpa
db=deep max_k=5 compare_native hpa-eld-deep-native --algorithm hpa --eld-permille 200
for counter in hashtree trie vertical; do
    for conf in 0 0.5 1; do
        for top in 0 20 1000000; do
            compare_rules "mine-$counter-$conf-$top" --counter "$counter" --rules "$conf" --top "$top"
        done
    done
done

# ---------------------------------------------------------------------------
# The datasets and their readers
# ---------------------------------------------------------------------------

# run SIDE OUT SUBCOMMAND...: stdout without `(0.12s)` and `wall 0.12s`,
# then stderr and the exit code, into OUT.
run() {
    local side=$1 out=$2
    shift 2
    "${!side}" "$@" 2> "$out.err" | sed -E 's/\([0-9.]+s\)//; s/wall [0-9.]+s//' > "$out"
    local status=${PIPESTATUS[0]}
    cat "$out.err" >> "$out"
    echo "exit $status" >> "$out"
}
# read_both NAME FILE [JOB...]: the three readers' subcommands, or the
# JOBs given, on FILE with each binary.
read_both() {
    local name=$1 file=$2 job
    shift 2
    [ $# -gt 0 ] || set -- "mine --min-support 0.01 --max-k 2" "stats" \
        "parallel --algorithm cd --procs 2 --min-support 0.01 --max-k 2"
    for job in "$@"; do
        for side in old new; do
            # shellcheck disable=SC2086
            run $side "$tmp/$side.out" $job --input "$file"
        done
        check "${job%% *} on $name" "$tmp/old.out" "$tmp/new.out"
    done
}

sparse=""
dense="--items 250 --patterns 120 --avg-len 10 --pattern-len 4"
for seed in 7 4242; do
    for shape in sparse dense; do
        for format in text binary; do
            name="$shape-$seed.$format"
            for side in old new; do
                # shellcheck disable=SC2086
                run $side "$tmp/$side.out" gen --out "$tmp/$side-$name" \
                    --transactions 20000 --seed $seed --format $format ${!shape}
                sed -i "s|$tmp/$side-||" "$tmp/$side.out"
            done
            check "gen $name (stdout)" "$tmp/old.out" "$tmp/new.out"
            check "gen $name (file)" "$tmp/old-$name" "$tmp/new-$name"
            read_both "$name" "$tmp/new-$name"
        done
    done
done

# The malformed inputs of crates/cli/tests/malformed_inputs.rs.
header='ARMN\x01\0\0\0\x0a\0\0\0\x01\0\0\0\0\0\0\0'
printf "$header"'\x01\0\0\0\0\0\0\0\xff\xff\xff\xff\x03\0\0\0' > "$tmp/huge-length.bin"
printf '1: 1 2 4000000000\n2: 1 2\n' > "$tmp/huge-id.txt"
printf '1: 1 2 4294967295\n2: 1 2\n' > "$tmp/wrapping-id.txt"
head -c -3 "$tmp/new-dense-7.binary" > "$tmp/truncated.bin"
for name in huge-length.bin huge-id.txt wrapping-id.txt truncated.bin; do
    read_both "$name" "$tmp/$name"
done

# Lines the reader's fast path leaves to the full parser, and a canonical
# line longer than its 64 KB block (its items once each, so that 300 short
# lines keep them infrequent and pass 2 small).
printf '1: 1 2\r\n2: 1 3\r\n3: 2 3\r\n' > "$tmp/crlf.txt"
{
    printf '1:'
    printf ' %s' $(seq 0 20000)
    printf '\n'
    printf '%s: 1 2\n' $(seq 2 301)
} > "$tmp/long-line.txt"
printf '1:\t1\t2\n2:\t1 3\n3 2\t1\n' > "$tmp/tabs.txt"
printf '1: 1 2\n# between\n2: 1 3\n\n3: 2 3\n' > "$tmp/comment.txt"
printf '1: 1 2\n2: 1 134217728\n' > "$tmp/max-id-plus-one.txt"
printf '1: 1 2\n2: 1 3\n3: 2 3' > "$tmp/no-final-newline.txt"
for name in crlf.txt long-line.txt tabs.txt comment.txt max-id-plus-one.txt \
    no-final-newline.txt; do
    read_both "$name" "$tmp/$name"
done
# Lines the fast path takes out of order: unsorted and repeated ids, and a
# generated 20K file with its item ids relabelled by a permutation of the
# 250 ids (id -> (97 id + 13) mod 250), as the benchmark relabels its
# inputs, so that most lines are out of order.
printf '1: 3 2 1\n2: 2 2 5\n3: 5 1 5 3\n4: 9 8 7 9\n5: 2 1 2 1\n' > "$tmp/unsorted.txt"
awk '{ printf "%s", $1; for (i = 2; i <= NF; i++) printf " %d", (97 * $i + 13) % 250;
       printf "\n" }' "$tmp/new-dense-7.text" > "$tmp/permuted.txt"
for name in unsorted.txt permuted.txt; do
    read_both "$name" "$tmp/$name"
done
# Only the serial readers: the simulated count exchange over 2^27 items
# moves gigabytes.
printf '1: 1 134217727\n2: 1 2\n' > "$tmp/max-id.txt"
read_both max-id.txt "$tmp/max-id.txt" "mine --min-support 0.01 --max-k 2" "stats"

echo "identical: $same of $total"
[ "$same" -eq "$total" ]

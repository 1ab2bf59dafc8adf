#!/usr/bin/env bash
# "Nothing the model sees moved": runs every formulation x counter (and
# every formulation under a crash plan, CD/IDD/HD under adaptive placement
# on a two-speed cluster, CD and PDM with a memory capacity below |C_2|,
# HPA with ELD) on the sim backend with two armine binaries and compares
# their --metrics-json files byte for byte. Virtual time, the work ledger
# and the message counts are all in there, so a host-only change must leave
# every file identical. CD/IDD/HD x counter and the six other formulations
# also run natively on two ranks, where only stdout without its host
# timings repeats: candidates per pass, grid, itemsets and bytes moved. Serial `mine --rules` runs on a dense dataset
# with each counter at three confidences and three `--top` sizes, stdout
# compared without its `(…s)` timing: the rule count and every printed
# rule. With the same binary on both sides it is a determinism check.
#
# usage: scripts/metrics_cmp.sh OLD_ARMINE NEW_ARMINE
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_ARMINE NEW_ARMINE" >&2
    exit 2
fi
old=$1
new=$2
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$new" gen --out "$tmp/db.txt" --transactions 4000 --items 300 --patterns 200 --seed 7 > /dev/null
"$new" gen --out "$tmp/dense.txt" --transactions 2000 --items 250 --patterns 120 \
    --avg-len 10 --pattern-len 4 --seed 7 > /dev/null

total=0
same=0
# tally NAME: counts one comparison of NAME.old with NAME.new.
tally() {
    total=$((total + 1))
    if cmp -s "$tmp/$1.old" "$tmp/$1.new"; then
        same=$((same + 1))
    else
        echo "DIFFERS: $1"
    fi
}
# compare NAME FLAG...: one sim `parallel` run per binary, --metrics-json
# compared.
compare() {
    local name=$1
    shift
    for side in old new; do
        "${!side}" parallel --input "$tmp/db.txt" --procs 8 --page-size 100 \
            --min-support 0.01 --max-k 4 "$@" \
            --metrics-json "$tmp/$name.$side" > /dev/null
    done
    tally "$name"
}
# compare_native NAME FLAG...: one native `parallel` run per binary on two
# ranks, stdout compared without `wall …s`, `… ms` and the compute
# imbalance, which is measured from the same clocks.
compare_native() {
    local name=$1
    shift
    for side in old new; do
        "${!side}" parallel --input "$tmp/db.txt" --procs 2 --backend native \
            --page-size 100 --min-support 0.01 --max-k 4 "$@" |
            sed -E 's/wall [0-9.]+s//; s/ +[0-9.]+ ms/ ms/g; s/imbalance [0-9.]+%/imbalance/' \
                > "$tmp/$name.$side"
    done
    tally "$name"
}
# compare_rules NAME FLAG...: one serial `mine` per binary on the dense
# dataset, stdout compared without the `(…s)` timing.
compare_rules() {
    local name=$1
    shift
    for side in old new; do
        "${!side}" mine --input "$tmp/dense.txt" --min-support 0.01 "$@" |
            sed -E 's/\([0-9.]+s\)//' > "$tmp/$name.$side"
    done
    tally "$name"
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
# |C_2| is 28,920 here: a capacity of 5,000 cuts pass 2 into six scans.
for algorithm in cd pdm; do
    compare "$algorithm-capped" --algorithm "$algorithm" --memory-capacity 5000
done
compare hpa-eld --algorithm hpa --eld-permille 200
for counter in hashtree trie vertical; do
    for conf in 0 0.5 1; do
        for top in 0 20 1000000; do
            compare_rules "mine-$counter-$conf-$top" --counter "$counter" --rules "$conf" --top "$top"
        done
    done
done

echo "identical: $same of $total"
[ "$same" -eq "$total" ]

#!/usr/bin/env bash
# "Nothing the model sees moved": runs every formulation x counter (and
# CD/IDD/HD under a crash plan and under adaptive placement on a two-speed
# cluster) on the sim backend with two armine binaries and compares their
# --metrics-json files byte for byte. Virtual time, the work ledger and the
# message counts are all in there, so a host-only change must leave every
# file identical. With the same binary on both sides it is a determinism
# check.
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

total=0
same=0
# compare NAME FLAG...: one `parallel` run per binary, then cmp.
compare() {
    local name=$1
    shift
    for side in old new; do
        "${!side}" parallel --input "$tmp/db.txt" --procs 8 --page-size 100 \
            --min-support 0.01 --max-k 4 "$@" \
            --metrics-json "$tmp/$name.$side.json" > /dev/null
    done
    total=$((total + 1))
    if cmp -s "$tmp/$name.old.json" "$tmp/$name.new.json"; then
        same=$((same + 1))
    else
        echo "DIFFERS: $name ($*)"
    fi
}

for algorithm in cd npa pdm dd dd-comm idd idd-1src hd hpa; do
    for counter in hashtree trie vertical; do
        compare "$algorithm-$counter" --algorithm "$algorithm" --counter "$counter"
    done
done
for algorithm in cd idd hd; do
    compare "$algorithm-crash" --algorithm "$algorithm" \
        --fault-plan "$root/experiments/faults/single-crash-per-pass.plan"
    compare "$algorithm-adaptive" --algorithm "$algorithm" \
        --cluster "$root/experiments/clusters/two-speed.cluster" --placement adaptive
done

echo "identical: $same of $total"
[ "$same" -eq "$total" ]

#!/usr/bin/env bash
# "Same bytes, same language": two armine binaries must generate the same
# dataset files and read them the same way. For seeds {7, 4242} x the two
# Quest shapes of the benchmark x --format text|binary at N = 20000, `gen`
# with each binary and cmp the files; then `mine --max-k 2`, `stats` and
# `parallel --algorithm cd --procs 2` on each file with each binary and
# diff their stdout without the host timings; then four malformed inputs,
# comparing exit code and stderr. With the same binary on both sides it is
# a determinism check.
#
# usage: scripts/io_cmp.sh OLD_ARMINE NEW_ARMINE
set -uo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_ARMINE NEW_ARMINE" >&2
    exit 2
fi
old=$1
new=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

total=0
same=0
# check NAME FILE_A FILE_B: counts one comparison.
check() {
    total=$((total + 1))
    if cmp -s "$2" "$3"; then
        same=$((same + 1))
    else
        echo "DIFFERS: $1"
    fi
}
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
# read_both NAME FILE: the three readers' subcommands, each binary.
read_both() {
    local name=$1 file=$2 job
    for job in "mine --min-support 0.01 --max-k 2" "stats" \
        "parallel --algorithm cd --procs 2 --min-support 0.01 --max-k 2"; do
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

echo "identical: $same of $total"
[ "$same" -eq "$total" ]

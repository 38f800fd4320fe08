#!/bin/sh
# Stale-benchmark guard for CI.
#
# Every gated benchmark in `make verify` writes its run's record to
# _build/bench/BENCH_<name>.json (the committed BENCH_<name>.json is
# only read). A verify run that somehow skipped a benchmark would leave
# no fresh record and the gate silently green — so CI touches a stamp
# file before verify and this script fails unless every record exists,
# is non-empty, and is newer than the stamp.
#
# Usage: scripts/check_bench_fresh.sh STAMP_FILE [BENCH_FILE ...]

set -eu

if [ "$#" -lt 1 ]; then
    echo "usage: $0 STAMP_FILE [BENCH_FILE ...]" >&2
    exit 2
fi

stamp=$1
shift
if [ ! -e "$stamp" ]; then
    echo "check_bench_fresh: stamp file $stamp missing (touch it before make verify)" >&2
    exit 2
fi

# default to the full gated set
if [ "$#" -eq 0 ]; then
    set -- _build/bench/BENCH_alloc.json _build/bench/BENCH_fleet.json \
        _build/bench/BENCH_backend.json
fi

fail=0
for bench in "$@"; do
    if [ ! -s "$bench" ]; then
        echo "check_bench_fresh: $bench missing or empty — make verify did not produce it" >&2
        fail=1
    elif [ ! "$bench" -nt "$stamp" ]; then
        echo "check_bench_fresh: $bench is stale (not regenerated since $stamp) — the verify run skipped its benchmark" >&2
        fail=1
    else
        echo "check_bench_fresh: $bench fresh"
    fi
done
exit $fail

#!/bin/sh
# Stale-benchmark guard for CI.
#
# `make verify` regenerates every committed benchmark baseline
# (BENCH_alloc.json, BENCH_fleet.json, BENCH_backend.json,
# BENCH_scrub.json) as a
# side effect of gating against it. A verify run that somehow skipped a
# benchmark would leave the committed file untouched and the gate
# silently green — so CI touches a stamp file before verify and this
# script fails unless every baseline exists, is non-empty, and is newer
# than the stamp.
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

# default to the full committed set
if [ "$#" -eq 0 ]; then
    set -- BENCH_alloc.json BENCH_fleet.json BENCH_backend.json BENCH_scrub.json
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

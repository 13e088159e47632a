#!/usr/bin/env bash
# Collect CPU (and optionally heap) profiles of the simulator under a real
# workload, so the next performance PR starts from data instead of guesswork.
#
# Usage:
#   scripts/profile.sh                    # profile a DRAM-level STREAM TRIAD on MangoPi
#   scripts/profile.sh kernel [args...]   # profile cmd/kernel (args replace the default)
#   scripts/profile.sh sweep  [args...]   # profile cmd/kernel -axis (args replace the default)
#
# Profiles land in ./profiles/<mode>.{cpu,mem}.pprof; the script prints the
# top CPU consumers and the `go tool pprof` line to dig further.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-kernel}"
[ "$#" -gt 0 ] && shift
out="profiles"
mkdir -p "$out"

case "$mode" in
kernel)
    # Single-core streaming at full DRAM size: the range path and the miss
    # path under it; any explicit args replace it.
    if [ "$#" -eq 0 ]; then
        set -- -device MangoPi -scale 1 stream/TRIAD
    fi
    go run ./cmd/kernel -cpuprofile "$out/kernel.cpu.pprof" \
        -memprofile "$out/kernel.mem.pprof" "$@" >/dev/null
    cpu="$out/kernel.cpu.pprof"
    ;;
sweep)
    # A default sweep that exercises the simulator's miss path and the
    # memoized runner; any explicit args replace it.
    if [ "$#" -eq 0 ]; then
        set -- -device MangoPi -axis maxinflight=1,2,4,8 \
            stream:test=TRIAD,elems=65536,reps=2 transpose:variant=Naive,n=512
    fi
    go run ./cmd/kernel -cpuprofile "$out/sweep.cpu.pprof" \
        -memprofile "$out/sweep.mem.pprof" "$@" >/dev/null
    cpu="$out/sweep.cpu.pprof"
    ;;
*)
    echo "profile.sh: unknown mode '$mode' (kernel, sweep)" >&2
    exit 1
    ;;
esac

echo "== top CPU consumers ($cpu) =="
go tool pprof -top -nodecount=15 "$cpu" | tail -n +8
echo
echo "dig further: go tool pprof -http=: $cpu"

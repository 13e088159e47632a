#!/usr/bin/env bash
# Record simulator throughput in BENCH_simthroughput.json so the perf
# trajectory is tracked across PRs. Appends one record per run with the
# current commit, date, ns/op of the two single-core streaming benchmarks,
# the multi-core ParallelRange streaming benchmark (the range loop under
# the event engine), the batched-runner throughput — cold (every job
# simulates) vs cached (the memoized Runner replays the identical 8-job
# batch with zero new simulations) — the service-layer request throughput
# (the same warm 8-job batch as a full BatchRequest through the Service
# facade), the restart-warm path (a fresh Service over a persisted
# cache directory serving an 8-cell batch entirely from the disk tier),
# and the clustered sweep (an in-process coordinator fanning a warm
# 16-cell sweep across two workers; ns per cell of control-plane cost).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-100000000x}"
PRANGE_BENCHTIME="${PRANGE_BENCHTIME:-20000000x}"
RUNNER_BENCHTIME="${RUNNER_BENCHTIME:-30x}"
CACHED_BENCHTIME="${CACHED_BENCHTIME:-20000x}"
RESTART_BENCHTIME="${RESTART_BENCHTIME:-500x}"
CLUSTER_BENCHTIME="${CLUSTER_BENCHTIME:-20x}"
OUT="BENCH_simthroughput.json"

raw=$(go test -run '^$' -bench 'BenchmarkSimulatorThroughput$|BenchmarkTouchRangeThroughput$' \
    -benchtime "$BENCHTIME" -count "$COUNT" . | grep ns/op)
rawprange=$(go test -run '^$' -bench 'BenchmarkParallelRangeThroughput$' \
    -benchtime "$PRANGE_BENCHTIME" -count "$COUNT" . | grep ns/op)
rawrunner=$(go test -run '^$' -bench 'BenchmarkRunnerBatch$' \
    -benchtime "$RUNNER_BENCHTIME" -count "$COUNT" ./internal/run | grep ns/op)
rawcached=$(go test -run '^$' -bench 'BenchmarkRunnerBatchCached$' \
    -benchtime "$CACHED_BENCHTIME" -count "$COUNT" ./internal/run | grep ns/op)
rawservice=$(go test -run '^$' -bench 'BenchmarkServiceBatch$' \
    -benchtime "$CACHED_BENCHTIME" -count "$COUNT" ./internal/service | grep ns/op)
rawrestart=$(go test -run '^$' -bench 'BenchmarkServiceRestartWarm$' \
    -benchtime "$RESTART_BENCHTIME" -count "$COUNT" ./internal/service | grep ns/op)
rawcluster=$(go test -run '^$' -bench 'BenchmarkClusterSweep$' \
    -benchtime "$CLUSTER_BENCHTIME" -count "$COUNT" ./internal/cluster | grep 'ns/cell')

median() {
    echo "$2" | awk -v name="$1" '$1 ~ name {print $3}' | sort -n |
        awk '{a[NR]=$1} END {print (NR%2 ? a[(NR+1)/2] : (a[NR/2]+a[NR/2+1])/2)}'
}

# median_metric extracts the value preceding a custom ReportMetric unit
# (e.g. "ns/cell") rather than the fixed ns/op column.
median_metric() {
    echo "$2" | awk -v unit="$1" '{for (i = 1; i < NF; i++) if ($(i + 1) == unit) print $i}' |
        sort -n | awk '{a[NR]=$1} END {print (NR%2 ? a[(NR+1)/2] : (a[NR/2]+a[NR/2+1])/2)}'
}

legacy=$(median '^BenchmarkSimulatorThroughput' "$raw") \
trange=$(median '^BenchmarkTouchRangeThroughput' "$raw") \
prange=$(median '^BenchmarkParallelRangeThroughput' "$rawprange") \
runner=$(median '^BenchmarkRunnerBatch(-|$)' "$rawrunner") \
cached=$(median '^BenchmarkRunnerBatchCached' "$rawcached") \
service=$(median '^BenchmarkServiceBatch' "$rawservice") \
restart=$(median '^BenchmarkServiceRestartWarm' "$rawrestart") \
cluster=$(median_metric 'ns/cell' "$rawcluster") \
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
OUT="$OUT" COUNT="$COUNT" python3 - <<'EOF'
import datetime
import json
import os

out = os.environ["OUT"]
record = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "commit": os.environ["commit"],
    "simulator_throughput_ns_per_op": float(os.environ["legacy"]),
    "touchrange_throughput_ns_per_op": float(os.environ["trange"]),
    "parallelrange_throughput_ns_per_op": float(os.environ["prange"]),
    "runner_batch_ns_per_op": float(os.environ["runner"]),
    "runner_batch_cached_ns_per_op": float(os.environ["cached"]),
    "service_request_ns_per_op": float(os.environ["service"]),
    "service_restart_warm_ns_per_op": float(os.environ["restart"]),
    "cluster_sweep_ns_per_cell": float(os.environ["cluster"]),
    "count": int(os.environ["COUNT"]),
}
try:
    with open(out) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {
        "benchmark": "BenchmarkSimulatorThroughput (MangoPi streaming loads, "
                     "host ns per simulated access)",
        "baseline_ns_per_op": 18.84,
        "records": [],
    }
doc.setdefault("records", []).append(record)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"recorded: legacy={record['simulator_throughput_ns_per_op']} ns/op, "
      f"touchrange={record['touchrange_throughput_ns_per_op']} ns/op, "
      f"parallelrange={record['parallelrange_throughput_ns_per_op']} ns/op, "
      f"runner_batch={record['runner_batch_ns_per_op']} ns/batch, "
      f"runner_batch_cached={record['runner_batch_cached_ns_per_op']} ns/batch, "
      f"service_request={record['service_request_ns_per_op']} ns/req, "
      f"service_restart_warm={record['service_restart_warm_ns_per_op']} ns/req, "
      f"cluster_sweep={record['cluster_sweep_ns_per_cell']} ns/cell -> {out}")
EOF

#!/bin/sh
# Runs the figure-regeneration benchmarks and converts the output into a
# machine-readable JSON file (default BENCH_2.json): one record per
# benchmark with its iteration count, ns/op, and every custom metric the
# bench reports (modeled-s, comm-elems, comm-bytes, peak-elems,
# ns/update). Also runs the durability benchmarks (WAL append and replay
# throughput, checkpoint write, recovery open) into a second file
# (default BENCH_5.json), the serving-tier load benchmark (cubeload
# over many multiplexed connections against cached and uncached
# coordinators, see scripts/loadgen.sh) into a third (default
# BENCH_6.json), the ingest write-path comparison (a 16-record
# AppendBatchAt run vs per-record fsync=always appends, ns per record)
# into a fourth (default BENCH_14.json; BENCH_7.json is history — it
# measured concurrent Log.Append through a WAL queue serving never used),
# and the elastic migration benchmark (checkpoint ship + WAL catch-up
# into a joining node: MB/s shipped, records/s replayed, cutover p99)
# into a fifth (default BENCH_10.json).
# Used by `make bench-json`.
#
#   scripts/bench.sh [figures.json] [durability.json] [loadgen.json] [ingest.json] [elastic.json]
#
# BENCH_PATTERN and BENCH_TIME override the figure-benchmark selection
# and its -benchtime (default: the figure + theorem benches, 1
# iteration each — these regenerate deterministic modeled figures, so
# one iteration is the right default). WAL_BENCH_PATTERN and
# WAL_BENCH_TIME override the durability benches, which measure real
# I/O throughput and therefore default to a timed -benchtime of 1s —
# a single iteration would report meaningless ns/op for them.
# LOADGEN_CONNS and LOADGEN_DURATION size the load stage (defaults
# 10000 connections, 5s measured).
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_2.json}"
walout="${2:-BENCH_5.json}"
loadout="${3:-BENCH_6.json}"
groupout="${4:-BENCH_14.json}"
elasticout="${5:-BENCH_10.json}"
pattern="${BENCH_PATTERN:-Fig7|Fig8|Fig9|Sequential|MemoryBound|CommVolume|ScanKernel}"
walpattern="${WAL_BENCH_PATTERN:-WALAppend|WALReplay|CheckpointWrite|RecoveryOpen}"
grouppattern="${GROUP_BENCH_PATTERN:-WALAppendBatchAt|WALAppend/fsync=always}"
elasticpattern="${ELASTIC_BENCH_PATTERN:-ShipAndCatchUp}"
benchtime="${BENCH_TIME:-1x}"
walbenchtime="${WAL_BENCH_TIME:-1s}"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# tojson converts `go test -bench` output on stdin into a JSON array;
# fields after the iteration count come in value/unit pairs.
tojson() {
	awk '
BEGIN { print "["; sep = "" }
/^Benchmark/ {
    printf "%s  {\"name\": \"%s\", \"iterations\": %s", sep, $1, $2
    sep = ",\n"
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/-/, "_", unit)
        gsub(/=/, "_", unit)
        if (unit == "B_per_op") unit = "bytes_per_op"
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { print "\n]" }
'
}

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" . | tee "$tmp"
tojson <"$tmp" >"$out"
echo "wrote $out"

go test -run '^$' -bench "$walpattern" -benchtime "$walbenchtime" \
	./internal/wal ./internal/recovery | tee "$tmp"
tojson <"$tmp" >"$walout"
echo "wrote $walout"

go test -run '^$' -bench "$grouppattern" -benchtime "$walbenchtime" \
	./internal/wal | tee "$tmp"
tojson <"$tmp" >"$groupout"
echo "wrote $groupout"

go test -run '^$' -bench "$elasticpattern" -benchtime "$walbenchtime" \
	./internal/elastic | tee "$tmp"
tojson <"$tmp" >"$elasticout"
echo "wrote $elasticout"

./scripts/loadgen.sh "$loadout"

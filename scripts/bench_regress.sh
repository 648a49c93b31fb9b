#!/bin/sh
# Bench-regression gate for the durable-ingest write path.
#
# Served ingest reaches the log as runs: the coordinator's per-group
# queue ships every round as one DELTABATCH per replica, and a replica
# logs that run with one buffered write and one fsync
# (wal.Log.AppendBatchAt). The promise is quantitative: under
# fsync=always a run of 16 records must cost at least 8x less per record
# than 16 single appends, each paying its own fsync. A refactor that
# reintroduces a sync (or a write) per record fails here instead of
# shipping.
#
# Both rows come from ONE benchmark run on ONE machine, so the bar is a
# ratio and holds on any disk; nothing is compared with a number
# recorded elsewhere.
#
#   scripts/bench_regress.sh
#
# WAL_BENCH_TIME overrides the run's -benchtime (default 1s).
set -eu

cd "$(dirname "$0")/.."

factor=8

go test -run '^$' -bench 'WALAppend/fsync=always|WALAppendBatchAt/fsync=always' \
	-benchtime "${WAL_BENCH_TIME:-1s}" ./internal/wal | tee /dev/stderr |
	awk -v factor="$factor" '
$1 ~ /^BenchmarkWALAppend\/fsync=always(-[0-9]+)?$/ { single = $3 }
$1 ~ /^BenchmarkWALAppendBatchAt\/fsync=always\/recs=16(-[0-9]+)?$/ { run = $3 }
END {
    if (single == "" || run == "") {
        print "bench_regress: FAIL — need both BenchmarkWALAppend/fsync=always and BenchmarkWALAppendBatchAt/fsync=always/recs=16 rows from one run"
        exit 1
    }
    ratio = single / run
    if (ratio < factor) {
        printf "bench_regress: FAIL — a 16-record run costs %.0f ns/record, only %.1fx under the %.0f ns single append (bar: %dx)\n", run, ratio, single, factor
        exit 1
    }
    printf "bench_regress: OK — a 16-record run costs %.0f ns/record, %.1fx under the %.0f ns single append (bar: %dx)\n", run, ratio, single, factor
}
'

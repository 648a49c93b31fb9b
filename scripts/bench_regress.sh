#!/bin/sh
# Bench-regression gates: two within-run ns ratios, each against a
# reference row measured by the same run on the same machine.
#
# 1. The durable-ingest write path.
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
# 2. The sparse first-level scan kernel (array.ScanSparse) at the build
# workload's geometry: 64x64x32x32, 10% full, 16^4 chunks, four
# targets. BenchmarkScanSparse4DRoofline reads the same entries and does
# the same read-modify-write per update at offsets decoded before the
# timer starts, so the kernel's excess over it is what computing offsets
# costs. The kernel must cost at most 2.5x the roofline (fastest of 5
# runs each). Measured on a 2-vCPU Xeon: 1.12-1.44x with the chunk
# offset tables; the per-cell kernel they replaced reads 11.2x (28.7 ms
# against a 2.56 ms roofline), so a return to per-entry coordinate
# decoding fails here.
#
#   scripts/bench_regress.sh
#
# WAL_BENCH_TIME overrides the WAL run's -benchtime (default 1s).
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

scan_bar=2.5

go test -run '^$' -bench '^BenchmarkScanSparse4D(Roofline)?$' \
	-benchtime 20x -count 5 ./internal/array | tee /dev/stderr |
	awk -v bar="$scan_bar" '
$1 ~ /^BenchmarkScanSparse4D(-[0-9]+)?$/ { if (kernel == "" || $3 < kernel) kernel = $3 }
$1 ~ /^BenchmarkScanSparse4DRoofline(-[0-9]+)?$/ { if (roof == "" || $3 < roof) roof = $3 }
END {
    if (kernel == "" || roof == "") {
        print "bench_regress: FAIL — need both BenchmarkScanSparse4D and BenchmarkScanSparse4DRoofline rows from one run"
        exit 1
    }
    ratio = kernel / roof
    if (ratio > bar) {
        printf "bench_regress: FAIL — the sparse scan kernel costs %.0f ns/op, %.2fx its %.0f ns streaming roofline (bar: %.1fx)\n", kernel, ratio, roof, bar
        exit 1
    }
    printf "bench_regress: OK — the sparse scan kernel costs %.0f ns/op, %.2fx its %.0f ns streaming roofline (bar: %.1fx)\n", kernel, ratio, roof, bar
}
'

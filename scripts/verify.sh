#!/bin/sh
# Full verification gate, staged so the cheap checks fail fast:
#
#   1. gofmt    — formatting drift (fails if any file needs gofmt)
#   2. go build — everything compiles
#   3. go vet   — the stock analyzers
#   4. go vet (full) — the extended analyzer set (copylocks, lostcancel,
#                 unusedresult, ...) that the default vet run omits
#   5. cubelint — the project-specific invariant analyzers
#                 (internal/lint), including the interprocedural
#                 lock-order / durability-order / lsn-discipline /
#                 deadline-prop protocol checks, ratcheted against the
#                 committed baseline
#   6. recovery — the crash/durability wall: WAL torn-tail recovery,
#                 checkpoint restore, kill -9 shard rejoin, batched
#                 ingest (a delta is a batch of one) and divergence
#                 repair (race-enabled)
#   7. benchmark-quick — the system benchmark (benchmark/) as a smoke:
#                 every workload for 2 s, failing on any inexact answer
#   8. go test  — the whole suite under the race detector
#
# Used by `make verify` and intended as the pre-commit / CI entry point.
# Each stage prints a banner on failure naming the stage that broke.
set -u

cd "$(dirname "$0")/.."

fail() {
	echo "" >&2
	echo "verify: FAILED at stage: $1" >&2
	exit 1
}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "run: gofmt -w ." >&2
	fail gofmt
fi

echo "==> go build"
go build ./... || fail "go build"

echo "==> go vet"
go vet ./... || fail "go vet"

echo "==> go vet (full analyzer set)"
go vet -copylocks -lostcancel -unusedresult -atomic -nilfunc -unreachable -printf ./... || fail "go vet full"

echo "==> cubelint"
go run ./cmd/cubelint -baseline scripts/lint_baseline.json ./... || fail cubelint

echo "==> recovery wall"
go test -race -count=1 -run 'Crash|Torn|Durable|WAL|Checkpoint|Rejoin|Batch|Append|Sync|Diverg' \
	./internal/wal ./internal/recovery ./internal/shard || fail "recovery wall"

echo "==> benchmark-quick"
sh benchmark/run.sh -all -quick || fail "benchmark-quick"

echo "==> go test -race"
go test -race ./... || fail "go test -race"

echo ""
echo "verify: all stages passed"

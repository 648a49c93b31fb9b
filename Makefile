GO ?= go

.PHONY: build test vet lint lint-update-baseline race race-stress verify bench bench-json bench-regress fuzz-smoke alloc-gate loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (internal/lint via cmd/cubelint):
# untrusted-alloc, deadline, goroutine-leak, mutex-hygiene, obs-metric,
# unchecked-close, plus the interprocedural protocol analyzers
# lock-order, durability-order, lsn-discipline, and deadline-prop, plus
# the hot-path allocation analyzers hot-box, hot-escape, hot-fmt,
# hot-append, hot-conv, hot-map, and hot-defer (rooted at
# //cubelint:hotpath directives). The committed baseline holds accepted
# findings; the run fails only on new ones. See DESIGN.md "Static
# analysis layer", "Static analysis v2", and "Static analysis v3".
lint:
	$(GO) run ./cmd/cubelint -baseline scripts/lint_baseline.json ./...

# Re-record the accepted findings after reviewing them. Keep the diff of
# scripts/lint_baseline.json honest: every added entry is accepted debt.
lint-update-baseline:
	$(GO) run ./cmd/cubelint -write-baseline scripts/lint_baseline.json ./...

race:
	$(GO) test -race ./...

# Churn/rejoin stress under the race detector, run twice with halt on
# first race so interleavings that only appear on a warm second run
# still fail loudly.
race-stress:
	GORACE=halt_on_error=1 $(GO) test -race -count=2 -run 'Stress|Churn|Rejoin' ./internal/shard ./internal/mux ./internal/elastic

# The full gate: gofmt + build + vet + cubelint + race-enabled tests.
verify:
	./scripts/verify.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Machine-readable benchmark JSON: figure benchmarks (BENCH_2.json),
# durability benchmarks (BENCH_5.json), the serving-tier loadgen
# comparison (BENCH_6.json), the ingest write-path comparison
# (BENCH_14.json), and the elastic migration benchmark (BENCH_10.json).
bench-json:
	./scripts/bench.sh

# Regression gates, each a ratio within one run: under fsync=always a
# 16-record AppendBatchAt run must cost >= 8x less per record than
# single appends, and the sparse first-level scan kernel must cost
# <= 2.5x its streaming roofline on the same entries.
bench-regress:
	./scripts/bench_regress.sh

# Non-test Go lines per package (the ROADMAP's tracked number).
loc:
	./scripts/loc.sh

# Allocation budgets for the zero-alloc hot paths (mux frame codec,
# qcache hit paths, scan kernels): runs the budgeted benchmarks with
# -benchmem and fails if any exceeds its allocs/op or B/op ceiling in
# scripts/alloc_budget.json. See BENCH_9.json for the before/after the
# budgets pin.
alloc-gate:
	./scripts/alloc_gate.sh

# Seed-corpus run plus a short live fuzz of every Fuzz target; the CI
# smoke uses the same loop.
fuzz-smoke:
	$(GO) test -run=Fuzz ./...
	./scripts/fuzz.sh 10s

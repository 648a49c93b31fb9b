#!/bin/sh
# Allocation budget gate for the hot paths fixed in PR 9 (see
# BENCH_9.json): the mux frame codec, the query-cache hit paths, the
# scan kernels and the parallel build's input split each carry an
# allocs/op + B/op ceiling in
# scripts/alloc_budget.json (one JSON object per line: bench, pkg,
# max_allocs_per_op, max_bytes_per_op). A change that reintroduces a
# per-frame or per-hit allocation fails this gate instead of shipping
# as a silent 10x regression.
#
#   scripts/alloc_gate.sh                 run the budgeted benchmarks and enforce the budget
#   scripts/alloc_gate.sh -check OUT BUD  enforce budget file BUD against canned `go test -benchmem` output OUT
#   scripts/alloc_gate.sh -selftest       prove the gate rejects an injected regression
#
# Benchmarks run with the fixed iteration count each budget line names
# in its "benchtime" field (ALLOC_BENCH_TIME overrides them all), which
# is exact for allocs/op: the runtime reports the integer mean over the
# measured iterations, and the gated paths allocate deterministically.
# Ns-scale benches need the larger counts so one-time pool warm-up
# amortizes to 0 B/op instead of polluting the byte column.
set -eu

cd "$(dirname "$0")/.."

budget="scripts/alloc_budget.json"

# check BENCH_OUTPUT BUDGET: every budgeted benchmark must appear in the
# output with -benchmem columns at or under its ceilings.
check() {
	awk '
FNR == NR {
    if (match($0, /"bench":[ \t]*"[^"]*"/)) {
        name = substr($0, RSTART, RLENGTH)
        sub(/^"bench":[ \t]*"/, "", name)
        sub(/"$/, "", name)
        if (match($0, /"max_allocs_per_op":[ \t]*[0-9]+/)) {
            v = substr($0, RSTART, RLENGTH); sub(/^[^0-9]*/, "", v)
            maxa[name] = v + 0
        }
        if (match($0, /"max_bytes_per_op":[ \t]*[0-9]+/)) {
            v = substr($0, RSTART, RLENGTH); sub(/^[^0-9]*/, "", v)
            maxb[name] = v + 0
        }
    }
    next
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in maxa)) next
    seen[name] = 1
    allocs = -1; bytes = -1
    for (i = 3; i <= NF; i++) {
        if ($i == "allocs/op") allocs = $(i - 1) + 0
        if ($i == "B/op") bytes = $(i - 1) + 0
    }
    if (allocs < 0 || bytes < 0) {
        printf "alloc_gate: FAIL — %s has no -benchmem columns\n", name
        bad = 1
        next
    }
    if (allocs > maxa[name] || bytes > maxb[name]) {
        printf "alloc_gate: FAIL — %s: %d allocs/op, %d B/op over budget (%d allocs/op, %d B/op)\n", \
            name, allocs, bytes, maxa[name], maxb[name]
        bad = 1
    } else {
        printf "alloc_gate: OK — %s: %d allocs/op, %d B/op within budget (%d allocs/op, %d B/op)\n", \
            name, allocs, bytes, maxa[name], maxb[name]
    }
}
END {
    for (name in maxa) {
        if (!(name in seen)) {
            printf "alloc_gate: FAIL — budgeted benchmark %s missing from the output\n", name
            bad = 1
        }
    }
    exit bad
}
' "$2" "$1"
}

selftest() {
	tmpd=$(mktemp -d)
	trap 'rm -rf "$tmpd"' EXIT
	printf '%s\n' \
		'{"bench": "BenchmarkSelfTest", "pkg": "./selftest", "max_allocs_per_op": 1, "max_bytes_per_op": 64}' \
		>"$tmpd/budget.json"
	printf 'BenchmarkSelfTest-8 \t 1000 \t 100 ns/op \t 64 B/op \t 1 allocs/op\n' >"$tmpd/ok.txt"
	printf 'BenchmarkSelfTest-8 \t 1000 \t 100 ns/op \t 128 B/op \t 9 allocs/op\n' >"$tmpd/bad.txt"
	check "$tmpd/ok.txt" "$tmpd/budget.json" >/dev/null || {
		echo "alloc_gate: selftest FAILED — within-budget output was rejected"
		exit 1
	}
	if check "$tmpd/bad.txt" "$tmpd/budget.json" >/dev/null 2>&1; then
		echo "alloc_gate: selftest FAILED — injected regression passed the gate"
		exit 1
	fi
	echo "alloc_gate: selftest OK — within-budget accepted, injected regression rejected"
}

case "${1:-}" in
-check)
	[ $# -eq 3 ] || { echo "usage: alloc_gate.sh -check BENCH_OUTPUT BUDGET" >&2; exit 2; }
	check "$2" "$3"
	exit $?
	;;
-selftest)
	selftest
	exit 0
	;;
"") ;;
*)
	echo "usage: alloc_gate.sh [-check BENCH_OUTPUT BUDGET | -selftest]" >&2
	exit 2
	;;
esac

# Default mode: one `go test -bench` per budgeted package, pattern built
# from that package's budgeted benchmark roots, then one check pass.
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

pairs=$(awk '
match($0, /"bench":[ \t]*"[^"]*"/) {
    n = substr($0, RSTART, RLENGTH)
    sub(/^"bench":[ \t]*"/, "", n); sub(/"$/, "", n)
    sub(/\/.*/, "", n)
    bt = "100x"
    if (match($0, /"benchtime":[ \t]*"[^"]*"/)) {
        bt = substr($0, RSTART, RLENGTH)
        sub(/^"benchtime":[ \t]*"/, "", bt); sub(/"$/, "", bt)
    }
    if (match($0, /"pkg":[ \t]*"[^"]*"/)) {
        p = substr($0, RSTART, RLENGTH)
        sub(/^"pkg":[ \t]*"/, "", p); sub(/"$/, "", p)
        print p "\t" n "\t" bt
    }
}' "$budget" | sort -u)

for pkg in $(printf '%s\n' "$pairs" | cut -f1 | sort -u); do
	pat=$(printf '%s\n' "$pairs" | awk -F'\t' -v p="$pkg" '
		$1 == p { printf "%s%s", sep, $2; sep = "|" }')
	bt=$(printf '%s\n' "$pairs" | awk -F'\t' -v p="$pkg" '$1 == p { print $3; exit }')
	go test -run '^$' -bench "^($pat)\$" -benchtime "${ALLOC_BENCH_TIME:-$bt}" \
		-benchmem "$pkg" | tee -a "$tmp"
done

check "$tmp" "$budget"

#!/bin/sh
# Prints non-test Go lines per package — the ROADMAP's tracked "line
# count per package" number. Counts every line (code, comments, blanks)
# of *.go files that are not *_test.go and not under a testdata/
# directory, grouped by directory, for the root package, cmd/ and
# internal/ (benchmark/ and examples/ are not the served system).
# Used by `make loc` and the verify job.
#
#   scripts/loc.sh [dir]      (default: the repository root)
#
# Run it on a checkout of the parent commit and on the change to get a
# before/after table:   scripts/loc.sh ../parent
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' \
	! -path '*/testdata/*' ! -path './benchmark/*' ! -path './examples/*' |
	sort | xargs wc -l | awk '
$2 == "total" { next }
{
    dir = $2
    sub(/^\.\//, "", dir)
    if (sub(/\/[^\/]*$/, "", dir) == 0) dir = "."
    lines[dir] += $1
    if (dir ~ /^(internal|cmd)\//) served += $1
    all += $1
}
END {
    for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
    close("sort -k2")
    printf "%7d  internal/ + cmd/\n", served
    printf "%7d  total\n", all
}'

#!/usr/bin/env bash
# gotest-run.sh — `go test PKG -run PATTERN [flags]` that refuses a stale
# pattern. go test exits 0 when a -run alternative matches nothing, so a gate
# that names tests ('A|B|C') keeps passing after one of them is renamed or
# deleted. Every |-alternative of PATTERN must select at least one test under
# `go test -list` before the run starts.
#
#   scripts/gotest-run.sh ./internal/nn 'AllocFree' -v
#   GO=go1.22 scripts/gotest-run.sh ./internal/par 'Panic|Retry' -race -v
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 PKG PATTERN [go test flags...]" >&2
	exit 2
fi
GO="${GO:-go}"
pkg=$1
pattern=$2
shift 2

IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	# -list also prints benchmarks, which -run never selects, and the
	# package's ok line.
	listed=$("$GO" test "$pkg" "$@" -list "$alt")
	if ! grep -Eq '^(Test|Example|Fuzz)' <<<"$listed"; then
		echo "$0: -run alternative '$alt' selects no test in $pkg" >&2
		exit 1
	fi
done
exec "$GO" test "$pkg" "$@" -run "$pattern"

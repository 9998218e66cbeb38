#!/usr/bin/env bash
# Fails when an exported function or method under internal/ is linked by
# no program. Builds every cmd/* and examples/* program and the scenario
# benchmark with inlining off, so a function that every caller inlined
# still shows up as a symbol, reads each binary's symbol table with
# `go tool nm`, and prints every exported non-test function, and every
# exported method of an exported type, that none of them holds, one
# `file:line: package.Type.Method` line each. An export listed here is
# reached only from tests (or from nothing): move it into the tests that
# use it, or delete it.
#
# Usage:
#   scripts/unlinked_exports.sh
#
# Run it from the repository root. It exits 1 when it prints an entry
# that the allowlist below does not name, and 0 otherwise.
set -euo pipefail

# Exports kept on purpose although no program links them, one
# package.Type.Method each, with the reason.
allow=(
	# The reference BFS that the root kernel_parity_test.go and the
	# BenchmarkScale* BFS rows hold CSR.BFS to, bit for bit.
	graph.CSR.BFSTopDown
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off

mkdir -p "$tmp/bin"
for d in cmd/*/ examples/*/; do
	d=${d%/}
	go build -gcflags=all=-l -o "$tmp/bin/${d//\//-}" "./$d"
done
go build -C bench -gcflags=all=-l -o "$tmp/bin/bench" .

# nm prints "address type name", and a generic instantiation's name
# carries its type arguments, spaces included. Keep the name, strip
# every [...] group (innermost first, so nested ones go too) and turn
# (*T).M into T.M, the form the declarations below take.
for b in "$tmp"/bin/*; do
	go tool nm "$b"
done | sed -E 's/^ *[0-9a-f]* +[A-Za-z] //; :a; s/\[[^][]*\]//; ta; s/\(\*([^()]*)\)/\1/' |
	sort -u >"$tmp/linked"

# Exported declarations: "func Name", "func (r T) Name" and
# "func (r *T[P]) Name" with T and Name exported, as
# "file:line repro/<dir>.[T.]Name".
grep -rnE --include='*.go' '^func (\([^)]*\) )?[A-Z]' internal |
	grep -v '_test\.go:' |
	sed -nE 's#^((internal/.*)/[^/]+\.go):([0-9]+):func (\((\w+ )?\*?([A-Z]\w*)(\[[^]]*\])?\) )?([A-Z]\w*).*#\1:\3 repro/\2.\6.\8#p' |
	sed -E 's/\.\././' >"$tmp/declared"

awk 'NR == FNR { linked[$0] = 1; next }
	!($2 in linked) { sub(/^repro\/internal\//, "", $2); print $1 ": " $2 }' \
	"$tmp/linked" "$tmp/declared" | sort -t: -k1,1 -k2,2n >"$tmp/unlinked"
cat "$tmp/unlinked"

printf '%s\n' "${allow[@]}" >"$tmp/allow"
if awk 'NR == FNR { ok[$0] = 1; next } !($2 in ok) { bad = 1 } END { exit !bad }' \
	"$tmp/allow" "$tmp/unlinked"; then
	echo "unlinked_exports.sh: an export above is linked by no program and not allowlisted" >&2
	exit 1
fi

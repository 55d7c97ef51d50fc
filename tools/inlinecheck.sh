#!/usr/bin/env bash
# The hot paths' callees stay inlined. Several measured gains rest on
# small helpers that cost 68–78 against the inliner's budget of 80: the
# mark loop's small-block rule and mark-bit step, a region's plain
# store, a frame's slot access and the size-class lookup of both
# allocation fast paths. A helper that grows past the budget stops
# inlining without any test failing, and its call (with the spills
# around it) lands in the hottest loops. This builds the packages with
# -gcflags=-m and fails unless the compiler reports each listed
# (caller, callee) inline inside the caller's body.
#
# Run from the repository root: bash tools/inlinecheck.sh
set -euo pipefail

# One entry a line: the caller's file, the caller (Type.Method), and the
# callee as the compiler prints it after "inlining call to".
want=$(cat <<'LIST'
internal/alloc/geometry.go	Allocator.resolve	(*blockDesc).smallSlot
internal/alloc/geometry.go	Allocator.resolve	(*blockDesc).setMark
internal/alloc/scan.go	Allocator.Scan	(*blockDesc).smallSlot
internal/alloc/scan.go	Allocator.Scan	(*blockDesc).setMark
internal/core/caches.go	Region.Store	(*World).barrierFree
internal/core/caches.go	Region.Store	mem.(*Segment).TryStore
internal/machine/machine.go	Frame.Store	(*Frame).slot
internal/machine/machine.go	Frame.Load	(*Frame).slot
internal/core/caches.go	Region.Allocate	alloc.ListIndex
internal/core/mutator.go	Mutator.allocate	alloc.ListIndex
LIST
)

report=$(go build -gcflags=-m ./internal/alloc ./internal/mark ./internal/core ./internal/mem ./internal/machine 2>&1)

fail=0
while IFS=$'\t' read -r file caller callee; do
	typ=${caller%%.*} name=${caller#*.}
	# The caller's body: from its func line to the first closing brace
	# at the start of a line (the same line for a one-line body).
	range=$(awk -v re="^func \\\\([a-z]+ \\\\*?$typ\\\\) $name\\\\(" '
		start == 0 && $0 ~ re { start = NR; if ($0 ~ /}$/) { print start, NR; exit } ; next }
		start != 0 && /^}/ { print start, NR; exit }' "$file")
	if [ -z "$range" ]; then
		echo "inlinecheck: no func $caller in $file"
		fail=1
		continue
	fi
	read -r lo hi <<<"$range"
	found=$(awk -F: -v f="$file" -v lo="$lo" -v hi="$hi" -v c="inlining call to $callee" '
		$1 == f && $2 >= lo && $2 <= hi && index($0, c) == length($0) - length(c) + 1 { print "yes"; exit }' <<<"$report")
	if [ -z "$found" ]; then
		echo "inlinecheck: $callee is not inlined into $caller ($file:$lo-$hi)"
		fail=1
	fi
done <<<"$want"
exit $fail

#!/usr/bin/env bash
# Names say what they test. Fails on a Test/Fuzz/Benchmark function, or
# a table row or subtest name literal, in any _test.go outside
# cmd/perfbench whose name says detached, parallel, par-, workers,
# adaptive, bgsweep, linealloc, line-, -line, sweepbench or pausebench
# (the mechanisms and benchmark drivers those words named are gone),
# unless the allowlist below keeps it in that file; and on an
# alternative of the race target's CONC_BATTERIES pattern (passed in the
# environment) that names no test of internal/core.
#
# Run from the repository root: CONC_BATTERIES='A|B' bash tools/namecheck.sh
set -euo pipefail

words='detached|parallel|par-|workers|adaptive|bgsweep|linealloc|line-|-line|sweepbench|pausebench'

# One entry a line: the file, the name, then why it may say what it
# says. "Kept name" entries are tests and rows that still carry the name
# they had before the mechanism went; each says what it runs now.
allow=$(cat <<'LIST'
bench_test.go	BenchmarkTenantAllocateTwoWorkers	two goroutines ("workers") each drive eight tenant handles
internal/core/modes_test.go	"LineAlloc"	TestInertKnobs' row for Config.LineAlloc, which it pins as selecting nothing
internal/core/modes_test.go	"MarkWorkers"	TestInertKnobs' row for Config.MarkWorkers, which it pins as selecting nothing
internal/core/modes_test.go	"ConcMarkWorkers"	TestInertKnobs' row for Config.ConcMarkWorkers, which it pins as selecting nothing
internal/core/concurrent_cycle_test.go	TestAdaptiveMarkWorkersRebuild	kept name: two stepped cycles over a ~12 MiB live heap mark everything
internal/core/concurrent_cycle_test.go	TestDetachedWorkersParkAndRetire	kept name: allocation assists alone land cycles
internal/core/concurrent_cycle_test.go	TestMarkWorkersDefaultIsAdaptive	kept name: a default concurrent cycle marks on one marker and starts no goroutine
internal/core/concurrent_cycle_test.go	TestParallelCollectMatchesSerial	kept name: a concurrent collection matches a stop-the-world one
internal/core/concurrent_cycle_test.go	TestParallelMarkOnlyMatchesSerial	kept name: MarkOnly lands the cycle in flight, then matches stop-the-world
internal/core/concurrent_test.go	"par-lazy"	kept row name: the conc-lazy mode
internal/core/cycle_test.go	"detached"	kept row name: a concurrent kind after a concurrent first cycle
internal/core/cycle_test.go	"parallel"	kept row name: a stop-the-world kind after a concurrent first cycle
internal/core/held_test.go	"conc-workers"	kept row name: the conc-lazy mode
internal/core/held_test.go	"line-lazy"	kept row name: the lazy mode
internal/core/lazysweep_test.go	"parallel"	kept row name: the conc mode
internal/core/lostobject_test.go	"detached"	kept row name: the conc-lazy mode
internal/core/mutator_test.go	"par-lazy"	kept row name: the conc-lazy mode
internal/core/mutator_test.go	"parallel"	kept row name: the conc mode
internal/core/provenance_test.go	"par-lazy"	kept row name: the conc-lazy mode
internal/core/provenance_test.go	TestProvenanceParallelUnique	kept name: one provenance record per object marked across a concurrent cycle
internal/core/soak_test.go	"serial/line-bgsweep"	kept row name: the conc-lazy mode
internal/core/soak_test.go	"stop-the-world/line-bgsweep"	kept row name: the lazy mode
internal/core/summary_test.go	"detached-finale"	kept row name: the cycle audited between chunks of 16
internal/core/summary_test.go	"parallel-run"	kept row name: the cycle audited before its first chunk
internal/core/tenant_test.go	"line-lazy"	kept row name: the lazy mode
internal/core/trace_test.go	TestCollectAllocBoundUntracedParallel	kept name: an untraced Collect allocates nothing after concurrent cycles
internal/core/watch_test.go	"conc-workers"	kept row name: the conc-lazy mode
internal/core/world_test.go	"concurrent-detached"	kept row name: a concurrent cycle under the lazy sweep
internal/mark/loop_test.go	TestParallelSparseRoots	kept name: Shade then Drain matches MarkValue then Drain
LIST
)

files=$(find . -name '*_test.go' -not -path './cmd/perfbench/*' -not -path './.bench_build/*' | sed 's|^\./||')
found=$(
	{
		grep -HoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' $files | sed -E 's/:func /\t/'
		# Row and subtest names: a composite literal's first string, a
		# map key, index or value, a name field or variable, a string
		# assigned, a t.Run/b.Run argument.
		grep -HoE '(\{|\[|name:? *=? *|[:=] *|[tb]\.Run\((fmt\.Sprintf\()?)"[^"]*"|^[[:space:]]*"[^"]*":' $files |
			sed -E 's/^([^:]*):.*("[^"]*").*$/\1\t\2/'
	} | awk -F'\t' -v re="$words" 'tolower($2) ~ re' | sort -u
)
status=0
while IFS= read -r name; do
	if [ -n "$name" ] && ! grep -qxF -- "$name" <<<"$(cut -f1,2 <<<"$allow")"; then
		echo "namecheck: ${name/$'\t'/: } names a mechanism that is gone; rename it for what it checks, or allowlist it in tools/namecheck.sh with the reason"
		status=1
	fi
done <<<"$found"

if [ -n "${CONC_BATTERIES:-}" ]; then
	IFS='|' read -ra alts <<<"$CONC_BATTERIES"
	listed=$(go test -list . ./internal/core | grep -E '^(Test|Fuzz|Example)')
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$listed"; then
			echo "namecheck: CONC_BATTERIES alternative '$alt' matches no test in internal/core"
			status=1
		fi
	done
fi
exit $status

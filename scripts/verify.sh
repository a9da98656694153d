#!/bin/sh
# verify.sh — the repository's full verification gauntlet:
#   1. tier-1: build + vet + gofmt cleanliness + full test suite
#   1b. marvel-vet lint job: the custom static-analysis suite
#       (determinism, maporder, rngsource, obscost, errdiscipline) must
#       pass on the whole tree, and — guard-the-guard — must demonstrably
#       fail on a seeded violation
#   2. race jobs: the shared fault-dispatch kernel and the CPU and
#      accelerator campaigns' parallel paths under the race detector
#      (including traced campaigns, ForkStats folding and the
#      checkpoint-ladder differential suite)
#   3. sweep race job + differential guard: the orchestrator's two-level
#      parallelism, golden-cache reuse and resume must be race-free and
#      bit-identical to standalone campaigns; adaptive confidence-targeted
#      sizing must be schedule-independent and a bit-identical prefix of
#      the fixed-budget run, and must demonstrably save >= 30% of the
#      worst-case budget at equal margin
#   4. zero-alloc + observability guard: a warm simulated cycle must
#      allocate nothing on any ISA, nor a reset accelerator fork's whole
#      faulty run on any design, whose event-driven scheduler must issue
#      exactly what the scan oracle does; tracing and profiling must be
#      zero-alloc on the golden path and must not perturb verdict streams;
#      the sweep's Chrome-trace timeline export must satisfy the format's
#      schema invariants
#   5. bench guard: the forking ablations and tracing-overhead benches
#      compile and run, the checkpoint ladder demonstrably cuts
#      pre-injection replay at least 2x on a long-window workload, and
#      span profiling costs < 5% host CPU time on a one-worker campaign
#   6. explain smoke test: the CLI narrates a known-SDC fault end to end
#   7. server race job: the campaign service's worker pool, golden LRU,
#      event streams and drain under the race detector, with served-vs-
#      offline digest differentials
#   8. fuzz smoke: 30s per fuzz target over the checked-in corpora
#   9. coverage gate: internal/server must stay >= 80% covered
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: build + vet + gofmt + tests =="
go build ./...
go vet ./...
dirty="$(gofmt -l .)"
[ -z "$dirty" ] || {
	echo "verify: gofmt: files need formatting:" >&2
	echo "$dirty" >&2
	exit 1
}
go test ./...

echo "== marvel-vet: custom static-analysis suite =="
go run ./cmd/marvel-vet ./...

# Guard the guard: seed a determinism violation into a scratch file and
# demand marvel-vet rejects it when analyzed under an engine import path.
vetdir="$(mktemp -d)"
cat >"$vetdir/bad.go" <<'EOF'
package campaign

import "time"

func skew() time.Time { return time.Now() }
EOF
if go run ./cmd/marvel-vet -as marvel/internal/campaign "$vetdir/bad.go" >/dev/null 2>&1; then
	rm -rf "$vetdir"
	echo "verify: marvel-vet accepted a seeded time.Now violation" >&2
	exit 1
fi
rm -rf "$vetdir"

echo "== race: fault-dispatch kernel =="
go test -race ./internal/dispatch

echo "== race: parallel campaign determinism =="
go test -race -run 'TestCampaignWorkerCountInvariance|TestForkCloneEquivalence' ./internal/campaign
go test -race -run 'TestTracingDoesNotChangeVerdicts|TestForkStatsUnderParallelWorkers' ./internal/campaign

echo "== race: parallel accel campaign determinism =="
go test -race -run 'TestAccelCampaignWorkerInvariance|TestStandaloneForkResetEquivalence' ./internal/accel
go test -race -run 'TestAccelCampaignEquivalenceStuckAt0|TestAccelMaskPopulationWindowIndependentOfSchedule' ./internal/accel
go test -race -run 'TestAccelTracingDoesNotChangeVerdicts|TestAccelForkStatsUnderParallelWorkers' ./internal/accel

echo "== race: checkpoint-ladder dispatch equivalence =="
# The ladder's rung-sorted dispatch and per-rung scratch systems are the
# newest parallel surface: the differential suite must pass under the
# race detector, serial and 8-worker alike, on both engines.
go test -race -run 'TestLadderEquivalenceSerialAndParallel|TestLadderForkStatsAccounting' ./internal/campaign
go test -race -run 'TestAccelLadderEquivalenceSerialAndParallel|TestAccelLadderForkStatsAccounting' ./internal/accel

# Guard: the ladder-vs-baseline differentials must exist and actually
# pass — they carry the proof that rung forking never changes a verdict.
for t in TestLadderEquivalenceAllTargets TestLadderTracedNarrationIdentical TestLadderStraddlingMaskAppliesInCycleOrder; do
	go test -run "^${t}\$" -v ./internal/campaign | grep -q -- "--- PASS: ${t}" || {
		echo "verify: ladder differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done
for t in TestAccelLadderEquivalenceAllDesigns TestAccelLadderEquivalenceWindowOverride; do
	go test -run "^${t}\$" -v ./internal/accel | grep -q -- "--- PASS: ${t}" || {
		echo "verify: ladder differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done

echo "== race: adaptive-sizing dispatch equivalence =="
# Adaptive stopping decides at batch barriers, so the achieved sample and
# the record stream must be schedule-independent: the serial and 8-worker
# adaptive campaigns agree under the race detector on both engines.
go test -race -run 'TestAdaptiveEquivalenceSerialAndParallel|TestAdaptiveEquivalenceWithLadder' ./internal/campaign
go test -race -run 'TestAccelAdaptiveSerialAndParallel|TestAccelAdaptiveWithLadder' ./internal/accel

# Guard: the adaptive-vs-fixed differentials must exist and actually
# pass — they carry the proof that stopping early only truncates the
# prefix-stable record stream, never changes it.
for t in TestAdaptiveEquivalenceAllTargets TestAdaptiveStopsEarlyAndConverges TestFixedModeUnchangedByAdaptiveFields; do
	go test -run "^${t}\$" -v ./internal/campaign | grep -q -- "--- PASS: ${t}" || {
		echo "verify: adaptive differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done
for t in TestAccelAdaptiveEquivalenceAllDesigns TestAccelAdaptiveStopsEarlyAndConverges; do
	go test -run "^${t}\$" -v ./internal/accel | grep -q -- "--- PASS: ${t}" || {
		echo "verify: adaptive differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done
go test -run '^TestSweepAdaptiveResume$' -v ./internal/sweep | grep -q -- '--- PASS: TestSweepAdaptiveResume' || {
	echo "verify: adaptive differential guard: TestSweepAdaptiveResume did not run/pass" >&2
	exit 1
}

echo "== race: sweep orchestrator (golden cache, resume, worker budget) =="
go test -race ./internal/sweep

echo "== race: metrics registry + profiler =="
go test -race -run 'TestRegistryConcurrentAdds|TestServeDebugEndpoints' ./internal/obs
go test -race ./internal/obs

# Guard: the differential suite (sweep cell ≡ standalone campaign, traced
# campaign ≡ untraced campaign, proven by verdict-stream digests, and CPU
# and accelerator cell digests ≡ values pinned on earlier commits) must
# exist and actually run — a refactor that renames or drops it would
# otherwise silently void the bit-identity guarantee.
for t in TestSweepDifferential TestSweepAccelDifferential TestSweepResume TestCPUDigestsPinned TestAccelDigestsPinned; do
	go test -run "^${t}\$" -v ./internal/sweep | grep -q -- "--- PASS: ${t}" || {
		echo "verify: differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done
# The facade's campaigns run as one-cell sweep grids; their reports stay
# pinned (accelerator cases on values recorded before they did, CPU cases
# since CPU masks moved onto core.MaskSpace).
for t in TestFacadeReportsPinned; do
	go test -run "^${t}\$" -v . | grep -q -- "--- PASS: ${t}" || {
		echo "verify: differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done
for t in TestTracingDoesNotChangeVerdicts TestExplainReproducesCampaignVerdict; do
	go test -run "^${t}\$" -v ./internal/campaign | grep -q -- "--- PASS: ${t}" || {
		echo "verify: tracing differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done

echo "== zero-alloc guard: simulator step, accel engine, tracing + profiling =="
for t in TestTracerZeroAlloc TestProfilerZeroAlloc; do
	go test -run "^${t}\$" -v ./internal/obs | grep -q -- "--- PASS: ${t}" || {
		echo "verify: zero-alloc observability guard: ${t} did not run/pass" >&2
		exit 1
	}
done
go test -run '^TestStepZeroAlloc$' -v ./internal/soc | grep -q -- '--- PASS: TestStepZeroAlloc' || {
	echo "verify: zero-alloc guard: TestStepZeroAlloc did not run/pass" >&2
	exit 1
}
go test -run '^TestEngineTickZeroAlloc$' -v ./internal/accel | grep -q -- '--- PASS: TestEngineTickZeroAlloc' || {
	echo "verify: zero-alloc guard: TestEngineTickZeroAlloc did not run/pass" >&2
	exit 1
}

# Guard: the accelerator scheduler ≡ scan-oracle differential must exist
# and pass — it carries the proof that event-driven issue picks the same
# instructions on every tick as the whole-block scan it replaced.
go test -run '^TestSchedulerMatchesScanOracle$' -v ./internal/accel | grep -q -- '--- PASS: TestSchedulerMatchesScanOracle' || {
	echo "verify: scheduler differential guard: TestSchedulerMatchesScanOracle did not run/pass" >&2
	exit 1
}

# Guard: the profiling-vs-bare differentials must exist and pass on all
# three layers (CPU engine, accelerator engine, sweep orchestrator) —
# they carry the proof that span boundaries sit outside simulated work,
# and the sweep one also validates the Chrome trace-event schema.
go test -run '^TestProfilingDoesNotChangeVerdicts$' -v ./internal/campaign | grep -q -- '--- PASS: TestProfilingDoesNotChangeVerdicts' || {
	echo "verify: profiling differential guard (campaign) did not run/pass" >&2
	exit 1
}
go test -run '^TestAccelProfilingDoesNotChangeVerdicts$' -v ./internal/accel | grep -q -- '--- PASS: TestAccelProfilingDoesNotChangeVerdicts' || {
	echo "verify: profiling differential guard (accel) did not run/pass" >&2
	exit 1
}
go test -run '^TestSweepProfilingDifferentialAndTimeline$' -v ./internal/sweep | grep -q -- '--- PASS: TestSweepProfilingDifferentialAndTimeline' || {
	echo "verify: profiling differential + timeline schema guard (sweep) did not run/pass" >&2
	exit 1
}

echo "== bench guard: forking ablations + tracing overhead =="
go test -run '^$' -bench 'BenchmarkAblation_CheckpointForking|BenchmarkAccelCampaign|BenchmarkTracingOverhead' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkTracerEmit' -benchtime 1000x ./internal/obs

echo "== bench guard: ladder replay reduction =="
# BenchmarkCampaignLadder fails (b.Fatalf) unless LadderRungs=8 cuts the
# replayed pre-injection cycles at least 2x on the long-window workload.
go test -run '^$' -bench '^BenchmarkCampaignLadder$' -benchtime 1x .

echo "== bench guard: adaptive sizing savings =="
# BenchmarkCampaignAdaptive fails (b.Fatalf) unless confidence-targeted
# stopping saves at least 30% of the worst-case fixed budget at the same
# margin on a low-AVF cell.
go test -run '^$' -bench '^BenchmarkCampaignAdaptive$' -benchtime 1x .

echo "== bench guard: profiling overhead < 5% =="
# BenchmarkProfilingOverhead fails (b.Fatalf) if attaching a profiler to
# a one-worker campaign costs more than 5% host CPU time (median of
# paired off/on runs), or as inconclusive if its pairs never agree.
go test -run '^$' -bench '^BenchmarkProfilingOverhead$' -benchtime 1x .

echo "== explain smoke test: narrate a known-SDC fault =="
# riscv/crc32/prf seed 1 index 10 is the first SDC of that campaign on
# the fast preset (indices 0-9 mask or crash; pinned by core.MaskSpace's
# pure (seed, index) derivation); the narrator must surface the
# divergence event and the SDC conclusion.
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go run ./cmd/marvel explain -isa riscv -workload crc32 -target prf \
	-preset fast -seed 1 -index 10 >"$tmp"
grep -q 'divergence' "$tmp" || {
	echo "verify: explain smoke: no divergence event in narrative" >&2
	cat "$tmp" >&2
	exit 1
}
grep -q 'verdict: sdc' "$tmp" || {
	echo "verify: explain smoke: expected an SDC verdict" >&2
	cat "$tmp" >&2
	exit 1
}

echo "== timeline smoke: campaign -timeline emits a loadable trace =="
# The CLI flag must produce a Chrome trace-event file and print the
# where-the-time-went table without perturbing the run.
trace="$(mktemp)"
trap 'rm -f "$tmp" "$trace"' EXIT
go run ./cmd/marvel campaign -isa riscv -workload crc32 -target prf \
	-preset fast -faults 20 -seed 3 -timeline "$trace" >"$tmp"
grep -q 'traceEvents' "$trace" || {
	echo "verify: timeline smoke: trace file has no traceEvents array" >&2
	exit 1
}
grep -q 'where the time went' "$tmp" || {
	echo "verify: timeline smoke: no attribution table on stdout" >&2
	cat "$tmp" >&2
	exit 1
}

echo "== race: campaign service (worker pool, golden LRU, drain) =="
go test -race ./internal/server

# Guard: the served-vs-offline differentials must exist and pass — the
# service's bit-identity claim rests on them.
for t in TestServedCampaignDifferential TestConcurrentJobsDifferential; do
	go test -run "^${t}\$" -v ./internal/server | grep -q -- "--- PASS: ${t}" || {
		echo "verify: server differential guard: ${t} did not run/pass" >&2
		exit 1
	}
done

echo "== fuzz smoke: 30s per target =="
go test -run '^$' -fuzz '^FuzzISARoundTrip$' -fuzztime=30s ./internal/isa
go test -run '^$' -fuzz '^FuzzDecodeWindow$' -fuzztime=30s ./internal/isa
go test -run '^$' -fuzz '^FuzzEngineSchedule$' -fuzztime=30s ./internal/accel
go test -run '^$' -fuzz '^FuzzConfigParse$' -fuzztime=30s ./internal/config

echo "== coverage gate: internal/server >= 80% =="
cov="$(go test -cover ./internal/server | awk '{for (i=1;i<=NF;i++) if ($i ~ /^[0-9.]+%$/) print substr($i, 1, length($i)-1)}')"
[ -n "$cov" ] || { echo "verify: coverage gate: no coverage figure for internal/server" >&2; exit 1; }
awk -v c="$cov" 'BEGIN { exit (c >= 80.0) ? 0 : 1 }' || {
	echo "verify: coverage gate: internal/server at ${cov}%, need >= 80%" >&2
	exit 1
}
echo "internal/server coverage: ${cov}%"

echo "verify: OK"

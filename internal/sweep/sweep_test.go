package sweep_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/program"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		spec sweep.Spec
		ok   bool
	}{
		{"cpu grid", sweep.Spec{ISAs: []string{"riscv"}, Workloads: []string{"sha"}, Targets: []string{"prf"}}, true},
		{"multi-target", sweep.Spec{ISAs: []string{"arm"}, Workloads: []string{"crc32"}, Targets: []string{"prf+rob+iq"}}, true},
		{"accel grid", sweep.Spec{Designs: []string{"gemm"}}, true},
		{"mixed grid", sweep.Spec{ISAs: []string{"x86"}, Workloads: []string{"sha"}, Targets: []string{"l1d"}, Designs: []string{"bfs"}}, true},
		{"bad isa", sweep.Spec{ISAs: []string{"mips"}, Workloads: []string{"sha"}, Targets: []string{"prf"}}, false},
		{"bad workload", sweep.Spec{ISAs: []string{"arm"}, Workloads: []string{"doom"}, Targets: []string{"prf"}}, false},
		{"bad target", sweep.Spec{ISAs: []string{"arm"}, Workloads: []string{"sha"}, Targets: []string{"tlb"}}, false},
		{"dup structure", sweep.Spec{ISAs: []string{"arm"}, Workloads: []string{"sha"}, Targets: []string{"prf+prf"}}, false},
		{"empty structure", sweep.Spec{ISAs: []string{"arm"}, Workloads: []string{"sha"}, Targets: []string{"prf+"}}, false},
		{"bad model", sweep.Spec{ISAs: []string{"arm"}, Workloads: []string{"sha"}, Targets: []string{"prf"}, Models: []string{"cosmic"}}, false},
		{"bad design", sweep.Spec{Designs: []string{"quake"}}, false},
		{"bad component", sweep.Spec{Designs: []string{"gemm"}, Components: []string{"MATRIX9"}}, false},
		{"components without designs", sweep.Spec{Components: []string{"MATRIX1"}}, false},
		{"empty", sweep.Spec{}, false},
		{"targets without isas", sweep.Spec{Targets: []string{"prf"}}, false},
	}
	for _, tc := range cases {
		_, err := sweep.Plan(tc.spec)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestPlanCrossProductAndOrder(t *testing.T) {
	cells, err := sweep.Plan(sweep.Spec{
		ISAs:      []string{"riscv", "arm"},
		Workloads: []string{"sha", "crc32"},
		Targets:   []string{"prf", "rob"},
		Models:    []string{"transient"},
		Designs:   []string{"gemm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	gemmComponents := 2 // MATRIX1, MATRIX3 (Table IV)
	want := 2*2*2 + gemmComponents
	if len(cells) != want {
		t.Fatalf("planned %d cells, want %d", len(cells), want)
	}
	// Re-planning is deterministic.
	again, err := sweep.Plan(sweep.Spec{
		ISAs:      []string{"riscv", "arm"},
		Workloads: []string{"sha", "crc32"},
		Targets:   []string{"prf", "rob"},
		Models:    []string{"transient"},
		Designs:   []string{"gemm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Key() != again[i].Key() {
			t.Fatalf("plan order not deterministic at %d: %s vs %s", i, cells[i].Key(), again[i].Key())
		}
	}
}

// TestSpecValidate: Validate adds the sizing rule and preset resolution
// to Plan's name checks, so a spec it accepts never fails Run's checks.
func TestSpecValidate(t *testing.T) {
	ok := sweep.Spec{ISAs: []string{"riscv"}, Workloads: []string{"crc32"}, Targets: []string{"prf"}, Faults: 4}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, edit := range map[string]func(*sweep.Spec){
		"plan":   func(s *sweep.Spec) { s.Targets = nil },
		"sizing": func(s *sweep.Spec) { s.LadderRungs = -1 },
		"preset": func(s *sweep.Spec) { s.Preset = "bogus" },
	} {
		s := ok
		edit(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: bad spec accepted", name)
		}
		if _, err := sweep.Run(s); err == nil {
			t.Errorf("%s: Run accepted a spec Validate rejects", name)
		}
	}
}

// TestPlanNormalizesModelNames: an empty model name plans as the
// transient default, so the cell key is the same either way.
func TestPlanNormalizesModelNames(t *testing.T) {
	cells, err := sweep.Plan(sweep.Spec{ISAs: []string{"arm"}, Workloads: []string{"sha"}, Targets: []string{"prf"}, Models: []string{""}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cells[0].Key(), "cpu/arm/sha/prf/transient"; got != want {
		t.Fatalf("key = %s, want %s", got, want)
	}
}

// demoSpec is the acceptance-criteria grid: 2 ISAs × 3 workloads ×
// 2 targets (one of them multi-structure), scaled for test time.
func demoSpec(t testing.TB, dir string) sweep.Spec {
	t.Helper()
	return sweep.Spec{
		ISAs:      []string{"riscv", "arm"},
		Workloads: []string{"crc32", "sha", "qsort"},
		Targets:   []string{"prf", "prf+rob"},
		Models:    []string{"transient"},
		Faults:    10,
		Seed:      41,
		ValidOnly: true,
		Preset:    "fast",
		OutDir:    dir,
	}
}

func TestSweepGoldenReuseAndProgress(t *testing.T) {
	var last sweep.Snapshot
	snaps := 0
	spec := demoSpec(t, "")
	spec.OnProgress = func(s sweep.Snapshot) { last = s; snaps++ }
	res, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 2 * 3 * 2
	if len(res.Cells) != cells || res.Counters.CellsExecuted != cells {
		t.Fatalf("executed %d cells, want %d", res.Counters.CellsExecuted, cells)
	}
	// 2 ISAs × 3 workloads golden phases; the second target of each pair
	// must reuse the first's golden.
	if res.Counters.GoldenRuns != 6 {
		t.Errorf("golden runs = %d, want 6 (one per ISA×workload)", res.Counters.GoldenRuns)
	}
	if res.Counters.GoldenHits != cells-6 {
		t.Errorf("golden hits = %d, want %d", res.Counters.GoldenHits, cells-6)
	}
	if snaps == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	if last.CellsFinished != cells || last.FaultsDone != int64(cells*spec.Faults) {
		t.Errorf("final snapshot incomplete: %+v", last)
	}
	if last.TotalFaults != int64(cells*spec.Faults) {
		t.Errorf("TotalFaults = %d, want %d", last.TotalFaults, cells*spec.Faults)
	}
	for _, c := range res.Cells {
		if c.Faults != spec.Faults || c.Digest == "" {
			t.Fatalf("cell %s incomplete: %+v", c.Key, c)
		}
		if c.HVFMeasured || c.HVF != nil {
			t.Fatalf("cell %s claims HVF without HVF analysis", c.Key)
		}
	}
}

// TestSweepDifferential proves that golden-cache reuse is invisible:
// every sweep cell's verdict stream is bit-identical to a standalone
// campaign.Run with the same configuration and seed.
func TestSweepDifferential(t *testing.T) {
	spec := demoSpec(t, "")
	res, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cellRep := range res.Cells {
		cell := cellRep.Cell
		a, err := isa.ByName(cell.ISA)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := workloads.ByName(cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		img, err := program.Compile(a, ws.Build())
		if err != nil {
			t.Fatal(err)
		}
		cfg := campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Model:  core.Transient,
			Sizing: dispatch.Sizing{Faults: spec.Faults},
			Seed:   spec.Seed,
			Domain: core.DomainValidOnly,
		}
		if parts := strings.Split(cell.Target, "+"); len(parts) > 1 {
			cfg.MultiTargets = parts
		} else {
			cfg.Target = cell.Target
		}
		standalone, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantDigest := sweep.DigestCPURecords(standalone.Records)
		if cellRep.Digest != wantDigest {
			t.Errorf("%s: sweep digest %s != standalone digest %s", cellRep.Key, cellRep.Digest, wantDigest)
		}
		if cellRep.Masked != standalone.Counts.Masked ||
			cellRep.SDC != standalone.Counts.SDC ||
			cellRep.Crash != standalone.Counts.Crash {
			t.Errorf("%s: counts diverge: sweep %d/%d/%d standalone %v",
				cellRep.Key, cellRep.Masked, cellRep.SDC, cellRep.Crash, standalone.Counts)
		}
		if cellRep.GoldenCycles != standalone.Golden.Cycles {
			t.Errorf("%s: golden cycles %d != %d", cellRep.Key, cellRep.GoldenCycles, standalone.Golden.Cycles)
		}
	}
}

// TestSweepAccelDifferential does the same for the accelerator grid.
func TestSweepAccelDifferential(t *testing.T) {
	spec := sweep.Spec{
		Designs:    []string{"gemm"},
		Components: []string{"MATRIX1", "MATRIX3"},
		Faults:     12,
		Seed:       9,
	}
	res, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.GoldenRuns != 1 || res.Counters.GoldenHits != 1 {
		t.Errorf("accel golden cache: runs=%d hits=%d, want 1/1",
			res.Counters.GoldenRuns, res.Counters.GoldenHits)
	}
	ms, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	for _, cellRep := range res.Cells {
		standalone, err := accel.RunCampaign(accel.CampaignConfig{
			Design: ms.Design,
			Task:   ms.Task,
			Target: cellRep.Cell.Component,
			Model:  core.Transient,
			Sizing: dispatch.Sizing{Faults: spec.Faults},
			Seed:   spec.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := sweep.DigestAccelRecords(standalone.Records); cellRep.Digest != want {
			t.Errorf("%s: sweep digest %s != standalone %s", cellRep.Key, cellRep.Digest, want)
		}
	}
}

// TestSweepCountersAccountEveryFault: over an accelerator grid where exact
// pruning decides many faults, every fault of every cell is a fork, a
// reuse or a pruned fault, and Result.Counters folds all three.
func TestSweepCountersAccountEveryFault(t *testing.T) {
	res, err := sweep.Run(sweep.Spec{
		Designs:     []string{"gemm", "stencil2d"},
		Models:      []string{"transient", "stuck-at-1"},
		Faults:      16,
		Seed:        5,
		LadderRungs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	var pruned uint64
	for _, cell := range res.Cells {
		pruned += cell.Forking.Pruned
	}
	if c.Pruned == 0 || c.Pruned != pruned {
		t.Errorf("counters fold %d pruned faults, cells %d; want the same, above 0", c.Pruned, pruned)
	}
	if got := c.Forks + c.ForkReuses + c.Pruned; got != uint64(c.FaultsDone) {
		t.Errorf("forks %d + reuses %d + pruned %d = %d, want %d faults done", c.Forks, c.ForkReuses, c.Pruned, got, c.FaultsDone)
	}
}

// TestSweepResume kills a sweep after N cells (simulated by truncating
// the journal) and verifies the rerun skips exactly the completed cells,
// re-executes the rest, and leaves a complete journal.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	spec := demoSpec(t, dir)
	first, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(first.Cells)

	// Simulate a kill after 4 cells: keep 4 complete lines plus one torn
	// line (a partial JSON record, as a SIGKILL mid-append would leave).
	jPath := filepath.Join(dir, "cells.jsonl")
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != total {
		t.Fatalf("journal has %d lines, want %d", len(lines), total)
	}
	const keep = 4
	torn := strings.Join(lines[:keep], "\n") + "\n" + lines[keep][:len(lines[keep])/2]
	if err := os.WriteFile(jPath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counters.CellsSkipped != keep {
		t.Errorf("skipped %d cells, want %d", resumed.Counters.CellsSkipped, keep)
	}
	if resumed.Counters.CellsExecuted != total-keep {
		t.Errorf("re-executed %d cells, want %d", resumed.Counters.CellsExecuted, total-keep)
	}
	if len(resumed.Cells) != total {
		t.Fatalf("final result has %d cells, want %d", len(resumed.Cells), total)
	}

	// The resumed run's cells — both restored and re-executed — must be
	// bit-identical to the uninterrupted run's.
	for i := range first.Cells {
		if first.Cells[i].Digest != resumed.Cells[i].Digest {
			t.Errorf("cell %s digest changed across resume", first.Cells[i].Key)
		}
	}

	// The final journal is complete: every planned key exactly once
	// (the torn line's cell was re-run and re-appended).
	raw, err = os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.Contains(line, "\"key\"") {
			for _, c := range first.Cells {
				if strings.Contains(line, `"key":"`+c.Key+`"`) {
					seen[c.Key]++
				}
			}
		}
	}
	for _, c := range first.Cells {
		if seen[c.Key] == 0 {
			t.Errorf("cell %s missing from final journal", c.Key)
		}
	}
}

func TestSweepManifestMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{
		ISAs: []string{"riscv"}, Workloads: []string{"crc32"}, Targets: []string{"prf"},
		Faults: 5, Seed: 1, Preset: "fast", OutDir: dir,
	}
	if _, err := sweep.Run(spec); err != nil {
		t.Fatal(err)
	}
	spec.Seed = 2 // a different sweep must not silently resume into dir
	if _, err := sweep.Run(spec); err == nil {
		t.Fatal("grid mismatch must be rejected")
	}
}

func TestSweepWorkerBudgetInvariance(t *testing.T) {
	spec := demoSpec(t, "")
	spec.Workloads = []string{"crc32"}
	spec.Faults = 8
	a, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	spec.CellParallel = 1
	b, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i].Digest != b.Cells[i].Digest {
			t.Errorf("cell %s: results depend on the worker budget", a.Cells[i].Key)
		}
	}
}

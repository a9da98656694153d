// Differential equivalence suite for the accelerator campaign engine: the
// serial rebuild-per-fault oracle, and the dispatch kernel's 1-worker,
// 8-worker and laddered fork/reset schedules, must produce bit-identical
// per-fault verdict sequences and AVF numbers for every Table IV
// design/component and both fault-model families — the accelerator
// counterpart of the CPU side's fork_equiv_test.
package accel_test

import (
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
)

// variants are the kernel schedules that must all agree with the serial
// rebuild oracle. The laddered one forks transient runs from mid-task
// rungs, so the oracle — which always starts from a fresh harness — also
// proves the ladder never changes a verdict.
var variants = []struct {
	name    string
	workers int
	ladder  int
}{
	{"fork-reset-1w", 1, 0},
	{"fork-reset-8w", 8, 0},
	{"fork-reset-ladder8", 1, 8},
}

func mustRun(t *testing.T, cfg accel.CampaignConfig) *accel.CampaignResult {
	t.Helper()
	res, err := accel.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustRebuild runs cfg through the serial rebuild-per-fault oracle.
func mustRebuild(t *testing.T, cfg accel.CampaignConfig) *accel.CampaignResult {
	t.Helper()
	res, err := accel.RunRebuildOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertEqualResults(t *testing.T, label string, ref, got *accel.CampaignResult) {
	t.Helper()
	if len(got.Records) != len(ref.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(ref.Records))
	}
	for i := range ref.Records {
		if got.Records[i] != ref.Records[i] {
			t.Fatalf("%s: record %d diverged:\n  got  %+v\n  want %+v", label, i, got.Records[i], ref.Records[i])
		}
	}
	if got.Counts != ref.Counts {
		t.Fatalf("%s: counts diverged: %+v vs %+v", label, got.Counts, ref.Counts)
	}
	if got.AVF() != ref.AVF() {
		t.Fatalf("%s: AVF %v vs %v", label, got.AVF(), ref.AVF())
	}
	if got.GoldenCycles != ref.GoldenCycles || got.TargetBits != ref.TargetBits {
		t.Fatalf("%s: golden metadata diverged", label)
	}
}

// TestAccelCampaignEquivalence sweeps every design × component × model and
// checks all schedules agree with the serial rebuild oracle.
func TestAccelCampaignEquivalence(t *testing.T) {
	const faults = 5
	for _, spec := range machsuite.All() {
		for _, comp := range spec.Targets {
			for _, model := range []core.Model{core.Transient, core.StuckAt1} {
				cfg := accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: comp.Name,
					Model: model, Sizing: dispatch.Sizing{Faults: faults}, Seed: 77,
				}
				label := fmt.Sprintf("%s/%s/%s", spec.Name, comp.Name, model)
				ref := mustRebuild(t, cfg)
				if ref.Counts.Total() != faults {
					t.Fatalf("%s: classified %d of %d", label, ref.Counts.Total(), faults)
				}
				for _, v := range variants {
					c := cfg
					c.Workers, c.LadderRungs = v.workers, v.ladder
					assertEqualResults(t, label+"/"+v.name, ref, mustRun(t, c))
				}
			}
		}
	}
}

// TestAccelCampaignEquivalenceStuckAt0 spot-checks the third fault model on
// one design (the full sweep above covers transient and stuck-at-1).
func TestAccelCampaignEquivalenceStuckAt0(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.StuckAt0, Sizing: dispatch.Sizing{Faults: 8}, Seed: 5,
	}
	ref := mustRebuild(t, cfg)
	for _, v := range variants {
		c := cfg
		c.Workers, c.LadderRungs = v.workers, v.ladder
		assertEqualResults(t, "gemm/MATRIX1/stuck-at-0/"+v.name, ref, mustRun(t, c))
	}
}

// TestAccelCampaignWindowOverrideEquivalence runs the Figure 17 common-
// window sweep shape: different WindowOverride values, every schedule in
// agreement, and the window actually governing the drawn cycles.
func TestAccelCampaignWindowOverrideEquivalence(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	probe := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 1, Workers: 1}, Seed: 1,
	})
	golden := probe.GoldenCycles
	for _, window := range []uint64{golden / 2, golden, golden * 4} {
		cfg := accel.CampaignConfig{
			Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
			Model: core.Transient, Sizing: dispatch.Sizing{Faults: 8}, Seed: 21,
			WindowOverride: window,
		}
		ref := mustRebuild(t, cfg)
		for _, r := range ref.Records {
			if r.Fault.Cycle < 1 || r.Fault.Cycle > window {
				t.Fatalf("window=%d: drawn cycle %d outside [1, %d]", window, r.Fault.Cycle, window)
			}
		}
		for _, v := range variants {
			c := cfg
			c.Workers, c.LadderRungs = v.workers, v.ladder
			assertEqualResults(t, fmt.Sprintf("gemm/window=%d/%s", window, v.name), ref, mustRun(t, c))
		}
	}
}

// TestAccelMaskPopulationWindowIndependentOfSchedule: the drawn mask
// population itself (not just the verdicts) must be identical across
// schedules — the §V-G comparability requirement that lets different
// designs share one fault population.
func TestAccelMaskPopulationWindowIndependentOfSchedule(t *testing.T) {
	spec, err := machsuite.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	a := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "REAL",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 32, Workers: 7}, Seed: 9,
	})
	b := mustRebuild(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "REAL",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 32}, Seed: 9,
	})
	for i := range a.Records {
		if a.Records[i].Fault != b.Records[i].Fault {
			t.Fatalf("mask %d differs across schedules: %v vs %v", i, a.Records[i].Fault, b.Records[i].Fault)
		}
	}
}

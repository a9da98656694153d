package accel_test

// Differential suite for adaptive confidence-targeted sizing in the
// accelerator engine: stopping when the Wilson half-width converges must
// yield a record stream bit-identical to the first N records of the
// fixed-budget campaign — faults are derived per index, so the stream is
// prefix-stable and the stop decision only picks the prefix length.

import (
	"fmt"
	"strings"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
	"marvel/internal/metrics"
	"marvel/internal/sweep"
)

// runAccelAdaptivePair runs cfg fixed and adaptive, asserts the adaptive
// records are a digest-identical prefix of the fixed run, and returns both.
func runAccelAdaptivePair(t *testing.T, cfg accel.CampaignConfig, margin float64) (fixed, adaptive *accel.CampaignResult) {
	t.Helper()
	fixedCfg := cfg
	fixedCfg.TargetMargin = 0
	fixed = mustRun(t, fixedCfg)
	adaCfg := cfg
	adaCfg.TargetMargin = margin
	adaptive = mustRun(t, adaCfg)
	n := len(adaptive.Records)
	if n > len(fixed.Records) {
		t.Fatalf("adaptive ran %d faults, more than the fixed budget %d", n, len(fixed.Records))
	}
	if got, want := sweep.DigestAccelRecords(adaptive.Records), sweep.DigestAccelRecords(fixed.Records[:n]); got != want {
		t.Errorf("adaptive digest %s != fixed-run prefix digest %s (n=%d)", got, want, n)
	}
	if adaptive.FaultsSaved != adaptive.Requested-n {
		t.Errorf("FaultsSaved %d, want Requested(%d) - achieved(%d)", adaptive.FaultsSaved, adaptive.Requested, n)
	}
	if adaptive.Counts.Total() != n {
		t.Errorf("Counts.Total() %d != achieved %d", adaptive.Counts.Total(), n)
	}
	return fixed, adaptive
}

func TestAccelAdaptiveEquivalenceAllDesigns(t *testing.T) {
	for _, spec := range machsuite.All() {
		comp := spec.Targets[0]
		for _, model := range []core.Model{core.Transient, core.StuckAt1} {
			spec, comp, model := spec, comp, model
			t.Run(fmt.Sprintf("%s/%s/%s", spec.Name, comp.Name, model), func(t *testing.T) {
				t.Parallel()
				cfg := accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: comp.Name,
					Model: model, Sizing: dispatch.Sizing{Faults: 64, Workers: 2}, Seed: 77,
				}
				runAccelAdaptivePair(t, cfg, 0.15)
			})
		}
	}
}

func TestAccelAdaptiveSerialAndParallel(t *testing.T) {
	// The batch barrier makes the stop decision schedule-independent:
	// serial and 8-worker adaptive campaigns must achieve the same N and
	// identical records.
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	var results []*accel.CampaignResult
	for _, workers := range []int{1, 8} {
		results = append(results, mustRun(t, accel.CampaignConfig{
			Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
			Model: core.Transient, Sizing: dispatch.Sizing{Faults: 96, Workers: workers, TargetMargin: 0.12}, Seed: 43,
		}))
	}
	serial, parallel := results[0], results[1]
	if serial.Batches != parallel.Batches {
		t.Errorf("batch count differs: serial %d, 8 workers %d", serial.Batches, parallel.Batches)
	}
	assertEqualResults(t, "adaptive-serial-vs-8w", serial, parallel)
}

func TestAccelAdaptiveWithLadder(t *testing.T) {
	// Rung sorting is per batch, so adaptive + ladder must still be a
	// prefix of the flat fixed run.
	spec, err := machsuite.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	fixed := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: spec.Targets[0].Name,
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 64, Workers: 2}, Seed: 47,
	})
	adaptive := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: spec.Targets[0].Name,
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 64, Workers: 2, TargetMargin: 0.15, LadderRungs: 4}, Seed: 47,
	})
	n := len(adaptive.Records)
	if got, want := sweep.DigestAccelRecords(adaptive.Records), sweep.DigestAccelRecords(fixed.Records[:n]); got != want {
		t.Errorf("adaptive+ladder digest %s != flat fixed prefix %s (n=%d)", got, want, n)
	}
}

func TestAccelAdaptiveStopsEarlyAndConverges(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	_, adaptive := runAccelAdaptivePair(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 256, Workers: 2}, Seed: 77,
	}, 0.15)
	if adaptive.FaultsSaved == 0 {
		t.Fatalf("margin 0.15 over 256 faults never stopped early (achieved %d)", len(adaptive.Records))
	}
	if adaptive.AchievedMargin > 0.15 {
		t.Errorf("stopped with achieved margin %.4f > target 0.15", adaptive.AchievedMargin)
	}
	n := len(adaptive.Records)
	want := metrics.Confidence(adaptive.Counts.AVF(), n, adaptive.Z).Half()
	if adaptive.AchievedMargin != want {
		t.Errorf("AchievedMargin %v != recomputed Wilson half-width %v", adaptive.AchievedMargin, want)
	}
}

func TestAccelAdaptiveBookkeepingAndZ(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	base := accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 16, Workers: 2}, Seed: 5,
	}
	fixed := mustRun(t, base)
	if fixed.Requested != 16 || len(fixed.Records) != 16 || fixed.FaultsSaved != 0 {
		t.Errorf("fixed mode: requested %d, achieved %d, saved %d — want 16/16/0",
			fixed.Requested, len(fixed.Records), fixed.FaultsSaved)
	}
	if fixed.Batches != 1 {
		t.Errorf("fixed mode dispatched %d batches, want 1", fixed.Batches)
	}
	if fixed.Z != 1.96 {
		t.Errorf("default Z %v, want 1.96", fixed.Z)
	}
	// Satellite fix: configured confidence must drive the reported margin
	// instead of the hard-coded 1.96.
	wide := base
	wide.Confidence = 2.576
	at99 := mustRun(t, wide)
	if at99.Z != 2.576 {
		t.Errorf("recorded Z %v, want the configured 2.576", at99.Z)
	}
	if at99.Margin <= fixed.Margin {
		t.Errorf("99%% margin %v must be wider than 95%% margin %v", at99.Margin, fixed.Margin)
	}
	if got, want := at99.Margin, core.MarginFor(at99.TargetBits, 16, 2.576); got != want {
		t.Errorf("99%% margin %v != MarginFor at z=2.576 (%v)", got, want)
	}
}

func TestAccelAdaptiveMinMaxFaults(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	// MaxFaults overrides Faults as the budget under an unreachable margin.
	capped := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 8, Workers: 2, TargetMargin: 1e-9, MinFaults: 1, MaxFaults: 40}, Seed: 5,
	})
	if capped.Requested != 40 || len(capped.Records) != 40 {
		t.Errorf("unreachable margin: requested %d, achieved %d — want 40/40", capped.Requested, len(capped.Records))
	}
	// MinFaults holds the campaign past first convergence.
	floored := mustRun(t, accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 128, Workers: 2, TargetMargin: 0.15, MinFaults: 128}, Seed: 5,
	})
	if got := len(floored.Records); got != 128 {
		t.Errorf("MinFaults=128 achieved %d faults", got)
	}
}

func TestAccelAdaptiveConfigValidation(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	base := accel.CampaignConfig{
		Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 4}, Seed: 1,
	}
	cases := []struct {
		name string
		mut  func(*accel.CampaignConfig)
		want string
	}{
		{"negative margin", func(c *accel.CampaignConfig) { c.TargetMargin = -0.1 }, "target margin"},
		{"margin at one", func(c *accel.CampaignConfig) { c.TargetMargin = 1 }, "target margin"},
		{"negative confidence", func(c *accel.CampaignConfig) { c.Confidence = -1 }, "confidence"},
		{"negative min faults", func(c *accel.CampaignConfig) { c.MinFaults = -1 }, "min/max"},
		{"negative max faults", func(c *accel.CampaignConfig) { c.MaxFaults = -1 }, "min/max"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := accel.RunCampaign(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

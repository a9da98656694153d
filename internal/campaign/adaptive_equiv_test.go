package campaign_test

// Differential suite for adaptive confidence-targeted campaign sizing: a
// campaign that stops once its Wilson half-width converges must produce a
// record stream bit-identical to the FIRST N records of the fixed-budget
// run — same masks, same verdicts, same digest — for every target, model
// and worker count, with and without the checkpoint ladder. Adaptive
// stopping only decides how far down the prefix-stable mask stream to go,
// never what any mask computes.

import (
	"strings"
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/metrics"
	"marvel/internal/sweep"
)

// runAdaptivePair runs cfg once with the fixed budget and once with the
// given target margin, asserts the adaptive record stream is a digest-
// identical prefix of the fixed run, and returns both results.
func runAdaptivePair(t *testing.T, cfg campaign.Config, margin float64) (fixed, adaptive *campaign.Result) {
	t.Helper()
	fixedCfg := cfg
	fixedCfg.TargetMargin = 0
	fixed, err := campaign.Run(fixedCfg)
	if err != nil {
		t.Fatal(err)
	}
	adaCfg := cfg
	adaCfg.TargetMargin = margin
	adaptive, err = campaign.Run(adaCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(adaptive.Records)
	if n > len(fixed.Records) {
		t.Fatalf("adaptive ran %d faults, more than the fixed budget %d", n, len(fixed.Records))
	}
	if got, want := sweep.DigestCPURecords(adaptive.Records), sweep.DigestCPURecords(fixed.Records[:n]); got != want {
		t.Errorf("adaptive digest %s != fixed-run prefix digest %s (n=%d)", got, want, n)
	}
	if adaptive.FaultsSaved != adaptive.Requested-n {
		t.Errorf("FaultsSaved %d, want Requested(%d) - achieved(%d)", adaptive.FaultsSaved, adaptive.Requested, n)
	}
	if adaptive.Counts.Total() != n {
		t.Errorf("Counts.Total() %d != achieved %d — counts must fold only executed records", adaptive.Counts.Total(), n)
	}
	return fixed, adaptive
}

func TestAdaptiveEquivalenceAllTargets(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	for _, target := range campaign.CPUTargets {
		target := target
		t.Run(target, func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Image:  img,
				Preset: config.Fast(),
				Target: target,
				Model:  core.Transient,
				Sizing: dispatch.Sizing{Faults: 64, Workers: 2},
				Seed:   23,
				HVF:    true,
			}
			runAdaptivePair(t, cfg, 0.15)
		})
	}
}

func TestAdaptiveEquivalenceAllModels(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	for _, m := range []core.Model{core.Transient, core.StuckAt0, core.StuckAt1} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Image:  img,
				Preset: config.Fast(),
				Target: "l1d",
				Model:  m,
				Sizing: dispatch.Sizing{Faults: 64, Workers: 2},
				Seed:   31,
			}
			runAdaptivePair(t, cfg, 0.15)
		})
	}
}

func TestAdaptiveEquivalenceSerialAndParallel(t *testing.T) {
	// The batch barrier makes the stop decision schedule-independent:
	// serial and 8-worker adaptive campaigns must achieve the same N and
	// the same records (run under -race by the verify script).
	img := compileWorkload(t, "riscv", "sha")
	var results []*campaign.Result
	for _, workers := range []int{1, 8} {
		cfg := campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Target: "prf",
			Model:  core.Transient,
			Sizing: dispatch.Sizing{Faults: 96, Workers: workers, TargetMargin: 0.12},
			Seed:   43,
			HVF:    true,
			Domain: core.DomainValidOnly,
		}
		res, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	serial, parallel := results[0], results[1]
	if len(serial.Records) != len(parallel.Records) {
		t.Fatalf("achieved N differs: serial %d, 8 workers %d", len(serial.Records), len(parallel.Records))
	}
	if serial.Batches != parallel.Batches {
		t.Errorf("batch count differs: serial %d, 8 workers %d", serial.Batches, parallel.Batches)
	}
	diffResults(t, "serial-vs-parallel", serial, parallel)
}

func TestAdaptiveEquivalenceWithLadder(t *testing.T) {
	// Rung sorting applies inside each batch only, so adaptive + ladder
	// must still be a digest-identical prefix of the flat fixed run.
	img := compileWorkload(t, "riscv", "crc32")
	fixedCfg := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 64, Workers: 2},
		Seed:   23,
	}
	fixed, err := campaign.Run(fixedCfg)
	if err != nil {
		t.Fatal(err)
	}
	adaCfg := fixedCfg
	adaCfg.TargetMargin = 0.15
	adaCfg.LadderRungs = 6
	adaptive, err := campaign.Run(adaCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(adaptive.Records)
	if got, want := sweep.DigestCPURecords(adaptive.Records), sweep.DigestCPURecords(fixed.Records[:n]); got != want {
		t.Errorf("adaptive+ladder digest %s != flat fixed prefix %s (n=%d)", got, want, n)
	}
}

func TestAdaptiveStopsEarlyAndConverges(t *testing.T) {
	// A generous margin must actually trigger an early stop, and the
	// achieved interval must honor it.
	img := compileWorkload(t, "riscv", "crc32")
	_, adaptive := runAdaptivePair(t, campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "l1d",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 256, Workers: 2},
		Seed:   23,
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

func TestAdaptiveMinFaultsFloor(t *testing.T) {
	// MinFaults must hold the campaign past the point the interval first
	// converges.
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "l1d",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 128, Workers: 2, TargetMargin: 0.15},
		Seed:   23,
	}
	floorless, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(floorless.Records) >= 128 {
		t.Skip("margin never converged below budget; floor unobservable")
	}
	cfg.MinFaults = 128
	floored, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(floored.Records); got != 128 {
		t.Fatalf("MinFaults=128 achieved %d faults", got)
	}
	// The floored run is still a prefix-extension of the floorless one.
	n := len(floorless.Records)
	if got, want := sweep.DigestCPURecords(floored.Records[:n]), sweep.DigestCPURecords(floorless.Records); got != want {
		t.Errorf("floored prefix digest %s != floorless digest %s", got, want)
	}
}

func TestAdaptiveMaxFaultsOverridesBudget(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		// TargetMargin 1e-9 is unreachable: the campaign must run to the cap.
		Sizing: dispatch.Sizing{Faults: 8, Workers: 2, TargetMargin: 1e-9, MinFaults: 1, MaxFaults: 40},
		Seed:   23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requested != 40 {
		t.Errorf("Requested %d, want MaxFaults 40 to override Faults 8", res.Requested)
	}
	if len(res.Records) != 40 {
		t.Errorf("achieved %d, want the full 40-fault cap for an unreachable margin", len(res.Records))
	}
}

func TestFixedModeUnchangedByAdaptiveFields(t *testing.T) {
	// TargetMargin == 0 must keep the historical single-dispatch behavior:
	// full budget, one batch, nothing saved.
	img := compileWorkload(t, "riscv", "crc32")
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 24, Workers: 2},
		Seed:   23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requested != 24 || len(res.Records) != 24 || res.FaultsSaved != 0 {
		t.Errorf("fixed mode: requested %d, achieved %d, saved %d — want 24/24/0",
			res.Requested, len(res.Records), res.FaultsSaved)
	}
	if res.Batches != 1 {
		t.Errorf("fixed mode dispatched %d batches, want 1", res.Batches)
	}
	if res.Z != 1.96 {
		t.Errorf("default Z %v, want 1.96", res.Z)
	}
}

func TestConfiguredConfidenceChangesMargin(t *testing.T) {
	// Satellite fix: the z actually used must be recorded and must drive
	// the reported margin (it was hard-coded to 1.96 regardless of
	// configuration).
	img := compileWorkload(t, "riscv", "crc32")
	base := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 24, Workers: 2},
		Seed:   23,
	}
	at95, err := campaign.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.Confidence = 2.576 // 99%
	at99, err := campaign.Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if at99.Z != 2.576 {
		t.Errorf("recorded Z %v, want the configured 2.576", at99.Z)
	}
	if at99.Margin <= at95.Margin {
		t.Errorf("99%% margin %v must be wider than 95%% margin %v", at99.Margin, at95.Margin)
	}
	if got, want := at95.Margin, core.MarginFor(at95.TargetBits, 24, 1.96); got != want {
		t.Errorf("default margin %v != MarginFor at z=1.96 (%v)", got, want)
	}
	if got, want := at99.Margin, core.MarginFor(at99.TargetBits, 24, 2.576); got != want {
		t.Errorf("99%% margin %v != MarginFor at z=2.576 (%v)", got, want)
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	base := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 4},
		Seed:   1,
	}
	cases := []struct {
		name string
		mut  func(*campaign.Config)
		want string
	}{
		{"negative margin", func(c *campaign.Config) { c.TargetMargin = -0.1 }, "target margin"},
		{"margin at one", func(c *campaign.Config) { c.TargetMargin = 1 }, "target margin"},
		{"negative confidence", func(c *campaign.Config) { c.Confidence = -1 }, "confidence"},
		{"negative min faults", func(c *campaign.Config) { c.MinFaults = -1 }, "min/max"},
		{"negative max faults", func(c *campaign.Config) { c.MaxFaults = -1 }, "min/max"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := campaign.Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

package campaign_test

import (
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
)

// TestCPUMasksAreDeriveFault pins the one-derivation contract on the CPU
// engine: for every CPU target and fault model, mask i of a campaign is
// core.DeriveFault(seed, i, ...) — the accelerator's call — as drawn,
// before any live-entry resampling.
func TestCPUMasksAreDeriveFault(t *testing.T) {
	img := compileWorkload(t, "riscv", "bitcount")
	base := campaign.Config{Image: img, Preset: config.Fast(), Sizing: dispatch.Sizing{Faults: 48}, Seed: 11, Domain: core.DomainValidOnly}
	g, err := campaign.PrepareGolden(base)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.Info.WindowLo, g.Info.WindowHi
	for _, target := range campaign.CPUTargets {
		for _, model := range []core.Model{core.Transient, core.StuckAt0, core.StuckAt1} {
			cfg := base
			cfg.Target, cfg.Model = target, model
			masks, bits, err := campaign.BuildMasks(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range masks {
				want := core.DeriveFault(cfg.Seed, i, target, model, bits, lo, hi)
				if m.ID != i || len(m.Faults) != 1 || m.Faults[0] != want {
					t.Fatalf("%s/%v mask %d = %+v, want [%v]", target, model, i, m, want)
				}
			}
		}
	}
	// The recorded mask is the drawn one: valid-only resampling moves the
	// applied bit, never the record.
	cfg := base
	cfg.Target, cfg.Model, cfg.Faults = "l1d", core.Transient, 8
	res, err := campaign.RunWithGolden(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Records {
		if want := core.DeriveFault(cfg.Seed, i, "l1d", core.Transient, res.TargetBits, lo, hi); r.Mask.Faults[0] != want {
			t.Fatalf("record %d mask %v, want %v", i, r.Mask.Faults[0], want)
		}
	}
}

// TestExplainAllocsIndependentOfIndex: Explain derives only mask index,
// so its allocations do not grow with the index (building every mask of
// the prefix cost at least one allocation per mask).
func TestExplainAllocsIndependentOfIndex(t *testing.T) {
	img := compileWorkload(t, "riscv", "bitcount")
	cfg := campaign.Config{Image: img, Preset: config.Fast(), Target: "prf", Model: core.StuckAt1, Seed: 5}
	g, err := campaign.PrepareGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(index int) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := campaign.ExplainWithGolden(cfg, g, index); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Different masks take different faulty runs, so compare against the
	// largest of a few small indices with a slack far below the 65,536
	// masks a prefix rebuild would allocate.
	small := 0.0
	for idx := 0; idx < 4; idx++ {
		small = max(small, allocs(idx))
	}
	for _, idx := range []int{1 << 16, 1<<16 + 1} {
		if got := allocs(idx); got > small+64 {
			t.Errorf("Explain(index %d) made %.0f allocations, index < 4 at most %.0f", idx, got, small)
		}
	}
}

package campaign_test

import (
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/workloads"
)

func compileWorkload(t testing.TB, archName, wl string) *program.Image {
	t.Helper()
	a, err := isa.ByName(archName)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workloads.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	img, err := program.Compile(a, s.Build())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestListing1ValidationAVFIs100Percent(t *testing.T) {
	// The paper's injector sanity check (§IV-F): transient faults in the
	// L1D while it holds a zero-filled array the size of the cache must
	// all be observed — measured AVF 100%.
	pre := config.Fast()
	spec := workloads.ValidationL1D(pre.Hier.L1D.SizeBytes)
	a := isa.RV64L{}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: pre,
		Target: "l1d",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 80},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AVF(); got < 0.97 {
		t.Fatalf("validation AVF = %.3f (%v), want ~1.0", got, res.Counts)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 40},
		Seed:   7,
		HVF:    true,
	}
	r1, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts != r2.Counts {
		t.Fatalf("campaign not deterministic:\n%v\n%v", r1.Counts, r2.Counts)
	}
	for i := range r1.Records {
		if r1.Records[i].Verdict.Outcome != r2.Records[i].Verdict.Outcome {
			t.Fatalf("record %d differs: %v vs %v", i,
				r1.Records[i].Verdict.Outcome, r2.Records[i].Verdict.Outcome)
		}
	}
}

func TestCampaignPRFTransient(t *testing.T) {
	img := compileWorkload(t, "riscv", "sha")
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 60},
		Seed:   3,
		HVF:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 60 {
		t.Fatalf("classified %d of 60", res.Counts.Total())
	}
	avf := res.AVF()
	if avf <= 0 || avf >= 0.9 {
		t.Fatalf("PRF AVF = %.3f out of plausible range (counts %v)", avf, res.Counts)
	}
	if hvf := res.Counts.HVF(); hvf < avf {
		t.Fatalf("HVF (%.3f) must be >= AVF (%.3f)", hvf, avf)
	}
	if res.Margin <= 0 || res.Margin >= 0.2 {
		t.Fatalf("margin %.4f implausible", res.Margin)
	}
}

func TestCampaignL1IFaultsCauseCrashes(t *testing.T) {
	img := compileWorkload(t, "arm", "bitcount")
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "l1i",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 60},
		Seed:   11,
		Domain: core.DomainValidOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Crash == 0 {
		t.Fatalf("valid-only L1I faults should produce crashes: %v", res.Counts)
	}
}

func TestCampaignPermanentFaults(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	for _, m := range []core.Model{core.StuckAt0, core.StuckAt1} {
		res, err := campaign.Run(campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Target: "l1d",
			Model:  m,
			Sizing: dispatch.Sizing{Faults: 40},
			Seed:   5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts.Total() != 40 {
			t.Fatalf("%v: classified %d of 40", m, res.Counts.Total())
		}
	}
}

func TestEarlyTerminationSoundness(t *testing.T) {
	// Early termination may only convert full runs into Masked verdicts:
	// the set of non-masked outcomes must be identical with and without
	// the optimization.
	img := compileWorkload(t, "riscv", "dijkstra")
	base := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 50},
		Seed:   13,
	}
	slow, err := campaign.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.EarlyTermination = true
	quick, err := campaign.Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	for i := range slow.Records {
		a := slow.Records[i].Verdict.Outcome
		b := quick.Records[i].Verdict.Outcome
		if a != b {
			t.Errorf("mask %d: outcome %v without ET, %v with ET (fault %v)",
				i, a, b, slow.Records[i].Mask.Faults[0])
		}
	}
	if quick.Counts.EarlyStops+quick.Counts.MaskedInvalid == 0 {
		t.Error("expected some early-terminated runs")
	}
}

func TestMultiBitMasks(t *testing.T) {
	img := compileWorkload(t, "riscv", "bitcount")
	res, err := campaign.Run(campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		Target:       "l1d",
		Model:        core.Transient,
		Sizing:       dispatch.Sizing{Faults: 30},
		BitsPerFault: 3,
		Seed:         17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 30 {
		t.Fatalf("classified %d of 30", res.Counts.Total())
	}
	for _, r := range res.Records {
		if len(r.Mask.Faults) != 3 {
			t.Fatalf("mask has %d faults, want 3", len(r.Mask.Faults))
		}
	}
}

func TestTargetOfRejectsUnknown(t *testing.T) {
	if _, err := campaign.TargetOf(nil, "rob2"); err == nil {
		t.Fatal("unknown target should fail")
	}
}

func TestVerdictStringer(t *testing.T) {
	for _, o := range []classify.Outcome{classify.Masked, classify.SDC, classify.Crash} {
		if o.String() == "" {
			t.Fatal("empty outcome string")
		}
	}
}

func TestROBAndIQTargets(t *testing.T) {
	img := compileWorkload(t, "riscv", "bitcount")
	for _, target := range []string{"rob", "iq"} {
		res, err := campaign.Run(campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Target: target,
			Model:  core.Transient,
			Sizing: dispatch.Sizing{Faults: 40},
			Seed:   19,
			Domain: core.DomainValidOnly,
		})
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if res.Counts.Total() != 40 {
			t.Fatalf("%s: classified %d of 40", target, res.Counts.Total())
		}
		if res.Counts.SDC+res.Counts.Crash == 0 {
			t.Errorf("%s: control-structure faults should corrupt some runs: %v", target, res.Counts)
		}
		t.Logf("%s: %v", target, res.Counts)
	}
}

func TestMultiStructureMasks(t *testing.T) {
	// The paper's spatial multi-structure mode: one fault in each listed
	// structure per mask.
	img := compileWorkload(t, "riscv", "crc32")
	res, err := campaign.Run(campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		MultiTargets: []string{"prf", "l1d", "sq"},
		Model:        core.Transient,
		Sizing:       dispatch.Sizing{Faults: 25},
		Seed:         31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 25 {
		t.Fatalf("classified %d of 25", res.Counts.Total())
	}
	for _, r := range res.Records {
		if len(r.Mask.Faults) != 3 {
			t.Fatalf("mask has %d faults, want one per structure", len(r.Mask.Faults))
		}
		seen := map[string]bool{}
		for _, f := range r.Mask.Faults {
			seen[f.Target] = true
		}
		if !seen["prf"] || !seen["l1d"] || !seen["sq"] {
			t.Fatalf("mask misses a structure: %v", r.Mask.Faults)
		}
	}
	// Multi-structure faults should disturb at least as many runs as any
	// plausible single-structure campaign at this size.
	if res.Counts.SDC+res.Counts.Crash == 0 {
		t.Errorf("expected some corruptions: %v", res.Counts)
	}
}

func TestMultiTargetMultiBitMasks(t *testing.T) {
	// Regression: multi-structure campaigns used to drop BitsPerFault when
	// building per-structure masks, silently degrading multi-structure +
	// multi-bit campaigns to one bit per structure.
	img := compileWorkload(t, "riscv", "bitcount")
	targets := []string{"prf", "l1d"}
	res, err := campaign.Run(campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		MultiTargets: targets,
		Model:        core.Transient,
		Sizing:       dispatch.Sizing{Faults: 12},
		BitsPerFault: 3,
		Seed:         23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 12 {
		t.Fatalf("classified %d of 12", res.Counts.Total())
	}
	if res.Target != "prf+l1d" {
		t.Fatalf("multi-target result Target = %q, want %q", res.Target, "prf+l1d")
	}
	for _, r := range res.Records {
		if got, want := len(r.Mask.Faults), len(targets)*3; got != want {
			t.Fatalf("mask %d carries %d faults, want %d (%d structures x 3 bits)",
				r.Mask.ID, got, want, len(targets))
		}
		perTarget := map[string]int{}
		for _, f := range r.Mask.Faults {
			perTarget[f.Target]++
		}
		for _, name := range targets {
			if perTarget[name] != 3 {
				t.Fatalf("mask %d has %d faults in %s, want 3", r.Mask.ID, perTarget[name], name)
			}
		}
	}
}

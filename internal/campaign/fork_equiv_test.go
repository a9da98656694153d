package campaign_test

// Differential equivalence suite for copy-on-write checkpoint forking:
// the dispatch kernel's CoW fork/reset strategy must be bit-for-bit
// indistinguishable from the clone oracle, which runs every mask serially
// on a fresh Clone of the checkpoint. Every CPU target runs the same small
// campaign under both and the complete results — per-mask
// classifications, HVF commit-trace verdicts, cycle counts, crash codes,
// aggregate counts and AVF/HVF numbers — are compared field by field.

import (
	"bytes"
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
)

// diffResults asserts two campaign results are byte-identical in every
// classification-relevant field.
func diffResults(t *testing.T, label string, a, b *campaign.Result) {
	t.Helper()
	if a.Counts != b.Counts {
		t.Errorf("%s: counts differ:\n clone: %v\n fork:  %v", label, a.Counts, b.Counts)
	}
	if a.AVF() != b.AVF() || a.Counts.HVF() != b.Counts.HVF() {
		t.Errorf("%s: AVF/HVF differ: clone %.6f/%.6f fork %.6f/%.6f",
			label, a.AVF(), a.Counts.HVF(), b.AVF(), b.Counts.HVF())
	}
	if a.Margin != b.Margin || a.TargetBits != b.TargetBits {
		t.Errorf("%s: margin/bits differ: %v/%d vs %v/%d",
			label, a.Margin, a.TargetBits, b.Margin, b.TargetBits)
	}
	if a.Golden.Cycles != b.Golden.Cycles || a.Golden.Insts != b.Golden.Insts ||
		!bytes.Equal(a.Golden.Output, b.Golden.Output) {
		t.Errorf("%s: golden runs differ: %+v vs %+v", label, a.Golden, b.Golden)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		va, vb := a.Records[i].Verdict, b.Records[i].Verdict
		if va != vb {
			t.Errorf("%s: mask %d (%v) differs:\n clone: %+v\n fork:  %+v",
				label, i, a.Records[i].Mask.Faults, va, vb)
		}
	}
}

// runBoth executes the same campaign through the clone oracle and through
// the kernel's CoW forking, returning both results.
func runBoth(t *testing.T, cfg campaign.Config) (clone, fork *campaign.Result) {
	t.Helper()
	clone, err := campaign.RunCloneOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fork, err = campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clone, fork
}

func TestForkCloneEquivalenceAllTargets(t *testing.T) {
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
				Sizing: dispatch.Sizing{Faults: 16, Workers: 2},
				Seed:   23,
				HVF:    true,
			}
			clone, fork := runBoth(t, cfg)
			diffResults(t, target, clone, fork)
			if fork.Forking.ReuseHits == 0 {
				t.Errorf("%s: CoW campaign never reused a scratch system: %+v", target, fork.Forking)
			}
		})
	}
}

func TestForkCloneEquivalenceValidOnlyDomain(t *testing.T) {
	// The valid-only domain exercises the per-mask resampling RNG, which
	// must derive identically under both strategies.
	img := compileWorkload(t, "arm", "bitcount")
	cfg := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "l1d",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 20, Workers: 3},
		Seed:   29,
		Domain: core.DomainValidOnly,
		HVF:    true,
	}
	clone, fork := runBoth(t, cfg)
	diffResults(t, "l1d/valid-only", clone, fork)
}

func TestForkCloneEquivalencePermanentFaults(t *testing.T) {
	// Stuck-at faults mutate target state at the fork point and persist
	// for the whole run; scratch resets must fully clear them.
	img := compileWorkload(t, "riscv", "crc32")
	for _, m := range []core.Model{core.StuckAt0, core.StuckAt1} {
		cfg := campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Target: "l1d",
			Model:  m,
			Sizing: dispatch.Sizing{Faults: 14, Workers: 2},
			Seed:   31,
		}
		clone, fork := runBoth(t, cfg)
		diffResults(t, m.String(), clone, fork)
	}
}

func TestForkCloneEquivalenceEarlyTermination(t *testing.T) {
	// Early-terminated runs leave the scratch system mid-execution with an
	// armed watchpoint; the next reset must erase both.
	img := compileWorkload(t, "riscv", "dijkstra")
	cfg := campaign.Config{
		Image:            img,
		Preset:           config.Fast(),
		Target:           "prf",
		Model:            core.Transient,
		Sizing:           dispatch.Sizing{Faults: 24, Workers: 2},
		Seed:             37,
		EarlyTermination: true,
	}
	clone, fork := runBoth(t, cfg)
	diffResults(t, "prf/earlyterm", clone, fork)
}

func TestForkCloneEquivalenceMultiStructure(t *testing.T) {
	// Multi-structure masks inject into several targets of one scratch
	// system in the same run.
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		MultiTargets: []string{"prf", "l1d", "sq"},
		Model:        core.Transient,
		Sizing:       dispatch.Sizing{Faults: 12, Workers: 2},
		Seed:         41,
	}
	clone, fork := runBoth(t, cfg)
	diffResults(t, "multi-structure", clone, fork)
}

func TestCampaignWorkerCountInvariance(t *testing.T) {
	// Aggregate results must be bit-identical no matter how the masks are
	// spread over workers (run under `go test -race` by the verify script
	// to double as the campaign's data-race check).
	img := compileWorkload(t, "riscv", "sha")
	base := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 24},
		Seed:   43,
		HVF:    true,
		Domain: core.DomainValidOnly,
	}
	one := base
	one.Workers = 1
	eight := base
	eight.Workers = 8
	r1, err := campaign.Run(one)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := campaign.Run(eight)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts != r8.Counts {
		t.Fatalf("worker count changed aggregate results:\n 1 worker:  %v\n 8 workers: %v", r1.Counts, r8.Counts)
	}
	for i := range r1.Records {
		if r1.Records[i].Verdict != r8.Records[i].Verdict {
			t.Fatalf("mask %d verdict depends on worker count:\n %+v\n %+v",
				i, r1.Records[i].Verdict, r8.Records[i].Verdict)
		}
	}
}

func TestForkStatsAccounting(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 10, Workers: 2},
		Seed:   47,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forking
	if f.Forks == 0 || f.Forks > 2 {
		t.Errorf("expected one fork per active worker (<=2), got %d", f.Forks)
	}
	if f.Forks+f.ReuseHits != 10 {
		t.Errorf("forks(%d) + reuses(%d) != faults(10)", f.Forks, f.ReuseHits)
	}
	// PagesCopied may legitimately be zero here: a small workload's dirty
	// lines can live entirely in the caches, so main memory stays fully
	// shared. Cache sets, by contrast, are always touched.
	if f.ReuseHits > 0 && f.CacheSetsRestored == 0 {
		t.Error("scratch reuse should have restored cache sets")
	}
}

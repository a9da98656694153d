package marvel_test

// End-to-end facade coverage for the multi-structure ("prf+rob+iq"),
// multi-bit and watchdog campaign modes, the HVF "measured vs zero"
// distinction, and the RunSweep orchestrator — everything a CLI user can
// reach through the root package.

import (
	"strings"
	"sync"
	"testing"

	"marvel"
)

func TestFacadeMultiTargetMultiBit(t *testing.T) {
	rep, err := marvel.RunCampaign(marvel.CampaignOptions{
		ISA:            "arm",
		Workload:       "crc32",
		Target:         "prf+rob+iq",
		Faults:         12,
		Seed:           7,
		BitsPerFault:   2,
		ValidOnly:      true,
		WatchdogFactor: 2.5,
		Workers:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != "prf+rob+iq" {
		t.Fatalf("Target = %q, want prf+rob+iq", rep.Target)
	}
	if rep.Faults != 12 {
		t.Fatalf("Faults = %d, want 12", rep.Faults)
	}
	if rep.Masked+rep.SDC+rep.Crash != rep.Faults {
		t.Fatalf("verdicts %d+%d+%d don't sum to %d",
			rep.Masked, rep.SDC, rep.Crash, rep.Faults)
	}
	if rep.HVFMeasured {
		t.Fatal("HVFMeasured true without HVF analysis")
	}
}

func TestFacadeMultiTargetWorkerInvariance(t *testing.T) {
	run := func(workers int) *marvel.Report {
		t.Helper()
		rep, err := marvel.RunCampaign(marvel.CampaignOptions{
			ISA:       "riscv",
			Workload:  "crc32",
			Target:    "prf+rob",
			Faults:    10,
			Seed:      3,
			ValidOnly: true,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(4)
	if a.Masked != b.Masked || a.SDC != b.SDC || a.Crash != b.Crash {
		t.Fatalf("worker-count changed results: 1 worker %d/%d/%d, 4 workers %d/%d/%d",
			a.Masked, a.SDC, a.Crash, b.Masked, b.SDC, b.Crash)
	}
}

func TestFacadeTargetValidation(t *testing.T) {
	for _, tgt := range []string{"", "bogus", "prf+bogus", "prf+prf", "prf++rob"} {
		_, err := marvel.RunCampaign(marvel.CampaignOptions{
			ISA: "arm", Workload: "crc32", Target: tgt, Faults: 1,
		})
		if err == nil {
			t.Errorf("target %q: accepted, want error", tgt)
		}
	}
}

// TestFacadeAccelGemmValidation: a GemmMultipliers override the campaign
// could not apply — negative, or on a design other than gemm — is
// rejected by Validate and RunAccelCampaign alike instead of running the
// stock design.
func TestFacadeAccelGemmValidation(t *testing.T) {
	for _, o := range []marvel.AccelOptions{
		{Design: "fft", Component: "REAL", Faults: 1, GemmMultipliers: 4},
		{Design: "gemm", Component: "MATRIX1", Faults: 1, GemmMultipliers: -3},
	} {
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "gemm multipliers") {
			t.Errorf("%s with %d multipliers: Validate = %v, want a gemm multipliers error", o.Design, o.GemmMultipliers, err)
		}
		if _, err := marvel.RunAccelCampaign(o); err == nil {
			t.Errorf("%s with %d multipliers: RunAccelCampaign accepted", o.Design, o.GemmMultipliers)
		}
	}
	for _, o := range []marvel.AccelOptions{
		{Design: "fft", Component: "REAL", Faults: 1},
		{Design: "gemm", Component: "MATRIX1", Faults: 1, GemmMultipliers: 4},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("%s with %d multipliers: Validate = %v, want nil", o.Design, o.GemmMultipliers, err)
		}
	}
}

func TestFacadeHVFMeasured(t *testing.T) {
	rep, err := marvel.RunCampaign(marvel.CampaignOptions{
		ISA: "riscv", Workload: "crc32", Target: "prf",
		Faults: 8, Seed: 5, ValidOnly: true, HVF: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HVFMeasured {
		t.Fatal("HVFMeasured false on a campaign run with HVF analysis")
	}
}

func TestFacadeRunSweep(t *testing.T) {
	var mu sync.Mutex
	var last marvel.SweepProgress
	calls := 0
	rep, err := marvel.RunSweep(marvel.SweepOptions{
		ISAs:      []string{"arm", "riscv"},
		Workloads: []string{"crc32"},
		Targets:   []string{"prf", "prf+rob"},
		Faults:    6,
		Seed:      11,
		ValidOnly: true,
		Preset:    "fast",
		OnProgress: func(s marvel.SweepProgress) {
			mu.Lock()
			last = s
			calls++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(rep.Cells))
	}
	// Two goldens (arm/crc32, riscv/crc32) back four cells.
	if rep.Counters.GoldenRuns != 2 || rep.Counters.GoldenHits != 2 {
		t.Fatalf("golden cache: %d runs, %d hits; want 2, 2", rep.Counters.GoldenRuns, rep.Counters.GoldenHits)
	}
	if rep.Counters.FaultsDone != 24 {
		t.Fatalf("FaultsDone = %d, want 24", rep.Counters.FaultsDone)
	}
	for _, c := range rep.Cells {
		if c.Faults != 6 {
			t.Fatalf("cell %s: faults = %d, want 6", c.Key, c.Faults)
		}
		if c.HVFMeasured {
			t.Fatalf("cell %s: HVFMeasured without HVF analysis", c.Key)
		}
	}
	if calls == 0 {
		t.Fatal("OnProgress never called")
	}
	if last.CellsFinished != 4 || last.FaultsDone != 24 {
		t.Fatalf("final progress %d cells / %d faults, want 4 / 24",
			last.CellsFinished, last.FaultsDone)
	}
}

// TestFacadeReportsPinned pins every field of the facade's campaign
// reports — counts, AVFs, margins, golden figures, area and the
// fork/ladder counters. The accelerator cases were recorded before the
// facade's campaigns moved onto the sweep orchestrator (parent of commit
// d7bbaee); the CPU cases on the commit "One fault derivation for both
// engines" (parent 73e8689), when CPU masks moved onto core.MaskSpace.
// Workers is 1 so the per-worker fork counters are schedule-independent
// too. Fields a want literal leaves out are pinned at their zero value.
// The stuck-at case's fork counters were re-pinned when exact stuck-at
// pruning came in: its three Masked faults are pruned, so they no longer
// reset a scratch (ForkReuses 31 -> 28) or dirty cache sets a later
// reset restores (SetsRestored 813 -> 687); its verdicts are unchanged.
// The accelerator cases' fork counters were re-pinned when pruning came
// to the accelerator: 9, 9 and 7 of their 16 faults are pruned, so they
// fork, reset, copy and replay nothing; every verdict field is unchanged.
// Plain gemm's ladder counters were re-pinned when each fault the pass saw
// read came to fork from the rung before that read (RungHits 5 -> 6,
// ReplayedCycles 4846 -> 1378); every verdict field is unchanged.
func TestFacadeReportsPinned(t *testing.T) {
	cpu := []struct {
		name string
		opts marvel.CampaignOptions
		want marvel.Report
	}{
		{"single target, ladder, HVF", marvel.CampaignOptions{
			ISA: "riscv", Workload: "crc32", Target: "prf", Faults: 16, Seed: 3,
			ValidOnly: true, HVF: true, LadderRungs: 4, Workers: 1, Preset: "fast",
		}, marvel.Report{
			Workload: "crc32", ISA: "riscv", Target: "prf", Faults: 16, Masked: 14, Crash: 2,
			AVF: 0.125, CrashAVF: 0.125, HVF: 0.1875, HVFMeasured: true,
			Margin: 0.24477556561902133, Z: 1.96, AchievedMargin: 0.2352333143674828,
			Requested: 16, Batches: 1, GoldenCycles: 16846, GoldenInsts: 43555,
			IPC: 2.585480232696189, Forks: 5, ForkReuses: 11, SetsRestored: 347, Rungs: 4,
			RungHits: 14, ReplayedCycles: 29686,
		}},
		{"multi-target, 2-bit masks", marvel.CampaignOptions{
			ISA: "arm", Workload: "crc32", Target: "prf+rob", Faults: 12, Seed: 5,
			BitsPerFault: 2, ValidOnly: true, EarlyTermination: true, Workers: 1, Preset: "fast",
		}, marvel.Report{
			Workload: "crc32", ISA: "arm", Target: "prf+rob", Faults: 12, Masked: 2, Crash: 10,
			AVF: 0.8333333333333334, CrashAVF: 0.8333333333333334,
			Margin: 0.28275512319739465, Z: 1.96, AchievedMargin: 0.281369690718006,
			Requested: 12, Batches: 1, GoldenCycles: 12514, GoldenInsts: 38432,
			IPC: 3.071120345213361, Forks: 1, ForkReuses: 11, SetsRestored: 339,
			ReplayedCycles: 24948,
		}},
		{"adaptive margin", marvel.CampaignOptions{
			ISA: "x86", Workload: "crc32", Target: "prf", Model: marvel.StuckAt1, Faults: 96, Seed: 7,
			TargetMargin: 0.15, MinFaults: 32, ValidOnly: true, LadderRungs: 4, Workers: 1, Preset: "fast",
		}, marvel.Report{
			Workload: "crc32", ISA: "x86", Target: "prf", Model: "stuck-at-1", Faults: 32,
			Masked: 3, SDC: 7, Crash: 22, AVF: 0.90625, SDCAVF: 0.21875, CrashAVF: 0.6875,
			Margin: 0.1729130227645744, Z: 1.96, AchievedMargin: 0.14843499335778843,
			Requested: 96, FaultsSaved: 64, Batches: 1, GoldenCycles: 19935,
			GoldenInsts: 53291, IPC: 2.673238023576624, Forks: 1, ForkReuses: 28,
			SetsRestored: 687, Pruned: 3,
		}},
	}
	for _, tc := range cpu {
		got, err := marvel.RunCampaign(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *got != tc.want {
			t.Errorf("%s:\n got  %#v\n want %#v", tc.name, *got, tc.want)
		}
	}

	accel := []struct {
		name string
		opts marvel.AccelOptions
		want marvel.AccelReport
	}{
		{"plain gemm", marvel.AccelOptions{
			Design: "gemm", Component: "MATRIX1", Faults: 16, Seed: 2, LadderRungs: 4, Workers: 1,
		}, marvel.AccelReport{
			Design: "gemm", Component: "MATRIX1", Faults: 16, Masked: 9, SDC: 7, AVF: 0.4375,
			SDCAVF: 0.4375, Margin: 0.24477556561902133, Z: 1.96,
			AchievedMargin: 0.23071804393223472, Requested: 16, Batches: 1, TaskCycles: 5843,
			AreaUnits: 35.699999999999996, Forks: 4, ForkReuses: 3, PagesCopied: 7, Pruned: 9, Rungs: 4,
			RungHits: 6, ReplayedCycles: 1378,
		}},
		{"gemm with 4 multipliers", marvel.AccelOptions{
			Design: "gemm", Component: "MATRIX1", Faults: 16, Seed: 2, GemmMultipliers: 4, Workers: 1,
		}, marvel.AccelReport{
			Design: "gemm", Component: "MATRIX1", Faults: 16, Masked: 9, SDC: 7, AVF: 0.4375,
			SDCAVF: 0.4375, Margin: 0.24477556561902133, Z: 1.96,
			AchievedMargin: 0.23071804393223472, Requested: 16, Batches: 1, TaskCycles: 5843,
			AreaUnits: 35.699999999999996, Forks: 1, ForkReuses: 6, PagesCopied: 7, Pruned: 9,
			ReplayedCycles: 16530,
		}},
		{"gemm with 1 multiplier", marvel.AccelOptions{
			Design: "gemm", Component: "MATRIX1", Faults: 16, Seed: 2, GemmMultipliers: 1, Workers: 1,
		}, marvel.AccelReport{
			Design: "gemm", Component: "MATRIX1", Faults: 16, Masked: 7, SDC: 9, AVF: 0.5625,
			SDCAVF: 0.5625, Margin: 0.24477556561902133, Z: 1.96,
			AchievedMargin: 0.23071804393223483, Requested: 16, Batches: 1, TaskCycles: 17637,
			AreaUnits: 19.199999999999996, Forks: 1, ForkReuses: 8, PagesCopied: 9, Pruned: 7,
			ReplayedCycles: 57139,
		}},
	}
	for _, tc := range accel {
		got, err := marvel.RunAccelCampaign(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *got != tc.want {
			t.Errorf("%s:\n got  %#v\n want %#v", tc.name, *got, tc.want)
		}
	}
}

package machsuite_test

import (
	"bytes"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
)

func TestAllDesignsGoldenMatchReference(t *testing.T) {
	specs := machsuite.All()
	if len(specs) != 8 {
		t.Fatalf("want the paper's 8 designs, got %d", len(specs))
	}
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			sys, err := accel.NewStandalone(s.Design, s.Task)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(20_000_000); err != nil {
				t.Fatalf("golden run: %v", err)
			}
			got, err := sys.Output()
			if err != nil {
				t.Fatal(err)
			}
			want := s.Ref()
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("output diverges at byte %d:\n got %x\nwant %x",
					i, got[maxInt(0, i-4):minInt(len(got), i+12)], want[maxInt(0, i-4):minInt(len(want), i+12)])
			}
			if sys.Cluster.TaskCycles() == 0 {
				t.Fatal("task cycles not recorded")
			}
			t.Logf("%-10s task cycles=%d area=%.1f", s.Name, sys.Cluster.TaskCycles(), accel.AreaUnits(s.Design))
		})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTableIVComponents(t *testing.T) {
	comps := machsuite.TableIV()
	if len(comps) != 18 {
		t.Fatalf("Table IV should list 18 components, got %d", len(comps))
	}
	// Spot-check the paper rows.
	find := func(design, name string) machsuite.Component {
		for _, c := range comps {
			if c.Design == design && c.Name == name {
				return c
			}
		}
		t.Fatalf("component %s/%s missing", design, name)
		return machsuite.Component{}
	}
	if c := find("bfs", "EDGES"); c.PaperBytes != 16384 || c.Kind != accel.RegBank {
		t.Errorf("bfs EDGES: %+v", c)
	}
	if c := find("stencil3d", "C_VAR"); c.PaperBytes != 8 || c.Kind != accel.RegBank {
		t.Errorf("stencil3d C_VAR: %+v", c)
	}
	if c := find("gemm", "MATRIX3"); c.PaperBytes != 32768 || c.Kind != accel.SPM {
		t.Errorf("gemm MATRIX3: %+v", c)
	}
	for _, c := range comps {
		if c.ModelBytes <= 0 {
			t.Errorf("%s/%s has no modeled size", c.Design, c.Name)
		}
	}
}

func TestBFSFaultsAreMostlyCrashes(t *testing.T) {
	// The paper: nearly all BFS fault effects are crashes, because EDGES
	// and NODES contents are traversal indices.
	s, err := machsuite.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	res, err := accel.RunCampaign(accel.CampaignConfig{
		Design: s.Design,
		Task:   s.Task,
		Target: "EDGES",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 60},
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Crash <= res.Counts.SDC {
		t.Errorf("bfs EDGES should be crash-dominated: %v", res.Counts)
	}
}

func TestFFTFaultsAreMostlySDCs(t *testing.T) {
	// The paper: all faulty FFT runs end as SDCs — SPM data feeds no
	// control logic or address computation.
	s, err := machsuite.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	res, err := accel.RunCampaign(accel.CampaignConfig{
		Design: s.Design,
		Task:   s.Task,
		Target: "REAL",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 60},
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Crash != 0 {
		t.Errorf("fft REAL faults should never crash: %v", res.Counts)
	}
	if res.Counts.SDC == 0 {
		t.Errorf("fft REAL faults should cause SDCs: %v", res.Counts)
	}
}

func TestGemmDSEPerformanceScalesWithFUs(t *testing.T) {
	// More multipliers must speed the kernel up and cost more area
	// (Figure 17b).
	var prevCycles uint64
	var prevArea float64
	for i, fus := range []int{1, 4, 16} {
		d := machsuite.GemmDesign(fus)
		sys, err := accel.NewStandalone(d, machsuite.GemmTask())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(20_000_000); err != nil {
			t.Fatal(err)
		}
		cyc := sys.Cluster.TaskCycles()
		area := accel.AreaUnits(d)
		t.Logf("gemm FUs=%-2d cycles=%-7d area=%.1f", fus, cyc, area)
		if i > 0 {
			if cyc >= prevCycles {
				t.Errorf("FUs=%d: cycles %d not faster than %d", fus, cyc, prevCycles)
			}
			if area <= prevArea {
				t.Errorf("FUs=%d: area %.1f not larger than %.1f", fus, area, prevArea)
			}
		}
		prevCycles, prevArea = cyc, area
	}
}

func TestCampaignDeterminism(t *testing.T) {
	s, err := machsuite.ByName("stencil3d")
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.CampaignConfig{
		Design: s.Design, Task: s.Task, Target: "SOL",
		Model: core.Transient, Sizing: dispatch.Sizing{Faults: 30}, Seed: 9,
	}
	r1, err := accel.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := accel.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts != r2.Counts {
		t.Fatalf("accel campaign not deterministic: %v vs %v", r1.Counts, r2.Counts)
	}
}

func TestPermanentFaultCampaign(t *testing.T) {
	s, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := accel.RunCampaign(accel.CampaignConfig{
		Design: s.Design, Task: s.Task, Target: "MATRIX1",
		Model: core.StuckAt1, Sizing: dispatch.Sizing{Faults: 30}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 30 {
		t.Fatalf("classified %d of 30", res.Counts.Total())
	}
	// Stuck-at-1 on input data should corrupt many runs.
	if res.Counts.SDC == 0 {
		t.Errorf("expected SDCs from stuck-at faults on MATRIX1: %v", res.Counts)
	}
}

package accel_test

// Exact pruning: every fault the golden observation pass prunes must
// classify exactly as its full faulty run does, and pruning must not
// depend on which campaigns share the golden.

import (
	"fmt"
	"sync"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
	"marvel/internal/obs"
)

// pruneModels are the fault models exact pruning settles.
var pruneModels = []core.Model{core.Transient, core.StuckAt0, core.StuckAt1}

// TestAccelPruningDifferential holds every campaign, pruned by the golden
// observation pass, to the rebuild oracle, which runs each fault the full
// way on a freshly built harness: 8 designs x every bank x {transient,
// stuck-at-0, stuck-at-1} x ladder {0, 8}, plus transients drawn from a
// window three times the task's. Under the ladder, stuck-ats the pass saw
// read fork from the rung before that read, so the oracle also holds
// those deep forks.
func TestAccelPruningDifferential(t *testing.T) {
	const faults = 16
	pruned, deep := map[core.Model]uint64{}, map[core.Model]uint64{}
	var total uint64
	check := func(label string, cfg accel.CampaignConfig, g *accel.CampaignGolden) {
		t.Helper()
		ref := mustRebuild(t, cfg)
		for _, rungs := range []int{0, 8} {
			c := cfg
			c.LadderRungs = rungs
			got, err := accel.RunCampaignWithGolden(c, g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertEqualResults(t, fmt.Sprintf("%s/ladder%d", label, rungs), ref, got)
			if f := got.Forking; f.Forks+f.ReuseHits+f.Pruned != faults {
				t.Errorf("%s/ladder%d: forks %d + reuses %d + pruned %d != %d", label, rungs, f.Forks, f.ReuseHits, f.Pruned, faults)
			}
			pruned[cfg.Model] += got.Forking.Pruned
			deep[cfg.Model] += got.Forking.RungHits
			total += faults
		}
	}
	for _, spec := range machsuite.All() {
		g, err := accel.PrepareGolden(spec.Design, spec.Task)
		if err != nil {
			t.Fatal(err)
		}
		for _, bank := range spec.Design.Banks {
			for _, model := range pruneModels {
				cfg := accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: bank.Name, Model: model,
					Sizing: dispatch.Sizing{Faults: faults, Workers: 2}, Seed: 13,
				}
				check(fmt.Sprintf("%s/%s/%v", spec.Name, bank.Name, model), cfg, g)
			}
			cfg := accel.CampaignConfig{
				Design: spec.Design, Task: spec.Task, Target: bank.Name, Model: core.Transient,
				Sizing: dispatch.Sizing{Faults: faults, Workers: 2}, Seed: 29, WindowOverride: 3 * g.Cycles,
			}
			check(fmt.Sprintf("%s/%s/window-x3", spec.Name, bank.Name), cfg, g)
		}
	}
	for _, model := range pruneModels {
		t.Logf("%-10v pruned %d, %d forked from a mid-window rung", model, pruned[model], deep[model])
		if pruned[model] == 0 {
			t.Errorf("%v: no fault pruned; the golden watch proves nothing", model)
		}
		if model.Permanent() && deep[model] == 0 {
			t.Errorf("%v: no fault forked from a mid-window rung; the deep-fork path went untested", model)
		}
	}
	t.Logf("%d faults in all", total)
}

// TestAccelPruningOffWhenTraced: a traced campaign narrates every fault's
// full run, so it prunes nothing.
func TestAccelPruningOffWhenTraced(t *testing.T) {
	cfg := gemmCampaignConfig(t, 24)
	if res := mustRun(t, cfg); res.Forking.Pruned == 0 {
		t.Fatal("untraced gemm campaign pruned nothing")
	}
	// A RingSink takes Emit calls from one goroutine only.
	cfg.Trace, cfg.Workers = obs.NewRingSink(16), 1
	if res := mustRun(t, cfg); res.Forking.Pruned != 0 {
		t.Fatalf("traced campaign pruned %d faults", res.Forking.Pruned)
	}
}

// TestAccelPruningConcurrentCampaignsSharedGolden runs transient and
// stuck-at campaigns on every bank of two designs concurrently, each
// design's over one shared CampaignGolden; each builds its own golden
// watch, and each result must equal the same campaign run alone. Run it
// under -race.
func TestAccelPruningConcurrentCampaignsSharedGolden(t *testing.T) {
	type job struct {
		cfg accel.CampaignConfig
		g   *accel.CampaignGolden
	}
	var jobs []job
	for _, name := range []string{"gemm", "stencil2d"} {
		spec, err := machsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := accel.PrepareGolden(spec.Design, spec.Task)
		if err != nil {
			t.Fatal(err)
		}
		for _, bank := range spec.Design.Banks {
			for _, model := range pruneModels {
				jobs = append(jobs, job{accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: bank.Name, Model: model,
					Sizing: dispatch.Sizing{Faults: 8, Workers: 2, LadderRungs: 4}, Seed: 3,
				}, g})
			}
		}
	}
	want := make([]*accel.CampaignResult, len(jobs))
	for i, j := range jobs {
		r, err := accel.RunCampaignWithGolden(j.cfg, j.g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got := make([]*accel.CampaignResult, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = accel.RunCampaignWithGolden(j.cfg, j.g)
		}()
	}
	wg.Wait()
	var pruned uint64
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		label := fmt.Sprintf("%s/%s/%v", j.cfg.Design.Name, j.cfg.Target, j.cfg.Model)
		assertEqualResults(t, label, want[i], got[i])
		if got[i].Forking.Pruned != want[i].Forking.Pruned {
			t.Errorf("%s: pruned %d, alone %d", label, got[i].Forking.Pruned, want[i].Forking.Pruned)
		}
		pruned += got[i].Forking.Pruned
	}
	if pruned == 0 {
		t.Fatal("no campaign pruned a fault")
	}
}

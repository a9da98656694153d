package campaign

// Exact stuck-at pruning: every fault the golden read summary prunes must
// classify exactly as its full faulty run does, and pruning must not
// depend on which campaigns share the golden.

import (
	"fmt"
	"sync"
	"testing"

	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/workloads"
)

// prepareGoldenFor prepares the golden run of workload wl on arch.
func prepareGoldenFor(t *testing.T, arch, wl string, preset config.Preset) (*Golden, Config) {
	t.Helper()
	a, err := isa.ByName(arch)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Image: img, Preset: preset, Seed: 11, WatchdogFactor: 3, Domain: core.DomainValidOnly}
	g, err := PrepareGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, cfg
}

// prunedBy runs cfg's pruning pass as the dispatch kernel does, from a
// fork of the window-start checkpoint, and returns its predicate (nil
// when the campaign has no pass or the pass proves nothing).
func prunedBy(t *testing.T, cfg Config, g *Golden, masks []core.Mask) func(int) (classify.Verdict, uint64, bool) {
	t.Helper()
	pass := pruner(cfg, g, masks)
	if pass == nil {
		return nil
	}
	prune, err := pass(g.base.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return prune
}

// pruneTargets are the CPU targets whose ports report to an observer.
var pruneTargets = []string{"prf", "l1i", "l1d", "l2", "lq", "sq"}

// TestStuckAtPruningDifferential runs every fault the summary prunes the
// full way, with HVF off and on, and demands the identical verdict: 6
// targets x {stuck-at-0, stuck-at-1} x 3 ISAs x 2 workloads. No mask
// reports a cycle it was seen at, so every unpruned one forks from the
// window start.
func TestStuckAtPruningDifferential(t *testing.T) {
	const faults = 16
	type tally struct{ pruned, total int }
	var mu sync.Mutex
	counts := map[string]*tally{}
	for _, name := range pruneTargets {
		counts[name] = &tally{}
	}
	t.Run("grid", func(t *testing.T) {
		for _, arch := range []string{"riscv", "arm", "x86"} {
			t.Run(arch, func(t *testing.T) {
				t.Parallel()
				for _, wl := range []string{"crc32", "sha"} {
					g, base := prepareGoldenFor(t, arch, wl, config.Fast())
					for _, target := range pruneTargets {
						for _, model := range []core.Model{core.StuckAt0, core.StuckAt1} {
							cfg := base
							cfg.Target, cfg.Model, cfg.Sizing = target, model, dispatch.Sizing{Faults: faults}
							masks, _, err := buildMasks(cfg, g.base, &g.Info)
							if err != nil {
								t.Fatal(err)
							}
							prune := prunedBy(t, cfg, g, masks)
							n := 0
							for i, m := range masks {
								if prune == nil {
									break
								}
								v, seen, ok := prune(i)
								if seen != 0 {
									t.Errorf("%s/%s/%s/%v mask %d: seen at cycle %d; the read summary keeps no clock",
										arch, wl, target, model, i, seen)
								}
								if !ok {
									continue
								}
								n++
								for _, hvf := range []bool{false, true} {
									full := cfg
									full.HVF = hvf
									want, err := runOne(full, g.base.Clone(), g, m, nil)
									if err != nil {
										t.Fatal(err)
									}
									if v != want {
										t.Errorf("%s/%s/%s/%v mask %d (hvf %v): pruned verdict %+v, full run %+v",
											arch, wl, target, model, i, hvf, v, want)
									}
								}
							}
							mu.Lock()
							counts[target].pruned += n
							counts[target].total += len(masks)
							mu.Unlock()
						}
					}
				}
			})
		}
	})
	for _, name := range pruneTargets {
		c := counts[name]
		t.Logf("%-3s pruned %3d/%d", name, c.pruned, c.total)
	}
	for _, name := range []string{"l1i", "l1d"} {
		if counts[name].pruned == 0 {
			t.Errorf("%s: no fault pruned; the read summary proves nothing", name)
		}
	}
}

// TestPruningOffWhenTracedOrTransient: a traced campaign narrates every
// fault's full run, and a campaign with a transient mask keeps the §IV-B
// path, so neither builds a summary.
func TestPruningOffWhenTracedOrTransient(t *testing.T) {
	g, base := prepareGoldenFor(t, "riscv", "crc32", config.Fast())
	cfg := base
	cfg.Target, cfg.Model, cfg.Sizing = "l1d", core.StuckAt1, dispatch.Sizing{Faults: 4}
	masks, _, err := buildMasks(cfg, g.base, &g.Info)
	if err != nil {
		t.Fatal(err)
	}
	if pruner(cfg, g, masks) == nil {
		t.Fatal("untraced stuck-at campaign: no pruning pass")
	}
	traced := cfg
	traced.Trace = obs.NewRingSink(16)
	if pruner(traced, g, masks) != nil {
		t.Fatal("traced campaign: a pruning pass, want none")
	}
	mixed := append([]core.Mask{{Faults: []core.Fault{{Target: "l1d", Bit: 3, Cycle: g.Info.WindowLo, Model: core.Transient}}}}, masks...)
	if pruner(cfg, g, mixed) != nil {
		t.Fatal("campaign with a transient mask: a pruning pass, want none")
	}
	rob := cfg
	rob.Target = "rob"
	robMasks, _, err := buildMasks(rob, g.base, &g.Info)
	if err != nil {
		t.Fatal(err)
	}
	if pruner(rob, g, robMasks) != nil {
		t.Fatal("rob campaign: a pruning pass, want none (the ROB reports no ports)")
	}
}

// TestPruningConcurrentCampaignsSharedGolden runs stuck-at campaigns on
// every observed target concurrently over one shared Golden; each builds
// its own summary, and each result must equal the same campaign run
// alone. Run it under -race.
func TestPruningConcurrentCampaignsSharedGolden(t *testing.T) {
	g, base := prepareGoldenFor(t, "arm", "crc32", config.Fast())
	var cfgs []Config
	for _, target := range pruneTargets {
		for _, model := range []core.Model{core.StuckAt0, core.StuckAt1} {
			cfg := base
			cfg.Target, cfg.Model, cfg.Sizing = target, model, dispatch.Sizing{Faults: 8, Workers: 2}
			cfgs = append(cfgs, cfg)
		}
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := RunWithGolden(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RunWithGolden(cfg, g)
		}()
	}
	wg.Wait()
	pruned := uint64(0)
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		name := fmt.Sprintf("%s/%v", cfg.Target, cfg.Model)
		if len(got[i].Records) != len(want[i].Records) {
			t.Fatalf("%s: %d records, alone %d", name, len(got[i].Records), len(want[i].Records))
		}
		for j := range got[i].Records {
			if gv, wv := got[i].Records[j].Verdict, want[i].Records[j].Verdict; gv != wv {
				t.Errorf("%s record %d: %+v, alone %+v", name, j, gv, wv)
			}
		}
		if got[i].Forking.Pruned != want[i].Forking.Pruned {
			t.Errorf("%s: pruned %d, alone %d", name, got[i].Forking.Pruned, want[i].Forking.Pruned)
		}
		pruned += got[i].Forking.Pruned
	}
	if pruned == 0 {
		t.Fatal("no campaign pruned a fault")
	}
}

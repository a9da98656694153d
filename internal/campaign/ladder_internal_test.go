package campaign

// White-box tests for the CPU's checkpoint ladder: rung placement inside
// the injection window, rung commit counts, each mask's first injection
// cycle, and a run forked from a mid-window rung applying a
// rung-straddling multi-fault mask in cycle order, bit-identically to a
// window-start fork.

import (
	"testing"

	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/cpu"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/workloads"
)

func prepareTestGolden(t *testing.T) (*Golden, Config) {
	t.Helper()
	return prepareTestGoldenOn(t, config.Fast())
}

// prepareTestGoldenOn prepares the riscv/crc32 golden run on preset.
func prepareTestGoldenOn(t *testing.T, preset config.Preset) (*Golden, Config) {
	t.Helper()
	a, err := isa.ByName("riscv")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Image:          img,
		Preset:         preset,
		Target:         "prf",
		Model:          core.Transient,
		Sizing:         dispatch.Sizing{Faults: 1},
		Seed:           1,
		WatchdogFactor: 3,
	}
	g, err := PrepareGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, cfg
}

func TestLadderRungPlacement(t *testing.T) {
	g, _ := prepareTestGolden(t)
	const k = 4
	rungs := g.ladder().Rungs(k)
	if len(rungs) < 2 {
		t.Fatalf("ladder(%d) built only %d rungs over window [%d, %d)",
			k, len(rungs), g.Info.WindowLo, g.Info.WindowHi)
	}
	ckpt := g.base.CPU.Cycle()
	if rungs[0].Cycle != ckpt || rungs[0].Sys != g.base {
		t.Fatalf("rung 0 must be the window-start checkpoint: cycle %d vs %d", rungs[0].Cycle, ckpt)
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].Cycle <= rungs[i-1].Cycle {
			t.Errorf("rung cycles not strictly increasing: rung %d at %d, rung %d at %d",
				i-1, rungs[i-1].Cycle, i, rungs[i].Cycle)
		}
		if rungs[i].Cycle >= g.Info.WindowHi {
			t.Errorf("rung %d at cycle %d outside window (hi %d)", i, rungs[i].Cycle, g.Info.WindowHi)
		}
		if rungs[i].Sys.CPU.Cycle() != rungs[i].Cycle {
			t.Errorf("rung %d records cycle %d but its snapshot sits at %d",
				i, rungs[i].Cycle, rungs[i].Sys.CPU.Cycle())
		}
	}
	// Memoized: the same depth returns the identical ladder.
	again := g.ladder().Rungs(k)
	if &again[0] != &rungs[0] {
		t.Error("ladder(k) rebuilt instead of returning the memoized rungs")
	}
}

// TestRungCommitsAreCommittedUops holds the HVF offset runOne reads from a
// scratch's CPU.Stats.Uops to the golden commit stream: counting commits
// with a hook while replaying the window from the checkpoint reaches each
// rung's Uops, and the checkpoint's Uops plus every commit after it is
// the golden trace's length.
func TestRungCommitsAreCommittedUops(t *testing.T) {
	g, _ := prepareTestGolden(t)
	rungs := g.ladder().Rungs(8)
	w := g.base.Clone()
	commits := g.base.CPU.Stats.Uops
	w.CPU.CommitHook = func(cpu.CommitRec) { commits++ }
	for i, r := range rungs {
		w.RunUntilCycle(r.Cycle)
		if got := r.Sys.CPU.Stats.Uops; got != commits {
			t.Errorf("rung %d at cycle %d: Stats.Uops %d, %d golden commits", i, r.Cycle, got, commits)
		}
	}
	if res := w.Run(500_000_000); res.Status != soc.RunCompleted {
		t.Fatalf("replay %v", res.Status)
	}
	if commits != uint64(g.trace.Len()) {
		t.Errorf("checkpoint Uops + replayed commits = %d, golden trace has %d", commits, g.trace.Len())
	}
}

// TestLadderCacheFootprint guards the block-shared caches end to end: the
// 8-rung ladder of riscv/crc32 on the paper's Table II caches (1.2 MB per
// hierarchy) holds under 1 MiB of distinct cache blocks across all its
// rungs, because each rung shares every block the walker did not touch
// since the previous one.
func TestLadderCacheFootprint(t *testing.T) {
	g, _ := prepareTestGoldenOn(t, config.TableII())
	rungs := g.ladder().Rungs(8)
	if len(rungs) != 9 {
		t.Fatalf("ladder(8) built %d rungs, want 9", len(rungs))
	}
	hs := make([]*mem.Hierarchy, len(rungs))
	for i, r := range rungs {
		hs[i] = r.Sys.Hier
	}
	got := mem.CacheFootprint(hs...)
	t.Logf("%d rungs hold %d bytes of cache blocks", len(rungs), got)
	if got >= 1<<20 {
		t.Errorf("%d rungs hold %d bytes of cache blocks, want < %d", len(rungs), got, 1<<20)
	}
}

// TestFirstTransientCycle: a mask forks from the rung its earliest
// transient selects (the kernel's rung choice is tested in dispatch), and
// a mask carrying any permanent fault reports none, pinning it to rung 0.
func TestFirstTransientCycle(t *testing.T) {
	cases := []struct {
		name   string
		faults []core.Fault
		cycle  uint64
		ok     bool
	}{
		{"single transient", []core.Fault{{Model: core.Transient, Cycle: 150}}, 150, true},
		{"earliest of several governs", []core.Fault{
			{Model: core.Transient, Cycle: 390},
			{Model: core.Transient, Cycle: 250},
		}, 250, true},
		{"permanent pins rung 0", []core.Fault{
			{Model: core.StuckAt1},
			{Model: core.Transient, Cycle: 390},
		}, 0, false},
	}
	for _, c := range cases {
		if cycle, ok := firstTransientCycle(core.Mask{Faults: c.faults}); cycle != c.cycle || ok != c.ok {
			t.Errorf("%s: firstTransientCycle = (%d, %v), want (%d, %v)", c.name, cycle, ok, c.cycle, c.ok)
		}
	}
}

func TestLadderStraddlingMaskAppliesInCycleOrder(t *testing.T) {
	// A mask with two transients on opposite sides of a rung boundary:
	// the run forks from the rung before the FIRST fault, replays to it,
	// flips, keeps running across later rungs' cycles, and flips again.
	// Verdict and flip narration must match the window-start fork exactly.
	g, cfg := prepareTestGolden(t)
	rungs := g.ladder().Rungs(4)
	if len(rungs) < 3 {
		t.Skipf("window too short for a straddle: %d rungs", len(rungs))
	}
	r := 1
	mask := core.Mask{ID: 0, Faults: []core.Fault{
		// Listed out of cycle order on purpose: runOne must sort.
		{Target: "prf", Bit: 7, Model: core.Transient, Cycle: rungs[r+1].Cycle + 1},
		{Target: "prf", Bit: 3, Model: core.Transient, Cycle: rungs[r].Cycle + 1},
	}}
	// The earliest flip lies between rungs r and r+1, so the kernel forks
	// the mask from rung r.
	if first, _ := firstTransientCycle(mask); first < rungs[r].Cycle || first >= rungs[r+1].Cycle {
		t.Fatalf("straddling mask's first flip at %d is not served by rung %d [%d, %d)",
			first, r, rungs[r].Cycle, rungs[r+1].Cycle)
	}

	flatSink := &eventSliceSink{}
	flatCfg := cfg
	flatCfg.Trace = flatSink
	vFlat, err := runOne(flatCfg, rungs[0].Sys.Fork(), g, mask, nil)
	if err != nil {
		t.Fatal(err)
	}

	ladSink := &eventSliceSink{}
	ladCfg := cfg
	ladCfg.Trace = ladSink
	vLad, err := runOne(ladCfg, rungs[r].Sys.Fork(), g, mask, nil)
	if err != nil {
		t.Fatal(err)
	}

	if vFlat != vLad {
		t.Fatalf("straddling mask verdict differs:\n window-start: %+v\n rung %d:      %+v", vFlat, r, vLad)
	}
	flatFlips := flipsOf(flatSink.events)
	ladFlips := flipsOf(ladSink.events)
	if len(flatFlips) != 2 || len(ladFlips) != 2 {
		t.Fatalf("expected 2 flips each, got %d (flat) and %d (rung)", len(flatFlips), len(ladFlips))
	}
	for i := range flatFlips {
		if flatFlips[i] != ladFlips[i] {
			t.Errorf("flip %d differs:\n window-start: %+v\n rung:         %+v", i, flatFlips[i], ladFlips[i])
		}
	}
	if flatFlips[0].Cycle > flatFlips[1].Cycle {
		t.Errorf("flips applied out of cycle order: %d then %d", flatFlips[0].Cycle, flatFlips[1].Cycle)
	}
	if flatFlips[0].Bit != 3 || flatFlips[1].Bit != 7 {
		t.Errorf("flip order ignored injection cycles: bits %d, %d (want 3 then 7)",
			flatFlips[0].Bit, flatFlips[1].Bit)
	}
}

type eventSliceSink struct{ events []obs.Event }

func (s *eventSliceSink) Emit(e obs.Event) { s.events = append(s.events, e) }

func flipsOf(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindBitFlipped {
			out = append(out, e)
		}
	}
	return out
}

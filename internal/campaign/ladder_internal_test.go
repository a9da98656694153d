package campaign

// White-box tests for the checkpoint ladder: rung placement inside the
// injection window, rung selection per mask, and a run forked from a
// mid-window rung applying a rung-straddling multi-fault mask in cycle
// order, bit-identically to a window-start fork.

import (
	"testing"

	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/obs"
	"marvel/internal/program"
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
	rungs := g.ladder(k)
	if len(rungs) < 2 {
		t.Fatalf("ladder(%d) built only %d rungs over window [%d, %d)",
			k, len(rungs), g.Info.WindowLo, g.Info.WindowHi)
	}
	ckpt := g.base.CPU.Cycle()
	if rungs[0].cycle != ckpt || rungs[0].sys != g.base {
		t.Fatalf("rung 0 must be the window-start checkpoint: cycle %d vs %d", rungs[0].cycle, ckpt)
	}
	if rungs[0].commits != g.commitsAtCkpt {
		t.Fatalf("rung 0 commits %d != checkpoint commits %d", rungs[0].commits, g.commitsAtCkpt)
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].cycle <= rungs[i-1].cycle {
			t.Errorf("rung cycles not strictly increasing: rung %d at %d, rung %d at %d",
				i-1, rungs[i-1].cycle, i, rungs[i].cycle)
		}
		if rungs[i].commits < rungs[i-1].commits {
			t.Errorf("rung commits not monotone: rung %d has %d, rung %d has %d",
				i-1, rungs[i-1].commits, i, rungs[i].commits)
		}
		if rungs[i].cycle >= g.Info.WindowHi {
			t.Errorf("rung %d at cycle %d outside window (hi %d)", i, rungs[i].cycle, g.Info.WindowHi)
		}
		if rungs[i].sys.CPU.Cycle() != rungs[i].cycle {
			t.Errorf("rung %d records cycle %d but its snapshot sits at %d",
				i, rungs[i].cycle, rungs[i].sys.CPU.Cycle())
		}
	}
	// Memoized: the same depth returns the identical ladder.
	again := g.ladder(k)
	if &again[0] != &rungs[0] {
		t.Error("ladder(k) rebuilt instead of returning the memoized rungs")
	}
}

// TestLadderCacheFootprint guards the block-shared caches end to end: the
// 8-rung ladder of riscv/crc32 on the paper's Table II caches (1.2 MB per
// hierarchy) holds under 1 MiB of distinct cache blocks across all its
// rungs, because each rung shares every block the walker did not touch
// since the previous one.
func TestLadderCacheFootprint(t *testing.T) {
	g, _ := prepareTestGoldenOn(t, config.TableII())
	rungs := g.ladder(8)
	if len(rungs) != 9 {
		t.Fatalf("ladder(8) built %d rungs, want 9", len(rungs))
	}
	hs := make([]*mem.Hierarchy, len(rungs))
	for i, r := range rungs {
		hs[i] = r.sys.Hier
	}
	got := mem.CacheFootprint(hs...)
	t.Logf("%d rungs hold %d bytes of cache blocks", len(rungs), got)
	if got >= 1<<20 {
		t.Errorf("%d rungs hold %d bytes of cache blocks, want < %d", len(rungs), got, 1<<20)
	}
}

func TestLadderRungForSelection(t *testing.T) {
	rungs := []rung{{cycle: 100}, {cycle: 200}, {cycle: 300}, {cycle: 400}}
	cases := []struct {
		name string
		mask core.Mask
		want int
	}{
		{"before first rung", core.Mask{Faults: []core.Fault{{Model: core.Transient, Cycle: 150}}}, 0},
		{"exactly at rung", core.Mask{Faults: []core.Fault{{Model: core.Transient, Cycle: 300}}}, 2},
		{"past last rung", core.Mask{Faults: []core.Fault{{Model: core.Transient, Cycle: 900}}}, 3},
		{"earliest of several governs", core.Mask{Faults: []core.Fault{
			{Model: core.Transient, Cycle: 390},
			{Model: core.Transient, Cycle: 250},
		}}, 1},
		{"permanent pins rung 0", core.Mask{Faults: []core.Fault{
			{Model: core.StuckAt1},
			{Model: core.Transient, Cycle: 390},
		}}, 0},
	}
	for _, c := range cases {
		if got := rungFor(rungs, c.mask); got != c.want {
			t.Errorf("%s: rungFor = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLadderStraddlingMaskAppliesInCycleOrder(t *testing.T) {
	// A mask with two transients on opposite sides of a rung boundary:
	// the run forks from the rung before the FIRST fault, replays to it,
	// flips, keeps running across later rungs' cycles, and flips again.
	// Verdict and flip narration must match the window-start fork exactly.
	g, cfg := prepareTestGolden(t)
	rungs := g.ladder(4)
	if len(rungs) < 3 {
		t.Skipf("window too short for a straddle: %d rungs", len(rungs))
	}
	r := 1
	mask := core.Mask{ID: 0, Faults: []core.Fault{
		// Listed out of cycle order on purpose: runOne must sort.
		{Target: "prf", Bit: 7, Model: core.Transient, Cycle: rungs[r+1].cycle + 1},
		{Target: "prf", Bit: 3, Model: core.Transient, Cycle: rungs[r].cycle + 1},
	}}
	if got := rungFor(rungs, mask); got != r {
		t.Fatalf("straddling mask selected rung %d, want %d", got, r)
	}
	armCycle := rungs[0].cycle

	flatSink := &eventSliceSink{}
	flatCfg := cfg
	flatCfg.Trace = flatSink
	vFlat, err := runOne(flatCfg, rungs[0].sys.Fork(), &g.Info, nil, 0, armCycle, mask, nil)
	if err != nil {
		t.Fatal(err)
	}

	ladSink := &eventSliceSink{}
	ladCfg := cfg
	ladCfg.Trace = ladSink
	vLad, err := runOne(ladCfg, rungs[r].sys.Fork(), &g.Info, nil, 0, armCycle, mask, nil)
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

package soc_test

import (
	"testing"

	"marvel/internal/config"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/workloads"
)

// TestStepZeroAlloc guards the simulator's steady state: once a system is
// warm, simulating a cycle allocates nothing on any ISA — fetch reuses
// its buffer, decode is memoized into inline micro-op storage, and every
// pipeline queue was allocated at its bound.
func TestStepZeroAlloc(t *testing.T) {
	const warm, runs, block = 4000, 20, 500
	w, err := workloads.ByName("smooth")
	if err != nil {
		t.Fatal(err)
	}
	pre := config.TableII()
	for _, a := range isa.All() {
		img, err := program.Compile(a, w.Build())
		if err != nil {
			t.Fatal(err)
		}
		sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warm; i++ {
			sys.Step()
		}
		// AllocsPerRun floors the per-run mean, which absorbs a stray
		// allocation by the runtime in the background but still catches
		// any site on the simulation path that fires once per block.
		allocs := testing.AllocsPerRun(runs, func() {
			for i := 0; i < block; i++ {
				sys.Step()
			}
		})
		if sys.CPU.Done() {
			t.Fatalf("%s: program finished inside the measured block; the guard measured nothing", a.Name())
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per %d warm cycles, want 0", a.Name(), allocs, block)
		}
	}
}

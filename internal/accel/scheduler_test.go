// The event-driven scheduler against the scan-scheduler oracle it
// replaced (export_test.go), and its allocation contract.
package accel_test

import (
	"bytes"
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/machsuite"
)

// schedulerDesigns is every MachSuite design plus the Figure 17 extremes.
func schedulerDesigns(t *testing.T) []machsuite.Spec {
	t.Helper()
	specs := machsuite.All()
	for _, m := range []int{1, 16} {
		s, err := machsuite.ByName("gemm")
		if err != nil {
			t.Fatal(err)
		}
		s.Design = machsuite.GemmDesign(m)
		s.Name = fmt.Sprintf("gemm%d", m)
		specs = append(specs, s)
	}
	return specs
}

// TestSchedulerMatchesScanOracle runs every design under its own FU
// counts, the narrowest datapath and an adder-starved one, tick by tick
// against the scan oracle: the same instructions issue on every tick, and
// TaskCycles and output agree.
func TestSchedulerMatchesScanOracle(t *testing.T) {
	for _, spec := range schedulerDesigns(t) {
		for _, fus := range []accel.FUConfig{
			spec.Design.FUs,
			{Adders: 1, Multipliers: 1, Dividers: 1, MemPorts: 1},
			{Adders: 1, Multipliers: 16, Dividers: 3, MemPorts: 16},
		} {
			d := *spec.Design
			d.FUs = fus
			rep, err := accel.ScanLockstep(&d, spec.Task, nil, 50_000_000)
			if err != nil {
				t.Fatalf("%s %+v: %v", spec.Name, fus, err)
			}
			if !rep.Done || rep.Faulted || rep.ComputeTicks == 0 {
				t.Fatalf("%s %+v: done=%v faulted=%v after %d compute ticks", spec.Name, fus, rep.Done, rep.Faulted, rep.ComputeTicks)
			}
			if !bytes.Equal(rep.Output, spec.Ref()) {
				t.Errorf("%s %+v: output differs from the reference", spec.Name, fus)
			}
		}
	}
}

// FuzzEngineSchedule holds the scheduler to the scan oracle over arbitrary
// FU counts (1..16 each) and an optional transient flip, which may change
// addresses and branch directions but never the dependency graph.
func FuzzEngineSchedule(f *testing.F) {
	f.Add(uint8(2), uint8(8), uint8(4), uint8(1), uint8(4), false, uint8(0), uint64(0), uint32(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), true, uint8(0), uint64(77), uint32(3000))
	f.Add(uint8(0), uint8(3), uint8(16), uint8(2), uint8(2), true, uint8(1), uint64(5), uint32(2500))
	specs := machsuite.All()
	f.Fuzz(func(t *testing.T, design, adders, muls, divs, ports uint8, flip bool, bank uint8, bit uint64, cycle uint32) {
		spec := specs[int(design)%len(specs)]
		d := *spec.Design
		d.FUs = accel.FUConfig{
			Adders:      1 + int(adders%16),
			Multipliers: 1 + int(muls%16),
			Dividers:    1 + int(divs%16),
			MemPorts:    1 + int(ports%16),
		}
		s, err := accel.NewStandalone(&d, spec.Task)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		golden := s.Cluster.TaskCycles()
		var fl *accel.ScanFlip
		if flip {
			fl = &accel.ScanFlip{
				Bank:  int(bank) % len(d.Banks),
				Bit:   bit,
				Cycle: 1 + uint64(cycle)%golden,
			}
		}
		if _, err := accel.ScanLockstep(&d, spec.Task, fl, 4*golden+5000); err != nil {
			t.Fatalf("%s %+v flip %+v: %v", spec.Name, d.FUs, fl, err)
		}
	})
}

// TestEngineTickZeroAlloc holds a reset fork's whole faulty run — DMA-in,
// compute through every basic block, DMA-out — at zero heap allocations
// on every design: block entry reloads preallocated scheduling state.
func TestEngineTickZeroAlloc(t *testing.T) {
	for _, spec := range schedulerDesigns(t) {
		g, err := accel.NewStandalone(spec.Design, spec.Task)
		if err != nil {
			t.Fatal(err)
		}
		f := g.Fork()
		if err := f.Run(50_000_000); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		mid := f.Cluster.TaskCycles() / 2
		// A flip in the output bank mid-task: values change, addresses
		// do not, so the run completes without an error value.
		out := spec.Design.Out[0].Local
		bank := 0
		for i, b := range spec.Design.Banks {
			if out >= b.Base && out < b.Base+uint64(b.Size) {
				bank = i
			}
		}
		var cycles uint64
		run := func() {
			f.Reset()
			f.Cluster.ScheduleFlip(bank, 3, mid)
			if err := f.Run(50_000_000); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			cycles = f.Cluster.Cycle()
		}
		if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
			t.Errorf("%s: %.0f allocations per faulty run of %d cycles, want 0", spec.Name, allocs, cycles)
		}
	}
}

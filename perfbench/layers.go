package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"marvel/internal/accel"
	"marvel/internal/config"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/mem"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/workloads"
)

// probeLayers measures the simulator layers one at a time by timing calls
// into their public functions, outside the workload. Every traced run
// reports them, whatever its workload, so a layer's speed can be read
// beside the end-to-end figure of any workload.
func probeLayers(b *bench) error {
	minTime := 100 * time.Millisecond
	if b.small {
		minTime = time.Millisecond
	}
	kernels := cpuGoldenKernels(b.small)
	for _, name := range isaNames {
		imgs, err := probeCompile(b, name, kernels)
		if err != nil {
			return err
		}
		probeDecode(b, name, imgs, minTime)
		if err := probeCPU(b, name, imgs); err != nil {
			return err
		}
	}
	if err := probeMem(b, minTime); err != nil {
		return err
	}
	if err := probeSoC(b); err != nil {
		return err
	}
	return probeAccel(b, minTime)
}

// probeCompile reports program.compile_ms.<isa>: host ms to compile every
// kernel for the ISA, median of five.
func probeCompile(b *bench, name string, kernels []string) ([]*program.Image, error) {
	a, err := isa.ByName(name)
	if err != nil {
		return nil, err
	}
	var imgs []*program.Image
	var ms []float64
	for rep := 0; rep < 5; rep++ {
		imgs = imgs[:0]
		t0 := time.Now()
		for _, k := range kernels {
			w, err := workloads.ByName(k)
			if err != nil {
				return nil, err
			}
			img, err := program.Compile(a, w.Build())
			if err != nil {
				return nil, err
			}
			imgs = append(imgs, img)
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	b.set("program.compile_ms."+name, median(ms))
	return imgs, nil
}

// probeDecode walks every compiled image with Arch.Decode and reports host
// ns and heap allocations per decoded instruction.
func probeDecode(b *bench, name string, imgs []*program.Image, minTime time.Duration) {
	a := imgs[0].Arch
	pad := a.MaxInstLen()
	codes := make([][]byte, len(imgs))
	for i, img := range imgs {
		// Pad so the last instruction sees MaxInstLen bytes, as fetch does.
		codes[i] = append(append([]byte(nil), img.Code...), make([]byte, pad)...)
	}
	walk := func() int {
		n := 0
		for i, code := range codes {
			entry := imgs[i].Entry
			for off := 0; off < len(code)-pad; n++ {
				d := a.Decode(entry+uint64(off), code[off:off+pad])
				off += max(d.Size, 1)
			}
		}
		return n
	}
	walk() // warm
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	insts := 0
	t0 := time.Now()
	for time.Since(t0) < minTime {
		insts += walk()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	b.set("isa.decode_ns_per_inst."+name, float64(elapsed.Nanoseconds())/float64(insts))
	b.set("isa.decode_allocs_per_inst."+name, float64(ms1.Mallocs-ms0.Mallocs)/float64(insts))
}

// probeCPU runs every kernel once on a fresh system and reports simulated
// cycles and instructions per host second, and the heap allocations and
// bytes per simulated cycle from runtime.MemStats deltas around
// System.Run.
func probeCPU(b *bench, name string, imgs []*program.Image) error {
	pre := config.TableII()
	var cycles, insts, mallocs, allocBytes uint64
	var elapsed time.Duration
	var ms0, ms1 runtime.MemStats
	for _, img := range imgs {
		sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res := sys.Run(goldenBudget)
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if res.Status != soc.RunCompleted {
			b.fail("cpu probe %s: run %v", name, res.Status)
		}
		cycles += res.Cycles
		insts += res.Stats.Insts
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	secs := elapsed.Seconds()
	b.set("cpu.simcycles_per_s."+name, float64(cycles)/secs)
	b.set("cpu.siminsts_per_s."+name, float64(insts)/secs)
	b.set("cpu.allocs_per_simcycle."+name, float64(mallocs)/float64(cycles))
	b.set("cpu.bytes_per_simcycle."+name, float64(allocBytes)/float64(cycles))
	b.say("cpu probe %s: %d simulated cycles, %d instructions, IPC %.4f, %d allocations (counts)",
		name, cycles, insts, float64(insts)/float64(cycles), mallocs)
	return nil
}

// probeMem reports host ns per Hierarchy.Load and Hierarchy.Fetch over two
// address streams: one that stays resident in the 32 KiB L1, and one of
// 512 KiB that misses L1 and hits the 1 MiB L2.
func probeMem(b *bench, minTime time.Duration) error {
	pre := config.TableII()
	hcfg := pre.Hier
	hcfg.MMIOBase = soc.MMIOBase
	footprints := []struct {
		level string
		bytes int
	}{{"l1", 16 << 10}, {"l2", 512 << 10}}
	for _, fp := range footprints {
		h, err := mem.NewHierarchy(hcfg, mem.NewMemory(0, 1<<20, pre.MemLatency), mem.NewBus(4))
		if err != nil {
			return err
		}
		for _, op := range []struct {
			name   string
			access func(uint64, []byte) (int, error)
		}{{"load", h.Load}, {"fetch", h.Fetch}} {
			buf := make([]byte, 8)
			sweep := func() error {
				for addr := 0; addr < fp.bytes; addr += 64 {
					if _, err := op.access(uint64(addr), buf); err != nil {
						return fmt.Errorf("mem probe %s at %#x: %w", op.name, addr, err)
					}
				}
				return nil
			}
			if err := sweep(); err != nil { // fill the caches
				return err
			}
			n := 0
			t0 := time.Now()
			for time.Since(t0) < minTime {
				if err := sweep(); err != nil {
					return err
				}
				n += fp.bytes / 64
			}
			b.set(fmt.Sprintf("mem.%s_ns.%s", op.name, fp.level), float64(time.Since(t0).Nanoseconds())/float64(n))
		}
	}
	return nil
}

// socProbeISA and socProbeKernel name the system the fork and reset costs
// are measured on; it is checkpointed about half-way through its run.
const socProbeISA, socProbeKernel = "riscv", "sha"

// probeSoC reports soc.fork_us and soc.reset_us (host µs, median) and the
// copy-on-write pages and cache sets one run-and-reset cycle touches
// (exact counts).
func probeSoC(b *bench) error {
	a, err := isa.ByName(socProbeISA)
	if err != nil {
		return err
	}
	w, err := workloads.ByName(socProbeKernel)
	if err != nil {
		return err
	}
	img, err := program.Compile(a, w.Build())
	if err != nil {
		return err
	}
	pre := config.TableII()
	base, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
	if err != nil {
		return err
	}
	base.RunUntilCycle(3000) // of 6240 cycles
	ref := w.Ref()

	const forks, resets = 25, 25
	var forkUS, resetUS []float64
	var f *soc.System
	for i := 0; i < forks; i++ {
		t0 := time.Now()
		f = base.Fork()
		forkUS = append(forkUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var pages, sets uint64
	for i := 0; i < resets; i++ {
		p0, s0 := f.ForkCounters()
		res := f.Run(goldenBudget)
		b.attempted++
		if res.Status != soc.RunCompleted || !bytes.Equal(res.Output, ref) {
			b.fail("soc probe: forked run %v, output matches reference: %v", res.Status, bytes.Equal(res.Output, ref))
		}
		t0 := time.Now()
		f.Reset()
		resetUS = append(resetUS, float64(time.Since(t0).Nanoseconds())/1e3)
		p1, s1 := f.ForkCounters()
		pages += p1 - p0
		sets += s1 - s0
	}
	b.set("soc.fork_us", median(forkUS))
	b.set("soc.reset_us", median(resetUS))
	b.set("soc.pages_copied_per_reset", float64(pages)/resets)
	b.set("soc.sets_restored_per_reset", float64(sets)/resets)
	return nil
}

// probeAccel reports accel.ticks_per_s.<design> (simulated accelerator
// cycles per host second of Standalone.Run) and accel.golden_ms (host ms of
// accel.PrepareGolden summed over the designs, median of three).
func probeAccel(b *bench, minTime time.Duration) error {
	designs := accelDesigns
	if b.small {
		designs = []string{"gemm"}
	}
	var golden []float64
	for rep := 0; rep < 3; rep++ {
		var total time.Duration
		for _, d := range designs {
			spec, err := machsuite.ByName(d)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := accel.PrepareGolden(spec.Design, spec.Task); err != nil {
				return err
			}
			total += time.Since(t0)
		}
		golden = append(golden, float64(total.Nanoseconds())/1e6)
	}
	b.set("accel.golden_ms", median(golden))

	for _, d := range designs {
		spec, err := machsuite.ByName(d)
		if err != nil {
			return err
		}
		var ticks uint64
		var elapsed time.Duration
		for runs := 0; runs == 0 || elapsed < minTime; runs++ {
			s, err := accel.NewStandalone(spec.Design, spec.Task)
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = s.Run(50_000_000)
			elapsed += time.Since(t0)
			if err != nil {
				return fmt.Errorf("accel probe %s: %w", d, err)
			}
			ticks += s.Cluster.Cycle()
			if runs == 0 {
				out, err := s.Output()
				if err != nil {
					return err
				}
				b.attempted++
				if !bytes.Equal(out, spec.Ref()) {
					b.fail("accel %s output differs from the reference", d)
				}
			}
		}
		b.set("accel.ticks_per_s."+d, float64(ticks)/elapsed.Seconds())
	}
	return nil
}

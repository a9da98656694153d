package marvel_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§V): one testing.B benchmark per experiment, printing the
// same rows/series the paper plots. Campaign sizes default to a scaled
// sample (MARVEL_FAULTS, default 24 faults per structure) so the whole
// harness completes in minutes; cmd/marvel-figures runs the full-resolution
// version (1,000 faults per structure, the paper's sample size).
//
//	go test -bench=. -benchmem
//	MARVEL_FAULTS=200 go test -bench=Fig04 -benchtime=1x

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/figures"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/workloads"
)

func benchParams() figures.Params {
	p := figures.Params{Faults: 24, W: os.Stdout}
	if v := os.Getenv("MARVEL_FAULTS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			p.Faults = n
		}
	}
	if v := os.Getenv("MARVEL_WORKLOADS"); v != "" {
		p.Workloads = strings.Split(v, ",")
	}
	return p
}

func benchCPUFigure(b *testing.B, id string) {
	var spec figures.CPUFigureSpec
	for _, s := range figures.CPUFigures() {
		if s.ID == id {
			spec = s
		}
	}
	if spec.ID == "" {
		b.Fatalf("unknown figure %s", id)
	}
	for i := 0; i < b.N; i++ {
		cells, err := figures.CPUCells(benchParams(), []figures.CPUFigureSpec{spec})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			figures.PrintCPUFigure(os.Stdout, spec, cells)
		}
	}
}

// --- Figures 4-8: transient AVF per structure ---

func BenchmarkFig04_PRF_AVF(b *testing.B) { benchCPUFigure(b, "fig04") }
func BenchmarkFig05_L1I_AVF(b *testing.B) { benchCPUFigure(b, "fig05") }
func BenchmarkFig06_L1D_AVF(b *testing.B) { benchCPUFigure(b, "fig06") }
func BenchmarkFig07_LQ_AVF(b *testing.B)  { benchCPUFigure(b, "fig07") }
func BenchmarkFig08_SQ_AVF(b *testing.B)  { benchCPUFigure(b, "fig08") }

// --- Figures 9-11: SDC contribution to the AVF ---

func BenchmarkFig09_PRF_SDC(b *testing.B) { benchCPUFigure(b, "fig09") }
func BenchmarkFig10_L1I_SDC(b *testing.B) { benchCPUFigure(b, "fig10") }
func BenchmarkFig11_L1D_SDC(b *testing.B) { benchCPUFigure(b, "fig11") }

// --- Figures 12-13: SDC probability under permanent faults ---

func BenchmarkFig12_L1I_Perm_SDC(b *testing.B) { benchCPUFigure(b, "fig12") }
func BenchmarkFig13_L1D_Perm_SDC(b *testing.B) { benchCPUFigure(b, "fig13") }

// --- Figure 14: DSA component AVF (SDC/Crash breakdown) ---

func BenchmarkFig14_DSA_AVF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Faults *= 2
		if i > 0 {
			p.W = nullWriter{}
		}
		if err := figures.Fig14(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 15: PRF-size sensitivity (RISC-V) ---

func BenchmarkFig15_PRF_Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		if i > 0 {
			p.W = nullWriter{}
		}
		if err := figures.Fig15(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 16: CPU vs DSA — AVF breakdown and OPF for 4 algorithms ---

func BenchmarkFig16_CPU_vs_DSA_OPF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Faults *= 2
		if i > 0 {
			p.W = nullWriter{}
		}
		if err := figures.Fig16(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 17: gemm design-space exploration ---

func BenchmarkFig17_GEMM_DSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Faults *= 3
		if i > 0 {
			p.W = nullWriter{}
		}
		if err := figures.Fig17(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 18: HVF vs AVF ---

func BenchmarkFig18_HVF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Workloads = nil // fixed six-benchmark set
		if i > 0 {
			p.W = nullWriter{}
		}
		if err := figures.Fig18(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Listing 1: injector validation ---

func BenchmarkListing1Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Faults *= 2
		if i > 0 {
			p.W = nullWriter{}
		}
		avf, err := figures.Listing1(p)
		if err != nil {
			b.Fatal(err)
		}
		if avf < 0.95 {
			b.Fatalf("validation AVF %.3f, want ~1.0", avf)
		}
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// --- Ablation benches (DESIGN.md design-choice studies) ---

// BenchmarkAblation_EarlyTermination measures the §IV-B optimization's
// effect on campaign wall time.
func BenchmarkAblation_EarlyTermination(b *testing.B) {
	spec, err := workloads.ByName("dijkstra")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	for _, et := range []bool{false, true} {
		et := et
		b.Run(fmt.Sprintf("earlyterm=%v", et), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := campaign.Run(campaign.Config{
					Image:            img,
					Preset:           config.TableII(),
					Target:           "prf",
					Model:            core.Transient,
					Faults:           benchParams().Faults,
					Seed:             5,
					EarlyTermination: et,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_CheckpointForking measures the campaign's faulty-run
// setup strategies: per-run deep cloning of the checkpoint (the clone
// oracle of the fork-equivalence suite) vs copy-on-write forking with
// dirty-state reset (the dispatch kernel), plus the cold-start baseline
// (no checkpoint at all). The per-fault-setup sub-benchmarks isolate the
// setup cost itself — the acceptance bar is CoW reset at least 2x cheaper
// than a deep clone — while the end-to-end ones include the simulation so
// the whole-campaign effect is visible.
func BenchmarkAblation_CheckpointForking(b *testing.B) {
	spec, err := workloads.ByName("rijndael")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	pre := config.TableII()
	checkpoint := func(b *testing.B) *soc.System {
		b.Helper()
		sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
		if err != nil {
			b.Fatal(err)
		}
		var base *soc.System
		sys.CheckpointHook = func(uint64) { base = sys.Clone() }
		if res := sys.Run(50_000_000); res.Status != soc.RunCompleted {
			b.Fatal(res.Status)
		}
		return base
	}

	b.Run("per-fault-setup/deep-clone", func(b *testing.B) {
		base := checkpoint(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := base.Clone()
			_ = s
		}
	})
	b.Run("per-fault-setup/cow-reset", func(b *testing.B) {
		base := checkpoint(b)
		scratch := base.Fork()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Dirty the scratch the way a faulty run would (untimed), then
			// time only the rollback that prepares the next run.
			b.StopTimer()
			scratch.Run(200_000)
			b.StartTimer()
			scratch.Reset()
		}
		pages, sets := scratch.ForkCounters()
		b.ReportMetric(float64(pages)/float64(b.N), "pages-copied/op")
		b.ReportMetric(float64(sets)/float64(b.N), "sets-restored/op")
	})

	b.Run("end-to-end/deep-clone", func(b *testing.B) {
		base := checkpoint(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := base.Clone()
			if res := s.Run(50_000_000); res.Status != soc.RunCompleted {
				b.Fatal(res.Status)
			}
		}
	})
	b.Run("end-to-end/cow-fork", func(b *testing.B) {
		base := checkpoint(b)
		scratch := base.Fork()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 {
				scratch.Reset()
			}
			if res := scratch.Run(50_000_000); res.Status != soc.RunCompleted {
				b.Fatal(res.Status)
			}
		}
		pages, _ := scratch.ForkCounters()
		b.ReportMetric(float64(pages)/float64(b.N), "pages-copied/op")
	})
	b.Run("end-to-end/cold-start", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
			if err != nil {
				b.Fatal(err)
			}
			if res := sys.Run(50_000_000); res.Status != soc.RunCompleted {
				b.Fatal(res.Status)
			}
		}
	})
}

// BenchmarkAccelCampaign measures the accelerator campaign's fork/reset
// worker pool on a 64-mask gemm population, serial and parallel, against
// the cold-start baseline: 64 fault-free tasks, each on a harness built
// from scratch — the per-fault setup cost fork/reset removes.
func BenchmarkAccelCampaign(b *testing.B) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold-start", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for f := 0; f < 64; f++ {
				s, err := accel.NewStandalone(spec.Design, spec.Task)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(50_000_000); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	run := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := accel.RunCampaign(accel.CampaignConfig{
				Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
				Model: core.Transient, Faults: 64, Seed: 13,
				Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Counts.Total() != 64 {
				b.Fatalf("classified %d of 64", res.Counts.Total())
			}
		}
	}
	b.Run("serial-reuse", func(b *testing.B) { run(b, 1) })
	b.Run("parallel-reuse", func(b *testing.B) { run(b, 0) })
}

// BenchmarkCampaignLadder measures checkpoint-ladder dispatch on a
// long-window workload: the same campaign with a single window-start
// checkpoint versus an 8-rung ladder. Verdicts are bit-identical (the
// ladder equivalence suite proves it); what changes is how many
// pre-injection cycles each faulty run replays before its first flip.
// The benchmark reports that counter per variant and fails outright if
// the ladder does not cut it at least in half — the guard the verify
// script runs in CI.
func BenchmarkCampaignLadder(b *testing.B) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, rungs int) uint64 {
		b.Helper()
		var replayed uint64
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(campaign.Config{
				Image:       img,
				Preset:      config.TableII(),
				Target:      "prf",
				Model:       core.Transient,
				Faults:      24,
				Seed:        77,
				Workers:     4,
				LadderRungs: rungs,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Counts.Total() != 24 {
				b.Fatalf("classified %d of 24", res.Counts.Total())
			}
			replayed = res.Forking.ReplayedCycles
		}
		b.ReportMetric(float64(replayed), "replayed-cycles")
		return replayed
	}
	var flat, laddered uint64
	b.Run("single-checkpoint", func(b *testing.B) { flat = run(b, 0) })
	b.Run("ladder-8", func(b *testing.B) { laddered = run(b, 8) })
	if flat < 2*laddered {
		b.Fatalf("ladder replayed %d pre-injection cycles vs %d single-checkpoint — want at least a 2x reduction",
			laddered, flat)
	}
	fmt.Printf("\nLadder ablation: pre-injection replay %d cycles (single checkpoint) -> %d cycles (8 rungs), %.1fx reduction\n",
		flat, laddered, float64(flat)/float64(laddered))
}

// BenchmarkCampaignAdaptive measures confidence-targeted sizing on a
// low-AVF cell: the fixed budget is the classical worst-case sample size
// (Leveugle et al., p = 0.5) for a ±5% margin, the adaptive run targets
// the same ±5% but stops as soon as the Wilson interval around the
// *observed* AVF converges. The adaptive record stream is a bit-identical
// prefix of the fixed one (the adaptive equivalence suites prove it);
// what changes is how many injections ever run. The benchmark reports
// both counts and fails outright if adaptive saves less than 30% of the
// budget at equal margin — the guard the verify script runs in CI.
func BenchmarkCampaignAdaptive(b *testing.B) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	const margin = 0.05
	base := campaign.Config{
		Image:   img,
		Preset:  config.Fast(),
		Target:  "l1d",
		Model:   core.Transient,
		Faults:  1, // probe run to learn the population size
		Seed:    77,
		Workers: 4,
	}
	probe, err := campaign.Run(base)
	if err != nil {
		b.Fatal(err)
	}
	budget := core.SampleSize(probe.TargetBits, margin, 1.96)
	base.Faults = budget

	var fixedN, adaptiveN int
	b.Run("fixed-worst-case", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(base)
			if err != nil {
				b.Fatal(err)
			}
			fixedN = len(res.Records)
		}
		b.ReportMetric(float64(fixedN), "injections")
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.TargetMargin = margin
			res, err := campaign.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.AchievedMargin > margin {
				b.Fatalf("stopped at ±%.4f, above the ±%.2f target", res.AchievedMargin, margin)
			}
			adaptiveN = len(res.Records)
		}
		b.ReportMetric(float64(adaptiveN), "injections")
	})
	saved := fixedN - adaptiveN
	if float64(saved) < 0.30*float64(fixedN) {
		b.Fatalf("adaptive ran %d of %d injections (saved %.0f%%) — want at least 30%% saved at the same ±%.2f margin",
			adaptiveN, fixedN, 100*float64(saved)/float64(fixedN), margin)
	}
	fmt.Printf("\nAdaptive sizing: %d worst-case injections -> %d adaptive (%.0f%% saved) at ±%.0f%% margin, 95%% confidence\n",
		fixedN, adaptiveN, 100*float64(saved)/float64(fixedN), 100*margin)
}

// BenchmarkAblation_InjectionDomain compares whole-array and valid-only
// fault populations for the L1D (the DESIGN.md domain decision).
func BenchmarkAblation_InjectionDomain(b *testing.B) {
	spec, err := workloads.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var avfs [2]float64
		for di, dom := range []core.Domain{core.DomainWholeArray, core.DomainValidOnly} {
			res, err := campaign.Run(campaign.Config{
				Image:  img,
				Preset: config.TableII(),
				Target: "l1d",
				Model:  core.Transient,
				Faults: benchParams().Faults * 2,
				Seed:   3,
				Domain: dom,
			})
			if err != nil {
				b.Fatal(err)
			}
			avfs[di] = res.Counts.AVF()
		}
		if i == 0 {
			fmt.Printf("\nAblation: L1D AVF whole-array %.1f%% vs valid-only %.1f%%\n",
				100*avfs[0], 100*avfs[1])
		}
	}
}

// BenchmarkTracingOverhead quantifies the observability layer's cost on
// the simulator hot path. "off" is the golden path — a nil Tracer, so
// every emission site reduces to one nil check — and must stay within
// noise (< 2%) of the pre-observability throughput; "on" attaches a
// RingSink to bound the worst case.
func BenchmarkTracingOverhead(b *testing.B) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	pre := config.TableII()
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
				if err != nil {
					b.Fatal(err)
				}
				if mode == "on" {
					sys.CPU.Trace = obs.NewRingSink(512)
				}
				res := sys.Run(50_000_000)
				if res.Status != soc.RunCompleted {
					b.Fatal(res.Status)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
		})
	}
}

// BenchmarkProfilingOverhead quantifies the span layer's cost on the
// campaign engine. "off" is a nil Profiler, so every span site reduces
// to one nil check and a no-op End; "on" attaches a live profiler
// (atomic phase-table adds, no timeline sink — the worst case that
// still sits on the campaign hot path). Spans bracket the simulated
// work, they must never become part of it: the guard fails if profiling
// costs more than 5%. The verify script runs this in CI.
//
// The measurement is built to be stable on a small shared host: one
// worker, timed on host CPU time (getrusage, so steal and descheduling
// do not count), in pairs of alternating off/on runs, judged on the
// median of the per-pair ratios. While the pairs disagree — the median's
// 95% interval still straddles the bound — more pairs run, up to a cap,
// after which the guard fails as inconclusive instead of guessing. With
// one worker it does not cover contention between campaign workers.
func BenchmarkProfilingOverhead(b *testing.B) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	base := campaign.Config{
		Image:   img,
		Preset:  config.Fast(),
		Target:  "prf",
		Model:   core.Transient,
		Faults:  8,
		Seed:    7,
		Workers: 1,
	}
	g, err := campaign.PrepareGolden(base)
	if err != nil {
		b.Fatal(err)
	}
	run := func(profiled bool) time.Duration {
		cfg := base
		if profiled {
			cfg.Profile = obs.NewProfiler()
		}
		t0 := cpuTime(b)
		res, err := campaign.RunWithGolden(cfg, g)
		if err != nil {
			b.Fatal(err)
		}
		if res.Counts.Total() != base.Faults {
			b.Fatalf("classified %d of %d", res.Counts.Total(), base.Faults)
		}
		return cpuTime(b) - t0
	}
	// Pairs run until the sign-test 95% interval of the median overhead
	// clears the bound on one side; pairs whose interval still straddles
	// it at the cap are inconclusive.
	const bound, minPairs, maxPairs = 0.05, 9, 41
	run(false) // warm up
	var overheads []float64
	var med, lo, hi float64
	for len(overheads) < maxPairs {
		// Each side of a pair is the fastest of three interleaved runs:
		// host slowdowns only ever add CPU time, so the minimum drops them.
		off, on := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			off = min(off, run(false))
			on = min(on, run(true))
		}
		overheads = append(overheads, float64(on)/float64(off)-1)
		if len(overheads) < minPairs {
			continue
		}
		med, lo, hi = medianInterval(overheads)
		if hi <= bound || lo > bound {
			break
		}
	}
	b.ReportMetric(100*med, "overhead-%")
	b.ReportMetric(float64(len(overheads)), "pairs")
	if lo <= bound && hi > bound {
		b.Fatalf("profiling overhead inconclusive, rerun: after %d pairs the median %+.1f%% has 95%% interval [%+.1f%%, %+.1f%%] across the %.0f%% bound",
			len(overheads), 100*med, 100*lo, 100*hi, 100*bound)
	}
	if med > bound {
		b.Fatalf("profiling overhead %+.1f%% (median of %d pairs, 95%% interval [%+.1f%%, %+.1f%%]) — want under 5%%",
			100*med, len(overheads), 100*lo, 100*hi)
	}
	fmt.Printf("\nProfiling overhead: %+.1f%% CPU time (median of %d off/on pairs, 95%% interval [%+.1f%%, %+.1f%%])\n",
		100*med, len(overheads), 100*lo, 100*hi)
}

// medianInterval returns the median of xs and its distribution-free 95%
// interval from the sign test: the order statistics k and n-k+1, for
// the largest k with P(Binomial(n, 1/2) < k) <= 2.5%. len(xs) must be at
// least 6, the smallest sample with such a k >= 1.
func medianInterval(xs []float64) (med, lo, hi float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	k, tail, term := 0, 0.0, math.Pow(0.5, float64(n))
	for tail+term <= 0.025 {
		tail += term
		k++
		term *= float64(n-k+1) / float64(k)
	}
	return (s[(n-1)/2] + s[n/2]) / 2, s[k-1], s[n-k]
}

// cpuTime is the process's host CPU time (user + system).
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkSimulatorThroughput reports raw simulation speed (cycles/sec of
// the golden RISC-V sha run), the "typical use of microarchitectural
// simulators" the abstract mentions, and the heap allocations per
// simulated cycle inside System.Run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	pre := config.TableII()
	var cycles, mallocs uint64
	var ms0, ms1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms0)
		res := sys.Run(50_000_000)
		runtime.ReadMemStats(&ms1)
		if res.Status != soc.RunCompleted {
			b.Fatal(res.Status)
		}
		cycles += res.Cycles
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(mallocs)/float64(cycles), "allocs/simcycle")
}

// BenchmarkAccelEngine reports raw accelerator speed per MachSuite design:
// simulated cluster cycles (DMA-in, compute, DMA-out) per host second of
// Standalone.Run on a fresh harness, and the heap allocations per cycle
// inside Run — the accelerator counterpart of BenchmarkSimulatorThroughput.
func BenchmarkAccelEngine(b *testing.B) {
	for _, spec := range machsuite.All() {
		b.Run(spec.Name, func(b *testing.B) {
			var ticks, mallocs uint64
			var ms0, ms1 runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := accel.NewStandalone(spec.Design, spec.Task)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms0)
				b.StartTimer()
				err = s.Run(50_000_000)
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				b.StartTimer()
				if err != nil {
					b.Fatal(err)
				}
				ticks += s.Cluster.Cycle()
				mallocs += ms1.Mallocs - ms0.Mallocs
			}
			b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "ticks/s")
			b.ReportMetric(float64(mallocs)/float64(ticks), "allocs/tick")
		})
	}
}

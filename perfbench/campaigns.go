package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"marvel/internal/config"
	"marvel/internal/obs"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// sweepWorkload is a campaign workload run as one sweep.Run grid per pass,
// as a user runs the paper's figures. Set-up prepares every golden and its
// checkpoint ladder in a shared golden cache by sweeping a one-fault
// warm-up grid, so the measured passes pay only for injection, fork,
// classification and orchestration.
type sweepWorkload struct {
	grid sweep.Spec // the measured grid
	warm sweep.Spec // one cell per golden, building it and its ladder
	// journal makes every pass persist to a fresh scratch OutDir.
	journal bool
	// checkGoldens compares every prepared golden output with its pure-Go
	// reference and returns the number of goldens checked.
	checkGoldens func(b *bench, cache sweep.GoldenCache) int
	// layer is the per-layer metric prefix of the engine ("campaign" or
	// "accel").
	layer string
}

// sweepWorkers is the campaign worker budget. Cells run one at a time
// with both workers inside the cell: two cells side by side leave a core
// idle behind whichever long cell happens to finish last, which made
// throughput swing with the schedule.
const sweepWorkers = 2

// cpuCampaignSpec pairs a kernel with a short injection window (sha) with
// one whose window is almost three times longer (crc32), and covers every
// ISA, target and model. Each cell injects 24 faults: few enough that a
// pass of the grid fits a run, enough that per-cell fixed costs (mask
// planning, golden and ladder lookup, journal, the tail of the last
// faults) do not dominate. Users run about 1,000 injections per
// structure, so a cell here stands for a slice of such a campaign.
// Kernels with the longest windows (rijndael, smooth) are left out: a
// fault that hangs them runs to the 3x watchdog, and the few such faults
// a seed draws moved the whole pass's throughput by up to 20% from seed
// to seed.
func cpuCampaignSpec(small bool) sweepWorkload {
	grid := sweep.Spec{
		ISAs:             isaNames,
		Workloads:        []string{"sha", "crc32"},
		Targets:          []string{"prf", "l1i", "l1d", "lq", "sq"},
		Models:           []string{"transient", "stuck-at-1"},
		Faults:           24,
		ValidOnly:        true,
		EarlyTermination: true,
		LadderRungs:      8,
		Workers:          sweepWorkers,
		CellParallel:     1,
	}
	if small {
		grid.ISAs, grid.Workloads, grid.Targets, grid.Faults = []string{"riscv"}, []string{"sha"}, []string{"prf", "l1d"}, 2
	}
	warm := grid
	warm.Targets, warm.Models, warm.Faults = []string{"prf"}, []string{"transient"}, 1
	return sweepWorkload{grid: grid, warm: warm, journal: true, layer: "campaign",
		checkGoldens: func(b *bench, cache sweep.GoldenCache) int {
			n := 0
			for _, a := range grid.ISAs {
				for _, k := range grid.Workloads {
					key := sweep.CPUGoldenKey(a, k, config.TableII())
					g, _, err := cache.CPUGolden(key, func() (*sweep.CPUGolden, error) {
						return nil, fmt.Errorf("golden %s was not prepared in set-up", key)
					})
					b.attempted++
					n++
					w, werr := workloads.ByName(k)
					switch {
					case err != nil:
						b.fail("%v", err)
					case werr != nil:
						b.fail("%v", werr)
					case !bytes.Equal(g.Golden.Info.Output, w.Ref()):
						b.fail("golden %s output differs from the reference", key)
					}
				}
			}
			return n
		}}
}

func accelCampaignSpec(small bool) sweepWorkload {
	grid := sweep.Spec{
		Designs:      accelDesigns,
		Models:       []string{"transient", "stuck-at-1"},
		Faults:       48,
		LadderRungs:  8,
		Workers:      sweepWorkers,
		CellParallel: 1,
	}
	if small {
		grid.Designs, grid.Faults = []string{"gemm"}, 2
	}
	warm := grid
	warm.Models, warm.Faults = []string{"transient"}, 1
	return sweepWorkload{grid: grid, warm: warm, layer: "accel",
		checkGoldens: func(b *bench, cache sweep.GoldenCache) int {
			for _, d := range grid.Designs {
				key := sweep.AccelGoldenKey(d)
				g, _, err := cache.AccelGolden(key, func() (*sweep.AccelGolden, error) {
					return nil, fmt.Errorf("golden %s was not prepared in set-up", key)
				})
				b.attempted++
				switch {
				case err != nil:
					b.fail("%v", err)
				case !bytes.Equal(g.Golden.Output, g.Spec.Ref()):
					b.fail("golden %s output differs from machsuite reference", key)
				}
			}
			return len(grid.Designs)
		}}
}

func specParams(name string, w sweepWorkload) string {
	g := w.grid
	return fmt.Sprintf("%s isas=%v workloads=%v targets=%v designs=%v models=%v faults=%d validonly=%v earlyterm=%v ladder=%d workers=%d cellpar=%d journal=%v",
		name, g.ISAs, g.Workloads, g.Targets, g.Designs, g.Models, g.Faults, g.ValidOnly, g.EarlyTermination,
		g.LadderRungs, g.Workers, g.CellParallel, w.journal)
}

func cpuCampaignParams(small bool) string {
	return specParams("cpu-campaign", cpuCampaignSpec(small))
}

func accelCampaignParams(small bool) string {
	return specParams("accel-campaign", accelCampaignSpec(small))
}

func runCPUCampaign(b *bench) error   { return runSweepWorkload(b, cpuCampaignSpec(b.small)) }
func runAccelCampaign(b *bench) error { return runSweepWorkload(b, accelCampaignSpec(b.small)) }

// campaignPhases are the profiler phases a campaign's workers spend their
// time in once goldens and ladders exist.
var campaignPhases = []obs.Phase{obs.PhaseFork, obs.PhaseReset, obs.PhaseReplay, obs.PhaseFaulty, obs.PhaseClassify}

func runSweepWorkload(b *bench, w sweepWorkload) error {
	var (
		cache   sweep.GoldenCache
		warmRes *sweep.Result
		// setupProf attributes the last set-up's golden and ladder phases
		// on traced runs.
		setupProf *obs.Profiler
	)
	setup, err := timedSetup(7, func() error {
		cache = sweep.NewRunCache()
		spec := w.warm
		spec.Seed = b.seed
		spec.Goldens = cache
		if b.trace {
			setupProf = obs.NewProfiler()
			spec.Profile = setupProf
		}
		var err error
		warmRes, err = sweep.Run(spec)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	goldens := w.checkGoldens(b, cache)

	lat := &latencies{}
	var last *sweep.Result
	pass := func(p int, prof *obs.Profiler) passOut {
		spec := w.grid
		spec.Seed = b.seed
		spec.Goldens = cache
		spec.Profile = prof
		timer := newCellTimer(lat)
		spec.OnProgress = func(s sweep.Snapshot) { timer.observe(s.CellsStarted, s.CellsFinished, s.LastCell) }
		if w.journal {
			dir, err := os.MkdirTemp(b.tmp, "journal-")
			if err != nil {
				b.fail("journal dir: %v", err)
				return passOut{}
			}
			defer os.RemoveAll(dir)
			spec.OutDir = dir
		}
		watch := startWatch()
		res, err := sweep.Run(spec)
		window, cpu := watch.stop()
		if err != nil {
			b.attempted++
			b.fail("pass %d: %v", p, err)
			return passOut{window: window, cpu: cpu}
		}
		last = res
		var digests strings.Builder
		for _, c := range res.Cells {
			b.attempted += c.Faults
			if c.Faults != spec.Faults {
				b.fail("cell %s classified %d faults, want %d", c.Key, c.Faults, spec.Faults)
			}
			digests.WriteString(c.Key + "=" + c.Digest + ";")
		}
		// High-water state: every golden and ladder in the cache, plus the
		// pass's result.
		heap := liveHeapMB()
		return passOut{digest: fnvHex(digests.String()), runs: int(res.Counters.FaultsDone), window: window, cpu: cpu, heapMB: heap}
	}

	m, err := measure(b, pass)
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("no pass completed")
	}
	c := last.Counters
	faults := float64(c.FaultsDone)
	b.say("faults_per_cpu_s=%.3f (classified injections per host CPU second) over %d faults in %d cells per pass; per pass: forks=%d fork_reuses=%d rung_hits=%d replayed_cycles=%d (simulated) early_stops=%d",
		m.rate, c.FaultsDone, len(last.Cells), c.Forks, c.ForkReuses, c.RungHits, c.ReplayedCycles, c.EarlyStops)
	b.say("setup_s=%.4f (host CPU s to prepare %d goldens and their ladders, median of 7)", setup, goldens)
	if !b.trace {
		lat.report(b, "campaign cells (one job = one cell)", m, setup)
		return nil
	}

	// Per-layer attribution of the traced pass.
	l := w.layer
	b.set(l+".reuse_ratio", float64(c.ForkReuses)/faults)
	if l == "campaign" {
		b.set("campaign.golden_s", setupProf.PhaseSeconds(obs.PhaseGolden))
		b.set("campaign.ladder_s", setupProf.PhaseSeconds(obs.PhaseLadder))
		b.set("campaign.rung_hit_ratio", float64(c.RungHits)/faults)
		b.set("campaign.replayed_cycles_per_fault", float64(c.ReplayedCycles)/faults)
		b.set("campaign.early_stop_ratio", float64(c.EarlyStops)/faults)
	}
	busy := m.prof.PhaseSeconds(obs.PhaseJournal)
	for _, ph := range campaignPhases {
		s := m.prof.PhaseSeconds(ph)
		b.set(l+"."+ph.String()+"_s", s)
		busy += s
	}
	hits := warmRes.Counters.GoldenHits + c.GoldenHits
	b.set("sweep.golden_hit_ratio", float64(hits)/float64(hits+warmRes.Counters.GoldenRuns+c.GoldenRuns))
	b.set("sweep.journal_s", m.prof.PhaseSeconds(obs.PhaseJournal))
	// Worker-seconds of the pass that no campaign phase or journal append
	// accounts for: cell scheduling, golden-cache lookups, mask planning.
	b.set("sweep.orchestration_s", max(0, m.window.Seconds()*float64(w.grid.Workers)-busy))
	return nil
}

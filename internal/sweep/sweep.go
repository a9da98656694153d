// Package sweep is the figure-scale campaign orchestrator: it takes a
// grid specification (ISAs × workloads × targets × models on the CPU
// side, designs × components on the accelerator side), plans the
// cross-product of cells, and executes it with two-level parallelism
// under one global worker budget. The expensive shared prefix of every
// cell — the compiled program image and the golden (fault-free) run with
// its checkpoint snapshot and commit trace — is memoized per
// (ISA, workload, preset) and reused by all campaigns that share it,
// which is what dominates short campaigns run one process at a time.
//
// Results stream to a JSONL file with a manifest so an interrupted sweep
// resumes by skipping completed cells, and a Progress callback surfaces
// live counters (cells and faults done, golden-cache hits, fork reuse,
// throughput and ETA) for the CLI to render. Every cell's verdicts are
// bit-identical to a standalone campaign.Run / accel.RunCampaign with
// the same seed: golden reuse changes where the reference comes from,
// never what the injection phase computes.
package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/obs"
	"marvel/internal/workloads"
)

// Spec describes a sweep grid. The CPU grid is the cross-product
// ISAs × Workloads × Targets × Models; the accelerator grid is
// Designs × Components × Models. Either side may be empty.
type Spec struct {
	// CPU grid.
	ISAs      []string // e.g. ["arm", "x86", "riscv"]
	Workloads []string // nil = all fifteen
	Targets   []string // each "prf" or a multi-structure combo "prf+rob+iq"
	// Accelerator grid.
	Designs    []string // MachSuite design names
	Components []string // nil = every Table IV component of each design

	Models []string // fault model names; nil = ["transient"]

	Faults int // statistical sample size per cell
	Seed   int64
	// TargetMargin, Confidence, MinFaults and MaxFaults are every cell's
	// adaptive sizing rule, documented on dispatch.Sizing (see
	// Spec.Sizing). The journal records each adaptive cell's achieved N,
	// so a resumed sweep replays exactly.
	TargetMargin float64
	Confidence   float64
	MinFaults    int
	MaxFaults    int
	// BitsPerFault > 1 selects multi-bit masks (CPU cells).
	BitsPerFault int
	// ValidOnly draws CPU faults over live entries only.
	ValidOnly bool
	// HVF additionally classifies every CPU run at the commit stage.
	HVF bool
	// EarlyTermination enables the §IV-B campaign optimizations.
	EarlyTermination bool
	// WatchdogFactor bounds faulty runs at factor × golden cycles; 0
	// keeps each engine's default.
	WatchdogFactor float64
	// PhysRegs overrides the physical register file size; 0 keeps 128.
	PhysRegs int
	// Preset selects the hardware configuration for CPU cells: "" or
	// "table2" is the paper's Table II; "fast" is the scaled-down test
	// preset (small caches).
	Preset string
	// LadderRungs is every cell's checkpoint ladder depth
	// (dispatch.Sizing). Verdicts and digests are bit-identical for every
	// value, so the resume journal deliberately excludes it from the grid
	// identity — a resumed sweep may change ladder depth.
	LadderRungs int

	// Workers is the global worker budget shared by all concurrently
	// executing cells; 0 = GOMAXPROCS.
	Workers int
	// CellParallel bounds how many cells run concurrently; 0 picks
	// min(3, number of cells). Each running cell gets
	// max(1, Workers/CellParallel) campaign workers.
	CellParallel int

	// OutDir, when non-empty, persists the sweep: a manifest.json
	// recording the grid and a cells.jsonl appended one line per
	// finished cell. Re-running the same Spec against the same OutDir
	// resumes: completed cells are loaded, not re-executed.
	OutDir string

	// OnProgress, when non-nil, observes live counters. It is called
	// from worker goroutines (serialized by the orchestrator) on cell
	// start/finish and on every classified fault; it must be fast and
	// must not block. Never serialized, like every field below it: a
	// Spec's JSON encoding is the grid alone.
	OnProgress func(Snapshot) `json:"-"`

	// OnVerdict, when non-nil, observes every classified fault of every
	// executed cell together with the cell it belongs to and its mask
	// index (the campaign service streams these to watchers). It is
	// called concurrently from campaign workers and must be safe for
	// that; it must not block. Cells restored from the resume journal do
	// not replay verdicts.
	OnVerdict func(cell Cell, index int, v classify.Verdict) `json:"-"`

	// Goldens, when non-nil, replaces the sweep's per-run golden memo
	// with an external cache, letting several sweeps (the campaign
	// service's jobs) share prepared goldens. A nil Goldens keeps the
	// default: a cache that lives and dies with this Run call.
	Goldens GoldenCache `json:"-"`

	// Metrics, when non-nil, receives live counter updates (verdict mix,
	// fork reuse, golden-cache hits, per-cell latency) as the sweep runs —
	// the registry behind the CLI's -debug-addr endpoint. Updates are
	// lock-free atomic adds, so attaching a registry does not serialize
	// workers.
	Metrics *obs.Registry `json:"-"`

	// Profile, when non-nil, attributes wall-clock time to phases
	// (golden prep, ladder, fork/reset/replay/faulty/classify inside
	// each cell's campaign, journal appends) on per-worker timeline
	// lanes, and optionally streams Chrome trace events (the CLI's
	// -timeline flag). Purely observational: verdicts and digests are
	// bit-identical with profiling on or off. Excluded from the resume
	// manifest's grid identity.
	Profile *obs.Profiler `json:"-"`
}

// Cell kinds.
const (
	KindCPU   = "cpu"
	KindAccel = "accel"
)

// Cell is one planned campaign of the sweep.
type Cell struct {
	Kind string `json:"kind"`

	// CPU cells.
	ISA      string `json:"isa,omitempty"`
	Workload string `json:"workload,omitempty"`
	Target   string `json:"target,omitempty"` // may be "prf+rob+iq"

	// Accelerator cells.
	Design    string `json:"design,omitempty"`
	Component string `json:"component,omitempty"`

	Model string `json:"model"`
}

// Key is the cell's stable identity inside one sweep: the resume journal
// matches completed cells by it.
func (c Cell) Key() string {
	if c.Kind == KindAccel {
		return fmt.Sprintf("accel/%s/%s/%s", c.Design, c.Component, c.Model)
	}
	return fmt.Sprintf("cpu/%s/%s/%s/%s", c.ISA, c.Workload, c.Target, c.Model)
}

// CellReport is the persisted outcome of one cell — the JSONL line.
type CellReport struct {
	Key  string `json:"key"`
	Cell Cell   `json:"cell"`

	// Faults is the achieved sample size: under adaptive sizing this is
	// where the campaign stopped, and what a resume replays.
	Faults     int `json:"faults"`
	Masked     int `json:"masked"`
	SDC        int `json:"sdc"`
	Crash      int `json:"crash"`
	EarlyStops int `json:"earlyStops,omitempty"`
	// Requested is the cell's fault budget; Requested - Faults is the
	// adaptive saving (also recorded as FaultsSaved for aggregation).
	Requested   int `json:"requested,omitempty"`
	FaultsSaved int `json:"faultsSaved,omitempty"`
	Batches     int `json:"batches,omitempty"`

	AVF      float64 `json:"avf"`
	SDCAVF   float64 `json:"sdcAvf"`
	CrashAVF float64 `json:"crashAvf"`
	// HVF is present only when the campaign measured it; an absent HVF
	// means "not measured", never "measured 0.0".
	HVFMeasured bool     `json:"hvfMeasured"`
	HVF         *float64 `json:"hvf,omitempty"`
	Margin      float64  `json:"margin"`
	// Z is the confidence quantile Margin and AchievedMargin were computed
	// at; AchievedMargin is the Wilson half-width on the measured AVF.
	Z              float64 `json:"z,omitempty"`
	AchievedMargin float64 `json:"achievedMargin,omitempty"`

	GoldenCycles uint64 `json:"goldenCycles"`
	TargetBits   uint64 `json:"targetBits"`

	// Digest is an FNV-1a fingerprint of the full verdict stream in mask
	// order; the differential suite compares it against standalone runs.
	Digest string `json:"digest"`

	WallMS int64 `json:"wallMs"`

	// Forking holds the cell's fork, reuse and ladder counters. It is not
	// journaled, so a cell restored on resume reports zeros.
	Forking dispatch.ForkStats `json:"-"`
}

// Counters aggregates orchestration-level observability for one sweep.
type Counters struct {
	CellsPlanned  int
	CellsExecuted int
	// CellsSkipped were loaded complete from the resume journal.
	CellsSkipped int

	// GoldenRuns counts golden-phase executions (cache misses);
	// GoldenHits counts cells served by an already-prepared golden.
	GoldenRuns int
	GoldenHits int

	FaultsDone int64
	// FaultsSaved totals the budgeted injections adaptive cells stopped
	// short of running (including journal-restored cells).
	FaultsSaved int64
	EarlyStops  int64
	// Forks and ForkReuses count the faulty runs that forked a scratch
	// system or reset one; Pruned counts the faults exact pruning decided
	// without a run. Over the cells executed, the three add up to their
	// faults.
	Forks      uint64
	ForkReuses uint64
	Pruned     uint64
	// RungHits counts faulty runs dispatched from a mid-window checkpoint
	// rung; ReplayedCycles totals the pre-injection cycles replayed between
	// fork points and injection cycles (the cost the ladder shrinks).
	RungHits       uint64
	ReplayedCycles uint64
}

// Result is a completed sweep.
type Result struct {
	// Cells holds one report per planned cell, in plan order, including
	// cells restored from the resume journal.
	Cells    []CellReport
	Counters Counters
	Elapsed  time.Duration
}

// Plan expands and validates the grid. Every name is resolved before any
// simulation starts so a typo fails the whole sweep in milliseconds, and
// the cell order is deterministic (CPU cells first, workload-major).
func Plan(spec Spec) ([]Cell, error) {
	models := spec.Models
	if len(models) == 0 {
		models = []string{core.Transient.String()}
	}
	// Canonical names ("" plans as "transient"), so a cell's key does not
	// depend on how the caller spelled the default model.
	models = append([]string(nil), models...)
	for i, m := range models {
		model, err := core.ModelByName(m)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		models[i] = model.String()
	}

	var cells []Cell
	if len(spec.ISAs) > 0 || len(spec.Workloads) > 0 || len(spec.Targets) > 0 {
		if len(spec.ISAs) == 0 || len(spec.Targets) == 0 {
			return nil, fmt.Errorf("sweep: a CPU grid needs at least one ISA and one target")
		}
		wls := spec.Workloads
		if len(wls) == 0 {
			wls = workloads.Names()
		}
		for _, a := range spec.ISAs {
			if _, err := isa.ByName(a); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
		}
		for _, w := range wls {
			if _, err := workloads.ByName(w); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
		}
		for _, tgt := range spec.Targets {
			if _, err := splitTarget(tgt); err != nil {
				return nil, err
			}
		}
		for _, w := range wls {
			for _, a := range spec.ISAs {
				for _, tgt := range spec.Targets {
					for _, m := range models {
						cells = append(cells, Cell{Kind: KindCPU, ISA: a, Workload: w, Target: tgt, Model: m})
					}
				}
			}
		}
	}

	if len(spec.Designs) > 0 {
		for _, d := range spec.Designs {
			ms, err := machsuite.ByName(d)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			comps := spec.Components
			if len(comps) == 0 {
				for _, c := range ms.Targets {
					comps = append(comps, c.Name)
				}
			} else {
				for _, want := range comps {
					found := false
					for _, c := range ms.Targets {
						if c.Name == want {
							found = true
							break
						}
					}
					if !found {
						return nil, fmt.Errorf("sweep: design %q has no component %q", d, want)
					}
				}
			}
			for _, comp := range comps {
				for _, m := range models {
					cells = append(cells, Cell{Kind: KindAccel, Design: d, Component: comp, Model: m})
				}
			}
		}
	} else if len(spec.Components) > 0 {
		return nil, fmt.Errorf("sweep: components given without designs")
	}

	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if seen[c.Key()] {
			return nil, fmt.Errorf("sweep: duplicate cell %s", c.Key())
		}
		seen[c.Key()] = true
	}
	return cells, nil
}

// splitTarget parses a CPU target spec into its structure list,
// validating every name against campaign.CPUTargets and rejecting
// duplicates. A single-structure spec returns a one-element list.
func splitTarget(tgt string) ([]string, error) {
	parts := strings.Split(tgt, "+")
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("sweep: empty structure in target %q", tgt)
		}
		known := false
		for _, k := range campaign.CPUTargets {
			if p == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("sweep: unknown CPU target %q (of %q); known: %s",
				p, tgt, strings.Join(campaign.CPUTargets, ", "))
		}
		if seen[p] {
			return nil, fmt.Errorf("sweep: duplicate structure %q in target %q", p, tgt)
		}
		seen[p] = true
	}
	return parts, nil
}

// PresetFor resolves a CPU hardware preset name ("" or "table2" is the
// paper's Table II, "fast" the scaled-down test preset) and applies a
// PhysRegs override when physRegs > 0.
func PresetFor(name string, physRegs int) (config.Preset, error) {
	var pre config.Preset
	switch name {
	case "", "table2":
		pre = config.TableII()
	case "fast":
		pre = config.Fast()
	default:
		return config.Preset{}, fmt.Errorf("sweep: unknown preset %q (known: table2, fast)", name)
	}
	if physRegs > 0 {
		pre = pre.WithPhysRegs(physRegs)
	}
	return pre, nil
}

// Validate checks the whole spec without running anything: it plans the
// grid (resolving every name), applies the engines' shared sizing rule
// and resolves the hardware preset. Run performs exactly these checks.
func (spec Spec) Validate() error {
	_, _, err := spec.resolve()
	return err
}

// resolve is Validate returning the planned cells and the CPU preset.
func (spec Spec) resolve() ([]Cell, config.Preset, error) {
	cells, err := Plan(spec)
	if err != nil {
		return nil, config.Preset{}, err
	}
	if err := spec.Sizing().Validate(); err != nil {
		return nil, config.Preset{}, fmt.Errorf("sweep: %w", err)
	}
	pre, err := PresetFor(spec.Preset, spec.PhysRegs)
	if err != nil {
		return nil, config.Preset{}, err
	}
	return cells, pre, nil
}

// Run plans and executes the sweep.
func Run(spec Spec) (_ *Result, err error) {
	cells, pre, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if spec.Workers <= 0 {
		spec.Workers = runtime.GOMAXPROCS(0)
	}
	if spec.CellParallel <= 0 {
		spec.CellParallel = 3
	}
	if spec.CellParallel > len(cells) {
		spec.CellParallel = len(cells)
	}
	perCell := spec.Workers / spec.CellParallel
	if perCell < 1 {
		perCell = 1
	}

	// Resume: load completed cells from the journal before executing.
	var journal *journalWriter
	done := map[string]CellReport{}
	if spec.OutDir != "" {
		journal, done, err = openJournal(spec.OutDir, spec, cells)
		if err != nil {
			return nil, err
		}
		// A failed close loses the buffered journal tail and silently
		// voids resume; surface it unless a run error already won.
		defer func() {
			if cerr := journal.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("sweep: closing journal: %w", cerr)
			}
		}()
	}

	// Per-cell budget: the adaptive cap when one is set, else the fixed
	// sample size. TotalFaults is an upper bound once cells stop early.
	cellBudget := spec.Sizing().Budget()

	start := time.Now() //marvel:allow determinism progress/ETA wall-clock; verdict streams and digests never see it
	tr := newTracker(spec.OnProgress, spec.Metrics, len(cells), int64(cellBudget)*int64(len(cells)), start)
	res := &Result{Cells: make([]CellReport, len(cells))}
	res.Counters.CellsPlanned = len(cells)

	goldens := spec.Goldens
	if goldens == nil {
		goldens = NewRunCache()
	}

	var mu sync.Mutex // guards res.Counters and the journal
	var jlane *obs.Lane
	if spec.Profile != nil && journal != nil {
		jlane = spec.Profile.NewLane("journal")
	}
	var firstErr error
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < spec.CellParallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				cell := cells[i]
				key := cell.Key()
				if rep, ok := done[key]; ok {
					res.Cells[i] = rep
					mu.Lock()
					res.Counters.CellsSkipped++
					res.Counters.FaultsSaved += int64(rep.FaultsSaved)
					mu.Unlock()
					tr.cellSkipped(key, int64(rep.Faults), int64(rep.FaultsSaved))
					continue
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					continue // drain the queue after a failure
				}
				tr.cellStarted(key)
				rep, hit, err := runCell(spec, pre, cell, perCell, goldens, tr)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("sweep: cell %s: %w", key, err)
					}
					mu.Unlock()
					continue
				}
				res.Cells[i] = *rep
				res.Counters.CellsExecuted++
				if hit {
					res.Counters.GoldenHits++
				} else {
					res.Counters.GoldenRuns++
				}
				res.Counters.EarlyStops += int64(rep.EarlyStops)
				res.Counters.FaultsSaved += int64(rep.FaultsSaved)
				fc := rep.Forking
				res.Counters.Forks += fc.Forks
				res.Counters.ForkReuses += fc.ReuseHits
				res.Counters.Pruned += fc.Pruned
				res.Counters.RungHits += fc.RungHits
				res.Counters.ReplayedCycles += fc.ReplayedCycles
				if spec.Metrics != nil {
					if hit {
						spec.Metrics.GoldenHits.Inc()
					} else {
						spec.Metrics.GoldenRuns.Inc()
					}
					spec.Metrics.AddForkStats(fc.Forks, fc.ReuseHits)
					spec.Metrics.Pruned.Add(fc.Pruned)
					spec.Metrics.AddLadderStats(fc.RungHits, fc.ReplayedCycles)
					spec.Metrics.CellLatencyMS.Observe(uint64(rep.WallMS))
				}
				var jerr error
				if journal != nil {
					// Appends are serialized by mu, so one shared journal
					// lane never sees overlapping spans.
					jsp := jlane.BeginID(obs.PhaseJournal, int64(i))
					jerr = journal.Append(*rep)
					jsp.End()
				}
				if jerr != nil && firstErr == nil {
					firstErr = jerr
				}
				mu.Unlock()
				tr.cellFinished(key, int64(rep.FaultsSaved))
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Counters.FaultsDone = tr.faultsDone()
	res.Elapsed = time.Since(start) //marvel:allow determinism elapsed wall-clock is reporting metadata only
	if journal != nil {
		if err := journal.WriteManifestDone(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Sizing is the grid's sampling rule, the one value every cell's engine
// config is built from. Workers is the grid-wide budget; each running
// cell gets its share of it (see Run).
func (spec Spec) Sizing() dispatch.Sizing {
	return dispatch.Sizing{
		Faults:       spec.Faults,
		TargetMargin: spec.TargetMargin,
		Confidence:   spec.Confidence,
		MinFaults:    spec.MinFaults,
		MaxFaults:    spec.MaxFaults,
		LadderRungs:  spec.LadderRungs,
		Workers:      spec.Workers,
	}
}

// cellRun is one planned cell translated for its engine: the config and
// the golden it runs against. Only the pair of the cell's kind is set.
type cellRun struct {
	cpu         campaign.Config
	cpuGolden   *campaign.Golden
	accel       accel.CampaignConfig
	accelGolden *accel.CampaignGolden
}

// translate is the one path from a grid cell to an engine: it resolves
// the cell's golden through goldens (hit reports a cache hit) and builds
// the engine config from the spec, with workers as the cell's share of
// the worker budget. runCell and Explain both run what it returns.
func (spec Spec) translate(pre config.Preset, cell Cell, workers int, goldens GoldenCache) (cellRun, bool, error) {
	var c cellRun
	model, err := core.ModelByName(cell.Model)
	if err != nil {
		return c, false, err
	}
	sz := spec.Sizing()
	sz.Workers = workers
	// Cache misses pay the golden build; attribute it on its own lane, as
	// concurrent cells may miss simultaneously.
	goldenSpan := func() obs.Span { return spec.Profile.NewLane("golden").Begin(obs.PhaseGolden) }
	switch cell.Kind {
	case KindCPU:
		targets, err := splitTarget(cell.Target)
		if err != nil {
			return c, false, err
		}
		g, hit, err := goldens.CPUGolden(CPUGoldenKey(cell.ISA, cell.Workload, pre), func() (*CPUGolden, error) {
			defer goldenSpan().End()
			return BuildCPUGolden(cell.ISA, cell.Workload, pre)
		})
		if err != nil {
			return c, false, err
		}
		c.cpu = campaign.Config{
			Image:            g.Image,
			Preset:           pre,
			Model:            model,
			BitsPerFault:     spec.BitsPerFault,
			Seed:             spec.Seed,
			Sizing:           sz,
			HVF:              spec.HVF,
			EarlyTermination: spec.EarlyTermination,
			WatchdogFactor:   spec.WatchdogFactor,
			Profile:          spec.Profile,
		}
		if spec.ValidOnly {
			c.cpu.Domain = core.DomainValidOnly
		}
		if len(targets) > 1 {
			c.cpu.MultiTargets = targets
		} else {
			c.cpu.Target = targets[0]
		}
		c.cpuGolden = g.Golden
		return c, hit, nil

	case KindAccel:
		g, hit, err := goldens.AccelGolden(AccelGoldenKey(cell.Design), func() (*AccelGolden, error) {
			defer goldenSpan().End()
			return BuildAccelGolden(cell.Design)
		})
		if err != nil {
			return c, false, err
		}
		c.accel = accel.CampaignConfig{
			Design:         g.Spec.Design,
			Task:           g.Spec.Task,
			Target:         cell.Component,
			Model:          model,
			Seed:           spec.Seed,
			Sizing:         sz,
			WatchdogFactor: spec.WatchdogFactor,
			Profile:        spec.Profile,
		}
		c.accelGolden = g.Golden
		return c, hit, nil
	}
	return c, false, fmt.Errorf("sweep: unknown cell kind %q", cell.Kind)
}

// runCell executes one cell, preparing (or reusing) its golden phase.
// hit reports whether the golden came from the cache.
func runCell(spec Spec, pre config.Preset, cell Cell, workers int,
	goldens GoldenCache, tr *tracker) (rep *CellReport, hit bool, err error) {

	t0 := time.Now() //marvel:allow determinism per-cell wall attribution; never enters the cell's verdicts
	onVerdict := tr.onVerdict
	if spec.OnVerdict != nil {
		cb, c := spec.OnVerdict, cell
		onVerdict = func(i int, v classify.Verdict) {
			tr.onVerdict(i, v)
			cb(c, i, v)
		}
	}
	c, hit, err := spec.translate(pre, cell, workers, goldens)
	if err != nil {
		return nil, false, err
	}
	if cell.Kind == KindCPU {
		c.cpu.OnVerdict = onVerdict
		res, err := campaign.RunWithGolden(c.cpu, c.cpuGolden)
		if err != nil {
			return nil, false, err
		}
		return cellReport(cell, res.Summary, res.Golden.Cycles, res.TargetBits, DigestCPURecords(res.Records), t0), hit, nil
	}
	c.accel.OnVerdict = onVerdict
	res, err := accel.RunCampaignWithGolden(c.accel, c.accelGolden)
	if err != nil {
		return nil, false, err
	}
	return cellReport(cell, res.Summary, res.GoldenCycles, res.TargetBits, DigestAccelRecords(res.Records), t0), hit, nil
}

// cellReport converts one cell's campaign outcome — the dispatch kernel's
// summary (with its fork counters) plus the engine's golden length, target
// size and record digest — into the persisted form.
func cellReport(cell Cell, sum dispatch.Summary, goldenCycles, targetBits uint64, digest string, t0 time.Time) *CellReport {
	r := &CellReport{
		Key:            cell.Key(),
		Cell:           cell,
		Faults:         sum.Counts.Total(),
		Masked:         sum.Counts.Masked,
		SDC:            sum.Counts.SDC,
		Crash:          sum.Counts.Crash,
		EarlyStops:     sum.Counts.EarlyStops,
		AVF:            sum.Counts.AVF(),
		SDCAVF:         sum.Counts.SDCAVF(),
		CrashAVF:       sum.Counts.CrashAVF(),
		Margin:         sum.Margin,
		Z:              sum.Z,
		AchievedMargin: sum.AchievedMargin,
		Requested:      sum.Requested,
		FaultsSaved:    sum.FaultsSaved,
		Batches:        sum.Batches,
		GoldenCycles:   goldenCycles,
		TargetBits:     targetBits,
		Digest:         digest,
		WallMS:         time.Since(t0).Milliseconds(), //marvel:allow determinism wall attribution metadata
		Forking:        sum.Forking,
	}
	if sum.Counts.HVFMeasured() {
		r.HVFMeasured = true
		h := sum.Counts.HVF()
		r.HVF = &h
	}
	return r
}

// SortedKeys returns the plan keys in deterministic order (debugging and
// manifest readability).
func SortedKeys(cells []Cell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	return keys
}

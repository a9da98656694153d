// Package marvel is a Go reproduction of gem5-MARVEL (HPCA 2024), the
// first consolidated microarchitecture-level fault-injection framework for
// heterogeneous SoCs. The library bundles, all built from scratch:
//
//   - a cycle-level out-of-order CPU model executing three simplified
//     64-bit ISAs (Arm-, x86- and RISC-V-flavoured) through real caches,
//     with decode running on raw instruction bytes;
//   - a gem5-SALAM-style accelerator engine (dataflow kernels over
//     scratchpads, register banks, MMRs, DMA, interrupts) plus the eight
//     MachSuite designs of the paper's Table IV;
//   - the fifteen MiBench-style workloads of the paper's figures, compiled
//     per ISA through a small IR toolchain;
//   - the MARVEL fault framework itself: transient and permanent fault
//     models, statistical mask generation, parallel campaign execution
//     with checkpoint forking and early termination, Masked/SDC/Crash and
//     HVF classification, and AVF/wAVF/HVF/OPF metrics.
//
// This root package is the stable facade: examples, tools and downstream
// users drive campaigns through it without touching internal packages.
// Every campaign entry point runs through the sweep orchestrator's Run:
// RunSweep passes its grid straight on, and RunCampaign/RunAccelCampaign
// run the one-cell grid their options translate to (CampaignOptions.Sweep,
// AccelOptions.Sweep) — the same grid the campaign service executes for a
// submitted job, so offline and served campaigns share one code path.
package marvel

import (
	"fmt"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/metrics"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// Supported ISA names.
const (
	ISAArm   = "arm"
	ISAX86   = "x86"
	ISARiscv = "riscv"
)

// ISAs returns the ISA names in the paper's figure order.
func ISAs() []string { return []string{ISAArm, ISAX86, ISARiscv} }

// FaultModel selects the injected fault type (the paper's Table III).
type FaultModel string

// Fault models.
const (
	Transient FaultModel = "transient"
	StuckAt0  FaultModel = "stuck-at-0"
	StuckAt1  FaultModel = "stuck-at-1"
)

// WorkloadNames lists the fifteen MiBench-style benchmarks.
func WorkloadNames() []string { return workloads.Names() }

// DesignNames lists the eight MachSuite accelerator designs.
func DesignNames() []string {
	var out []string
	for _, s := range machsuite.All() {
		out = append(out, s.Name)
	}
	return out
}

// CPUTargets lists the CPU-side injection targets.
func CPUTargets() []string { return append([]string(nil), campaign.CPUTargets...) }

// Component describes one accelerator injection target (Table IV).
type Component struct {
	Design     string
	Name       string
	PaperBytes int
	ModelBytes int
	Kind       string // "SPM" or "RegBank"
}

// TableIV returns the accelerator component inventory of the paper's
// Table IV.
func TableIV() []Component {
	var out []Component
	for _, c := range machsuite.TableIV() {
		out = append(out, Component{
			Design:     c.Design,
			Name:       c.Name,
			PaperBytes: c.PaperBytes,
			ModelBytes: c.ModelBytes,
			Kind:       c.Kind.String(),
		})
	}
	return out
}

// CampaignOptions configures a CPU fault-injection campaign.
type CampaignOptions struct {
	ISA      string // "arm", "x86", "riscv"
	Workload string // one of WorkloadNames()
	// Target is one of CPUTargets(), or a "+"-joined combination of them
	// ("prf+rob+iq") selecting the paper's multi-structure mode: every
	// mask then carries one fault in each listed structure.
	Target string
	Model  FaultModel
	Faults int // statistical sample size (paper default: 1000)
	Seed   int64

	// Adaptive confidence-targeted sizing: TargetMargin > 0 stops the
	// campaign once the Wilson half-width on the AVF reaches it, making
	// Faults (or MaxFaults, when > 0) an upper bound; the executed records
	// are bit-identical to the first N of the fixed-budget run. Confidence
	// is the z quantile (0 = 1.96); MinFaults floors the sample.
	TargetMargin float64
	Confidence   float64
	MinFaults    int
	MaxFaults    int

	// BitsPerFault > 1 selects multi-bit masks (spatial multi-fault
	// mode); 0 or 1 is the single-bit default.
	BitsPerFault int
	// ValidOnly draws faults over live entries only.
	ValidOnly bool
	// HVF additionally classifies every run at the commit stage.
	HVF bool
	// EarlyTermination enables the §IV-B campaign optimizations.
	EarlyTermination bool
	// WatchdogFactor bounds faulty runs at factor × golden cycles
	// (expiry classifies as Crash); values <= 1 keep the default of 3.
	WatchdogFactor float64
	// PhysRegs overrides the physical register file size (Figure 15);
	// 0 keeps the Table II value of 128.
	PhysRegs int
	// Workers bounds campaign parallelism; 0 = GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
	// LadderRungs snapshots the golden run at this many evenly spaced
	// cycles inside the injection window and forks each transient run from
	// the nearest rung before its injection cycle, replaying only the
	// residual prefix. 0 keeps the single window-start checkpoint; results
	// are bit-identical for every value.
	LadderRungs int
	// Preset selects the hardware configuration: "" or "table2" is the
	// paper's Table II; "fast" is the scaled-down test preset.
	Preset string
	// Metrics, when non-nil, receives live verdict-mix and fork counters
	// as the campaign runs (the registry behind the CLI's -debug-addr
	// endpoint). Never serialized: a campaign submitted to the job
	// service gets a per-job registry from the server instead.
	Metrics *obs.Registry `json:"-"`
	// Profile, when non-nil, attributes the campaign's wall-clock to
	// phases and per-worker lanes (the CLI's -timeline flag attaches a
	// Chrome trace-event sink to it). Purely observational: verdicts are
	// bit-identical with and without it. Never serialized; a campaign
	// submitted to the job service gets a per-job profiler instead.
	Profile *obs.Profiler `json:"-"`
}

// Sweep translates the options into the one-cell sweep grid that runs
// them. It is the only path from campaign options to an engine:
// RunCampaign and the campaign service both execute this grid.
func (o CampaignOptions) Sweep() SweepOptions {
	return SweepOptions{
		ISAs:             []string{o.ISA},
		Workloads:        []string{o.Workload},
		Targets:          []string{o.Target},
		Models:           []string{string(o.Model)},
		Faults:           o.Faults,
		Seed:             o.Seed,
		TargetMargin:     o.TargetMargin,
		Confidence:       o.Confidence,
		MinFaults:        o.MinFaults,
		MaxFaults:        o.MaxFaults,
		BitsPerFault:     o.BitsPerFault,
		ValidOnly:        o.ValidOnly,
		HVF:              o.HVF,
		EarlyTermination: o.EarlyTermination,
		WatchdogFactor:   o.WatchdogFactor,
		PhysRegs:         o.PhysRegs,
		Preset:           o.Preset,
		LadderRungs:      o.LadderRungs,
		Workers:          o.Workers,
		CellParallel:     1,
		Metrics:          o.Metrics,
		Profile:          o.Profile,
	}
}

// Validate resolves every name and checks the sizing knobs without
// running anything: the CLI fails fast with a usage error and the
// campaign service rejects a bad submission with 400 before it ever
// reaches the queue.
func (o CampaignOptions) Validate() error { return o.Sweep().Validate() }

// Report is the outcome of a CPU campaign.
type Report struct {
	Workload string
	ISA      string
	Target   string
	Model    FaultModel

	Faults int
	Masked int
	SDC    int
	Crash  int

	AVF      float64
	SDCAVF   float64
	CrashAVF float64
	// HVF is meaningful only when HVFMeasured is true; a campaign run
	// without the commit-stage analysis reports HVFMeasured == false and
	// HVF == 0, which is "not measured", not "measured 0.0".
	HVF         float64
	HVFMeasured bool
	// Margin is the population error margin at the achieved sample size;
	// Z is the confidence quantile it (and AchievedMargin, the Wilson
	// half-width on the measured AVF) was computed at.
	Margin         float64
	Z              float64
	AchievedMargin float64
	// Requested is the fault budget; under adaptive sizing FaultsSaved =
	// Requested - Faults injections were never run, across Batches
	// dispatch batches.
	Requested   int
	FaultsSaved int
	Batches     int

	GoldenCycles uint64
	GoldenInsts  uint64
	IPC          float64
	EarlyStops   int

	// Forking stats: how the faulty runs were set up. With CoW forking
	// Forks is one per active worker and ForkReuses covers the rest of the
	// masks.
	Forks        uint64
	ForkReuses   uint64
	PagesCopied  uint64
	SetsRestored uint64
	// Pruned counts faults whose verdict exact pruning proved without a
	// faulty run (the golden's own verdict); they fork nothing. On the CPU
	// these are stuck-at faults whose bit held its stuck value at every
	// port that read it.
	Pruned uint64
	// Checkpoint-ladder stats (see CampaignOptions.LadderRungs): Rungs is
	// how many mid-window rungs were available, RungHits how many runs
	// forked from one, ReplayedCycles the total pre-injection cycles
	// replayed between fork points and injection cycles.
	Rungs          int
	RungHits       uint64
	ReplayedCycles uint64
}

// RunCampaign executes one CPU fault-injection campaign as a one-cell
// sweep grid (see CampaignOptions.Sweep).
func RunCampaign(o CampaignOptions) (*Report, error) {
	goldens := sweep.NewRunCache()
	c, err := runCell(o.Sweep(), goldens)
	if err != nil {
		return nil, err
	}
	pre, err := sweep.PresetFor(o.Preset, o.PhysRegs)
	if err != nil {
		return nil, err
	}
	g, _, err := goldens.CPUGolden(sweep.CPUGoldenKey(o.ISA, o.Workload, pre), cached[*sweep.CPUGolden])
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Workload:       o.Workload,
		ISA:            o.ISA,
		Target:         c.Cell.Target,
		Model:          o.Model,
		Faults:         c.Faults,
		Masked:         c.Masked,
		SDC:            c.SDC,
		Crash:          c.Crash,
		AVF:            c.AVF,
		SDCAVF:         c.SDCAVF,
		CrashAVF:       c.CrashAVF,
		HVFMeasured:    c.HVFMeasured,
		Margin:         c.Margin,
		Z:              c.Z,
		AchievedMargin: c.AchievedMargin,
		Requested:      c.Requested,
		FaultsSaved:    c.FaultsSaved,
		Batches:        c.Batches,
		GoldenCycles:   c.GoldenCycles,
		GoldenInsts:    g.Golden.Info.Insts,
		IPC:            g.Golden.Info.Stats.IPC(),
		EarlyStops:     c.EarlyStops,
		Forks:          c.Forking.Forks,
		ForkReuses:     c.Forking.ReuseHits,
		PagesCopied:    c.Forking.PagesCopied,
		SetsRestored:   c.Forking.CacheSetsRestored,
		Pruned:         c.Forking.Pruned,
		Rungs:          c.Forking.Rungs,
		RungHits:       c.Forking.RungHits,
		ReplayedCycles: c.Forking.ReplayedCycles,
	}
	if c.HVF != nil {
		rep.HVF = *c.HVF
	}
	return rep, nil
}

// runCell runs a one-cell grid against a golden cache scoped to the
// caller, who reads the cell's golden back from it afterwards.
func runCell(spec SweepOptions, goldens sweep.GoldenCache) (*SweepCell, error) {
	spec.Goldens = goldens
	res, err := sweep.Run(spec)
	if err != nil {
		return nil, err
	}
	return &res.Cells[0], nil
}

// cached is the build function for reading back a golden the finished
// run already put in its cache.
func cached[T any]() (T, error) {
	var zero T
	return zero, fmt.Errorf("marvel: golden missing from the run cache")
}

// AccelOptions configures an accelerator fault-injection campaign.
type AccelOptions struct {
	Design    string // one of DesignNames()
	Component string // one of the design's Table IV components
	Model     FaultModel
	Faults    int
	Seed      int64
	// Adaptive confidence-targeted sizing, as in CampaignOptions:
	// TargetMargin > 0 stops the campaign once the Wilson half-width on
	// the AVF reaches it; Confidence is the z quantile (0 = 1.96);
	// MinFaults floors the sample; MaxFaults, when > 0, caps the budget
	// instead of Faults.
	TargetMargin float64
	Confidence   float64
	MinFaults    int
	MaxFaults    int
	// GemmMultipliers overrides the gemm datapath's multiplier count
	// (the Figure 17 design-space exploration); 0 keeps the default. It
	// must be non-negative, and non-zero only on design gemm.
	GemmMultipliers int
	// Workers bounds campaign parallelism; 0 = GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
	// LadderRungs snapshots the fault-free task at this many evenly spaced
	// cycles inside the injection window and forks each transient run from
	// the nearest rung strictly before its injection cycle, and each fault
	// exact pruning saw first read later, stuck-ats included, from the
	// nearest rung strictly before that read. 0 keeps the single pristine
	// checkpoint; results are bit-identical for every value.
	LadderRungs int
	// Metrics, when non-nil, receives live verdict-mix and fork counters
	// as the campaign runs (the registry behind the CLI's -debug-addr
	// endpoint). Never serialized; see CampaignOptions.Metrics.
	Metrics *obs.Registry `json:"-"`
	// Profile attributes wall-clock to phases and per-worker lanes; see
	// CampaignOptions.Profile. Never serialized.
	Profile *obs.Profiler `json:"-"`
}

// Sweep translates the options into the one-cell sweep grid that runs
// them; see CampaignOptions.Sweep. GemmMultipliers is not part of the
// grid: RunAccelCampaign applies it through the grid's golden cache.
func (o AccelOptions) Sweep() SweepOptions {
	return SweepOptions{
		Designs:      []string{o.Design},
		Components:   []string{o.Component},
		Models:       []string{string(o.Model)},
		Faults:       o.Faults,
		Seed:         o.Seed,
		TargetMargin: o.TargetMargin,
		Confidence:   o.Confidence,
		MinFaults:    o.MinFaults,
		MaxFaults:    o.MaxFaults,
		LadderRungs:  o.LadderRungs,
		Workers:      o.Workers,
		CellParallel: 1,
		Metrics:      o.Metrics,
		Profile:      o.Profile,
	}
}

// Validate resolves every name in the options without running anything.
func (o AccelOptions) Validate() error {
	if err := o.validateGemm(); err != nil {
		return err
	}
	return o.Sweep().Validate()
}

// validateGemm rejects a GemmMultipliers override the campaign could not
// apply: a negative count, or any count on a design other than gemm.
func (o AccelOptions) validateGemm() error {
	switch {
	case o.GemmMultipliers < 0:
		return fmt.Errorf("accel: gemm multipliers must be non-negative, got %d", o.GemmMultipliers)
	case o.GemmMultipliers > 0 && o.Design != "gemm":
		return fmt.Errorf("accel: gemm multipliers apply only to design gemm, not %q", o.Design)
	}
	return nil
}

// AccelReport is the outcome of an accelerator campaign.
type AccelReport struct {
	Design    string
	Component string
	Faults    int
	Masked    int
	SDC       int
	Crash     int
	AVF       float64
	SDCAVF    float64
	CrashAVF  float64
	// Margin is the population error margin at the achieved sample size,
	// at quantile Z; AchievedMargin is the Wilson half-width on the
	// measured AVF. Requested/FaultsSaved/Batches mirror Report.
	Margin         float64
	Z              float64
	AchievedMargin float64
	Requested      int
	FaultsSaved    int
	Batches        int

	TaskCycles uint64
	AreaUnits  float64

	// Forking stats: how the faulty harnesses were set up. With fork/reset
	// reuse Forks is one per active worker and ForkReuses covers the rest
	// of the masks.
	Forks       uint64
	ForkReuses  uint64
	PagesCopied uint64
	// Pruned counts faults whose verdict exact pruning proved without a
	// faulty run (the golden's own verdict): stuck-at bits every read of
	// the golden run returned at their stuck value, and transient flips
	// overwritten or never read after they land. They fork nothing.
	Pruned uint64
	// Checkpoint-ladder stats (see AccelOptions.LadderRungs).
	Rungs          int
	RungHits       uint64
	ReplayedCycles uint64
}

// RunAccelCampaign executes one accelerator fault-injection campaign as
// a one-cell sweep grid (see AccelOptions.Sweep). A GemmMultipliers
// override seeds the grid's golden cache with that gemm variant, so the
// cell injects into the variant's datapath.
func RunAccelCampaign(o AccelOptions) (*AccelReport, error) {
	if err := o.validateGemm(); err != nil {
		return nil, err
	}
	goldens := sweep.NewRunCache()
	key := sweep.AccelGoldenKey(o.Design)
	if o.GemmMultipliers > 0 {
		if _, _, err := goldens.AccelGolden(key, func() (*sweep.AccelGolden, error) {
			return gemmGolden(o.GemmMultipliers, o.Profile)
		}); err != nil {
			return nil, err
		}
	}
	c, err := runCell(o.Sweep(), goldens)
	if err != nil {
		return nil, err
	}
	g, _, err := goldens.AccelGolden(key, cached[*sweep.AccelGolden])
	if err != nil {
		return nil, err
	}
	return &AccelReport{
		Design:         o.Design,
		Component:      o.Component,
		Faults:         c.Faults,
		Masked:         c.Masked,
		SDC:            c.SDC,
		Crash:          c.Crash,
		AVF:            c.AVF,
		SDCAVF:         c.SDCAVF,
		CrashAVF:       c.CrashAVF,
		Margin:         c.Margin,
		Z:              c.Z,
		AchievedMargin: c.AchievedMargin,
		Requested:      c.Requested,
		FaultsSaved:    c.FaultsSaved,
		Batches:        c.Batches,
		TaskCycles:     c.GoldenCycles,
		AreaUnits:      accel.AreaUnits(g.Spec.Design),
		Forks:          c.Forking.Forks,
		ForkReuses:     c.Forking.ReuseHits,
		PagesCopied:    c.Forking.PagesCopied,
		Pruned:         c.Forking.Pruned,
		Rungs:          c.Forking.Rungs,
		RungHits:       c.Forking.RungHits,
		ReplayedCycles: c.Forking.ReplayedCycles,
	}, nil
}

// gemmGolden prepares the golden of the gemm design with the given
// multiplier count (the Figure 17 design-space exploration).
func gemmGolden(multipliers int, prof *obs.Profiler) (*sweep.AccelGolden, error) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		return nil, err
	}
	spec.Design, spec.Task = machsuite.GemmDesign(multipliers), machsuite.GemmTask()
	sp := prof.NewLane("golden").Begin(obs.PhaseGolden)
	golden, err := accel.PrepareGolden(spec.Design, spec.Task)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &sweep.AccelGolden{Spec: spec, Golden: golden}, nil
}

// SweepOptions configures a figure-scale campaign sweep: the cross-product
// of a CPU grid (ISAs × Workloads × Targets × Models) and/or an
// accelerator grid (Designs × Components × Models), executed with
// two-level parallelism and a shared golden cache. See RunSweep.
type SweepOptions = sweep.Spec

// SweepProgress is a point-in-time view of a running sweep.
type SweepProgress = sweep.Snapshot

// SweepCell is one completed cell of a sweep.
type SweepCell = sweep.CellReport

// SweepReport is the outcome of a sweep: one cell per planned cell in
// plan order, plus orchestration counters.
type SweepReport = sweep.Result

// RunSweep plans and executes a campaign sweep. The expensive shared
// prefix of every cell — compiled image plus golden run — is memoized per
// (ISA, workload, preset) and reused across campaigns; every cell's
// verdicts are nevertheless bit-identical to a standalone RunCampaign /
// RunAccelCampaign with the same seed.
func RunSweep(o SweepOptions) (*SweepReport, error) { return sweep.Run(o) }

// GoldenReport summarizes a fault-free workload run.
type GoldenReport struct {
	Workload string
	ISA      string
	Cycles   uint64
	Insts    uint64
	IPC      float64
	CodeSize int
	Ops      float64
}

// RunGolden executes a workload without faults, for performance studies.
func RunGolden(isaName, workload string) (*GoldenReport, error) {
	a, err := isa.ByName(isaName)
	if err != nil {
		return nil, err
	}
	spec, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		return nil, err
	}
	pre := config.TableII()
	sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
	if err != nil {
		return nil, err
	}
	res := sys.Run(500_000_000)
	if res.Status != soc.RunCompleted {
		return nil, fmt.Errorf("marvel: golden run %v (trap %v)", res.Status, res.Trap)
	}
	return &GoldenReport{
		Workload: workload,
		ISA:      isaName,
		Cycles:   res.Cycles,
		Insts:    res.Stats.Insts,
		IPC:      res.Stats.IPC(),
		CodeSize: len(img.Code),
		Ops:      spec.Ops,
	}, nil
}

// SoCReport summarizes a heterogeneous CPU+accelerator run.
type SoCReport struct {
	ISA         string
	Design      string
	IntCtrl     string // "gic" or "plic"
	SoCCycles   uint64
	AccelCycles uint64
	CPUInsts    uint64
	OutputOK    bool
}

// RunSoC drives an accelerator design from a CPU program over MMRs, DMA
// and the completion interrupt — the full heterogeneous flow of Figure 1.
func RunSoC(isaName, design string) (*SoCReport, error) {
	a, err := isa.ByName(isaName)
	if err != nil {
		return nil, err
	}
	spec, err := machsuite.ByName(design)
	if err != nil {
		return nil, err
	}
	task := soc.RelocateTask(spec.Task)
	prog, err := soc.DriverProgram(task)
	if err != nil {
		return nil, err
	}
	img, err := program.Compile(a, prog)
	if err != nil {
		return nil, err
	}
	pre := config.TableII()
	sys, err := soc.New(img, pre.CPU, pre.Hier, pre.MemLatency)
	if err != nil {
		return nil, err
	}
	cl, err := accel.NewCluster(spec.Design, accel.MemHostPort{Mem: sys.Mem})
	if err != nil {
		return nil, err
	}
	if err := sys.AttachCluster(cl); err != nil {
		return nil, err
	}
	res := sys.Run(100_000_000)
	if res.Status != soc.RunCompleted {
		return nil, fmt.Errorf("marvel: SoC run %v (trap %v)", res.Status, res.Trap)
	}
	want := spec.Ref()
	ok := len(res.Output) == len(want)
	if ok {
		for i := range want {
			if res.Output[i] != want[i] {
				ok = false
				break
			}
		}
	}
	return &SoCReport{
		ISA:         isaName,
		Design:      design,
		IntCtrl:     sys.IntCtrl.Name(),
		SoCCycles:   res.Cycles,
		AccelCycles: cl.TaskCycles(),
		CPUInsts:    res.Stats.Insts,
		OutputOK:    ok,
	}, nil
}

// WeightedAVF aggregates per-benchmark AVFs weighted by execution time
// (the paper's §V-A wAVF).
func WeightedAVF(reports []*Report) float64 {
	avfs := make([]float64, len(reports))
	ts := make([]float64, len(reports))
	for i, r := range reports {
		avfs[i] = r.AVF
		ts[i] = float64(r.GoldenCycles)
	}
	return metrics.WeightedAVF(avfs, ts)
}

// WeightedSDCAVF aggregates the SDC component of the AVF the same way.
func WeightedSDCAVF(reports []*Report) float64 {
	avfs := make([]float64, len(reports))
	ts := make([]float64, len(reports))
	for i, r := range reports {
		avfs[i] = r.SDCAVF
		ts[i] = float64(r.GoldenCycles)
	}
	return metrics.WeightedAVF(avfs, ts)
}

// ClockHz is the modeled SoC clock for OPS/OPF computations.
const ClockHz = 1e9

// OPF computes the Operations-per-Failure metric of §V-G. A campaign
// that observed zero failures has no finite OPF: measured reports false
// and the value is 0 ("no failure observed over this sample"), keeping
// +Inf out of JSON-encoded reports.
func OPF(ops float64, cycles uint64, avf float64) (opf float64, measured bool) {
	return metrics.OPF(ops, cycles, ClockHz, avf)
}

// OPS computes operations per second at the modeled clock.
func OPS(ops float64, cycles uint64) float64 {
	return metrics.OPS(ops, cycles, ClockHz)
}

// SampleSize returns the Leveugle et al. statistical sample size for a
// structure of populationBits at error margin e and 95% confidence.
func SampleSize(populationBits uint64, e float64) int {
	return core.SampleSize(populationBits, e, 1.96)
}

package accel

import (
	"bytes"
	"fmt"
	"slices"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/obs"
)

// CampaignConfig drives a statistical fault-injection campaign against one
// accelerator memory component (the Figure 14/17 experiments).
type CampaignConfig struct {
	Design *Design
	Task   Task
	Target string // bank name
	Model  core.Model
	Seed   int64
	// Sizing is the sampling rule, as in campaign.Config. Ladder rungs
	// stop strictly before a cycle, since flips apply inside Tick, before
	// its accesses. A stuck-at forks from the pristine base, since stuck
	// bits must corrupt DMA-in too, and a transient from the rung before
	// its injection, unless the pruning pass saw the fault first read
	// later: then it forks from the latest rung strictly before the tick
	// of that read.
	dispatch.Sizing
	// WatchdogFactor bounds faulty tasks at factor × golden cycles;
	// values <= 1 keep the default of 4.
	WatchdogFactor float64
	// WindowOverride, when non-zero, draws injection cycles from
	// [1, WindowOverride] instead of the task's own duration. Design-space
	// sweeps use the slowest configuration's window so every design sees
	// the same fault population (the paper's same-masks comparability
	// requirement); faults landing after a faster design completes are
	// architecturally masked.
	WindowOverride uint64
	// OnVerdict, when non-nil, observes every classified fault as it
	// completes (sweep progress reporting). It may be called concurrently
	// from several workers; the index is the fault index. It must not
	// block.
	OnVerdict func(index int, v classify.Verdict)
	// Trace, when non-nil, receives fault-lifecycle events from every
	// faulty run. With Workers > 1 the sink must be safe for concurrent
	// Emit calls and events from different runs interleave; single-run
	// narration (ExplainWithGolden) arms its own sink. Tracing does not change
	// verdicts — emission sites only observe. A traced campaign simulates
	// every fault: exact pruning is off.
	Trace obs.Tracer
	// Profile, when non-nil, attributes wall-clock time to campaign
	// phases (golden/ladder prep, fork, reset, residual replay, faulty
	// execution, classify) on per-worker timeline lanes. Profiling only
	// observes — the tick sequence and verdicts are bit-identical with
	// it on or off.
	Profile *obs.Profiler
}

// CampaignGolden bundles the fault-free phase of an accelerator campaign:
// the golden task execution results and the pristine harness faulty runs
// fork from. It depends only on (Design, Task) — never on the target
// component, model or seed — so one CampaignGolden backs every component
// campaign of a sweep over the same design. Immutable after
// PrepareGolden; safe for concurrent RunCampaignWithGolden calls.
type CampaignGolden struct {
	Cycles uint64
	Output []byte

	base *Standalone

	// ladders memoizes the checkpoint ladders built over base, one per
	// (rungs, window) pair: the injection window varies with
	// WindowOverride and rung placement follows it.
	ladders dispatch.LadderMemo[*Standalone]
}

// ladder describes the golden's checkpoint ladder over an injection
// window to the dispatch kernel: rung 0 is the pristine base (cycle 0),
// and the rungs are snapshots of one started fork that replays the
// fault-free task. The replay stops at task completion: faults drawn past
// it (WindowOverride beyond a fast design's duration) are architecturally
// masked and need no deeper rung.
func (g *CampaignGolden) ladder(window uint64) dispatch.Ladder[*Standalone] {
	return dispatch.Ladder[*Standalone]{
		Base: g.base,
		Hi:   window,
		Walk: func() (func(uint64) (uint64, bool), func() *Standalone) {
			w := g.base.Fork()
			w.Cluster.Start()
			return func(target uint64) (uint64, bool) {
				for !w.Cluster.Done() && w.Cluster.Cycle() < target {
					w.Cluster.Tick()
				}
				return w.Cluster.Cycle(), w.Cluster.Done()
			}, w.snapshot
		},
		Memo:           &g.ladders,
		StrictlyBefore: true,
	}
}

// PrepareGolden executes the fault-free accelerator task once and builds
// the pristine fork base.
func PrepareGolden(d *Design, task Task) (*CampaignGolden, error) {
	golden, err := NewStandalone(d, task)
	if err != nil {
		return nil, err
	}
	if err := golden.Run(50_000_000); err != nil {
		return nil, fmt.Errorf("accel: golden run: %w", err)
	}
	out, err := golden.Output()
	if err != nil {
		return nil, err
	}
	// base is the pristine harness faulty runs fork from: arguments bound,
	// DMA buffers staged in host memory, task not yet started. It plays
	// the role of the CPU campaign's checkpoint snapshot.
	base, err := NewStandalone(d, task)
	if err != nil {
		return nil, fmt.Errorf("accel: campaign base: %w", err)
	}
	return &CampaignGolden{Cycles: golden.Cluster.TaskCycles(), Output: out, base: base}, nil
}

// Record is the outcome of one accelerator fault injection.
type Record struct {
	Fault   core.Fault
	Verdict classify.Verdict
}

// CampaignResult aggregates one accelerator campaign.
type CampaignResult struct {
	Target       string
	GoldenCycles uint64
	GoldenOutput []byte
	TargetBits   uint64
	// Records holds the per-fault verdicts in mask order, independent of
	// the execution schedule.
	Records []Record
	dispatch.Summary
}

// RunCampaign executes the campaign. Accelerator tasks are short, so each
// faulty run re-executes the whole task with a flip scheduled at a random
// cycle of the task window — injections land during DMA-in, compute, or
// DMA-out, exactly the full-task window the paper's DSE insight relies on.
//
// The campaign parallelizes like the CPU side, through the same
// internal/dispatch kernel: mask coordinates are derived per index via the
// shared splitmix64 scheme in internal/core, masks fan out over the
// kernel's worker pool, and each worker forks the pristine golden harness
// once, rolling it back between masks. Every worker count produces the
// same Records, Counts and AVF.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	sp := cfg.Profile.NewLane("golden").Begin(obs.PhaseGolden)
	g, err := PrepareGolden(cfg.Design, cfg.Task)
	sp.End()
	if err != nil {
		return nil, err
	}
	return RunCampaignWithGolden(cfg, g)
}

// RunCampaignWithGolden executes the injection phase of an accelerator
// campaign against an already-prepared golden reference (the sweep
// orchestrator's golden cache). cfg.Design and cfg.Task must match the
// ones g was prepared with; results are bit-identical to RunCampaign with
// the same CampaignConfig.
func RunCampaignWithGolden(cfg CampaignConfig, g *CampaignGolden) (*CampaignResult, error) {
	if err := cfg.Sizing.Validate(); err != nil {
		return nil, fmt.Errorf("accel: %w", err)
	}
	budget := cfg.Budget()
	in, err := g.injection(cfg)
	if err != nil {
		return nil, err
	}

	// Derive the whole fault population up front: coordinates are a pure
	// function of (Seed, index), so this costs a few splitmix64 draws per
	// mask and lets the ladder sort dispatch order by injection cycle.
	faults := make([]core.Fault, budget)
	for i := range faults {
		faults[i] = in.fault(cfg, i)
	}

	verdicts, sum, err := dispatch.Run(g.plan(cfg, in, faults))
	if err != nil {
		return nil, err
	}

	res := &CampaignResult{
		Target:       cfg.Target,
		GoldenCycles: g.Cycles,
		GoldenOutput: g.Output,
		TargetBits:   in.bits,
		Records:      make([]Record, len(verdicts)),
		Summary:      sum,
	}
	for i, v := range verdicts {
		res.Records[i] = Record{Fault: faults[i], Verdict: v}
	}
	return res, nil
}

// plan is the dispatch kernel's plan for cfg's campaign on the target in
// resolves, whose fault i is faults[i].
func (g *CampaignGolden) plan(cfg CampaignConfig, in injection, faults []core.Fault) dispatch.Plan[*Standalone] {
	return dispatch.Plan[*Standalone]{
		Sizing: cfg.Sizing,
		Bits:   in.bits,
		Ladder: g.ladder(in.window),
		Inject: func(i int) (uint64, bool) { return faults[i].Cycle, !faults[i].Model.Permanent() },
		Run: func(s *Standalone, i int, lane *obs.Lane) (classify.Verdict, error) {
			return runFaulty(s, in.bankIdx, faults[i], in.cycleBudget, g.Output, cfg.Trace, lane, int64(i)), nil
		},
		Prune:     g.pruner(cfg, in, faults),
		OnVerdict: cfg.OnVerdict,
		Profile:   cfg.Profile,
	}
}

// pruner returns the kernel's exact pruning pass for an untraced
// campaign, or nil. The pass runs the golden task on the kernel's fork of
// its start rung (rung 0, before DMA-in, when the faults are stuck-at;
// the latest rung strictly before the earliest injection when they are
// transient) with a core.GoldenWatch armed on the target bank, until the
// task ends or no fault is pending. A fault the watch never saw read
// leaves the faulty run identical to the golden run:
//   - a stuck-at-v bit that every read of its byte returned as v changes
//     no value the run reads;
//   - a transient flip lands inside Cluster.Tick after the clock advances
//     and before that tick's DMA or engine accesses, so the first access
//     to its byte at its cycle or later is the first that can see it: an
//     overwrite erases the flip, and no access at all leaves it unseen.
//
// Such a fault gets the golden's verdict, Masked at g.Cycles. Every other
// fault reports the tick in which the watch saw it read, and the kernel
// forks it from the latest rung strictly before that tick. The faulty run
// from there is the full one:
//   - before that tick every golden read of a stuck-at-v byte returned v
//     at its bit, so the full run executes as the golden run does, and
//     the two differ only in the stuck bit, which Stick on the rung
//     forces;
//   - nothing accesses a transient's byte from its injection tick until
//     the read, so a flip applied at any tick in between, before that
//     tick's accesses, leaves the same byte for the read; a flip
//     scheduled on a rung past its cycle applies in the next tick.
//
// The watch lives for this one pass: nothing is kept on the shared golden.
func (g *CampaignGolden) pruner(cfg CampaignConfig, in injection, faults []core.Fault) func(*Standalone) (func(int) (classify.Verdict, uint64, bool), error) {
	if cfg.Trace != nil {
		return nil
	}
	return func(s *Standalone) (func(int) (classify.Verdict, uint64, bool), error) {
		w := core.NewGoldenWatch(faults, in.bits, s.Cluster.Cycle)
		s.Cluster.Banks()[in.bankIdx].Observe(w)
		if !s.Cluster.Started() {
			s.Cluster.Start()
		}
		for w.Pending() > 0 && !s.Cluster.Done() && s.Cluster.Cycle() < in.cycleBudget {
			s.Cluster.Tick()
		}
		golden := classify.Verdict{Outcome: classify.Masked, Cycles: g.Cycles}
		if w.Pending() > 0 {
			// The pass reached the end of the task: it must be the golden
			// run's end.
			if v := classifyFaulty(s, in.cycleBudget, g.Output); v != golden {
				return nil, fmt.Errorf("accel: golden observation run ends %v at cycle %d, the golden run Masked at %d", v.Outcome, v.Cycles, g.Cycles)
			}
		}
		// Keep only the tick each fault was read in, 0 when never (every
		// access lies inside a Tick, at clock 1 or later): the watch's
		// clock holds the pass's fork, which can then be freed.
		readAt := make([]uint64, len(faults))
		for i := range readAt {
			if w.State(i) == core.WatchRead {
				readAt[i] = max(w.SettledAt(i), 1)
			}
		}
		return func(i int) (classify.Verdict, uint64, bool) {
			if readAt[i] > 0 {
				return classify.Verdict{}, readAt[i], false
			}
			return golden, 0, true
		}, nil
	}
}

// injection is what every faulty run of one campaign shares: the target
// bank, its bit population, the window injection cycles are drawn from and
// the watchdog's cycle budget.
type injection struct {
	bankIdx     int
	bits        uint64
	window      uint64
	cycleBudget uint64
}

// injection resolves cfg's target and windows against the golden run.
func (g *CampaignGolden) injection(cfg CampaignConfig) (injection, error) {
	gb, err := g.base.Cluster.Bank(cfg.Target)
	if err != nil {
		return injection{}, err
	}
	in := injection{bankIdx: slices.Index(g.base.Cluster.Banks(), gb), bits: gb.BitLen(), window: g.Cycles}
	if cfg.WindowOverride > 0 {
		in.window = cfg.WindowOverride
	}
	factor := cfg.WatchdogFactor
	if factor <= 1 {
		factor = 4
	}
	in.cycleBudget = uint64(float64(g.Cycles)*factor) + 5000
	return in, nil
}

// fault derives campaign fault i. [1, window+1) reproduces the historical
// "window w" population bit for bit (see core.DeriveFault).
func (in injection) fault(cfg CampaignConfig, i int) core.Fault {
	return core.DeriveFault(cfg.Seed, i, cfg.Target, cfg.Model, in.bits, 1, in.window+1)
}

// runFaulty drives one faulty task on s — a pristine harness (a fresh
// build, a fresh fork, or a reset fork; all three are state-identical) —
// applies the fault, runs under the watchdog budget and classifies. When a
// tracer is armed the cluster reports flips and phase transitions and this
// driver brackets the run with arming and verdict events; a nil tracer
// costs one pointer store plus the cluster's per-site nil checks.
//
// lane/id, when profiling, attribute the pre-injection replay ticks and
// the remaining faulty ticks to separate spans. The replay segment is a
// plain split of the single tick loop — the conditions compose to
// exactly the original loop — so the tick sequence (and the verdict) is
// identical whether or not a lane is armed.
func runFaulty(s *Standalone, bankIdx int, f core.Fault, budget uint64, goldenOut []byte, tr obs.Tracer, lane *obs.Lane, id int64) classify.Verdict {
	s.Cluster.Trace = tr
	target := s.Cluster.Banks()[bankIdx].spec.Name
	if f.Model.Permanent() {
		// Stuck-at faults hold for the whole run: applied before Start so
		// they corrupt DMA-in writes too.
		s.Cluster.Banks()[bankIdx].Stick(f.Bit, f.Model.StuckBit())
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindFaultArmed, Target: target, Bit: f.Bit, Detail: f.Model.String()})
			tr.Emit(obs.Event{Kind: obs.KindStuckApplied, Target: target, Bit: f.Bit, Detail: "held for the whole task"})
		}
	} else {
		s.Cluster.ScheduleFlip(bankIdx, f.Bit, f.Cycle)
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindFaultArmed, Target: target, Bit: f.Bit, Detail: fmt.Sprintf("%s at cycle %d", f.Model, f.Cycle)})
		}
	}
	// A checkpoint-ladder restore resumes mid-task; Start would rewind the
	// phase machine to DMA-in and replay from scratch.
	if !s.Cluster.Started() {
		s.Cluster.Start()
	}
	if !f.Model.Permanent() && f.Cycle > 0 {
		// Residual pre-injection replay: ticks strictly before the one
		// that lands on f.Cycle (flips apply post-increment inside Tick,
		// so the injection tick itself counts as faulty execution).
		rsp := lane.BeginID(obs.PhaseReplay, id)
		for !s.Cluster.Done() && s.Cluster.Cycle() < budget && s.Cluster.Cycle()+1 < f.Cycle {
			s.Cluster.Tick()
		}
		rsp.End()
	}
	fsp := lane.BeginID(obs.PhaseFaulty, id)
	for !s.Cluster.Done() && s.Cluster.Cycle() < budget {
		s.Cluster.Tick()
	}
	fsp.End()
	csp := lane.BeginID(obs.PhaseClassify, id)
	v := classifyFaulty(s, budget, goldenOut)
	csp.End()
	if tr != nil {
		if v.CrashCode == classify.WatchdogCrashCode {
			tr.Emit(obs.Event{Cycle: s.Cluster.Cycle(), Kind: obs.KindWatchdog, Target: target, Detail: fmt.Sprintf("budget %d cycles exhausted", budget)})
		}
		tr.Emit(obs.Event{Cycle: v.Cycles, Kind: obs.KindVerdict, Target: target, Detail: v.Outcome.String()})
	}
	return v
}

// classifyFaulty maps the post-run cluster state to a verdict.
func classifyFaulty(s *Standalone, budget uint64, goldenOut []byte) classify.Verdict {
	switch {
	case !s.Cluster.Done():
		return classify.Verdict{Outcome: classify.Crash, CrashCode: classify.WatchdogCrashCode, Cycles: s.Cluster.Cycle()}
	case s.Cluster.Faulted() != nil:
		return classify.Verdict{Outcome: classify.Crash, CrashCode: "accel-fault", Cycles: s.Cluster.Cycle()}
	}
	out, err := s.Output()
	if err != nil || !bytes.Equal(out, goldenOut) {
		return classify.Verdict{Outcome: classify.SDC, Cycles: s.Cluster.Cycle()}
	}
	return classify.Verdict{Outcome: classify.Masked, Cycles: s.Cluster.Cycle()}
}

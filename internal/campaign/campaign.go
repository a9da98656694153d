// Package campaign is the statistical fault injection controller of
// Figure 2: it runs the fault-free (golden) simulation once, snapshots the
// system at the program's checkpoint directive, generates a statistical
// sample of fault masks, forks one faulty simulation per mask across
// parallel workers, classifies every outcome (Masked / SDC / Crash, plus
// the HVF Benign/Corruption view), and aggregates AVF, HVF and the
// campaign's statistical error margin.
package campaign

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/cpu"
	"marvel/internal/dispatch"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/trace"
)

// CPU target names accepted by TargetOf.
var CPUTargets = []string{"prf", "l1i", "l1d", "l2", "lq", "sq", "rob", "iq"}

// TargetOf resolves a CPU-side injection target by name on a system
// instance (each clone resolves its own).
func TargetOf(s *soc.System, name string) (core.Target, error) {
	switch name {
	case "prf":
		return s.CPU.PRF(), nil
	case "lq":
		return s.CPU.LQ(), nil
	case "sq":
		return s.CPU.SQ(), nil
	case "l1i":
		return s.Hier.L1I, nil
	case "l1d":
		return s.Hier.L1D, nil
	case "l2":
		return s.Hier.L2, nil
	case "rob":
		return s.CPU.ROBTarget(), nil
	case "iq":
		return s.CPU.IQTarget(), nil
	}
	return nil, fmt.Errorf("campaign: unknown CPU target %q", name)
}

// Config describes one campaign: one workload image, one hardware preset,
// one target structure, one fault model.
type Config struct {
	Image  *program.Image
	Preset config.Preset

	Target string
	// MultiTargets, when non-empty, selects the paper's multi-structure
	// mode: every mask carries one fault in each listed structure
	// (spatially distributed multi-fault injection). Target is ignored.
	MultiTargets []string
	Model        core.Model
	Faults       int
	// BitsPerFault > 1 selects multi-bit masks (spatial multi-fault mode).
	BitsPerFault int
	Seed         int64
	Domain       core.Domain

	// TargetMargin > 0 selects adaptive confidence-targeted sizing: masks
	// are dispatched in batches drawn from the same prefix-stable stream a
	// fixed-budget campaign uses, the Wilson half-width of the AVF
	// estimate is recomputed after every completed batch, and the campaign
	// stops as soon as it drops to TargetMargin — the record stream is
	// then an exact prefix of the fixed-budget run's (same masks, same
	// verdicts, same digests). 0 keeps the fixed Faults budget.
	TargetMargin float64
	// Confidence is the normal quantile z the campaign's margins are
	// computed at — both the adaptive stop decision and the reported
	// Margin; <= 0 keeps the default 1.96 (95%).
	Confidence float64
	// MinFaults floors the adaptive sample: the stop condition is not
	// evaluated before this many faults completed (tiny samples make the
	// Wilson interval wide, so the floor mostly guards against a
	// pathological TargetMargin near 1). 0 means no floor.
	MinFaults int
	// MaxFaults caps the adaptive sample; 0 means Faults is the cap.
	// Ignored when TargetMargin is 0.
	MaxFaults int

	Workers int
	// HVF enables commit-trace comparison alongside AVF classification
	// (same masks, same runs — the paper's combined mode).
	HVF bool
	// EarlyTermination enables the invalid-entry and
	// overwritten-before-read optimizations of §IV-B.
	EarlyTermination bool
	// WatchdogFactor bounds faulty runs at factor × golden cycles;
	// expiry classifies as Crash. Default 3.
	WatchdogFactor float64
	// LadderRungs selects the checkpoint ladder: besides the window-start
	// checkpoint, the golden system is snapshotted at LadderRungs evenly
	// spaced cycles inside the injection window, masks are dispatched in
	// rung order, and every faulty run forks from the latest rung at or
	// before its first transient's injection cycle — replaying only the
	// residual pre-injection cycles instead of the whole window prefix.
	// 0 keeps today's single window-start checkpoint. Verdicts (and their
	// digests) are bit-identical for every value: the golden prefix is
	// deterministic, so a rung restore reproduces exactly the state a
	// window-start fork reaches by simulation. Masks carrying a permanent
	// fault always fork from the window start, where stuck-at bits must be
	// applied.
	LadderRungs int
	// OnVerdict, when non-nil, observes every classified fault as it
	// completes (sweep progress reporting). It may be called concurrently
	// from several workers and must be safe for that; the index is the
	// mask index. It must not block: the campaign's workers stall while it
	// runs.
	OnVerdict func(index int, v classify.Verdict)
	// Trace, when non-nil, receives fault-lifecycle events from every
	// faulty run. With Workers > 1 the sink must be safe for concurrent
	// Emit calls and events from different runs interleave; single-run
	// narration (Explain) uses Workers = 1. Tracing never changes
	// verdicts: emission sites only observe (watches are pure observers
	// and the early-stop predicate keeps its polling cadence).
	Trace obs.Tracer
	// Profile, when non-nil, attributes wall-clock time to campaign
	// phases (golden and ladder prep, fork, reset, residual replay,
	// faulty execution, classify) on per-worker timeline lanes. Like
	// Trace, profiling only observes: span boundaries sit outside the
	// simulated work, so verdicts and their digests are bit-identical
	// with profiling on or off.
	Profile *obs.Profiler
}

// GoldenInfo describes the fault-free reference run.
type GoldenInfo struct {
	Cycles   uint64
	Insts    uint64
	WindowLo uint64
	WindowHi uint64
	Output   []byte
	Stats    cpu.Stats
}

// Record is the outcome of one fault injection.
type Record struct {
	Mask    core.Mask
	Verdict classify.Verdict
}

// Result aggregates one campaign: the executed records in mask order,
// plus the kernel's summary (counts, margins, sizing and fork stats; its
// Counts also fold the HVF view when Config.HVF is set).
type Result struct {
	Target     string
	Model      core.Model
	Golden     GoldenInfo
	TargetBits uint64
	Records    []Record
	dispatch.Summary
}

// Golden bundles everything the fault-free phase of a campaign produces:
// the reference info, the frozen checkpoint snapshot faulty runs fork
// from, and the golden commit trace for HVF analysis. A Golden depends
// only on (Image, Preset) — never on the target, model, seed or fault
// count — so one Golden can back every campaign of a sweep that shares
// the workload and hardware configuration. It is immutable after
// PrepareGolden returns and safe for concurrent use by any number of
// RunWithGolden calls: forks read the frozen snapshot, they never write
// it.
type Golden struct {
	Info GoldenInfo

	base          *soc.System
	trace         *trace.Golden
	commitsAtCkpt int

	// Checkpoint ladders, built lazily per requested depth and memoized
	// (one Golden may back concurrent campaigns with different
	// Config.LadderRungs). Guarded by mu; the rung snapshots themselves
	// are frozen once built and shared read-only by forks.
	mu      sync.Mutex
	ladders map[int][]rung
}

// rung is one checkpoint of the ladder: a frozen system snapshot taken at
// a cycle inside the injection window, plus the golden commit count at
// that point (the HVF comparator of a run forked here compares against
// the golden trace from commits onward).
type rung struct {
	sys     *soc.System
	cycle   uint64
	commits int
}

// ladder returns the checkpoint ladder for k mid-window rungs, building
// and memoizing it on first use. Rung 0 is always the window-start
// checkpoint; rungs 1..k are deep clones taken while replaying the
// fault-free window once, at evenly spaced target cycles. The golden
// prefix is deterministic, so a run forked from rung r is bit-identical to
// a window-start fork stepped to the same cycle; rungs record their
// actual snapshot cycle so selection stays sound even if a step advances
// the clock by more than one.
func (g *Golden) ladder(k int) []rung {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rs, ok := g.ladders[k]; ok {
		return rs
	}
	rungs := []rung{{sys: g.base, cycle: g.base.CPU.Cycle(), commits: g.commitsAtCkpt}}
	if k > 0 && g.Info.WindowHi > rungs[0].cycle {
		walker := g.base.Clone()
		commits := g.commitsAtCkpt
		walker.CPU.CommitHook = func(cpu.CommitRec) { commits++ }
		lo, hi := rungs[0].cycle, g.Info.WindowHi
		for i := 1; i <= k; i++ {
			target := lo + uint64(i)*(hi-lo)/uint64(k+1)
			if target <= rungs[len(rungs)-1].cycle {
				continue
			}
			walker.RunUntilCycle(target)
			if walker.CPU.Done() {
				break
			}
			// Clone nils every hook, so the snapshot carries no walker state.
			rungs = append(rungs, rung{sys: walker.Clone(), cycle: walker.CPU.Cycle(), commits: commits})
		}
	}
	if g.ladders == nil {
		g.ladders = map[int][]rung{}
	}
	g.ladders[k] = rungs
	return rungs
}

// rungFor returns the index of the deepest rung usable for mask: the
// latest rung at or before the mask's first transient injection cycle.
// Masks carrying any permanent fault pin to rung 0 — stuck-at bits must
// hold from the window start, exactly where a single-checkpoint campaign
// applies them.
func rungFor(rungs []rung, mask core.Mask) int {
	first, ok := firstTransientCycle(mask)
	if !ok {
		return 0
	}
	r := 0
	for i := 1; i < len(rungs); i++ {
		if rungs[i].cycle <= first {
			r = i
		}
	}
	return r
}

// firstTransientCycle returns the earliest transient injection cycle of
// the mask and whether the mask is purely transient (a permanent fault
// reports false: such masks never use a mid-window rung).
func firstTransientCycle(mask core.Mask) (uint64, bool) {
	first, has := uint64(0), false
	for _, f := range mask.Faults {
		if f.Model.Permanent() {
			return 0, false
		}
		if !has || f.Cycle < first {
			first, has = f.Cycle, true
		}
	}
	return first, has
}

// PrepareGolden executes the fault-free phase of a campaign: compile-time
// inputs only (Image, Preset) are read from cfg. The result can be fed to
// RunWithGolden any number of times, concurrently, with different
// targets, models, seeds and fault counts.
func PrepareGolden(cfg Config) (*Golden, error) {
	if cfg.Image == nil {
		return nil, fmt.Errorf("campaign: no workload image")
	}
	sp := cfg.Profile.NewLane("golden").Begin(obs.PhaseGolden)
	info, base, goldenTrace, commitsAtCkpt, err := runGolden(cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Golden{Info: *info, base: base, trace: goldenTrace, commitsAtCkpt: commitsAtCkpt}, nil
}

// Run executes a campaign: the golden phase followed by the injection
// phase.
func Run(cfg Config) (*Result, error) {
	g, err := PrepareGolden(cfg)
	if err != nil {
		return nil, err
	}
	return RunWithGolden(cfg, g)
}

// RunWithGolden executes the injection phase of a campaign against an
// already-prepared golden reference (the sweep orchestrator's golden
// cache). cfg.Image and cfg.Preset must match the ones g was prepared
// with; results are bit-identical to Run with the same Config.
func RunWithGolden(cfg Config, g *Golden) (*Result, error) {
	if err := dispatch.ValidateSizing(cfg.Faults, cfg.LadderRungs, cfg.TargetMargin, cfg.Confidence, cfg.MinFaults, cfg.MaxFaults); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.Image == nil {
		return nil, fmt.Errorf("campaign: no workload image")
	}
	if cfg.WatchdogFactor <= 1 {
		cfg.WatchdogFactor = 3
	}
	budget := dispatch.Budget(cfg.Faults, cfg.TargetMargin, cfg.MaxFaults)
	golden, base := &g.Info, g.base

	// Generate the whole budget up front: mask i depends only on (Seed, i,
	// target geometry), so the population is identical whether or not the
	// campaign later stops early.
	maskCfg := cfg
	maskCfg.Faults = budget
	masks, bits, err := buildMasks(maskCfg, base, golden)
	if err != nil {
		return nil, err
	}

	// The checkpoint ladder: rung 0 is the window-start checkpoint;
	// mid-window rungs (when enabled and the model has transients) let a
	// run fork closer to its injection cycle. rungOf[i] is the rung mask i
	// forks from, replay[i] the cycles it replays before its first flip.
	rungs := []rung{{sys: base, cycle: base.CPU.Cycle(), commits: g.commitsAtCkpt}}
	if cfg.LadderRungs > 0 && !cfg.Model.Permanent() {
		sp := cfg.Profile.NewLane("ladder").Begin(obs.PhaseLadder)
		rungs = g.ladder(cfg.LadderRungs)
		sp.End()
	}
	rungOf := make([]int, len(masks))
	replay := make([]uint64, len(masks))
	for i, m := range masks {
		r := rungFor(rungs, m)
		rungOf[i] = r
		if first, ok := firstTransientCycle(m); ok && first > rungs[r].cycle {
			replay[i] = first - rungs[r].cycle
		}
	}

	// Per-rung golden-trace views for the HVF comparator: a run forked at
	// rung r compares against the golden commits from that rung onward and
	// reports divergence indices offset back to the window-start view, so
	// DivergeCommit is identical whichever rung served the run.
	subTraces := make([]*trace.Golden, len(rungs))
	if cfg.HVF {
		for ri, r := range rungs {
			subTraces[ri] = g.trace.Slice(r.commits)
		}
	}
	armCycle := rungs[0].cycle

	verdicts, sum, err := dispatch.Run(dispatch.Plan[*soc.System]{
		N:            len(masks),
		Bits:         bits,
		Workers:      cfg.Workers,
		TargetMargin: cfg.TargetMargin,
		MinFaults:    cfg.MinFaults,
		Z:            dispatch.Quantile(cfg.Confidence),
		Rungs:        len(rungs) - 1,
		Fork:         func(r int) *soc.System { return rungs[r].sys.Fork() },
		RungOf:       rungOf,
		Replay:       replay,
		Run: func(s *soc.System, i int, lane *obs.Lane) (classify.Verdict, error) {
			r := rungOf[i]
			return runOne(cfg, s, golden, subTraces[r], rungs[r].commits-g.commitsAtCkpt, armCycle, masks[i], lane)
		},
		OnVerdict: cfg.OnVerdict,
		Profile:   cfg.Profile,
	})
	// A run that cannot even resolve its injection target is an
	// infrastructure failure, not a hardware fault effect: abort instead of
	// inflating the AVF with fake crashes.
	if err != nil {
		return nil, err
	}

	target := cfg.Target
	if len(cfg.MultiTargets) > 0 {
		target = strings.Join(cfg.MultiTargets, "+")
	}
	res := &Result{
		Target:     target,
		Model:      cfg.Model,
		Golden:     *golden,
		TargetBits: bits,
		Records:    make([]Record, len(verdicts)),
		Summary:    sum,
	}
	for i, v := range verdicts {
		res.Records[i] = Record{Mask: masks[i], Verdict: v}
		// The HVF view only exists when the commit-trace analysis ran;
		// folding it unconditionally would report HVF = 0.0 as if measured.
		if cfg.HVF {
			res.Counts.AddHVF(v)
		}
	}
	return res, nil
}

// runGolden performs the fault-free run, returning the reference info, the
// checkpoint snapshot faulty runs fork from, the golden commit trace, and
// the commit index at the checkpoint.
func runGolden(cfg Config) (*GoldenInfo, *soc.System, *trace.Golden, int, error) {
	sys, err := soc.New(cfg.Image, cfg.Preset.CPU, cfg.Preset.Hier, cfg.Preset.MemLatency)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	rec := trace.NewRecorder()
	hook := rec.Hook()
	sys.CPU.CommitHook = hook

	base := sys.Clone() // fallback snapshot at cycle 0
	commitsAtCkpt := 0
	sys.CheckpointHook = func(cycle uint64) {
		base = sys.Clone()
		commitsAtCkpt = rec.Len()
	}

	res := sys.Run(500_000_000)
	if res.Status != soc.RunCompleted {
		return nil, nil, nil, 0, fmt.Errorf("campaign: golden run %v (trap %v)", res.Status, res.Trap)
	}
	lo, hi, ok := sys.HasWindow()
	if !ok {
		lo, hi = 0, res.Cycles
	}
	g := &GoldenInfo{
		Cycles:   res.Cycles,
		Insts:    res.Stats.Insts,
		WindowLo: lo,
		WindowHi: hi,
		Output:   res.Output,
		Stats:    res.Stats,
	}
	return g, base, rec.Golden(), commitsAtCkpt, nil
}

// maskSpace resolves the campaign's fault population from cfg alone
// (plus the golden window): every listed structure (Target, or each of
// MultiTargets) with its bit count, the model, faults per structure and
// the injection window. It also returns the total injectable bits.
func maskSpace(cfg Config, base *soc.System, golden *GoldenInfo) (core.MaskSpace, uint64, error) {
	names := cfg.MultiTargets
	if len(names) == 0 {
		names = []string{cfg.Target}
	}
	sp := core.MaskSpace{Model: cfg.Model, BitsPer: cfg.BitsPerFault, WindowLo: golden.WindowLo, WindowHi: golden.WindowHi}
	var total uint64
	for _, name := range names {
		tgt, err := TargetOf(base, name)
		if err != nil {
			return core.MaskSpace{}, 0, err
		}
		sp.Targets = append(sp.Targets, core.Structure{Name: name, Bits: tgt.BitLen()})
		total += tgt.BitLen()
	}
	return sp, total, sp.Validate()
}

// buildMasks derives the campaign's cfg.Faults masks. Mask i is a pure
// function of (Seed, i, space) — core.MaskSpace.Mask — so the population
// is prefix-stable in the fault count and Explain derives any one mask in
// isolation.
func buildMasks(cfg Config, base *soc.System, golden *GoldenInfo) ([]core.Mask, uint64, error) {
	sp, bits, err := maskSpace(cfg, base, golden)
	if err != nil {
		return nil, 0, err
	}
	masks := make([]core.Mask, cfg.Faults)
	for i := range masks {
		masks[i] = sp.Mask(cfg.Seed, i)
	}
	return masks, bits, nil
}

// runOne drives one faulty simulation on s — a system already positioned
// at a checkpoint snapshot (a fresh clone, a fresh fork, or a reset
// scratch fork of any ladder rung; all are state-identical to a
// window-start fork simulated to the same cycle) — applies the mask, runs
// to completion (or early termination) and classifies. goldenTrace is the
// golden commit trace from the fork point onward and commitOffset the
// fork point's commit distance from the window-start checkpoint, so HVF
// divergence indices are reported in window-start coordinates regardless
// of which rung served the run; armCycle is the window-start checkpoint
// cycle, stamped on arming events so rung restores narrate identically.
//
// When cfg.Trace is armed, runOne additionally narrates the fault's
// lifecycle: arming, application, first corrupted read / overwrite death
// (by arming the §IV-B watch purely as an observer, even when early
// termination is off — all watch implementations are side-effect-free),
// squashes and store-forwards (via the CPU's tracer), first commit-stream
// divergence (by polling the HVF comparator inside the commit hook), the
// watchdog, and the verdict. None of this changes behavior: the early-stop
// predicate keeps its value and polling cadence, so traced runs classify
// bit-identically to untraced ones.
// lane, when non-nil, receives replay/faulty/classify spans for
// wall-clock attribution; a nil lane (profiling off) costs nothing.
func runOne(cfg Config, s *soc.System, golden *GoldenInfo, goldenTrace *trace.Golden, commitOffset int, armCycle uint64, mask core.Mask, lane *obs.Lane) (classify.Verdict, error) {
	tr := cfg.Trace
	targets := map[string]core.Target{}
	targetFor := func(name string) (core.Target, error) {
		if t, ok := targets[name]; ok {
			return t, nil
		}
		t, err := TargetOf(s, name)
		if err != nil {
			return nil, err
		}
		targets[name] = t
		return t, nil
	}
	primary := cfg.Target
	if len(cfg.MultiTargets) > 0 {
		primary = cfg.MultiTargets[0]
	}
	tgt, err := targetFor(primary)
	if err != nil {
		return classify.Verdict{}, err
	}

	var comp *trace.Comparator
	if cfg.HVF && goldenTrace != nil {
		comp = trace.NewComparator(goldenTrace)
		if tr == nil {
			s.CPU.CommitHook = comp.Hook()
		} else {
			// Wrap the comparator hook to catch the first divergence as it
			// happens (DivergePoint alone only tells us after the run).
			hook := comp.Hook()
			c := s.CPU
			diverged := false
			s.CPU.CommitHook = func(r cpu.CommitRec) {
				hook(r)
				if !diverged && comp.Corrupted() {
					diverged = true
					tr.Emit(obs.Event{Cycle: c.Cycle(), Kind: obs.KindDiverged, Commit: comp.DivergePoint() + commitOffset, Detail: "commit stream departs from golden trace"})
				}
			}
		}
	}

	budget := uint64(float64(golden.Cycles)*cfg.WatchdogFactor) + 20_000

	if tr != nil {
		// Arming is narrated at the window-start checkpoint cycle — the
		// campaign's logical arming point — so a run restored from a deeper
		// ladder rung emits the same event stream as a window-start fork.
		for _, f := range mask.Faults {
			detail := f.Model.String()
			if !f.Model.Permanent() {
				detail = fmt.Sprintf("%s at cycle %d", f.Model, f.Cycle)
			}
			tr.Emit(obs.Event{Cycle: armCycle, Kind: obs.KindFaultArmed, Target: f.Target, Bit: f.Bit, Detail: detail})
		}
	}

	// Permanent faults hold for the whole run: apply at the fork point.
	single := len(mask.Faults) == 1
	transients := make([]core.Fault, 0, len(mask.Faults))
	for _, f := range mask.Faults {
		if f.Model.Permanent() {
			ft, err := targetFor(f.Target)
			if err != nil {
				return classify.Verdict{}, err
			}
			ft.Stick(f.Bit, stuckVal(f.Model))
			if tr != nil {
				tr.Emit(obs.Event{Cycle: s.CPU.Cycle(), Kind: obs.KindStuckApplied, Target: f.Target, Bit: f.Bit, Detail: "held for the whole run"})
				s.CPU.Trace = tr
			}
		} else {
			transients = append(transients, f)
		}
	}
	sort.Slice(transients, func(i, j int) bool { return transients[i].Cycle < transients[j].Cycle })

	appliedBit := uint64(0)
	for _, f := range transients {
		sp := lane.BeginID(obs.PhaseReplay, int64(mask.ID))
		s.RunUntilCycle(f.Cycle)
		sp.End()
		if s.CPU.Done() {
			break
		}
		ft, err := targetFor(f.Target)
		if err != nil {
			return classify.Verdict{}, err
		}
		bit := f.Bit
		if cfg.Domain == core.DomainValidOnly && !ft.Live(bit) {
			bit = resampleLive(ft, f, cfg.Seed, mask.ID)
		}
		ft.Flip(bit)
		appliedBit = bit
		if tr != nil {
			detail := ""
			if bit != f.Bit {
				detail = fmt.Sprintf("resampled from dead bit %d (valid-only domain)", f.Bit)
			}
			tr.Emit(obs.Event{Cycle: s.CPU.Cycle(), Kind: obs.KindBitFlipped, Target: f.Target, Bit: bit, Detail: detail})
			// Arm the CPU's squash/forward narration only once corrupted
			// state exists — pre-injection pipeline noise is golden.
			s.CPU.Trace = tr
		}
	}

	earlyOK := cfg.EarlyTermination && single && !s.CPU.Done()
	// The watch is armed for narration even when early termination is off:
	// every Watch/WatchState implementation is a pure observer, so this
	// cannot perturb the run.
	traceWatch := tr != nil && single && len(transients) == 1 && !s.CPU.Done()
	if earlyOK && len(transients) == 1 {
		if !tgt.Live(appliedBit) {
			// Invalid or unused entry: provably masked (§IV-B).
			if tr != nil {
				tr.Emit(obs.Event{Cycle: s.CPU.Cycle(), Kind: obs.KindInvalidMasked, Target: primary, Bit: appliedBit, Detail: "fault landed in a dead or invalid entry"})
				tr.Emit(obs.Event{Cycle: s.CPU.Cycle(), Kind: obs.KindVerdict, Target: primary, Detail: classify.Masked.String()})
			}
			return classify.EarlyMasked(classify.MaskedInvalidEntry, s.CPU.Cycle()), nil
		}
		tgt.Watch(appliedBit)
	} else if traceWatch {
		tgt.Watch(appliedBit)
	}

	var stop func() bool
	every := uint64(128)
	if earlyOK && len(transients) == 1 {
		stop = func() bool { return tgt.WatchState() == core.WatchDead }
	}
	if traceWatch {
		// Observe watch-state transitions at the early-stop polling cadence.
		// The wrapper preserves the inner predicate's value exactly; when
		// early termination is off the predicate is always false, so a finer
		// cadence only tightens the event's cycle stamp.
		inner := stop
		if inner == nil {
			every = 1
		}
		prev := core.WatchPending
		c := s.CPU
		stop = func() bool {
			if st := tgt.WatchState(); st != prev {
				switch st {
				case core.WatchRead:
					tr.Emit(obs.Event{Cycle: c.Cycle(), Kind: obs.KindCorruptRead, Target: primary, Bit: appliedBit, Detail: "corrupted bit consumed"})
				case core.WatchDead:
					if prev == core.WatchPending {
						tr.Emit(obs.Event{Cycle: c.Cycle(), Kind: obs.KindOverwriteMasked, Target: primary, Bit: appliedBit, Detail: "corrupted bit overwritten or freed before any read"})
					}
				}
				prev = st
			}
			if inner != nil {
				return inner()
			}
			return false
		}
	}
	sp := lane.BeginID(obs.PhaseFaulty, int64(mask.ID))
	res, stopped := s.RunChecked(budget, every, stop)
	sp.End()
	if stopped {
		if tr != nil {
			tr.Emit(obs.Event{Cycle: res.Cycles, Kind: obs.KindVerdict, Target: primary, Detail: classify.Masked.String()})
		}
		return classify.EarlyMasked(classify.MaskedDeadFault, res.Cycles), nil
	}

	csp := lane.BeginID(obs.PhaseClassify, int64(mask.ID))
	defer csp.End()
	v := verdictFromRun(golden.Output, golden.Cycles, res)
	if comp != nil {
		v.HVFCorrupt = comp.Finalize()
		// Report the divergence index in window-start coordinates: the
		// golden prefix between the window start and the fork point is
		// commit-identical by determinism, so offsetting recovers exactly
		// the index a window-start fork would have measured.
		v.DivergeCommit = comp.DivergePoint()
		if v.DivergeCommit >= 0 {
			v.DivergeCommit += commitOffset
		}
		// A fault can reach architecturally-visible memory without any
		// committed instruction touching it (a corrupted dirty line
		// written back into the program's output). The paper's HVF
		// definition counts data transactions as commit-visible
		// corruptions, so an SDC is a corruption even with a clean
		// commit stream; this also preserves HVF >= AVF by construction.
		if v.Outcome != classify.Masked {
			v.HVFCorrupt = true
		}
	}
	if tr != nil {
		if res.Status == soc.RunTimedOut {
			tr.Emit(obs.Event{Cycle: res.Cycles, Kind: obs.KindWatchdog, Detail: fmt.Sprintf("budget %d cycles exhausted", budget)})
		}
		tr.Emit(obs.Event{Cycle: res.Cycles, Kind: obs.KindVerdict, Target: primary, Detail: v.Outcome.String()})
	}
	return v, nil
}

// verdictFromRun adapts a simulator run result into the classification
// input of classify.FromRun (§IV-A2).
func verdictFromRun(goldenOutput []byte, goldenCycles uint64, res soc.RunResult) classify.Verdict {
	r := classify.RunOutcome{
		Completed: res.Status == soc.RunCompleted,
		Crashed:   res.Status == soc.RunCrashed,
		Cycles:    res.Cycles,
		Output:    res.Output,
	}
	if r.Crashed && res.Trap != nil {
		r.CrashCode = res.Trap.Code.String()
	}
	return classify.FromRun(goldenOutput, goldenCycles, r)
}

func stuckVal(m core.Model) uint8 {
	if m == core.StuckAt1 {
		return 1
	}
	return 0
}

// resampleLive redraws the bit coordinate until it lands in a live entry
// (valid-only injection domain), deterministically per mask: the stream
// is core.ResampleStream of (seed, mask ID, drawn bit), so no execution
// schedule (worker count, run order, clone-vs-fork) enters the draw.
func resampleLive(tgt core.Target, f core.Fault, seed int64, maskID int) uint64 {
	st := core.ResampleStream(seed, maskID, f.Bit)
	bits := tgt.BitLen()
	for tries := 0; tries < 512; tries++ {
		if b := st.Uintn(bits); tgt.Live(b) {
			return b
		}
	}
	return f.Bit
}

// Package campaign is the statistical fault injection controller of
// Figure 2: it runs the fault-free (golden) simulation once, snapshots the
// system at the program's checkpoint directive, generates a statistical
// sample of fault masks, forks one faulty simulation per mask across
// parallel workers, classifies every outcome (Masked / SDC / Crash, plus
// the HVF Benign/Corruption view), and aggregates AVF, HVF and the
// campaign's statistical error margin.
package campaign

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

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
	// BitsPerFault > 1 selects multi-bit masks (spatial multi-fault mode).
	BitsPerFault int
	Seed         int64
	Domain       core.Domain
	// Sizing is the sampling rule: fault budget or adaptive margin,
	// checkpoint ladder depth and worker count.
	dispatch.Sizing

	// HVF enables commit-trace comparison alongside AVF classification
	// (same masks, same runs — the paper's combined mode).
	HVF bool
	// EarlyTermination enables the invalid-entry and
	// overwritten-before-read optimizations of §IV-B.
	EarlyTermination bool
	// WatchdogFactor bounds faulty runs at factor × golden cycles;
	// expiry classifies as Crash. Values <= 1 keep the default of 3.
	WatchdogFactor float64
	// OnVerdict, when non-nil, observes every classified fault as it
	// completes (sweep progress reporting). It may be called concurrently
	// from several workers and must be safe for that; the index is the
	// mask index. It must not block: the campaign's workers stall while it
	// runs.
	OnVerdict func(index int, v classify.Verdict)
	// Trace, when non-nil, receives fault-lifecycle events from every
	// faulty run. With Workers > 1 the sink must be safe for concurrent
	// Emit calls and events from different runs interleave; single-run
	// narration (ExplainWithGolden) arms its own sink. Tracing never changes
	// verdicts: emission sites only observe (watches are pure observers
	// and the early-stop predicate keeps its polling cadence). A traced
	// campaign simulates every fault: stuck-at pruning is off.
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

	base  *soc.System
	trace *trace.Golden

	// ladders memoizes the checkpoint ladders built over base, one per
	// requested depth (one Golden may back concurrent campaigns with
	// different Config.LadderRungs).
	ladders dispatch.LadderMemo[*soc.System]
}

// ladder describes the golden's checkpoint ladder to the dispatch kernel:
// rung 0 is the window-start checkpoint, and the rungs are clones of one
// walker that replays the window. Clone nils every hook, so a rung
// carries no walker state, and it shares every memory page and cache
// block the walker did not write since the previous rung.
func (g *Golden) ladder() dispatch.Ladder[*soc.System] {
	return dispatch.Ladder[*soc.System]{
		Base: g.base,
		Lo:   g.base.CPU.Cycle(),
		Hi:   g.Info.WindowHi,
		Walk: func() (func(uint64) (uint64, bool), func() *soc.System) {
			w := g.base.Clone()
			return func(target uint64) (uint64, bool) {
				w.RunUntilCycle(target)
				return w.CPU.Cycle(), w.CPU.Done()
			}, w.Clone
		},
		Memo: &g.ladders,
	}
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
	info, base, goldenTrace, err := runGolden(cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Golden{Info: *info, base: base, trace: goldenTrace}, nil
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
	if err := cfg.Sizing.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.Image == nil {
		return nil, fmt.Errorf("campaign: no workload image")
	}
	golden := &g.Info

	// Generate the whole budget up front: mask i depends only on (Seed, i,
	// target geometry), so the population is identical whether or not the
	// campaign later stops early.
	masks, bits, err := buildMasks(cfg, g.base, golden)
	if err != nil {
		return nil, err
	}

	verdicts, sum, err := dispatch.Run(dispatch.Plan[*soc.System]{
		Sizing: cfg.Sizing,
		Bits:   bits,
		Ladder: g.ladder(),
		Inject: func(i int) (uint64, bool) { return firstTransientCycle(masks[i]) },
		Run: func(s *soc.System, i int, lane *obs.Lane) (classify.Verdict, error) {
			return runOne(cfg, s, g, masks[i], lane)
		},
		Prune:     pruner(cfg, g, masks),
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

// pruner returns the kernel's exact stuck-at pruning pass for an
// untraced campaign whose masks are all permanent on observable targets,
// or nil. The pass runs the golden once more from the window start (the
// fork point of every permanent fault) with a core.ReadSummary armed on
// each target. A mask whose every fault is a stuck-at-v bit that held v
// at every port the summary saw leaves the faulty run identical to the
// golden run, so its verdict is the golden's. A summary keeps no clock,
// so the pass reports no cycle at which it saw the other masks, and they
// all fork from the window start. The summaries belong to this campaign
// alone: they are not kept on the Golden, which stays immutable and
// shared.
func pruner(cfg Config, g *Golden, masks []core.Mask) func(*soc.System) (func(int) (classify.Verdict, uint64, bool), error) {
	if cfg.Trace != nil {
		return nil
	}
	for _, m := range masks {
		if _, transient := firstTransientCycle(m); transient {
			return nil
		}
	}
	for _, name := range targetNames(cfg) {
		t, err := TargetOf(g.base, name)
		if _, ok := t.(core.Observable); err != nil || !ok {
			return nil
		}
	}
	return func(s *soc.System) (func(int) (classify.Verdict, uint64, bool), error) {
		sums := map[string]*core.ReadSummary{}
		for _, name := range targetNames(cfg) {
			if sums[name] != nil {
				continue
			}
			t, err := TargetOf(s, name)
			if err != nil {
				return nil, err
			}
			sum := core.NewReadSummary(t.BitLen())
			t.(core.Observable).Observe(sum)
			sums[name] = sum
		}
		unobserved := func(i int) bool {
			for _, f := range masks[i].Faults {
				if !sums[f.Target].Unobserved(f.Bit, f.Model.StuckBit()) {
					return false
				}
			}
			return true
		}
		// A summary only ever sees more values, so the pass stops as soon
		// as every mask has been seen: then none can be pruned.
		open := make([]int, len(masks))
		for i := range open {
			open[i] = i
		}
		res, stopped := s.RunChecked(g.Info.Cycles+1, 1024, func() bool {
			open = slices.DeleteFunc(open, func(i int) bool { return !unobserved(i) })
			return len(open) == 0
		})
		if stopped {
			return nil, nil
		}
		if res.Status != soc.RunCompleted || res.Cycles != g.Info.Cycles || !bytes.Equal(res.Output, g.Info.Output) {
			return nil, fmt.Errorf("campaign: golden observation run %v at cycle %d departs from the golden run", res.Status, res.Cycles)
		}
		// A run identical to the golden classifies as runOne's full path
		// does: Masked by the run, no cycle delta, and with HVF an intact
		// commit stream.
		golden := verdictFromRun(g.Info.Output, g.Info.Cycles, res)
		return func(i int) (classify.Verdict, uint64, bool) {
			if unobserved(i) {
				return golden, 0, true
			}
			return classify.Verdict{}, 0, false
		}, nil
	}
}

// runGolden performs the fault-free run, returning the reference info, the
// checkpoint snapshot faulty runs fork from and the golden commit trace.
func runGolden(cfg Config) (*GoldenInfo, *soc.System, *trace.Golden, error) {
	sys, err := soc.New(cfg.Image, cfg.Preset.CPU, cfg.Preset.Hier, cfg.Preset.MemLatency)
	if err != nil {
		return nil, nil, nil, err
	}
	rec := trace.NewRecorder()
	hook := rec.Hook()
	sys.CPU.CommitHook = hook

	base := sys.Clone() // fallback snapshot at cycle 0
	sys.CheckpointHook = func(cycle uint64) { base = sys.Clone() }

	res := sys.Run(500_000_000)
	if res.Status != soc.RunCompleted {
		return nil, nil, nil, fmt.Errorf("campaign: golden run %v (trap %v)", res.Status, res.Trap)
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
	return g, base, rec.Golden(), nil
}

// maskSpace resolves the campaign's fault population from cfg alone
// (plus the golden window): every listed structure (Target, or each of
// MultiTargets) with its bit count, the model, faults per structure and
// the injection window. It also returns the total injectable bits.
func maskSpace(cfg Config, base *soc.System, golden *GoldenInfo) (core.MaskSpace, uint64, error) {
	sp := core.MaskSpace{Model: cfg.Model, BitsPer: cfg.BitsPerFault, WindowLo: golden.WindowLo, WindowHi: golden.WindowHi}
	var total uint64
	for _, name := range targetNames(cfg) {
		tgt, err := TargetOf(base, name)
		if err != nil {
			return core.MaskSpace{}, 0, err
		}
		sp.Targets = append(sp.Targets, core.Structure{Name: name, Bits: tgt.BitLen()})
		total += tgt.BitLen()
	}
	return sp, total, sp.Validate()
}

// targetNames lists the campaign's structures: Target, or each of
// MultiTargets.
func targetNames(cfg Config) []string {
	if len(cfg.MultiTargets) > 0 {
		return cfg.MultiTargets
	}
	return []string{cfg.Target}
}

// buildMasks derives the campaign's whole budget of masks. Mask i is a pure
// function of (Seed, i, space) — core.MaskSpace.Mask — so the population
// is prefix-stable in the fault count and Explain derives any one mask in
// isolation.
func buildMasks(cfg Config, base *soc.System, golden *GoldenInfo) ([]core.Mask, uint64, error) {
	sp, bits, err := maskSpace(cfg, base, golden)
	if err != nil {
		return nil, 0, err
	}
	masks := make([]core.Mask, cfg.Budget())
	for i := range masks {
		masks[i] = sp.Mask(cfg.Seed, i)
	}
	return masks, bits, nil
}

// runOne drives one faulty simulation on s — a system already positioned
// at a checkpoint snapshot of g (a fresh clone, a fresh fork, or a reset
// scratch fork of any ladder rung; all are state-identical to a
// window-start fork simulated to the same cycle) — applies the mask, runs
// to completion (or early termination) and classifies. The HVF
// comparator checks the golden commit trace from the fork point onward:
// s's committed micro-op count is the golden's commit count there, so
// divergence indices are offset by its distance from the window-start
// checkpoint and reported in window-start coordinates regardless of which
// rung served the run. Arming events are stamped with the window-start
// checkpoint cycle, so rung restores narrate identically.
//
// When cfg.Trace is armed, runOne additionally narrates the fault's
// lifecycle: arming, application, first corrupted read / overwrite death
// (by arming the §IV-B watch purely as an observer, even when early
// termination is off — a core.Watch only records what the ports report),
// squashes and store-forwards (via the CPU's tracer), first commit-stream
// divergence (by polling the HVF comparator inside the commit hook), the
// watchdog, and the verdict. None of this changes behavior: the early-stop
// predicate keeps its value and polling cadence, so traced runs classify
// bit-identically to untraced ones.
// lane, when non-nil, receives replay/faulty/classify spans for
// wall-clock attribution; a nil lane (profiling off) costs nothing.
func runOne(cfg Config, s *soc.System, g *Golden, mask core.Mask, lane *obs.Lane) (classify.Verdict, error) {
	tr := cfg.Trace
	golden := &g.Info
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
	forkCommits := s.CPU.Stats.Uops
	commitOffset := int(forkCommits - g.base.CPU.Stats.Uops)
	if cfg.HVF {
		comp = trace.NewComparator(g.trace.Slice(int(forkCommits)))
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

	factor := cfg.WatchdogFactor
	if factor <= 1 {
		factor = 3
	}
	budget := uint64(float64(golden.Cycles)*factor) + 20_000

	if tr != nil {
		// Arming is narrated at the window-start checkpoint cycle — the
		// campaign's logical arming point — so a run restored from a deeper
		// ladder rung emits the same event stream as a window-start fork.
		for _, f := range mask.Faults {
			detail := f.Model.String()
			if !f.Model.Permanent() {
				detail = fmt.Sprintf("%s at cycle %d", f.Model, f.Cycle)
			}
			tr.Emit(obs.Event{Cycle: g.base.CPU.Cycle(), Kind: obs.KindFaultArmed, Target: f.Target, Bit: f.Bit, Detail: detail})
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
			ft.Stick(f.Bit, f.Model.StuckBit())
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

	earlyOK := cfg.EarlyTermination && single && len(transients) == 1 && !s.CPU.Done()
	if earlyOK && !tgt.Live(appliedBit) {
		// Invalid or unused entry: provably masked (§IV-B).
		if tr != nil {
			tr.Emit(obs.Event{Cycle: s.CPU.Cycle(), Kind: obs.KindInvalidMasked, Target: primary, Bit: appliedBit, Detail: "fault landed in a dead or invalid entry"})
			tr.Emit(obs.Event{Cycle: s.CPU.Cycle(), Kind: obs.KindVerdict, Target: primary, Detail: classify.Masked.String()})
		}
		return classify.EarlyMasked(classify.MaskedInvalidEntry, s.CPU.Cycle()), nil
	}
	// The watch is armed for narration even when early termination is off:
	// it only records what the target's ports report, so this cannot
	// perturb the run. Targets without ports (ROB, IQ) get none.
	traceWatch := tr != nil && single && len(transients) == 1 && !s.CPU.Done()
	var watch *core.Watch
	if ot, ok := tgt.(core.Observable); ok && (earlyOK || traceWatch) {
		watch = core.NewWatch(appliedBit)
		ot.Observe(watch)
	}

	var stop func() bool
	every := uint64(128)
	if earlyOK && watch != nil {
		stop = func() bool { return watch.State() == core.WatchDead }
	}
	if traceWatch && watch != nil {
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
			if st := watch.State(); st != prev {
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

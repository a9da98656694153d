// Package dispatch is the fault-dispatch kernel of Figure 2's statistical
// fault-injection controller, shared by the CPU (internal/campaign) and
// accelerator (internal/accel) campaign engines. An engine prepares its
// golden reference and fault population, then hands the kernel a Plan:
// the golden's checkpoint Ladder (rung 0, the window end, a walker and
// the memo), each fault's first transient injection cycle, how to run
// one fault and, optionally, an exact pruning pass. The kernel owns
// everything else — building, memoizing and climbing the checkpoint
// ladder, the rung the pruning pass starts from, the deeper rung each
// fault the pass saw forks from, the worker pool,
// per-worker scratch fork/reset/rung switching, contiguous batching with
// rung-stable sorting, the adaptive Wilson-margin stop, first-error
// abort, fork and replay accounting and the per-worker profiler lanes.
//
// The prefix-stable-batch invariant: faults are dispatched in contiguous
// index ranges [done, hi), the stop decision is taken only at a batch
// barrier, and verdicts are stored by index, never by completion order.
// The executed set is therefore always the prefix [0, done) of the fault
// stream, whatever the worker count or the rung order inside a batch.
package dispatch

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/metrics"
	"marvel/internal/obs"
)

// batchLen is the adaptive dispatch granularity: an adaptive campaign
// evaluates its stop condition after every batchLen faults. It never
// changes verdicts, only how often a campaign may stop.
const batchLen = 32

// Sizing is a campaign's statistical sizing rule (§III): a fixed fault
// budget, or a Wilson margin at a confidence, plus the checkpoint ladder
// and worker pool it is dispatched with. It holds exactly the knobs the
// kernel and the sizing rule read; campaign.Config, accel.CampaignConfig
// and Plan embed it.
type Sizing struct {
	// Faults is the statistical sample size: the fixed budget, or the
	// adaptive cap when MaxFaults is 0.
	Faults int
	// TargetMargin > 0 selects adaptive confidence-targeted sizing: faults
	// are dispatched in batches from the same prefix-stable stream a fixed
	// campaign uses, the Wilson half-width of the AVF estimate is
	// recomputed after every batch, and the campaign stops once it drops
	// to TargetMargin. The record stream is then an exact prefix of the
	// fixed-budget run's (same masks, same verdicts, same digests). 0 keeps
	// the fixed Faults budget.
	TargetMargin float64
	// Confidence is the normal quantile z the margins are computed at —
	// both the adaptive stop decision and the reported Margin; <= 0 keeps
	// the default 1.96 (95%).
	Confidence float64
	// MinFaults floors the adaptive sample: the stop condition is not
	// evaluated before this many faults completed (tiny samples make the
	// Wilson interval wide, so the floor mostly guards against a
	// pathological TargetMargin near 1). 0 means no floor.
	MinFaults int
	// MaxFaults, when > 0, replaces Faults as the adaptive cap. Ignored
	// when TargetMargin is 0.
	MaxFaults int
	// LadderRungs selects the checkpoint ladder: besides the window-start
	// checkpoint, the golden run is snapshotted at this many evenly spaced
	// cycles inside the injection window, and every transient run forks
	// from the latest rung before its injection cycle, replaying only the
	// residual prefix. A fault the engine's pruning pass saw, permanent
	// ones included, forks instead from the latest rung before the cycle
	// the golden run first observed it, when that is deeper (see
	// Plan.Prune). 0 keeps the single checkpoint. Verdicts and their
	// digests are bit-identical for every value.
	LadderRungs int
	// Workers bounds parallelism; <= 0 means GOMAXPROCS. No more workers
	// than faults are started. Verdicts are identical for every value.
	Workers int
}

// Validate checks the knobs every campaign entry point accepts — the
// engines, the sweep orchestrator, the facade and the job service.
// Errors carry no package prefix; callers add their own.
func (s Sizing) Validate() error {
	switch {
	case s.Faults <= 0:
		return fmt.Errorf("fault count must be positive, got %d", s.Faults)
	case s.LadderRungs < 0:
		return fmt.Errorf("ladder rungs must be non-negative, got %d", s.LadderRungs)
	case s.TargetMargin < 0 || s.TargetMargin >= 1:
		return fmt.Errorf("target margin must be in [0, 1), got %v", s.TargetMargin)
	case s.Confidence < 0:
		return fmt.Errorf("confidence quantile must be non-negative, got %v", s.Confidence)
	case s.MinFaults < 0 || s.MaxFaults < 0:
		return fmt.Errorf("min/max faults must be non-negative, got %d/%d", s.MinFaults, s.MaxFaults)
	}
	return nil
}

// Budget is the number of faults a campaign plans: MaxFaults replaces
// Faults when adaptive sizing (TargetMargin > 0) sets a cap. An adaptive
// campaign draws from the first Budget entries of the same stream a fixed
// campaign uses, so an early stop at N leaves exactly the fixed run's
// first N records.
func (s Sizing) Budget() int {
	if s.TargetMargin > 0 && s.MaxFaults > 0 {
		return s.MaxFaults
	}
	return s.Faults
}

// Z returns the normal quantile the campaign computes its margins at:
// Confidence, or 1.96 (95%) when Confidence is <= 0.
func (s Sizing) Z() float64 {
	if s.Confidence <= 0 {
		return 1.96
	}
	return s.Confidence
}

// Scratch is a system forked from a checkpoint rung, reused by one worker
// across faulty runs. Rungs are of the same type: a frozen snapshot the
// workers fork their scratches from.
type Scratch[S any] interface {
	// Fork creates a copy-on-write fork of a frozen snapshot (a rung).
	Fork() S
	// Reset rolls the scratch back to the rung it was forked from.
	Reset()
	// ForkCounters reports the copy-on-write pages materialized and the
	// cache sets restored on this scratch so far.
	ForkCounters() (pagesCopied, setsRestored uint64)
}

// ForkStats counts checkpoint-forking activity over one campaign.
type ForkStats struct {
	// Forks is the number of scratch systems created: one per worker
	// that simulates a fault, plus one each time the dispatch order moves
	// a worker to another rung.
	Forks uint64
	// ReuseHits counts faulty runs served by resetting an existing scratch
	// system instead of forking a new one.
	ReuseHits uint64
	// PagesCopied is the number of memory pages materialized by
	// copy-on-write across all workers.
	PagesCopied uint64
	// CacheSetsRestored is the number of cache sets rolled back to the
	// golden snapshot by scratch resets across all workers (always 0 on
	// the accelerator, whose harness has no caches).
	CacheSetsRestored uint64
	// Rungs is the number of mid-window ladder checkpoints the campaign
	// had available (0 when the ladder is off).
	Rungs int
	// RungHits counts faulty runs forked from a mid-window rung instead of
	// rung 0, whether their injection cycle or the cycle the pruning pass
	// first saw them chose it.
	RungHits uint64
	// ReplayedCycles totals the pre-injection cycles scheduled between
	// each run's fork point and its first transient injection — the
	// quantity the ladder exists to shrink. A run forked at or past its
	// injection cycle (the pruning pass moved it there) replays none, nor
	// does a run carrying only permanent faults.
	ReplayedCycles uint64
	// Pruned counts faults whose verdict the engine proved without
	// simulating (Plan.Prune); no scratch was forked or reset for them.
	Pruned uint64
}

func (f *ForkStats) add(o ForkStats) {
	f.Forks += o.Forks
	f.ReuseHits += o.ReuseHits
	f.PagesCopied += o.PagesCopied
	f.CacheSetsRestored += o.CacheSetsRestored
	f.RungHits += o.RungHits
	f.ReplayedCycles += o.ReplayedCycles
	f.Pruned += o.Pruned
}

// Rung is one checkpoint of a ladder: a frozen snapshot and the cycle it
// was taken at.
type Rung[S any] struct {
	Sys   S
	Cycle uint64
}

// LadderMemo holds one golden's checkpoint ladders, keyed by rung count
// and window end, so every campaign over the golden shares them. The
// zero value is ready; a golden embeds one and is then safe for
// concurrent Plans. Rung snapshots are frozen once built and shared
// read-only by forks.
type LadderMemo[S any] struct {
	mu      sync.Mutex
	ladders map[ladderKey][]Rung[S]
}

type ladderKey struct {
	k  int
	hi uint64
}

// Ladder describes a golden's checkpoint ladder to the kernel.
type Ladder[S any] struct {
	// Base is rung 0, the window-start checkpoint, taken at cycle Lo; Hi
	// is the injection window's end.
	Base   S
	Lo, Hi uint64
	// Walk starts a running copy of Base and returns how to advance it —
	// until a target cycle or the end of the run, whichever comes first,
	// reporting the cycle reached (a step may overshoot) and whether the
	// run ended — and how to snapshot it into a rung it may run past.
	Walk func() (advance func(target uint64) (cycle uint64, done bool), snapshot func() S)
	Memo *LadderMemo[S]
	// StrictlyBefore is the engine's rung rule. The CPU (false) applies a
	// flip between steps, once the clock reaches its cycle, so a rung at
	// the injection cycle may serve it. The accelerator (true) applies it
	// inside Cluster.Tick, after the clock advances, so a rung at the
	// injection cycle would skip the tick that applies it.
	StrictlyBefore bool
}

// Rungs returns the ladder with k mid-window rungs, building and
// memoizing it on first use. Rung 0 is always Base. Rungs 1..k are
// snapshots taken while one walker replays the fault-free window, at the
// target cycles lo + i·(hi−lo)/(k+1); a target at or below the previous
// rung's cycle is skipped, and the walk stops when the run ends. Rungs
// record the cycle the walker actually reached, so selection stays sound
// when a step overshoots. The golden prefix is deterministic, so a run
// forked from rung r is bit-identical to a rung-0 fork stepped to the same
// cycle.
func (l Ladder[S]) Rungs(k int) []Rung[S] {
	m := l.Memo
	m.mu.Lock()
	defer m.mu.Unlock()
	key := ladderKey{k: k, hi: l.Hi}
	if rs, ok := m.ladders[key]; ok {
		return rs
	}
	rungs := []Rung[S]{{Sys: l.Base, Cycle: l.Lo}}
	if k > 0 && l.Hi > l.Lo {
		advance, snapshot := l.Walk()
		for i := 1; i <= k; i++ {
			target := l.Lo + uint64(i)*(l.Hi-l.Lo)/uint64(k+1)
			if target <= rungs[len(rungs)-1].Cycle {
				continue
			}
			cycle, done := advance(target)
			if done {
				break
			}
			rungs = append(rungs, Rung[S]{Sys: snapshot(), Cycle: cycle})
		}
	}
	if m.ladders == nil {
		m.ladders = map[ladderKey][]Rung[S]{}
	}
	m.ladders[key] = rungs
	return rungs
}

// rungFor returns the index of the latest rung at (unless strict) or
// before cycle.
func rungFor[S any](rungs []Rung[S], strict bool, cycle uint64) int {
	r := 0
	for i := 1; i < len(rungs); i++ {
		if c := rungs[i].Cycle; c > cycle || c == cycle && strict {
			break
		}
		r = i
	}
	return r
}

// Plan describes one campaign's injection phase to the kernel. Faults are
// the indices [0, Budget()) of a stream drawn over a Bits-bit target
// population; the embedded Sizing also sets the ladder depth, the worker
// count and the adaptive stop: after every batchLen faults, once at least
// MinFaults completed, the campaign stops if the Wilson half-width of the
// AVF at quantile Z() is within TargetMargin.
type Plan[S Scratch[S]] struct {
	Sizing
	Bits uint64
	// Ladder is the golden's checkpoint ladder. The kernel climbs it only
	// when LadderRungs > 0 and some fault is transient or the pruning
	// pass saw some fault past rung 0; otherwise every fault forks from
	// rung 0.
	Ladder Ladder[S]
	// Inject reports fault i's first transient injection cycle, or false
	// when it has none (a permanent fault must hold from the window
	// start). Each fault forks from the latest rung the ladder's rule
	// allows at its injection cycle, rung 0 when it has none, and replays
	// the cycles from there to its injection, unless the pruning pass
	// moves it deeper. Within a batch faults are dispatched in stable
	// rung order, so each worker's scratch walks the ladder monotonically.
	Inject func(i int) (cycle uint64, ok bool)
	// Run executes fault i on s, which is positioned at its rung's
	// checkpoint (a fresh fork or a reset one; the two are
	// state-identical). A rung past the fault's injection cycle (see
	// Prune) must take the fault at once: a permanent fault is forced
	// there, a transient one applies at the next step. lane, when
	// profiling, takes the run's replay/faulty/classify spans. An error
	// aborts the campaign.
	Run func(s S, i int, lane *obs.Lane) (classify.Verdict, error)
	// Prune, when non-nil, is the engine's exact pruning pass. The kernel
	// calls it once before dispatch, inside a "golden" profiler span,
	// with a fork of the earliest rung any fault forks from (rung 0 when
	// some fault is permanent): the pass observes the golden run from
	// there. Its predicate returns, for every fault it proves, the
	// verdict Run would return and ok; the kernel skips Run and the
	// scratch fork or reset of a proven fault and counts it in
	// ForkStats.Pruned. For every other fault it returns seen, the
	// earliest cycle at which the golden run observes the fault, or 0
	// when the engine does not know. Up to seen the fault's run is the
	// golden run with the fault applied: a stuck-at bit no read saw
	// differ from its stuck value, a flipped bit whose byte nothing
	// accessed since the flip. So the kernel forks the fault from the
	// latest rung the ladder's rule allows at seen, when that is deeper
	// than its injection rung. A nil predicate proves and places nothing.
	// An error aborts the campaign.
	Prune func(start S) (pruned func(i int) (v classify.Verdict, seen uint64, ok bool), err error)
	// OnVerdict, when non-nil, observes every verdict as it completes. It
	// is called concurrently from the workers and must not block.
	OnVerdict func(i int, v classify.Verdict)
	// Profile, when non-nil, receives a "ladder" lane with the ladder
	// build span and per-worker "worker-N" lanes with fork and reset
	// spans.
	Profile *obs.Profiler
}

// climb maps every fault of the plan to the rung it forks from and the
// pre-injection cycles it replays there. Each fault first takes the rung
// of its injection cycle; then the pruning pass, if any, runs from the
// earliest of those rungs, its proven verdicts go to verdicts (marked in
// proven, nil when nothing is proven), and every fault it saw moves to
// the rung of the cycle it was first seen at, when that is deeper. The
// ladder is built when LadderRungs > 0 and some fault is transient or
// was seen past rung 0.
func (p Plan[S]) climb(verdicts []classify.Verdict) (rungs []Rung[S], rungOf []int, replay []uint64, proven []bool, err error) {
	n := len(verdicts)
	rungs = []Rung[S]{{Sys: p.Ladder.Base, Cycle: p.Ladder.Lo}}
	built := false
	build := func() {
		sp := p.Profile.NewLane("ladder").Begin(obs.PhaseLadder)
		rungs, built = p.Ladder.Rungs(p.LadderRungs), true
		sp.End()
	}
	rungOf, replay = make([]int, n), make([]uint64, n)
	place := func(i, r int) {
		rungOf[i], replay[i] = r, 0
		if cycle, ok := p.Inject(i); ok && cycle > rungs[r].Cycle {
			replay[i] = cycle - rungs[r].Cycle
		}
	}
	for i := 0; i < n && p.LadderRungs > 0 && !built; i++ {
		if _, ok := p.Inject(i); ok {
			build()
		}
	}
	for i := range rungOf {
		if cycle, ok := p.Inject(i); ok {
			place(i, rungFor(rungs, p.Ladder.StrictlyBefore, cycle))
		}
	}
	if p.Prune == nil || n == 0 {
		return rungs, rungOf, replay, nil, nil
	}
	sp := p.Profile.NewLane("golden").Begin(obs.PhaseGolden)
	pruned, err := p.Prune(rungs[slices.Min(rungOf)].Sys.Fork())
	sp.End()
	if err != nil || pruned == nil {
		return rungs, rungOf, replay, nil, err
	}
	proven = make([]bool, n)
	seen := make([]uint64, n)
	deeper := false
	for i := range proven {
		var v classify.Verdict
		if v, seen[i], proven[i] = pruned(i); proven[i] {
			verdicts[i], seen[i] = v, 0
		}
		deeper = deeper || seen[i] > p.Ladder.Lo
	}
	if deeper && p.LadderRungs > 0 && !built {
		build()
	}
	for i, cycle := range seen {
		if r := rungFor(rungs, p.Ladder.StrictlyBefore, cycle); r > rungOf[i] {
			place(i, r)
		}
	}
	return rungs, rungOf, replay, proven, nil
}

// Summary is the engine-independent part of a campaign result; both
// campaign.Result and accel.CampaignResult embed it.
type Summary struct {
	// Counts folds the executed verdicts' outcomes. The HVF view is the
	// engine's to add: only the CPU measures it.
	Counts metrics.Counts
	// Margin is the Leveugle et al. sampling error over the target's bit
	// population for the achieved sample size, at quantile Z.
	Margin float64
	// Z is the confidence quantile the margins were computed at.
	Z float64
	// Requested is the planned fault budget. Fewer faults run when
	// adaptive sizing stopped early; FaultsSaved is the difference.
	Requested   int
	FaultsSaved int
	// Batches is how many dispatch batches ran (1 for a fixed campaign).
	Batches int
	// AchievedMargin is the Wilson half-width of the final AVF estimate
	// at quantile Z — the quantity adaptive sizing drives down to the
	// target margin.
	AchievedMargin float64
	// Forking describes how faulty runs were forked from the checkpoints.
	Forking ForkStats
}

// AVF returns the campaign's architectural vulnerability factor.
func (s *Summary) AVF() float64 { return s.Counts.AVF() }

// Run dispatches the plan's faults over the worker pool and returns the
// verdicts of the executed prefix, in index order, with their summary.
// The first error any run reports aborts the campaign at the end of the
// current batch.
func Run[S Scratch[S]](p Plan[S]) ([]classify.Verdict, Summary, error) {
	n, z := p.Budget(), p.Z()
	verdicts := make([]classify.Verdict, n)
	rungs, rungOf, replay, proven, err := p.climb(verdicts)
	if err != nil {
		return nil, Summary{}, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	sum := Summary{Z: z, Requested: n}
	var mu sync.Mutex // guards firstErr and the sum.Forking fold
	var firstErr error
	// failed mirrors firstErr != nil so workers drain, and the dispatcher
	// stops, without taking mu per fault.
	var failed atomic.Bool
	var wg sync.WaitGroup      // worker lifetimes
	var pending sync.WaitGroup // in-flight faults of the current batch
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lane *obs.Lane
			if p.Profile != nil {
				lane = p.Profile.NewLane("worker-" + strconv.Itoa(w))
			}
			var stats ForkStats
			var scratch S
			scratchRung := -1 // no scratch yet
			retire := func() {
				if scratchRung >= 0 {
					pages, sets := scratch.ForkCounters()
					stats.PagesCopied += pages
					stats.CacheSetsRestored += sets
				}
			}
			run := func(i int) (classify.Verdict, error) {
				if proven != nil && proven[i] {
					stats.Pruned++
					return verdicts[i], nil
				}
				r := rungOf[i]
				if r != scratchRung {
					sp := lane.BeginID(obs.PhaseFork, int64(i))
					retire()
					scratch, scratchRung = rungs[r].Sys.Fork(), r
					sp.End()
					stats.Forks++
				} else {
					sp := lane.BeginID(obs.PhaseReset, int64(i))
					scratch.Reset()
					sp.End()
					stats.ReuseHits++
				}
				if r > 0 {
					stats.RungHits++
				}
				stats.ReplayedCycles += replay[i]
				return p.Run(scratch, i, lane)
			}
			for i := range work {
				if !failed.Load() {
					v, err := run(i)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						failed.Store(true)
					} else {
						verdicts[i] = v
						if p.OnVerdict != nil {
							p.OnVerdict(i, v)
						}
					}
				}
				pending.Done()
			}
			retire()
			mu.Lock()
			sum.Forking.add(stats)
			mu.Unlock()
		}()
	}

	adaptive := p.TargetMargin > 0
	done := 0
	for done < n {
		hi := n
		if adaptive {
			hi = min(done+batchLen, n)
		}
		batch := make([]int, hi-done)
		for j := range batch {
			batch[j] = done + j
		}
		sort.SliceStable(batch, func(a, b int) bool { return rungOf[batch[a]] < rungOf[batch[b]] })
		pending.Add(len(batch))
		for _, i := range batch {
			work <- i
		}
		pending.Wait()
		done = hi
		sum.Batches++
		if failed.Load() {
			break
		}
		if adaptive && done >= p.MinFaults && done < n {
			var c metrics.Counts
			for _, v := range verdicts[:done] {
				c.Add(v)
			}
			if metrics.Confidence(c.AVF(), done, z).Half() <= p.TargetMargin {
				break
			}
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, Summary{}, firstErr
	}
	verdicts = verdicts[:done]
	for _, v := range verdicts {
		sum.Counts.Add(v)
	}
	sum.Margin = core.MarginFor(p.Bits, done, z)
	sum.FaultsSaved = n - done
	sum.AchievedMargin = metrics.Confidence(sum.Counts.AVF(), done, z).Half()
	sum.Forking.Rungs = len(rungs) - 1
	return verdicts, sum, nil
}

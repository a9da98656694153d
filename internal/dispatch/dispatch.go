// Package dispatch is the fault-dispatch kernel of Figure 2's statistical
// fault-injection controller, shared by the CPU (internal/campaign) and
// accelerator (internal/accel) campaign engines. An engine prepares its
// golden reference, checkpoint ladder and fault population, then hands
// the kernel a Plan: how to fork a scratch system from each checkpoint
// rung, which rung every fault starts from, and how to run one fault. The
// kernel owns everything else — the worker pool, per-worker scratch
// fork/reset/rung switching, contiguous batching with rung-stable sorting,
// the adaptive Wilson-margin stop, first-error abort, fork accounting and
// the per-worker profiler lanes.
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

// Quantile returns the normal quantile z a campaign computes its margins
// at: confidence, or 1.96 (95%) when confidence is <= 0.
func Quantile(confidence float64) float64 {
	if confidence <= 0 {
		return 1.96
	}
	return confidence
}

// ValidateSizing checks the sampling knobs every campaign entry point
// accepts — the engines, the sweep orchestrator, the facade and the job
// service. Errors carry no package prefix; callers add their own.
func ValidateSizing(faults, ladderRungs int, margin, confidence float64, minFaults, maxFaults int) error {
	switch {
	case faults <= 0:
		return fmt.Errorf("fault count must be positive, got %d", faults)
	case ladderRungs < 0:
		return fmt.Errorf("ladder rungs must be non-negative, got %d", ladderRungs)
	case margin < 0 || margin >= 1:
		return fmt.Errorf("target margin must be in [0, 1), got %v", margin)
	case confidence < 0:
		return fmt.Errorf("confidence quantile must be non-negative, got %v", confidence)
	case minFaults < 0 || maxFaults < 0:
		return fmt.Errorf("min/max faults must be non-negative, got %d/%d", minFaults, maxFaults)
	}
	return nil
}

// Budget is the number of faults a campaign plans: maxFaults replaces
// faults when adaptive sizing (margin > 0) sets a cap. An adaptive
// campaign draws from the first Budget entries of the same stream a fixed
// campaign uses, so an early stop at N leaves exactly the fixed run's
// first N records.
func Budget(faults int, margin float64, maxFaults int) int {
	if margin > 0 && maxFaults > 0 {
		return maxFaults
	}
	return faults
}

// Scratch is a system forked from a checkpoint rung, reused by one worker
// across faulty runs.
type Scratch interface {
	// Reset rolls the scratch back to the rung it was forked from.
	Reset()
	// ForkCounters reports the copy-on-write pages materialized and the
	// cache sets restored on this scratch so far.
	ForkCounters() (pagesCopied, setsRestored uint64)
}

// ForkStats counts checkpoint-forking activity over one campaign.
type ForkStats struct {
	// Forks is the number of scratch systems created: one per worker,
	// plus one each time the dispatch order moves a worker to another
	// rung.
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
	// rung 0.
	RungHits uint64
	// ReplayedCycles totals the pre-injection cycles scheduled between
	// each run's fork point and its first transient injection — the
	// quantity the ladder exists to shrink.
	ReplayedCycles uint64
}

func (f *ForkStats) add(o ForkStats) {
	f.Forks += o.Forks
	f.ReuseHits += o.ReuseHits
	f.PagesCopied += o.PagesCopied
	f.CacheSetsRestored += o.CacheSetsRestored
	f.RungHits += o.RungHits
	f.ReplayedCycles += o.ReplayedCycles
}

// Plan describes one campaign's injection phase to the kernel. Faults are
// the indices [0, N) of a stream drawn over a Bits-bit target population.
type Plan[S Scratch] struct {
	N    int
	Bits uint64
	// Workers bounds parallelism; <= 0 means GOMAXPROCS. No more workers
	// than faults are started.
	Workers int
	// TargetMargin > 0 selects adaptive sizing: after every batchLen
	// faults, once at least MinFaults completed, the campaign stops if the
	// Wilson half-width of the AVF at quantile Z is within TargetMargin.
	TargetMargin float64
	MinFaults    int
	Z            float64
	// Rungs is the number of mid-window ladder rungs, reported in
	// ForkStats.
	Rungs int
	// Fork forks a fresh scratch system from checkpoint rung r.
	Fork func(r int) S
	// RungOf[i] is the rung fault i forks from and Replay[i] the
	// pre-injection cycles it replays from there. Within a batch faults
	// are dispatched in stable rung order, so each worker's scratch walks
	// the ladder monotonically.
	RungOf []int
	Replay []uint64
	// Run executes fault i on s, which is positioned at rung RungOf[i]'s
	// checkpoint (a fresh fork or a reset one; the two are
	// state-identical). lane, when profiling, takes the run's
	// replay/faulty/classify spans. An error aborts the campaign.
	Run func(s S, i int, lane *obs.Lane) (classify.Verdict, error)
	// OnVerdict, when non-nil, observes every verdict as it completes. It
	// is called concurrently from the workers and must not block.
	OnVerdict func(i int, v classify.Verdict)
	// Profile, when non-nil, receives per-worker "worker-N" lanes with
	// fork and reset spans.
	Profile *obs.Profiler
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
func Run[S Scratch](p Plan[S]) ([]classify.Verdict, Summary, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, p.N)
	verdicts := make([]classify.Verdict, p.N)
	sum := Summary{Z: p.Z, Requested: p.N}
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
			for i := range work {
				if !failed.Load() {
					r := p.RungOf[i]
					if r != scratchRung {
						sp := lane.BeginID(obs.PhaseFork, int64(i))
						retire()
						scratch, scratchRung = p.Fork(r), r
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
					stats.ReplayedCycles += p.Replay[i]
					v, err := p.Run(scratch, i, lane)
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
	for done < p.N {
		hi := p.N
		if adaptive {
			hi = min(done+batchLen, p.N)
		}
		batch := make([]int, hi-done)
		for j := range batch {
			batch[j] = done + j
		}
		sort.SliceStable(batch, func(a, b int) bool { return p.RungOf[batch[a]] < p.RungOf[batch[b]] })
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
		if adaptive && done >= p.MinFaults && done < p.N {
			var c metrics.Counts
			for _, v := range verdicts[:done] {
				c.Add(v)
			}
			if metrics.Confidence(c.AVF(), done, p.Z).Half() <= p.TargetMargin {
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
	sum.Margin = core.MarginFor(p.Bits, done, p.Z)
	sum.FaultsSaved = p.N - done
	sum.AchievedMargin = metrics.Confidence(sum.Counts.AVF(), done, p.Z).Half()
	sum.Forking.Rungs = p.Rungs
	return verdicts, sum, nil
}

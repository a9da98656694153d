package obs

import (
	"expvar"
	"fmt"
	"sync/atomic"
	"time"
)

// Counter is a lock-free monotonic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram is a lock-free power-of-two-bucketed latency histogram:
// bucket i counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts
// v == 0). Units are whatever the caller observes (the registry records
// per-cell wall milliseconds).
type Histogram struct {
	buckets [32]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for x := v; x > 0; x >>= 1 {
		i++
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// BucketCount is one histogram bucket: Count observations with
// value <= UpperBound (and greater than the previous bucket's bound).
type BucketCount struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending bound order.
// Bucket i of the power-of-two layout holds 2^(i-1) <= v < 2^i, so its
// inclusive upper bound is 2^i - 1 (bucket 0 holds exactly v == 0).
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, BucketCount{UpperBound: uint64(1)<<i - 1, Count: n})
		}
	}
	return out
}

// Registry aggregates campaign- and sweep-level runtime metrics. All
// fields are updated with atomic operations, so verdict hooks and worker
// goroutines write to it without locks; readers (the expvar/debug
// endpoint, progress writers) see a live, slightly-stale view.
type Registry struct {
	// Verdict mix. FaultsDone == Masked + SDC + Crash.
	FaultsDone Counter
	Masked     Counter
	SDC        Counter
	Crash      Counter
	// EarlyStops counts verdicts decided by §IV-B early termination
	// (invalid-entry or dead-fault masking).
	EarlyStops Counter
	// FaultsSaved counts budgeted injections that adaptive confidence
	// sizing stopped short of running (budget minus achieved N, summed
	// over finished cells).
	FaultsSaved Counter
	// HVFCorrupt counts runs whose commit trace diverged from golden.
	HVFCorrupt Counter

	// Fork-pool health (from campaign/accel ForkStats). Pruned counts
	// faults decided by exact pruning, without a faulty run: CPU and
	// accelerator stuck-ats, and accelerator transients.
	Forks      Counter
	ForkReuses Counter
	Pruned     Counter
	// Checkpoint-ladder health: RungHits counts faulty runs dispatched
	// from a mid-window rung, ReplayedCycles totals pre-injection cycles
	// replayed between fork points and injection cycles.
	RungHits       Counter
	ReplayedCycles Counter

	// Sweep-level progress.
	GoldenRuns    Counter
	GoldenHits    Counter
	CellsStarted  Counter
	CellsFinished Counter
	CellsSkipped  Counter
	// CellLatencyMS is the per-cell wall-clock latency histogram.
	CellLatencyMS Histogram

	start time.Time
	// firstVerdict is the unix-nano timestamp of the first AddVerdict
	// (0 until one lands) — the faults/sec clock, so idle setup and
	// golden-prep time never deflate the rate.
	firstVerdict atomic.Int64
	// prof, when attached, folds wall-clock attribution into snapshots.
	prof atomic.Pointer[Profiler]
}

// NewRegistry returns a registry with its faults/sec clock started.
func NewRegistry() *Registry { return &Registry{start: time.Now()} }

// AddVerdict records one classified fault. outcome is the verdict's
// Outcome.String() value ("masked", "sdc", "crash") — string-typed so
// engines' callers can feed it without obs importing the classify package.
func (r *Registry) AddVerdict(outcome string, earlyStop, hvfCorrupt bool) {
	if r.firstVerdict.Load() == 0 {
		r.firstVerdict.CompareAndSwap(0, time.Now().UnixNano())
	}
	r.FaultsDone.Inc()
	switch outcome {
	case "masked", "Masked":
		r.Masked.Inc()
	case "sdc", "SDC":
		r.SDC.Inc()
	case "crash", "Crash":
		r.Crash.Inc()
	}
	if earlyStop {
		r.EarlyStops.Inc()
	}
	if hvfCorrupt {
		r.HVFCorrupt.Inc()
	}
}

// AddForkStats folds a campaign's fork counters into the registry.
func (r *Registry) AddForkStats(forks, reuses uint64) {
	r.Forks.Add(forks)
	r.ForkReuses.Add(reuses)
}

// AddLadderStats folds a campaign's checkpoint-ladder counters into the
// registry.
func (r *Registry) AddLadderStats(rungHits, replayedCycles uint64) {
	r.RungHits.Add(rungHits)
	r.ReplayedCycles.Add(replayedCycles)
}

// FaultsPerSec returns the observed classification rate, clocked from
// the first verdict (not registry creation, whose idle setup and
// golden-prep time would deflate the rate). 0 before any verdict.
func (r *Registry) FaultsPerSec() float64 {
	ns := r.firstVerdict.Load()
	if ns == 0 {
		return 0
	}
	el := time.Since(time.Unix(0, ns)).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.FaultsDone.Load()) / el
}

// AttachProfiler folds p's wall-clock attribution tables into this
// registry's snapshots (nil detaches).
func (r *Registry) AttachProfiler(p *Profiler) { r.prof.Store(p) }

// Profiler returns the attached profiler, or nil.
func (r *Registry) Profiler() *Profiler { return r.prof.Load() }

// ForkReuseRate returns reuses/(forks+reuses), the fraction of per-fault
// setups served by resetting an existing fork scratch rather than forking
// fresh (0 when nothing ran yet).
func (r *Registry) ForkReuseRate() float64 {
	f, u := r.Forks.Load(), r.ForkReuses.Load()
	if f+u == 0 {
		return 0
	}
	return float64(u) / float64(f+u)
}

// RegistrySnapshot is a point-in-time copy of a Registry, suitable for
// JSON encoding.
type RegistrySnapshot struct {
	FaultsDone     uint64           `json:"faults_done"`
	Masked         uint64           `json:"masked"`
	SDC            uint64           `json:"sdc"`
	Crash          uint64           `json:"crash"`
	EarlyStops     uint64           `json:"early_stops"`
	FaultsSaved    uint64           `json:"faults_saved"`
	HVFCorrupt     uint64           `json:"hvf_corrupt"`
	FaultsPerSec   float64          `json:"faults_per_sec"`
	Forks          uint64           `json:"forks"`
	ForkReuses     uint64           `json:"fork_reuses"`
	ForkReuseRate  float64          `json:"fork_reuse_rate"`
	Pruned         uint64           `json:"pruned"`
	RungHits       uint64           `json:"rung_hits"`
	ReplayedCycles uint64           `json:"replayed_cycles"`
	GoldenRuns     uint64           `json:"golden_runs"`
	GoldenHits     uint64           `json:"golden_hits"`
	CellsStarted   uint64           `json:"cells_started"`
	CellsFinished  uint64           `json:"cells_finished"`
	CellsSkipped   uint64           `json:"cells_skipped"`
	CellLatencyMS  []BucketCount    `json:"cell_latency_ms,omitempty"`
	CellLatencySum uint64           `json:"cell_latency_sum_ms"`
	CellMeanMS     float64          `json:"cell_mean_ms"`
	UptimeSec      float64          `json:"uptime_sec"`
	Profile        *ProfileSnapshot `json:"profile,omitempty"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() RegistrySnapshot {
	var prof *ProfileSnapshot
	if p := r.prof.Load(); p != nil {
		ps := p.Snapshot()
		prof = &ps
	}
	return RegistrySnapshot{
		Profile:        prof,
		FaultsDone:     r.FaultsDone.Load(),
		Masked:         r.Masked.Load(),
		SDC:            r.SDC.Load(),
		Crash:          r.Crash.Load(),
		EarlyStops:     r.EarlyStops.Load(),
		FaultsSaved:    r.FaultsSaved.Load(),
		HVFCorrupt:     r.HVFCorrupt.Load(),
		FaultsPerSec:   r.FaultsPerSec(),
		Forks:          r.Forks.Load(),
		ForkReuses:     r.ForkReuses.Load(),
		ForkReuseRate:  r.ForkReuseRate(),
		Pruned:         r.Pruned.Load(),
		RungHits:       r.RungHits.Load(),
		ReplayedCycles: r.ReplayedCycles.Load(),
		GoldenRuns:     r.GoldenRuns.Load(),
		GoldenHits:     r.GoldenHits.Load(),
		CellsStarted:   r.CellsStarted.Load(),
		CellsFinished:  r.CellsFinished.Load(),
		CellsSkipped:   r.CellsSkipped.Load(),
		CellLatencyMS:  r.CellLatencyMS.Buckets(),
		CellLatencySum: r.CellLatencyMS.Sum(),
		CellMeanMS:     r.CellLatencyMS.Mean(),
		UptimeSec:      time.Since(r.start).Seconds(),
	}
}

// Publish exposes the registry under the given expvar name (the debug
// endpoint's /debug/vars). Republishing an existing name rebinds it to
// this registry instead of panicking, so tests and repeated CLI runs in
// one process are safe; a name held by a foreign (non-registry) expvar
// is left alone and reported as an error.
func (r *Registry) Publish(name string) error {
	f := expvar.Func(func() any { return r.Snapshot() })
	if v := expvar.Get(name); v != nil {
		fv, ok := v.(*rebindableVar)
		if !ok {
			return fmt.Errorf("obs: expvar name %q already held by a foreign %T", name, v)
		}
		fv.set(f)
		return nil
	}
	rv := &rebindableVar{}
	rv.set(f)
	expvar.Publish(name, rv)
	return nil
}

// rebindableVar lets Publish swap the backing registry for a name that is
// already registered (expvar.Publish itself panics on duplicates).
type rebindableVar struct{ v atomic.Value }

func (r *rebindableVar) set(f expvar.Func) { r.v.Store(f) }

func (r *rebindableVar) String() string {
	if f, ok := r.v.Load().(expvar.Func); ok {
		return f.String()
	}
	return "null"
}

package dispatch

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"marvel/internal/classify"
	"marvel/internal/obs"
)

// fakeScratch stands in for a forked system: it remembers its rung and
// reports one copied page and two restored sets per reset.
type fakeScratch struct {
	rung   int
	resets uint64
}

func (f *fakeScratch) Reset() { f.resets++ }

func (f *fakeScratch) ForkCounters() (uint64, uint64) { return f.resets, 2 * f.resets }

// verdictOf is a pure function of the fault index, like a real campaign's
// verdict is of (seed, index): every third fault is an SDC.
func verdictOf(i int) classify.Verdict {
	if i%3 == 0 {
		return classify.Verdict{Outcome: classify.SDC, Cycles: uint64(i)}
	}
	return classify.Verdict{Outcome: classify.Masked, Cycles: uint64(i)}
}

// testPlan builds an n-fault plan over rungs rung levels. Run fails the
// test if a scratch is not positioned at the fault's rung.
func testPlan(t *testing.T, n, rungs, workers int) Plan[*fakeScratch] {
	rungOf := make([]int, n)
	replay := make([]uint64, n)
	for i := range rungOf {
		rungOf[i] = (i * 7) % rungs // interleaved, so sorting matters
		replay[i] = uint64(i % 5)
	}
	return Plan[*fakeScratch]{
		Sizing: Sizing{Faults: n, Workers: workers},
		Rungs:  rungs - 1,
		Fork:   func(r int) *fakeScratch { return &fakeScratch{rung: r} },
		RungOf: rungOf,
		Replay: replay,
		Run: func(s *fakeScratch, i int, _ *obs.Lane) (classify.Verdict, error) {
			if s.rung != rungOf[i] {
				t.Errorf("fault %d ran on a rung-%d scratch, want rung %d", i, s.rung, rungOf[i])
			}
			return verdictOf(i), nil
		},
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	const n = 100
	var ref Summary
	for _, workers := range []int{1, 3, 8} {
		p := testPlan(t, n, 4, workers)
		var mu sync.Mutex
		seen := map[int]int{}
		p.OnVerdict = func(i int, v classify.Verdict) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			if v != verdictOf(i) {
				t.Errorf("OnVerdict(%d) got %+v", i, v)
			}
		}
		verdicts, out, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(verdicts) != n || out.Batches != 1 || out.Requested != n || out.FaultsSaved != 0 {
			t.Fatalf("workers=%d: %d verdicts in %d batches, %+v", workers, len(verdicts), out.Batches, out)
		}
		for i, v := range verdicts {
			if v != verdictOf(i) {
				t.Fatalf("workers=%d: verdict %d stored out of index order: %+v", workers, i, v)
			}
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: OnVerdict saw %d faults, want %d", workers, len(seen), n)
		}
		f := out.Forking
		if f.Forks+f.ReuseHits != n {
			t.Errorf("workers=%d: forks(%d) + reuses(%d) != %d", workers, f.Forks, f.ReuseHits, n)
		}
		// Every reset is one fake page and two fake sets, folded from each
		// scratch whether it was retired by a rung switch or at exit.
		if f.PagesCopied != f.ReuseHits || f.CacheSetsRestored != 2*f.ReuseHits {
			t.Errorf("workers=%d: fork counters not folded: %+v", workers, f)
		}
		var hits, replayed uint64
		for i := range p.RungOf {
			if p.RungOf[i] > 0 {
				hits++
			}
			replayed += p.Replay[i]
		}
		if f.RungHits != hits || f.ReplayedCycles != replayed || f.Rungs != 3 {
			t.Errorf("workers=%d: ladder accounting %+v, want %d hits, %d replayed, 3 rungs", workers, f, hits, replayed)
		}
		if workers == 1 {
			ref = out
			// One worker walks each batch in rung order: one fork per rung.
			if f.Forks != 4 {
				t.Errorf("serial dispatch forked %d times, want 4 (one per rung)", f.Forks)
			}
			continue
		}
		if out.Counts != ref.Counts || out.AchievedMargin != ref.AchievedMargin {
			t.Errorf("workers=%d: aggregate %+v/%v differs from serial %+v/%v", workers, out.Counts, out.AchievedMargin, ref.Counts, ref.AchievedMargin)
		}
	}
}

func TestRunNeverStartsMoreWorkersThanFaults(t *testing.T) {
	p := testPlan(t, 3, 1, 16)
	prof := obs.NewProfiler()
	p.Profile = prof
	if _, _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	if lanes := len(prof.Snapshot().Lanes); lanes > 3 {
		t.Fatalf("%d worker lanes for 3 faults", lanes)
	}
}

func TestRunRungSortedContiguousBatches(t *testing.T) {
	const n = 3*batchLen + 5
	p := testPlan(t, n, 3, 1)
	p.TargetMargin = 1e-9 // adaptive, never reached: every batch runs
	var order []int
	run := p.Run
	p.Run = func(s *fakeScratch, i int, lane *obs.Lane) (classify.Verdict, error) {
		order = append(order, i) // one worker: no race
		return run(s, i, lane)
	}
	verdicts, out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != 4 || len(verdicts) != n {
		t.Fatalf("%d batches, %d verdicts; want 4, %d", out.Batches, len(verdicts), n)
	}
	for b := 0; b*batchLen < n; b++ {
		lo, hi := b*batchLen, min((b+1)*batchLen, n)
		batch := order[lo:hi]
		for j, i := range batch {
			if i < lo || i >= hi {
				t.Fatalf("batch %d dispatched fault %d outside [%d, %d)", b, i, lo, hi)
			}
			if j > 0 {
				prev := batch[j-1]
				if p.RungOf[i] < p.RungOf[prev] || (p.RungOf[i] == p.RungOf[prev] && i < prev) {
					t.Fatalf("batch %d not in stable rung order at %d after %d", b, i, prev)
				}
			}
		}
	}
}

func TestRunAdaptiveStopsOnPrefix(t *testing.T) {
	const n = 20 * batchLen
	fixed, _, err := Run(testPlan(t, n, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 5} {
		p := testPlan(t, n, 2, workers)
		p.TargetMargin = 0.08
		p.MinFaults = 3 * batchLen
		verdicts, out, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		done := len(verdicts)
		if done == n || done%batchLen != 0 || done < p.MinFaults {
			t.Fatalf("workers=%d: stopped at %d, want a batch boundary in [%d, %d)", workers, done, p.MinFaults, n)
		}
		if out.Batches != done/batchLen || out.FaultsSaved != n-done {
			t.Errorf("workers=%d: %d batches, %d saved for %d faults", workers, out.Batches, out.FaultsSaved, done)
		}
		if out.AchievedMargin > p.TargetMargin {
			t.Errorf("workers=%d: achieved ±%v, target ±%v", workers, out.AchievedMargin, p.TargetMargin)
		}
		for i, v := range verdicts {
			if v != fixed[i] {
				t.Fatalf("workers=%d: adaptive verdict %d is not the fixed run's", workers, i)
			}
		}
	}
}

func TestRunAbortsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		p := testPlan(t, 10*batchLen, 1, workers)
		p.TargetMargin = 1e-9
		var mu sync.Mutex
		calls := 0
		p.Run = func(_ *fakeScratch, i int, _ *obs.Lane) (classify.Verdict, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			if i == 5 {
				return classify.Verdict{}, fmt.Errorf("fault %d: %w", i, boom)
			}
			return verdictOf(i), nil
		}
		verdicts, _, err := Run(p)
		if !errors.Is(err, boom) || verdicts != nil {
			t.Fatalf("workers=%d: got (%d verdicts, %v), want the run's error", workers, len(verdicts), err)
		}
		if calls > batchLen {
			t.Fatalf("workers=%d: %d runs after an error in the first batch", workers, calls)
		}
	}
}

func TestValidateSizingAndBudget(t *testing.T) {
	for _, c := range []struct {
		sz   Sizing
		want string
	}{
		{Sizing{Faults: 4}, ""},
		{Sizing{Faults: 4, LadderRungs: 8, TargetMargin: 0.05, Confidence: 2.58, MinFaults: 64, MaxFaults: 512}, ""},
		{Sizing{}, "fault count"},
		{Sizing{Faults: 4, LadderRungs: -1}, "ladder rungs"},
		{Sizing{Faults: 4, TargetMargin: -0.1}, "target margin"},
		{Sizing{Faults: 4, TargetMargin: 1}, "target margin"},
		{Sizing{Faults: 4, Confidence: -1}, "confidence"},
		{Sizing{Faults: 4, MinFaults: -1}, "min/max"},
		{Sizing{Faults: 4, MaxFaults: -1}, "min/max"},
	} {
		err := c.sz.Validate()
		if (err == nil) != (c.want == "") || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%+v.Validate() = %v, want %q", c.sz, err, c.want)
		}
	}
	budget := func(faults int, margin float64, maxFaults int) int {
		return Sizing{Faults: faults, TargetMargin: margin, MaxFaults: maxFaults}.Budget()
	}
	if budget(100, 0, 500) != 100 || budget(100, 0.05, 0) != 100 || budget(100, 0.05, 500) != 500 {
		t.Error("Budget: MaxFaults must replace Faults only when a margin is set")
	}
	if (Sizing{}).Z() != 1.96 || (Sizing{Confidence: -1}).Z() != 1.96 || (Sizing{Confidence: 2.58}).Z() != 2.58 {
		t.Error("Z must default to 1.96")
	}
}

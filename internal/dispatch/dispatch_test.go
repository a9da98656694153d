package dispatch

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"marvel/internal/classify"
	"marvel/internal/obs"
)

// fakeScratch stands in for a forked system: it remembers its rung and
// the cycle that rung was taken at, and reports one copied page and two
// restored sets per reset.
type fakeScratch struct {
	rung   int
	cycle  uint64
	resets uint64
}

func (f *fakeScratch) Fork() *fakeScratch { return &fakeScratch{rung: f.rung, cycle: f.cycle} }

func (f *fakeScratch) Reset() { f.resets++ }

func (f *fakeScratch) ForkCounters() (uint64, uint64) { return f.resets, 2 * f.resets }

// fakeWalker advances step cycles at a time, so it may overshoot a
// target, and its run ends at cycle end. Its snapshots are numbered rungs.
type fakeWalker struct {
	cycle, step, end uint64
	rungs            int
}

func (w *fakeWalker) Advance(target uint64) (uint64, bool) {
	for w.cycle < w.end && w.cycle < target {
		w.cycle += w.step
	}
	return w.cycle, w.cycle >= w.end
}

func (w *fakeWalker) Snapshot() *fakeScratch {
	w.rungs++
	return &fakeScratch{rung: w.rungs, cycle: w.cycle}
}

// fakeLadder is a ladder over the window [lo, hi) whose walker steps step
// cycles at a time through a run that ends at cycle end. walks, when
// non-nil, counts the walkers started.
func fakeLadder(lo, hi, step, end uint64, strict bool, walks *atomic.Int64) Ladder[*fakeScratch] {
	return Ladder[*fakeScratch]{
		Base: &fakeScratch{cycle: lo},
		Lo:   lo,
		Hi:   hi,
		Walk: func() (func(uint64) (uint64, bool), func() *fakeScratch) {
			if walks != nil {
				walks.Add(1)
			}
			w := &fakeWalker{cycle: lo, step: step, end: end}
			return w.Advance, w.Snapshot
		},
		Memo:           &LadderMemo[*fakeScratch]{},
		StrictlyBefore: strict,
	}
}

// verdictOf is a pure function of the fault index, like a real campaign's
// verdict is of (seed, index): every third fault is an SDC.
func verdictOf(i int) classify.Verdict {
	if i%3 == 0 {
		return classify.Verdict{Outcome: classify.SDC, Cycles: uint64(i)}
	}
	return classify.Verdict{Outcome: classify.Masked, Cycles: uint64(i)}
}

// testRung and testReplay are the rung fault i of a testPlan over rungs
// rung levels forks from, interleaved so sorting matters, and the cycles
// it replays there.
func testRung(i, rungs int) int { return (i * 7) % rungs }

func testReplay(i int) uint64 { return uint64(i % 5) }

// testPlan builds an n-fault plan over rungs rung levels: rung r sits at
// cycle 100·r and fault i is injected testReplay(i) cycles after rung
// testRung(i). Run fails the test if a scratch is not positioned at the
// fault's rung.
func testPlan(t *testing.T, n, rungs, workers int) Plan[*fakeScratch] {
	return Plan[*fakeScratch]{
		Sizing: Sizing{Faults: n, Workers: workers, LadderRungs: rungs - 1},
		Ladder: fakeLadder(0, uint64(100*rungs), 1, 1<<40, false, nil),
		Inject: func(i int) (uint64, bool) {
			return uint64(100*testRung(i, rungs)) + testReplay(i), true
		},
		Run: func(s *fakeScratch, i int, _ *obs.Lane) (classify.Verdict, error) {
			if want := testRung(i, rungs); s.rung != want || s.cycle != uint64(100*want) {
				t.Errorf("fault %d ran on a rung-%d scratch at cycle %d, want rung %d", i, s.rung, s.cycle, want)
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
		for i := 0; i < n; i++ {
			if testRung(i, 4) > 0 {
				hits++
			}
			replayed += testReplay(i)
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
				if r, rp := testRung(i, 3), testRung(prev, 3); r < rp || (r == rp && i < prev) {
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

func TestLadderRungPlacement(t *testing.T) {
	cycles := func(rungs []Rung[*fakeScratch]) []uint64 {
		var out []uint64
		for i, r := range rungs {
			if r.Sys.cycle != r.Cycle || (i > 0 && r.Sys.rung != i) {
				t.Errorf("rung %d records cycle %d but its snapshot is rung %d at %d", i, r.Cycle, r.Sys.rung, r.Sys.cycle)
			}
			out = append(out, r.Cycle)
		}
		return out
	}
	for _, c := range []struct {
		name              string
		lo, hi, step, end uint64
		k                 int
		want              []uint64
		walkerStarted     bool
	}{
		// lo + i·(hi−lo)/(k+1) for i = 1..k.
		{"evenly spaced", 10, 110, 1, 1 << 40, 4, []uint64{10, 30, 50, 70, 90}, true},
		// The walker overshoots 30 to 55 and 70 to 100; targets 50 and 90
		// then lie at or below the previous rung and are skipped.
		{"overshoot skips targets", 10, 110, 45, 1 << 40, 4, []uint64{10, 55, 100}, true},
		// The run ends at 60, before target 70: no rung at or past the end.
		{"stops at the end of the run", 10, 110, 1, 60, 4, []uint64{10, 30, 50}, true},
		{"empty window", 10, 10, 1, 1 << 40, 4, []uint64{10}, false},
		{"no mid-window rungs", 10, 110, 1, 1 << 40, 0, []uint64{10}, false},
	} {
		var walks atomic.Int64
		l := fakeLadder(c.lo, c.hi, c.step, c.end, false, &walks)
		rungs := l.Rungs(c.k)
		if got := cycles(rungs); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: rungs at %v, want %v", c.name, got, c.want)
		}
		if rungs[0].Sys != l.Base {
			t.Errorf("%s: rung 0 is not the ladder's base", c.name)
		}
		if started := walks.Load() > 0; started != c.walkerStarted {
			t.Errorf("%s: walker started %v, want %v", c.name, started, c.walkerStarted)
		}
	}
}

// TestLadderMemoBuildsOncePerKey runs concurrent Plans over one golden's
// memo with two depths and two window ends: each (depth, window end)
// ladder is walked exactly once and every Plan climbs the same rungs.
func TestLadderMemoBuildsOncePerKey(t *testing.T) {
	var walks atomic.Int64
	base := fakeLadder(0, 400, 1, 1<<40, false, &walks)
	var wg sync.WaitGroup
	var mu sync.Mutex
	forked := map[[2]uint64]map[*fakeScratch]bool{}
	for g := 0; g < 16; g++ {
		k, hi := 1+g%2, uint64(400+400*(g/2%2))
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := base
			l.Hi = hi
			p := Plan[*fakeScratch]{
				Sizing: Sizing{Faults: 8, Workers: 2, LadderRungs: k},
				Ladder: l,
				Inject: func(i int) (uint64, bool) { return uint64(i) * hi / 8, true },
				Run: func(*fakeScratch, int, *obs.Lane) (classify.Verdict, error) {
					return classify.Verdict{}, nil
				},
			}
			if _, _, err := Run(p); err != nil {
				t.Error(err)
			}
			rungs := l.Rungs(k)
			mu.Lock()
			key := [2]uint64{uint64(k), hi}
			if forked[key] == nil {
				forked[key] = map[*fakeScratch]bool{}
			}
			forked[key][rungs[len(rungs)-1].Sys] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got := walks.Load(); got != 4 {
		t.Errorf("%d ladder walks for 4 (depth, window end) keys", got)
	}
	for key, tops := range forked {
		if len(tops) != 1 {
			t.Errorf("key %v: %d distinct ladders, want one memoized", key, len(tops))
		}
	}
}

// TestLadderRungForSelection checks each engine's rung choice and the
// replay and rung-hit accounting that follows from it, on rungs at cycles
// 100 (rung 0), 200, 300 and 400.
func TestLadderRungForSelection(t *testing.T) {
	cases := []struct {
		name           string
		cycle          uint64
		transient      bool
		atOrBefore     int // the CPU's rule
		strictlyBefore int // the accelerator's rule
	}{
		{"at rung 0", 100, true, 0, 0},
		{"before first rung", 150, true, 0, 0},
		{"between rungs", 250, true, 1, 1},
		{"exactly at rung", 300, true, 2, 1},
		{"past last rung", 900, true, 3, 3},
		{"no transient pins rung 0", 390, false, 0, 0},
	}
	for _, strict := range []bool{false, true} {
		l := fakeLadder(100, 500, 1, 1<<40, strict, nil)
		rungs := l.Rungs(3)
		if len(rungs) != 4 || rungs[1].Cycle != 200 || rungs[3].Cycle != 400 {
			t.Fatalf("rungs at %+v, want 100, 200, 300, 400", rungs)
		}
		var hits, replayed uint64
		for _, c := range cases {
			want := c.atOrBefore
			if strict {
				want = c.strictlyBefore
			}
			if c.transient {
				if got := rungFor(rungs, strict, c.cycle); got != want {
					t.Errorf("strict %v, %s: rungFor = %d, want %d", strict, c.name, got, want)
				}
				replayed += c.cycle - rungs[want].Cycle
			}
			if want > 0 {
				hits++
			}
		}
		p := Plan[*fakeScratch]{
			Sizing: Sizing{Faults: len(cases), Workers: 1, LadderRungs: 3},
			Ladder: l,
			Inject: func(i int) (uint64, bool) { return cases[i].cycle, cases[i].transient },
			Run: func(s *fakeScratch, i int, _ *obs.Lane) (classify.Verdict, error) {
				want := cases[i].atOrBefore
				if strict {
					want = cases[i].strictlyBefore
				}
				if s.rung != want {
					t.Errorf("strict %v, %s: ran on rung %d, want %d", strict, cases[i].name, s.rung, want)
				}
				return classify.Verdict{}, nil
			},
		}
		_, sum, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if f := sum.Forking; f.Rungs != 3 || f.RungHits != hits || f.ReplayedCycles != replayed {
			t.Errorf("strict %v: accounting %+v, want 3 rungs, %d hits, %d replayed", strict, f, hits, replayed)
		}
	}
}

// TestLadderSkippedWithoutTransients: a plan whose faults are all
// permanent, with no pruning pass to see them, never walks the ladder,
// whatever its depth, and reports no rungs.
func TestLadderSkippedWithoutTransients(t *testing.T) {
	var walks atomic.Int64
	p := Plan[*fakeScratch]{
		Sizing: Sizing{Faults: 4, LadderRungs: 8},
		Ladder: fakeLadder(0, 1000, 1, 1<<40, false, &walks),
		Inject: func(int) (uint64, bool) { return 0, false },
		Run: func(s *fakeScratch, _ int, _ *obs.Lane) (classify.Verdict, error) {
			if s.rung != 0 {
				t.Errorf("permanent fault ran on rung %d", s.rung)
			}
			return classify.Verdict{}, nil
		},
	}
	_, sum, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if walks.Load() != 0 || sum.Forking.Rungs != 0 || sum.Forking.RungHits != 0 || sum.Forking.ReplayedCycles != 0 {
		t.Errorf("%d walks, accounting %+v; want no ladder", walks.Load(), sum.Forking)
	}
}

// TestRunPrunedSkipsScratch: a fault the Plan.Prune pass decides takes
// its verdict from there, reaches OnVerdict like any other, is counted in
// ForkStats.Pruned and neither forks nor resets a scratch, on any worker
// count.
func TestRunPrunedSkipsScratch(t *testing.T) {
	const n = 60
	pruned := func(i int) bool { return i%4 != 1 }
	for _, workers := range []int{1, 3} {
		p := testPlan(t, n, 1, workers)
		run := p.Run
		p.Run = func(s *fakeScratch, i int, lane *obs.Lane) (classify.Verdict, error) {
			if pruned(i) {
				t.Errorf("pruned fault %d was run", i)
			}
			return run(s, i, lane)
		}
		p.Prune = func(*fakeScratch) (func(int) (classify.Verdict, uint64, bool), error) {
			return func(i int) (classify.Verdict, uint64, bool) {
				if !pruned(i) {
					return classify.Verdict{}, 0, false
				}
				return verdictOf(i), 0, true
			}, nil
		}
		var calls atomic.Int64
		p.OnVerdict = func(int, classify.Verdict) { calls.Add(1) }
		verdicts, sum, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdicts {
			if v != verdictOf(i) {
				t.Errorf("%d workers: verdict %d = %+v, want %+v", workers, i, v, verdictOf(i))
			}
		}
		f := sum.Forking
		if f.Pruned != 45 || f.Forks+f.ReuseHits != n-45 || calls.Load() != n {
			t.Errorf("%d workers: pruned %d, forks %d + reuses %d, %d OnVerdict calls; want 45, 15 runs, %d calls",
				workers, f.Pruned, f.Forks, f.ReuseHits, calls.Load(), n)
		}
	}
}

// TestRunEmptyPlanWithPrune: a plan without faults returns at once, even
// with a pruning pass set; the pass has no earliest rung to start from
// and is not run.
func TestRunEmptyPlanWithPrune(t *testing.T) {
	p := testPlan(t, 0, 4, 2)
	p.Prune = func(*fakeScratch) (func(int) (classify.Verdict, uint64, bool), error) {
		t.Error("pruning pass ran for an empty plan")
		return nil, nil
	}
	verdicts, sum, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 0 || sum.Forking.Pruned != 0 || sum.Forking.Forks != 0 {
		t.Errorf("empty plan: %d verdicts, forking %+v", len(verdicts), sum.Forking)
	}
}

// TestPruneStartsFromEarliestRung: the pruning pass runs once, on a fork
// of the rung the earliest injection forks from, or of rung 0 once any
// fault is permanent; its error aborts the campaign before any fault runs.
func TestPruneStartsFromEarliestRung(t *testing.T) {
	cases := []struct {
		name     string
		inject   func(i int) (uint64, bool)
		strict   bool
		wantRung int
	}{
		{"transients past rung 2", func(i int) (uint64, bool) { return uint64(350 + i), true }, false, 2},
		{"earliest at a rung, at-or-before rule", func(i int) (uint64, bool) { return uint64(300 + 50*i), true }, false, 2},
		{"earliest at a rung, strictly-before rule", func(i int) (uint64, bool) { return uint64(300 + 50*i), true }, true, 1},
		{"one permanent fault", func(i int) (uint64, bool) { return 390, i != 3 }, false, 0},
	}
	for _, c := range cases {
		var passes atomic.Int64
		p := Plan[*fakeScratch]{
			Sizing: Sizing{Faults: 6, Workers: 2, LadderRungs: 3},
			Ladder: fakeLadder(100, 500, 1, 1<<40, c.strict, nil),
			Inject: c.inject,
			Run: func(*fakeScratch, int, *obs.Lane) (classify.Verdict, error) {
				return classify.Verdict{}, nil
			},
			Prune: func(s *fakeScratch) (func(int) (classify.Verdict, uint64, bool), error) {
				passes.Add(1)
				if s.rung != c.wantRung {
					t.Errorf("%s: pass started on rung %d, want %d", c.name, s.rung, c.wantRung)
				}
				return nil, nil
			},
		}
		if _, sum, err := Run(p); err != nil || sum.Forking.Pruned != 0 || passes.Load() != 1 {
			t.Errorf("%s: err %v, %d pruned, %d passes; want one pass proving none", c.name, err, sum.Forking.Pruned, passes.Load())
		}
	}
	boom := errors.New("golden pass departs")
	p := testPlan(t, 8, 1, 2)
	p.Run = func(*fakeScratch, int, *obs.Lane) (classify.Verdict, error) {
		t.Error("a fault ran after the pruning pass failed")
		return classify.Verdict{}, nil
	}
	p.Prune = func(*fakeScratch) (func(int) (classify.Verdict, uint64, bool), error) { return nil, boom }
	if _, _, err := Run(p); !errors.Is(err, boom) {
		t.Errorf("pass error %v, want %v", err, boom)
	}
}

// seenCase is one fault of TestRunForksSeenFaultsDeeper: its injection
// (none when permanent), what the pruning pass reports for it, and the
// rung it must fork from under each engine's rule.
type seenCase struct {
	name           string
	inject         uint64
	transient      bool
	seen           uint64
	proven         bool
	atOrBefore     int
	strictlyBefore int
}

// seenCases run on rungs at cycles 100 (rung 0), 200, 300 and 400.
var seenCases = []seenCase{
	{"transient seen past the next rung", 150, true, 250, false, 1, 1},
	{"transient seen at a rung", 250, true, 300, false, 2, 1},
	{"transient seen before the next rung", 350, true, 360, false, 2, 2},
	{"transient, seen unknown", 350, true, 0, false, 2, 2},
	{"transient seen before its own rung", 450, true, 150, false, 3, 3},
	{"permanent seen at a rung", 0, false, 400, false, 3, 2},
	{"permanent seen past the last rung", 0, false, 900, false, 3, 3},
	{"permanent seen at rung 0", 0, false, 100, false, 0, 0},
	{"permanent, seen unknown", 0, false, 0, false, 0, 0},
	{"permanent proven", 0, false, 0, true, 0, 0},
}

// seenPlan runs the fault cases of cs over the ladder l at the given
// depth, failing the test when a fault runs on another rung than want
// says or a proven one runs at all.
func seenPlan(t *testing.T, l Ladder[*fakeScratch], depth int, cs []seenCase, want func(seenCase) int) Plan[*fakeScratch] {
	return Plan[*fakeScratch]{
		Sizing: Sizing{Faults: len(cs), Workers: 2, LadderRungs: depth},
		Ladder: l,
		Inject: func(i int) (uint64, bool) { return cs[i].inject, cs[i].transient },
		Run: func(s *fakeScratch, i int, _ *obs.Lane) (classify.Verdict, error) {
			if cs[i].proven {
				t.Errorf("%s: proven fault ran", cs[i].name)
			}
			if w := want(cs[i]); s.rung != w {
				t.Errorf("strict %v, depth %d, %s: ran on rung %d, want %d", l.StrictlyBefore, depth, cs[i].name, s.rung, w)
			}
			return verdictOf(i), nil
		},
		Prune: func(*fakeScratch) (func(int) (classify.Verdict, uint64, bool), error) {
			return func(i int) (classify.Verdict, uint64, bool) {
				if cs[i].proven {
					return verdictOf(i), 0, true
				}
				return classify.Verdict{}, cs[i].seen, false
			}, nil
		},
	}
}

// TestRunForksSeenFaultsDeeper: a fault the pruning pass saw forks from
// the latest rung the ladder's rule allows at the cycle it was seen,
// never from a shallower rung than its injection's, and the rung hits
// and replayed cycles follow from the rung it ran on; without a ladder
// every fault stays on rung 0.
func TestRunForksSeenFaultsDeeper(t *testing.T) {
	for _, strict := range []bool{false, true} {
		want := func(c seenCase) int {
			if strict {
				return c.strictlyBefore
			}
			return c.atOrBefore
		}
		for _, depth := range []int{3, 0} {
			l := fakeLadder(100, 500, 1, 1<<40, strict, nil)
			rungs := l.Rungs(depth)
			wantRung := func(c seenCase) int { return min(want(c), len(rungs)-1) }
			var hits, replayed uint64
			for _, c := range seenCases {
				r := wantRung(c)
				if c.proven {
					continue
				}
				if r > 0 {
					hits++
				}
				if c.transient && c.inject > rungs[r].Cycle {
					replayed += c.inject - rungs[r].Cycle
				}
			}
			verdicts, sum, err := Run(seenPlan(t, l, depth, seenCases, wantRung))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range verdicts {
				if v != verdictOf(i) {
					t.Errorf("strict %v, depth %d: verdict %d = %+v, want %+v", strict, depth, i, v, verdictOf(i))
				}
			}
			if f := sum.Forking; f.Rungs != depth || f.Pruned != 1 || f.RungHits != hits || f.ReplayedCycles != replayed {
				t.Errorf("strict %v, depth %d: accounting %+v, want %d rungs, 1 pruned, %d hits, %d replayed",
					strict, depth, f, depth, hits, replayed)
			}
		}
	}
}

// TestRunBuildsLadderForSeenPermanents: a plan of permanent faults only
// walks the ladder once the pruning pass saw some fault past rung 0,
// and then runs each fault on the rung that cycle allows.
func TestRunBuildsLadderForSeenPermanents(t *testing.T) {
	var permanent []seenCase
	for _, c := range seenCases {
		if !c.transient {
			permanent = append(permanent, c)
		}
	}
	near := []seenCase{permanent[2], permanent[3], permanent[4]} // seen at rung 0, unknown, proven
	for _, c := range []struct {
		name  string
		cases []seenCase
		depth int
		walks int64
	}{
		{"none seen past rung 0", near, 3, 0},
		{"some seen past rung 0", permanent, 3, 1},
		{"no ladder", permanent, 0, 0},
	} {
		var walks atomic.Int64
		l := fakeLadder(100, 500, 1, 1<<40, true, &walks)
		p := seenPlan(t, l, c.depth, c.cases, func(sc seenCase) int {
			if c.depth == 0 {
				return 0
			}
			return sc.strictlyBefore
		})
		_, sum, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if walks.Load() != c.walks || sum.Forking.Rungs != int(c.walks)*c.depth {
			t.Errorf("%s: %d walks, %d rungs; want %d walks", c.name, walks.Load(), sum.Forking.Rungs, c.walks)
		}
	}
}

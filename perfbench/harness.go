package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"marvel/internal/obs"
)

// isaNames and accelDesigns fix the order metrics are declared and
// reported in.
var (
	isaNames     = []string{"arm", "x86", "riscv"}
	accelDesigns = []string{"bfs", "fft", "gemm", "md_knn", "mergesort", "spmv", "stencil2d", "stencil3d"}
)

// fnvHex is the FNV-1a digest of s, in hex.
func fnvHex(s string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64())
}

// cpuTime is the host CPU time (user + system) the benchmark process has
// used so far, over all its threads. Time the hypervisor stole from the
// virtual CPUs is not in it, so figures on this clock do not move with the
// load other guests put on a shared host, as wall-clock figures do.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch reads wall-clock and CPU time from one starting point.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuTime()} }

// stop returns the wall-clock and CPU time since start.
func (s stopwatch) stop() (wall, cpu time.Duration) { return time.Since(s.wall), cpuTime() - s.cpu }

// timedSetup runs setup reps times and returns the median host CPU time in
// seconds; the state of the last repetition is kept by the caller's
// closure. Repeating set-up and reporting the median keeps one slow
// repetition from moving setup_s.
func timedSetup(reps int, setup func() error) (float64, error) {
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		watch := startWatch()
		if err := setup(); err != nil {
			return 0, err
		}
		_, cpu := watch.stop()
		secs = append(secs, cpu.Seconds())
	}
	return median(secs), nil
}

// liveHeapMB forces a garbage collection and returns the heap it marked
// live, in MB (10^6 bytes). Workloads call it at a fixed point of each
// pass, outside the timed window, while the pass's largest retained state
// is still reachable, so the figure does not depend on when the collector
// happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / 1e6
}

// latencies collects per-job latencies in milliseconds, on both clocks,
// from concurrent goroutines.
type latencies struct {
	mu        sync.Mutex
	wall, cpu []float64
}

func (l *latencies) add(wall, cpu time.Duration) {
	l.mu.Lock()
	l.wall = append(l.wall, float64(wall.Nanoseconds())/1e6)
	l.cpu = append(l.cpu, float64(cpu.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// cpuQuantiles returns the p50 and p90 of the job latencies on the CPU
// clock, and their sample count.
func (l *latencies) cpuQuantiles() (p50, p90 float64, n int) {
	l.mu.Lock()
	xs := append([]float64(nil), l.cpu...)
	l.mu.Unlock()
	return quantile(xs, 0.5), quantile(xs, 0.9), len(xs)
}

// report sets the end-to-end metrics of an untraced run, which are on the
// CPU clock, and prints the job latencies and the wall-clock figures
// beside them.
func (l *latencies) report(b *bench, what string, m *measured, setup float64) {
	b.set("runs_per_cpu_s", m.rate)
	b.set("setup_s", setup)
	b.set("heap_peak_mb", m.heapMB)
	b.say("host CPU clock: runs_per_cpu_s=%.3f (median pass rate); setup_s=%.5f (median set-up)", m.rate, setup)
	b.say("heap_peak_mb=%.3f (live Go heap at the pass's high-water state, median over passes)", m.heapMB)
	l.mu.Lock()
	wall := append([]float64(nil), l.wall...)
	l.mu.Unlock()
	p50, p90, n := l.cpuQuantiles()
	b.say("%d %s: p50 %.3f ms, p90 %.3f ms on the host CPU clock; p50 %.3f ms, p90 %.3f ms on the wall clock",
		n, what, p50, p90, quantile(wall, 0.5), quantile(wall, 0.9))
	b.say("wall clock: %.3f runs/s (median pass rate), %.3f jobs/s", m.wallRate, float64(n)/m.window.Seconds())
}

// cellTimer turns sweep progress snapshots into per-cell latencies. The
// orchestrator serializes progress callbacks and names the cell that just
// started or finished, so start and finish events pair by key.
type cellTimer struct {
	lat     *latencies
	started map[string]stopwatch
	last    struct{ started, finished int }
}

func newCellTimer(lat *latencies) *cellTimer {
	return &cellTimer{lat: lat, started: map[string]stopwatch{}}
}

// observe is the sweep.Spec.OnProgress callback.
func (c *cellTimer) observe(started, finished int, key string) {
	switch {
	case started > c.last.started:
		c.started[key] = startWatch()
	case finished > c.last.finished:
		if watch, ok := c.started[key]; ok {
			c.lat.add(watch.stop())
			delete(c.started, key)
		}
	}
	c.last.started, c.last.finished = started, finished
}

// passOut is what one pass of a workload reports.
type passOut struct {
	digest string        // of its verdicts or outputs
	runs   int           // simulations it ran
	window time.Duration // wall-clock time of its measured work, per-pass set-up excluded
	cpu    time.Duration // host CPU time of the process over the same window
	heapMB float64       // liveHeapMB at the pass's high-water state, outside the window
}

// passFunc runs one pass of a workload. prof is non-nil only on the traced
// pass.
type passFunc func(p int, prof *obs.Profiler) passOut

// measured is what measure observed.
type measured struct {
	runs   int
	window time.Duration // summed wall-clock time of the measured passes
	cpu    time.Duration // summed host CPU time of the measured passes
	// rate, wallRate and heapMB are medians over the measured passes of
	// runs per host CPU second, runs per wall-clock second and the live
	// heap at the high-water state; medians keep one disturbed pass from
	// moving them.
	rate, wallRate float64
	heapMB         float64
	// prof is the traced pass's span profiler (traced runs only).
	prof *obs.Profiler
}

// measure runs passes. Untraced, it repeats passes with the same seed
// until -seconds of wall-clock time are measured (at least two, so
// repetitions can be compared). Traced, it runs one untraced pass and then
// one pass under the span profiler and a CPU profile, so tracing overhead
// shows as untraced.runs_per_cpu_s beside traced.runs_per_cpu_s. Every
// pass must reproduce the first pass's digest.
func measure(b *bench, pass passFunc) (*measured, error) {
	m := &measured{}
	var first string
	check := func(p int, o passOut) {
		b.say("pass %d digest %s: %d runs in %.3f wall s (%.3f runs/s) and %.3f host CPU s (%.3f runs/CPU s)",
			p, o.digest, o.runs, o.window.Seconds(), float64(o.runs)/o.window.Seconds(), o.cpu.Seconds(), float64(o.runs)/o.cpu.Seconds())
		if p == 0 {
			first = o.digest
		} else if o.digest != first {
			b.fail("pass %d digest %s differs from pass 0 digest %s (same seed)", p, o.digest, first)
		}
	}
	if !b.trace {
		var rates, wallRates, heaps []float64
		for p := 0; p < 2 || m.window.Seconds() < b.seconds; p++ {
			o := pass(p, nil)
			check(p, o)
			m.runs += o.runs
			m.window += o.window
			m.cpu += o.cpu
			rates = append(rates, float64(o.runs)/o.cpu.Seconds())
			wallRates = append(wallRates, float64(o.runs)/o.window.Seconds())
			heaps = append(heaps, o.heapMB)
		}
		m.rate, m.wallRate, m.heapMB = median(rates), median(wallRates), median(heaps)
		return m, nil
	}

	o := pass(0, nil)
	check(0, o)
	b.set("untraced.runs_per_cpu_s", float64(o.runs)/o.cpu.Seconds())
	m.prof = obs.NewProfiler()
	prof, err := startCPUProfile(b.tmp)
	if err != nil {
		return nil, err
	}
	o = pass(1, m.prof)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	check(1, o)
	m.runs, m.window, m.cpu = o.runs, o.window, o.cpu
	m.rate, m.wallRate = float64(o.runs)/o.cpu.Seconds(), float64(o.runs)/o.window.Seconds()
	b.set("traced.runs_per_cpu_s", m.rate)
	for _, name := range sortedKeys(shares) {
		b.set("prof.share."+name, shares[name])
	}
	return m, probeLayers(b)
}

package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"marvel"
	"marvel/internal/obs"
)

// sizing holds the flags campaign, accel, sweep, explain and submit
// share: the sampling knobs, the run shape and the observers. Each flag
// is declared once, in bindSizing, so every subcommand spells, defaults
// and documents it the same way.
type sizing struct {
	faults, bits, workers, ladder, physRegs int
	seed                                    int64
	margin, confidence, watchdog            float64
	validOnly, earlyTerm, hvf               bool
	preset, debugAddr, timeline             string
	cpuProfile, memProfile                  string
}

// bindSizing declares the named shared flags on fs.
func bindSizing(fs *flag.FlagSet, names ...string) *sizing {
	s := &sizing{}
	for _, name := range names {
		switch name {
		case "faults":
			fs.IntVar(&s.faults, name, 1000, "statistical sample size (per cell in a sweep)")
		case "seed":
			fs.Int64Var(&s.seed, name, 1, "mask generation seed")
		case "bits":
			fs.IntVar(&s.bits, name, 1, "bits per fault (> 1 selects multi-bit masks)")
		case "workers":
			fs.IntVar(&s.workers, name, 0, "campaign worker budget (0 = GOMAXPROCS); results are worker-count invariant")
		case "ladder":
			fs.IntVar(&s.ladder, name, 0, "checkpoint-ladder rungs inside the injection window (0 = single checkpoint); results are bit-identical for every value")
		case "margin":
			fs.Float64Var(&s.margin, name, 0, "adaptive sizing: stop once the Wilson half-width on AVF reaches this margin (0 = fixed -faults budget); results are a bit-identical prefix of the fixed run")
		case "confidence":
			fs.Float64Var(&s.confidence, name, 0, "confidence z quantile for adaptive stopping and reported margins (0 = 1.96, i.e. 95%)")
		case "watchdog":
			fs.Float64Var(&s.watchdog, name, 0, "watchdog factor × golden cycles bounding faulty runs (0 = engine default)")
		case "validonly":
			fs.BoolVar(&s.validOnly, name, true, "draw CPU faults over live entries only")
		case "earlyterm":
			fs.BoolVar(&s.earlyTerm, name, false, "enable early-termination optimizations")
		case "physregs":
			fs.IntVar(&s.physRegs, name, 0, "override physical register count (0 = 128)")
		case "preset":
			fs.StringVar(&s.preset, name, "table2", "CPU hardware preset: table2, fast")
		case "hvf":
			fs.BoolVar(&s.hvf, name, false, "also run HVF analysis (CPU)")
		case "debug-addr":
			fs.StringVar(&s.debugAddr, name, "", "serve live /metrics, /debug/vars and /debug/pprof/ on this address while the run lasts (e.g. localhost:6060)")
		case "timeline":
			fs.StringVar(&s.timeline, name, "", "write a per-worker Chrome trace-event timeline (Perfetto-loadable) to this file and print a where-the-time-went table; verdicts are bit-identical with and without it")
		case "cpuprofile":
			fs.StringVar(&s.cpuProfile, name, "", "write a pprof CPU profile of the run to this file")
		case "memprofile":
			fs.StringVar(&s.memProfile, name, "", "write a pprof heap profile, taken after the run, to this file")
		default:
			panic("marvel: no shared flag " + name)
		}
	}
	return s
}

// campaign fills CPU campaign options from the sizing flags.
func (s *sizing) campaign(isa, workload, target, model string) marvel.CampaignOptions {
	return marvel.CampaignOptions{
		ISA:              isa,
		Workload:         workload,
		Target:           target,
		Model:            marvel.FaultModel(model),
		Faults:           s.faults,
		Seed:             s.seed,
		BitsPerFault:     s.bits,
		HVF:              s.hvf,
		ValidOnly:        s.validOnly,
		EarlyTermination: s.earlyTerm,
		WatchdogFactor:   s.watchdog,
		PhysRegs:         s.physRegs,
		Preset:           s.preset,
		Workers:          s.workers,
		LadderRungs:      s.ladder,
		TargetMargin:     s.margin,
		Confidence:       s.confidence,
	}
}

// accel fills accelerator campaign options from the sizing flags.
func (s *sizing) accel(design, component, model string) marvel.AccelOptions {
	return marvel.AccelOptions{
		Design:       design,
		Component:    component,
		Model:        marvel.FaultModel(model),
		Faults:       s.faults,
		Seed:         s.seed,
		Workers:      s.workers,
		LadderRungs:  s.ladder,
		TargetMargin: s.margin,
		Confidence:   s.confidence,
	}
}

// observed is what the observer flags started for one run. profiler is
// the run's span profiler (nil without -timeline); finish ends the
// observers after the run succeeded; stop, deferred by the caller, shuts
// the debug endpoint and drops a CPU profile that finish never ended.
type observed struct {
	tl        *timelineRun
	cpuProf   *os.File // open while the CPU profile runs
	memProf   string
	stopDebug func()
}

// observe starts what -debug-addr, -timeline, -cpuprofile and -memprofile
// ask for: the debug endpoint over reg (created if nil), the timeline
// profiler attached to the registry, and the CPU profile.
func (s *sizing) observe(reg *obs.Registry) (*obs.Registry, *observed, error) {
	o := &observed{memProf: s.memProfile, stopDebug: func() {}}
	if s.debugAddr != "" {
		if reg == nil {
			reg = marvel.NewMetricsRegistry()
		}
		srv, err := marvel.ServeDebug(s.debugAddr, reg)
		if err != nil {
			return nil, nil, err
		}
		o.stopDebug = func() { _ = srv.Close() } // shutdown after the run: nothing left to report to
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/metrics (also /debug/vars, /debug/pprof/)\n", srv.Addr)
	}
	if s.timeline != "" {
		tl, err := startTimeline(s.timeline)
		if err != nil {
			o.stop()
			return nil, nil, err
		}
		o.tl = tl
		if reg != nil {
			reg.AttachProfiler(tl.prof)
		}
	}
	if s.cpuProfile != "" {
		f, err := os.Create(s.cpuProfile)
		if err != nil {
			o.stop()
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profile never started; its error is the one to report
			o.stop()
			return nil, nil, err
		}
		o.cpuProf = f
	}
	return reg, o, nil
}

// profiler is the run's span profiler; nil when no -timeline was asked for.
func (o *observed) profiler() *obs.Profiler { return o.tl.profiler() }

// finish ends the observers of a run that succeeded: it stops and closes
// the CPU profile, writes the heap profile, and closes the timeline and
// prints its where-the-time-went table.
func (o *observed) finish() error {
	if f := o.cpuProf; f != nil {
		o.cpuProf = nil
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.memProf != "" {
		if err := writeHeapProfile(o.memProf); err != nil {
			return err
		}
	}
	return o.tl.finish()
}

// stop shuts the debug endpoint and, when the run failed before finish,
// stops the CPU profile.
func (o *observed) stop() {
	if f := o.cpuProf; f != nil {
		o.cpuProf = nil
		pprof.StopCPUProfile()
		_ = f.Close() // the run failed; its error is the one to report
	}
	o.stopDebug()
}

// writeHeapProfile writes a heap profile, as of a fresh garbage
// collection, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

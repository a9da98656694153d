package main

import (
	"flag"
	"fmt"
	"os"

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

// observe starts what -debug-addr and -timeline ask for: the debug
// endpoint over reg (created if nil) and the timeline profiler, attached
// to the registry. The caller defers stop and finishes tl after the run.
func (s *sizing) observe(reg *obs.Registry) (_ *obs.Registry, tl *timelineRun, stop func(), err error) {
	stop = func() {}
	if s.debugAddr != "" {
		if reg == nil {
			reg = marvel.NewMetricsRegistry()
		}
		srv, err := marvel.ServeDebug(s.debugAddr, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		stop = func() { _ = srv.Close() } // shutdown after the run: nothing left to report to
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/metrics (also /debug/vars, /debug/pprof/)\n", srv.Addr)
	}
	if s.timeline != "" {
		if tl, err = startTimeline(s.timeline); err != nil {
			stop()
			return nil, nil, nil, err
		}
		if reg != nil {
			reg.AttachProfiler(tl.prof)
		}
	}
	return reg, tl, stop, nil
}

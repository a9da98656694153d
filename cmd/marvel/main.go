// Command marvel is the campaign-runner CLI: it lists the framework's
// workloads, targets and accelerator designs, and runs individual fault
// injection campaigns from the command line.
//
//	marvel list
//	marvel campaign -isa riscv -workload sha -target prf -faults 1000 -hvf
//	marvel campaign -isa arm -workload crc32 -target prf+rob+iq -bits 2
//	marvel sweep -isas arm,riscv -workloads crc32,sha -targets prf,l1d -out /tmp/sweep -csv fig.csv
//	marvel explain -isa riscv -workload sha -target prf -seed 1 -index 42
//	marvel accel -design gemm -component MATRIX1 -faults 1000
//	marvel golden -isa arm -workload dijkstra
//	marvel soc -isa riscv -design gemm
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"marvel"
	"marvel/internal/core"
	"marvel/internal/figures"
	"marvel/internal/obs"
	"marvel/internal/sweep"
)

// usageError marks a validation failure — bad flag value, unknown name,
// inconsistent combination — as distinct from a runtime failure. Usage
// errors exit 2 (like the flag package's own parse errors); everything
// else exits 1.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// usagef builds a usageError.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "campaign":
		err = cmdCampaign(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "accel":
		err = cmdAccel(os.Args[2:])
	case "golden":
		err = cmdGolden(os.Args[2:])
	case "soc":
		err = cmdSoC(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "marvel: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "marvel:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Println(`marvel — microarchitecture-level fault injection for heterogeneous SoCs

commands:
  list                      show workloads, CPU targets, designs and components
  campaign [flags]          run a CPU fault-injection campaign
  sweep    [flags]          run a grid of campaigns with a shared golden cache
  explain  [flags]          re-run one campaign fault with tracing and narrate it
  accel    [flags]          run an accelerator fault-injection campaign
  golden   [flags]          run a workload without faults (performance)
  soc      [flags]          run a CPU+accelerator full-system demo
  serve    [flags]          run the campaign service (HTTP job daemon)
  submit   [flags]          submit a job to a running campaign service
  watch    [flags]          stream a served job's verdict events

run 'marvel <command> -h' for flags`)
}

func cmdList() error {
	fmt.Println("ISAs:      ", marvel.ISAs())
	fmt.Println("targets:   ", marvel.CPUTargets())
	fmt.Println("workloads: ", marvel.WorkloadNames())
	fmt.Println("designs:   ", marvel.DesignNames())
	fmt.Println("\nTable IV components:")
	for _, c := range marvel.TableIV() {
		fmt.Printf("  %-11s %-9s %7s paper %6dB, modeled %5dB\n",
			c.Design, c.Name, c.Kind, c.PaperBytes, c.ModelBytes)
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	isaName := fs.String("isa", "riscv", "ISA: arm, x86, riscv")
	wl := fs.String("workload", "sha", "workload name")
	target := fs.String("target", "prf", "injection target: "+strings.Join(marvel.CPUTargets(), ", ")+`; a "+"-joined combo (prf+rob+iq) selects multi-structure mode`)
	model := fs.String("model", "transient", "fault model: transient, stuck-at-0, stuck-at-1")
	sz := bindSizing(fs, "faults", "seed", "bits", "hvf", "validonly", "earlyterm", "watchdog", "physregs",
		"workers", "ladder", "margin", "confidence", "preset", "debug-addr", "timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := sz.campaign(*isaName, *wl, *target, *model)
	if err := opts.Validate(); err != nil {
		return usageError{err}
	}
	reg, tl, stop, err := sz.observe(nil)
	if err != nil {
		return err
	}
	defer stop()
	opts.Metrics, opts.Profile = reg, tl.profiler()
	rep, err := marvel.RunCampaign(opts)
	if err != nil {
		return err
	}
	if err := tl.finish(); err != nil {
		return err
	}
	fmt.Printf("workload=%s isa=%s target=%s model=%s\n", rep.Workload, rep.ISA, rep.Target, rep.Model)
	fmt.Printf("golden: %d cycles, %d insts, IPC %.2f\n", rep.GoldenCycles, rep.GoldenInsts, rep.IPC)
	fmt.Printf("faults: %d (margin ±%.2f%% at %.0f%%)\n", rep.Faults, 100*rep.Margin, confidencePct(rep.Z))
	if sz.margin > 0 {
		fmt.Printf("adaptive: target ±%.2f%%, achieved ±%.2f%%, %d of %d budget (%d saved) in %d batches\n",
			100*sz.margin, 100*rep.AchievedMargin, rep.Faults, rep.Requested, rep.FaultsSaved, rep.Batches)
	}
	fmt.Printf("masked=%d sdc=%d crash=%d early-stops=%d\n", rep.Masked, rep.SDC, rep.Crash, rep.EarlyStops)
	fmt.Printf("AVF=%.4f (SDC %.4f + Crash %.4f)\n", rep.AVF, rep.SDCAVF, rep.CrashAVF)
	if rep.HVFMeasured {
		fmt.Printf("HVF=%.4f\n", rep.HVF)
	}
	fmt.Printf("forking: cow-fork, %d forks, %d reuses, %d pages copied, %d cache sets restored\n",
		rep.Forks, rep.ForkReuses, rep.PagesCopied, rep.SetsRestored)
	if rep.Rungs > 0 {
		fmt.Printf("ladder: %d rungs, %d rung hits, %d cycles replayed pre-injection\n",
			rep.Rungs, rep.RungHits, rep.ReplayedCycles)
	}
	return nil
}

// progressLine is one JSONL record of -progress-jsonl: the sweep progress
// snapshot plus the live metrics-registry snapshot at the same instant.
type progressLine struct {
	sweep.Snapshot
	ElapsedSec float64              `json:"elapsed_sec"`
	ETASec     float64              `json:"eta_sec"`
	Metrics    obs.RegistrySnapshot `json:"metrics"`
}

// timelineRun wires the -timeline flag shared by campaign, accel and
// sweep: a profiler whose spans stream to a Chrome trace-event file.
type timelineRun struct {
	path string
	prof *obs.Profiler
	tw   *obs.TimelineWriter
}

// startTimeline opens path and returns the profiler to hand to the run.
func startTimeline(path string) (*timelineRun, error) {
	tw, err := obs.CreateTimeline(path)
	if err != nil {
		return nil, err
	}
	prof := obs.NewProfiler()
	prof.AttachTimeline(tw)
	return &timelineRun{path: path, prof: prof, tw: tw}, nil
}

// profiler is the run's profiler; nil when no -timeline was asked for.
func (t *timelineRun) profiler() *obs.Profiler {
	if t == nil {
		return nil
	}
	return t.prof
}

// finish closes the trace file and prints the where-the-time-went table.
// Nil-safe, so callers can defer it unconditionally; Close is idempotent.
func (t *timelineRun) finish() error {
	if t == nil {
		return nil
	}
	if err := t.tw.Close(); err != nil {
		return err
	}
	fmt.Print(t.prof.Snapshot().Table())
	fmt.Printf("timeline written to %s (load in Perfetto or chrome://tracing)\n", t.path)
	return nil
}

// confidencePct converts a z quantile to its two-sided confidence level
// in percent (1.96 → 95), so reported margins name the confidence they
// were actually computed at instead of a hard-coded "95%".
func confidencePct(z float64) float64 {
	if z <= 0 {
		z = 1.96
	}
	return 100 * math.Erf(z/math.Sqrt2)
}

// csvList splits a comma-separated flag value; empty means nil.
func csvList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	isas := fs.String("isas", "", "comma-separated ISAs (CPU grid), e.g. arm,x86,riscv")
	wls := fs.String("workloads", "", "comma-separated workloads (empty = all fifteen)")
	targets := fs.String("targets", "", `comma-separated CPU targets; each may be a "+"-joined combo (prf+rob+iq)`)
	designs := fs.String("designs", "", "comma-separated accelerator designs")
	comps := fs.String("components", "", "comma-separated components (empty = every Table IV component)")
	models := fs.String("models", "", "comma-separated fault models (empty = transient)")
	sz := bindSizing(fs, "faults", "seed", "bits", "hvf", "validonly", "earlyterm", "watchdog", "physregs",
		"preset", "ladder", "margin", "confidence", "workers", "debug-addr", "timeline")
	cellPar := fs.Int("cellpar", 0, "concurrent cells (0 = up to 3)")
	out := fs.String("out", "", "persist + resume directory (manifest.json, cells.jsonl)")
	resume := fs.Bool("resume", false, "require an existing sweep journal in -out and resume it (fail instead of silently starting fresh)")
	csvPath := fs.String("csv", "", "write the Figure 9-11 CSV of all cells to this file (- = stdout)")
	quiet := fs.Bool("quiet", false, "suppress the live progress line")
	progressJSONL := fs.String("progress-jsonl", "", "append machine-readable progress snapshots (with registry metrics) to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := sweep.Spec{
		ISAs:             csvList(*isas),
		Workloads:        csvList(*wls),
		Targets:          csvList(*targets),
		Designs:          csvList(*designs),
		Components:       csvList(*comps),
		Models:           csvList(*models),
		Faults:           sz.faults,
		Seed:             sz.seed,
		BitsPerFault:     sz.bits,
		ValidOnly:        sz.validOnly,
		HVF:              sz.hvf,
		EarlyTermination: sz.earlyTerm,
		WatchdogFactor:   sz.watchdog,
		PhysRegs:         sz.physRegs,
		Preset:           sz.preset,
		LadderRungs:      sz.ladder,
		TargetMargin:     sz.margin,
		Confidence:       sz.confidence,
		Workers:          sz.workers,
		CellParallel:     *cellPar,
		OutDir:           *out,
	}
	if err := spec.Validate(); err != nil {
		return usageError{err}
	}
	if *resume {
		if *out == "" {
			return usagef("-resume needs -out pointing at the sweep's journal directory")
		}
		manifest := filepath.Join(*out, "manifest.json")
		if _, err := os.Stat(manifest); err != nil {
			return usagef("nothing to resume: no sweep journal at %s (drop -resume to start a fresh sweep)", manifest)
		}
	}
	if *progressJSONL != "" {
		spec.Metrics = marvel.NewMetricsRegistry()
	}
	reg, tl, stop, err := sz.observe(spec.Metrics)
	if err != nil {
		return err
	}
	defer stop()
	spec.Metrics, spec.Profile = reg, tl.profiler()
	if !*quiet {
		var lastDraw time.Time
		spec.OnProgress = func(s sweep.Snapshot) {
			// Redraw at most ~10×/s; always draw cell transitions so the
			// final state (and short sweeps) never go stale.
			cellEdge := s.CellsFinished+s.CellsSkipped == s.TotalCells
			if !cellEdge && time.Since(lastDraw) < 100*time.Millisecond {
				return
			}
			lastDraw = time.Now()
			line := fmt.Sprintf("\r\x1b[Kcells %d/%d (%d resumed) | faults %d/%d | early-stops %d",
				s.CellsFinished+s.CellsSkipped, s.TotalCells, s.CellsSkipped,
				s.FaultsDone, s.TotalFaults, s.EarlyStops)
			if s.FaultsSaved > 0 {
				line += fmt.Sprintf(" | saved %d", s.FaultsSaved)
			}
			if s.CellsPerSec > 0 {
				line += fmt.Sprintf(" | %.2f cells/s", s.CellsPerSec)
			}
			if s.ETA > 0 {
				line += fmt.Sprintf(" | ETA %s", s.ETA.Round(time.Second))
			}
			if s.LastCell != "" {
				line += " | " + s.LastCell
			}
			fmt.Fprint(os.Stderr, line)
		}
	}
	var progressFile *os.File
	var progressErr error
	if *progressJSONL != "" {
		f, err := os.Create(*progressJSONL)
		if err != nil {
			return err
		}
		progressFile = f
		defer func() {
			if progressFile != nil {
				_ = progressFile.Close() // error path: the sweep error wins
			}
		}()
		enc := json.NewEncoder(f)
		prev := spec.OnProgress
		reg := spec.Metrics
		var lastWrite time.Time
		// OnProgress deliveries are serialized by the sweep tracker, so
		// the closure state needs no extra locking.
		spec.OnProgress = func(s sweep.Snapshot) {
			if prev != nil {
				prev(s)
			}
			done := s.CellsFinished+s.CellsSkipped == s.TotalCells
			if !done && time.Since(lastWrite) < 100*time.Millisecond {
				return
			}
			lastWrite = time.Now()
			if err := enc.Encode(progressLine{Snapshot: s, ElapsedSec: s.Elapsed.Seconds(), ETASec: s.ETA.Seconds(), Metrics: reg.Snapshot()}); err != nil && progressErr == nil {
				progressErr = err
			}
		}
	}

	res, err := sweep.Run(spec)
	if !*quiet {
		fmt.Fprint(os.Stderr, "\r\x1b[K") // clear the progress line
	}
	if err != nil {
		return err
	}
	if err := tl.finish(); err != nil {
		return err
	}
	if progressFile != nil {
		f := progressFile
		progressFile = nil // the deferred cleanup stands down
		if err := f.Close(); err != nil {
			return fmt.Errorf("progress jsonl: %w", err)
		}
	}
	if progressErr != nil {
		return fmt.Errorf("progress jsonl: %w", progressErr)
	}

	fmt.Printf("sweep: %d cells (%d executed, %d resumed) in %s\n",
		res.Counters.CellsPlanned, res.Counters.CellsExecuted,
		res.Counters.CellsSkipped, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("golden cache: %d runs, %d hits | faults %d, early-stops %d | forks %d (+%d reuses)\n",
		res.Counters.GoldenRuns, res.Counters.GoldenHits,
		res.Counters.FaultsDone, res.Counters.EarlyStops,
		res.Counters.Forks, res.Counters.ForkReuses)
	if res.Counters.FaultsSaved > 0 {
		fmt.Printf("adaptive: %d budgeted injections saved (target ±%.2f%% at %.0f%%)\n",
			res.Counters.FaultsSaved, 100*sz.margin, confidencePct(sz.confidence))
	}
	if res.Counters.RungHits > 0 {
		fmt.Printf("ladder: %d rung hits, %d cycles replayed pre-injection\n",
			res.Counters.RungHits, res.Counters.ReplayedCycles)
	}
	fmt.Printf("%-42s %7s %8s %8s %8s %8s\n", "cell", "faults", "AVF", "SDC", "Crash", "HVF")
	for _, c := range res.Cells {
		hvf := "-"
		if c.HVFMeasured && c.HVF != nil {
			hvf = fmt.Sprintf("%7.1f%%", 100**c.HVF)
		}
		fmt.Printf("%-42s %7d %7.1f%% %7.1f%% %7.1f%% %8s\n",
			c.Key, c.Faults, 100*c.AVF, 100*c.SDCAVF, 100*c.CrashAVF, hvf)
	}
	wavf := figures.SweepWAVF(res.Cells)
	for _, k := range core.SortedKeys(wavf) {
		fmt.Printf("wAVF %-37s %7.1f%%\n", k, 100*wavf[k])
	}
	if *out != "" {
		fmt.Printf("persisted to %s (re-run with the same flags to resume)\n", *out)
	}

	if *csvPath != "" {
		w := os.Stdout
		var f *os.File
		if *csvPath != "-" {
			var cerr error
			f, cerr = os.Create(*csvPath)
			if cerr != nil {
				return cerr
			}
			w = f
		}
		werr := figures.SweepCSV(w, res.Cells)
		if f != nil {
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
		}
		if werr != nil {
			return werr
		}
		if *csvPath != "-" {
			fmt.Printf("wrote %s\n", *csvPath)
		}
	}
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	isaName := fs.String("isa", "", "ISA of the campaign being explained (CPU fault)")
	wl := fs.String("workload", "", "workload of the campaign being explained (CPU fault)")
	target := fs.String("target", "", `CPU injection target; may be a "+"-joined combo (prf+rob+iq)`)
	design := fs.String("design", "", "accelerator design (accelerator fault)")
	comp := fs.String("component", "", "Table IV component (accelerator fault)")
	model := fs.String("model", "transient", "fault model: transient, stuck-at-0, stuck-at-1")
	index := fs.Int("index", 0, "mask index inside that campaign (0-based)")
	sz := bindSizing(fs, "seed", "bits", "validonly", "earlyterm", "watchdog", "physregs", "preset")
	jsonOut := fs.Bool("json", false, "emit the explanation as JSON instead of a narrated timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ex, err := marvel.Explain(marvel.ExplainOptions{
		ISA:              *isaName,
		Workload:         *wl,
		Target:           *target,
		Design:           *design,
		Component:        *comp,
		Model:            marvel.FaultModel(*model),
		Seed:             sz.seed,
		Index:            *index,
		BitsPerFault:     sz.bits,
		ValidOnly:        sz.validOnly,
		EarlyTermination: sz.earlyTerm,
		WatchdogFactor:   sz.watchdog,
		PhysRegs:         sz.physRegs,
		Preset:           sz.preset,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(ex)
	}
	fmt.Printf("fault #%d of seed %d (%s campaign), golden run %d cycles\n",
		ex.Index, ex.Seed, ex.Kind, ex.GoldenCycles)
	for _, f := range ex.Faults {
		when := "held for the whole run"
		if f.Model == marvel.Transient {
			when = fmt.Sprintf("injected at cycle %d", f.Cycle)
		}
		fmt.Printf("  %s fault in %s, bit %d, %s\n", f.Model, f.Target, f.Bit, when)
	}
	fmt.Println("timeline:")
	for _, line := range ex.Narrative {
		fmt.Println("  " + line)
	}
	if ex.EventsDropped > 0 {
		fmt.Printf("  (%d mid-stream events evicted by the bounded trace buffer)\n", ex.EventsDropped)
	}
	verdict := "verdict: " + ex.Verdict
	if ex.Reason != "" {
		verdict += " (" + ex.Reason + ")"
	}
	if ex.CrashCode != "" {
		verdict += " (" + ex.CrashCode + ")"
	}
	if ex.EarlyStop {
		verdict += ", early-stopped"
	}
	if ex.HVFCorrupt {
		verdict += fmt.Sprintf(", HVF-corrupt (first divergence at commit #%d)", ex.DivergeCommit)
	}
	fmt.Printf("%s, %d cycles (golden %d)\n", verdict, ex.Cycles, ex.GoldenCycles)
	return nil
}

func cmdAccel(args []string) error {
	fs := flag.NewFlagSet("accel", flag.ExitOnError)
	design := fs.String("design", "gemm", "accelerator design")
	comp := fs.String("component", "MATRIX1", "Table IV component")
	model := fs.String("model", "transient", "fault model")
	mults := fs.Int("gemm-multipliers", 0, "gemm datapath multipliers (DSE)")
	sz := bindSizing(fs, "faults", "seed", "workers", "ladder", "margin", "confidence", "debug-addr", "timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := sz.accel(*design, *comp, *model)
	opts.GemmMultipliers = *mults
	if err := opts.Validate(); err != nil {
		return usageError{err}
	}
	reg, tl, stop, err := sz.observe(nil)
	if err != nil {
		return err
	}
	defer stop()
	opts.Metrics, opts.Profile = reg, tl.profiler()
	rep, err := marvel.RunAccelCampaign(opts)
	if err != nil {
		return err
	}
	if err := tl.finish(); err != nil {
		return err
	}
	fmt.Printf("design=%s component=%s task=%d cycles area=%.1f\n",
		rep.Design, rep.Component, rep.TaskCycles, rep.AreaUnits)
	fmt.Printf("faults: %d (margin ±%.2f%% at %.0f%%)\n", rep.Faults, 100*rep.Margin, confidencePct(rep.Z))
	if sz.margin > 0 {
		fmt.Printf("adaptive: target ±%.2f%%, achieved ±%.2f%%, %d of %d budget (%d saved) in %d batches\n",
			100*sz.margin, 100*rep.AchievedMargin, rep.Faults, rep.Requested, rep.FaultsSaved, rep.Batches)
	}
	fmt.Printf("masked=%d sdc=%d crash=%d\n", rep.Masked, rep.SDC, rep.Crash)
	fmt.Printf("AVF=%.4f (SDC %.4f + Crash %.4f)\n", rep.AVF, rep.SDCAVF, rep.CrashAVF)
	fmt.Printf("forking: fork-reset, %d forks, %d reuses, %d pages copied\n",
		rep.Forks, rep.ForkReuses, rep.PagesCopied)
	if rep.Rungs > 0 {
		fmt.Printf("ladder: %d rungs, %d rung hits, %d cycles replayed pre-injection\n",
			rep.Rungs, rep.RungHits, rep.ReplayedCycles)
	}
	return nil
}

func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	isaName := fs.String("isa", "riscv", "ISA")
	wl := fs.String("workload", "sha", "workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := marvel.RunGolden(*isaName, *wl)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: %d cycles, %d insts, IPC %.2f, code %d bytes\n",
		rep.Workload, rep.ISA, rep.Cycles, rep.Insts, rep.IPC, rep.CodeSize)
	fmt.Printf("OPS at 1GHz: %.4g\n", marvel.OPS(rep.Ops, rep.Cycles))
	return nil
}

func cmdSoC(args []string) error {
	fs := flag.NewFlagSet("soc", flag.ExitOnError)
	isaName := fs.String("isa", "riscv", "ISA")
	design := fs.String("design", "gemm", "accelerator design")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := marvel.RunSoC(*isaName, *design)
	if err != nil {
		return err
	}
	status := "output OK"
	if !rep.OutputOK {
		status = "OUTPUT MISMATCH"
	}
	fmt.Printf("%s + %s via %s: SoC %d cycles, accel task %d cycles, CPU %d insts — %s\n",
		rep.ISA, rep.Design, rep.IntCtrl, rep.SoCCycles, rep.AccelCycles, rep.CPUInsts, status)
	return nil
}

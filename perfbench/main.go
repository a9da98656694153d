// Command perfbench is marvel's campaign-throughput benchmark. It runs one
// of four workloads through the public API of the simulator packages,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	perfbench -workload cpu-campaign -seed 1 -seconds 20 -trace 0
//
// Host time is wall-clock time on the machine running the benchmark;
// simulated time is in modelled cycles. Every human-readable line says
// which of the two a number uses. See README.md for the metric
// definitions and the default and held-out seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run: its parameters, the operations
// attempted and failed, and the metrics collected so far.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // tiny sizes for the harness self-test
	tmp      string // scratch directory inside the working directory

	attempted, failed int
	metrics           map[string]metric
}

// fail records one failed operation and explains it on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// set records a metric; the name must be declared in the metric tables.
func (b *bench) set(name string, v float64) {
	unit, ok := unitOf(name, b.trace)
	if !ok {
		b.fail("metric %q is not declared for trace=%v", name, b.trace)
		return
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// say prints one human-readable report line.
func (b *bench) say(format string, args ...any) {
	fmt.Printf("%s: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// params is the canonical description of the workload's inputs; its
	// digest is printed with every result so a rerun can be matched to
	// the definition it measured.
	params func(small bool) string
	run    func(b *bench) error
}

var workloadDefs = []workloadDef{
	{"cpu-golden", cpuGoldenParams, runCPUGolden},
	{"cpu-campaign", cpuCampaignParams, runCPUCampaign},
	{"accel-campaign", accelCampaignParams, runAccelCampaign},
	{"served", servedParams, runServed},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload: cpu-golden, cpu-campaign, accel-campaign or served")
		seed     = flag.Int64("seed", 1, "input seed (README.md lists the default and held-out seeds)")
		seconds  = flag.Float64("seconds", 15, "host seconds to measure")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		expected = flag.String("write-expected", "", "rewrite the exact cycle/instruction counts file at this path and exit")
	)
	flag.Parse()
	if *expected != "" {
		if err := writeExpected(*expected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	def := workloadByName(*workload)
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (cpu-golden, cpu-campaign, accel-campaign, served), -seconds > 0 and -trace 0|1")
		return 2
	}
	res, err := execute(def, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadByName(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// execute runs one workload and returns its result line. Scratch files go
// under .bench_build/ in the working directory and are removed on return.
func execute(def *workloadDef, seed int64, seconds float64, trace, small bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		workload: def.name,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		small:    small,
		tmp:      tmp,
		metrics:  map[string]metric{},
	}
	printProvenance(b, def.params(small))
	if err := def.run(b); err != nil {
		return nil, err
	}
	if b.attempted < 1 {
		return nil, fmt.Errorf("attempted no operations")
	}
	// Every declared metric appears in the result; a layer the workload
	// does not exercise reports 0.
	for _, m := range metricTable(trace) {
		if _, ok := b.metrics[m.name]; !ok {
			if !trace {
				return nil, fmt.Errorf("did not measure %s", m.name)
			}
			b.metrics[m.name] = metric{Value: 0, Unit: m.unit}
		}
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}, nil
}

// printProvenance records what produced the numbers: code revision, Go
// version, GOMAXPROCS, CPU model, seed and a digest of the workload
// definition.
func printProvenance(b *bench, params string) {
	rev, modified := "unknown", "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	prov := map[string]any{
		"workload":        b.workload,
		"seed":            b.seed,
		"seconds":         b.seconds,
		"trace":           b.trace,
		"vcs.revision":    rev,
		"vcs.modified":    modified,
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu":             cpuModel(),
		"workload_params": params,
		"workload_digest": fnvHex(params),
		"started":         time.Now().UTC().Format(time.RFC3339),
	}
	out, err := json.Marshal(prov) // map keys marshal sorted
	if err != nil {
		return
	}
	fmt.Printf("provenance %s\n", out)
}

// cpuModel reads the host CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricDef declares one output metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"runs_per_cpu_s", "1/s"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	for _, a := range isaNames {
		add("ns", "isa.decode_ns_per_inst."+a)
		add("allocs/inst", "isa.decode_allocs_per_inst."+a)
	}
	for _, a := range isaNames {
		add("ms", "program.compile_ms."+a)
	}
	add("ns", "mem.load_ns.l1", "mem.load_ns.l2", "mem.fetch_ns.l1", "mem.fetch_ns.l2")
	for _, a := range isaNames {
		add("1/s", "cpu.simcycles_per_s."+a, "cpu.siminsts_per_s."+a)
		add("allocs/cycle", "cpu.allocs_per_simcycle."+a)
		add("B/cycle", "cpu.bytes_per_simcycle."+a)
	}
	add("us", "soc.fork_us", "soc.reset_us")
	add("pages/reset", "soc.pages_copied_per_reset")
	add("sets/reset", "soc.sets_restored_per_reset")
	for _, p := range []string{"golden", "ladder", "fork", "reset", "replay", "faulty", "classify"} {
		add("s", "campaign."+p+"_s")
	}
	add("ratio", "campaign.reuse_ratio", "campaign.rung_hit_ratio", "campaign.early_stop_ratio")
	add("cycles/fault", "campaign.replayed_cycles_per_fault")
	for _, d := range accelDesigns {
		add("1/s", "accel.ticks_per_s."+d)
	}
	add("ms", "accel.golden_ms")
	for _, p := range []string{"fork", "reset", "replay", "faulty", "classify"} {
		add("s", "accel."+p+"_s")
	}
	add("ratio", "accel.reuse_ratio")
	add("ratio", "sweep.golden_hit_ratio")
	add("s", "sweep.journal_s", "sweep.orchestration_s")
	add("ms", "server.queue_wait_ms_p50", "server.run_ms_p50", "server.job_p50_cpu_ms", "server.job_p90_cpu_ms")
	add("ratio", "server.lru_hit_ratio")
	add("count", "server.throttled")
	for _, p := range profPackages {
		add("ratio", "prof.share."+p)
	}
	add("ratio", "prof.share.runtime_malloc", "prof.share.runtime_gc")
	add("1/s", "traced.runs_per_cpu_s", "untraced.runs_per_cpu_s")
	return out
}()

func metricTable(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func unitOf(name string, trace bool) (string, bool) {
	for _, m := range metricTable(trace) {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

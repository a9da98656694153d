package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"marvel/internal/config"
	"marvel/internal/isa"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/soc"
	"marvel/internal/workloads"
)

// expectedCounts pins the simulated cycles and committed instructions of
// every fault-free (ISA, kernel) run on the Table II preset. They are
// exact: a change that only makes the simulator faster leaves them
// identical, so any difference is a behaviour change and counts as a
// failed run. Regenerate with -write-expected only when a change alters
// simulated behaviour on purpose.
//
//go:embed expected_counts.json
var expectedCountsJSON []byte

type simCounts struct {
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
}

// goldenBudget bounds one fault-free run; every kernel halts well inside it.
const goldenBudget = 50_000_000

// goldenCase is one compiled (ISA, kernel) pair with its expected output.
type goldenCase struct {
	key string // "isa/kernel"
	isa string
	img *program.Image
	ref []byte
}

func cpuGoldenKernels(small bool) []string {
	if small {
		return []string{"basicmath", "sha"}
	}
	return workloads.Names()
}

func cpuGoldenParams(small bool) string {
	return fmt.Sprintf("cpu-golden isas=%v kernels=%v preset=table2 budget=%d", isaNames, cpuGoldenKernels(small), goldenBudget)
}

// compileCases compiles every kernel for every ISA.
func compileCases(kernels []string) ([]goldenCase, error) {
	var cases []goldenCase
	for _, name := range isaNames {
		a, err := isa.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, k := range kernels {
			w, err := workloads.ByName(k)
			if err != nil {
				return nil, err
			}
			img, err := program.Compile(a, w.Build())
			if err != nil {
				return nil, fmt.Errorf("compile %s/%s: %w", name, k, err)
			}
			cases = append(cases, goldenCase{key: name + "/" + k, isa: name, img: img})
		}
	}
	return cases, nil
}

// runCPUGolden is the cpu-golden workload: fault-free runs of the
// kernels on every ISA, each on a fresh system with empty caches, checked
// against the pure-Go reference output and the pinned cycle and
// instruction counts. The seed shuffles the run order of every pass.
func runCPUGolden(b *bench) error {
	var expected map[string]simCounts
	if err := json.Unmarshal(expectedCountsJSON, &expected); err != nil {
		return fmt.Errorf("expected_counts.json: %w", err)
	}
	kernels := cpuGoldenKernels(b.small)
	var cases []goldenCase
	setup, err := timedSetup(9, func() error {
		var err error
		cases, err = compileCases(kernels)
		return err
	})
	if err != nil {
		return err
	}
	refs := map[string][]byte{}
	for _, k := range kernels {
		w, err := workloads.ByName(k)
		if err != nil {
			return err
		}
		refs[k] = w.Ref()
	}
	for i := range cases {
		cases[i].ref = refs[cases[i].key[len(cases[i].isa)+1:]]
	}
	pre := config.TableII()

	// pass runs every case once in a seeded order. Its digest covers the
	// outputs and counts in case order, which the shuffle does not change.
	var cycles, insts uint64
	lat := &latencies{}
	pass := func(p int, prof *obs.Profiler) passOut {
		if prof != nil {
			cycles, insts = 0, 0 // report the traced pass alone
		}
		rng := rand.New(rand.NewSource(b.seed*1_000_003 + int64(p)))
		got := make([]string, len(cases))
		var sys *soc.System // the last run's system stays live for the heap reading
		watch := startWatch()
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			b.attempted++
			job := startWatch()
			var err error
			sys, err = soc.New(c.img, pre.CPU, pre.Hier, pre.MemLatency)
			if err != nil {
				b.fail("%s: %v", c.key, err)
				continue
			}
			res := sys.Run(goldenBudget)
			lat.add(job.stop())
			cycles += res.Cycles
			insts += res.Stats.Insts
			want, ok := expected[c.key]
			switch {
			case res.Status != soc.RunCompleted:
				b.fail("%s: run %v", c.key, res.Status)
			case !bytes.Equal(res.Output, c.ref):
				b.fail("%s: output differs from the reference", c.key)
			case !ok || want.Cycles != res.Cycles || want.Insts != res.Stats.Insts:
				b.fail("%s: %d cycles / %d insts, expected %d / %d", c.key, res.Cycles, res.Stats.Insts, want.Cycles, want.Insts)
			}
			got[i] = fmt.Sprintf("%s:%d:%d:%x;", c.key, res.Cycles, res.Stats.Insts, res.Output)
		}
		window, cpu := watch.stop()
		// High-water state: every compiled image plus one system after its run.
		heap := liveHeapMB()
		runtime.KeepAlive(sys)
		var all strings.Builder
		for _, g := range got {
			all.WriteString(g)
		}
		return passOut{digest: fnvHex(all.String()), runs: len(cases), window: window, cpu: cpu, heapMB: heap}
	}

	m, err := measure(b, pass)
	if err != nil {
		return err
	}
	wall, cpu := m.window.Seconds(), m.cpu.Seconds()
	b.say("simcycles_per_s=%.0f siminsts_per_s=%.0f (simulated cycles and committed instructions per wall-clock second; %.0f and %.0f per host CPU second), %d runs",
		float64(cycles)/wall, float64(insts)/wall, float64(cycles)/cpu, float64(insts)/cpu, m.runs)
	b.say("setup_s=%.4f (host CPU s to compile %d images, median of 9)", setup, len(cases))
	if b.trace {
		return nil
	}
	lat.report(b, "fault-free runs (one job = one run on a fresh system)", m, setup)
	return nil
}

// writeExpected regenerates expected_counts.json from fault-free runs.
func writeExpected(path string) error {
	cases, err := compileCases(workloads.Names())
	if err != nil {
		return err
	}
	pre := config.TableII()
	out := map[string]simCounts{}
	for _, c := range cases {
		sys, err := soc.New(c.img, pre.CPU, pre.Hier, pre.MemLatency)
		if err != nil {
			return err
		}
		res := sys.Run(goldenBudget)
		if res.Status != soc.RunCompleted {
			return fmt.Errorf("%s: run %v", c.key, res.Status)
		}
		out[c.key] = simCounts{Cycles: res.Cycles, Insts: res.Stats.Insts}
	}
	data, err := json.MarshalIndent(out, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

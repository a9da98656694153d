//go:build ignore

// benchgate compares fresh untraced perfbench results with the newest
// performance-ledger record, the BENCH_<label>.json at the repository root
// with the highest numeric label:
//
//	go run scripts/benchgate.go <workload>=<perfbench output file> ...
//
// Each file holds the standard output of one
// `perfbench/run.sh --workload <workload> --seed 1 --trace 0` run; its last
// line is the result object. For every end-to-end metric in BENCHMARK.json
// the gate prints the fresh value beside the ledger's untraced value for
// the same workload. heap_peak_mb worse than the ledger by more than its
// bound fails the gate (exit 1), because the live heap at a pass's
// high-water state is near deterministic. Timing metrics past their
// bounds only print a warning: the host's speed per CPU second drifts by
// up to a quarter (perfbench/README.md). An incorrect result or a failed
// operation also fails the gate.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// gated is the one end-to-end metric whose regression fails the gate.
const gated = "heap_peak_mb"

type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type ledger struct {
	Runs []struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		Result   result `json:"result"`
	} `json:"runs"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: go run scripts/benchgate.go <workload>=<perfbench output file> ...")
	}
	var bench benchmark
	if err := readJSON("BENCHMARK.json", &bench); err != nil {
		return err
	}
	path, err := newestLedger()
	if err != nil {
		return err
	}
	var led ledger
	if err := readJSON(path, &led); err != nil {
		return err
	}
	baseline := map[string]result{}
	for _, r := range led.Runs {
		if r.Trace == 0 {
			baseline[r.Workload] = r.Result
		}
	}
	failed := false
	for _, arg := range args {
		wl, file, ok := strings.Cut(arg, "=")
		if !ok {
			return fmt.Errorf("argument %q is not <workload>=<file>", arg)
		}
		fresh, err := lastResult(file)
		if err != nil {
			return err
		}
		base, ok := baseline[wl]
		if !ok {
			return fmt.Errorf("%s has no untraced %s run", path, wl)
		}
		if !fresh.Correct || fresh.Failed != 0 {
			fmt.Printf("FAIL %s: correct=%v failed=%d\n", wl, fresh.Correct, fresh.Failed)
			failed = true
		}
		for _, m := range bench.EndToEnd {
			now, have := fresh.Metrics[m.Name]
			was, had := base.Metrics[m.Name]
			if !have || !had || was.Value == 0 {
				return fmt.Errorf("%s: metric %s missing from the run or from %s", wl, m.Name, path)
			}
			change := now.Value/was.Value - 1
			worse := change > m.Bound
			if m.Better == "higher" {
				worse = -change > m.Bound
			}
			verdict := "ok"
			switch {
			case worse && m.Name == gated:
				verdict, failed = "FAIL", true
			case worse:
				verdict = "warn"
			}
			fmt.Printf("%-4s %-14s %-14s %12.4g vs %12.4g in %s (%+.1f%%, bound %.0f%%, %s is better)\n",
				verdict, wl, m.Name, now.Value, was.Value, filepath.Base(path), 100*change, 100*m.Bound, m.Better)
		}
	}
	if failed {
		return fmt.Errorf("%s regressed past its bound, or a run was incorrect", gated)
	}
	return nil
}

// newestLedger returns the BENCH_<label>.json with the highest numeric
// label.
func newestLedger() (string, error) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", err
	}
	best, bestLabel := "", -1
	for _, p := range paths {
		label, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json"))
		if err == nil && label > bestLabel {
			best, bestLabel = p, label
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<number>.json in the working directory")
	}
	return best, nil
}

// lastResult parses the last line of a perfbench output file.
func lastResult(path string) (result, error) {
	var r result
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("%s: last line is not a perfbench result: %w", path, err)
	}
	return r, nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricTablesMatchBenchmarkFile keeps the harness's metric and
// workload tables and BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	check := func(kind string, table []metricDef, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(table) != len(declared) {
			t.Fatalf("%s: harness declares %d metrics, BENCHMARK.json %d", kind, len(table), len(declared))
		}
		for i, m := range table {
			if m.name != declared[i].Name || m.unit != declared[i].Unit {
				t.Errorf("%s[%d]: harness %s [%s], BENCHMARK.json %s [%s]", kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, w.Name, workloadDefs[i].name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, traced
// and untraced, and checks that it is correct and emits exactly the
// declared metrics.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, err := execute(&def, 1, 0.2, trace, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", def.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			table := metricTable(trace)
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", def.name, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", def.name, trace, m.name, got.Unit, m.unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", def.name, m.name, got.Value)
				}
			}
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 900ms, 90.00% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      600ms 60.00%  marvel/internal/cpu.(*CPU).Step
     100ms 10.00% 50.00%      300ms 30.00%  runtime.mallocgc
     100ms 10.00% 60.00%      100ms 10.00%  marvel/internal/isa.RV64L.Decode
      50ms  5.00% 65.00%      200ms 20.00%  runtime.gcBgMarkWorker
      50ms  5.00% 70.00%       50ms  5.00%  marvel/internal/program/ir.(*Program).Validate
`
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu": 0.4, "isa": 0.1, "runtime_malloc": 0.3, "runtime_gc": 0.2, "mem": 0}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("share %s = %v, want %v", k, got[k], v)
		}
	}
}

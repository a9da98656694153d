package marvel_test

// Facade coverage for the observability layer: the Explain narrator, the
// metrics registry wired through campaign options, and the debug endpoint.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"marvel"
)

func TestFacadeExplainCPU(t *testing.T) {
	// The explained verdict must match the campaign record at the same
	// index, and the narrative must end in a "why" conclusion.
	rep, err := marvel.RunCampaign(marvel.CampaignOptions{
		ISA:      "riscv",
		Workload: "crc32",
		Target:   "prf",
		Faults:   8,
		Seed:     9,
		HVF:      true,
		Preset:   "fast",
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		ex, err := marvel.Explain(marvel.ExplainOptions{
			ISA:       "riscv",
			Workload:  "crc32",
			Target:    "prf",
			Seed:      9,
			Index:     i,
			ValidOnly: false,
			Preset:    "fast",
		})
		if err != nil {
			t.Fatalf("explain %d: %v", i, err)
		}
		if ex.Kind != "cpu" || ex.Index != i || ex.Seed != 9 {
			t.Fatalf("explain %d: coordinates %+v", i, ex)
		}
		if len(ex.Faults) == 0 || len(ex.Events) == 0 {
			t.Fatalf("explain %d: empty faults or events", i)
		}
		last := ex.Narrative[len(ex.Narrative)-1]
		if !strings.HasPrefix(last, "why: ") {
			t.Fatalf("explain %d: narrative does not conclude with a why line: %q", i, last)
		}
		counts[ex.Verdict]++
	}
	if counts["masked"] != rep.Masked || counts["sdc"] != rep.SDC || counts["crash"] != rep.Crash {
		t.Fatalf("explained verdict mix %v != campaign masked=%d sdc=%d crash=%d",
			counts, rep.Masked, rep.SDC, rep.Crash)
	}
}

func TestFacadeExplainAccel(t *testing.T) {
	ex, err := marvel.Explain(marvel.ExplainOptions{
		Design:    "gemm",
		Component: "MATRIX1",
		Seed:      1,
		Index:     0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Kind != "accel" || len(ex.Events) == 0 || ex.GoldenCycles == 0 {
		t.Fatalf("accel explanation incomplete: %+v", ex)
	}
	if ex.Events[len(ex.Events)-1].Kind != "verdict" {
		t.Fatalf("last event %q, want verdict", ex.Events[len(ex.Events)-1].Kind)
	}
}

// TestFacadeExplainReportsEvictedEvents pins the bounded trace sink's
// eviction count on the explanation: x86/qsort/prf seed 1 fault 1 emits
// more events than the 512-event sink keeps.
func TestFacadeExplainReportsEvictedEvents(t *testing.T) {
	ex, err := marvel.Explain(marvel.ExplainOptions{
		ISA:      "x86",
		Workload: "qsort",
		Target:   "prf",
		Model:    marvel.Transient,
		Seed:     1,
		Index:    1,
		Preset:   "fast",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Events) != 512 || ex.EventsDropped <= 0 {
		t.Fatalf("%d events retained, %d dropped; want 512 retained and a positive drop count", len(ex.Events), ex.EventsDropped)
	}
}

func TestFacadeExplainRejectsMixedCoordinates(t *testing.T) {
	if _, err := marvel.Explain(marvel.ExplainOptions{Workload: "sha", Design: "gemm"}); err == nil {
		t.Fatal("mixed CPU+accel coordinates accepted")
	}
	if _, err := marvel.Explain(marvel.ExplainOptions{}); err == nil {
		t.Fatal("empty coordinates accepted")
	}
}

func TestFacadeCampaignMetrics(t *testing.T) {
	reg := marvel.NewMetricsRegistry()
	rep, err := marvel.RunCampaign(marvel.CampaignOptions{
		ISA:      "riscv",
		Workload: "crc32",
		Target:   "prf",
		Faults:   10,
		Seed:     2,
		Preset:   "fast",
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.FaultsDone != 10 {
		t.Fatalf("registry faults_done = %d, want 10", s.FaultsDone)
	}
	if int(s.Masked) != rep.Masked || int(s.SDC) != rep.SDC || int(s.Crash) != rep.Crash {
		t.Fatalf("registry mix %d/%d/%d != report %d/%d/%d",
			s.Masked, s.SDC, s.Crash, rep.Masked, rep.SDC, rep.Crash)
	}
	if s.Forks != rep.Forks || s.ForkReuses != rep.ForkReuses {
		t.Fatalf("registry forks %d/%d != report %d/%d", s.Forks, s.ForkReuses, rep.Forks, rep.ForkReuses)
	}
}

func TestFacadeAccelMetrics(t *testing.T) {
	reg := marvel.NewMetricsRegistry()
	rep, err := marvel.RunAccelCampaign(marvel.AccelOptions{
		Design:    "gemm",
		Component: "MATRIX1",
		Faults:    10,
		Seed:      2,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.FaultsDone != 10 || int(s.Masked) != rep.Masked || int(s.SDC) != rep.SDC || int(s.Crash) != rep.Crash {
		t.Fatalf("registry %+v != report %d/%d/%d", s, rep.Masked, rep.SDC, rep.Crash)
	}
}

func TestFacadeServeDebug(t *testing.T) {
	reg := marvel.NewMetricsRegistry()
	srv, err := marvel.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, b)
	}
	if _, ok := snap["faults_done"]; !ok {
		t.Fatalf("/metrics missing faults_done: %s", b)
	}
}

func TestFacadeUnknownPreset(t *testing.T) {
	_, err := marvel.RunCampaign(marvel.CampaignOptions{
		ISA:      "riscv",
		Workload: "crc32",
		Target:   "prf",
		Faults:   1,
		Preset:   "nope",
	})
	if err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("err = %v, want unknown preset", err)
	}
}

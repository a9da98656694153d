package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"marvel"
	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
	"marvel/internal/sweep"
)

// TestSizingRejectedAtEveryEntryPoint: the sampling knobs share one rule
// (dispatch.Sizing.Validate), so the same bad value is rejected with the
// same diagnosis by both engine configs, the sweep orchestrator, the
// three facade Validates and the job service's HTTP 400.
func TestSizingRejectedAtEveryEntryPoint(t *testing.T) {
	type sizing struct {
		faults, ladder       int
		margin, confidence   float64
		minFaults, maxFaults int
	}
	ok := sizing{faults: 4}
	cases := []struct {
		name string
		edit func(*sizing)
		want string
	}{
		{"zero faults", func(s *sizing) { s.faults = 0 }, "fault count must be positive"},
		{"negative ladder", func(s *sizing) { s.ladder = -1 }, "ladder rungs must be non-negative"},
		{"negative margin", func(s *sizing) { s.margin = -0.1 }, "target margin must be in [0, 1)"},
		{"margin of one", func(s *sizing) { s.margin = 1 }, "target margin must be in [0, 1)"},
		{"negative confidence", func(s *sizing) { s.confidence = -1 }, "confidence quantile must be non-negative"},
		{"negative min", func(s *sizing) { s.minFaults = -1 }, "min/max faults must be non-negative"},
		{"negative max", func(s *sizing) { s.maxFaults = -1 }, "min/max faults must be non-negative"},
	}

	gemm, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Workers: 1})
	defer m.Drain()
	ts := httptest.NewServer((&Server{Manager: m}).Handler())
	defer ts.Close()
	post := func(req Request) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("HTTP %s: status %d, want 400", req.Kind, resp.StatusCode)
		}
		return errors.New(string(msg))
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ok
			tc.edit(&s)
			co := &marvel.CampaignOptions{ISA: "riscv", Workload: "crc32", Target: "prf",
				Faults: s.faults, LadderRungs: s.ladder, TargetMargin: s.margin,
				Confidence: s.confidence, MinFaults: s.minFaults, MaxFaults: s.maxFaults}
			ao := &marvel.AccelOptions{Design: "gemm", Component: "MATRIX1",
				Faults: s.faults, LadderRungs: s.ladder, TargetMargin: s.margin,
				Confidence: s.confidence, MinFaults: s.minFaults, MaxFaults: s.maxFaults}
			so := &marvel.SweepOptions{ISAs: []string{"riscv"}, Workloads: []string{"crc32"}, Targets: []string{"prf"},
				Faults: s.faults, LadderRungs: s.ladder, TargetMargin: s.margin,
				Confidence: s.confidence, MinFaults: s.minFaults, MaxFaults: s.maxFaults}
			entries := []struct {
				name string
				run  func() error
			}{
				{"campaign.RunWithGolden", func() error {
					_, err := campaign.RunWithGolden(campaign.Config{Target: "prf", Model: core.Transient,
						Sizing: dispatch.Sizing{Faults: s.faults, LadderRungs: s.ladder, TargetMargin: s.margin, Confidence: s.confidence, MinFaults: s.minFaults, MaxFaults: s.maxFaults},
					}, nil)
					return err
				}},
				{"accel.RunCampaignWithGolden", func() error {
					_, err := accel.RunCampaignWithGolden(accel.CampaignConfig{Design: gemm.Design, Task: gemm.Task,
						Target: "MATRIX1", Model: core.Transient,
						Sizing: dispatch.Sizing{Faults: s.faults, LadderRungs: s.ladder, TargetMargin: s.margin, Confidence: s.confidence, MinFaults: s.minFaults, MaxFaults: s.maxFaults},
					}, nil)
					return err
				}},
				{"sweep.Run", func() error {
					_, err := sweep.Run(sweep.Spec{ISAs: so.ISAs, Workloads: so.Workloads, Targets: so.Targets,
						Models: []string{"transient"}, Preset: "fast",
						Faults: s.faults, LadderRungs: s.ladder, TargetMargin: s.margin,
						Confidence: s.confidence, MinFaults: s.minFaults, MaxFaults: s.maxFaults})
					return err
				}},
				{"CampaignOptions.Validate", co.Validate},
				{"AccelOptions.Validate", ao.Validate},
				{"SweepOptions.Validate", so.Validate},
				{"HTTP campaign", func() error { return post(Request{Kind: KindCampaign, Campaign: co}) }},
				{"HTTP accel", func() error { return post(Request{Kind: KindAccel, Accel: ao}) }},
				{"HTTP sweep", func() error { return post(Request{Kind: KindSweep, Sweep: so}) }},
			}
			for _, e := range entries {
				err := e.run()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: got %v, want an error containing %q", e.name, err, tc.want)
				}
			}
		})
	}
	if got := m.Stats().Submitted; got != 0 {
		t.Fatalf("bad submissions reached the queue: %d", got)
	}
}

package sweep_test

// Adaptive sizing through the orchestrator: a sweep cell running with a
// target margin must report exactly what the standalone adaptive campaign
// reports (same achieved N, same digest), the journal must persist the
// achieved N so a resume replays without re-injecting, and changing the
// adaptive targets must invalidate the manifest like any other grid edit.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// adaptiveSpec is a small CPU grid with a margin loose enough to stop
// early on low-AVF cells (batch size 32, Wilson half-width at n=32, p=0
// is ≈0.107 < 0.15).
func adaptiveSpec(dir string) sweep.Spec {
	return sweep.Spec{
		ISAs:         []string{"riscv"},
		Workloads:    []string{"crc32", "sha"},
		Targets:      []string{"prf", "l1d"},
		Models:       []string{"transient"},
		Faults:       96,
		Seed:         41,
		TargetMargin: 0.15,
		ValidOnly:    true,
		Preset:       "fast",
		OutDir:       dir,
	}
}

func TestSweepAdaptiveDifferential(t *testing.T) {
	spec := adaptiveSpec("")
	res, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var totalSaved int64
	for _, cellRep := range res.Cells {
		cell := cellRep.Cell
		a, err := isa.ByName(cell.ISA)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := workloads.ByName(cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		img, err := program.Compile(a, ws.Build())
		if err != nil {
			t.Fatal(err)
		}
		standalone, err := campaign.Run(campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Target: cell.Target,
			Model:  core.Transient,
			Sizing: dispatch.Sizing{Faults: spec.Faults, TargetMargin: spec.TargetMargin},
			Seed:   spec.Seed,
			Domain: core.DomainValidOnly,
		})
		if err != nil {
			t.Fatal(err)
		}
		if cellRep.Faults != len(standalone.Records) {
			t.Errorf("%s: sweep achieved %d faults, standalone %d", cellRep.Key, cellRep.Faults, len(standalone.Records))
		}
		if want := sweep.DigestCPURecords(standalone.Records); cellRep.Digest != want {
			t.Errorf("%s: sweep digest %s != standalone adaptive digest %s", cellRep.Key, cellRep.Digest, want)
		}
		if cellRep.Requested != standalone.Requested || cellRep.FaultsSaved != standalone.FaultsSaved {
			t.Errorf("%s: bookkeeping diverges: sweep %d/%d standalone %d/%d", cellRep.Key,
				cellRep.Requested, cellRep.FaultsSaved, standalone.Requested, standalone.FaultsSaved)
		}
		if cellRep.Z != standalone.Z || cellRep.AchievedMargin != standalone.AchievedMargin {
			t.Errorf("%s: margin bookkeeping diverges", cellRep.Key)
		}
		totalSaved += int64(cellRep.FaultsSaved)
	}
	if totalSaved == 0 {
		t.Fatal("margin 0.15 over 96-fault cells never stopped early — the adaptive path was not exercised")
	}
	if res.Counters.FaultsSaved != totalSaved {
		t.Errorf("Counters.FaultsSaved %d != sum over cells %d", res.Counters.FaultsSaved, totalSaved)
	}
}

// TestSweepAdaptiveResume interrupts an adaptive sweep and verifies the
// rerun restores the achieved fault counts from the journal — skipped
// cells credit their saved faults without re-injecting anything.
func TestSweepAdaptiveResume(t *testing.T) {
	dir := t.TempDir()
	spec := adaptiveSpec(dir)
	first, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(first.Cells)

	jPath := filepath.Join(dir, "cells.jsonl")
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != total {
		t.Fatalf("journal has %d lines, want %d", len(lines), total)
	}
	const keep = 2
	if err := os.WriteFile(jPath, []byte(strings.Join(lines[:keep], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counters.CellsSkipped != keep || resumed.Counters.CellsExecuted != total-keep {
		t.Errorf("skipped %d / executed %d, want %d / %d",
			resumed.Counters.CellsSkipped, resumed.Counters.CellsExecuted, keep, total-keep)
	}
	for i := range first.Cells {
		f, r := first.Cells[i], resumed.Cells[i]
		if f.Digest != r.Digest {
			t.Errorf("cell %s digest changed across resume", f.Key)
		}
		if f.Faults != r.Faults || f.Requested != r.Requested || f.FaultsSaved != r.FaultsSaved {
			t.Errorf("cell %s: achieved/requested/saved %d/%d/%d became %d/%d/%d across resume",
				f.Key, f.Faults, f.Requested, f.FaultsSaved, r.Faults, r.Requested, r.FaultsSaved)
		}
	}
	if resumed.Counters.FaultsSaved != first.Counters.FaultsSaved {
		t.Errorf("FaultsSaved %d after resume, want %d (restored cells must credit their savings)",
			resumed.Counters.FaultsSaved, first.Counters.FaultsSaved)
	}
}

// TestSweepAdaptiveManifestMismatch: the adaptive knobs are part of the
// sweep's identity — resuming into a directory with a different target
// margin must be rejected, not silently mixed.
func TestSweepAdaptiveManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{
		ISAs: []string{"riscv"}, Workloads: []string{"crc32"}, Targets: []string{"prf"},
		Faults: 40, Seed: 1, Preset: "fast", OutDir: dir,
		TargetMargin: 0.15,
	}
	if _, err := sweep.Run(spec); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*sweep.Spec){
		"margin":     func(s *sweep.Spec) { s.TargetMargin = 0.10 },
		"confidence": func(s *sweep.Spec) { s.Confidence = 2.576 },
		"minFaults":  func(s *sweep.Spec) { s.MinFaults = 64 },
		"maxFaults":  func(s *sweep.Spec) { s.MaxFaults = 80 },
	} {
		changed := spec
		mut(&changed)
		if _, err := sweep.Run(changed); err == nil {
			t.Errorf("changed %s must not resume into the same directory", name)
		}
	}
	// The unchanged spec still resumes cleanly.
	res, err := sweep.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.CellsSkipped != 1 || res.Counters.CellsExecuted != 0 {
		t.Errorf("unchanged spec re-executed: %+v", res.Counters)
	}
}

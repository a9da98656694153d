package campaign_test

// Differential equivalence suite for checkpoint-ladder fault dispatch:
// a campaign run with mid-window rungs must be bit-for-bit
// indistinguishable from the single-checkpoint campaign — same verdicts,
// same HVF divergence points, same verdict-stream digest — across every
// target, model, worker count and campaign mode. The ladder only changes
// where faulty runs fork from, never what they compute.

import (
	"io"
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/obs"
	"marvel/internal/sweep"
)

// runLadderPair executes the same campaign with LadderRungs = 0 and with
// the given rung count, asserting digest equality, and returns both
// results for further inspection.
func runLadderPair(t *testing.T, cfg campaign.Config, rungs int) (flat, laddered *campaign.Result) {
	t.Helper()
	base := cfg
	base.LadderRungs = 0
	flat, err := campaign.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	lad := cfg
	lad.LadderRungs = rungs
	laddered, err = campaign.Run(lad)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweep.DigestCPURecords(laddered.Records), sweep.DigestCPURecords(flat.Records); got != want {
		t.Errorf("ladder(%d) digest %s != single-checkpoint digest %s", rungs, got, want)
	}
	return flat, laddered
}

func TestLadderEquivalenceAllTargets(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	for _, target := range campaign.CPUTargets {
		target := target
		t.Run(target, func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Image:  img,
				Preset: config.Fast(),
				Target: target,
				Model:  core.Transient,
				Sizing: dispatch.Sizing{Faults: 16, Workers: 2},
				Seed:   23,
				HVF:    true,
			}
			flat, laddered := runLadderPair(t, cfg, 6)
			diffResults(t, target, flat, laddered)
		})
	}
}

func TestLadderEquivalenceSerialAndParallel(t *testing.T) {
	// The rung-sorted dispatch order must not leak into results under any
	// worker count (run under -race by the verify script).
	img := compileWorkload(t, "riscv", "sha")
	for _, workers := range []int{1, 8} {
		cfg := campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Target: "prf",
			Model:  core.Transient,
			Sizing: dispatch.Sizing{Faults: 24, Workers: workers},
			Seed:   43,
			HVF:    true,
			Domain: core.DomainValidOnly,
		}
		flat, laddered := runLadderPair(t, cfg, 8)
		if workers == 1 {
			diffResults(t, "serial", flat, laddered)
		} else {
			diffResults(t, "8-workers", flat, laddered)
		}
	}
}

func TestLadderEquivalencePermanentFaults(t *testing.T) {
	// Permanent models never climb the ladder: stuck-at bits must hold
	// from the window start, so every mask forks the window-start
	// checkpoint and the result matches a flat campaign trivially — but
	// the config must still be accepted and report zero rung hits.
	img := compileWorkload(t, "riscv", "crc32")
	for _, m := range []core.Model{core.StuckAt0, core.StuckAt1} {
		cfg := campaign.Config{
			Image:  img,
			Preset: config.Fast(),
			Target: "l1d",
			Model:  m,
			Sizing: dispatch.Sizing{Faults: 14, Workers: 2},
			Seed:   31,
		}
		flat, laddered := runLadderPair(t, cfg, 4)
		diffResults(t, m.String(), flat, laddered)
		if laddered.Forking.RungHits != 0 {
			t.Errorf("%s: permanent campaign reported %d rung hits", m, laddered.Forking.RungHits)
		}
	}
}

func TestLadderEquivalenceMultiStructure(t *testing.T) {
	// Multi-structure masks carry several transients at different cycles;
	// the rung must honor the EARLIEST one, and faults straddling a rung
	// boundary must still apply in cycle order during the run.
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		MultiTargets: []string{"prf", "l1d", "sq"},
		Model:        core.Transient,
		Sizing:       dispatch.Sizing{Faults: 12, Workers: 2},
		Seed:         41,
		HVF:          true,
	}
	flat, laddered := runLadderPair(t, cfg, 6)
	diffResults(t, "multi-structure", flat, laddered)
}

func TestLadderEquivalenceMultiBit(t *testing.T) {
	img := compileWorkload(t, "arm", "bitcount")
	cfg := campaign.Config{
		Image:        img,
		Preset:       config.Fast(),
		Target:       "prf",
		Model:        core.Transient,
		Sizing:       dispatch.Sizing{Faults: 12, Workers: 2},
		BitsPerFault: 3,
		Seed:         29,
	}
	flat, laddered := runLadderPair(t, cfg, 5)
	diffResults(t, "multi-bit", flat, laddered)
}

func TestLadderEquivalenceEarlyTermination(t *testing.T) {
	img := compileWorkload(t, "riscv", "dijkstra")
	cfg := campaign.Config{
		Image:            img,
		Preset:           config.Fast(),
		Target:           "prf",
		Model:            core.Transient,
		Sizing:           dispatch.Sizing{Faults: 24, Workers: 2},
		Seed:             37,
		EarlyTermination: true,
	}
	flat, laddered := runLadderPair(t, cfg, 6)
	diffResults(t, "earlyterm", flat, laddered)
}

func TestLadderEquivalenceUnderTracing(t *testing.T) {
	// Tracing armed on a laddered campaign must neither change verdicts
	// nor differ from the flat campaign's digest.
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 20, Workers: 2},
		Seed:   7,
		HVF:    true,
		Trace:  obs.NewJSONLSink(io.Discard),
	}
	runLadderPair(t, cfg, 6)
}

// TestLadderTracedNarrationIdentical pins the narration contract: a run
// restored from a mid-window rung must emit the same arming, flip and
// verdict events — same kinds, cycles, targets, bits and details — as the
// same mask replayed from the window-start checkpoint. Event timestamps
// are absolute cycles and the armed event is stamped at the window-start
// checkpoint cycle regardless of fork point, so the streams are literally
// identical.
func TestLadderTracedNarrationIdentical(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 12, Workers: 1},
		Seed:   17,
		HVF:    true,
	}
	capture := func(rungs int) [][]obs.Event {
		sink := &sliceSink{}
		c := cfg
		c.LadderRungs = rungs
		c.Trace = sink
		if _, err := campaign.Run(c); err != nil {
			t.Fatal(err)
		}
		// Split the serial stream into per-run slices at armed events:
		// dispatch order differs between the two campaigns (the ladder
		// sorts by rung), so runs are matched by their armed coordinates.
		var runs [][]obs.Event
		for _, e := range sink.events {
			if e.Kind == obs.KindFaultArmed && (len(runs) == 0 || hasVerdict(runs[len(runs)-1])) {
				runs = append(runs, nil)
			}
			if len(runs) > 0 {
				runs[len(runs)-1] = append(runs[len(runs)-1], e)
			}
		}
		return runs
	}
	flatRuns := capture(0)
	ladRuns := capture(6)
	if len(flatRuns) != len(ladRuns) || len(flatRuns) != cfg.Faults {
		t.Fatalf("run counts differ: flat %d, ladder %d, want %d", len(flatRuns), len(ladRuns), cfg.Faults)
	}
	matched := 0
	for _, fr := range flatRuns {
		key := fr[0]
		for _, lr := range ladRuns {
			if lr[0] == key {
				matched++
				if len(fr) != len(lr) {
					t.Errorf("run armed at bit %d: %d events flat vs %d laddered", key.Bit, len(fr), len(lr))
					break
				}
				for i := range fr {
					if fr[i] != lr[i] {
						t.Errorf("run armed at bit %d, event %d differs:\n flat:   %+v\n ladder: %+v", key.Bit, i, fr[i], lr[i])
					}
				}
				break
			}
		}
	}
	if matched != cfg.Faults {
		t.Errorf("only %d/%d runs matched by armed event", matched, cfg.Faults)
	}
}

// sliceSink retains every event unbounded (single-worker runs only).
type sliceSink struct{ events []obs.Event }

func (s *sliceSink) Emit(e obs.Event) { s.events = append(s.events, e) }

func hasVerdict(events []obs.Event) bool {
	for _, e := range events {
		if e.Kind == obs.KindVerdict {
			return true
		}
	}
	return false
}

func TestLadderForkStatsAccounting(t *testing.T) {
	img := compileWorkload(t, "riscv", "sha")
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 32, Workers: 2, LadderRungs: 8},
		Seed:   47,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forking
	if f.Rungs <= 0 {
		t.Fatalf("ladder campaign reported %d rungs", f.Rungs)
	}
	if f.RungHits == 0 {
		t.Error("no faulty run ever forked from a mid-window rung")
	}
	if f.Forks+f.ReuseHits != 32 {
		t.Errorf("forks(%d) + reuses(%d) != faults(32)", f.Forks, f.ReuseHits)
	}
	flat, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 32, Workers: 2},
		Seed:   47,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.ReplayedCycles >= flat.Forking.ReplayedCycles {
		t.Errorf("ladder replayed %d pre-injection cycles, flat campaign %d — the ladder should replay less",
			f.ReplayedCycles, flat.Forking.ReplayedCycles)
	}
}

func TestLadderRejectsNegativeRungs(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	_, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 1, LadderRungs: -1},
		Seed:   1,
	})
	if err == nil {
		t.Fatal("negative LadderRungs accepted")
	}
}

package accel_test

import (
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
	"marvel/internal/obs"
	"marvel/internal/sweep"
)

// TestAccelProfilingDoesNotChangeVerdicts is the accelerator-side
// differential guard for the span layer: the profiled campaign's
// verdict stream must be digest-identical to the unprofiled one. The
// replay/faulty span split re-composes the engine's single tick loop,
// so this also pins that the split preserves tick-exact behavior, flat
// and laddered, serial and parallel, transient and permanent.
func TestAccelProfilingDoesNotChangeVerdicts(t *testing.T) {
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []core.Model{core.Transient, core.StuckAt0} {
		for _, rungs := range []int{0, 4} {
			for _, workers := range []int{1, 4} {
				cfg := accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: "MATRIX1",
					Model: model, Sizing: dispatch.Sizing{Faults: 24, Workers: workers, LadderRungs: rungs}, Seed: 13,
				}
				label := fmt.Sprintf("%s/rungs=%d/%dw", model, rungs, workers)
				plain := mustRun(t, cfg)

				prof := cfg
				prof.Profile = obs.NewProfiler()
				pr := mustRun(t, prof)
				if got, want := sweep.DigestAccelRecords(pr.Records), sweep.DigestAccelRecords(plain.Records); got != want {
					t.Errorf("%s: profiled digest %s != unprofiled %s", label, got, want)
				}
				snap := prof.Profile.Snapshot()
				if snap.WallSec <= 0 || len(snap.Phases) == 0 {
					t.Errorf("%s: profiler recorded nothing: %+v", label, snap)
				}
				if model.Permanent() {
					// Permanent faults run from cycle 0: no residual replay.
					if s := prof.Profile.PhaseSeconds(obs.PhaseReplay); s != 0 {
						t.Errorf("%s: permanent campaign recorded %vs of replay", label, s)
					}
				}
			}
		}
	}
}

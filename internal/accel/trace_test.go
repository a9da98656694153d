// The tracing differential and explain-reproduction tests live in an
// external test package: they fingerprint verdict streams with
// internal/sweep's FNV-1a digest, and sweep imports accel.
package accel_test

import (
	"io"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
	"marvel/internal/obs"
	"marvel/internal/sweep"
)

func gemmCampaignConfig(t testing.TB, faults int) accel.CampaignConfig {
	t.Helper()
	spec, err := machsuite.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	return accel.CampaignConfig{
		Design: spec.Design,
		Task:   spec.Task,
		Target: "MATRIX1",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: faults},
		Seed:   5,
	}
}

// TestAccelTracingDoesNotChangeVerdicts is the accelerator half of the
// observability differential guard: attaching a tracer must leave the
// digest of the verdict stream bit-identical.
func TestAccelTracingDoesNotChangeVerdicts(t *testing.T) {
	cfg := gemmCampaignConfig(t, 40)
	plain, err := accel.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	serial := cfg
	serial.Workers = 1
	serial.Trace = obs.NewRingSink(256)
	ts, err := accel.RunCampaign(serial)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweep.DigestAccelRecords(ts.Records), sweep.DigestAccelRecords(plain.Records); got != want {
		t.Fatalf("serial traced digest %s != untraced %s", got, want)
	}

	par := cfg
	par.Trace = obs.NewJSONLSink(io.Discard)
	tp, err := accel.RunCampaign(par)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweep.DigestAccelRecords(tp.Records), sweep.DigestAccelRecords(plain.Records); got != want {
		t.Fatalf("parallel traced digest %s != untraced %s", got, want)
	}
}

// TestAccelExplainReproducesVerdict pins the accelerator explain
// contract: the deterministic re-run of (seed, index) returns the exact
// campaign verdict and a lifecycle-ordered event timeline.
func TestAccelExplainReproducesVerdict(t *testing.T) {
	cfg := gemmCampaignConfig(t, 12)
	res, err := accel.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := accel.PrepareGolden(cfg.Design, cfg.Task)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		ex, err := accel.ExplainWithGolden(cfg, g, i)
		if err != nil {
			t.Fatalf("explain %d: %v", i, err)
		}
		if ex.Verdict != rec.Verdict {
			t.Errorf("index %d: explain verdict %+v != campaign verdict %+v", i, ex.Verdict, rec.Verdict)
		}
		if ex.Fault != rec.Fault {
			t.Errorf("index %d: explain replayed fault %+v, campaign injected %+v", i, ex.Fault, rec.Fault)
		}
		if len(ex.Events) == 0 {
			t.Errorf("index %d: no events traced", i)
			continue
		}
		if ex.Events[0].Kind != obs.KindFaultArmed {
			t.Errorf("index %d: first event %v, want fault-armed", i, ex.Events[0].Kind)
		}
		if last := ex.Events[len(ex.Events)-1].Kind; last != obs.KindVerdict {
			t.Errorf("index %d: last event %v, want verdict", i, last)
		}
	}
}

// TestAccelForkStatsUnderParallelWorkers exercises the atomic ForkStats
// flush with many workers; under -race it proves the aggregation is
// data-race-free, and the totals must account for every fault.
func TestAccelForkStatsUnderParallelWorkers(t *testing.T) {
	cfg := gemmCampaignConfig(t, 32)
	cfg.Workers = 8
	res, err := accel.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forking
	if f.Forks == 0 {
		t.Fatal("no forks recorded")
	}
	if f.Forks+f.ReuseHits+f.Pruned != 32 {
		t.Fatalf("forks %d + reuses %d + pruned %d != 32 faults", f.Forks, f.ReuseHits, f.Pruned)
	}
}

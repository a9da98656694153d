package campaign_test

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

// TestTracingDoesNotChangeVerdicts is the differential guard for the
// observability layer: a campaign with a tracer attached must classify
// every fault bit-identically to the untraced campaign — emission sites
// only observe. The FNV-1a digest covers every fault coordinate and every
// verdict field, so any perturbation (an extra watch changing early-stop
// cycles, a polling-cadence change, a mutated mask) fails the test.
func TestTracingDoesNotChangeVerdicts(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	base := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 50},
		Seed:   7,
	}
	variants := []struct {
		name string
		mod  func(*campaign.Config)
	}{
		{"base", func(*campaign.Config) {}},
		{"hvf", func(c *campaign.Config) { c.HVF = true }},
		{"earlyterm", func(c *campaign.Config) { c.EarlyTermination = true }},
		{"validonly+earlyterm+hvf", func(c *campaign.Config) {
			c.Domain = core.DomainValidOnly
			c.EarlyTermination = true
			c.HVF = true
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.mod(&cfg)
			plain, err := campaign.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			serial := cfg
			serial.Workers = 1
			serial.Trace = obs.NewRingSink(256)
			ts, err := campaign.Run(serial)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sweep.DigestCPURecords(ts.Records), sweep.DigestCPURecords(plain.Records); got != want {
				t.Fatalf("serial traced digest %s != untraced %s", got, want)
			}

			// Multi-worker tracing interleaves events from concurrent runs
			// into a concurrency-safe sink; verdicts must still match.
			par := cfg
			par.Trace = obs.NewJSONLSink(io.Discard)
			tp, err := campaign.Run(par)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sweep.DigestCPURecords(tp.Records), sweep.DigestCPURecords(plain.Records); got != want {
				t.Fatalf("parallel traced digest %s != untraced %s", got, want)
			}
		})
	}
}

// TestExplainReproducesCampaignVerdict pins the explain contract: for
// every index of a campaign, the deterministic re-run returns the exact
// verdict the campaign recorded, and its event timeline is lifecycle-
// ordered (armed first, injection before classification, verdict last).
func TestExplainReproducesCampaignVerdict(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	cfg := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 20},
		Seed:   3,
		HVF:    true, // Explain always runs the HVF overlay; match it for full-verdict equality
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := campaign.PrepareGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		ex, err := campaign.ExplainWithGolden(cfg, g, i)
		if err != nil {
			t.Fatalf("explain %d: %v", i, err)
		}
		if ex.Verdict != rec.Verdict {
			t.Errorf("index %d: explain verdict %+v != campaign verdict %+v", i, ex.Verdict, rec.Verdict)
		}
		if ex.Mask.ID != rec.Mask.ID || len(ex.Mask.Faults) != len(rec.Mask.Faults) {
			t.Errorf("index %d: explain replayed mask %+v, campaign injected %+v", i, ex.Mask, rec.Mask)
		}
		checkLifecycleOrder(t, i, ex.Events)
	}
}

// checkLifecycleOrder asserts armed ≤ flipped < verdict in event-stream
// positions, armed first and verdict last.
func checkLifecycleOrder(t *testing.T, index int, events []obs.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Errorf("index %d: no events traced", index)
		return
	}
	if events[0].Kind != obs.KindFaultArmed {
		t.Errorf("index %d: first event %v, want fault-armed", index, events[0].Kind)
	}
	if last := events[len(events)-1].Kind; last != obs.KindVerdict {
		t.Errorf("index %d: last event %v, want verdict", index, last)
	}
	first := map[obs.Kind]int{}
	for pos, e := range events {
		if _, ok := first[e.Kind]; !ok {
			first[e.Kind] = pos
		}
	}
	armed, okArmed := first[obs.KindFaultArmed]
	verdict, okVerdict := first[obs.KindVerdict]
	if !okArmed || !okVerdict {
		t.Errorf("index %d: missing armed or verdict event (%v)", index, events)
		return
	}
	if flip, ok := first[obs.KindBitFlipped]; ok && !(armed <= flip && flip < verdict) {
		t.Errorf("index %d: lifecycle out of order: armed@%d flip@%d verdict@%d", index, armed, flip, verdict)
	}
}

// TestForkStatsUnderParallelWorkers exercises the atomic ForkStats
// aggregation path: with many workers the per-worker counters fold in
// concurrently, and the totals must still account for every faulty run.
// Run under -race this also proves the flush is data-race-free.
func TestForkStatsUnderParallelWorkers(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 40, Workers: 8},
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forking
	if f.Forks == 0 {
		t.Fatal("no forks recorded")
	}
	if f.Forks+f.ReuseHits != 40 {
		t.Fatalf("forks %d + reuses %d != 40 faulty runs", f.Forks, f.ReuseHits)
	}
}

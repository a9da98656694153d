package accel

import (
	"fmt"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/obs"
)

// Explanation is the result of re-running one accelerator campaign fault
// with full tracing armed: the derived fault, its verdict (bit-identical
// to the campaign's record for the same index), and the retained
// fault-lifecycle events.
type Explanation struct {
	Index        int
	Fault        core.Fault
	Verdict      classify.Verdict
	GoldenCycles uint64
	TargetBits   uint64
	Window       uint64
	// Events is the retained event stream; EventsDropped counts the
	// mid-stream events the bounded sink evicted.
	Events        []obs.Event
	EventsDropped int
}

// ExplainWithGolden deterministically re-runs campaign fault (cfg.Seed,
// index) against a prepared golden reference, with tracing on.
// Accelerator faults derive purely from (seed, index) via
// core.DeriveFault, so the re-run reproduces the campaign verdict exactly;
// tracing only observes. cfg.Trace, Sizing and OnVerdict are ignored.
func ExplainWithGolden(cfg CampaignConfig, g *CampaignGolden, index int) (*Explanation, error) {
	if index < 0 {
		return nil, fmt.Errorf("accel: explain: index must be non-negative, got %d", index)
	}
	in, err := g.injection(cfg)
	if err != nil {
		return nil, err
	}
	f := in.fault(cfg, index)
	sink := obs.NewRingSink(512)
	v := runFaulty(g.base.Fork(), in.bankIdx, f, in.cycleBudget, g.Output, sink, nil, 0)
	return &Explanation{
		Index:         index,
		Fault:         f,
		Verdict:       v,
		GoldenCycles:  g.Cycles,
		TargetBits:    in.bits,
		Window:        in.window,
		Events:        sink.Events(),
		EventsDropped: sink.Dropped(),
	}, nil
}

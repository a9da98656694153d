package accel

import (
	"fmt"

	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/metrics"
)

// RunRebuildOracle is the reference the accelerator equivalence suites
// hold the dispatch kernel to: every fault runs serially on a harness
// rebuilt from scratch with NewStandalone — no fork, no reset, no ladder,
// no worker pool. Fixed budgets only (cfg.Faults faults).
func RunRebuildOracle(cfg CampaignConfig) (*CampaignResult, error) {
	g, err := PrepareGolden(cfg.Design, cfg.Task)
	if err != nil {
		return nil, err
	}
	in, err := g.injection(cfg)
	if err != nil {
		return nil, err
	}
	z := dispatch.Quantile(cfg.Confidence)
	res := &CampaignResult{
		Target:       cfg.Target,
		GoldenCycles: g.Cycles,
		GoldenOutput: g.Output,
		TargetBits:   in.bits,
		Summary: dispatch.Summary{
			Margin:    core.MarginFor(in.bits, cfg.Faults, z),
			Z:         z,
			Requested: cfg.Faults,
			Batches:   1,
		},
	}
	for i := 0; i < cfg.Faults; i++ {
		s, err := NewStandalone(cfg.Design, cfg.Task)
		if err != nil {
			return nil, fmt.Errorf("accel: rebuild oracle: %w", err)
		}
		f := in.fault(cfg, i)
		v := runFaulty(s, in.bankIdx, f, in.cycleBudget, g.Output, cfg.Trace, nil, int64(i))
		res.Records = append(res.Records, Record{Fault: f, Verdict: v})
		res.Counts.Add(v)
		res.Forking.Forks++
	}
	res.AchievedMargin = metrics.Confidence(res.Counts.AVF(), cfg.Faults, z).Half()
	return res, nil
}

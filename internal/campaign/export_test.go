package campaign

import (
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/metrics"
	"marvel/internal/trace"
)

// RunCloneOracle is the reference the fork-equivalence suite holds the
// dispatch kernel to: the campaign's masks run serially, each on a fresh
// deep Clone of the window-start checkpoint — no copy-on-write, no scratch
// reuse, no ladder, no worker pool. Fixed budgets only (cfg.Faults masks).
func RunCloneOracle(cfg Config) (*Result, error) {
	g, err := PrepareGolden(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.WatchdogFactor <= 1 {
		cfg.WatchdogFactor = 3
	}
	masks, bits, err := buildMasks(cfg, g.base, &g.Info)
	if err != nil {
		return nil, err
	}
	var goldenTrace *trace.Golden
	if cfg.HVF {
		goldenTrace = g.trace.Slice(g.commitsAtCkpt)
	}
	z := dispatch.Quantile(cfg.Confidence)
	res := &Result{
		Model:      cfg.Model,
		Golden:     g.Info,
		TargetBits: bits,
		Summary: dispatch.Summary{
			Margin:    core.MarginFor(bits, len(masks), z),
			Z:         z,
			Requested: len(masks),
			Batches:   1,
		},
	}
	for _, m := range masks {
		v, err := runOne(cfg, g.base.Clone(), &g.Info, goldenTrace, 0, g.base.CPU.Cycle(), m, nil)
		if err != nil {
			return nil, err
		}
		res.Records = append(res.Records, Record{Mask: m, Verdict: v})
		res.Counts.Add(v)
		if cfg.HVF {
			res.Counts.AddHVF(v)
		}
		res.Forking.Forks++
	}
	res.AchievedMargin = metrics.Confidence(res.Counts.AVF(), len(masks), z).Half()
	return res, nil
}

// BuildMasks derives the cfg.Faults masks a campaign over g injects.
func BuildMasks(cfg Config, g *Golden) ([]core.Mask, uint64, error) {
	return buildMasks(cfg, g.base, &g.Info)
}

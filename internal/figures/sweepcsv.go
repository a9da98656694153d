package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"marvel/internal/metrics"
	"marvel/internal/sweep"
)

// SweepCSV writes completed sweep cells as the flat CSV the figure
// scripts consume: one row per cell, with a "figures" column naming
// which of the paper's Figures 4–13 the row feeds (Figures 9–11 are the
// SDC-AVF columns of the prf/l1i/l1d rows). Accelerator cells get an
// empty figures column; an unmeasured HVF is left blank rather than
// written as 0.
func SweepCSV(w io.Writer, cells []sweep.CellReport) error {
	cw := csv.NewWriter(w)
	header := []string{
		"figures", "kind", "isa", "workload", "target",
		"design", "component", "model",
		"faults", "masked", "sdc", "crash", "early_stops",
		"avf", "sdc_avf", "crash_avf", "hvf", "margin",
		"golden_cycles", "target_bits",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("figures: sweep csv: %w", err)
	}
	for _, c := range cells {
		hvf := ""
		if c.HVFMeasured && c.HVF != nil {
			hvf = fmt.Sprintf("%.6f", *c.HVF)
		}
		row := []string{
			figureIDs(c.Cell),
			c.Cell.Kind, c.Cell.ISA, c.Cell.Workload, c.Cell.Target,
			c.Cell.Design, c.Cell.Component, c.Cell.Model,
			fmt.Sprint(c.Faults), fmt.Sprint(c.Masked), fmt.Sprint(c.SDC),
			fmt.Sprint(c.Crash), fmt.Sprint(c.EarlyStops),
			fmt.Sprintf("%.6f", c.AVF), fmt.Sprintf("%.6f", c.SDCAVF),
			fmt.Sprintf("%.6f", c.CrashAVF), hvf,
			fmt.Sprintf("%.6f", c.Margin),
			fmt.Sprint(c.GoldenCycles), fmt.Sprint(c.TargetBits),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("figures: sweep csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("figures: sweep csv: %w", err)
	}
	return nil
}

// figureIDs names the Figures 4–13 a CPU cell feeds, ";"-joined: its
// (target, model) pair matched against the CPUFigures table. Multi-target
// cells and accelerator cells feed none.
func figureIDs(c sweep.Cell) string {
	if c.Kind != sweep.KindCPU {
		return ""
	}
	var ids []string
	for _, f := range CPUFigures() {
		if f.Target == c.Target && f.Model.String() == c.Model {
			ids = append(ids, f.ID)
		}
	}
	return strings.Join(ids, ";")
}

// SweepWAVF aggregates the execution-time-weighted AVF (§V-A) per
// (ISA, target, model) group of a sweep's CPU cells, returned as
// "isa/target/model" → wAVF. It is the aggregate row under each of
// Figures 4–8.
func SweepWAVF(cells []sweep.CellReport) map[string]float64 {
	return weightedBy(cells, AVF)
}

// weightedBy is SweepWAVF over any per-cell metric (Figures 9–13 weight
// the SDC AVF).
func weightedBy(cells []sweep.CellReport, metric func(sweep.CellReport) float64) map[string]float64 {
	type group struct{ vals, ts []float64 }
	groups := map[string]*group{}
	for _, c := range cells {
		if c.Cell.Kind != sweep.KindCPU {
			continue
		}
		k := fmt.Sprintf("%s/%s/%s", c.Cell.ISA, c.Cell.Target, c.Cell.Model)
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.vals = append(g.vals, metric(c))
		g.ts = append(g.ts, float64(c.GoldenCycles))
	}
	out := make(map[string]float64, len(groups))
	for k, g := range groups {
		out[k] = metrics.WeightedAVF(g.vals, g.ts)
	}
	return out
}

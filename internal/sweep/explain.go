package sweep

import (
	"fmt"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/config"
)

// Explanation is one fault of a one-cell grid re-run with tracing armed.
// CPU is set for a CPU cell, Accel for an accelerator cell.
type Explanation struct {
	Cell  Cell
	CPU   *campaign.Explanation
	Accel *accel.Explanation
}

// ValidateExplain checks, without running anything, that spec is a valid
// one-cell grid and index a fault index.
func (spec Spec) ValidateExplain(index int) error {
	_, _, err := spec.resolveExplain(index)
	return err
}

// resolveExplain is ValidateExplain returning the cell and CPU preset.
func (spec Spec) resolveExplain(index int) (Cell, config.Preset, error) {
	if index < 0 {
		return Cell{}, config.Preset{}, fmt.Errorf("sweep: explain: index must be non-negative, got %d", index)
	}
	cells, pre, err := spec.resolve()
	if err != nil {
		return Cell{}, config.Preset{}, err
	}
	if len(cells) != 1 {
		return Cell{}, config.Preset{}, fmt.Errorf("sweep: explain needs a one-cell grid, got %d cells", len(cells))
	}
	return cells[0], pre, nil
}

// Explain re-runs fault index of the one-cell grid spec with full
// tracing. The engine config comes from the same cell translation a Run
// of the grid uses, and the golden from the grid's cache (spec.Goldens,
// or one scoped to this call), so the explained fault is the campaign's
// fault at that index by construction.
func Explain(spec Spec, index int) (*Explanation, error) {
	cell, pre, err := spec.resolveExplain(index)
	if err != nil {
		return nil, err
	}
	goldens := spec.Goldens
	if goldens == nil {
		goldens = NewRunCache()
	}
	c, _, err := spec.translate(pre, cell, 1, goldens)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Cell: cell}
	if cell.Kind == KindCPU {
		ex.CPU, err = campaign.ExplainWithGolden(c.cpu, c.cpuGolden, index)
	} else {
		ex.Accel, err = accel.ExplainWithGolden(c.accel, c.accelGolden, index)
	}
	if err != nil {
		return nil, err
	}
	return ex, nil
}

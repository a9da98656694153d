// Package figures regenerates every table and figure of the paper's
// evaluation section. Each figure is drawn from sweep.Run grids at the
// one sweep seed (Seed), so every figure inherits the sweep's golden
// reuse and verdict digests; only the experiments no grid can name
// (Figure 16's CPU programs, Figure 17's gemm variants and Listing 1's
// validation program) call the engines directly, at the same seed. The package backs both the bench_test.go harness (scaled samples)
// and the cmd/marvel-figures tool (full-resolution, 1,000 faults per
// structure).
package figures

import (
	"fmt"
	"io"
	"slices"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/metrics"
	"marvel/internal/program"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// Seed is the sweep seed every figure's campaigns are drawn from.
const Seed int64 = 1

// isas are the CPU figures' columns.
var isas = []string{"arm", "x86", "riscv"}

// Params scales the experiments.
type Params struct {
	Faults    int      // faults per structure per benchmark (paper: 1000)
	Workloads []string // nil = all fifteen
	W         io.Writer
}

func (p *Params) defaults() error {
	if p.Faults <= 0 {
		p.Faults = 24
	}
	if p.W == nil {
		return fmt.Errorf("figures: no output writer")
	}
	return nil
}

// cpuGrid is the sweep grid of CPU-side figures: ISAs × the workload
// subset × targets under one model, valid-only, at Seed.
func (p Params) cpuGrid(isas, targets []string, model core.Model, goldens sweep.GoldenCache) sweep.Spec {
	return sweep.Spec{
		ISAs:      isas,
		Workloads: p.Workloads,
		Targets:   targets,
		Models:    []string{model.String()},
		Faults:    p.Faults,
		Seed:      Seed,
		ValidOnly: true,
		Goldens:   goldens,
	}
}

// AVF extracts a cell's total AVF.
func AVF(c sweep.CellReport) float64 { return c.AVF }

// SDCAVF extracts a cell's SDC component.
func SDCAVF(c sweep.CellReport) float64 { return c.SDCAVF }

// CPUFigureSpec names one of the CPU-side figures.
type CPUFigureSpec struct {
	ID     string
	Title  string
	Target string
	Model  core.Model
	Metric func(sweep.CellReport) float64
}

// CPUFigures lists Figures 4-13.
func CPUFigures() []CPUFigureSpec {
	return []CPUFigureSpec{
		{"fig04", "Figure 4: AVF, integer physical register file (transient)", "prf", core.Transient, AVF},
		{"fig05", "Figure 5: AVF, L1 instruction cache (transient)", "l1i", core.Transient, AVF},
		{"fig06", "Figure 6: AVF, L1 data cache (transient)", "l1d", core.Transient, AVF},
		{"fig07", "Figure 7: AVF, load queue (transient)", "lq", core.Transient, AVF},
		{"fig08", "Figure 8: AVF, store queue (transient)", "sq", core.Transient, AVF},
		{"fig09", "Figure 9: SDC AVF, physical register file", "prf", core.Transient, SDCAVF},
		{"fig10", "Figure 10: SDC AVF, L1 instruction cache", "l1i", core.Transient, SDCAVF},
		{"fig11", "Figure 11: SDC AVF, L1 data cache", "l1d", core.Transient, SDCAVF},
		{"fig12", "Figure 12: SDC probability, permanent faults, L1I (stuck-at-1)", "l1i", core.StuckAt1, SDCAVF},
		{"fig13", "Figure 13: SDC probability, permanent faults, L1D (stuck-at-1)", "l1d", core.StuckAt1, SDCAVF},
	}
}

// CPUCells runs the campaigns behind figs: one sweep grid over the three
// ISAs × workloads per fault model, covering every target those figures
// plot, with all grids sharing one golden cache. Figures that plot the
// same (target, model) read the same cells — Figures 9–11 are the SDC
// columns of Figures 4–6's — so all of Figures 4–13 take two grids.
func CPUCells(p Params, figs []CPUFigureSpec) ([]sweep.CellReport, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	var models []core.Model
	targets := map[core.Model][]string{}
	for _, f := range figs {
		ts, seen := targets[f.Model]
		if !seen {
			models = append(models, f.Model)
		}
		if !slices.Contains(ts, f.Target) {
			targets[f.Model] = append(ts, f.Target)
		}
	}
	goldens := sweep.NewRunCache()
	var cells []sweep.CellReport
	for _, m := range models {
		res, err := sweep.Run(p.cpuGrid(isas, targets[m], m, goldens))
		if err != nil {
			return nil, err
		}
		cells = append(cells, res.Cells...)
	}
	return cells, nil
}

// PrintCPUFigure writes figure f from the CPU cells that feed it — one
// row per workload, one column per ISA — with the execution-time-weighted
// aggregate row (§V-A) of the figure's metric.
func PrintCPUFigure(w io.Writer, f CPUFigureSpec, cells []sweep.CellReport) {
	fmt.Fprintf(w, "\n%s\n", f.Title)
	fmt.Fprintf(w, "%-14s %8s %8s %8s\n", "benchmark", "arm", "x86", "riscv")
	var names []string
	vals := map[string]map[string]float64{}
	var mine []sweep.CellReport
	for _, c := range cells {
		if c.Cell.Kind != sweep.KindCPU || c.Cell.Target != f.Target || c.Cell.Model != f.Model.String() {
			continue
		}
		mine = append(mine, c)
		if vals[c.Cell.Workload] == nil {
			names = append(names, c.Cell.Workload)
			vals[c.Cell.Workload] = map[string]float64{}
		}
		vals[c.Cell.Workload][c.Cell.ISA] = f.Metric(c)
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-14s", n)
		for _, a := range isas {
			fmt.Fprintf(w, " %7.1f%%", 100*vals[n][a])
		}
		fmt.Fprintln(w)
	}
	wavf := weightedBy(mine, f.Metric)
	fmt.Fprintf(w, "%-14s", "wAVF")
	for _, a := range isas {
		fmt.Fprintf(w, " %7.1f%%", 100*wavf[a+"/"+f.Target+"/"+f.Model.String()])
	}
	fmt.Fprintln(w)
}

// Fig14 runs the DSA component campaigns — one grid over every design ×
// Table IV component — and prints the SDC/Crash breakdown.
func Fig14(p Params) error {
	if err := p.defaults(); err != nil {
		return err
	}
	var designs []string
	for _, spec := range machsuite.All() {
		designs = append(designs, spec.Name)
	}
	res, err := sweep.Run(sweep.Spec{Designs: designs, Faults: p.Faults, Seed: Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(p.W, "\nFigure 14: accelerator AVF breakdown (SDC + Crash) per Table IV component\n")
	fmt.Fprintf(p.W, "%-11s %-9s %8s %8s %8s\n", "design", "component", "SDC", "Crash", "AVF")
	for _, c := range res.Cells {
		fmt.Fprintf(p.W, "%-11s %-9s %7.1f%% %7.1f%% %7.1f%%\n",
			c.Cell.Design, c.Cell.Component, 100*c.SDCAVF, 100*c.CrashAVF, 100*c.AVF)
	}
	return nil
}

// Fig15 runs the PRF-size sensitivity study on RISC-V: one grid per
// physical register count.
func Fig15(p Params) error {
	if err := p.defaults(); err != nil {
		return err
	}
	sizes := []int{96, 128, 192}
	var names []string
	avf := map[string][]float64{}
	for _, n := range sizes {
		spec := p.cpuGrid([]string{"riscv"}, []string{"prf"}, core.Transient, nil)
		spec.PhysRegs = n
		res, err := sweep.Run(spec)
		if err != nil {
			return err
		}
		for _, c := range res.Cells {
			if avf[c.Cell.Workload] == nil {
				names = append(names, c.Cell.Workload)
			}
			avf[c.Cell.Workload] = append(avf[c.Cell.Workload], c.AVF)
		}
	}
	fmt.Fprintf(p.W, "\nFigure 15: PRF AVF vs physical register count (riscv, transient)\n")
	fmt.Fprintf(p.W, "%-14s %8s %8s %8s\n", "benchmark", "96", "128", "192")
	for _, n := range names {
		fmt.Fprintf(p.W, "%-14s", n)
		for _, v := range avf[n] {
			fmt.Fprintf(p.W, " %7.1f%%", 100*v)
		}
		fmt.Fprintln(p.W)
	}
	return nil
}

// Fig16 runs the performance-aware CPU-vs-DSA comparison (AVF + OPF). The
// DSA side is one grid over the compared designs; the CPU side runs each
// algorithm's CPU version (machsuite.CPUVersion), a program no grid can
// name, through the campaign engine directly.
func Fig16(p Params) error {
	if err := p.defaults(); err != nil {
		return err
	}
	const clockHz = 1e9
	algos := machsuite.CPUComparisonAlgos()
	dsa, err := sweep.Run(sweep.Spec{Designs: algos, Faults: p.Faults, Seed: Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(p.W, "\nFigure 16: CPU vs DSA — AVF (SDC/Crash) and Operations per Failure\n")
	fmt.Fprintf(p.W, "%-10s %-5s %8s %8s %8s %9s %12s\n",
		"algorithm", "side", "SDC", "Crash", "AVF", "cycles", "OPF")
	for _, name := range algos {
		prog, ops, err := machsuite.CPUVersion(name)
		if err != nil {
			return err
		}
		img, err := program.Compile(isa.RV64L{}, prog)
		if err != nil {
			return err
		}
		var cpu bitWeighted
		var cpuCycles uint64
		for _, tgt := range []string{"prf", "l1i", "l1d", "lq", "sq"} {
			res, err := campaign.Run(campaign.Config{
				Image:  img,
				Preset: config.TableII(),
				Target: tgt,
				Model:  core.Transient,
				Faults: p.Faults,
				Seed:   Seed,
				Domain: core.DomainValidOnly,
			})
			if err != nil {
				return err
			}
			cpu.add(res.Counts.SDCAVF(), res.Counts.CrashAVF(), res.TargetBits)
			cpuCycles = res.Golden.Cycles
		}
		var dsaSide bitWeighted
		var dsaCycles uint64
		for _, c := range dsa.Cells {
			if c.Cell.Design == name {
				dsaSide.add(c.SDCAVF, c.CrashAVF, c.TargetBits)
				dsaCycles = c.GoldenCycles
			}
		}
		cpu.print(p.W, name, "CPU", ops, cpuCycles, clockHz)
		dsaSide.print(p.W, name, "DSA", ops, dsaCycles, clockHz)
	}
	return nil
}

// bitWeighted accumulates a side's SDC and Crash AVFs weighted by each
// structure's bit count.
type bitWeighted struct{ sdc, crash, bits float64 }

func (b *bitWeighted) add(sdc, crash float64, bits uint64) {
	w := float64(bits)
	b.sdc += sdc * w
	b.crash += crash * w
	b.bits += w
}

func (b bitWeighted) print(w io.Writer, algo, side string, ops float64, cycles uint64, clockHz float64) {
	sdc, crash := b.sdc/b.bits, b.crash/b.bits
	opf, ok := metrics.OPF(ops, cycles, clockHz, sdc+crash)
	fmt.Fprintf(w, "%-10s %-5s %7.1f%% %7.1f%% %7.1f%% %9d %12s\n",
		algo, side, 100*sdc, 100*crash, 100*(sdc+crash), cycles, opfCol(opf, ok))
}

// opfCol renders an OPF cell: a fully-masked campaign has no finite OPF,
// so the column stays blank rather than printing +Inf (the same
// convention as the unmeasured-HVF column).
func opfCol(opf float64, measured bool) string {
	if !measured {
		return "-"
	}
	return fmt.Sprintf("%.3g", opf)
}

// Fig17 runs the gemm design-space exploration under a common injection
// window (the slowest configuration's task duration). The functional-unit
// variants and the window override are not grid coordinates, so each
// variant's campaign runs through the accelerator engine directly.
func Fig17(p Params) error {
	if err := p.defaults(); err != nil {
		return err
	}
	fuSweep := []int{1, 2, 4, 8, 16}
	slow, err := accel.NewStandalone(machsuite.GemmDesign(fuSweep[0]), machsuite.GemmTask())
	if err != nil {
		return err
	}
	if err := slow.Run(50_000_000); err != nil {
		return err
	}
	window := slow.Cluster.TaskCycles()
	fmt.Fprintf(p.W, "\nFigure 17: gemm DSE — MATRIX1 AVF vs functional units (common %d-cycle window)\n", window)
	fmt.Fprintf(p.W, "%-6s %8s %9s %8s\n", "FUs", "AVF", "cycles", "area")
	for _, fus := range fuSweep {
		d := machsuite.GemmDesign(fus)
		res, err := accel.RunCampaign(accel.CampaignConfig{
			Design: d, Task: machsuite.GemmTask(), Target: "MATRIX1",
			Model: core.Transient, Faults: p.Faults, Seed: Seed,
			WindowOverride: window,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(p.W, "%-6d %7.1f%% %9d %8.1f\n",
			fus, 100*res.AVF(), res.GoldenCycles, accel.AreaUnits(d))
	}
	return nil
}

// Fig18 compares HVF against AVF for the PRF and L1D over six benchmarks:
// one riscv grid with the commit-stage HVF analysis on.
func Fig18(p Params) error {
	if err := p.defaults(); err != nil {
		return err
	}
	if len(p.Workloads) == 0 {
		p.Workloads = []string{"basicmath", "qsort", "dijkstra", "sha", "crc32", "fft"}
	}
	spec := p.cpuGrid([]string{"riscv"}, []string{"prf", "l1d"}, core.Transient, nil)
	spec.HVF = true
	res, err := sweep.Run(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.W, "\nFigure 18: HVF vs AVF (riscv, transient)\n")
	fmt.Fprintf(p.W, "%-12s %10s %8s %10s %8s\n", "benchmark", "PRF HVF", "PRF AVF", "L1D HVF", "L1D AVF")
	// Plan order is workload-major, targets in spec order: prf, then l1d.
	for i := 0; i+1 < len(res.Cells); i += 2 {
		prf, l1d := res.Cells[i], res.Cells[i+1]
		for _, c := range []sweep.CellReport{prf, l1d} {
			if !c.HVFMeasured || *c.HVF < c.AVF {
				return fmt.Errorf("figures: %s HVF below AVF %.3f (or unmeasured)", c.Key, c.AVF)
			}
		}
		fmt.Fprintf(p.W, "%-12s %9.1f%% %7.1f%% %9.1f%% %7.1f%%\n",
			prf.Cell.Workload, 100**prf.HVF, 100*prf.AVF, 100**l1d.HVF, 100*l1d.AVF)
	}
	return nil
}

// TableIVText prints the accelerator component inventory.
func TableIVText(w io.Writer) {
	fmt.Fprintf(w, "\nTable IV: target injection components per DSA design (paper vs modeled sizes)\n")
	fmt.Fprintf(w, "%-11s %-9s %10s %10s %8s\n", "design", "component", "paper B", "model B", "type")
	for _, c := range machsuite.TableIV() {
		fmt.Fprintf(w, "%-11s %-9s %10d %10d %8s\n",
			c.Design, c.Name, c.PaperBytes, c.ModelBytes, c.Kind)
	}
}

// Listing1 runs the injector validation program — not a workload a grid
// can name — and returns the measured coverage AVF (the paper reports
// exactly 100%).
func Listing1(p Params) (float64, error) {
	if err := p.defaults(); err != nil {
		return 0, err
	}
	pre := config.TableII()
	spec := workloads.ValidationL1D(pre.Hier.L1D.SizeBytes)
	img, err := program.Compile(isa.RV64L{}, spec.Build())
	if err != nil {
		return 0, err
	}
	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: pre,
		Target: "l1d",
		Model:  core.Transient,
		Faults: p.Faults,
		Seed:   Seed,
	})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(p.W, "\nListing 1 validation: L1D coverage AVF = %.1f%% (paper: 100%%)\n", 100*res.AVF())
	return res.AVF(), nil
}

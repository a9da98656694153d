// Command marvel-figures regenerates every table and figure of the paper's
// evaluation section at a configurable statistical scale. Every figure is
// drawn at the one sweep seed (figures.Seed); Figures 4–13 come from two
// sweep grids shared by all ten figures.
//
//	marvel-figures                         # all figures, 24 faults/structure
//	marvel-figures -faults 1000            # the paper's sample size
//	marvel-figures -only fig04,fig17       # a subset
//	marvel-figures -workloads sha,crc32    # a workload subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"marvel/internal/figures"
)

func main() {
	faults := flag.Int("faults", 24, "faults per structure per benchmark (paper: 1000)")
	only := flag.String("only", "", "comma-separated figure ids (fig04..fig18, tab4, listing1)")
	wls := flag.String("workloads", "", "comma-separated workload subset (default: all 15)")
	flag.Parse()

	sel := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			sel[strings.TrimSpace(s)] = true
		}
	}
	want := func(id string) bool { return len(sel) == 0 || sel[id] }

	p := figures.Params{Faults: *faults, W: os.Stdout}
	if *wls != "" {
		p.Workloads = strings.Split(*wls, ",")
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "marvel-figures:", err)
		os.Exit(1)
	}

	if want("tab4") {
		figures.TableIVText(os.Stdout)
	}
	if want("listing1") {
		if _, err := figures.Listing1(p); err != nil {
			fail(err)
		}
	}
	var cpuFigs []figures.CPUFigureSpec
	for _, spec := range figures.CPUFigures() {
		if want(spec.ID) {
			cpuFigs = append(cpuFigs, spec)
		}
	}
	if len(cpuFigs) > 0 {
		cells, err := figures.CPUCells(p, cpuFigs)
		if err != nil {
			fail(err)
		}
		for _, spec := range cpuFigs {
			figures.PrintCPUFigure(os.Stdout, spec, cells)
		}
	}
	for _, fig := range []struct {
		id  string
		run func(figures.Params) error
	}{
		{"fig14", figures.Fig14},
		{"fig15", figures.Fig15},
		{"fig16", figures.Fig16},
		{"fig17", figures.Fig17},
		{"fig18", figures.Fig18},
	} {
		if want(fig.id) {
			if err := fig.run(p); err != nil {
				fail(err)
			}
		}
	}
}

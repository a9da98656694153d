// Command marvel-validate reproduces the paper's §IV-F injector sanity
// check (Listing 1): a program zero-fills an array the size of the L1 data
// cache, opens the injection window over a nop loop, and checks the array
// afterwards. Every transient fault injected into the cache must be
// observed; the measured coverage AVF should be 100%.
//
//	marvel-validate -faults 500
package main

import (
	"flag"
	"fmt"
	"os"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/workloads"
)

func main() {
	faults := flag.Int("faults", 500, "injection count (paper: 10000)")
	isaName := flag.String("isa", "riscv", "ISA to validate on")
	flag.Parse()

	a, err := isa.ByName(*isaName)
	if err != nil {
		fatal(err)
	}
	pre := config.TableII()
	spec := workloads.ValidationL1D(pre.Hier.L1D.SizeBytes)
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("validation program: %d bytes of %s code, %dB L1D array\n",
		len(img.Code), a.Name(), pre.Hier.L1D.SizeBytes)

	res, err := campaign.Run(campaign.Config{
		Image:  img,
		Preset: pre,
		Target: "l1d",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: *faults},
		Seed:   1,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("golden: %d cycles, injection window [%d, %d]\n",
		res.Golden.Cycles, res.Golden.WindowLo, res.Golden.WindowHi)
	fmt.Printf("injected %d transient faults: masked=%d sdc=%d crash=%d\n",
		res.Counts.Total(), res.Counts.Masked, res.Counts.SDC, res.Counts.Crash)
	fmt.Printf("measured coverage AVF = %.2f%% (expected ~100%%)\n", 100*res.AVF())
	if res.AVF() < 0.97 {
		fmt.Println("VALIDATION FAILED")
		os.Exit(1)
	}
	fmt.Println("VALIDATION PASSED")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "marvel-validate:", err)
	os.Exit(1)
}

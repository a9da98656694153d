package campaign_test

import (
	"fmt"
	"sync"
	"testing"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
)

// fuzzKernels is, per ISA, the MiBench kernel with the fewest golden
// cycles on the fast preset (fft 4,585 on arm, basicmath 7,695 on x86, fft
// 4,407 on riscv), so one fuzz input costs a few thousand simulated cycles
// per run.
var fuzzKernels = [...]struct{ isa, workload string }{
	{"arm", "fft"}, {"x86", "basicmath"}, {"riscv", "fft"},
}

var fuzzImages struct {
	sync.Mutex
	imgs [len(fuzzKernels)]*program.Image
}

// fuzzImage compiles fuzzKernels[i] once per process.
func fuzzImage(t *testing.T, i int) *program.Image {
	fuzzImages.Lock()
	defer fuzzImages.Unlock()
	if fuzzImages.imgs[i] == nil {
		k := fuzzKernels[i]
		a, err := isa.ByName(k.isa)
		if err != nil {
			t.Fatal(err)
		}
		s, err := workloads.ByName(k.workload)
		if err != nil {
			t.Fatal(err)
		}
		img, err := program.Compile(a, s.Build())
		if err != nil {
			t.Fatal(err)
		}
		fuzzImages.imgs[i] = img
	}
	return fuzzImages.imgs[i]
}

// FuzzCPUFaultedRun runs two-fault campaigns on the faulted paths of the
// out-of-order core: any ISA, any CPU target, any fault model, one or two
// bits per fault, with or without early termination, over live entries.
// Every input must classify without a panic or an error, the dispatch
// kernel must agree with the clone oracle mask by mask, and a rerun must
// reproduce the verdict-stream digest.
func FuzzCPUFaultedRun(f *testing.F) {
	models := [...]core.Model{core.Transient, core.StuckAt0, core.StuckAt1}
	f.Fuzz(func(t *testing.T, isaSel, targetSel, modelSel uint8, seed int64, bitsSel uint8, early bool) {
		k := int(isaSel) % len(fuzzKernels)
		cfg := campaign.Config{
			Image:            fuzzImage(t, k),
			Preset:           config.Fast(),
			Target:           campaign.CPUTargets[int(targetSel)%len(campaign.CPUTargets)],
			Model:            models[int(modelSel)%len(models)],
			BitsPerFault:     1 + int(bitsSel%2),
			Seed:             seed,
			Domain:           core.DomainValidOnly,
			Sizing:           dispatch.Sizing{Faults: 2, Workers: 1},
			EarlyTermination: early,
		}
		label := fmt.Sprintf("%s/%s/%s/%v bits=%d seed=%d early=%v", fuzzKernels[k].isa,
			fuzzKernels[k].workload, cfg.Target, cfg.Model, cfg.BitsPerFault, seed, early)
		clone, err := campaign.RunCloneOracle(cfg)
		if err != nil {
			t.Fatalf("%s: clone oracle: %v", label, err)
		}
		fork, err := campaign.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		diffResults(t, label, clone, fork)
		again, err := campaign.Run(cfg)
		if err != nil {
			t.Fatalf("%s: rerun: %v", label, err)
		}
		if d1, d2 := sweep.DigestCPURecords(fork.Records), sweep.DigestCPURecords(again.Records); d1 != d2 {
			t.Errorf("%s: rerun digest %s, first run %s", label, d2, d1)
		}
	})
}

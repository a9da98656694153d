package sweep_test

import (
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/machsuite"
	"marvel/internal/sweep"
)

// pinnedCPUDigests are sweep.DigestCPURecords values (and golden cycle
// counts) recorded on the commit "One fault derivation for both engines"
// (parent 73e8689), when CPU masks moved onto core.MaskSpace; the golden
// cycle counts are unchanged since commit 86def8d, before the CPU front
// end gained its decoded-instruction memo. The fork≡clone, kernel≡oracle and sweep≡
// standalone suites run the same core on both sides of each comparison,
// so they cannot see a front-end change that alters timing or decode
// identically everywhere; these constants can. The l1i cells matter most:
// a bit flip or stuck-at in the instruction cache must still change what
// the core decodes. Never regenerate these to make a failure go away — a
// mismatch means the simulator's behaviour changed.
var pinnedCPUDigests = map[string]struct {
	digest string
	golden uint64
}{
	"cpu/arm/sha/prf/transient":    {"7e5be491b5a79e12", 5446},
	"cpu/arm/sha/prf/stuck-at-1":   {"22417ec9293df1f2", 5446},
	"cpu/arm/sha/l1i/transient":    {"79bb41ad38472f29", 5446},
	"cpu/arm/sha/l1i/stuck-at-1":   {"36feeb0e2772cb6e", 5446},
	"cpu/arm/sha/l1d/transient":    {"5689bfab0002739e", 5446},
	"cpu/arm/sha/l1d/stuck-at-1":   {"35ead201d72df129", 5446},
	"cpu/arm/sha/lq/transient":     {"696a25ebaa45e27e", 5446},
	"cpu/arm/sha/lq/stuck-at-1":    {"eb2c4282aedefbb1", 5446},
	"cpu/arm/sha/sq/transient":     {"df3966b956c6dd2e", 5446},
	"cpu/arm/sha/sq/stuck-at-1":    {"8d984acd3612cb5a", 5446},
	"cpu/x86/sha/prf/transient":    {"71a6b7115095188a", 9339},
	"cpu/x86/sha/prf/stuck-at-1":   {"0f8059aeb8185b48", 9339},
	"cpu/x86/sha/l1i/transient":    {"b106fbb4e0927977", 9339},
	"cpu/x86/sha/l1i/stuck-at-1":   {"17fd410e54662983", 9339},
	"cpu/x86/sha/l1d/transient":    {"e0816e75cd217660", 9339},
	"cpu/x86/sha/l1d/stuck-at-1":   {"b986585f5993b115", 9339},
	"cpu/x86/sha/lq/transient":     {"67f301412f88bad5", 9339},
	"cpu/x86/sha/lq/stuck-at-1":    {"10febc5312410e0d", 9339},
	"cpu/x86/sha/sq/transient":     {"2080e9a10c2cf188", 9339},
	"cpu/x86/sha/sq/stuck-at-1":    {"b4c197eb7487261f", 9339},
	"cpu/riscv/sha/prf/transient":  {"f6a903a85a49ab03", 6240},
	"cpu/riscv/sha/prf/stuck-at-1": {"1358d0ce762bd3c0", 6240},
	"cpu/riscv/sha/l1i/transient":  {"7473a5382e8fba46", 6240},
	"cpu/riscv/sha/l1i/stuck-at-1": {"7339efae2fd210a2", 6240},
	"cpu/riscv/sha/l1d/transient":  {"e6cfacc0fac500ac", 6240},
	"cpu/riscv/sha/l1d/stuck-at-1": {"97c4fad252d600d1", 6240},
	"cpu/riscv/sha/lq/transient":   {"5215b48b610b35ba", 6240},
	"cpu/riscv/sha/lq/stuck-at-1":  {"89ff66d3c7b70971", 6240},
	"cpu/riscv/sha/sq/transient":   {"c381cc92d2e8ab22", 6240},
	"cpu/riscv/sha/sq/stuck-at-1":  {"8971891a8a6bf3d4", 6240},
}

// TestCPUDigestsPinned re-runs the pinned grid — 3 ISAs × sha ×
// {prf, l1i, l1d, lq, sq} × {transient, stuck-at-1}, fast preset, 32
// live-entry faults per cell — and demands every cell's verdict-stream
// digest and golden cycle count equal the recorded values.
func TestCPUDigestsPinned(t *testing.T) {
	res, err := sweep.Run(sweep.Spec{
		ISAs:      []string{"arm", "x86", "riscv"},
		Workloads: []string{"sha"},
		Targets:   []string{"prf", "l1i", "l1d", "lq", "sq"},
		Models:    []string{"transient", "stuck-at-1"},
		Faults:    32,
		Seed:      20240302,
		ValidOnly: true,
		Preset:    "fast",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(pinnedCPUDigests) {
		t.Errorf("grid has %d cells, %d pinned", len(res.Cells), len(pinnedCPUDigests))
	}
	for _, c := range res.Cells {
		want, ok := pinnedCPUDigests[c.Key]
		if !ok {
			t.Errorf("%s: no pinned value (got digest %s, golden %d cycles)", c.Key, c.Digest, c.GoldenCycles)
			continue
		}
		if c.Digest != want.digest || c.GoldenCycles != want.golden {
			t.Errorf("%s: digest %s golden %d cycles, pinned %s / %d",
				c.Key, c.Digest, c.GoldenCycles, want.digest, want.golden)
		}
	}
}

// pinnedAccelDigests are sweep.DigestAccelRecords values (and golden
// TaskCycles) recorded on commit b6b93c4, while the accelerator engine
// still rescanned the whole current basic block every tick. The
// rebuild-oracle, ladder and worker-invariance suites run the same engine
// on both sides of each comparison, so they cannot see a scheduling
// change that shifts an instruction by one cycle everywhere; these
// constants can: a transient flip lands on whatever value the bank holds
// at its cycle. Never regenerate these to make a failure go away — a
// mismatch means the simulator's behaviour changed.
var pinnedAccelDigests = map[string]struct {
	digest string
	golden uint64
}{
	"accel/bfs/EDGES/transient":         {"2ff783b1988f1f47", 4164},
	"accel/bfs/EDGES/stuck-at-1":        {"3606562750c9866a", 4164},
	"accel/bfs/NODES/transient":         {"b6c78acf9a5ddef8", 4164},
	"accel/bfs/NODES/stuck-at-1":        {"eb7d6a93de491631", 4164},
	"accel/fft/IMG/transient":           {"1a5c9ab7371a6a3e", 7113},
	"accel/fft/IMG/stuck-at-1":          {"865cda3b6d99dec9", 7113},
	"accel/fft/REAL/transient":          {"2283c6d1d1cbd3cc", 7113},
	"accel/fft/REAL/stuck-at-1":         {"89c9e00b48ef5005", 7113},
	"accel/gemm/MATRIX1/transient":      {"355b3a9045d53e5b", 5843},
	"accel/gemm/MATRIX1/stuck-at-1":     {"66b9be56a23d3bb6", 5843},
	"accel/gemm/MATRIX3/transient":      {"2612550c69cd254f", 5843},
	"accel/gemm/MATRIX3/stuck-at-1":     {"1d674827f207bfe4", 5843},
	"accel/md_knn/NLADDR/transient":     {"ae2956b6482e7c32", 1091},
	"accel/md_knn/NLADDR/stuck-at-1":    {"8c70d101341847a2", 1091},
	"accel/md_knn/FORCEX/transient":     {"fb591ff3a35630af", 1091},
	"accel/md_knn/FORCEX/stuck-at-1":    {"1bc6f7504cd6b06d", 1091},
	"accel/mergesort/MAIN/transient":    {"159d2eb7a97aee34", 37682},
	"accel/mergesort/MAIN/stuck-at-1":   {"9c848f3faca8a975", 37682},
	"accel/mergesort/TEMP/transient":    {"bdf3d19ef2bb186c", 37682},
	"accel/mergesort/TEMP/stuck-at-1":   {"b61308bcc33bd2e9", 37682},
	"accel/spmv/VAL/transient":          {"1978cc9f44d4740c", 4923},
	"accel/spmv/VAL/stuck-at-1":         {"b0a61e28bbce61fc", 4923},
	"accel/spmv/COLS/transient":         {"1699228234ab68d0", 4923},
	"accel/spmv/COLS/stuck-at-1":        {"483a876261b37eac", 4923},
	"accel/stencil2d/ORIG/transient":    {"e9dd7968647d23a0", 132582},
	"accel/stencil2d/ORIG/stuck-at-1":   {"6267acf7d2adcbd6", 132582},
	"accel/stencil2d/SOL/transient":     {"fac06f797660b533", 132582},
	"accel/stencil2d/SOL/stuck-at-1":    {"f90ebb7d14e61264", 132582},
	"accel/stencil2d/FILTER/transient":  {"0878727e305d99e6", 132582},
	"accel/stencil2d/FILTER/stuck-at-1": {"57ac1d44eeed6c03", 132582},
	"accel/stencil3d/ORIG/transient":    {"afb81b5ffb9c8ab3", 5698},
	"accel/stencil3d/ORIG/stuck-at-1":   {"76660e588ba3c719", 5698},
	"accel/stencil3d/SOL/transient":     {"3c688e1a744283f2", 5698},
	"accel/stencil3d/SOL/stuck-at-1":    {"9a6479f00f8e6f0d", 5698},
	"accel/stencil3d/C_VAR/transient":   {"90ade2ad2548ee11", 5698},
	"accel/stencil3d/C_VAR/stuck-at-1":  {"12b0a6af6b96bbea", 5698},
}

// pinnedGemmDSEDigests pin the Figure 17 extremes, GemmDesign(1) and
// GemmDesign(16), run through accel.RunCampaign on the same commit: the
// narrowest datapath stresses the functional-unit budgets, the widest the
// unrolled block size.
var pinnedGemmDSEDigests = map[string]struct {
	digest string
	golden uint64
}{
	"gemm1/MATRIX1/transient":   {"069c9909c10e57d2", 17637},
	"gemm1/MATRIX1/stuck-at-1":  {"bab641bd009ac142", 17637},
	"gemm1/MATRIX3/transient":   {"a0d5818fb02d8c10", 17637},
	"gemm1/MATRIX3/stuck-at-1":  {"16cc472d11de5cf4", 17637},
	"gemm16/MATRIX1/transient":  {"36f18ce47bbf6f69", 3667},
	"gemm16/MATRIX1/stuck-at-1": {"0b897868ad0b8d66", 3667},
	"gemm16/MATRIX3/transient":  {"31b95c85d12ad6ad", 3667},
	"gemm16/MATRIX3/stuck-at-1": {"6019c9607cc7a974", 3667},
}

// TestAccelDigestsPinned re-runs the pinned accelerator grid — all 8
// MachSuite designs × every Table IV component × {transient, stuck-at-1},
// 32 faults per cell — plus the GemmDesign(1)/GemmDesign(16) campaigns,
// and demands every digest and golden cycle count equal the recorded
// values.
func TestAccelDigestsPinned(t *testing.T) {
	res, err := sweep.Run(sweep.Spec{
		Designs: []string{"bfs", "fft", "gemm", "md_knn", "mergesort", "spmv", "stencil2d", "stencil3d"},
		Models:  []string{"transient", "stuck-at-1"},
		Faults:  32,
		Seed:    20240302,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(pinnedAccelDigests) {
		t.Errorf("grid has %d cells, %d pinned", len(res.Cells), len(pinnedAccelDigests))
	}
	for _, c := range res.Cells {
		want, ok := pinnedAccelDigests[c.Key]
		if !ok {
			t.Errorf("%s: no pinned value (got digest %s, golden %d cycles)", c.Key, c.Digest, c.GoldenCycles)
			continue
		}
		if c.Digest != want.digest || c.GoldenCycles != want.golden {
			t.Errorf("%s: digest %s golden %d cycles, pinned %s / %d",
				c.Key, c.Digest, c.GoldenCycles, want.digest, want.golden)
		}
	}

	for _, m := range []int{1, 16} {
		for _, tgt := range []string{"MATRIX1", "MATRIX3"} {
			for _, model := range []core.Model{core.Transient, core.StuckAt1} {
				key := fmt.Sprintf("gemm%d/%s/%v", m, tgt, model)
				r, err := accel.RunCampaign(accel.CampaignConfig{
					Design: machsuite.GemmDesign(m),
					Task:   machsuite.GemmTask(),
					Target: tgt,
					Model:  model,
					Faults: 32,
					Seed:   20240302,
				})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				want := pinnedGemmDSEDigests[key]
				if got := sweep.DigestAccelRecords(r.Records); got != want.digest || r.GoldenCycles != want.golden {
					t.Errorf("%s: digest %s golden %d cycles, pinned %s / %d",
						key, got, r.GoldenCycles, want.digest, want.golden)
				}
			}
		}
	}
}

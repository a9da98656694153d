package sweep_test

import (
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
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
					Sizing: dispatch.Sizing{Faults: 32},
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

// pinnedHVFLadderDigests are sweep.DigestCPURecords values (and golden
// cycle counts) of HVF campaigns forked from a 4-rung checkpoint ladder,
// recorded on commit 6a25261, while each rung still counted its golden
// commits with a commit hook on the ladder walker. DivergeCommit is part
// of the digest and is reported in window-start coordinates, i.e. offset
// by each rung's golden commit count; the ladder equivalence suites
// compare laddered runs with flat ones that share that offset, so only
// absolute values can catch a rung commit count that is off. Never
// regenerate these to make a failure go away.
var pinnedHVFLadderDigests = map[string]struct {
	digest string
	golden uint64
}{
	"cpu/arm/crc32/prf/transient":   {"51983a109c97f890", 12514},
	"cpu/arm/crc32/l1d/transient":   {"2d417e7076553222", 12514},
	"cpu/x86/crc32/prf/transient":   {"0585457644f5b10c", 19935},
	"cpu/x86/crc32/l1d/transient":   {"cab6afb51a69b556", 19935},
	"cpu/riscv/crc32/prf/transient": {"d26342a03256cca7", 16846},
	"cpu/riscv/crc32/l1d/transient": {"14e7a24c13685279", 16846},
}

// TestHVFLadderDigestsPinned re-runs 3 ISAs × crc32 × {prf, l1d} ×
// transient with HVF and a 4-rung ladder, fast preset, 16 live-entry
// faults per cell, and demands every cell's digest and golden cycle count
// equal the recorded values.
func TestHVFLadderDigestsPinned(t *testing.T) {
	res, err := sweep.Run(sweep.Spec{
		ISAs:        []string{"arm", "x86", "riscv"},
		Workloads:   []string{"crc32"},
		Targets:     []string{"prf", "l1d"},
		Models:      []string{"transient"},
		Faults:      16,
		Seed:        20240302,
		ValidOnly:   true,
		HVF:         true,
		LadderRungs: 4,
		Preset:      "fast",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(pinnedHVFLadderDigests) {
		t.Errorf("grid has %d cells, %d pinned", len(res.Cells), len(pinnedHVFLadderDigests))
	}
	for _, c := range res.Cells {
		want, ok := pinnedHVFLadderDigests[c.Key]
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

// pinnedCPUControlDigests are sweep.DigestCPURecords values (and golden
// cycle counts) of the ROB and IQ cells, recorded before the core's issue
// stage stopped reading the reorder buffer for every waiting entry. Faults
// in these two control structures reach the scheduler's stale-entry paths
// (a flipped IQ tag, a retired entry still in the IQ, a lost done latch),
// which TestCPUDigestsPinned's storage targets never exercise. The
// "/bits2" cells place two flips in one mask, so two tags of one entry or
// of neighbouring entries can change together. Never regenerate these to
// make a failure go away.
var pinnedCPUControlDigests = map[string]struct {
	digest string
	golden uint64
}{
	"cpu/arm/sha/rob/transient":        {"c50caa9cfe20a109", 5446},
	"cpu/arm/sha/rob/stuck-at-1":       {"249df3b7f8cb0c9e", 5446},
	"cpu/arm/sha/iq/transient":         {"c84bb89871717501", 5446},
	"cpu/arm/sha/iq/stuck-at-1":        {"720b822f32c1968b", 5446},
	"cpu/x86/sha/rob/transient":        {"5477e601c6b0f23b", 9339},
	"cpu/x86/sha/rob/stuck-at-1":       {"3d29eae9c7ebe40a", 9339},
	"cpu/x86/sha/iq/transient":         {"0ed58fb6fdc0d299", 9339},
	"cpu/x86/sha/iq/stuck-at-1":        {"9834707f7d2ddb95", 9339},
	"cpu/riscv/sha/rob/transient":      {"fb6eddd1c34937b5", 6240},
	"cpu/riscv/sha/rob/stuck-at-1":     {"7144daa5bbbce5ea", 6240},
	"cpu/riscv/sha/iq/transient":       {"5dd20fb41d1d646a", 6240},
	"cpu/riscv/sha/iq/stuck-at-1":      {"8ffeccb55a506a09", 6240},
	"cpu/arm/sha/iq/transient/bits2":   {"ecfaf6c2cba63a1f", 5446},
	"cpu/x86/sha/iq/transient/bits2":   {"2d51748e459f432e", 9339},
	"cpu/riscv/sha/iq/transient/bits2": {"bf8bf57865d26516", 6240},
}

// TestCPUControlDigestsPinned re-runs 3 ISAs × sha × {rob, iq} ×
// {transient, stuck-at-1}, fast preset, 32 live-entry faults per cell,
// plus one two-bit iq transient cell per ISA, and demands every cell's
// digest and golden cycle count equal the recorded values.
func TestCPUControlDigestsPinned(t *testing.T) {
	specs := []struct {
		suffix string
		spec   sweep.Spec
	}{
		{"", sweep.Spec{
			Targets: []string{"rob", "iq"},
			Models:  []string{"transient", "stuck-at-1"},
		}},
		{"/bits2", sweep.Spec{
			Targets:      []string{"iq"},
			Models:       []string{"transient"},
			BitsPerFault: 2,
		}},
	}
	got := 0
	for _, s := range specs {
		spec := s.spec
		spec.ISAs = []string{"arm", "x86", "riscv"}
		spec.Workloads = []string{"sha"}
		spec.Faults = 32
		spec.Seed = 20240302
		spec.ValidOnly = true
		spec.Preset = "fast"
		res, err := sweep.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cells {
			got++
			key := c.Key + s.suffix
			want, ok := pinnedCPUControlDigests[key]
			if !ok {
				t.Errorf("%s: no pinned value (got digest %s, golden %d cycles)", key, c.Digest, c.GoldenCycles)
				continue
			}
			if c.Digest != want.digest || c.GoldenCycles != want.golden {
				t.Errorf("%s: digest %s golden %d cycles, pinned %s / %d",
					key, c.Digest, c.GoldenCycles, want.digest, want.golden)
			}
		}
	}
	if got != len(pinnedCPUControlDigests) {
		t.Errorf("grids have %d cells, %d pinned", got, len(pinnedCPUControlDigests))
	}
}

package sweep_test

import (
	"testing"

	"marvel/internal/sweep"
)

// pinnedCPUDigests are sweep.DigestCPURecords values (and golden cycle
// counts) recorded on commit 86def8d, before the CPU front end gained its
// decoded-instruction memo. The fork≡clone, kernel≡oracle and sweep≡
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
	"cpu/arm/sha/prf/transient":    {"ba8a33679803ca3e", 5446},
	"cpu/arm/sha/prf/stuck-at-1":   {"787f90788caa5544", 5446},
	"cpu/arm/sha/l1i/transient":    {"5b99ad32ebf1dbf2", 5446},
	"cpu/arm/sha/l1i/stuck-at-1":   {"eaf55528e36880b0", 5446},
	"cpu/arm/sha/l1d/transient":    {"dac864800b8a7c0e", 5446},
	"cpu/arm/sha/l1d/stuck-at-1":   {"ec583e16f3d7b7a7", 5446},
	"cpu/arm/sha/lq/transient":     {"44aa1ead059accac", 5446},
	"cpu/arm/sha/lq/stuck-at-1":    {"5ae852f18343443d", 5446},
	"cpu/arm/sha/sq/transient":     {"8e74e2937490570b", 5446},
	"cpu/arm/sha/sq/stuck-at-1":    {"d17369427601237b", 5446},
	"cpu/x86/sha/prf/transient":    {"d0473bf90b70e4a4", 9339},
	"cpu/x86/sha/prf/stuck-at-1":   {"62b424e549445134", 9339},
	"cpu/x86/sha/l1i/transient":    {"7b62e2fa76c8731f", 9339},
	"cpu/x86/sha/l1i/stuck-at-1":   {"eff786d366e59721", 9339},
	"cpu/x86/sha/l1d/transient":    {"cce8b3561f930395", 9339},
	"cpu/x86/sha/l1d/stuck-at-1":   {"8893710d930d1e17", 9339},
	"cpu/x86/sha/lq/transient":     {"f1eb11ae1ce7db0e", 9339},
	"cpu/x86/sha/lq/stuck-at-1":    {"5bbf17059aad72e8", 9339},
	"cpu/x86/sha/sq/transient":     {"538c009b080dffb7", 9339},
	"cpu/x86/sha/sq/stuck-at-1":    {"99a97e8d606439db", 9339},
	"cpu/riscv/sha/prf/transient":  {"5f2f0aa348ea3176", 6240},
	"cpu/riscv/sha/prf/stuck-at-1": {"64e994d633226b24", 6240},
	"cpu/riscv/sha/l1i/transient":  {"bb1949794aada62c", 6240},
	"cpu/riscv/sha/l1i/stuck-at-1": {"0fc25191501d9442", 6240},
	"cpu/riscv/sha/l1d/transient":  {"4bd5f83cb1a93cf6", 6240},
	"cpu/riscv/sha/l1d/stuck-at-1": {"7428cde7d2821583", 6240},
	"cpu/riscv/sha/lq/transient":   {"bbea5a019a479f40", 6240},
	"cpu/riscv/sha/lq/stuck-at-1":  {"3a6b697adf038db9", 6240},
	"cpu/riscv/sha/sq/transient":   {"a92cca7bb5189d16", 6240},
	"cpu/riscv/sha/sq/stuck-at-1":  {"73d7893fb18059da", 6240},
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

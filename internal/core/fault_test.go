package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestModelStrings(t *testing.T) {
	if Transient.String() == "" || StuckAt0.String() == "" || StuckAt1.String() == "" {
		t.Fatal("empty model string")
	}
	if Transient.Permanent() {
		t.Error("transient is not permanent")
	}
	if !StuckAt0.Permanent() || !StuckAt1.Permanent() {
		t.Error("stuck-at models are permanent")
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Target: "prf", Bit: 7, Cycle: 100, Model: Transient}
	if f.String() == "" {
		t.Fatal("empty fault string")
	}
	p := Fault{Target: "l1d", Bit: 9, Model: StuckAt1}
	if p.String() == f.String() {
		t.Fatal("distinct faults must print differently")
	}
}

// Mask generation: MaskSpace.Mask is the one CPU mask derivation.

func TestGenerateValidation(t *testing.T) {
	one := []Structure{{Name: "x", Bits: 10}}
	for _, tc := range []struct {
		name string
		sp   MaskSpace
	}{
		{"no target", MaskSpace{Model: StuckAt0}},
		{"zero bits", MaskSpace{Targets: []Structure{{Name: "x"}}, Model: StuckAt0}},
		{"empty window", MaskSpace{Targets: one, Model: Transient, WindowLo: 5, WindowHi: 5}},
		{"too many faults", MaskSpace{Targets: []Structure{{"x", 10}, {"y", 10}}, Model: StuckAt1, BitsPer: maxMaskFaults/2 + 1}},
	} {
		if err := tc.sp.Validate(); err == nil {
			t.Errorf("%s: want a validation error", tc.name)
		}
	}
	if err := (MaskSpace{Targets: one, Model: Transient, WindowLo: 5, WindowHi: 6}).Validate(); err != nil {
		t.Errorf("one-cycle window: %v", err)
	}
}

func TestOneCycleWindowPinsFaults(t *testing.T) {
	// A one-cycle window is the directed mode: every fault lands on it.
	sp := MaskSpace{Targets: []Structure{{"x", 128}}, Model: Transient, BitsPer: 2, WindowLo: 77, WindowHi: 78}
	for i := 0; i < 20; i++ {
		for _, f := range sp.Mask(9, i).Faults {
			if f.Cycle != 77 {
				t.Fatalf("mask %d: one-cycle window drew cycle %d, want 77", i, f.Cycle)
			}
		}
	}
}

func TestGeneratePermanentNeedsNoWindow(t *testing.T) {
	sp := MaskSpace{Targets: []Structure{{"x", 64}}, Model: StuckAt0}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m := sp.Mask(2, i)
		if m.ID != i || len(m.Faults) != 1 || m.Faults[0].Cycle != 0 || m.Faults[0].Model != StuckAt0 {
			t.Fatalf("mask %d = %+v", i, m)
		}
	}
}

func TestGenerateBoundsProperty(t *testing.T) {
	f := func(seed int64, bits uint16, lo uint16, span uint16, per uint8) bool {
		b := uint64(bits)%1000 + 1
		w := uint64(span)%500 + 1
		sp := MaskSpace{
			Targets: []Structure{{"t", b}, {"u", b + 7}}, Model: Transient,
			BitsPer: int(per % 4), WindowLo: uint64(lo), WindowHi: uint64(lo) + w,
		}
		for i := 0; i < 30; i++ {
			m := sp.Mask(seed, i)
			if len(m.Faults) != 2*sp.perTarget() {
				return false
			}
			for _, fa := range m.Faults {
				limit := b
				if fa.Target == "u" {
					limit = b + 7
				}
				if fa.Bit >= limit || fa.Cycle < uint64(lo) || fa.Cycle >= uint64(lo)+w {
					return false
				}
			}
			if !reflect.DeepEqual(m, sp.Mask(seed, i)) {
				return false // determinism
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSizeMonotonicity(t *testing.T) {
	// Tighter margins need more samples; bigger populations saturate.
	if SampleSize(1<<20, 0.01, 1.96) <= SampleSize(1<<20, 0.05, 1.96) {
		t.Error("tighter margin must need more samples")
	}
	big := SampleSize(1<<30, 0.03, 1.96)
	if big < 1000 || big > 1100 {
		t.Errorf("saturated 3%%/95%% sample = %d, want ~1067", big)
	}
	if SampleSize(0, 0.03, 1.96) != 0 {
		t.Error("empty population needs no samples")
	}
}

func TestMarginInverse(t *testing.T) {
	n := uint64(32 * 1024 * 8)
	s := SampleSize(n, 0.03, 1.96)
	m := MarginFor(n, s, 1.96)
	if m < 0.025 || m > 0.035 {
		t.Fatalf("round trip margin %f", m)
	}
	if MarginFor(n, int(n), 1.96) != 0 {
		t.Error("exhaustive sampling has zero margin")
	}
	if MarginFor(0, 10, 1.96) != 1 {
		t.Error("empty population margin is trivial")
	}
}

func TestWatchStateStrings(t *testing.T) {
	for _, w := range []WatchState{WatchPending, WatchRead, WatchDead} {
		if w.String() == "" {
			t.Fatal("empty watch state string")
		}
	}
}

func TestMultiBitMasksSortedByCycle(t *testing.T) {
	sp := MaskSpace{Targets: []Structure{{"x", 4096}}, Model: Transient, BitsPer: 4, WindowLo: 0, WindowHi: 10000}
	for i := 0; i < 10; i++ {
		m := sp.Mask(77, i)
		if len(m.Faults) != 4 {
			t.Fatalf("mask has %d faults", len(m.Faults))
		}
		for j := 1; j < len(m.Faults); j++ {
			if m.Faults[j].Cycle < m.Faults[j-1].Cycle {
				t.Fatal("faults must be cycle-sorted for application order")
			}
		}
	}
}

// TestMaskSpaceSingleFaultIsDeriveFault pins the one-derivation contract:
// a single-structure, single-bit CPU mask is the accelerator's
// DeriveFault draw, and extra bits and structures come from other salted
// streams of the same (seed, mask).
func TestMaskSpaceSingleFaultIsDeriveFault(t *testing.T) {
	for _, model := range []Model{Transient, StuckAt0, StuckAt1} {
		sp := MaskSpace{Targets: []Structure{{"prf", 8192}}, Model: model, WindowLo: 40, WindowHi: 9000}
		for i := 0; i < 256; i++ {
			got := sp.Mask(5, i)
			want := DeriveFault(5, i, "prf", model, 8192, 40, 9000)
			if len(got.Faults) != 1 || got.Faults[0] != want {
				t.Fatalf("%v mask %d = %v, want [%v]", model, i, got.Faults, want)
			}
		}
	}
	multi := MaskSpace{Targets: []Structure{{"prf", 1 << 40}, {"l1d", 1 << 40}}, Model: StuckAt1, BitsPer: 2}
	m := multi.Mask(5, 3)
	if m.Faults[0] != DeriveFault(5, 3, "prf", StuckAt1, 1<<40, 0, 0) {
		t.Fatalf("first fault of a multi-fault mask must be the DeriveFault draw: %v", m.Faults)
	}
	seen := map[uint64]bool{}
	for _, f := range m.Faults {
		seen[f.Bit] = true
	}
	if len(seen) != 4 {
		t.Fatalf("the four faults of a mask must come from distinct streams: %v", m.Faults)
	}
}

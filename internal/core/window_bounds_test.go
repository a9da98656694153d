package core

import "testing"

// The transient-cycle sampler samples the documented half-open window
// [WindowLo, WindowHi). These tests pin its edges, for whole masks and
// for single DeriveFault draws: WindowLo is the first sampleable cycle,
// WindowHi-1 the last, WindowHi itself unreachable.

func TestGenerateWindowBounds(t *testing.T) {
	const lo, hi = 40, 44
	seenFirst, seenLast := false, false
	sp := MaskSpace{Targets: []Structure{{"x", 8}, {"y", 8}}, Model: Transient, BitsPer: 2, WindowLo: lo, WindowHi: hi}
	for seed := int64(0); seed < 64; seed++ {
		for i := 0; i < 64; i++ {
			for _, f := range sp.Mask(seed, i).Faults {
				if f.Cycle < lo || f.Cycle >= hi {
					t.Fatalf("seed %d mask %d: cycle %d outside [%d, %d)", seed, i, f.Cycle, lo, hi)
				}
				seenFirst = seenFirst || f.Cycle == lo
				seenLast = seenLast || f.Cycle == hi-1
			}
		}
	}
	if !seenFirst || !seenLast {
		t.Fatalf("window edges unreachable: WindowLo hit=%v, WindowHi-1 hit=%v", seenFirst, seenLast)
	}
}

func TestDeriveFaultWindowBounds(t *testing.T) {
	const lo, hi = 40, 44
	seenFirst, seenLast := false, false
	for i := 0; i < 4096; i++ {
		f := DeriveFault(7, i, "x", Transient, 8, lo, hi)
		if f.Cycle < lo || f.Cycle >= hi {
			t.Fatalf("mask %d: cycle %d outside [%d, %d)", i, f.Cycle, lo, hi)
		}
		seenFirst = seenFirst || f.Cycle == lo
		seenLast = seenLast || f.Cycle == hi-1
	}
	if !seenFirst || !seenLast {
		t.Fatalf("window edges unreachable: WindowLo hit=%v, WindowHi-1 hit=%v", seenFirst, seenLast)
	}
}

func TestDeriveFaultLegacyWindowEquivalence(t *testing.T) {
	// The accelerator campaigns pass [1, w+1) where they historically
	// passed "window w"; the draws must be bit-identical so existing fault
	// populations (and their verdict digests) are preserved.
	for i := 0; i < 256; i++ {
		st := MaskStream(9, i)
		wantBit := st.Uintn(512)
		wantCycle := st.Uintn(777) + 1
		f := DeriveFault(9, i, "spm", Transient, 512, 1, 778)
		if f.Bit != wantBit || f.Cycle != wantCycle {
			t.Fatalf("mask %d: got (bit %d, cycle %d), want (bit %d, cycle %d)",
				i, f.Bit, f.Cycle, wantBit, wantCycle)
		}
	}
}

func TestDeriveFaultDegenerateWindowPinsLo(t *testing.T) {
	for i := 0; i < 32; i++ {
		if f := DeriveFault(3, i, "x", Transient, 16, 5, 5); f.Cycle != 5 {
			t.Fatalf("mask %d: degenerate window drew cycle %d, want 5", i, f.Cycle)
		}
	}
}

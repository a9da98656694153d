package core

import "testing"

func TestSplitMix64KnownVectors(t *testing.T) {
	// Chained outputs starting from 0; the first equals the first output
	// of Vigna's splitmix64.c seeded at 0. Guards against accidental edits
	// to the constants.
	want := []uint64{
		0xE220A8397B1DCDAF,
		0xA706DD2F4D197E6F,
		0x238275BC38FCBE91,
	}
	x := uint64(0)
	for i, w := range want {
		x = SplitMix64(x)
		if x != w {
			t.Fatalf("SplitMix64 chain[%d] = %#x, want %#x", i, x, w)
		}
	}
}

func TestStreamDeterministicAndIndependent(t *testing.T) {
	a1 := MaskStream(42, 7)
	a2 := MaskStream(42, 7)
	for i := 0; i < 16; i++ {
		if a1.Next() != a2.Next() {
			t.Fatal("identical (seed, maskID) must yield identical streams")
		}
	}
	b := MaskStream(42, 8)
	c := MaskStream(43, 7)
	if a, bb := MaskStream(42, 7), b; a.Next() == bb.Next() {
		t.Fatal("adjacent mask IDs must not share a stream")
	}
	if a, cc := MaskStream(42, 7), c; a.Next() == cc.Next() {
		t.Fatal("different seeds must not share a stream")
	}
}

func TestSaltedStreamDiffersBySalt(t *testing.T) {
	s0 := SaltedStream(1, 2, 3)
	s1 := SaltedStream(1, 2, 4)
	if s0.Next() == s1.Next() {
		t.Fatal("salts must separate streams")
	}
}

func TestUintnRange(t *testing.T) {
	s := MaskStream(9, 0)
	for i := 0; i < 1000; i++ {
		if v := s.Uintn(37); v >= 37 {
			t.Fatalf("Uintn(37) = %d out of range", v)
		}
	}
}

func TestDeriveFaultScheduleIndependence(t *testing.T) {
	// Deriving masks in any order yields the same population.
	const n = 64
	fwd := make([]Fault, n)
	for i := 0; i < n; i++ {
		fwd[i] = DeriveFault(5, i, "SPM", Transient, 4096, 1, 901)
	}
	for i := n - 1; i >= 0; i-- {
		if got := DeriveFault(5, i, "SPM", Transient, 4096, 1, 901); got != fwd[i] {
			t.Fatalf("mask %d depends on derivation order: %v vs %v", i, got, fwd[i])
		}
	}
	for i, f := range fwd {
		if f.Bit >= 4096 {
			t.Fatalf("mask %d bit %d out of range", i, f.Bit)
		}
		if f.Cycle < 1 || f.Cycle > 900 {
			t.Fatalf("mask %d cycle %d outside [1, 900]", i, f.Cycle)
		}
	}
	perm := DeriveFault(5, 0, "SPM", StuckAt1, 4096, 1, 901)
	if perm.Cycle != 0 {
		t.Fatalf("permanent fault carries an injection cycle: %v", perm)
	}
}

func TestDeriveFaultCoversPopulation(t *testing.T) {
	// Sanity: the derived bits are not degenerate (they spread over the
	// population instead of collapsing onto a few values).
	seen := map[uint64]bool{}
	for i := 0; i < 256; i++ {
		seen[DeriveFault(11, i, "x", Transient, 64, 1, 101).Bit] = true
	}
	if len(seen) < 48 {
		t.Fatalf("256 draws over 64 bits hit only %d distinct bits", len(seen))
	}
}

// TestResampleStreamNeverAliasesMaskStreams: the live-entry resample
// stream keyed by a drawn bit must never replay one of the mask's fault
// streams — keyed by the bit alone, a drawn bit of 0 replayed the mask's
// first stream (MaskStream) and bit k its k-th fault stream.
func TestResampleStreamNeverAliasesMaskStreams(t *testing.T) {
	for i := 0; i < 8; i++ {
		faults := map[uint64]bool{}
		for k := uint64(0); k < 64; k++ {
			s := SaltedStream(3, i, k)
			faults[s.Next()] = true
		}
		for _, bit := range []uint64{0, 1, 2, 63, maxMaskFaults, maxMaskFaults + 1, 1<<40 + 5} {
			r := ResampleStream(3, i, bit)
			if faults[r.Next()] {
				t.Fatalf("mask %d: resample stream of drawn bit %d replays a fault stream", i, bit)
			}
		}
	}
}

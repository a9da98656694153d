package cpu

import (
	"math/rand"
	"testing"

	"marvel/internal/isa"
)

// TestDecodeMemoMatchesFreshDecode drives each ISA's memoized decode with
// random windows at a few colliding PCs — repeated windows hit, others
// replace the entry — and requires every result to equal a fresh
// Arch.Decode of the same (pc, window).
func TestDecodeMemoMatchesFreshDecode(t *testing.T) {
	for _, a := range isa.All() {
		c, err := New(a, DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		n := a.MaxInstLen()
		// Eight PCs, two of which share a memo entry, with three windows
		// each: most lookups hit, and every window change must miss.
		pcs := []uint64{0x1000, 0x1000 + decodeMemoEntries<<c.memoShift}
		for len(pcs) < 8 {
			pcs = append(pcs, 0x1000+uint64(rng.Intn(4096))<<c.memoShift)
		}
		wins := make(map[uint64][][]byte)
		for _, pc := range pcs {
			for k := 0; k < 3; k++ {
				w := make([]byte, n)
				rng.Read(w)
				wins[pc] = append(wins[pc], w)
			}
		}
		for i := 0; i < 20000; i++ {
			pc := pcs[rng.Intn(len(pcs))]
			win := wins[pc][rng.Intn(3)]
			got, want := *c.decode(pc, win), a.Decode(pc, win)
			if got != want {
				t.Fatalf("%s: pc %#x window % x: memo %+v, fresh %+v", a.Name(), pc, win, got, want)
			}
		}
	}
}

// TestDecodeMemoMissesOnFlippedBit flips each bit of a real instruction
// window in turn, as an L1I fault would, and requires the memo to miss —
// re-key its entry on the flipped bytes — and return the flipped bytes'
// fresh decode, then to decode the original bytes fresh again.
func TestDecodeMemoMissesOnFlippedBit(t *testing.T) {
	code := map[string][]byte{
		"riscv": le32(must(isa.RvALUImm(isa.AluAdd, 5, 6, 42))),
		"arm":   le32(must(isa.ArmALUReg(isa.AluSub, 1, 2, 3, 0))),
		"x86":   mustBytes(isa.X86ALUrr(isa.AluXor, 3, 9)),
	}
	for _, a := range isa.All() {
		c, err := New(a, DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		const pc = 0x4000
		orig := make([]byte, a.MaxInstLen())
		copy(orig, code[a.Name()])
		c.decode(pc, orig)
		e := &c.memo[(pc>>c.memoShift)%decodeMemoEntries]
		for bit := 0; bit < 8*len(orig); bit++ {
			flipped := append([]byte(nil), orig...)
			flipped[bit/8] ^= 1 << (bit % 8)
			for _, win := range [][]byte{orig, flipped, orig} {
				got := *c.decode(pc, win)
				if want := a.Decode(pc, win); got != want {
					t.Fatalf("%s: bit %d: memo %+v, fresh %+v", a.Name(), bit, got, want)
				}
				var key [maxWindow]byte
				copy(key[:], win)
				if !e.valid || e.pc != pc || e.win != key {
					t.Fatalf("%s: bit %d: memo entry not keyed on the window just decoded", a.Name(), bit)
				}
			}
		}
	}
}

// TestDecodeMemoNotShared checks that the memo never crosses cores: a
// clone starts without one, and ResetTo keeps the target's own.
func TestDecodeMemoNotShared(t *testing.T) {
	g, err := New(isa.RV64L{}, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g.decode(0x1000, make([]byte, 4))
	if g.Clone(nil).memo != nil {
		t.Fatal("Clone copied the decode memo")
	}
	s, err := New(isa.RV64L{}, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.ResetTo(g)
	if s.memo != nil {
		t.Fatal("ResetTo adopted the checkpoint core's decode memo")
	}
	s.decode(0x1000, make([]byte, 4))
	own := s.memo
	s.ResetTo(g)
	if s.memo != own || own == g.memo {
		t.Fatal("ResetTo did not keep the core's own decode memo")
	}
	if &s.fstore[0] == &g.fstore[0] || &s.Clone(nil).fstore[0] == &g.fstore[0] {
		t.Fatal("fetch buffer store aliased across cores")
	}
}

func le32(w uint32) []byte { return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)} }

func must(w uint32, ok bool) uint32 {
	if !ok {
		panic("encode failed")
	}
	return w
}

func mustBytes(b []byte, ok bool) []byte {
	if !ok {
		panic("encode failed")
	}
	return b
}

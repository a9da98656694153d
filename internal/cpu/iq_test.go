package cpu

import (
	"math/rand/v2"
	"testing"

	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/program"
	"marvel/internal/workloads"
)

// checkIQ fails the test unless every IQ member agrees with the ROB:
// stale is exactly "the ROB slot no longer holds this micro-op"; a live
// member sits at its own ROB slot with its micro-op's source tags and
// functional-unit class; and a member that is not a candidate is live and
// has a source that is not ready, so issue may skip it.
func checkIQ(t *testing.T, c *CPU, when string) {
	t.Helper()
	n := 0
	for s := range c.iq {
		if !c.iqMember(s) {
			continue
		}
		n++
		q := &c.iq[s]
		if q.stale != c.iqStale(q) {
			t.Fatalf("cycle %d %s: IQ entry at ROB slot %d (seq %d, tag %d) stale=%v, ROB says %v",
				c.cycle, when, s, q.seq, q.robIdx, q.stale, c.iqStale(q))
		}
		cand := c.iqCand[s>>6]>>(s&63)&1 == 1
		if q.stale {
			if !cand {
				t.Fatalf("cycle %d %s: stale IQ entry at ROB slot %d is not a candidate", c.cycle, when, s)
			}
			continue
		}
		e := &c.rob[q.robIdx]
		src := [4]PReg{e.ps1, e.ps2, e.ps3, e.psp}
		if int(q.robIdx) != s || q.src != src || q.fu != fuClassOf(e.uop.Kind) {
			t.Fatalf("cycle %d %s: IQ entry at ROB slot %d tag %d copies %v/%d, ROB entry %v/%d",
				c.cycle, when, s, q.robIdx, q.src, q.fu, src, fuClassOf(e.uop.Kind))
		}
		if !cand {
			ready := true
			for _, p := range q.src {
				ready = ready && (p == NoPReg || c.prf.Ready(p))
			}
			if ready {
				t.Fatalf("cycle %d %s: IQ entry at ROB slot %d is ready but not a candidate", c.cycle, when, s)
			}
		}
	}
	if n != c.iqN {
		t.Fatalf("cycle %d %s: %d IQ members, iqN %d", c.cycle, when, n, c.iqN)
	}
}

// stepChecked is Step with checkIQ run right before issue, the one stage
// that reads the stale flags. TestIQCopiesMatchROB holds it to Step.
func stepChecked(t *testing.T, c *CPU) {
	t.Helper()
	if c.Done() || c.waiting {
		c.Step()
		return
	}
	c.commit()
	if c.Done() {
		return
	}
	c.complete()
	c.memStage()
	checkIQ(t, c, "before issue")
	c.issue()
	c.rename()
	c.fetchDecode()
	c.cycle++
	c.Stats.Cycles++
}

// newSHACore boots a core on img with Table II's pipeline and small
// caches.
func newSHACore(t *testing.T, img *program.Image) *CPU {
	t.Helper()
	m := mem.NewMemory(0, img.Prog.MemSize, 40)
	h, err := mem.NewHierarchy(mem.HierarchyConfig{
		L1I: mem.CacheConfig{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L1D: mem.CacheConfig{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L2:  mem.CacheConfig{Name: "l2", SizeBytes: 1 << 15, LineBytes: 64, Ways: 8, HitLat: 10},
	}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(img.Arch, DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.LoadInto(m); err != nil {
		t.Fatal(err)
	}
	c.Boot(img.Entry, img.InitialSP, img.SPReg)
	return c
}

// TestIQCopiesMatchROB runs sha on every ISA while ROB and IQ faults land
// at random cycles, and checks the IQ entries' copies against the ROB
// after every fault and before every issue stage. IQ tag flips point
// entries at the wrong ROB slot. Some faults are directed: they set the
// done latch of a queued entry and of every older one, so commit retires
// an entry that never issued, which single random faults almost never do.
// A twin core stepped by Step must end in the same state.
func TestIQCopiesMatchROB(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	type fault struct {
		cycle uint64
		rob   bool
		bit   uint64
		stick int // -1: flip, 2: directed done-latch flips
	}
	for ai, a := range []isa.Arch{isa.ARM64L{}, isa.X86L{}, isa.RV64L{}} {
		img, err := program.Compile(a, spec.Build())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(7, uint64(ai)))
		for trial := 0; trial < 40; trial++ {
			c, twin := newSHACore(t, img), newSHACore(t, img)
			var faults []fault
			for cyc := uint64(rng.IntN(400)); cyc < 6000; cyc += 1 + uint64(rng.IntN(60)) {
				f := fault{cycle: cyc, rob: rng.IntN(2) == 0, stick: rng.IntN(4) - 1}
				tg := c.IQTarget()
				if f.rob {
					tg = c.ROBTarget()
				}
				f.bit = rng.Uint64N(tg.BitLen())
				faults = append(faults, f)
			}
			inject := func(c *CPU) {
				for _, f := range faults {
					if f.cycle != c.cycle {
						continue
					}
					tg := c.IQTarget()
					if f.rob {
						tg = c.ROBTarget()
					}
					switch {
					case f.stick == 2:
						if c.iqN == 0 {
							break
						}
						q := c.iq[c.iqSlot(int(f.bit%uint64(c.iqN)))]
						for i := 0; i < c.robCount; i++ {
							idx := c.robIdx(i)
							if e := &c.rob[idx]; !e.done {
								c.ROBTarget().Flip(uint64(idx)*robEntryBits + robStDone)
							}
							if idx == int(q.robIdx) {
								break
							}
						}
					case !tg.Live(f.bit):
					case f.stick < 0:
						tg.Flip(f.bit)
					default:
						tg.Stick(f.bit, uint8(f.stick))
					}
				}
			}
			for n := 0; n < 6000 && !c.Done(); n++ {
				inject(c)
				checkIQ(t, c, "after a fault")
				stepChecked(t, c)
			}
			for n := 0; n < 6000 && !twin.Done(); n++ {
				inject(twin)
				twin.Step()
			}
			if c.cycle != twin.cycle || c.Stats != twin.Stats || c.Done() != twin.Done() {
				t.Fatalf("%s trial %d: checked stepping ended at cycle %d %+v, Step at %d %+v",
					a.Name(), trial, c.cycle, c.Stats, twin.cycle, twin.Stats)
			}
		}
	}
}

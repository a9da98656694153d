package accel

import (
	"slices"
	"testing"

	"marvel/internal/classify"
	"marvel/internal/core"
)

// TestPortCompleteness is the accelerator half of the port-completeness
// guard of exact stuck-at pruning: a bank byte a Read returned is refuted
// by the summary for the opposite stuck value, and a byte only written is
// never read.
func TestPortCompleteness(t *testing.T) {
	b := NewBank(BankSpec{Name: "spm", Kind: SPM, Base: 0x100, Size: 16})
	if err := b.Write(0x100, []byte{0xC6}); err != nil {
		t.Fatal(err)
	}
	s := core.NewReadSummary(b.BitLen())
	b.Observe(s)
	if err := b.Read(0x100, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x101, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	for bit := uint64(0); bit < 8; bit++ {
		v := uint8(0xC6 >> bit & 1)
		if s.Unobserved(bit, 1-v) {
			t.Errorf("read: stuck-at-%d on bit %d, read as %d, is pruned", 1-v, bit, v)
		}
		if !s.Unobserved(8+bit, 0) || !s.Unobserved(8+bit, 1) {
			t.Errorf("bit %d of the written byte was never read but is not pruned", bit)
		}
	}
}

// portLog records the cycle, kind, first byte and extent of every port
// event of one bank, and what each read returned.
type portLog struct {
	clock  func() uint64
	events []portEvent
}

type portEvent struct {
	cycle, at, n uint64
	read         bool
	data         []byte // a read's bytes
}

func (l *portLog) Read(at uint64, data []byte) {
	l.events = append(l.events, portEvent{cycle: l.clock(), at: at, n: uint64(len(data)), read: true, data: slices.Clone(data)})
}

func (l *portLog) Overwrite(at, n uint64) {
	l.events = append(l.events, portEvent{cycle: l.clock(), at: at, n: n})
}

func (l *portLog) Enforce(uint64, []byte) {}

// TestPruningSameTickOrdering pins the ordering exact transient pruning
// rests on: Cluster.Tick applies a flip after the clock advances and
// before that tick's DMA and engine accesses. A flip landing in the very
// tick that reads its byte is consumed, and one landing in the tick that
// overwrites it is erased. For every port event on the input bank of a
// golden run it injects a flip in that tick and in the next, and holds
// each fault the pass prunes to its full run.
func TestPruningSameTickOrdering(t *testing.T) {
	d, task := testDesign(t, DefaultFUs()), testTask()
	g, err := PrepareGolden(d, task)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Design: d, Task: task, Target: "IN", Model: core.Transient}
	in, err := g.injection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := g.base.Fork()
	log := &portLog{clock: rec.Cluster.Cycle}
	rec.Cluster.Banks()[in.bankIdx].Observe(log)
	if err := rec.Run(in.cycleBudget); err != nil {
		t.Fatal(err)
	}
	var faults []core.Fault
	for _, e := range log.events {
		for _, c := range []uint64{e.cycle, e.cycle + 1} {
			faults = append(faults, core.Fault{Target: "IN", Bit: 8 * e.at, Cycle: c, Model: core.Transient})
		}
	}
	prune, err := g.pruner(cfg, in, faults)(g.base.Fork())
	if err != nil {
		t.Fatal(err)
	}
	s := g.base.Fork()
	sameTickSDC := 0
	for i, f := range faults {
		s.Reset()
		full := runFaulty(s, in.bankIdx, f, in.cycleBudget, g.Output, nil, nil, 0)
		e := log.events[i/2]
		if v, _, ok := prune(i); ok && v != full {
			t.Errorf("flip %v pruned as %+v, full run %+v", f, v, full)
		} else if !ok && !e.read && i%2 == 0 {
			t.Errorf("flip %v, overwritten in its own tick, was not pruned", f)
		}
		if i%2 == 0 && e.read && full.Outcome == classify.SDC {
			sameTickSDC++
		}
	}
	if sameTickSDC == 0 {
		t.Fatal("no flip landing in its read's tick corrupted the output; the test proves nothing")
	}
}

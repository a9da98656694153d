package cpu

import (
	"testing"

	"marvel/internal/core"
)

// seenByte fails unless every bit of byte at is refuted for the stuck
// value opposite to the one the port saw there (val).
func seenByte(t *testing.T, port string, s *core.ReadSummary, at uint64, val byte) {
	t.Helper()
	for b := uint64(0); b < 8; b++ {
		v := val >> b & 1
		if s.Unobserved(at*8+b, 1-v) {
			t.Errorf("%s: stuck-at-%d on bit %d, seen as %d, is pruned", port, 1-v, b, v)
		}
	}
}

// TestPortCompleteness is the register-file and load/store-queue half of
// the port-completeness guard of exact stuck-at pruning: a byte only one
// port saw must be refuted by the summary, and a byte nothing saw must
// stay pruned.
func TestPortCompleteness(t *testing.T) {
	t.Run("prf read", func(t *testing.T) {
		p := NewPhysRegFile(8)
		p.SetInitial(2, 0xF0)
		s := core.NewReadSummary(p.BitLen())
		p.Observe(s)
		p.Read(2)
		seenByte(t, "prf read", s, 2*8, 0xF0)
		// A register that is only written is never read.
		p.Write(3, 0xFF)
		for bit := uint64(3 * 64); bit < 4*64; bit++ {
			if !s.Unobserved(bit, 0) || !s.Unobserved(bit, 1) {
				t.Fatalf("prf bit %d was only overwritten but is not pruned", bit)
			}
		}
	})

	// The queue's stuck bits hold lazily, so its summary rests on the
	// enforcement points (arming, allocation, field updates) and also
	// folds the field uses (commit, forwarding, retirement).
	lsq := func(t *testing.T) (*LSQ, *core.ReadSummary) {
		q := NewLSQ("sq", 4)
		s := core.NewReadSummary(q.BitLen())
		return q, s
	}
	t.Run("lsq arming", func(t *testing.T) {
		q, s := lsq(t)
		slot, _ := q.alloc(1, 0)
		q.entries[slot].addr = 0x80
		q.Observe(s)
		seenByte(t, "arming", s, uint64(slot)*lsqEntryBytes, 0x80)
		// A status latch no field maps to is never set.
		for st := uint64(6); st < 8; st++ {
			if !s.Unobserved(uint64(slot)*lsqEntryBits+lsqStatusBase+st, 0) {
				t.Errorf("stuck-at-0 on unused status bit %d is not pruned", st)
			}
		}
	})
	t.Run("lsq allocation", func(t *testing.T) {
		q, s := lsq(t)
		q.entries[0].addr = 0xFF // a stale, invalid entry
		q.Observe(s)
		slot, _ := q.alloc(1, 0) // clears the entry
		seenByte(t, "allocation", s, uint64(slot)*lsqEntryBytes, 0x00)
	})
	t.Run("lsq field update", func(t *testing.T) {
		q, s := lsq(t)
		q.Observe(s)
		slot, _ := q.alloc(1, 0)
		q.entries[slot].addr = 0x3C
		q.enforceStuck(slot)
		seenByte(t, "field update", s, uint64(slot)*lsqEntryBytes, 0x3C)
	})
	t.Run("lsq field use", func(t *testing.T) {
		q, s := lsq(t)
		q.Observe(s)
		slot, _ := q.alloc(1, 0)
		q.entries[slot].data = 0xAA
		q.used(slot)
		seenByte(t, "field use", s, uint64(slot)*lsqEntryBytes+8, 0xAA)
	})
	t.Run("lsq retirement", func(t *testing.T) {
		q, s := lsq(t)
		q.Observe(s)
		slot, _ := q.alloc(1, 0)
		q.entries[slot].data = 0x55
		q.popHead()
		seenByte(t, "retirement", s, uint64(slot)*lsqEntryBytes+8, 0x55)
	})
}

// TestLSQWatchLifecycle pins the §IV-B watch's view of the queue's ports:
// a field use or a retirement reads the watched entry, a squash kills
// it, and so does the retirement of a load whose value was delivered
// before the watch was armed.
func TestLSQWatchLifecycle(t *testing.T) {
	watch := func(q *LSQ, slot int) *core.Watch {
		w := core.NewWatch(uint64(slot)*lsqEntryBits + lsqDataBase)
		q.Observe(w)
		return w
	}
	cases := []struct {
		name string
		run  func(q *LSQ, slot int)
		want core.WatchState
	}{
		{"field use", func(q *LSQ, slot int) { q.used(slot) }, core.WatchRead},
		{"retirement", func(q *LSQ, slot int) { q.popHead() }, core.WatchRead},
		{"squash", func(q *LSQ, slot int) { q.squashYoungerThan(0) }, core.WatchDead},
		{"field update", func(q *LSQ, slot int) { q.enforceStuck(slot) }, core.WatchPending},
	}
	for _, tc := range cases {
		q := NewLSQ("lq", 4)
		slot, _ := q.alloc(1, 0)
		w := watch(q, slot)
		tc.run(q, slot)
		if w.State() != tc.want {
			t.Errorf("%s: watch %v, want %v", tc.name, w.State(), tc.want)
		}
	}

	q := NewLSQ("lq", 4)
	slot, _ := q.alloc(1, 0)
	e := &q.entries[slot]
	e.accessed, e.dataReady = true, true // the load value was delivered
	w := watch(q, slot)
	q.popHead()
	if w.State() != core.WatchDead {
		t.Errorf("retiring a load delivered before arming: watch %v, want dead", w.State())
	}
}

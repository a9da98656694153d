package core

import "testing"

// TestGoldenWatchSettles drives a golden watch through the port events of
// a short run and checks each rule: a stuck-at goes read only on a value
// that shows it, a transient only on the first access at or after its
// cycle, and overwrites kill transients but never stuck-ats. Each fault
// records the clock it settled at.
func TestGoldenWatchSettles(t *testing.T) {
	var cycle uint64
	faults := []Fault{
		0: {Bit: 8*0 + 1, Model: StuckAt1},            // byte 0 bit 1, read as 0 at cycle 3
		1: {Bit: 8*0 + 2, Model: StuckAt1},            // byte 0 bit 2, always read as 1
		2: {Bit: 8*1 + 0, Model: StuckAt0},            // byte 1, overwritten, read as 1 at cycle 6
		3: {Bit: 8*2 + 3, Cycle: 4, Model: Transient}, // byte 2: read at 3, overwritten at 4
		4: {Bit: 8*2 + 5, Cycle: 5, Model: Transient}, // byte 2: read at 5
		5: {Bit: 8*3 + 0, Cycle: 2, Model: Transient}, // byte 3: overwritten only before its flip
		6: {Bit: 8*1 + 7, Cycle: 6, Model: Transient}, // byte 1: read at 6, same tick as its flip
	}
	w := NewGoldenWatch(faults, 32, func() uint64 { return cycle })
	steps := []struct {
		cycle uint64
		event func()
	}{
		{1, func() { w.Overwrite(0, 4) }},
		{2, func() { w.Read(0, []byte{0x06, 0x00}) }},
		{3, func() { w.Read(0, []byte{0x04, 0x00, 0xFF}) }},
		{4, func() { w.Overwrite(1, 2) }},
		{5, func() { w.Read(2, []byte{0x00}) }},
		{6, func() { w.Read(0, []byte{0x04, 0x01}) }},
	}
	want := [][]WatchState{
		{WatchPending, WatchPending, WatchPending, WatchPending, WatchPending, WatchPending, WatchPending},
		{WatchPending, WatchPending, WatchPending, WatchPending, WatchPending, WatchPending, WatchPending},
		{WatchRead, WatchPending, WatchPending, WatchPending, WatchPending, WatchPending, WatchPending},
		{WatchRead, WatchPending, WatchPending, WatchDead, WatchPending, WatchPending, WatchPending},
		{WatchRead, WatchPending, WatchPending, WatchDead, WatchRead, WatchPending, WatchPending},
		{WatchRead, WatchPending, WatchRead, WatchDead, WatchRead, WatchPending, WatchRead},
	}
	for s, st := range steps {
		cycle = st.cycle
		st.event()
		pending := 0
		for i := range faults {
			if got := w.State(i); got != want[s][i] {
				t.Errorf("cycle %d: fault %d %v, want %v", cycle, i, got, want[s][i])
			}
			if want[s][i] == WatchPending {
				pending++
			}
		}
		if w.Pending() != pending {
			t.Errorf("cycle %d: %d pending, want %d", cycle, w.Pending(), pending)
		}
	}
	for i, want := range []uint64{3, 0, 6, 4, 5, 0, 6} {
		if got := w.SettledAt(i); got != want {
			t.Errorf("fault %d settled at %d, want %d", i, got, want)
		}
	}
	// Enforcement points show stuck-ats like reads but leave transients.
	e := NewGoldenWatch([]Fault{{Bit: 0, Model: StuckAt0}, {Bit: 1, Cycle: 1, Model: Transient}}, 8, func() uint64 { return 9 })
	e.Enforce(0, []byte{0x03})
	if e.State(0) != WatchRead || e.State(1) != WatchPending || e.Pending() != 1 || e.SettledAt(0) != 9 {
		t.Errorf("enforce: states %v %v, %d pending, settled at %d; want read, pending, 1, 9", e.State(0), e.State(1), e.Pending(), e.SettledAt(0))
	}
}

package core

import "fmt"

// PortObserver is the hook every storage port of an Observable target
// reports through. Its implementations are the §IV-B watch of one faulty
// bit and the two golden observers of exact pruning: the CPU's read
// summary and the accelerator's multi-fault golden watch.
// Offsets are byte indices into the target's injection space: bit b is
// bit b%8 of byte b/8. Ports report only while an observer is armed; an
// unarmed port costs one nil test.
type PortObserver interface {
	// Read reports that the run consumed the bytes [at, at+len(data)),
	// which hold data.
	Read(at uint64, data []byte)
	// Overwrite reports that the n bytes at at were replaced, invalidated
	// or freed: what they held can no longer be read.
	Overwrite(at, n uint64)
	// Enforce reports a point where a target whose stuck-at faults hold
	// lazily (not on every write) re-applies them to the bytes
	// [at, at+len(data)), which hold data just before.
	Enforce(at uint64, data []byte)
}

// Observable is a target whose ports report through a PortObserver.
type Observable interface {
	Target
	// Observe arms o on every read, overwrite and enforcement port of
	// the target, replacing the observer armed before; nil disarms.
	// Clones, forks and resets start unarmed.
	Observe(o PortObserver)
}

// WatchState describes the lifecycle of a monitored faulty bit, used for
// the early-termination optimization of §IV-B: a fault whose bit is
// overwritten or invalidated before ever being read cannot affect the run.
type WatchState uint8

const (
	// WatchPending means the faulty bit has been neither read nor killed.
	WatchPending WatchState = iota
	// WatchRead means the faulty bit was consumed; the fault may propagate.
	WatchRead
	// WatchDead means the faulty bit was overwritten, invalidated or freed
	// before any read: the fault is provably masked.
	WatchDead
)

func (w WatchState) String() string {
	switch w {
	case WatchPending:
		return "pending"
	case WatchRead:
		return "read"
	case WatchDead:
		return "dead"
	}
	return fmt.Sprintf("watch(%d)", uint8(w))
}

// Watch is the §IV-B observer of one faulty bit: the first port that
// touches the bit's byte resolves it, a read to WatchRead and an
// overwrite to WatchDead. Enforcement points do not touch it.
type Watch struct {
	at    uint64
	state WatchState
}

// NewWatch returns a pending watch of bit.
func NewWatch(bit uint64) *Watch { return &Watch{at: bit / 8} }

// State reports the watched bit's lifecycle state.
func (w *Watch) State() WatchState { return w.state }

func (w *Watch) resolve(at, n uint64, to WatchState) {
	if w.state == WatchPending && w.at >= at && w.at < at+n {
		w.state = to
	}
}

// Read implements PortObserver.
func (w *Watch) Read(at uint64, data []byte) { w.resolve(at, uint64(len(data)), WatchRead) }

// Overwrite implements PortObserver.
func (w *Watch) Overwrite(at, n uint64) { w.resolve(at, n, WatchDead) }

// Enforce implements PortObserver.
func (w *Watch) Enforce(uint64, []byte) {}

// ReadSummary is the observer of exact stuck-at pruning on the CPU: per
// byte of a target, the OR and the AND of every value its read and
// enforcement ports reported over one golden run. A stuck-at-v bit that
// held v at every one of them changes nothing the run reads, so its
// faulty run is the golden run (see Unobserved).
type ReadSummary struct {
	or, and []byte
}

// NewReadSummary returns an empty summary of a target of bits bits.
func NewReadSummary(bits uint64) *ReadSummary {
	n := (bits + 7) / 8
	s := &ReadSummary{or: make([]byte, n), and: make([]byte, n)}
	for i := range s.and {
		s.and[i] = 0xFF
	}
	return s
}

func (s *ReadSummary) fold(at uint64, data []byte) {
	or, and := s.or[at:at+uint64(len(data))], s.and[at:at+uint64(len(data))]
	for i, b := range data {
		or[i] |= b
		and[i] &= b
	}
}

// Read implements PortObserver.
func (s *ReadSummary) Read(at uint64, data []byte) { s.fold(at, data) }

// Overwrite implements PortObserver.
func (s *ReadSummary) Overwrite(uint64, uint64) {}

// Enforce implements PortObserver.
func (s *ReadSummary) Enforce(at uint64, data []byte) { s.fold(at, data) }

// Unobserved reports whether every value reported for bit held v there:
// then a stuck-at-v fault on bit is never seen by the run.
func (s *ReadSummary) Unobserved(bit uint64, v uint8) bool {
	m := byte(1) << (bit % 8)
	if v != 0 {
		return s.and[bit/8]&m != 0
	}
	return s.or[bit/8]&m == 0
}

// GoldenWatch is the observer of exact pruning's golden pass over the
// faults of one campaign on one target. Every fault starts pending, and
// the first port of the golden run that could show it settles it:
//   - a stuck-at-v fault is read (WatchRead) at the first read or
//     enforcement point whose value holds !v at its bit, and is never
//     killed: every later write re-applies it;
//   - a transient flip at cycle c is read or dead at the first read or
//     overwrite of its byte while the clock is at c or later, so the
//     clock must already read c when the flip lands.
//
// A fault that is not read when the golden run ends leaves the faulty run
// identical to the golden run, and a fault that is read executes as the
// golden run does until the clock it was read at, which SettledAt
// reports. Once no fault is pending the rest of the pass can settle
// nothing, so the pass may stop there.
type GoldenWatch struct {
	clock  func() uint64
	faults []goldenFault
	// head is, per byte of the target, its first pending fault or -1;
	// faults on one byte chain through goldenFault.next.
	head    []int32
	pending int
}

type goldenFault struct {
	next  int32
	stuck bool
	mask  byte   // the fault's bit within its byte
	held  byte   // stuck-at: mask when the bit is stuck at 1, else 0
	cycle uint64 // transient: the injection cycle
	at    uint64 // the clock when the fault settled
	state WatchState
}

// NewGoldenWatch returns a watch of faults on a target of bits bits,
// every one pending. clock reports the run's current cycle.
func NewGoldenWatch(faults []Fault, bits uint64, clock func() uint64) *GoldenWatch {
	w := &GoldenWatch{clock: clock, faults: make([]goldenFault, len(faults)), head: make([]int32, (bits+7)/8), pending: len(faults)}
	for i := range w.head {
		w.head[i] = -1
	}
	for i, f := range faults {
		g := &w.faults[i]
		g.mask, g.stuck, g.cycle = 1<<(f.Bit%8), f.Model.Permanent(), f.Cycle
		if f.Model.StuckBit() != 0 {
			g.held = g.mask
		}
		g.next, w.head[f.Bit/8] = w.head[f.Bit/8], int32(i)
	}
	return w
}

// Pending reports how many faults no port has settled yet.
func (w *GoldenWatch) Pending() int { return w.pending }

// State reports fault i's state: pending, read, or dead.
func (w *GoldenWatch) State(i int) WatchState { return w.faults[i].state }

// SettledAt reports the clock at which fault i settled, or 0 while it is
// pending.
func (w *GoldenWatch) SettledAt(i int) uint64 { return w.faults[i].at }

// settle walks the pending faults on the bytes [at, at+n). Each one for
// which to returns a state other than WatchPending takes that state and
// leaves its byte's chain. data, when non-nil, is what the port reported
// for those bytes.
func (w *GoldenWatch) settle(at, n uint64, data []byte, to func(f *goldenFault, b byte) WatchState) {
	for j := uint64(0); j < n; j++ {
		link := &w.head[at+j]
		for *link >= 0 {
			f := &w.faults[*link]
			var b byte
			if data != nil {
				b = data[j]
			}
			if s := to(f, b); s != WatchPending {
				f.state, f.at = s, w.clock()
				w.pending--
				*link = f.next
				continue
			}
			link = &f.next
		}
	}
}

// sees reports whether a value b of a fault's byte shows a stuck-at
// fault: its bit differs from the held value.
func sees(f *goldenFault, b byte) bool { return f.stuck && b&f.mask != f.held }

// Read implements PortObserver.
func (w *GoldenWatch) Read(at uint64, data []byte) {
	w.settle(at, uint64(len(data)), data, func(f *goldenFault, b byte) WatchState {
		if sees(f, b) || !f.stuck && w.clock() >= f.cycle {
			return WatchRead
		}
		return WatchPending
	})
}

// Overwrite implements PortObserver.
func (w *GoldenWatch) Overwrite(at, n uint64) {
	w.settle(at, n, nil, func(f *goldenFault, _ byte) WatchState {
		if !f.stuck && w.clock() >= f.cycle {
			return WatchDead
		}
		return WatchPending
	})
}

// Enforce implements PortObserver.
func (w *GoldenWatch) Enforce(at uint64, data []byte) {
	w.settle(at, uint64(len(data)), data, func(f *goldenFault, b byte) WatchState {
		if sees(f, b) {
			return WatchRead
		}
		return WatchPending
	})
}

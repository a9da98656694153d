package core

import "fmt"

// PortObserver is the hook every storage port of an Observable target
// reports through: the §IV-B watch of one faulty bit and the golden read
// summary of exact stuck-at pruning are its two implementations.
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

// ReadSummary is the observer of exact stuck-at pruning: per byte of a
// target, the OR and the AND of every value its read and enforcement
// ports reported over one golden run. A stuck-at-v bit that held v at
// every one of them changes nothing the run reads, so its faulty run is
// the golden run (see Unobserved).
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

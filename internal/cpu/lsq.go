package cpu

import (
	"encoding/binary"

	"marvel/internal/core"
)

// Injection layout of one load/store queue entry, following the paper's
// description of queue state (address, data, status): bits 0..63 hold the
// address field, 64..127 the data/value field, and 128..135 a status byte
// (bit 0 address-ready, bit 1 data-ready/done, bit 2 sign-extend, bits 3..5
// the log2 access size; bits 6..7 are unused latches whose flips are
// naturally masked).
const (
	lsqEntryBits   = 136
	lsqEntryBytes  = lsqEntryBits / 8
	lsqAddrBase    = 0
	lsqDataBase    = 64
	lsqStatusBase  = 128
	lsqStAddrReady = 0
	lsqStDataReady = 1
	lsqStSigned    = 2
	lsqStSizeBase  = 3 // 3 bits
)

// lsqEntry is one slot of the load or store queue.
type lsqEntry struct {
	valid  bool
	seq    uint64
	robIdx int

	addr      uint64
	data      uint64 // store data / loaded value
	size      uint8  // access bytes: 1,2,4,8
	signed    bool
	addrReady bool
	dataReady bool // store data ready / load value delivered
	accessed  bool // load performed its memory access
	nullified bool // predicated-false op: no architectural access
	mmio      bool
}

// LSQ is a circular load or store queue and a fault-injection target.
type LSQ struct {
	name    string
	entries []lsqEntry
	head    int
	count   int

	stuck []lsqStuckBit

	// obs, when armed, observes the entries' ports (see Observe); slot s
	// is the bytes [17s, 17s+17) in the injection layout, which enc
	// holds for a report. delivered marks the slots whose load value was
	// delivered before obs was armed.
	obs       core.PortObserver
	enc       [lsqEntryBytes]byte
	delivered []bool
}

type lsqStuckBit struct {
	bit uint64
	val uint8
}

// NewLSQ creates a queue with the given capacity.
func NewLSQ(name string, capacity int) *LSQ {
	return &LSQ{name: name, entries: make([]lsqEntry, capacity)}
}

// Cap returns the queue capacity.
func (q *LSQ) Cap() int { return len(q.entries) }

// Count returns the number of allocated entries.
func (q *LSQ) Count() int { return q.count }

// Full reports whether no entry can be allocated.
func (q *LSQ) Full() bool { return q.count == len(q.entries) }

// slot maps queue position i (0 = oldest, i < Cap) to a physical slot
// index.
func (q *LSQ) slot(i int) int {
	s := q.head + i
	if s >= len(q.entries) {
		s -= len(q.entries)
	}
	return s
}

// at returns the entry at queue position i (0 = oldest).
func (q *LSQ) at(i int) *lsqEntry { return &q.entries[q.slot(i)] }

// alloc appends a new entry and returns its physical slot.
func (q *LSQ) alloc(seq uint64, robIdx int) (int, bool) {
	if q.Full() {
		return 0, false
	}
	s := q.slot(q.count)
	q.entries[s] = lsqEntry{valid: true, seq: seq, robIdx: robIdx}
	q.count++
	if q.obs != nil {
		q.delivered[s] = false
	}
	q.enforceStuck(s)
	return s, true
}

// popHead releases the oldest entry (commit order).
func (q *LSQ) popHead() {
	s := q.head
	if q.obs != nil {
		// A load whose value was delivered before arming cannot pass it
		// on any more: its retirement kills the entry. Any other
		// retirement counts as a read.
		if q.delivered[s] {
			q.delivered[s] = false
			q.obs.Overwrite(uint64(s)*lsqEntryBytes, lsqEntryBytes)
		} else {
			q.reportUsed(s)
		}
	}
	q.entries[s].valid = false
	if q.head++; q.head == len(q.entries) {
		q.head = 0
	}
	q.count--
}

// squashYoungerThan removes every entry with seq > limit (mispredict
// recovery). Entries are allocated in sequence order, so this is a tail
// rollback.
func (q *LSQ) squashYoungerThan(limit uint64) {
	for q.count > 0 {
		s := q.slot(q.count - 1)
		if q.entries[s].seq <= limit {
			return
		}
		if q.obs != nil {
			q.obs.Overwrite(uint64(s)*lsqEntryBytes, lsqEntryBytes)
		}
		q.entries[s].valid = false
		q.count--
	}
}

// reset empties the queue.
func (q *LSQ) reset() {
	for i := range q.entries {
		q.entries[i] = lsqEntry{}
	}
	q.head, q.count = 0, 0
}

// Clone deep-copies the queue; the clone starts unobserved.
func (q *LSQ) Clone() *LSQ {
	n := *q
	n.entries = append([]lsqEntry(nil), q.entries...)
	n.stuck = append([]lsqStuckBit(nil), q.stuck...)
	n.obs, n.delivered = nil, nil
	return &n
}

// ResetTo restores q to g's state without allocating, reusing q's backing
// arrays (checkpoint-fork reuse across faulty runs); q ends unobserved.
func (q *LSQ) ResetTo(g *LSQ) {
	entries, stuck, delivered := q.entries, q.stuck, q.delivered
	*q = *g
	q.entries = entries
	copy(q.entries, g.entries)
	q.stuck = append(stuck[:0], g.stuck...)
	q.obs, q.delivered = nil, delivered
}

// --- core.Target implementation ---

// TargetName implements core.Target.
func (q *LSQ) TargetName() string { return q.name }

// BitLen implements core.Target.
func (q *LSQ) BitLen() uint64 { return uint64(len(q.entries)) * lsqEntryBits }

// Live implements core.Target.
func (q *LSQ) Live(bit uint64) bool {
	return q.entries[bit/lsqEntryBits].valid
}

// Flip implements core.Target.
func (q *LSQ) Flip(bit uint64) {
	e := &q.entries[bit/lsqEntryBits]
	q.xorBit(e, bit%lsqEntryBits)
}

func (q *LSQ) xorBit(e *lsqEntry, off uint64) {
	switch {
	case off < lsqDataBase:
		e.addr ^= 1 << off
	case off < lsqStatusBase:
		e.data ^= 1 << (off - lsqDataBase)
	default:
		q.setStatusBit(e, off-lsqStatusBase, !q.statusBit(e, off-lsqStatusBase))
	}
}

func (q *LSQ) statusBit(e *lsqEntry, b uint64) bool {
	switch b {
	case lsqStAddrReady:
		return e.addrReady
	case lsqStDataReady:
		return e.dataReady
	case lsqStSigned:
		return e.signed
	case lsqStSizeBase, lsqStSizeBase + 1, lsqStSizeBase + 2:
		return sizeLog(e.size)>>(b-lsqStSizeBase)&1 == 1
	default:
		return false
	}
}

func (q *LSQ) setStatusBit(e *lsqEntry, b uint64, v bool) {
	switch b {
	case lsqStAddrReady:
		e.addrReady = v
	case lsqStDataReady:
		e.dataReady = v
	case lsqStSigned:
		e.signed = v
	case lsqStSizeBase, lsqStSizeBase + 1, lsqStSizeBase + 2:
		lg := sizeLog(e.size)
		if v {
			lg |= 1 << (b - lsqStSizeBase)
		} else {
			lg &^= 1 << (b - lsqStSizeBase)
		}
		if lg > 3 {
			lg = 3 // clamp: hardware has only 1..8-byte accesses
		}
		e.size = 1 << lg
	}
}

func sizeLog(size uint8) uint8 {
	switch {
	case size >= 8:
		return 3
	case size >= 4:
		return 2
	case size >= 2:
		return 1
	default:
		return 0
	}
}

// Stick implements core.Target. The stuck value is re-applied whenever a
// slot is (re)allocated; field updates between allocations re-apply lazily
// via enforceStuck in the pipeline's access paths.
func (q *LSQ) Stick(bit uint64, v uint8) {
	q.stuck = append(q.stuck, lsqStuckBit{bit: bit, val: v})
	q.applyStuckSlot(int(bit / lsqEntryBits))
}

func (q *LSQ) applyStuckSlot(slot int) {
	for _, s := range q.stuck {
		if int(s.bit/lsqEntryBits) != slot {
			continue
		}
		e := &q.entries[slot]
		off := s.bit % lsqEntryBits
		cur := q.getBit(e, off)
		if cur != (s.val != 0) {
			q.xorBit(e, off)
		}
	}
}

// enforceStuck re-applies permanent faults to a slot after field updates
// or allocation: the queue's enforcement port.
func (q *LSQ) enforceStuck(slot int) {
	if q.obs != nil || len(q.stuck) != 0 {
		q.enforce(slot)
	}
}

// used is the queue's read port: the pipeline consumed the fields of the
// entry in slot (store commit, store-to-load forwarding, retirement).
func (q *LSQ) used(slot int) {
	if q.obs != nil {
		q.reportUsed(slot)
	}
}

// enforce reports an enforcement point to the armed observer and
// re-applies the stuck bits; reportUsed reports a read. They stay out of
// line so that enforceStuck and used, called for every memory access,
// stay small enough to inline.
//
//go:noinline
func (q *LSQ) enforce(slot int) {
	if q.obs != nil {
		q.obs.Enforce(uint64(slot)*lsqEntryBytes, q.encode(slot))
	}
	q.applyStuckSlot(slot)
}

//go:noinline
func (q *LSQ) reportUsed(slot int) {
	q.obs.Read(uint64(slot)*lsqEntryBytes, q.encode(slot))
}

// encode returns slot's fields in the injection layout: address, data
// and the status byte, little-endian.
func (q *LSQ) encode(slot int) []byte {
	e := &q.entries[slot]
	binary.LittleEndian.PutUint64(q.enc[0:], e.addr)
	binary.LittleEndian.PutUint64(q.enc[8:], e.data)
	var st byte
	for b := uint64(0); b < 8; b++ {
		if q.statusBit(e, b) {
			st |= 1 << b
		}
	}
	q.enc[16] = st
	return q.enc[:]
}

func (q *LSQ) getBit(e *lsqEntry, off uint64) bool {
	switch {
	case off < lsqDataBase:
		return e.addr>>off&1 == 1
	case off < lsqStatusBase:
		return e.data>>(off-lsqDataBase)&1 == 1
	default:
		return q.statusBit(e, off-lsqStatusBase)
	}
}

// Observe implements core.Observable. Stick enforces at once, so arming
// reports every slot's contents as an enforcement point; allocation and
// the pipeline's field updates are the others. Stuck bits hold lazily,
// between those points, so the queue's read ports (store commit and
// forwarding, retirement) are not all of its uses: a summary of the
// queue proves a stuck-at unobserved through its enforcement points.
func (q *LSQ) Observe(o core.PortObserver) {
	q.obs = o
	if o == nil {
		return
	}
	if q.delivered == nil {
		q.delivered = make([]bool, len(q.entries))
	}
	for s := range q.entries {
		e := &q.entries[s]
		q.delivered[s] = e.valid && e.dataReady && e.accessed
		o.Enforce(uint64(s)*lsqEntryBytes, q.encode(s))
	}
}

var _ core.Observable = (*LSQ)(nil)

package cpu

import "marvel/internal/core"

// The reorder buffer and issue queue are control-heavy structures: their
// injectable state is entry metadata (physical register tags, status
// latches) rather than data values. Flips there reroute results to the
// wrong physical register, free the wrong register, or orphan an in-flight
// micro-op — which surfaces as corruption, crash or pipeline deadlock.
//
// Register-tag fields are masked to the physical register index width on
// injection, as the hardware field would be.
//
// Neither structure is a core.Observable: no dead-fault or pruning proof
// is attempted for control state, so every fault there runs the full
// simulation.

// robEntryBits is the injectable state per ROB entry: two physical
// register tags (destination and previous mapping, 8 bits each) and three
// status latches (done, issued, predicted-taken).
const (
	robEntryBits = 19
	robTagBits   = 8
	robStDone    = 16
	robStIssued  = 17
	robStPredTkn = 18
)

// robTarget exposes the reorder buffer as a fault-injection target.
type robTarget struct{ c *CPU }

// ROBTarget returns the reorder-buffer injection target.
func (c *CPU) ROBTarget() core.Target { return robTarget{c} }

func (t robTarget) TargetName() string { return "rob" }

func (t robTarget) BitLen() uint64 { return uint64(len(t.c.rob)) * robEntryBits }

func (t robTarget) Live(bit uint64) bool {
	return t.c.rob[bit/robEntryBits].valid
}

func (t robTarget) Flip(bit uint64) {
	e := &t.c.rob[bit/robEntryBits]
	off := bit % robEntryBits
	maskTag := func(v PReg, b uint64) PReg {
		if v == NoPReg {
			// Flipping a bit of an unallocated tag latch cannot create
			// a live register reference.
			return v
		}
		n := v ^ 1<<b
		return n % PReg(t.c.cfg.NumPhysRegs)
	}
	switch {
	case off < robTagBits:
		e.pdst = maskTag(e.pdst, off)
	case off < 2*robTagBits:
		e.oldPdst = maskTag(e.oldPdst, off-robTagBits)
	case off == robStDone:
		e.done = !e.done
	case off == robStIssued:
		e.issued = !e.issued
	case off == robStPredTkn:
		e.predTaken = !e.predTaken
	}
}

// Stick applies the value once; control latches are re-written every
// allocation, so a true stuck-at on the ROB is approximated by repeated
// transient application at allocation time. For campaign purposes the
// single application models a latch upset.
func (t robTarget) Stick(bit uint64, v uint8) {
	cur := t.getBit(bit)
	if cur != (v != 0) {
		t.Flip(bit)
	}
}

func (t robTarget) getBit(bit uint64) bool {
	e := &t.c.rob[bit/robEntryBits]
	off := bit % robEntryBits
	switch {
	case off < robTagBits:
		return e.pdst>>(off)&1 == 1
	case off < 2*robTagBits:
		return e.oldPdst>>(off-robTagBits)&1 == 1
	case off == robStDone:
		return e.done
	case off == robStIssued:
		return e.issued
	default:
		return e.predTaken
	}
}

var _ core.Target = robTarget{}

// iqEntryBits is the injectable state per issue-queue slot: the ROB index
// tag the scheduler uses to find the micro-op.
const iqEntryBits = 8

// iqTarget exposes the issue queue as a fault-injection target.
type iqTarget struct{ c *CPU }

// IQTarget returns the issue-queue injection target.
func (c *CPU) IQTarget() core.Target { return iqTarget{c} }

func (t iqTarget) TargetName() string { return "iq" }

func (t iqTarget) BitLen() uint64 { return uint64(t.c.cfg.IQSize) * iqEntryBits }

func (t iqTarget) Live(bit uint64) bool {
	return int(bit/iqEntryBits) < t.c.iqN
}

func (t iqTarget) Flip(bit uint64) {
	slot := int(bit / iqEntryBits)
	if slot >= t.c.iqN {
		return // empty slot: latch flip with no architectural state
	}
	s := t.c.iqSlot(slot)
	e := &t.c.iq[s]
	e.robIdx = (e.robIdx ^ 1<<(bit%iqEntryBits)) % int32(len(t.c.rob))
	if e.stale = t.c.iqStale(e); e.stale {
		t.c.markIQStale(s)
	}
}

func (t iqTarget) Stick(bit uint64, v uint8) {
	slot := int(bit / iqEntryBits)
	if slot >= t.c.iqN {
		return
	}
	cur := t.c.iq[t.c.iqSlot(slot)].robIdx>>(bit%iqEntryBits)&1 == 1
	if cur != (v != 0) {
		t.Flip(bit)
	}
}

var _ core.Target = iqTarget{}

package cpu

import (
	"encoding/binary"

	"marvel/internal/core"
)

// PReg is a physical register index.
type PReg uint16

// NoPReg marks an unused physical register slot.
const NoPReg PReg = 0xFFFF

type prfStuck struct {
	reg  int
	mask uint64
	val  uint64
}

// PhysRegFile is the integer physical register file: values, ready bits and
// free bits. It is the paper's primary CPU injection target (Figures 4, 9,
// 15, 18). The injection space is the value storage: NumRegs × 64 bits.
type PhysRegFile struct {
	vals  []uint64
	ready []bool
	free  []bool

	stuck []prfStuck

	// obs, when armed, observes the ports: Read reads register r's
	// bytes [8r, 8r+8), Write and Free overwrite them. word holds the
	// little-endian value a read reports.
	obs  core.PortObserver
	word [8]byte
}

// NewPhysRegFile creates a PRF with n registers, all free and not ready.
func NewPhysRegFile(n int) *PhysRegFile {
	p := &PhysRegFile{
		vals:  make([]uint64, n),
		ready: make([]bool, n),
		free:  make([]bool, n),
	}
	for i := range p.free {
		p.free[i] = true
	}
	return p
}

// Len returns the number of physical registers.
func (p *PhysRegFile) Len() int { return len(p.vals) }

// Read returns the value of r: the register file's one read port.
func (p *PhysRegFile) Read(r PReg) uint64 {
	if p.obs != nil {
		p.reportRead(r)
	}
	return p.vals[r]
}

// Write sets the value of r and marks it ready; stuck-at faults are
// re-applied so they survive every write.
func (p *PhysRegFile) Write(r PReg, v uint64) {
	if p.obs != nil {
		p.reportOverwrite(r)
	}
	for _, s := range p.stuck {
		if s.reg == int(r) {
			v = v&^s.mask | s.val
		}
	}
	p.vals[r] = v
	p.ready[r] = true
}

// reportRead and reportOverwrite report to the armed observer. They stay
// out of line so that Read and Free, called for every operand and
// retirement, stay small enough to inline.
//
//go:noinline
func (p *PhysRegFile) reportRead(r PReg) {
	binary.LittleEndian.PutUint64(p.word[:], p.vals[r])
	p.obs.Read(uint64(r)*8, p.word[:])
}

//go:noinline
func (p *PhysRegFile) reportOverwrite(r PReg) { p.obs.Overwrite(uint64(r)*8, 8) }

// Ready reports whether r holds a produced value.
func (p *PhysRegFile) Ready(r PReg) bool { return p.ready[r] }

// Allocate marks r allocated and pending (not ready).
func (p *PhysRegFile) Allocate(r PReg) {
	p.free[r] = false
	p.ready[r] = false
}

// Free returns r to the free pool.
func (p *PhysRegFile) Free(r PReg) {
	if p.obs != nil {
		// A freed register can only influence the run again after being
		// re-allocated and re-written, which overwrites the fault.
		p.reportOverwrite(r)
	}
	p.free[r] = true
	p.ready[r] = false
}

// SetInitial writes a value without reporting to the observer (machine
// setup).
func (p *PhysRegFile) SetInitial(r PReg, v uint64) {
	p.vals[r] = v
	p.ready[r] = true
	p.free[r] = false
}

// ResetTo restores p to g's state without allocating, reusing p's backing
// arrays (checkpoint-fork reuse across faulty runs).
func (p *PhysRegFile) ResetTo(g *PhysRegFile) {
	copy(p.vals, g.vals)
	copy(p.ready, g.ready)
	copy(p.free, g.free)
	p.stuck = append(p.stuck[:0], g.stuck...)
	p.obs = nil
}

// Clone deep-copies the register file.
func (p *PhysRegFile) Clone() *PhysRegFile {
	n := &PhysRegFile{
		vals:  append([]uint64(nil), p.vals...),
		ready: append([]bool(nil), p.ready...),
		free:  append([]bool(nil), p.free...),
		stuck: append([]prfStuck(nil), p.stuck...),
	}
	return n
}

// --- core.Target implementation ---

// TargetName implements core.Target.
func (p *PhysRegFile) TargetName() string { return "prf" }

// BitLen implements core.Target.
func (p *PhysRegFile) BitLen() uint64 { return uint64(len(p.vals)) * 64 }

// Live implements core.Target: the register is currently allocated.
func (p *PhysRegFile) Live(bit uint64) bool { return !p.free[bit/64] }

// Flip implements core.Target.
func (p *PhysRegFile) Flip(bit uint64) {
	p.vals[bit/64] ^= 1 << (bit % 64)
}

// Stick implements core.Target.
func (p *PhysRegFile) Stick(bit uint64, v uint8) {
	s := prfStuck{reg: int(bit / 64), mask: 1 << (bit % 64)}
	if v != 0 {
		s.val = s.mask
	}
	p.stuck = append(p.stuck, s)
	p.vals[s.reg] = p.vals[s.reg]&^s.mask | s.val
}

// Observe implements core.Observable.
func (p *PhysRegFile) Observe(o core.PortObserver) { p.obs = o }

var _ core.Observable = (*PhysRegFile)(nil)

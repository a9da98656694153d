// Package accel models domain-specific accelerators in the gem5-SALAM
// style (§III-B): a compute unit that executes the accelerated algorithm's
// IR on a dynamic dataflow engine under functional-unit constraints, and a
// communications interface made of scratchpad memories (SPMs), register
// banks, memory-mapped registers (MMRs), a DMA engine and a completion
// interrupt line. SPMs and register banks are the accelerator-side fault
// injection targets of the paper (Table IV, Figures 14, 16, 17).
package accel

import (
	"fmt"

	"marvel/internal/core"
)

// BankKind distinguishes the two accelerator memory structures.
type BankKind uint8

const (
	// SPM is a fast scratchpad memory.
	SPM BankKind = iota
	// RegBank is a register bank: simpler but slower, with a delta delay
	// between a write and the data becoming readable (§IV-E).
	RegBank
)

func (k BankKind) String() string {
	if k == RegBank {
		return "RegBank"
	}
	return "SPM"
}

// BankSpec describes one accelerator memory component.
type BankSpec struct {
	Name string
	Kind BankKind
	Base uint64 // base address in the accelerator-local address space
	Size int    // bytes
}

// Bank is an instantiated SPM or register bank; it implements core.Target.
type Bank struct {
	spec BankSpec
	data []byte

	// usedBytes marks cells the design actually uses; faults outside are
	// "unused cell" masks (the paper's SPM/RegBank masking rule).
	usedBytes int

	stuck []bankStuck

	// obs, when armed, observes Read (a read port) and Write (an
	// overwrite port, where stuck bits are re-applied).
	obs core.PortObserver
}

type bankStuck struct {
	byteIdx uint64
	mask    byte
	value   byte
}

// NewBank allocates a bank.
func NewBank(spec BankSpec) *Bank {
	return &Bank{spec: spec, data: make([]byte, spec.Size), usedBytes: spec.Size}
}

// Spec returns the bank description.
func (b *Bank) Spec() BankSpec { return b.spec }

// SetUsed declares how many leading bytes the design actually touches.
func (b *Bank) SetUsed(n int) {
	if n >= 0 && n <= len(b.data) {
		b.usedBytes = n
	}
}

// Latency returns the access latency in cycles (RegBank delta delay).
func (b *Bank) Latency() int {
	if b.spec.Kind == RegBank {
		return 2
	}
	return 1
}

// Contains reports whether [addr, addr+n) falls inside the bank. It
// compares offsets, never addr+n, which wraps past 2^64 for an address
// near the top of the space (a faulted pointer, say).
func (b *Bank) Contains(addr uint64, n int) bool {
	size := uint64(len(b.data))
	return addr >= b.spec.Base && uint64(n) <= size && addr-b.spec.Base <= size-uint64(n)
}

// Read copies bytes out of the bank.
func (b *Bank) Read(addr uint64, buf []byte) error {
	if !b.Contains(addr, len(buf)) {
		return fmt.Errorf("accel: %s read at %#x out of range", b.spec.Name, addr)
	}
	off := addr - b.spec.Base
	copy(buf, b.data[off:])
	if b.obs != nil {
		// Report the bank's own bytes: handing buf to the observer
		// would move every caller's buffer to the heap.
		b.obs.Read(off, b.data[off:off+uint64(len(buf))])
	}
	return nil
}

// Write copies bytes into the bank, re-applying stuck-at faults.
func (b *Bank) Write(addr uint64, data []byte) error {
	if !b.Contains(addr, len(data)) {
		return fmt.Errorf("accel: %s write at %#x out of range", b.spec.Name, addr)
	}
	off := addr - b.spec.Base
	if b.obs != nil {
		b.obs.Overwrite(off, uint64(len(data)))
	}
	copy(b.data[off:], data)
	for _, s := range b.stuck {
		if s.byteIdx >= off && s.byteIdx < off+uint64(len(data)) {
			b.data[s.byteIdx] = b.data[s.byteIdx]&^s.mask | s.value
		}
	}
	return nil
}

// Clone deep-copies the bank; the clone starts unobserved.
func (b *Bank) Clone() *Bank {
	n := *b
	n.data = append([]byte(nil), b.data...)
	n.stuck = append([]bankStuck(nil), b.stuck...)
	n.obs = nil
	return &n
}

// ResetTo rolls the bank back to the state of its golden counterpart g
// (the bank it was cloned from), reusing the existing storage: contents
// are copied back in place and the run's stuck-at faults and observer
// are dropped. Banks must share a spec.
func (b *Bank) ResetTo(g *Bank) {
	copy(b.data, g.data)
	b.usedBytes = g.usedBytes
	b.stuck = append(b.stuck[:0], g.stuck...)
	b.obs = nil
}

// --- core.Target ---

// TargetName implements core.Target.
func (b *Bank) TargetName() string { return b.spec.Name }

// BitLen implements core.Target.
func (b *Bank) BitLen() uint64 { return uint64(len(b.data)) * 8 }

// Live implements core.Target: only cells the design uses carry state.
func (b *Bank) Live(bit uint64) bool { return bit/8 < uint64(b.usedBytes) }

// Flip implements core.Target.
func (b *Bank) Flip(bit uint64) { b.data[bit/8] ^= 1 << (bit % 8) }

// Stick implements core.Target.
func (b *Bank) Stick(bit uint64, v uint8) {
	s := bankStuck{byteIdx: bit / 8, mask: 1 << (bit % 8)}
	if v != 0 {
		s.value = s.mask
	}
	b.stuck = append(b.stuck, s)
	b.data[s.byteIdx] = b.data[s.byteIdx]&^s.mask | s.value
}

// Observe implements core.Observable.
func (b *Bank) Observe(o core.PortObserver) { b.obs = o }

var _ core.Observable = (*Bank)(nil)

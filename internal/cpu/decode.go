package cpu

import "marvel/internal/isa"

// decodeMemoEntries is the size of each core's direct-mapped decode memo.
// Over the 15 MiBench kernels at Table II it misses on under 2% of
// lookups on RV64L and ARM64L and on about 13% on X86L, whose
// image-processing loops span more code than the table maps.
const decodeMemoEntries = 256

// maxWindow bounds Arch.MaxInstLen, the width of a memo key's byte window.
const maxWindow = 16

// memoEntry caches the decode of one instruction window. The key is the
// PC and the full MaxInstLen window — never the PC alone — so bytes that
// changed under a fault (an L1I bit flip, a stuck-at cell, a store into
// code) miss and decode fresh.
type memoEntry struct {
	valid bool
	pc    uint64
	win   [maxWindow]byte
	d     isa.Decoded
}

// decodeMemo is a pure function of its keys, not architectural state: a
// core may start with any memo contents, or none, and run identically.
type decodeMemo [decodeMemoEntries]memoEntry

// decode returns Arch.Decode(pc, win), memoized per core. The result
// aliases the memo and is valid until the next decode call. win must be
// exactly MaxInstLen bytes.
func (c *CPU) decode(pc uint64, win []byte) *isa.Decoded {
	if c.memo == nil {
		c.memo = new(decodeMemo)
	}
	var key [maxWindow]byte
	copy(key[:], win)
	e := &c.memo[(pc>>c.memoShift)%decodeMemoEntries]
	if !e.valid || e.pc != pc || e.win != key {
		e.valid, e.pc, e.win = true, pc, key
		e.d = c.arch.Decode(pc, win)
	}
	return &e.d
}

// memoShift is how many low PC bits the memo index drops. Fixed 4-byte
// encodings drop their two alignment bits, so 256 consecutive
// instructions map to 256 distinct entries. Variable-length X86L drops one:
// all its encodings but nop and halt take at least two bytes, so
// neighbouring instructions still get distinct entries while one loop can
// span twice the code that byte granularity would allow.
func memoShift(arch isa.Arch) uint {
	if arch.Traits().FixedInstLen == 4 {
		return 2
	}
	return 1
}

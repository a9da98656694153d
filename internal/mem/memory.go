// Package mem models the memory system of the simulated SoC: a paged main
// memory, set-associative write-back caches with tree-PLRU replacement
// (the replacement policy gem5 documents and the paper's validation program
// warms up against), a three-level hierarchy (split L1I/L1D over a unified
// L2), and a physical-address bus with memory-mapped I/O ranges for
// accelerator registers.
//
// The cache data arrays implement core.Target, so transient and permanent
// faults land in the very bytes the pipeline fetches and loads.
package mem

import "fmt"

// AccessError reports an access outside any mapped range — architecturally
// a bus error, classified as a Crash by the fault-effect analysis.
type AccessError struct {
	Addr  uint64
	Write bool
}

func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("mem: %s fault at %#x", op, e.Addr)
}

// Page geometry. Pages are the unit of sharing between a memory and its
// clones and forks.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// page is one page's bytes. The last page of a memory whose size is not a
// multiple of pageSize is allocated whole; Contains keeps accesses off its
// tail.
type page [pageSize]byte

// CoWStats counts copy-on-write activity on a forked memory.
type CoWStats struct {
	// PagesCopied is the number of page materializations (first write to a
	// clean page since the last Reset).
	PagesCopied uint64
	// Resets is the number of dirty-page rollbacks to the golden image.
	Resets uint64
}

// Memory is the backing store for a contiguous physical range, held as a
// copy-on-write table of 4 KiB pages (see cowTable). A nil page reads as
// zeros, so a fresh memory allocates only the pages that get written.
// Clone and Fork copy only the page table and share every page buffer.
type Memory struct {
	base    uint64
	size    int
	latency int

	pages  cowTable[page]
	resets uint64
}

func newPage() *page { return new(page) }

func fillPage(dst, src *page) {
	if src != nil {
		*dst = *src
	} else {
		*dst = page{}
	}
}

// NewMemory creates size bytes of zeroed memory starting at base with the
// given access latency in cycles.
func NewMemory(base uint64, size int, latency int) *Memory {
	np := (size + pageSize - 1) / pageSize
	return &Memory{base: base, size: size, latency: latency,
		pages: newCowTable(np, newPage, fillPage)}
}

// Base returns the first mapped address.
func (m *Memory) Base() uint64 { return m.base }

// Size returns the mapped length in bytes.
func (m *Memory) Size() int { return m.size }

// Latency returns the fixed access latency in cycles.
func (m *Memory) Latency() int { return m.latency }

// Contains reports whether [addr, addr+n) is fully inside the memory.
func (m *Memory) Contains(addr uint64, n int) bool {
	return addr >= m.base && addr-m.base+uint64(n) <= uint64(m.size)
}

// Read copies len(buf) bytes from addr.
func (m *Memory) Read(addr uint64, buf []byte) error {
	if !m.Contains(addr, len(buf)) {
		return &AccessError{Addr: addr}
	}
	off := int(addr - m.base)
	for len(buf) > 0 {
		p, po := off>>pageShift, off&(pageSize-1)
		n := min(pageSize-po, len(buf))
		if pg := m.pages.bufs[p]; pg != nil {
			copy(buf[:n], pg[po:])
		} else {
			clear(buf[:n])
		}
		off += n
		buf = buf[n:]
	}
	return nil
}

// Write copies data to addr.
func (m *Memory) Write(addr uint64, data []byte) error {
	if !m.Contains(addr, len(data)) {
		return &AccessError{Addr: addr, Write: true}
	}
	off := int(addr - m.base)
	for len(data) > 0 {
		p, po := off>>pageShift, off&(pageSize-1)
		n := min(pageSize-po, len(data))
		copy(m.pages.writable(p)[po:], data[:n])
		off += n
		data = data[n:]
	}
	return nil
}

// Fork returns a copy-on-write view of the memory that Reset rolls back
// to the current image. The receiver is the frozen golden image: it must
// not be written afterwards, and Fork does not modify it, so many forks
// may be taken from one image concurrently. Each fork must be used by a
// single goroutine.
func (m *Memory) Fork() *Memory {
	return &Memory{base: m.base, size: m.size, latency: m.latency, pages: m.pages.fork()}
}

// Reset rolls a forked memory back to the golden image by restoring the
// golden page pointers of every dirty page: O(dirty pages), no allocation,
// no copying. The private buffers stay with the fork as spares. Memories
// that are not forks ignore it.
func (m *Memory) Reset() {
	if m.pages.reset() {
		m.resets++
	}
}

// CoW returns the fork's copy-on-write counters (zero for memories that
// are not forks).
func (m *Memory) CoW() CoWStats {
	return CoWStats{PagesCopied: m.pages.copies, Resets: m.resets}
}

// Clone returns an independent memory holding the current image, for
// checkpointing; it is not a fork. The clone shares every page buffer
// with the receiver, and the receiver gives up ownership of its pages so
// that it may keep running without writing a shared buffer in place.
// That is the only change to the receiver, and it writes nothing when
// the receiver owns no pages (as with every Clone result and every
// unwritten Fork), so such snapshots may be cloned concurrently.
func (m *Memory) Clone() *Memory {
	return &Memory{base: m.base, size: m.size, latency: m.latency, pages: m.pages.clone()}
}

// Handler is a device mapped on the MMIO bus.
type Handler interface {
	// MMIORead fills buf from the device register at addr.
	MMIORead(addr uint64, buf []byte) error
	// MMIOWrite stores data into the device register at addr.
	MMIOWrite(addr uint64, data []byte) error
}

type busRange struct {
	lo, hi uint64
	dev    Handler
}

// Bus routes MMIO accesses to registered device ranges.
type Bus struct {
	ranges  []busRange
	latency int
}

// NewBus creates an MMIO bus with the given fixed access latency.
func NewBus(latency int) *Bus { return &Bus{latency: latency} }

// Latency returns the bus access latency in cycles.
func (b *Bus) Latency() int { return b.latency }

// Map registers dev over [lo, hi). Overlapping ranges are rejected.
func (b *Bus) Map(lo, hi uint64, dev Handler) error {
	if hi <= lo {
		return fmt.Errorf("mem: empty MMIO range [%#x, %#x)", lo, hi)
	}
	for _, r := range b.ranges {
		if lo < r.hi && r.lo < hi {
			return fmt.Errorf("mem: MMIO range [%#x, %#x) overlaps [%#x, %#x)", lo, hi, r.lo, r.hi)
		}
	}
	b.ranges = append(b.ranges, busRange{lo, hi, dev})
	return nil
}

func (b *Bus) find(addr uint64) (Handler, bool) {
	for _, r := range b.ranges {
		if addr >= r.lo && addr < r.hi {
			return r.dev, true
		}
	}
	return nil, false
}

// Read routes an MMIO read.
func (b *Bus) Read(addr uint64, buf []byte) (int, error) {
	dev, ok := b.find(addr)
	if !ok {
		return 0, &AccessError{Addr: addr}
	}
	return b.latency, dev.MMIORead(addr, buf)
}

// Write routes an MMIO write.
func (b *Bus) Write(addr uint64, data []byte) (int, error) {
	dev, ok := b.find(addr)
	if !ok {
		return 0, &AccessError{Addr: addr, Write: true}
	}
	return b.latency, dev.MMIOWrite(addr, data)
}

package mem

import (
	"fmt"
	"unsafe"
)

// memAdapter lets a Memory serve line fills/writebacks as the lowest level.
type memAdapter struct{ m *Memory }

func (a memAdapter) readLine(addr uint64, buf []byte) (int, error) {
	return a.m.latency, a.m.Read(addr, buf)
}

func (a memAdapter) writeLine(addr uint64, data []byte) (int, error) {
	return a.m.latency, a.m.Write(addr, data)
}

// HierarchyConfig sizes the three cache levels (the paper's Table II).
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	MMIOBase     uint64 // addresses at or above bypass the caches
}

// Hierarchy is the split-L1, unified-L2 cache system over main memory and
// an MMIO bus.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	Mem          *Memory
	Bus          *Bus
	MMIOBase     uint64
}

// NewHierarchy wires L1I and L1D above a shared L2 above mem.
func NewHierarchy(cfg HierarchyConfig, memory *Memory, bus *Bus) (*Hierarchy, error) {
	if cfg.L1I.LineBytes != cfg.L2.LineBytes || cfg.L1D.LineBytes != cfg.L2.LineBytes {
		return nil, fmt.Errorf("mem: all cache levels must share one line size")
	}
	l2, err := NewCache(cfg.L2, memAdapter{memory})
	if err != nil {
		return nil, err
	}
	l1i, err := NewCache(cfg.L1I, l2)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache(cfg.L1D, l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, Mem: memory, Bus: bus, MMIOBase: cfg.MMIOBase}, nil
}

// access splits a request at line boundaries and issues it to c.
func access(c *Cache, addr uint64, buf []byte, write bool) (int, error) {
	line := uint64(c.cfg.LineBytes)
	total := 0
	for len(buf) > 0 {
		space := int(line - addr&(line-1))
		n := len(buf)
		if n > space {
			n = space
		}
		lat, err := c.Access(addr, buf[:n], write)
		if err != nil {
			return 0, err
		}
		total += lat
		addr += uint64(n)
		buf = buf[n:]
	}
	return total, nil
}

// Fetch reads instruction bytes through the L1I.
func (h *Hierarchy) Fetch(addr uint64, buf []byte) (int, error) {
	return access(h.L1I, addr, buf, false)
}

// Load reads data through the L1D, or through the MMIO bus for device
// addresses.
func (h *Hierarchy) Load(addr uint64, buf []byte) (int, error) {
	if h.MMIOBase != 0 && addr >= h.MMIOBase {
		if h.Bus == nil {
			return 0, &AccessError{Addr: addr}
		}
		return h.Bus.Read(addr, buf)
	}
	return access(h.L1D, addr, buf, false)
}

// Store writes data through the L1D, or through the MMIO bus for device
// addresses.
func (h *Hierarchy) Store(addr uint64, data []byte) (int, error) {
	if h.MMIOBase != 0 && addr >= h.MMIOBase {
		if h.Bus == nil {
			return 0, &AccessError{Addr: addr, Write: true}
		}
		return h.Bus.Write(addr, data)
	}
	return access(h.L1D, addr, data, true)
}

// ReadBack returns the coherent value of [addr, addr+len(buf)) without
// disturbing cache state or timing: per byte, the newest copy wins
// (L1D, then L2, then memory). Used to extract program output and to
// compare final memory images against the golden run.
func (h *Hierarchy) ReadBack(addr uint64, buf []byte) error {
	if err := h.Mem.Read(addr, buf); err != nil {
		return err
	}
	one := make([]byte, 1)
	for i := range buf {
		a := addr + uint64(i)
		if h.L1D.Peek(a, one) {
			buf[i] = one[0]
			continue
		}
		if h.L2.Peek(a, one) {
			buf[i] = one[0]
		}
	}
	return nil
}

// Clone returns an independent hierarchy holding the current state, for
// checkpointing: the caches and the memory share every block and page
// with the receiver until either side writes them, and the receiver gives
// up ownership of its buffers so it may keep running. The MMIO bus is
// shared (its devices are cloned by the SoC layer, which re-maps them).
func (h *Hierarchy) Clone() *Hierarchy {
	n := &Hierarchy{Mem: h.Mem.Clone(), Bus: h.Bus, MMIOBase: h.MMIOBase}
	n.L2 = h.L2.Clone(memAdapter{n.Mem})
	n.L1I = h.L1I.Clone(n.L2)
	n.L1D = h.L1D.Clone(n.L2)
	return n
}

// Fork builds the copy-on-write counterpart of Clone: main memory and
// every cache become CoW views sharing the golden pages and blocks, and
// the caches journal the sets they write, so Reset rolls the whole
// hierarchy back to the checkpoint in time proportional to what a run
// actually touched. The receiver is the golden checkpoint and must not be
// mutated afterwards; Fork does not modify it.
func (h *Hierarchy) Fork() *Hierarchy {
	n := &Hierarchy{Mem: h.Mem.Fork(), Bus: h.Bus, MMIOBase: h.MMIOBase}
	n.L2 = h.L2.Fork(memAdapter{n.Mem})
	n.L1I = h.L1I.Fork(n.L2)
	n.L1D = h.L1D.Fork(n.L2)
	return n
}

// Reset rolls a forked hierarchy back to its golden checkpoint state.
func (h *Hierarchy) Reset() {
	h.Mem.Reset()
	h.L1I.ResetToGolden()
	h.L1D.ResetToGolden()
	h.L2.ResetToGolden()
}

// ForkCounters reports cumulative CoW work done by a forked hierarchy:
// memory pages materialized and cache sets restored by resets.
func (h *Hierarchy) ForkCounters() (pagesCopied, setsRestored uint64) {
	pagesCopied = h.Mem.CoW().PagesCopied
	setsRestored = h.L1I.SetsRestored() + h.L1D.SetsRestored() + h.L2.SetsRestored()
	return
}

// CacheFootprint returns the bytes of cache blocks the hierarchies hold,
// counting a block that several of them share once: what a set of
// snapshots, such as a checkpoint ladder, costs in cache state.
func CacheFootprint(hs ...*Hierarchy) int {
	seen := map[*cacheBlock]bool{}
	n := 0
	for _, h := range hs {
		for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
			for _, b := range c.blocks.bufs {
				if b != nil && !seen[b] {
					seen[b] = true
					n += len(b.data) + len(b.lines)*int(unsafe.Sizeof(cacheLine{})) + len(b.plru)*2
				}
			}
		}
	}
	return n
}

// SetBus replaces the MMIO bus (used after cloning SoC devices).
func (h *Hierarchy) SetBus(b *Bus) { h.Bus = b }

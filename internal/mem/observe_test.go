package mem

import (
	"testing"

	"marvel/internal/core"
)

// frameByte returns the cache-wide data byte index holding addr, which
// must be cached in c.
func frameByte(t *testing.T, c *Cache, addr uint64) uint64 {
	t.Helper()
	set := c.setOf(addr)
	blk, base := c.block(set)
	if blk == nil {
		t.Fatalf("%s: %#x not cached", c.cfg.Name, addr)
	}
	way, hit := c.lookup(blk, base, c.tagOf(addr))
	if !hit {
		t.Fatalf("%s: %#x not cached", c.cfg.Name, addr)
	}
	return uint64((set*c.cfg.Ways+way)*c.cfg.LineBytes) + addr&uint64(c.cfg.LineBytes-1)
}

// seen fails unless every bit of the data byte at is refuted for the
// stuck value opposite to the one read there (val): the port that read
// it reported the read.
func seen(t *testing.T, port string, s *core.ReadSummary, at uint64, val byte) {
	t.Helper()
	for b := uint64(0); b < 8; b++ {
		v := val >> b & 1
		if s.Unobserved(at*8+b, 1-v) {
			t.Errorf("%s: stuck-at-%d on bit %d, read as %d, is pruned", port, 1-v, b, v)
		}
	}
}

// unseen fails unless both stuck values of every bit of the byte at are
// pruned: nothing read it.
func unseen(t *testing.T, what string, s *core.ReadSummary, at uint64) {
	t.Helper()
	for b := uint64(0); b < 8; b++ {
		if !s.Unobserved(at*8+b, 0) || !s.Unobserved(at*8+b, 1) {
			t.Errorf("%s: bit %d was never read but is not pruned", what, b)
		}
	}
}

// TestPortCompleteness is the cache half of the port-completeness guard
// of exact stuck-at pruning: for every read port in turn, a byte that
// only that port reads must be refuted by the summary, and a byte nothing
// reads (never cached, or only overwritten) must stay pruned.
func TestPortCompleteness(t *testing.T) {
	arm := func(c *Cache) *core.ReadSummary {
		s := core.NewReadSummary(c.BitLen())
		c.Observe(s)
		return s
	}

	t.Run("load hit", func(t *testing.T) {
		h := testHier(t)
		if _, err := h.Store(0x100, []byte{0xA5, 0x0F}); err != nil {
			t.Fatal(err)
		}
		s := arm(h.L1D)
		if _, err := h.Load(0x100, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		seen(t, "load hit", s, frameByte(t, h.L1D, 0x100), 0xA5)
		unseen(t, "the next byte of the line", s, frameByte(t, h.L1D, 0x101))
	})

	t.Run("fetch", func(t *testing.T) {
		h := testHier(t)
		if err := h.Mem.Write(0x300, []byte{0x5A}); err != nil {
			t.Fatal(err)
		}
		s := arm(h.L1I)
		if _, err := h.Fetch(0x300, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		seen(t, "fetch", s, frameByte(t, h.L1I, 0x300), 0x5A)
	})

	t.Run("upper-level refill", func(t *testing.T) {
		h := testHier(t)
		if err := h.Mem.Write(0x340, []byte{0xC3}); err != nil {
			t.Fatal(err)
		}
		s := arm(h.L2)
		// The L1D miss reads the whole line out of the L2.
		if _, err := h.Load(0x37F, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		seen(t, "refill read of the L2", s, frameByte(t, h.L2, 0x340), 0xC3)
	})

	t.Run("dirty writeback", func(t *testing.T) {
		h := testHier(t)
		if _, err := h.Store(0x405, []byte{0x96}); err != nil {
			t.Fatal(err)
		}
		at := frameByte(t, h.L1D, 0x405)
		s := arm(h.L1D)
		// Four more lines of the same set evict the dirty one; the loads
		// read offset 0 of their lines, never offset 5.
		for k := uint64(1); k <= 4; k++ {
			if _, err := h.Load(0x400+k*1024, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if h.L1D.Stats.Writebacks != 1 {
			t.Fatalf("%d writebacks, want 1", h.L1D.Stats.Writebacks)
		}
		seen(t, "dirty writeback", s, at, 0x96)
	})

	t.Run("ReadBack from the L1D", func(t *testing.T) {
		h := testHier(t)
		if _, err := h.Store(0x500, []byte{0x69}); err != nil {
			t.Fatal(err)
		}
		s := arm(h.L1D)
		if err := h.ReadBack(0x500, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		seen(t, "ReadBack (L1D Peek)", s, frameByte(t, h.L1D, 0x500), 0x69)
	})

	t.Run("ReadBack from the L2", func(t *testing.T) {
		h := testHier(t)
		if err := h.Mem.Write(0x600, []byte{0x3E}); err != nil {
			t.Fatal(err)
		}
		// Cache the line in the L1I and the L2 only.
		if _, err := h.Fetch(0x600, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		s := arm(h.L2)
		if err := h.ReadBack(0x600, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		seen(t, "ReadBack (L2 Peek)", s, frameByte(t, h.L2, 0x600), 0x3E)
	})

	t.Run("never read", func(t *testing.T) {
		h := testHier(t)
		s := arm(h.L1D)
		// A store overwrites its bytes and reads nothing.
		if _, err := h.Store(0x700, []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
		unseen(t, "an overwritten byte", s, frameByte(t, h.L1D, 0x700))
		unseen(t, "a frame never filled", s, h.L1D.BitLen()/8-1)
	})
}

package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"marvel/internal/core"
)

func testHier(t *testing.T) *Hierarchy {
	t.Helper()
	m := NewMemory(0, 1<<20, 80)
	cfg := HierarchyConfig{
		L1I: CacheConfig{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L1D: CacheConfig{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L2:  CacheConfig{Name: "l2", SizeBytes: 1 << 15, LineBytes: 64, Ways: 8, HitLat: 12},
	}
	h, err := NewHierarchy(cfg, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(0x1000, 64, 1)
	buf := make([]byte, 8)
	if err := m.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(0x0FFF, buf); err == nil {
		t.Error("read below base should fault")
	}
	if err := m.Read(0x1039, buf); err == nil {
		t.Error("read past end should fault")
	}
	if err := m.Write(0x1038, buf); err != nil {
		t.Errorf("write at last slot should succeed: %v", err)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Ways: 4},
		{Name: "b", SizeBytes: 4096, LineBytes: 48, Ways: 4},
		{Name: "c", SizeBytes: 4096, LineBytes: 64, Ways: 3},
		{Name: "d", SizeBytes: 4096, LineBytes: 64, Ways: 32},
		{Name: "e", SizeBytes: 5000, LineBytes: 64, Ways: 4},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be rejected", cfg.Name)
		}
	}
	good := CacheConfig{Name: "g", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestReadWriteThroughHierarchy(t *testing.T) {
	h := testHier(t)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := h.Store(0x100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := h.Load(0x100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v want %v", got, data)
	}
}

func TestMissThenHitLatency(t *testing.T) {
	h := testHier(t)
	buf := make([]byte, 8)
	lat1, err := h.Load(0x200, buf)
	if err != nil {
		t.Fatal(err)
	}
	lat2, err := h.Load(0x208, buf)
	if err != nil {
		t.Fatal(err)
	}
	if lat1 <= lat2 {
		t.Errorf("miss latency %d should exceed hit latency %d", lat1, lat2)
	}
	if lat2 != h.L1D.Config().HitLat {
		t.Errorf("hit latency %d, want %d", lat2, h.L1D.Config().HitLat)
	}
	if h.L1D.Stats.Misses != 1 || h.L1D.Stats.Hits != 1 {
		t.Errorf("stats %+v", h.L1D.Stats)
	}
}

func TestLineCrossingAccess(t *testing.T) {
	h := testHier(t)
	data := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	if _, err := h.Store(0x3C, data); err != nil { // crosses the 0x40 boundary
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := h.Load(0x3C, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v want %v", got, data)
	}
}

func TestWritebackReachesMemory(t *testing.T) {
	h := testHier(t)
	// Dirty one line, then touch enough lines mapping to the same set to
	// force eviction through L1 and L2.
	if _, err := h.Store(0x40, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	l1Span := uint64(h.L1D.Config().SizeBytes)
	l2Span := uint64(h.L2.Config().SizeBytes)
	for i := uint64(1); i <= 16; i++ {
		if _, err := h.Load(0x40+i*l1Span, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Load(0x40+i*l2Span, buf); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 1)
	if err := h.ReadBack(0x40, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA {
		t.Fatalf("coherent view lost the store: %#x", got[0])
	}
}

func TestReadBackPrefersNewest(t *testing.T) {
	h := testHier(t)
	if _, err := h.Store(0x500, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := h.ReadBack(0x500, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("ReadBack = %d, want 1 (dirty L1D)", got[0])
	}
	var zero [1]byte
	if err := h.Mem.Read(0x500, zero[:]); err != nil {
		t.Fatal(err)
	}
	if zero[0] != 0 {
		t.Fatal("store should still be dirty in cache, not memory")
	}
}

func TestPLRUVictimRotation(t *testing.T) {
	// Touch all 4 ways of one set, then verify the victim is the least
	// recently touched way rather than a fixed one.
	h := testHier(t)
	c := h.L1D
	span := uint64(c.Config().SizeBytes) // same set, different tags
	buf := make([]byte, 1)
	for i := uint64(0); i < 4; i++ {
		if _, err := h.Load(i*span, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Re-touch way 0 so way 1 becomes the PLRU victim.
	if _, err := h.Load(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Load(4*span, buf); err != nil {
		t.Fatal(err)
	}
	// Address 0 (way 0) must still hit.
	h.L1D.Stats = CacheStats{}
	if _, err := h.Load(0, buf); err != nil {
		t.Fatal(err)
	}
	if h.L1D.Stats.Hits != 1 {
		t.Errorf("recently used way was evicted; stats %+v", h.L1D.Stats)
	}
}

func TestCacheTargetFlip(t *testing.T) {
	h := testHier(t)
	if _, err := h.Store(0x0, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	// Find the bit coordinate of address 0 byte 0: set 0, some way.
	c := h.L1D
	var target uint64 = ^uint64(0)
	probe := make([]byte, 1)
	for bit := uint64(0); bit < c.BitLen(); bit += uint64(c.Config().LineBytes) * 8 * uint64(1) {
		_ = bit
		break
	}
	// Locate via Peek after flipping each candidate way's first byte.
	for w := 0; w < c.Config().Ways; w++ {
		bit := uint64(w*c.Config().LineBytes) * 8
		c.Flip(bit)
		if c.Peek(0, probe) && probe[0] == 0x01 {
			target = bit
			c.Flip(bit) // restore
			break
		}
		c.Flip(bit)
	}
	if target == ^uint64(0) {
		t.Fatal("could not locate cached byte in data array")
	}
	c.Flip(target)
	got := make([]byte, 1)
	if _, err := h.Load(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x01 {
		t.Fatalf("flip not visible to load: %#x", got[0])
	}
	if !c.Live(target) {
		t.Error("bit in valid line should be Live")
	}
}

func TestCacheStuckAtSurvivesRewrite(t *testing.T) {
	h := testHier(t)
	c := h.L1D
	if _, err := h.Store(0x0, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	// Stick bit 0 of every way's first byte so the line is pinned to 1
	// wherever it lands.
	for w := 0; w < c.Config().Ways; w++ {
		c.Stick(uint64(w*c.Config().LineBytes)*8, 1)
	}
	got := make([]byte, 1)
	if _, err := h.Load(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0]&1 != 1 {
		t.Fatal("stuck-at-1 not applied")
	}
	if _, err := h.Store(0x0, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Load(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0]&1 != 1 {
		t.Fatal("stuck-at-1 must survive a rewrite")
	}
}

func TestCacheWatchLifecycle(t *testing.T) {
	h := testHier(t)
	c := h.L1D
	if _, err := h.Store(0x0, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	// Find the frame byte of address 0.
	var frame uint64 = ^uint64(0)
	probe := make([]byte, 1)
	for w := 0; w < c.Config().Ways; w++ {
		bit := uint64(w*c.Config().LineBytes) * 8
		c.Flip(bit)
		if c.Peek(0, probe) && probe[0] != 0xFF {
			frame = bit
			c.Flip(bit)
			break
		}
		c.Flip(bit)
	}
	if frame == ^uint64(0) {
		t.Fatal("frame not found")
	}

	w := core.NewWatch(frame)
	c.Observe(w)
	if w.State() != core.WatchPending {
		t.Fatal("watch should start pending")
	}
	buf := make([]byte, 1)
	if _, err := h.Load(0, buf); err != nil {
		t.Fatal(err)
	}
	if w.State() != core.WatchRead {
		t.Fatalf("watch after read = %v, want read", w.State())
	}

	w = core.NewWatch(frame)
	c.Observe(w)
	if _, err := h.Store(0, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	if w.State() != core.WatchDead {
		t.Fatalf("watch after overwrite = %v, want dead", w.State())
	}
}

func TestCloneIndependence(t *testing.T) {
	h := testHier(t)
	if _, err := h.Store(0x40, []byte{7}); err != nil {
		t.Fatal(err)
	}
	c := h.Clone()
	if _, err := h.Store(0x40, []byte{9}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := c.ReadBack(0x40, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("clone saw later store: %d", got[0])
	}
}

func TestBusRouting(t *testing.T) {
	b := NewBus(4)
	dev := &stubDev{}
	if err := b.Map(0x8000_0000, 0x8000_1000, dev); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(0x8000_0800, 0x8000_2000, &stubDev{}); err == nil {
		t.Error("overlapping map should fail")
	}
	buf := []byte{0xAB}
	if _, err := b.Write(0x8000_0010, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if _, err := b.Read(0x8000_0010, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatalf("bus read %#x", got[0])
	}
	if _, err := b.Read(0x9000_0000, got); err == nil {
		t.Error("unmapped read should fault")
	}
}

type stubDev struct{ regs [4096]byte }

func (s *stubDev) MMIORead(addr uint64, buf []byte) error {
	copy(buf, s.regs[addr&0xFFF:])
	return nil
}

func (s *stubDev) MMIOWrite(addr uint64, data []byte) error {
	copy(s.regs[addr&0xFFF:], data)
	return nil
}

func TestHierarchyMMIOBypass(t *testing.T) {
	m := NewMemory(0, 1<<16, 80)
	bus := NewBus(4)
	dev := &stubDev{}
	if err := bus.Map(0x8000_0000, 0x8000_1000, dev); err != nil {
		t.Fatal(err)
	}
	cfg := HierarchyConfig{
		L1I:      CacheConfig{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L1D:      CacheConfig{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L2:       CacheConfig{Name: "l2", SizeBytes: 1 << 15, LineBytes: 64, Ways: 8, HitLat: 12},
		MMIOBase: 0x8000_0000,
	}
	h, err := NewHierarchy(cfg, m, bus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Store(0x8000_0000, []byte{0x55}); err != nil {
		t.Fatal(err)
	}
	if dev.regs[0] != 0x55 {
		t.Fatal("MMIO store did not reach device")
	}
	got := make([]byte, 1)
	if _, err := h.Load(0x8000_0000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x55 {
		t.Fatal("MMIO load wrong")
	}
	if h.L1D.Stats.Hits+h.L1D.Stats.Misses != 0 {
		t.Error("MMIO access must bypass the data cache")
	}
}

// Property: a random sequence of stores followed by ReadBack matches a
// shadow model, regardless of eviction pattern.
func TestHierarchyMatchesShadowModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := testHier(t)
		shadow := make([]byte, 1<<16)
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(len(shadow) - 8))
			var data [8]byte
			rng.Read(data[:])
			n := 1 << rng.Intn(4)
			if rng.Intn(2) == 0 {
				if _, err := h.Store(addr, data[:n]); err != nil {
					return false
				}
				copy(shadow[addr:], data[:n])
			} else {
				buf := make([]byte, n)
				if _, err := h.Load(addr, buf); err != nil {
					return false
				}
				if !bytes.Equal(buf, shadow[addr:addr+uint64(n)]) {
					return false
				}
			}
		}
		buf := make([]byte, len(shadow))
		if err := h.ReadBack(0, buf); err != nil {
			return false
		}
		return bytes.Equal(buf, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateMasks(t *testing.T) {
	sp := core.MaskSpace{
		Targets: []core.Structure{{Name: "l1d", Bits: 1 << 18}}, Model: core.Transient,
		WindowLo: 10, WindowHi: 1000,
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m := sp.Mask(42, i)
		f := m.Faults[0]
		if len(m.Faults) != 1 || f.Bit >= 1<<18 || f.Cycle < 10 || f.Cycle >= 1000 {
			t.Fatalf("mask out of range: %+v", m)
		}
		// Determinism.
		if again := sp.Mask(42, i); again.Faults[0] != f {
			t.Fatal("generation is not deterministic")
		}
	}
}

func TestSampleSize(t *testing.T) {
	// ~1,000 faults should correspond to ~3% margin at 95% confidence for
	// a large structure (the paper's §III-D claim).
	n := core.SampleSize(32*1024*8, 0.03, 1.96)
	if n < 900 || n > 1200 {
		t.Errorf("SampleSize = %d, want ≈1000-1100", n)
	}
	m := core.MarginFor(32*1024*8, 1000, 1.96)
	if m < 0.025 || m > 0.035 {
		t.Errorf("MarginFor(1000) = %f, want ≈0.03", m)
	}
}

// --- Copy-on-write fork/reset tests ---

func TestMemoryForkSharesGoldenReads(t *testing.T) {
	m := NewMemory(0x1000, 4*pageSize, 1)
	pattern := make([]byte, 4*pageSize)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	if err := m.Write(0x1000, pattern); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	got := make([]byte, len(pattern))
	if err := f.Read(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatal("fork read differs from golden image")
	}
	if f.CoW().PagesCopied != 0 {
		t.Fatalf("pure reads materialized %d pages", f.CoW().PagesCopied)
	}
}

func TestMemoryForkWriteMaterializesAndIsolates(t *testing.T) {
	m := NewMemory(0, 2*pageSize, 1)
	f := m.Fork()
	if err := f.Write(10, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if got := f.CoW().PagesCopied; got != 1 {
		t.Fatalf("one-page write materialized %d pages", got)
	}
	buf := make([]byte, 2)
	if err := f.Read(10, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatalf("fork read-back %x", buf)
	}
	// The golden memory must be untouched.
	if err := m.Read(10, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("write leaked into golden image: %x", buf)
	}
}

func TestMemoryForkPageSpanningAccess(t *testing.T) {
	m := NewMemory(0, 3*pageSize, 1)
	f := m.Fork()
	// A write straddling the page-1/page-2 boundary must land in both pages.
	span := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	addr := uint64(2*pageSize - 4)
	if err := f.Write(addr, span); err != nil {
		t.Fatal(err)
	}
	if got := f.CoW().PagesCopied; got != 2 {
		t.Fatalf("boundary write materialized %d pages, want 2", got)
	}
	got := make([]byte, len(span))
	if err := f.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatalf("boundary read-back %x, want %x", got, span)
	}
}

func TestMemoryForkResetRestoresGoldenView(t *testing.T) {
	m := NewMemory(0, 2*pageSize, 1)
	if err := m.Write(100, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	if err := f.Write(100, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	f.Reset()
	buf := make([]byte, 1)
	if err := f.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("post-reset read %#x, want golden 0x11", buf[0])
	}
	// Re-dirtying the same page after a reset reuses the retained buffer:
	// PagesCopied grows (a fresh golden copy is taken) but no new slice is
	// allocated — verified indirectly by the stale value not leaking.
	if err := f.Write(101, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("rematerialized page kept stale byte: %#x", buf[0])
	}
	st := f.CoW()
	if st.Resets != 1 || st.PagesCopied != 2 {
		t.Fatalf("stats %+v, want 1 reset / 2 materializations", st)
	}
}

func TestMemoryCloneOfForkFlattens(t *testing.T) {
	m := NewMemory(0, 2*pageSize, 1)
	if err := m.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	if err := f.Write(pageSize, []byte{9}); err != nil {
		t.Fatal(err)
	}
	c := f.Clone()
	buf := make([]byte, 3)
	if err := c.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("clone lost golden bytes: %x", buf)
	}
	one := make([]byte, 1)
	if err := c.Read(pageSize, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != 9 {
		t.Fatalf("clone lost dirty-page byte: %#x", one[0])
	}
	// The clone is flat and independent: writes don't reach fork or golden.
	if err := c.Write(0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(0, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != 1 {
		t.Fatalf("clone write leaked into fork: %#x", one[0])
	}
}

func TestCacheForkResetToGolden(t *testing.T) {
	golden := testHier(t)
	// Warm the golden hierarchy with a recognizable pattern.
	for i := 0; i < 64; i++ {
		if _, err := golden.Store(uint64(i*64), []byte{byte(i), byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	ref := golden.Clone()

	f := golden.Fork()
	// Mutate broadly through the fork: stores, a bit flip, a stuck-at.
	for i := 0; i < 64; i++ {
		if _, err := f.Store(uint64(i*64), []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
	}
	f.L1D.Flip(123)
	f.L1D.Stick(4567, 1)
	w := core.NewWatch(123)
	f.L1D.Observe(w)
	f.Reset()

	// After reset the fork must be indistinguishable from the checkpoint.
	for i := 0; i < 64; i++ {
		want := make([]byte, 2)
		got := make([]byte, 2)
		if err := ref.ReadBack(uint64(i*64), want); err != nil {
			t.Fatal(err)
		}
		if err := f.ReadBack(uint64(i*64), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d after reset: %x, want %x", i, got, want)
		}
	}
	if f.L1D.Stats != golden.L1D.Stats {
		t.Fatalf("stats not restored: %+v vs %+v", f.L1D.Stats, golden.L1D.Stats)
	}
	// Read every line the L1D holds: an armed observer would see the
	// watched frame read.
	for i := 0; i < 64; i++ {
		if _, err := f.Load(uint64(i*64), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if w.State() != core.WatchPending {
		t.Fatal("observer survived reset")
	}
	if _, sets := f.ForkCounters(); sets == 0 {
		t.Fatal("reset restored no cache sets despite mutations")
	}
}

func TestForkedHierarchyMatchesCloneUnderTraffic(t *testing.T) {
	// Drive a clone and a fork with an identical random access stream; every
	// load and every latency must agree, and after Reset the fork must
	// reproduce the same stream again from the checkpoint.
	golden := testHier(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(1 << 16))
		if _, err := golden.Store(addr, []byte{byte(rng.Int())}); err != nil {
			t.Fatal(err)
		}
	}

	type op struct {
		addr  uint64
		write bool
		val   byte
	}
	ops := make([]op, 500)
	for i := range ops {
		ops[i] = op{addr: uint64(rng.Intn(1 << 16)), write: rng.Intn(2) == 0, val: byte(rng.Int())}
	}
	run := func(h *Hierarchy) ([]byte, []int) {
		vals := make([]byte, 0, len(ops))
		lats := make([]int, 0, len(ops))
		for _, o := range ops {
			buf := []byte{o.val}
			var lat int
			var err error
			if o.write {
				lat, err = h.Store(o.addr, buf)
			} else {
				lat, err = h.Load(o.addr, buf)
				vals = append(vals, buf[0])
			}
			if err != nil {
				t.Fatal(err)
			}
			lats = append(lats, lat)
		}
		return vals, lats
	}

	c := golden.Clone()
	f := golden.Fork()
	cv, cl := run(c)
	fv, fl := run(f)
	if !bytes.Equal(cv, fv) {
		t.Fatal("fork load values diverge from clone")
	}
	for i := range cl {
		if cl[i] != fl[i] {
			t.Fatalf("op %d latency: clone %d fork %d", i, cl[i], fl[i])
		}
	}
	f.Reset()
	fv2, fl2 := run(f)
	if !bytes.Equal(cv, fv2) {
		t.Fatal("post-reset fork replay diverges")
	}
	for i := range cl {
		if cl[i] != fl2[i] {
			t.Fatalf("post-reset op %d latency: clone %d fork %d", i, cl[i], fl2[i])
		}
	}
}

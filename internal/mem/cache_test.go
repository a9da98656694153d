package mem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"marvel/internal/core"
)

// refCache is a flat reference model of one cache over a flat memory
// image: every array is a plain slice and clone deep-copies it, so the
// model shares nothing and FuzzCachePaging can check the block-sharing
// cache against it.
type refCache struct {
	cfg   CacheConfig
	sets  int
	tags  []uint64
	valid []bool
	dirty []bool
	plru  []uint16
	data  []byte
	stats CacheStats
	stuck []stuckBit

	watchArmed bool
	watchByte  uint64
	watch      core.WatchState

	mem    []byte
	memLat int
	// written journals the sets written since the last reset of a fork.
	written map[int]bool
}

func newRefCache(cfg CacheConfig, memSize, memLat int) *refCache {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	n := sets * cfg.Ways
	return &refCache{
		cfg: cfg, sets: sets,
		tags: make([]uint64, n), valid: make([]bool, n), dirty: make([]bool, n),
		plru: make([]uint16, sets), data: make([]byte, cfg.SizeBytes),
		mem: make([]byte, memSize), memLat: memLat, written: map[int]bool{},
	}
}

func (r *refCache) clone() *refCache {
	n := *r
	n.tags = append([]uint64(nil), r.tags...)
	n.valid = append([]bool(nil), r.valid...)
	n.dirty = append([]bool(nil), r.dirty...)
	n.plru = append([]uint16(nil), r.plru...)
	n.data = bytes.Clone(r.data)
	n.stuck = append([]stuckBit(nil), r.stuck...)
	n.mem = bytes.Clone(r.mem)
	n.written = map[int]bool{}
	// Clones, forks and resets start unobserved.
	n.watchArmed, n.watch = false, core.WatchPending
	return &n
}

func (r *refCache) watchHit(lo, n uint64, to core.WatchState) {
	if r.watchArmed && r.watch == core.WatchPending && r.watchByte >= lo && r.watchByte < lo+n {
		r.watch = to
	}
}

func (r *refCache) stick(sb stuckBit) {
	r.written[int(sb.byteIdx)/r.cfg.LineBytes/r.cfg.Ways] = true
	r.data[sb.byteIdx] = r.data[sb.byteIdx]&^sb.mask | sb.value
}

func (r *refCache) applyStuck(line int) {
	lo := uint64(line * r.cfg.LineBytes)
	for _, sb := range r.stuck {
		if sb.byteIdx >= lo && sb.byteIdx < lo+uint64(r.cfg.LineBytes) {
			r.stick(sb)
		}
	}
}

// access mirrors Cache.Access for an in-line request.
func (r *refCache) access(addr uint64, buf []byte, write bool) int {
	lb := uint64(r.cfg.LineBytes)
	set := int(addr / lb % uint64(r.sets))
	tag := addr / lb / uint64(r.sets)
	r.written[set] = true
	lat := r.cfg.HitLat
	way := -1
	for w := 0; w < r.cfg.Ways; w++ {
		if i := set*r.cfg.Ways + w; r.valid[i] && r.tags[i] == tag {
			way = w
			break
		}
	}
	if way >= 0 {
		r.stats.Hits++
	} else {
		r.stats.Misses++
		for w := r.cfg.Ways - 1; w >= 0; w-- {
			if !r.valid[set*r.cfg.Ways+w] {
				way = w
			}
		}
		if way < 0 {
			way = plruVictim(r.plru[set], r.cfg.Ways)
			i := set*r.cfg.Ways + way
			if r.dirty[i] {
				r.watchHit(uint64(i)*lb, lb, core.WatchRead)
				victim := (r.tags[i]*uint64(r.sets) + uint64(set)) * lb
				copy(r.mem[victim:victim+lb], r.data[uint64(i)*lb:])
				r.stats.Writebacks++
			} else {
				r.watchHit(uint64(i)*lb, lb, core.WatchDead)
			}
		}
		i := set*r.cfg.Ways + way
		line := addr &^ (lb - 1)
		copy(r.data[uint64(i)*lb:uint64(i+1)*lb], r.mem[line:])
		lat += r.memLat
		r.watchHit(uint64(i)*lb, lb, core.WatchDead)
		r.tags[i], r.valid[i], r.dirty[i] = tag, true, false
		r.applyStuck(i)
	}
	r.plru[set] = plruTouch(r.plru[set], way, r.cfg.Ways)
	i := set*r.cfg.Ways + way
	off := uint64(i)*lb + addr&(lb-1)
	if write {
		r.watchHit(off, uint64(len(buf)), core.WatchDead)
		copy(r.data[off:], buf)
		r.dirty[i] = true
		r.applyStuck(i)
	} else {
		r.watchHit(off, uint64(len(buf)), core.WatchRead)
		copy(buf, r.data[off:])
	}
	return lat
}

// cacheView is one cache under FuzzCachePaging with its own lower memory
// and reference model. A fork also keeps the model Reset restores.
type cacheView struct {
	c      *Cache
	m      *Memory
	model  *refCache
	golden *refCache   // nil unless c is a fork
	frozen bool        // forked from: must not be written or reset again
	watch  *core.Watch // the last watch armed on c, nil if none
}

// checkCacheView compares every line, PLRU word, data byte, counter and
// the watchpoint of v with its model, and v's memory with the model's.
func checkCacheView(t *testing.T, i int, v *cacheView, memBuf, line []byte) {
	t.Helper()
	r, c := v.model, v.c
	ways, lb := c.cfg.Ways, c.cfg.LineBytes
	for set := 0; set < c.sets; set++ {
		blk, base := c.block(set)
		var plru uint16
		if blk != nil {
			plru = *c.plru(blk, set)
		}
		if plru != r.plru[set] {
			t.Fatalf("view %d set %d: PLRU %#x, model %#x", i, set, plru, r.plru[set])
		}
		for w := 0; w < ways; w++ {
			j := set*ways + w
			var l cacheLine
			clear(line)
			if blk != nil {
				l = blk.lines[base+w]
				copy(line, c.lineData(blk, base+w))
			}
			if want := (cacheLine{tag: r.tags[j], valid: r.valid[j], dirty: r.dirty[j]}); l != want {
				t.Fatalf("view %d line %d: %+v, model %+v", i, j, l, want)
			}
			if !bytes.Equal(line, r.data[j*lb:(j+1)*lb]) {
				t.Fatalf("view %d line %d: data differs from the model", i, j)
			}
		}
	}
	if c.Stats != r.stats {
		t.Fatalf("view %d: stats %+v, model %+v", i, c.Stats, r.stats)
	}
	if v.watch != nil && v.watch.State() != r.watch {
		t.Fatalf("view %d: watch state %v, model %v", i, v.watch.State(), r.watch)
	}
	if err := v.m.Read(0, memBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBuf, r.mem) {
		t.Fatalf("view %d: memory differs from the model", i)
	}
}

// FuzzCachePaging drives random sequences of Access (read and write, hit,
// miss and eviction), Flip, Stick, Watch, Clone, Fork and ResetToGolden
// over a small cache of two blocks above a memory, and after every
// operation checks every live view against a flat deep-copying reference
// cache: a write to one view never shows in another, forked-from views
// stay frozen, and a reset restores exactly the state the fork was taken
// from. It is the independent oracle for the block sharing that Clone and
// Fork now both use.
func FuzzCachePaging(f *testing.F) {
	cfg := CacheConfig{Name: "c", SizeBytes: 8 << 10, LineBytes: 1 << 10, Ways: 2, HitLat: 2}
	const (
		memSize  = 16 << 10 // four lines per set compete for two ways
		memLat   = 7
		maxViews = 8
		maxOps   = 64 // every op checks every view, so long inputs only slow the fuzzer
		opBytes  = 5
	)
	// Op: kind, view, two address or bit bytes, one size or value byte.
	// Set s holds addresses with bits 10-11 equal to s, and sets 0-1 and
	// 2-3 fill blocks 0 and 1.
	f.Add([]byte{
		1, 0, 0x00, 0x10, 0xaa, // the root writes set 0: it owns block 0
		5, 0, 0, 0, 0, // clone the running root
		1, 0, 0x00, 0x10, 0xbb, // the root writes the block it now shares
	})
	f.Add([]byte{
		0, 0, 0x00, 0x00, 4, // read miss: set 0 way 0
		0, 0, 0x10, 0x00, 4, // read miss: set 0 way 1
		5, 0, 0, 0, 0, // clone the running root
		0, 0, 0x00, 0x00, 4, // read hit: only the PLRU word changes
	})
	f.Add([]byte{
		6, 0, 0, 0, 0, // fork the untouched root
		1, 1, 0x00, 0x20, 0x11, // the fork writes block 0 (set 0)
		1, 1, 0x08, 0x20, 0x22, // and block 1 (set 2)
		7, 1, 0, 0, 0, // reset the fork
		0, 1, 0x08, 0x00, 8, // read both blocks back
		0, 1, 0x00, 0x00, 8,
	})
	f.Add([]byte{
		6, 0, 0, 0, 0, // fork the untouched root
		1, 1, 0x04, 0x00, 0x33, // the fork materializes block 0 (set 1)
		7, 1, 0, 0, 0, // reset the fork: block 0 is nil again
		0, 1, 0x00, 0x40, 8, // re-dirty block 0 into the spare (set 0)
		0, 1, 0x04, 0x00, 8, // set 1 must miss again
	})
	f.Add([]byte{
		1, 0, 0x00, 0x10, 0xaa, // dirty line in set 0
		4, 0, 0x00, 0x80, 0, // watch a bit of that line
		3, 0, 0x00, 0x81, 1, // stick a neighbouring bit at 1
		6, 0, 0, 0, 0, // fork
		2, 1, 0x00, 0x82, 0, // flip a bit in the fork
		1, 1, 0x10, 0x10, 0x01, // evict set 0 way 1 with a write
		1, 1, 0x20, 0x10, 0x02, // and way 0: the dirty watched line escapes
		7, 1, 0, 0, 0, // reset
		5, 1, 0, 0, 0, // clone the fork
		1, 2, 0x00, 0x10, 0x55, // rewrite the stuck line in the clone
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), maxOps*opBytes)]
		m := NewMemory(0, memSize, memLat)
		c, err := NewCache(cfg, memAdapter{m})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.blocks.bufs) < 2 {
			t.Fatalf("fuzzed cache has %d blocks, want >= 2", len(c.blocks.bufs))
		}
		views := []*cacheView{{c: c, m: m, model: newRefCache(cfg, memSize, memLat)}}
		memBuf := make([]byte, memSize)
		buf, line := make([]byte, cfg.LineBytes), make([]byte, cfg.LineBytes)
		for len(ops) >= opBytes {
			op := ops[:opBytes]
			ops = ops[opBytes:]
			v := views[int(op[1])%len(views)]
			x := uint64(op[2])<<8 | uint64(op[3])
			switch op[0] % 8 {
			case 0, 1: // Access
				if v.frozen { // even a read moves PLRU, stats and lines
					continue
				}
				write := op[0]%8 == 1
				addr := x % memSize
				n := min(1+int(op[4]%16), cfg.LineBytes-int(addr%uint64(cfg.LineBytes)))
				for k := range buf[:n] {
					buf[k] = op[4] + byte(k)
				}
				want := bytes.Clone(buf[:n])
				lat, err := v.c.Access(addr, buf[:n], write)
				if err != nil {
					t.Fatal(err)
				}
				if wantLat := v.model.access(addr, want, write); lat != wantLat {
					t.Fatalf("Access(%#x, %d, %v) latency %d, model %d", addr, n, write, lat, wantLat)
				}
				if !bytes.Equal(buf[:n], want) {
					t.Fatalf("Access(%#x, %d) read %x, model %x", addr, n, buf[:n], want)
				}
			case 2: // Flip
				if v.frozen {
					continue
				}
				bit := x % v.c.BitLen()
				v.c.Flip(bit)
				v.model.written[int(bit/8)/cfg.LineBytes/cfg.Ways] = true
				v.model.data[bit/8] ^= 1 << (bit % 8)
			case 3: // Stick
				if v.frozen {
					continue
				}
				bit := x % v.c.BitLen()
				v.c.Stick(bit, op[4]&1)
				sb := stuckBit{byteIdx: bit / 8, mask: 1 << (bit % 8)}
				if op[4]&1 != 0 {
					sb.value = sb.mask
				}
				v.model.stuck = append(v.model.stuck, sb)
				v.model.stick(sb)
			case 4: // Watch
				if v.frozen {
					continue
				}
				bit := x % v.c.BitLen()
				v.watch = core.NewWatch(bit)
				v.c.Observe(v.watch)
				v.model.watchArmed, v.model.watchByte, v.model.watch = true, bit/8, core.WatchPending
			case 5: // Clone
				if len(views) < maxViews {
					nm := v.m.Clone()
					views = append(views, &cacheView{c: v.c.Clone(memAdapter{nm}), m: nm, model: v.model.clone()})
				}
			case 6: // Fork
				if len(views) < maxViews {
					v.frozen = true
					nm := v.m.Fork()
					views = append(views, &cacheView{c: v.c.Fork(memAdapter{nm}), m: nm,
						model: v.model.clone(), golden: v.model.clone()})
				}
			case 7: // ResetToGolden
				if v.frozen {
					continue
				}
				restored := v.c.SetsRestored()
				v.m.Reset()
				v.c.ResetToGolden()
				if v.golden == nil {
					if got := v.c.SetsRestored(); got != 0 {
						t.Fatalf("reset of a cache that is not a fork restored %d sets", got)
					}
					continue
				}
				if got, want := v.c.SetsRestored()-restored, uint64(len(v.model.written)); got != want {
					t.Fatalf("reset restored %d sets, model journaled %d", got, want)
				}
				// The reset cache drops its observer: the last watch
				// keeps the state it had.
				watch := v.model.watch
				v.model = v.golden.clone()
				v.model.watch = watch
			}
			for i, w := range views {
				checkCacheView(t, i, w, memBuf, line)
			}
		}
	})
}

// tableIIHierarchy builds the paper's Table II caches (32 KB L1I and L1D,
// 1 MB L2, 64 B lines) over a 4 MiB memory.
func tableIIHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		L1I: CacheConfig{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLat: 2},
		L1D: CacheConfig{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLat: 2},
		L2:  CacheConfig{Name: "l2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 8, HitLat: 12},
	}, NewMemory(0, 4<<20, 80), nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCacheCloneForkAllocBound guards the block-shared caches: cloning or
// forking a Table II hierarchy with a few touched sets copies block and
// page tables, never the 1.2 MB of cache state.
func TestCacheCloneForkAllocBound(t *testing.T) {
	const bound = 64 << 10
	h := tableIIHierarchy(t)
	for _, a := range []uint64{0, 64 << 10, 1 << 20, 3 << 20} {
		if _, err := h.Store(a, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Fetch(a+4096, make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
	}
	f := h.Fork()
	for _, a := range []uint64{8, 2 << 20} {
		if _, err := f.Store(a, []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		op   func() *Hierarchy
	}{
		{"Clone", h.Clone},
		{"Fork", h.Fork},
		{"Fork of a fork", f.Fork},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := c.op()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(out)
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Errorf("%s of a Table II hierarchy with a few touched sets allocated %d bytes, want < %d", c.name, got, bound)
		}
	}
}

// TestHierarchySnapshotSharedAcrossGoroutines forks, clones, accesses and
// resets one hierarchy snapshot from several goroutines while the
// hierarchy it was cloned from keeps running; under the race detector it
// shows that no cache or memory writes a block or page another can see.
func TestHierarchySnapshotSharedAcrossGoroutines(t *testing.T) {
	const span, workers = 64 << 10, 4
	running := testHier(t)
	pattern := make([]byte, span)
	for i := range pattern {
		pattern[i] = byte(i * 13)
	}
	for a := 0; a < span; a += 64 {
		if _, err := running.Store(uint64(a), pattern[a:a+64]); err != nil {
			t.Fatal(err)
		}
	}
	snap := running.Clone()
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			if _, err := running.Store(uint64(i*97%span), []byte{0xff, 0xfe}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			f, c := snap.Fork(), snap.Clone()
			got := make([]byte, span)
			for i := 0; i < 40; i++ {
				a := uint64((w*1031 + i*331) % (span - 1))
				if _, err := f.Store(a, []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Store(a, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				f.L1D.Flip(uint64(i*8191) % f.L1D.BitLen())
				f.Reset()
				if err := f.ReadBack(0, got); err != nil || !bytes.Equal(got, pattern) {
					t.Errorf("worker %d: reset fork differs from the snapshot (err %v)", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := make([]byte, span)
	if err := snap.ReadBack(0, got); err != nil || !bytes.Equal(got, pattern) {
		t.Fatalf("snapshot changed while shared (err %v)", err)
	}
}

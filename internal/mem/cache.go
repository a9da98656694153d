package mem

import (
	"fmt"

	"marvel/internal/core"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	HitLat    int // access latency on hit, cycles
}

// Validate checks the geometry is a usable power-of-two configuration.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: cache %q has non-positive geometry", c.Name)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets*c.LineBytes*c.Ways != c.SizeBytes {
		return fmt.Errorf("mem: cache %q size %d not divisible by way*line", c.Name, c.SizeBytes)
	}
	if sets&(sets-1) != 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q sets/line size must be powers of two", c.Name)
	}
	if c.Ways&(c.Ways-1) != 0 || c.Ways > 16 {
		return fmt.Errorf("mem: cache %q ways must be a power of two <= 16", c.Name)
	}
	return nil
}

// CacheStats counts cache events for performance reporting.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// level abstracts the next-lower element of the hierarchy (another cache or
// a memory adapter). Addresses passed down are line-aligned.
type level interface {
	readLine(addr uint64, buf []byte) (int, error)
	writeLine(addr uint64, data []byte) (int, error)
}

type stuckBit struct {
	byteIdx uint64
	mask    byte
	value   byte // 0 or the mask bit set
}

// blockBytes is the line data a cache block holds, unless one set is
// larger: a block always holds whole sets.
const blockBytes = 4 << 10

// cacheLine is one line's tag state.
type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
}

// cacheBlock holds the state of a run of consecutive whole sets: the
// tags, valid and dirty bits of their lines, their PLRU words and their
// line data. Blocks are the unit a cache shares with its clones and forks
// (see cowTable); an all-zero block, which a nil entry reads as, is the
// state of a freshly built cache: all lines invalid, PLRU and data zero.
type cacheBlock struct {
	lines []cacheLine
	plru  []uint16
	data  []byte
}

func fillBlock(dst, src *cacheBlock) {
	if src != nil {
		copy(dst.lines, src.lines)
		copy(dst.plru, src.plru)
		copy(dst.data, src.data)
	} else {
		clear(dst.lines)
		clear(dst.plru)
		clear(dst.data)
	}
}

// Cache is a set-associative write-back, write-allocate cache with
// tree-PLRU replacement. Its data array is a fault-injection target.
//
// The per-set state lives in a copy-on-write table of blocks of whole
// sets (see cowTable), so a new cache allocates only the blocks a run
// touches, and Clone and Fork copy only the block table. Lines and data
// bytes are numbered cache-wide in set order (line set*ways+way, byte
// line*LineBytes+offset): the numbering of fault bits, stuck bits and the
// observer's offsets. Block b holds lines [b*blockLines, (b+1)*blockLines).
type Cache struct {
	cfg       CacheConfig
	sets      int
	lineShift uint
	tagShift  uint // lineShift + log2(sets)
	setMask   uint64

	blockShift uint // a set's block is set >> blockShift
	blockLines int  // lines per block
	blocks     cowTable[cacheBlock]

	lower level
	Stats CacheStats

	stuck []stuckBit

	// obs, when armed, observes the data array's ports (see Observe).
	obs core.PortObserver

	// Fork support: golden points at the frozen checkpoint cache this one
	// was forked from; setDirty/dirtySets journal the sets written since
	// the last ResetToGolden, which counts them.
	golden       *Cache
	setDirty     []bool
	dirtySets    []int
	setsRestored uint64
}

// NewCache builds a cache over the given lower level.
func NewCache(cfg CacheConfig, lower level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	var shift, setShift uint
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	for 1<<setShift != sets {
		setShift++
	}
	blockSets := min(sets, max(1, blockBytes/(cfg.LineBytes*cfg.Ways)))
	var blockShift uint
	for 1<<blockShift != blockSets {
		blockShift++
	}
	lines := blockSets * cfg.Ways
	alloc := func() *cacheBlock {
		return &cacheBlock{
			lines: make([]cacheLine, lines),
			plru:  make([]uint16, blockSets),
			data:  make([]byte, lines*cfg.LineBytes),
		}
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		lineShift:  shift,
		tagShift:   shift + setShift,
		setMask:    uint64(sets - 1),
		blockShift: blockShift,
		blockLines: lines,
		blocks:     newCowTable(sets/blockSets, alloc, fillBlock),
		lower:      lower,
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) setOf(addr uint64) int { return int(addr >> c.lineShift & c.setMask) }
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) << c.lineShift
}

// block returns the block holding set and the block-local index of the
// set's first line; the block is nil while it reads as fresh.
func (c *Cache) block(set int) (*cacheBlock, int) {
	return c.blocks.bufs[set>>c.blockShift], set * c.cfg.Ways & (c.blockLines - 1)
}

// writeSet journals a write to set and returns its block, owned by this
// cache, and the block-local index of the set's first line.
func (c *Cache) writeSet(set int) (*cacheBlock, int) {
	c.markSet(set)
	return c.blocks.writable(set >> c.blockShift), set * c.cfg.Ways & (c.blockLines - 1)
}

// plru returns set's PLRU word in blk, the block holding set.
func (c *Cache) plru(blk *cacheBlock, set int) *uint16 {
	return &blk.plru[set&(1<<c.blockShift-1)]
}

// lineData returns the data of the block-local line l.
func (c *Cache) lineData(blk *cacheBlock, l int) []byte {
	off := l * c.cfg.LineBytes
	return blk.data[off : off+c.cfg.LineBytes]
}

// plruTouch returns the PLRU word bits with way marked most-recently used.
func plruTouch(bits uint16, way, ways int) uint16 {
	node, lo, hi := 1, 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits |= 1 << node
			node, hi = node*2, mid
		} else {
			bits &^= 1 << node
			node, lo = node*2+1, mid
		}
	}
	return bits
}

// plruVictim returns the way the PLRU word bits points at.
func plruVictim(bits uint16, ways int) int {
	node, lo, hi := 1, 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits>>node&1 == 1 {
			node, lo = node*2+1, mid
		} else {
			node, hi = node*2, mid
		}
	}
	return lo
}

// lookup finds the way of the set whose first line is blk's line base
// that holds tag, if present.
func (c *Cache) lookup(blk *cacheBlock, base int, tag uint64) (way int, hit bool) {
	lines := blk.lines[base : base+c.cfg.Ways]
	for w := range lines {
		if lines[w].valid && lines[w].tag == tag {
			return w, true
		}
	}
	return -1, false
}

// fill brings addr's line into set, evicting (and writing back) a victim
// if needed, and returns the allocated way plus the added latency. blk
// and base are writeSet's results for set.
func (c *Cache) fill(blk *cacheBlock, base, set int, addr uint64) (int, int, error) {
	ways := c.cfg.Ways
	lines := blk.lines[base : base+ways]
	way := -1
	for w := range lines {
		if !lines[w].valid {
			way = w
			break
		}
	}
	lat := 0
	if way < 0 {
		way = plruVictim(*c.plru(blk, set), ways)
		at := uint64((set*ways + way) * c.cfg.LineBytes)
		if lines[way].dirty {
			victimAddr := c.lineAddr(set, lines[way].tag)
			// The writeback reads the whole victim line: a faulty dirty
			// line escaping to the lower level can still influence the
			// outcome.
			data := c.lineData(blk, base+way)
			if c.obs != nil {
				c.obs.Read(at, data)
			}
			if _, err := c.lower.writeLine(victimAddr, data); err != nil {
				return 0, 0, err
			}
			c.Stats.Writebacks++
		} else if c.obs != nil {
			c.obs.Overwrite(at, uint64(c.cfg.LineBytes))
		}
	}
	i := set*ways + way
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	low, err := c.lower.readLine(lineAddr, c.lineData(blk, base+way))
	if err != nil {
		return 0, 0, err
	}
	lat += low
	if c.obs != nil {
		// The refill overwrites whatever the frame held.
		c.obs.Overwrite(uint64(i*c.cfg.LineBytes), uint64(c.cfg.LineBytes))
	}
	lines[way] = cacheLine{tag: c.tagOf(addr), valid: true}
	c.applyStuck(i)
	return way, lat, nil
}

// Access performs a read or write of [addr, addr+len(buf)) which must lie
// within a single cache line. It returns the access latency.
func (c *Cache) Access(addr uint64, buf []byte, write bool) (int, error) {
	lineOff := int(addr & uint64(c.cfg.LineBytes-1))
	if lineOff+len(buf) > c.cfg.LineBytes {
		return 0, fmt.Errorf("mem: cache %s access at %#x size %d crosses a line", c.cfg.Name, addr, len(buf))
	}
	// writeSet, by hand: Access is the simulator's hottest call.
	set := c.setOf(addr)
	c.markSet(set)
	blk := c.blocks.writable(set >> c.blockShift)
	base := set * c.cfg.Ways & (c.blockLines - 1)
	way, hit := c.lookup(blk, base, c.tagOf(addr))
	lat := c.cfg.HitLat
	if hit {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
		var extra int
		var err error
		way, extra, err = c.fill(blk, base, set, addr)
		if err != nil {
			return 0, err
		}
		lat += extra
	}
	p := c.plru(blk, set)
	*p = plruTouch(*p, way, c.cfg.Ways)
	i := set*c.cfg.Ways + way
	off := (base+way)*c.cfg.LineBytes + lineOff
	at := uint64(i*c.cfg.LineBytes + lineOff)
	if write {
		if c.obs != nil {
			c.obs.Overwrite(at, uint64(len(buf)))
		}
		copy(blk.data[off:], buf)
		blk.lines[base+way].dirty = true
		c.applyStuck(i)
	} else {
		copy(buf, blk.data[off:])
		if c.obs != nil {
			// Report the cache's own bytes: handing buf to the observer
			// would move every caller's buffer to the heap.
			c.obs.Read(at, blk.data[off:off+len(buf)])
		}
	}
	return lat, nil
}

// readLine implements level for an upper cache: a full-line read.
func (c *Cache) readLine(addr uint64, buf []byte) (int, error) {
	return c.Access(addr, buf, false)
}

// writeLine implements level for an upper cache: a full-line writeback.
func (c *Cache) writeLine(addr uint64, data []byte) (int, error) {
	return c.Access(addr, data, true)
}

// Peek reads bytes without affecting state or timing; ok is false when the
// line is absent. It is a read port all the same: ReadBack extracts
// program output through it.
func (c *Cache) Peek(addr uint64, buf []byte) bool {
	set := c.setOf(addr)
	blk, base := c.block(set)
	if blk == nil {
		return false
	}
	way, hit := c.lookup(blk, base, c.tagOf(addr))
	if !hit {
		return false
	}
	lineOff := int(addr & uint64(c.cfg.LineBytes-1))
	off := (base+way)*c.cfg.LineBytes + lineOff
	n := copy(buf, blk.data[off:])
	if c.obs != nil {
		c.obs.Read(uint64((set*c.cfg.Ways+way)*c.cfg.LineBytes+lineOff), blk.data[off:off+n])
	}
	return true
}

// Clone returns an independent cache holding the current state, for
// checkpointing; the caller re-links lower. The clone shares every block
// with the receiver, and the receiver gives up ownership of its blocks,
// so that it may keep running without writing a shared block in place
// (see cowTable.clone). The clone is a standalone cache: fork journaling
// and the observer do not carry over.
func (c *Cache) Clone(lower level) *Cache {
	n := *c
	n.blocks = c.blocks.clone()
	n.stuck = append([]stuckBit(nil), c.stuck...)
	n.lower = lower
	n.obs = nil
	n.golden = nil
	n.setDirty = nil
	n.dirtySets = nil
	n.setsRestored = 0
	return &n
}

// Fork returns a copy-on-write view of the cache that shares every block
// with c and remembers c as the golden checkpoint. It journals every set
// the fork writes, and ResetToGolden rolls the fork back in time
// proportional to the blocks it wrote rather than the cache size. Fork
// does not modify c, so many forks may be taken from one checkpoint
// concurrently; the golden cache must not be mutated afterwards.
func (c *Cache) Fork(lower level) *Cache {
	n := *c
	n.blocks = c.blocks.fork()
	n.stuck = append([]stuckBit(nil), c.stuck...)
	n.lower = lower
	n.obs = nil
	n.golden = c
	n.setDirty = make([]bool, c.sets)
	n.dirtySets = make([]int, 0, 64)
	n.setsRestored = 0
	return &n
}

// markSet journals a set mutation on a forked cache.
func (c *Cache) markSet(set int) {
	if c.setDirty != nil && !c.setDirty[set] {
		c.setDirty[set] = true
		c.dirtySets = append(c.dirtySets, set)
	}
}

// ResetToGolden restores a forked cache to its golden checkpoint state:
// the blocks of the journaled sets get their golden block pointers back
// (no copying; the fork keeps its private buffers as spares), and stats
// and fault state (stuck bits, observer) are reset wholesale.
func (c *Cache) ResetToGolden() {
	g := c.golden
	if g == nil {
		return
	}
	for _, set := range c.dirtySets {
		c.setDirty[set] = false
	}
	c.setsRestored += uint64(len(c.dirtySets))
	c.dirtySets = c.dirtySets[:0]
	c.blocks.reset()
	c.Stats = g.Stats
	c.stuck = append(c.stuck[:0], g.stuck...)
	c.obs = nil
}

// SetsRestored returns the cumulative number of journaled sets
// ResetToGolden has rolled back on this fork.
func (c *Cache) SetsRestored() uint64 { return c.setsRestored }

// --- core.Target implementation (data array bits) ---

// TargetName implements core.Target.
func (c *Cache) TargetName() string { return c.cfg.Name }

// BitLen implements core.Target: all data-array bits.
func (c *Cache) BitLen() uint64 { return uint64(c.cfg.SizeBytes) * 8 }

// Live implements core.Target: the line holding the bit is valid.
func (c *Cache) Live(bit uint64) bool {
	line := int(bit / 8 / uint64(c.cfg.LineBytes))
	blk := c.blocks.bufs[line/c.blockLines]
	return blk != nil && blk.lines[line&(c.blockLines-1)].valid
}

// writeByte journals a write to the cache-wide data byte at and returns
// the data of its block, owned by this cache, and the byte's index in it.
func (c *Cache) writeByte(at uint64) ([]byte, int) {
	line := int(at / uint64(c.cfg.LineBytes))
	blk, _ := c.writeSet(line / c.cfg.Ways)
	return blk.data, int(at) & (c.blockLines*c.cfg.LineBytes - 1)
}

// Flip implements core.Target.
func (c *Cache) Flip(bit uint64) {
	data, j := c.writeByte(bit / 8)
	data[j] ^= 1 << (bit % 8)
}

// Stick implements core.Target: the bit is forced to v from now on.
func (c *Cache) Stick(bit uint64, v uint8) {
	sb := stuckBit{byteIdx: bit / 8, mask: 1 << (bit % 8)}
	if v != 0 {
		sb.value = sb.mask
	}
	c.stuck = append(c.stuck, sb)
	c.applyStuckByte(sb)
}

func (c *Cache) applyStuck(lineIdx int) {
	if len(c.stuck) == 0 {
		return
	}
	lo := uint64(lineIdx * c.cfg.LineBytes)
	hi := lo + uint64(c.cfg.LineBytes)
	for _, sb := range c.stuck {
		if sb.byteIdx >= lo && sb.byteIdx < hi {
			c.applyStuckByte(sb)
		}
	}
}

func (c *Cache) applyStuckByte(sb stuckBit) {
	data, j := c.writeByte(sb.byteIdx)
	data[j] = data[j]&^sb.mask | sb.value
}

// Observe implements core.Observable. The read ports are Access reads
// (loads, fetches and upper-level refills), dirty-victim writebacks and
// Peek; the overwrite ports are Access writes, clean-victim evictions and
// refills. A stuck bit is re-applied at every write, so the cache has no
// lazy enforcement port.
func (c *Cache) Observe(o core.PortObserver) { c.obs = o }

var _ core.Observable = (*Cache)(nil)

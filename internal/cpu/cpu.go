// Package cpu implements the cycle-level out-of-order core used for every
// ISA in marvel: an 8-issue pipeline with fetch through an L1 instruction
// cache, decode of raw (possibly fault-corrupted) instruction bytes,
// register renaming over a physical register file, out-of-order issue with
// functional-unit constraints, a load queue with store-to-load forwarding,
// a store queue that writes the data cache at commit, bimodal branch
// prediction with ROB-walk mispredict recovery, and precise exceptions at
// commit.
//
// The microarchitectural storage structures — physical register file, load
// queue, store queue, and the caches of internal/mem — implement
// core.Target, so faults are injected into the same state the pipeline
// reads, and masking emerges from real mechanisms: dead registers, squashed
// wrong-path work, overwritten lines and forwarded stores.
package cpu

import (
	"fmt"

	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/obs"
)

// Config parameterizes the core. DefaultConfig reproduces the paper's
// Table II.
type Config struct {
	Width      int // superscalar width: decode/rename/issue/commit
	FetchBytes int // max instruction bytes fetched per cycle

	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	NumPhysRegs int // integer physical register file size

	IntALUs  int
	MulUnits int
	DivUnits int
	MemPorts int

	MulLat int
	DivLat int

	BimodalSize int // branch predictor entries (power of two)

	DeadlockCycles uint64 // commit-stall watchdog
}

// DefaultConfig returns the Table II configuration: a 64-bit 8-issue OoO
// core with 128 integer physical registers and 32/32/64/128 LQ/SQ/IQ/ROB
// entries.
func DefaultConfig() Config {
	return Config{
		Width:          8,
		FetchBytes:     32,
		ROBSize:        128,
		IQSize:         64,
		LQSize:         32,
		SQSize:         32,
		NumPhysRegs:    128,
		IntALUs:        4,
		MulUnits:       2,
		DivUnits:       1,
		MemPorts:       2,
		MulLat:         3,
		DivLat:         12,
		BimodalSize:    4096,
		DeadlockCycles: 20000,
	}
}

// Validate rejects configurations the pipeline cannot run.
func (c Config) Validate(arch isa.Arch) error {
	if c.Width <= 0 || c.ROBSize <= 0 || c.IQSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 {
		return fmt.Errorf("cpu: non-positive pipeline structure size")
	}
	if c.NumPhysRegs < arch.NumRegs()+8 {
		return fmt.Errorf("cpu: %d physical registers cannot rename %d architectural registers",
			c.NumPhysRegs, arch.NumRegs())
	}
	if c.FetchBytes < arch.MaxInstLen() {
		return fmt.Errorf("cpu: fetch width %d below max instruction length %d",
			c.FetchBytes, arch.MaxInstLen())
	}
	if arch.MaxInstLen() > maxWindow {
		return fmt.Errorf("cpu: max instruction length %d exceeds the %d-byte decode window",
			arch.MaxInstLen(), maxWindow)
	}
	if c.BimodalSize&(c.BimodalSize-1) != 0 {
		return fmt.Errorf("cpu: bimodal size must be a power of two")
	}
	return nil
}

// CommitRec describes one committed micro-op, consumed by the HVF trace
// comparator: any mismatch against the fault-free trace is an architectural
// corruption (the paper's Figure 3(a) flow).
type CommitRec struct {
	PC      uint64
	Kind    isa.Kind
	Dst     isa.Reg
	Result  uint64
	MemAddr uint64
	MemData uint64
	Last    bool
}

// Stats counts pipeline events.
type Stats struct {
	Cycles       uint64
	Insts        uint64 // committed instructions
	Uops         uint64 // committed micro-ops
	Branches     uint64
	Mispredicts  uint64
	Squashes     uint64
	LoadsExec    uint64
	StoresCommit uint64
	Forwards     uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

type robEntry struct {
	valid bool
	idx   int // position in the ROB ring (stable)
	seq   uint64
	uop   isa.MicroOp

	ps1, ps2, ps3, psp PReg
	pdst, oldPdst      PReg

	issued bool
	done   bool

	trapCode TrapCode
	trapAddr uint64

	predTaken bool
	nullified bool // predicated-false memory op
	lqSlot    int
	sqSlot    int

	result  uint64
	memAddr uint64
	memData uint64
}

// iqEntry is one issue-queue entry, stored at the ROB slot its micro-op
// was renamed into. It carries copies of everything issue needs, so the
// scheduler never reads the ROB for a waiting entry: the source tags (no
// ROB fault touches them, so the copies stay exact), the functional-unit
// class, and stale, which always equals
// !rob[robIdx].valid || rob[robIdx].seq != seq. robIdx is the injectable
// tag; it equals the entry's own slot until a fault flips it.
type iqEntry struct {
	seq    uint64
	src    [4]PReg // ps1, ps2, ps3, psp
	robIdx int32
	fu     fuClass
	stale  bool
}

// fuClass is the functional-unit pool a micro-op issues to.
type fuClass uint8

const (
	fuALU fuClass = iota
	fuMul
	fuDiv
	fuMem
	numFUClasses
)

func fuClassOf(k isa.Kind) fuClass {
	switch k {
	case isa.KindMul:
		return fuMul
	case isa.KindDiv:
		return fuDiv
	case isa.KindLoad, isa.KindStore:
		return fuMem
	}
	return fuALU
}

type event struct {
	cycle  uint64
	robIdx int
	seq    uint64
	value  uint64
	isLoad bool // value comes from the LQ entry at completion time
}

type fqUop struct {
	uop       isa.MicroOp
	predTaken bool
}

// CPU is one out-of-order core attached to a memory hierarchy.
type CPU struct {
	cfg    Config
	arch   isa.Arch
	traits isa.Traits
	hier   *mem.Hierarchy

	cycle uint64
	seq   uint64

	// Front end. fbuf holds the fetched, not yet decoded bytes; it is a
	// window into the core's own fstore, which fetch compacts and never
	// reallocates. memo caches decode results by (PC, byte window).
	fetchPC        uint64
	fetchBusyUntil uint64
	fetchFault     bool
	fbuf           []byte
	fstore         []byte
	fbufPC         uint64
	memo           *decodeMemo
	memoShift      uint

	// uq is the micro-op queue between decode and rename: a ring of
	// uqLen micro-ops starting at uqHead. Its capacity bounds what fetch
	// can queue, Width*4 plus one instruction's micro-ops.
	uq     []fqUop
	uqHead int
	uqLen  int

	// ldst stages load and store data for the memory hierarchy; a stack
	// buffer would escape through the MMIO Bus interface.
	ldst [8]byte

	bimodal []uint8

	// Rename state.
	rmap     []PReg
	freeList []PReg
	prf      *PhysRegFile

	// Windows.
	rob      []robEntry
	robHead  int
	robCount int
	lq, sq   *LSQ

	// The issue queue. Entries live in iq at their ROB slot; the bitmasks
	// over ROB slots hold the queue's members (iqMem), the members issue
	// must visit (iqCand: possibly ready, or stale), and, per physical
	// register, the members waiting for it to be written (iqWait, one
	// len(iqMem)-word mask per register). Members in age order are the
	// ROB order from robHead, which is the IQ order the iq fault target
	// indexes. iqN counts the members.
	iq     []iqEntry
	iqMem  []uint64
	iqCand []uint64
	iqWait []uint64
	iqN    int

	events []event

	// Execution status.
	halted          bool
	trap            *Trap
	waiting         bool // stalled in WFI
	irq             bool
	lastCommitCycle uint64

	// MagicHook observes simulator directives (checkpoint, switch-cpu).
	MagicHook func(sel int64, cycle uint64)
	// CommitHook observes every committed micro-op (HVF tracing).
	CommitHook func(CommitRec)
	// Trace receives fault-lifecycle events (squashes, store-forwards)
	// when non-nil. Like the hooks, it is not copied by Clone/ResetTo.
	Trace obs.Tracer

	Stats Stats
}

// New builds a core. Call Boot before stepping.
func New(arch isa.Arch, cfg Config, hier *mem.Hierarchy) (*CPU, error) {
	if err := cfg.Validate(arch); err != nil {
		return nil, err
	}
	// Every queue is allocated at its bound, so the tick loop never
	// grows a slice.
	c := &CPU{
		cfg:       cfg,
		arch:      arch,
		traits:    arch.Traits(),
		hier:      hier,
		fstore:    make([]byte, arch.MaxInstLen()+cfg.FetchBytes),
		uq:        make([]fqUop, cfg.Width*4+isa.MaxUops),
		memoShift: memoShift(arch),
		bimodal:   make([]uint8, cfg.BimodalSize),
		rmap:      make([]PReg, arch.NumRegs()),
		freeList:  make([]PReg, 0, cfg.NumPhysRegs),
		prf:       NewPhysRegFile(cfg.NumPhysRegs),
		rob:       make([]robEntry, cfg.ROBSize),
		iq:        make([]iqEntry, cfg.ROBSize),
		iqMem:     make([]uint64, (cfg.ROBSize+63)/64),
		iqCand:    make([]uint64, (cfg.ROBSize+63)/64),
		iqWait:    make([]uint64, (cfg.ROBSize+63)/64*cfg.NumPhysRegs),
		lq:        NewLSQ("lq", cfg.LQSize),
		sq:        NewLSQ("sq", cfg.SQSize),
		events:    make([]event, 0, cfg.ROBSize),
	}
	c.fbuf = c.fstore[:0]
	return c, nil
}

// Boot resets architectural state: every architectural register maps to a
// zeroed physical register, the stack pointer register gets sp, and fetch
// starts at entry.
func (c *CPU) Boot(entry, sp uint64, spReg isa.Reg) {
	n := c.arch.NumRegs()
	c.freeList = c.freeList[:0]
	for i := 0; i < n; i++ {
		c.rmap[i] = PReg(i)
		c.prf.SetInitial(PReg(i), 0)
	}
	for i := n; i < c.cfg.NumPhysRegs; i++ {
		c.prf.Free(PReg(i))
		c.freeList = append(c.freeList, PReg(i))
	}
	if spReg != isa.NoReg {
		c.prf.SetInitial(c.rmap[spReg], sp)
	}
	c.fetchPC = entry
	c.fbuf = c.fstore[:0]
	c.uqHead, c.uqLen = 0, 0
	c.robHead, c.robCount = 0, 0
	clear(c.iqMem)
	clear(c.iqCand)
	clear(c.iqWait)
	c.iqN = 0
	c.lq.reset()
	c.sq.reset()
	c.events = c.events[:0]
	c.halted = false
	c.trap = nil
	c.waiting = false
	c.lastCommitCycle = 0
}

// Cycle returns the current cycle number.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Halted reports whether the program executed its halt instruction.
func (c *CPU) Halted() bool { return c.halted }

// Trap returns the exception that terminated execution, if any.
func (c *CPU) Trap() *Trap { return c.trap }

// Done reports whether execution ended (halt or trap).
func (c *CPU) Done() bool { return c.halted || c.trap != nil }

// Waiting reports whether the core is sleeping in WFI.
func (c *CPU) Waiting() bool { return c.waiting }

// SetIRQ drives the external interrupt line (from the GIC or PLIC model).
func (c *CPU) SetIRQ(v bool) { c.irq = v }

// Arch returns the core's instruction set.
func (c *CPU) Arch() isa.Arch { return c.arch }

// Hier returns the attached memory hierarchy.
func (c *CPU) Hier() *mem.Hierarchy { return c.hier }

// PRF returns the physical register file injection target.
func (c *CPU) PRF() *PhysRegFile { return c.prf }

// LQ returns the load queue injection target.
func (c *CPU) LQ() *LSQ { return c.lq }

// SQ returns the store queue injection target.
func (c *CPU) SQ() *LSQ { return c.sq }

// ResetTo restores every scalar and storage field of c to g's state while
// keeping c's hierarchy attachment and reusing c's slice backing arrays —
// the cheap per-fault reset of checkpoint forking. c keeps its own decode
// memo: the memo is not architectural state, and sharing g's would race
// with other cores reset from g. Hooks are cleared; the new run installs
// its own. g must be a frozen checkpoint core with the same configuration.
func (c *CPU) ResetTo(g *CPU) {
	hier, memo := c.hier, c.memo
	fstore, uq, bimodal := c.fstore, c.uq, c.bimodal
	rmap, freeList := c.rmap, c.freeList
	prf, rob, iq := c.prf, c.rob, c.iq
	iqMem, iqCand, iqWait := c.iqMem, c.iqCand, c.iqWait
	lq, sq, events := c.lq, c.sq, c.events

	// Struct copy picks up every scalar (cycle, seq, fetch state, halt,
	// trap, stats, ...) so new fields stay covered by construction; the
	// slice and pointer fields are then re-pointed at c's own storage.
	*c = *g
	c.hier, c.memo = hier, memo
	c.fstore = fstore
	c.fbuf = fstore[:copy(fstore, g.fbuf)]
	c.uq = uq
	c.copyUQ(g)
	c.bimodal = bimodal
	copy(c.bimodal, g.bimodal)
	c.rmap = rmap
	copy(c.rmap, g.rmap)
	c.freeList = append(freeList[:0], g.freeList...)
	c.prf = prf
	c.prf.ResetTo(g.prf)
	c.rob = rob
	copy(c.rob, g.rob)
	c.iq = iq
	copy(c.iq, g.iq)
	c.iqMem, c.iqCand, c.iqWait = iqMem, iqCand, iqWait
	copy(c.iqMem, g.iqMem)
	copy(c.iqCand, g.iqCand)
	copy(c.iqWait, g.iqWait)
	c.lq = lq
	c.lq.ResetTo(g.lq)
	c.sq = sq
	c.sq.ResetTo(g.sq)
	c.events = append(events[:0], g.events...)
	c.MagicHook = nil
	c.CommitHook = nil
	c.Trace = nil
}

// Clone deep-copies the core onto an already-cloned hierarchy. The copy
// starts with an empty decode memo, so a checkpoint that is never stepped
// costs no memo heap. Hooks are not copied; the new owner installs its own.
func (c *CPU) Clone(hier *mem.Hierarchy) *CPU {
	n := *c
	n.hier = hier
	n.memo = nil
	n.fstore = make([]byte, len(c.fstore))
	n.fbuf = n.fstore[:copy(n.fstore, c.fbuf)]
	n.uq = make([]fqUop, len(c.uq))
	n.copyUQ(c)
	n.bimodal = cloneSlice(c.bimodal)
	n.rmap = cloneSlice(c.rmap)
	n.freeList = cloneSlice(c.freeList)
	n.prf = c.prf.Clone()
	n.rob = cloneSlice(c.rob)
	n.iq = cloneSlice(c.iq)
	n.iqMem = cloneSlice(c.iqMem)
	n.iqCand = cloneSlice(c.iqCand)
	n.iqWait = cloneSlice(c.iqWait)
	n.lq = c.lq.Clone()
	n.sq = c.sq.Clone()
	n.events = cloneSlice(c.events)
	n.MagicHook = nil
	n.CommitHook = nil
	n.Trace = nil
	return &n
}

// copyUQ copies g's queued micro-ops into c's own ring, oldest first at
// slot 0; the ring's rotation is not state.
func (c *CPU) copyUQ(g *CPU) {
	n := copy(c.uq, g.uq[g.uqHead:min(g.uqHead+g.uqLen, len(g.uq))])
	copy(c.uq[n:g.uqLen], g.uq)
	c.uqHead, c.uqLen = 0, g.uqLen
}

// cloneSlice copies s into a new backing array of the same capacity, so
// the clone's queues stay at their bounds and never grow.
func cloneSlice[T any](s []T) []T { return append(make([]T, 0, cap(s)), s...) }

package accel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"marvel/internal/program/ir"
)

// FUConfig constrains the compute unit's parallelism — the design-space
// exploration knob of Figure 17.
type FUConfig struct {
	Adders      int // single-cycle integer units (add/logic/compare/select)
	Multipliers int
	Dividers    int
	MemPorts    int // concurrent SPM/RegBank accesses per cycle
}

// DefaultFUs is a mid-size datapath: accelerators trade silicon for
// parallel ports and units, which is where their speed advantage over the
// general-purpose core comes from.
func DefaultFUs() FUConfig {
	return FUConfig{Adders: 8, Multipliers: 4, Dividers: 1, MemPorts: 4}
}

// Latencies per functional-unit class.
const (
	latAdder = 1
	latMul   = 3
	latDiv   = 8
)

// engine executes an ir.Program as a dynamic dataflow graph: within a
// basic block, instructions issue out of order as their operands become
// available, bounded by the functional-unit counts; blocks chain through
// terminators. This mirrors gem5-SALAM's LLVM-IR runtime engine (§III-B1).
//
// Scheduling is event-driven: each instruction of the current block
// carries a count of its not-yet-completed dependencies, a completion
// decrements its successors' counts, and an instruction whose count
// reaches zero joins the ready bitset. Issue walks that bitset in
// instruction-index order, so a tick never rescans the whole block.
type engine struct {
	prog  *ir.Program
	fus   FUConfig
	banks []*Bank
	vals  []uint64

	// sched[b] is block b's immutable dependency graph, shared by clones.
	sched []blockSched

	cur     int     // current block
	pending []int16 // per instruction of cur: dependencies not yet done
	ready   []uint64
	doneCnt int

	// In-flight instructions, bucketed by completion cycle: due[c%ringSize]
	// chains, through next, the instructions completing at cycle c in
	// issue order; result holds each one's value.
	due    [ringSize]chain
	next   []int16
	result []uint64

	running  bool
	finished bool
	fault    error
	cycle    uint64
}

// ringSize exceeds every latency (latDiv, Bank.Latency), so a bucket is
// drained before any later issue can reuse it.
const ringSize = 16

// chain is a FIFO of instruction indices linked through engine.next; -1
// ends it.
type chain struct{ head, tail int16 }

// blockSched is one block's dependency graph in the form the scheduler
// consumes. Instruction j's successors are succ[start[j]:start[j+1]]; the
// terminator is never anyone's successor and never ready, because it
// resolves once every other instruction is done.
type blockSched struct {
	start  []int32
	succ   []int16
	npend  []int16  // initial pending counts
	ready0 []uint64 // initial ready bitset: instructions with no dependencies
	dst    []ir.Val // register each non-terminator's completion writes, or NoVal
}

func newEngine(prog *ir.Program, fus FUConfig, banks []*Bank) (*engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		prog:  prog,
		fus:   fus,
		banks: banks,
		vals:  make([]uint64, prog.NumVals),
		sched: make([]blockSched, len(prog.Blocks)),
	}
	maxN := 0
	for bi := range prog.Blocks {
		n := len(prog.Blocks[bi].Instrs)
		if n > math.MaxInt16 {
			return nil, fmt.Errorf("accel: %s block %d has %d instructions, engine limit %d", prog.Name, bi, n, math.MaxInt16)
		}
		e.sched[bi] = newBlockSched(prog.Blocks[bi].Instrs)
		maxN = max(maxN, n)
	}
	e.pending = make([]int16, maxN)
	e.ready = make([]uint64, bitsetWords(maxN))
	e.next = make([]int16, maxN)
	e.result = make([]uint64, maxN)
	return e, nil
}

func bitsetWords(n int) int { return (n + 63) / 64 }

// blockDeps computes intra-block dependencies: deps[i] lists the earlier
// instructions i waits for — RAW, WAR and WAW on virtual registers, plus
// conservative memory ordering (a store waits for every earlier memory
// op; a load waits for earlier stores). Terminators wait for the whole
// block.
func blockDeps(instrs []ir.Instr) [][]int16 {
	deps := make([][]int16, len(instrs))
	lastStore := -1
	var memOps []int
	for i := range instrs {
		in := &instrs[i]
		var d []int16
		add := func(j int) {
			for _, x := range d {
				if int(x) == j {
					return
				}
			}
			d = append(d, int16(j))
		}
		reads := [3]ir.Val{in.A, in.B, in.C}
		for j := 0; j < i; j++ {
			pj := &instrs[j]
			if pj.Dst != ir.NoVal {
				for _, r := range reads {
					if r != ir.NoVal && r == pj.Dst {
						add(j) // RAW
					}
				}
				if in.Dst != ir.NoVal && in.Dst == pj.Dst {
					add(j) // WAW
				}
			}
			if in.Dst != ir.NoVal {
				for _, r := range [3]ir.Val{pj.A, pj.B, pj.C} {
					if r != ir.NoVal && r == in.Dst {
						add(j) // WAR
					}
				}
			}
		}
		switch in.Op {
		case ir.OpLoad:
			if lastStore >= 0 {
				add(lastStore)
			}
			memOps = append(memOps, i)
		case ir.OpStore:
			for _, m := range memOps {
				add(m)
			}
			memOps = append(memOps, i)
			lastStore = i
		}
		if in.Op.IsTerm() {
			for j := 0; j < i; j++ {
				add(j)
			}
		}
		deps[i] = d
	}
	return deps
}

// newBlockSched inverts a block's dependency lists into successor lists
// and initial pending counts. The last instruction is the terminator
// (ir.Program.Validate guarantees it), which the tick loop resolves by
// completion count instead.
func newBlockSched(instrs []ir.Instr) blockSched {
	deps := blockDeps(instrs)
	n := len(deps)
	s := blockSched{
		start:  make([]int32, n+1),
		npend:  make([]int16, n),
		ready0: make([]uint64, bitsetWords(n)),
		dst:    make([]ir.Val, n),
	}
	for i, d := range deps[:n-1] {
		s.dst[i] = resultDst(&instrs[i])
		s.npend[i] = int16(len(d))
		if len(d) == 0 {
			s.ready0[i/64] |= 1 << (i % 64)
		}
		for _, j := range d {
			s.start[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		s.start[j+1] += s.start[j]
	}
	s.succ = make([]int16, s.start[n])
	fill := slices.Clone(s.start[:n])
	for i, d := range deps[:n-1] {
		for _, j := range d {
			s.succ[fill[j]] = int16(i)
			fill[j]++
		}
	}
	return s
}

// resultDst is the register instruction in's completion writes: stores
// and control markers write none.
func resultDst(in *ir.Instr) ir.Val {
	switch in.Op {
	case ir.OpStore, ir.OpCheckpoint, ir.OpSwitchCPU, ir.OpWFI:
		return ir.NoVal
	}
	return in.Dst
}

// start arms the engine at the program entry.
func (e *engine) start() {
	e.cur = e.prog.Entry
	e.running = true
	e.finished = false
	e.fault = nil
	e.cycle = 0
	e.enterBlock(e.cur)
}

func (e *engine) enterBlock(bi int) {
	s := &e.sched[bi]
	e.cur = bi
	copy(e.pending, s.npend)
	copy(e.ready, s.ready0)
	e.doneCnt = 0
	for b := range e.due {
		e.due[b] = chain{-1, -1}
	}
}

// schedule puts instruction i in flight: it completes lat cycles from now
// with value v.
func (e *engine) schedule(i, lat int, v uint64) {
	e.result[i] = v
	e.next[i] = -1
	c := &e.due[(e.cycle+uint64(lat))%ringSize]
	if c.head < 0 {
		c.head = int16(i)
	} else {
		e.next[c.tail] = int16(i)
	}
	c.tail = int16(i)
}

func (e *engine) bankFor(addr uint64, n int) (*Bank, error) {
	for _, b := range e.banks {
		if b.Contains(addr, n) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("accel: access at %#x (%d bytes) outside every bank", addr, n)
}

// tick advances the compute unit one cycle. It returns false once the
// kernel has finished or faulted.
func (e *engine) tick() bool {
	if !e.running {
		return false
	}
	e.cycle++

	// Completions: the only thing that marks an instruction done, so the
	// ready set is fixed for the rest of the tick.
	s := &e.sched[e.cur]
	c := &e.due[e.cycle%ringSize]
	for i := c.head; i >= 0; i = e.next[i] {
		if d := s.dst[i]; d != ir.NoVal {
			e.vals[d] = e.result[i]
		}
		for _, j := range s.succ[s.start[i]:s.start[i+1]] {
			e.pending[j]--
			if e.pending[j] == 0 {
				e.ready[j/64] |= 1 << (j % 64)
			}
		}
		e.doneCnt++
	}
	*c = chain{-1, -1}

	instrs := e.prog.Blocks[e.cur].Instrs
	// Terminator handling: when everything else is done, resolve it and
	// keep executing the next block within the same cycle (block-to-block
	// control costs no datapath cycle, as in a pipelined controller). The
	// transition count per cycle is bounded so an empty infinite loop in a
	// kernel still consumes simulated time.
	for hops := 0; e.doneCnt == len(instrs)-1 && hops < 8; hops++ {
		e.resolveTerminator(&instrs[len(instrs)-1])
		if !e.running {
			return false
		}
		instrs = e.prog.Blocks[e.cur].Instrs
	}

	// Issue in instruction-index order — the order a scan of the block
	// would visit the ready instructions in.
	adders, muls, divs, ports := e.fus.Adders, e.fus.Multipliers, e.fus.Dividers, e.fus.MemPorts
	words := e.ready[:bitsetWords(len(instrs))]
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			in := &instrs[i]
			switch in.Op {
			case ir.OpMul, ir.OpMulHU:
				if muls == 0 {
					continue
				}
				muls--
				e.schedule(i, latMul, e.alu(in))
			case ir.OpDiv, ir.OpDivU, ir.OpRem, ir.OpRemU:
				if divs == 0 {
					continue
				}
				divs--
				e.schedule(i, latDiv, e.alu(in))
			case ir.OpLoad, ir.OpStore:
				if ports == 0 {
					continue
				}
				ports--
				v, lat, ok := e.access(in)
				if !ok {
					return false
				}
				e.schedule(i, lat, v)
			case ir.OpCheckpoint, ir.OpSwitchCPU, ir.OpWFI:
				e.schedule(i, 1, 0)
			default:
				if adders == 0 {
					continue
				}
				adders--
				e.schedule(i, latAdder, e.alu(in))
			}
			words[w] &^= 1 << (i % 64)
		}
	}
	return e.running
}

// alu computes an adder, multiplier or divider instruction's result.
func (e *engine) alu(in *ir.Instr) uint64 {
	switch in.Op {
	case ir.OpConst:
		return uint64(in.Imm)
	case ir.OpMov:
		return e.vals[in.A]
	case ir.OpSelect:
		if e.vals[in.A] != 0 {
			return e.vals[in.B]
		}
		return e.vals[in.C]
	}
	bv := uint64(in.Imm)
	if in.B != ir.NoVal {
		bv = e.vals[in.B]
	}
	return ir.EvalBinary(in.Op, e.vals[in.A], bv)
}

// access performs a load or store against the bank its address falls in,
// returning the loaded value (0 for a store) and the bank's latency. An
// access outside every bank faults the engine and returns ok = false.
func (e *engine) access(in *ir.Instr) (v uint64, lat int, ok bool) {
	addr := e.vals[in.A] + uint64(in.Imm)
	bank, err := e.bankFor(addr, int(in.Size))
	if err != nil {
		e.fault = err
		e.running = false
		return 0, 0, false
	}
	var buf [8]byte
	if in.Op == ir.OpStore {
		x := e.vals[in.B]
		for k := 0; k < int(in.Size); k++ {
			buf[k] = byte(x >> (8 * k))
		}
		err = bank.Write(addr, buf[:in.Size])
	} else if err = bank.Read(addr, buf[:in.Size]); err == nil {
		for k := 0; k < int(in.Size); k++ {
			v |= uint64(buf[k]) << (8 * k)
		}
		v = extendLoad(v, in.Size, in.Signed)
	}
	if err != nil {
		e.fault = err
		e.running = false
		return 0, 0, false
	}
	return v, bank.Latency(), true
}

func extendLoad(v uint64, size uint8, signed bool) uint64 {
	switch size {
	case 1:
		if signed {
			return uint64(int64(int8(v)))
		}
		return v & 0xFF
	case 2:
		if signed {
			return uint64(int64(int16(v)))
		}
		return v & 0xFFFF
	case 4:
		if signed {
			return uint64(int64(int32(v)))
		}
		return v & 0xFFFFFFFF
	}
	return v
}

func (e *engine) resolveTerminator(in *ir.Instr) {
	switch in.Op {
	case ir.OpHalt:
		e.running = false
		e.finished = true
	case ir.OpBr:
		e.enterBlock(in.Then)
	case ir.OpBrIf:
		if e.vals[in.A] != 0 {
			e.enterBlock(in.Then)
		} else {
			e.enterBlock(in.Else)
		}
	default:
		e.fault = fmt.Errorf("accel: bad terminator %v", in.Op)
		e.running = false
	}
}

// clone deep-copies engine state (same immutable prog/sched).
func (e *engine) clone(banks []*Bank) *engine {
	n := *e
	n.banks = banks
	n.vals = slices.Clone(e.vals)
	n.pending = slices.Clone(e.pending)
	n.ready = slices.Clone(e.ready)
	n.next = slices.Clone(e.next)
	n.result = slices.Clone(e.result)
	return &n
}

// resetTo rolls engine state back to the golden engine g it was cloned
// from (same immutable prog/sched), reusing the existing slices.
func (e *engine) resetTo(g *engine) {
	copy(e.vals, g.vals)
	e.cur = g.cur
	copy(e.pending, g.pending)
	copy(e.ready, g.ready)
	e.doneCnt = g.doneCnt
	e.due = g.due
	copy(e.next, g.next)
	copy(e.result, g.result)
	e.running = g.running
	e.finished = g.finished
	e.fault = g.fault
	e.cycle = g.cycle
}

package cpu

import (
	"math/bits"

	"marvel/internal/isa"
	"marvel/internal/obs"
)

// Step advances the core by one clock cycle. Stages run in reverse pipeline
// order so results produced in cycle N wake consumers in cycle N+1.
func (c *CPU) Step() {
	if c.Done() {
		return
	}
	if c.waiting {
		if !c.irq {
			// Asleep in WFI: nothing moves, the watchdog is held off.
			c.cycle++
			c.Stats.Cycles++
			c.lastCommitCycle = c.cycle
			return
		}
		c.waiting = false
	}
	c.commit()
	if c.Done() {
		return
	}
	c.complete()
	c.memStage()
	c.issue()
	c.rename()
	c.fetchDecode()
	c.cycle++
	c.Stats.Cycles++
}

// robIdx maps ROB position i (0 = oldest, i < len(c.rob)) to its slot.
// Like every ring index in the core it wraps with a compare, not a
// division.
func (c *CPU) robIdx(i int) int {
	j := c.robHead + i
	if j >= len(c.rob) {
		j -= len(c.rob)
	}
	return j
}

func (c *CPU) robTailIdx() int { return c.robIdx(c.robCount - 1) }

// --- Commit ---

func (c *CPU) commit() {
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if !e.done {
			break
		}
		if e.trapCode != TrapNone {
			c.trap = &Trap{Code: e.trapCode, PC: e.uop.PC, Addr: e.trapAddr}
			return
		}
		switch e.uop.Kind {
		case isa.KindHalt:
			c.halted = true
			c.emitCommit(e)
			return
		case isa.KindWFI:
			if !c.irq {
				c.waiting = true
				c.lastCommitCycle = c.cycle
				return
			}
		case isa.KindMagic:
			if c.MagicHook != nil {
				c.MagicHook(e.uop.Imm, c.cycle)
			}
		case isa.KindStore:
			if !c.commitStore(e) {
				return // store raised a memory fault; trap recorded
			}
		case isa.KindLoad:
			if e.lqSlot >= 0 {
				c.lq.popHead()
			}
		}
		c.emitCommit(e)
		if e.pdst != NoPReg && e.oldPdst != NoPReg {
			c.freePhys(e.oldPdst)
		}
		if c.iqMember(c.robHead) {
			// Only a fault retires an entry before it issues (a flipped
			// done latch, a load that ran early from a flipped LQ
			// address-ready bit); its IQ entry goes stale now.
			c.markIQStale(c.robHead)
		}
		e.valid = false
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		c.lastCommitCycle = c.cycle
		c.Stats.Uops++
		if e.uop.Last {
			c.Stats.Insts++
		}
	}
	if c.robCount > 0 && c.cycle-c.lastCommitCycle > c.cfg.DeadlockCycles {
		head := &c.rob[c.robHead]
		c.trap = &Trap{Code: TrapDeadlock, PC: head.uop.PC}
	}
}

func (c *CPU) emitCommit(e *robEntry) {
	if c.CommitHook == nil {
		return
	}
	c.CommitHook(CommitRec{
		PC:      e.uop.PC,
		Kind:    e.uop.Kind,
		Dst:     e.uop.Dst,
		Result:  e.result,
		MemAddr: e.memAddr,
		MemData: e.memData,
		Last:    e.uop.Last,
	})
}

// commitStore performs the architectural memory write of the store at the
// head of the store queue. Returns false when the write faults.
func (c *CPU) commitStore(e *robEntry) bool {
	if e.sqSlot < 0 {
		return true
	}
	if e.nullified {
		c.sq.popHead()
		e.sqSlot = -1
		return true
	}
	se := &c.sq.entries[e.sqSlot]
	if !se.addrReady || !se.dataReady {
		// Can only happen when a fault corrupted the status bits: the
		// store's operands never became architecturally visible.
		c.trap = &Trap{Code: TrapDeadlock, PC: e.uop.PC}
		return false
	}
	c.sq.used(e.sqSlot)
	size := int(se.size)
	if size == 0 {
		size = 1
	}
	buf := c.ldst[:size]
	for i := range buf {
		buf[i] = byte(se.data >> (8 * i))
	}
	if _, err := c.hier.Store(se.addr, buf); err != nil {
		c.trap = &Trap{Code: TrapMemFault, PC: e.uop.PC, Addr: se.addr}
		return false
	}
	e.memAddr, e.memData = se.addr, se.data
	c.sq.popHead()
	e.sqSlot = -1
	c.Stats.StoresCommit++
	return true
}

// --- Completion ---

// complete retires the events due this cycle, in the order they were
// scheduled, and compacts the pending ones in place.
func (c *CPU) complete() {
	evs := c.events
	w := 0
	for i := range evs {
		ev := &evs[i]
		if ev.cycle > c.cycle {
			if w != i {
				evs[w] = *ev
			}
			w++
			continue
		}
		e := &c.rob[ev.robIdx]
		if !e.valid || e.seq != ev.seq {
			continue // squashed in flight
		}
		value := ev.value
		if ev.isLoad && e.lqSlot >= 0 {
			le := &c.lq.entries[e.lqSlot]
			if !le.nullified {
				value = extendValue(le.data, le.size, le.signed)
			}
			le.dataReady = true
		}
		if e.pdst != NoPReg {
			c.prf.Write(e.pdst, value)
			c.iqWake(e.pdst)
		}
		e.result = value
		e.done = true
	}
	c.events = evs[:w]
}

func extendValue(raw uint64, size uint8, signed bool) uint64 {
	switch size {
	case 1:
		if signed {
			return uint64(int64(int8(raw)))
		}
		return raw & 0xFF
	case 2:
		if signed {
			return uint64(int64(int16(raw)))
		}
		return raw & 0xFFFF
	case 4:
		if signed {
			return uint64(int64(int32(raw)))
		}
		return raw & 0xFFFFFFFF
	default:
		return raw
	}
}

// --- Memory stage: load queue processing ---

// memStage lets address-ready loads access memory, in load-queue order,
// subject to conservative memory-dependence rules: a load waits until
// every older store address is known; full-overlap ready stores forward,
// partial overlaps block until the store commits.
func (c *CPU) memStage() {
	ports := c.cfg.MemPorts
	for i := 0; i < c.lq.count && ports > 0; i++ {
		slot := c.lq.slot(i)
		le := &c.lq.entries[slot]
		if !le.valid || le.accessed || !le.addrReady {
			if le.valid && !le.accessed {
				break // in-order address generation barrier
			}
			continue
		}
		status, value, lat := c.tryLoad(le)
		switch status {
		case loadBlocked:
			// An older store blocks this and, conservatively, younger loads.
			return
		case loadForwarded:
			le.accessed = true
			le.data = value
			c.lq.enforceStuck(slot)
			c.scheduleLoadDone(slot, 1)
			c.Stats.Forwards++
			if c.Trace != nil {
				c.Trace.Emit(obs.Event{Cycle: c.cycle, Kind: obs.KindStoreForward, Target: "lsq", Bit: le.addr})
			}
			ports--
		case loadFromMem:
			le.accessed = true
			le.data = value
			c.lq.enforceStuck(slot)
			c.scheduleLoadDone(slot, lat)
			c.Stats.LoadsExec++
			ports--
		case loadFaulted:
			le.accessed = true
			le.dataReady = true
			e := &c.rob[le.robIdx]
			e.trapCode = TrapMemFault
			e.trapAddr = le.addr
			e.done = true
			ports--
		}
	}
}

type loadStatus uint8

const (
	loadBlocked loadStatus = iota
	loadForwarded
	loadFromMem
	loadFaulted
)

func (c *CPU) scheduleLoadDone(slot int, lat int) {
	le := &c.lq.entries[slot]
	ev := c.newEvent()
	ev.cycle = c.cycle + uint64(lat)
	ev.robIdx = le.robIdx
	ev.seq = le.seq
	ev.isLoad = true
}

// newEvent appends a zeroed completion event and returns it for the caller
// to fill in. The list is sized to the ROB, but under a fault one entry can
// be scheduled twice, so a full list still grows.
func (c *CPU) newEvent() *event {
	n := len(c.events)
	if n == cap(c.events) {
		c.events = append(c.events, event{})
	} else {
		c.events = c.events[:n+1]
		c.events[n] = event{}
	}
	return &c.events[n]
}

func (c *CPU) tryLoad(le *lsqEntry) (loadStatus, uint64, int) {
	size := int(le.size)
	if size == 0 {
		size = 1
	}
	// Scan older stores, youngest first.
	for i := c.sq.count - 1; i >= 0; i-- {
		se := c.sq.at(i)
		if !se.valid || se.seq >= le.seq || se.nullified {
			continue
		}
		if !se.addrReady {
			return loadBlocked, 0, 0
		}
		sSize := int(se.size)
		if sSize == 0 {
			sSize = 1
		}
		if se.addr+uint64(sSize) <= le.addr || le.addr+uint64(size) <= se.addr {
			continue // disjoint
		}
		if se.addr <= le.addr && se.addr+uint64(sSize) >= le.addr+uint64(size) && se.dataReady {
			// Full overlap: forward.
			c.sq.used(c.sq.slot(i))
			sh := (le.addr - se.addr) * 8
			return loadForwarded, se.data >> sh, 0
		}
		return loadBlocked, 0, 0 // partial overlap: wait for commit
	}
	buf := c.ldst[:size]
	lat, err := c.hier.Load(le.addr, buf)
	if err != nil {
		return loadFaulted, 0, 0
	}
	var v uint64
	for i, b := range buf {
		v |= uint64(b) << (8 * i)
	}
	return loadFromMem, v, lat
}

// --- Issue / execute ---

// issue visits the IQ's candidates oldest first and executes every one
// whose sources are ready while its functional-unit pool has a free unit.
// A member that is not a candidate was found not ready and waits for the
// first source it found unready. A register becomes ready only when it is
// written, which makes its waiters candidates again (iqWake), so skipping
// the other members cannot change what issues. Stale candidates leave the
// queue.
func (c *CPU) issue() {
	free := [numFUClasses]int{fuALU: c.cfg.IntALUs, fuMul: c.cfg.MulUnits, fuDiv: c.cfg.DivUnits, fuMem: c.cfg.MemPorts}
	branchResolved := false
	// Age order: ROB slots from robHead to the end, then from 0.
	for _, span := range [2][2]int{{c.robHead, len(c.rob)}, {0, c.robHead}} {
		lo, hi := span[0], span[1]
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			for m := c.iqMem[wi] & c.iqCand[wi] & spanMask(wi, lo, hi); m != 0; m &= m - 1 {
				s := wi<<6 + bits.TrailingZeros64(m)
				q := &c.iq[s]
				switch {
				case q.stale:
					c.iqRemove(s)
				case branchResolved, !c.iqReady(s, q), free[q.fu] == 0:
				default:
					free[q.fu]--
					c.iqRemove(s)
					if c.execute(&c.rob[q.robIdx]) {
						// Mispredict: everything younger is squashed.
						branchResolved = true
						c.Stats.Squashes++
					}
				}
			}
		}
	}
	if branchResolved {
		// Drop the entries the squash invalidated, and any whose ROB
		// issued latch a fault set: ROB state, read only here.
		for wi, m := range c.iqMem {
			for ; m != 0; m &= m - 1 {
				s := wi<<6 + bits.TrailingZeros64(m)
				q := &c.iq[s]
				if e := &c.rob[q.robIdx]; !e.valid || e.seq != q.seq || e.issued {
					c.iqRemove(s)
				}
			}
		}
	}
}

// spanMask returns the bits of mask word wi that cover the ROB slots
// [lo, hi).
func spanMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := wi << 6; lo > base {
		m <<= lo - base
	}
	if top := wi<<6 + 64; hi < top {
		m &= ^uint64(0) >> (top - hi)
	}
	return m
}

// iqReady reports whether all sources of the candidate q at ROB slot s are
// ready. If one is not, q stops being a candidate and waits for it.
func (c *CPU) iqReady(s int, q *iqEntry) bool {
	ready := c.prf.ready
	for _, p := range q.src {
		if p != NoPReg && !ready[p] {
			c.iqCand[s>>6] &^= 1 << (s & 63)
			c.iqWait[int(p)*len(c.iqMem)+s>>6] |= 1 << (s & 63)
			return false
		}
	}
	return true
}

// iqInsert queues the entry at ROB slot s, as a candidate.
func (c *CPU) iqInsert(s int) {
	c.iqMem[s>>6] |= 1 << (s & 63)
	c.iqCand[s>>6] |= 1 << (s & 63)
	c.iqN++
}

// iqRemove takes the entry at ROB slot s out of the queue. Wait bits it
// leaves behind only make a later occupant of s a candidate early.
func (c *CPU) iqRemove(s int) {
	c.iqMem[s>>6] &^= 1 << (s & 63)
	c.iqCand[s>>6] &^= 1 << (s & 63)
	c.iqN--
}

// iqMember reports whether ROB slot s holds a queued entry.
func (c *CPU) iqMember(s int) bool { return c.iqMem[s>>6]>>(s&63)&1 == 1 }

// iqWake makes every member waiting for p a candidate. Every write of a
// physical register must call it.
func (c *CPU) iqWake(p PReg) {
	n := len(c.iqMem)
	w := c.iqWait[int(p)*n : int(p)*n+n]
	for i, m := range w {
		c.iqCand[i] |= m
		w[i] = 0
	}
}

// iqSlot returns the ROB slot of the k-th member in age order (k < iqN):
// the iq fault target's slot k.
func (c *CPU) iqSlot(k int) int {
	for i := 0; ; i++ {
		if s := c.robIdx(i); c.iqMember(s) {
			if k == 0 {
				return s
			}
			k--
		}
	}
}

// markIQStale marks the member at ROB slot s stale and a candidate, so
// the next issue drops it.
func (c *CPU) markIQStale(s int) {
	c.iq[s].stale = true
	c.iqCand[s>>6] |= 1 << (s & 63)
}

// iqStale reports whether q no longer names a live ROB entry: the
// definition its stale flag caches.
func (c *CPU) iqStale(q *iqEntry) bool {
	e := &c.rob[q.robIdx]
	return !e.valid || e.seq != q.seq
}

func (c *CPU) readSrc(p PReg) uint64 {
	if p == NoPReg {
		return 0
	}
	return c.prf.Read(p)
}

// execute performs one micro-op and returns true when a control-flow
// mispredict squashed younger work.
func (c *CPU) execute(e *robEntry) bool {
	e.issued = true
	u := &e.uop

	// Predication: a false predicate turns the op into a move of the old
	// destination value (or a suppressed memory access).
	if u.Pred != isa.CondNone {
		pv := c.readSrc(e.psp)
		if !isa.EvalCond(u.Pred, pv, 0) {
			switch u.Kind {
			case isa.KindStore:
				if e.sqSlot >= 0 {
					se := &c.sq.entries[e.sqSlot]
					se.addrReady, se.dataReady, se.nullified = true, true, true
				}
				e.nullified = true
				c.finishExec(e, 0, 1)
				return false
			default:
				if e.lqSlot >= 0 {
					le := &c.lq.entries[e.lqSlot]
					le.addrReady, le.dataReady, le.accessed, le.nullified = true, true, true, true
				}
				old := c.readSrc(e.ps3)
				c.finishExec(e, old, 1)
				return false
			}
		}
	}

	v1 := c.readSrc(e.ps1)
	v2 := c.readSrc(e.ps2)

	switch u.Kind {
	case isa.KindALU, isa.KindMul, isa.KindDiv:
		return c.execALU(e, v1, v2)
	case isa.KindLoad:
		c.execLoad(e, v1, v2)
	case isa.KindStore:
		c.execStore(e, v1, v2)
	case isa.KindBranch:
		return c.execBranch(e, v1, v2)
	case isa.KindJumpReg:
		return c.execJumpReg(e, v1)
	default:
		c.finishExec(e, 0, 1)
	}
	return false
}

func (c *CPU) finishExec(e *robEntry, value uint64, lat int) {
	ev := c.newEvent()
	ev.cycle = c.cycle + uint64(lat)
	ev.robIdx = e.idx
	ev.seq = e.seq
	ev.value = value
}

func (c *CPU) execALU(e *robEntry, v1, v2 uint64) bool {
	u := &e.uop
	var result uint64
	switch {
	case u.Alu == isa.AluSelect:
		f := c.readSrc(e.ps3)
		if isa.EvalCond(u.Cond, f, 0) {
			result = v1
		} else {
			result = v2
		}
	default:
		b := v2
		if e.ps2 == NoPReg {
			b = uint64(u.Imm)
		} else if u.Scale != 0 {
			b <<= u.Scale // ARM64L shifted register operand
		}
		if u.Kind == isa.KindDiv && b == 0 && c.traits.TrapDivZero {
			e.trapCode = TrapDivZero
		}
		result = isa.EvalAlu(u.Alu, v1, b)
	}
	lat := 1
	switch u.Kind {
	case isa.KindMul:
		lat = c.cfg.MulLat
	case isa.KindDiv:
		lat = c.cfg.DivLat
	}
	c.finishExec(e, result, lat)
	return false
}

func (c *CPU) effectiveAddr(e *robEntry, v1, v2 uint64) uint64 {
	u := &e.uop
	addr := v1 + uint64(u.Imm)
	if e.ps2 != NoPReg {
		addr += v2 << u.Scale
	}
	return addr
}

func (c *CPU) execLoad(e *robEntry, v1, v2 uint64) {
	u := &e.uop
	addr := c.effectiveAddr(e, v1, v2)
	if c.traits.TrapUnaligned && addr%uint64(u.MemBytes) != 0 {
		e.trapCode = TrapUnaligned
		e.trapAddr = addr
		e.done = true
		if e.lqSlot >= 0 {
			c.lq.entries[e.lqSlot].accessed = true
			c.lq.entries[e.lqSlot].dataReady = true
		}
		return
	}
	le := &c.lq.entries[e.lqSlot]
	le.addr = addr
	le.size = u.MemBytes
	le.signed = u.MemSigned
	le.addrReady = true
	le.mmio = c.hier.MMIOBase != 0 && addr >= c.hier.MMIOBase
	c.lq.enforceStuck(e.lqSlot)
	e.memAddr = addr
	// The load now waits in the LQ; memStage performs the access.
}

func (c *CPU) execStore(e *robEntry, v1, v2 uint64) {
	u := &e.uop
	addr := c.effectiveAddr(e, v1, v2)
	data := c.readSrc(e.ps3)
	se := &c.sq.entries[e.sqSlot]
	se.addr = addr
	se.data = data
	se.size = u.MemBytes
	se.addrReady = true
	se.dataReady = true
	c.sq.enforceStuck(e.sqSlot)
	if c.traits.TrapUnaligned && addr%uint64(u.MemBytes) != 0 {
		e.trapCode = TrapUnaligned
		e.trapAddr = addr
	}
	e.memAddr, e.memData = addr, data
	c.finishExec(e, 0, 1)
}

func (c *CPU) execBranch(e *robEntry, v1, v2 uint64) bool {
	u := &e.uop
	taken := isa.EvalCond(u.Cond, v1, v2)
	c.trainBimodal(u.PC, taken)
	c.Stats.Branches++
	actual := u.NextPC
	if taken {
		actual = u.Target
	}
	predicted := u.NextPC
	if e.predTaken {
		predicted = u.Target
	}
	c.finishExec(e, boolTo64(taken), 1)
	if actual != predicted {
		c.Stats.Mispredicts++
		c.squashAfter(e.seq, actual)
		return true
	}
	return false
}

func (c *CPU) execJumpReg(e *robEntry, v1 uint64) bool {
	u := &e.uop
	target := v1 + uint64(u.Imm)
	var link uint64
	if e.pdst != NoPReg {
		link = u.NextPC
	}
	c.finishExec(e, link, 1)
	if target != u.NextPC { // predicted fall-through
		c.Stats.Mispredicts++
		c.squashAfter(e.seq, target)
		return true
	}
	return false
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- Squash (mispredict recovery) ---

// squashAfter removes every in-flight micro-op younger than seq, restores
// the rename map by walking the ROB tail-first, rolls back the load/store
// queues, drops in-flight completions and redirects fetch.
func (c *CPU) squashAfter(seq uint64, newPC uint64) {
	var removed uint64
	for c.robCount > 0 {
		idx := c.robTailIdx()
		e := &c.rob[idx]
		if e.seq <= seq {
			break
		}
		if e.pdst != NoPReg {
			c.rmap[e.uop.Dst] = e.oldPdst
			c.freePhys(e.pdst)
		}
		e.valid = false
		c.robCount--
		removed++
	}
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Cycle: c.cycle, Kind: obs.KindSquash, Target: "rob", N: removed})
	}
	c.lq.squashYoungerThan(seq)
	c.sq.squashYoungerThan(seq)

	kept := c.events[:0]
	for _, ev := range c.events {
		if ev.seq <= seq {
			kept = append(kept, ev)
		}
	}
	c.events = kept

	// The IQ is left to issue, which is scanning it: its cleanup after
	// the mispredict drops every entry this squash invalidated.
	c.uqLen = 0
	c.fbuf = c.fstore[:0]
	c.fetchPC = newPC
	c.fetchFault = false
	if c.fetchBusyUntil > c.cycle+1 {
		c.fetchBusyUntil = c.cycle + 1
	}
}

// --- Rename / dispatch ---

// rename dispatches up to Width micro-ops from the head of the micro-op
// queue.
func (c *CPU) rename() {
	for n := 0; n < c.cfg.Width && c.uqLen > 0 && c.renameOne(&c.uq[c.uqHead]); n++ {
		if c.uqHead++; c.uqHead == len(c.uq) {
			c.uqHead = 0
		}
		c.uqLen--
	}
}

// pushUop appends a slot to the tail of the micro-op queue and returns it
// for the caller to fill in.
func (c *CPU) pushUop() *fqUop {
	i := c.uqHead + c.uqLen
	if i >= len(c.uq) {
		i -= len(c.uq)
	}
	c.uqLen++
	return &c.uq[i]
}

// renameOne allocates the ROB, IQ, LSQ and physical-register resources of
// one micro-op. It returns false, leaving all state untouched, when any
// resource is exhausted.
func (c *CPU) renameOne(fu *fqUop) bool {
	u := &fu.uop
	if c.robCount == len(c.rob) {
		return false
	}
	needsIQ := false
	switch u.Kind {
	case isa.KindALU, isa.KindMul, isa.KindDiv, isa.KindBranch, isa.KindJumpReg:
		needsIQ = true
	case isa.KindLoad:
		needsIQ = true
		if c.lq.Full() {
			return false
		}
	case isa.KindStore:
		needsIQ = true
		if c.sq.Full() {
			return false
		}
	}
	if needsIQ && c.iqN >= c.cfg.IQSize {
		return false
	}
	if u.Dst != isa.NoReg && len(c.freeList) == 0 {
		return false
	}

	c.seq++
	idx := c.robIdx(c.robCount)
	c.robCount++
	// Every field is assigned, none through a composite literal: a
	// robEntry{...} temporary would be built and then block-copied.
	e := &c.rob[idx]
	e.valid = true
	e.idx = idx
	e.seq = c.seq
	e.uop = *u
	e.ps1 = c.mapSrc(u.Src1)
	e.ps2 = c.mapSrc(u.Src2)
	e.ps3 = c.mapSrc(u.Src3)
	e.psp = c.mapSrc(u.SrcP)
	e.pdst, e.oldPdst = NoPReg, NoPReg
	e.issued, e.done = false, false
	e.trapCode, e.trapAddr = TrapNone, 0
	e.predTaken = fu.predTaken
	e.nullified = false
	e.lqSlot, e.sqSlot = -1, -1
	e.result, e.memAddr, e.memData = 0, 0, 0
	if u.Dst != isa.NoReg {
		p := c.freeList[len(c.freeList)-1]
		c.freeList = c.freeList[:len(c.freeList)-1]
		e.oldPdst = c.rmap[u.Dst]
		c.rmap[u.Dst] = p
		e.pdst = p
		c.prf.Allocate(p)
	}
	switch u.Kind {
	case isa.KindLoad:
		slot, _ := c.lq.alloc(e.seq, idx)
		e.lqSlot = slot
	case isa.KindStore:
		slot, _ := c.sq.alloc(e.seq, idx)
		e.sqSlot = slot
	case isa.KindJump:
		// Direct jumps resolve at decode; the link value is known.
		if e.pdst != NoPReg {
			c.prf.Write(e.pdst, u.NextPC)
			c.iqWake(e.pdst)
			e.result = u.NextPC
		}
		e.done = true
	case isa.KindNop, isa.KindHalt, isa.KindWFI, isa.KindMagic, isa.KindIllegal:
		if u.Kind == isa.KindIllegal {
			e.trapCode = TrapIllegal
		}
		e.done = true
	}
	if needsIQ {
		q := &c.iq[idx]
		q.robIdx, q.seq = int32(idx), e.seq
		q.src = [4]PReg{e.ps1, e.ps2, e.ps3, e.psp}
		q.fu = fuClassOf(u.Kind)
		q.stale = false
		c.iqInsert(idx)
	}
	return true
}

// freePhys returns a physical register to the rename pool.
func (c *CPU) freePhys(p PReg) {
	c.prf.Free(p)
	c.freeList = append(c.freeList, p)
}

func (c *CPU) mapSrc(r isa.Reg) PReg {
	if r == isa.NoReg {
		return NoPReg
	}
	return c.rmap[r]
}

// --- Fetch & decode ---

func (c *CPU) bimodalIdx(pc uint64) int {
	return int(pc>>1) & (c.cfg.BimodalSize - 1)
}

func (c *CPU) predictTaken(pc uint64) bool {
	return c.bimodal[c.bimodalIdx(pc)] >= 2
}

func (c *CPU) trainBimodal(pc uint64, taken bool) {
	i := c.bimodalIdx(pc)
	ctr := c.bimodal[i]
	if taken && ctr < 3 {
		c.bimodal[i] = ctr + 1
	} else if !taken && ctr > 0 {
		c.bimodal[i] = ctr - 1
	}
}

// fetchDecode fetches raw bytes through the L1I and decodes them along the
// predicted path into the micro-op queue. Every byte still comes through
// the L1I (timing, replacement, fault state); only the bytes-to-micro-ops
// step is memoized, keyed on the exact MaxInstLen window Decode reads.
func (c *CPU) fetchDecode() {
	if c.fetchFault || c.cycle < c.fetchBusyUntil {
		return
	}
	maxLen := c.arch.MaxInstLen()
	decoded := 0
	for decoded < c.cfg.Width && c.uqLen < c.cfg.Width*4 {
		// Ensure enough contiguous bytes for the longest instruction; a
		// chunk stops at the cache-line boundary, so refilling may take
		// more than one chunk.
		for len(c.fbuf) < maxLen {
			if !c.fetchChunk() {
				return
			}
			if c.cycle < c.fetchBusyUntil {
				return // miss in flight; bytes decode when it completes
			}
		}
		d := c.decode(c.fbufPC, c.fbuf[:maxLen])
		redirect := uint64(0)
		hasRedirect := false
		stop := false
		uops := d.Uops()
		for i := range uops {
			u := &uops[i]
			fu := c.pushUop()
			fu.uop = *u
			fu.predTaken = false
			switch u.Kind {
			case isa.KindJump:
				fu.predTaken = true
				redirect, hasRedirect = u.Target, true
			case isa.KindBranch:
				fu.predTaken = c.predictTaken(u.PC)
				if fu.predTaken {
					redirect, hasRedirect = u.Target, true
				}
			case isa.KindHalt, isa.KindIllegal:
				stop = true
			}
		}
		decoded++
		if hasRedirect {
			c.fbuf = c.fstore[:0]
			c.fetchPC = redirect
			return // taken-control-flow fetch break
		}
		if stop {
			// Do not speculate past a halt or an undecodable region.
			c.fbuf = c.fstore[:0]
			c.fetchFault = true
			return
		}
		c.fbuf = c.fbuf[d.Size:]
		c.fbufPC += uint64(d.Size)
	}
}

// fetchChunk appends the next contiguous chunk of instruction bytes to the
// fetch buffer, stopping at the cache line boundary. Returns false when no
// bytes could be fetched this cycle. It first moves the undecoded bytes to
// the front of the backing store and fetches straight behind them; fetch
// only refills below MaxInstLen bytes, so the store never overflows.
func (c *CPU) fetchChunk() bool {
	next := c.fetchPC
	if len(c.fbuf) > 0 {
		next = c.fbufPC + uint64(len(c.fbuf))
	} else {
		c.fbufPC = c.fetchPC
	}
	line := uint64(c.hier.L1I.Config().LineBytes)
	n := int(line - next&(line-1))
	if n > c.cfg.FetchBytes {
		n = c.cfg.FetchBytes
	}
	have := copy(c.fstore, c.fbuf)
	c.fbuf = c.fstore[:have]
	lat, err := c.hier.Fetch(next, c.fstore[have:have+n])
	if err != nil {
		if have >= 1 {
			// Pad with zeros so the trailing instruction decodes (likely
			// to an illegal op) instead of wedging fetch.
			pad := c.fstore[have : have+c.arch.MaxInstLen()]
			clear(pad)
			c.fbuf = c.fstore[:have+len(pad)]
			return true
		}
		// Fetching from an unmapped address: synthesize an illegal op so
		// the fault is raised architecturally if this path commits.
		fu := c.pushUop()
		fu.uop = isa.NewUop(next, next+4)
		fu.uop.Kind, fu.uop.Last = isa.KindIllegal, true
		fu.predTaken = false
		c.fetchFault = true
		return false
	}
	c.fbuf = c.fstore[:have+n]
	c.fetchPC = next + uint64(n)
	if lat > c.hier.L1I.Config().HitLat {
		c.fetchBusyUntil = c.cycle + uint64(lat)
	}
	return true
}

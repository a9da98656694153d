package cpu_test

import (
	"testing"

	"marvel/internal/core"
	"marvel/internal/cpu"
	"marvel/internal/isa"
	"marvel/internal/mem"
)

// asmRV hand-assembles a RISC-V word sequence into a fresh system.
func buildSystem(t *testing.T, words []uint32) (*cpu.CPU, *mem.Hierarchy) {
	t.Helper()
	m := mem.NewMemory(0, 1<<20, 40)
	h, err := mem.NewHierarchy(mem.HierarchyConfig{
		L1I: mem.CacheConfig{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L1D: mem.CacheConfig{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L2:  mem.CacheConfig{Name: "l2", SizeBytes: 1 << 15, LineBytes: 64, Ways: 8, HitLat: 10},
	}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, 4*len(words))
	for i, w := range words {
		code[i*4] = byte(w)
		code[i*4+1] = byte(w >> 8)
		code[i*4+2] = byte(w >> 16)
		code[i*4+3] = byte(w >> 24)
	}
	if err := m.Write(0x1000, code); err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(isa.RV64L{}, cpu.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	c.Boot(0x1000, 0xF0000, isa.RvSP)
	return c, h
}

func run(t *testing.T, c *cpu.CPU, budget int) {
	t.Helper()
	for i := 0; i < budget && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() {
		t.Fatalf("CPU did not finish in %d cycles", budget)
	}
}

func must(w uint32, ok bool) uint32 {
	if !ok {
		panic("encode failed")
	}
	return w
}

func TestStraightLineArithmetic(t *testing.T) {
	// x5 = 7; x6 = 35; store x6 to [0x2000]
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 7)),
		must(isa.RvALUImm(isa.AluAdd, 7, isa.RvZero, 5)),
		must(isa.RvALU(isa.AluMul, 6, 5, 7)),
		must(isa.RvALUImm(isa.AluAdd, 8, isa.RvZero, 0x200)),
		must(isa.RvALUImm(isa.AluShl, 8, 8, 4)), // 0x2000
		must(isa.RvStore(8, 6, 8, 0)),
		isa.RvSys(isa.MagicExit),
	}
	c, h := buildSystem(t, words)
	run(t, c, 10000)
	if !c.Halted() {
		t.Fatalf("trap: %v", c.Trap())
	}
	buf := make([]byte, 8)
	if err := h.ReadBack(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 35 {
		t.Fatalf("stored %d, want 35", buf[0])
	}
	// The halt directive itself is not counted as a committed instruction.
	if c.Stats.Insts != uint64(len(words))-1 {
		t.Errorf("committed %d insts, want %d", c.Stats.Insts, len(words)-1)
	}
}

func TestBranchLoopAndPredictorTraining(t *testing.T) {
	// x5 = 0; loop 200 times: x5++; branch back while x5 < 200.
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 0)),
		must(isa.RvALUImm(isa.AluAdd, 6, isa.RvZero, 200)),
		must(isa.RvALUImm(isa.AluAdd, 5, 5, 1)),   // loop:
		must(isa.RvBranch(isa.CondLTS, 5, 6, -4)), // blt x5, x6, loop
		isa.RvSys(isa.MagicExit),
	}
	c, _ := buildSystem(t, words)
	run(t, c, 50000)
	if !c.Halted() {
		t.Fatalf("trap: %v", c.Trap())
	}
	if c.Stats.Branches == 0 {
		t.Fatal("no branches executed")
	}
	// A trained bimodal predictor should mispredict only a few times
	// (cold start + final exit).
	if c.Stats.Mispredicts > 10 {
		t.Errorf("%d mispredicts out of %d branches; predictor not learning",
			c.Stats.Mispredicts, c.Stats.Branches)
	}
}

func TestIllegalInstructionTrap(t *testing.T) {
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 1)),
		0xFFFFFFFF, // undecodable
		isa.RvSys(isa.MagicExit),
	}
	c, _ := buildSystem(t, words)
	run(t, c, 10000)
	tr := c.Trap()
	if tr == nil || tr.Code != cpu.TrapIllegal {
		t.Fatalf("want illegal-instruction trap, got %v", tr)
	}
	if tr.PC != 0x1004 {
		t.Errorf("trap PC %#x, want 0x1004", tr.PC)
	}
}

func TestMemFaultTrap(t *testing.T) {
	// Load far outside memory.
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 1)),
		must(isa.RvALUImm(isa.AluShl, 5, 5, 40)), // huge address
		must(isa.RvLoad(8, false, 6, 5, 0)),
		isa.RvSys(isa.MagicExit),
	}
	c, _ := buildSystem(t, words)
	run(t, c, 10000)
	tr := c.Trap()
	if tr == nil || tr.Code != cpu.TrapMemFault {
		t.Fatalf("want memory-fault trap, got %v", tr)
	}
}

func TestUnalignedTrapOnRV(t *testing.T) {
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 0x201)),
		must(isa.RvLoad(8, false, 6, 5, 0)), // 8-byte load at odd address
		isa.RvSys(isa.MagicExit),
	}
	c, _ := buildSystem(t, words)
	run(t, c, 10000)
	tr := c.Trap()
	if tr == nil || tr.Code != cpu.TrapUnaligned {
		t.Fatalf("want unaligned trap, got %v", tr)
	}
}

func TestWrongPathFaultIsMasked(t *testing.T) {
	// A branch skips over an illegal instruction; speculation may fetch
	// it, but it must never trap architecturally.
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 0)),
		must(isa.RvBranch(isa.CondEQ, 5, isa.RvZero, 8)), // always taken, skips next
		0xFFFFFFFF,
		isa.RvSys(isa.MagicExit),
	}
	c, _ := buildSystem(t, words)
	run(t, c, 10000)
	if !c.Halted() {
		t.Fatalf("speculative illegal instruction trapped: %v", c.Trap())
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store then immediately load the same address: the value must
	// forward from the store queue.
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 0x400)),
		must(isa.RvALUImm(isa.AluAdd, 6, isa.RvZero, 99)),
		must(isa.RvStore(8, 6, 5, 0)),
		must(isa.RvLoad(8, false, 7, 5, 0)),
		must(isa.RvALUImm(isa.AluAdd, 8, isa.RvZero, 0x600)),
		must(isa.RvStore(8, 7, 8, 0)),
		isa.RvSys(isa.MagicExit),
	}
	c, h := buildSystem(t, words)
	run(t, c, 10000)
	if !c.Halted() {
		t.Fatalf("trap: %v", c.Trap())
	}
	buf := make([]byte, 1)
	if err := h.ReadBack(0x600, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 99 {
		t.Fatalf("forwarded value %d, want 99", buf[0])
	}
	if c.Stats.Forwards == 0 {
		t.Error("expected at least one store-to-load forward")
	}
}

func TestWFIWakesOnIRQ(t *testing.T) {
	words := []uint32{
		isa.RvSys(3), // wfi
		isa.RvSys(isa.MagicExit),
	}
	c, _ := buildSystem(t, words)
	for i := 0; i < 1000 && !c.Done(); i++ {
		c.Step()
	}
	if c.Done() {
		t.Fatal("CPU should be sleeping in WFI")
	}
	if !c.Waiting() {
		t.Fatal("CPU not in waiting state")
	}
	c.SetIRQ(true)
	run(t, c, 1000)
	if !c.Halted() {
		t.Fatalf("after IRQ: %v", c.Trap())
	}
}

func TestDeadlockWatchdog(t *testing.T) {
	// A load from MMIO space with no bus wedges: it must become a trap,
	// not an infinite loop. Use an address inside memory bounds that the
	// conservative LQ ordering can't resolve... simpler: rely on the
	// watchdog by jumping to an infinite loop of dependent divides is
	// still progress; instead corrupt the SQ so a store never readies.
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 0x400)),
		must(isa.RvStore(8, 6, 5, 0)),
		isa.RvSys(isa.MagicExit),
	}
	c, _ := buildSystem(t, words)
	// Stick the store-queue entry's data-ready bit to 0 so commit stalls.
	c.SQ().Stick(0*136+128+1, 0)
	for i := 0; i < 100000 && !c.Done(); i++ {
		c.Step()
	}
	tr := c.Trap()
	if tr == nil || tr.Code != cpu.TrapDeadlock {
		t.Fatalf("want deadlock trap, got %v (halted=%v)", tr, c.Halted())
	}
}

func TestPRFTargetSemantics(t *testing.T) {
	p := cpu.NewPhysRegFile(8)
	if p.BitLen() != 8*64 {
		t.Fatalf("BitLen %d", p.BitLen())
	}
	p.SetInitial(3, 0)
	if p.Live(2 * 64) {
		t.Error("free register should not be live")
	}
	if !p.Live(3 * 64) {
		t.Error("allocated register should be live")
	}
	p.Flip(3*64 + 5)
	if p.Read(3) != 1<<5 {
		t.Errorf("flip not visible: %#x", p.Read(3))
	}
	p.Stick(3*64+7, 1)
	p.Write(3, 0)
	if p.Read(3) != 1<<7 {
		t.Errorf("stuck-at-1 must survive writes: %#x", p.Read(3))
	}

	// Watch lifecycle: read resolves to WatchRead.
	w := core.NewWatch(3 * 64)
	p.Observe(w)
	if w.State() != core.WatchPending {
		t.Fatal("watch should start pending")
	}
	_ = p.Read(3)
	if w.State() != core.WatchRead {
		t.Fatalf("after read: %v", w.State())
	}
	// Overwrite-before-read resolves to WatchDead.
	w = core.NewWatch(3 * 64)
	p.Observe(w)
	p.Write(3, 42)
	if w.State() != core.WatchDead {
		t.Fatalf("after write: %v", w.State())
	}
}

func TestLSQTargetBitLayout(t *testing.T) {
	q := cpu.NewLSQ("lq", 4)
	if q.BitLen() != 4*136 {
		t.Fatalf("BitLen %d", q.BitLen())
	}
	if q.Live(0) {
		t.Error("empty queue entry should not be live")
	}
	// Flip address bit 0 of entry 0 twice: state must return.
	q.Flip(0)
	q.Flip(0)
	// Status-bit flips must be involutive too.
	for _, b := range []uint64{128, 129, 130, 131, 132, 133} {
		q.Flip(b)
		q.Flip(b)
	}
	// Stuck bits apply on allocation.
	q.Stick(64, 1) // data bit 0 of entry 0
}

func TestCloneProducesIdenticalExecution(t *testing.T) {
	words := []uint32{
		must(isa.RvALUImm(isa.AluAdd, 5, isa.RvZero, 0)),
		must(isa.RvALUImm(isa.AluAdd, 6, isa.RvZero, 100)),
		must(isa.RvALUImm(isa.AluAdd, 5, 5, 3)),
		must(isa.RvBranch(isa.CondLTS, 5, 6, -4)),
		isa.RvSys(isa.MagicExit),
	}
	c1, h1 := buildSystem(t, words)
	// Run partway, clone, and compare final cycle counts.
	for i := 0; i < 50; i++ {
		c1.Step()
	}
	h2 := h1.Clone()
	c2 := c1.Clone(h2)
	run(t, c1, 100000)
	for i := 0; i < 100000 && !c2.Done(); i++ {
		c2.Step()
	}
	if c1.Cycle() != c2.Cycle() {
		t.Fatalf("clone diverged: %d vs %d cycles", c1.Cycle(), c2.Cycle())
	}
	if c1.Stats.Insts != c2.Stats.Insts {
		t.Fatalf("clone inst counts differ: %d vs %d", c1.Stats.Insts, c2.Stats.Insts)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.NumPhysRegs = 16 // fewer than architectural registers
	if err := cfg.Validate(isa.RV64L{}); err == nil {
		t.Error("tiny PRF should be rejected")
	}
	cfg = cpu.DefaultConfig()
	cfg.BimodalSize = 100
	if err := cfg.Validate(isa.RV64L{}); err == nil {
		t.Error("non-power-of-two bimodal should be rejected")
	}
	cfg = cpu.DefaultConfig()
	cfg.FetchBytes = 2
	if err := cfg.Validate(isa.X86L{}); err == nil {
		t.Error("fetch width below max instruction length should be rejected")
	}
}

func TestX86DivideByZeroTraps(t *testing.T) {
	m := mem.NewMemory(0, 1<<20, 40)
	h, err := mem.NewHierarchy(mem.HierarchyConfig{
		L1I: mem.CacheConfig{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L1D: mem.CacheConfig{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLat: 2},
		L2:  mem.CacheConfig{Name: "l2", SizeBytes: 1 << 15, LineBytes: 64, Ways: 8, HitLat: 10},
	}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var code []byte
	w, _ := isa.X86MovImm32(0, 10) // rax = 10
	code = append(code, w...)
	w, _ = isa.X86MovImm32(3, 0) // r3 = 0
	code = append(code, w...)
	code = append(code, isa.X86Div(false, 3)...)
	code = append(code, isa.X86Halt()...)
	if err := m.Write(0x1000, code); err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(isa.X86L{}, cpu.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	c.Boot(0x1000, 0xF0000, isa.X86SP)
	for i := 0; i < 10000 && !c.Done(); i++ {
		c.Step()
	}
	tr := c.Trap()
	if tr == nil || tr.Code != cpu.TrapDivZero {
		t.Fatalf("want divide-by-zero trap, got %v", tr)
	}
}

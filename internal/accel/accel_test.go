package accel

import (
	"math"
	"testing"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/program/ir"
)

func testDesign(t *testing.T, fus FUConfig) *Design {
	t.Helper()
	// Kernel: out[i] = in[i]*in[i] + 1 over 32 x u32.
	b := ir.New("sq")
	inB := b.Const(0x0000)
	outB := b.Const(0x1000)
	b.LoopN(32, func(i ir.Val) {
		v := b.Load(b.Add(inB, b.ShlI(i, 2)), 0, 4, false)
		r := b.Op2I(ir.OpAdd, ir.NoVal, b.Mul(v, v), 1)
		b.Store(b.Add(outB, b.ShlI(i, 2)), 0, r, 4)
	})
	b.Halt()
	return &Design{
		Name:   "sq",
		Kernel: b.MustProgram(),
		Banks: []BankSpec{
			{Name: "IN", Kind: SPM, Base: 0x0000, Size: 128},
			{Name: "OUT", Kind: RegBank, Base: 0x1000, Size: 128},
		},
		In:  []Xfer{{Arg: 0, Local: 0x0000, Len: 128}},
		Out: []Xfer{{Arg: 1, Local: 0x1000, Len: 128}},
		FUs: fus,
		Ops: 64,
	}
}

func testTask() Task {
	in := make([]byte, 128)
	for i := 0; i < 32; i++ {
		in[i*4] = byte(i)
	}
	return Task{
		Bufs: []HostBuf{
			{Arg: 0, Addr: 0x1000, Init: in, Len: 128},
			{Arg: 1, Addr: 0x2000, Len: 128},
		},
		OutArg: 1,
	}
}

func wantOutput() []byte {
	out := make([]byte, 128)
	for i := 0; i < 32; i++ {
		v := uint32(i*i + 1)
		out[i*4] = byte(v)
		out[i*4+1] = byte(v >> 8)
		out[i*4+2] = byte(v >> 16)
		out[i*4+3] = byte(v >> 24)
	}
	return out
}

func TestStandaloneEndToEnd(t *testing.T) {
	s, err := NewStandalone(testDesign(t, DefaultFUs()), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
	got, err := s.Output()
	if err != nil {
		t.Fatal(err)
	}
	want := wantOutput()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if s.Cluster.TaskCycles() == 0 {
		t.Fatal("no task cycles")
	}
}

func TestFUThrottlingSlowsKernel(t *testing.T) {
	fast, err := NewStandalone(testDesign(t, FUConfig{Adders: 8, Multipliers: 8, Dividers: 1, MemPorts: 8}), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Run(100000); err != nil {
		t.Fatal(err)
	}
	slow, err := NewStandalone(testDesign(t, FUConfig{Adders: 1, Multipliers: 1, Dividers: 1, MemPorts: 1}), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.Run(100000); err != nil {
		t.Fatal(err)
	}
	if slow.Cluster.TaskCycles() <= fast.Cluster.TaskCycles() {
		t.Fatalf("1-FU design (%d cycles) should be slower than 8-FU (%d)",
			slow.Cluster.TaskCycles(), fast.Cluster.TaskCycles())
	}
}

func TestBankTargetSemantics(t *testing.T) {
	b := NewBank(BankSpec{Name: "spm", Kind: SPM, Base: 0x100, Size: 64})
	if b.BitLen() != 64*8 {
		t.Fatalf("BitLen %d", b.BitLen())
	}
	if err := b.Write(0x100, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	b.Flip(3)
	buf := make([]byte, 1)
	if err := b.Read(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1<<3 {
		t.Fatalf("flip not visible: %#x", buf[0])
	}
	b.Stick(0, 1)
	if err := b.Write(0x100, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if err := b.Read(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0]&1 != 1 {
		t.Fatal("stuck bit must survive writes")
	}
	if err := b.Read(0x90, buf); err == nil {
		t.Fatal("out-of-range read should fail")
	}
	b.SetUsed(8)
	if b.Live(8 * 8) {
		t.Fatal("byte beyond used region should be dead")
	}
	if !b.Live(0) {
		t.Fatal("used byte should be live")
	}

	w := core.NewWatch(0)
	b.Observe(w)
	if w.State() != core.WatchPending {
		t.Fatal("watch should start pending")
	}
	if err := b.Read(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if w.State() != core.WatchRead {
		t.Fatal("read must resolve the watch")
	}
	w = core.NewWatch(0)
	b.Observe(w)
	if err := b.Write(0x100, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if w.State() != core.WatchDead {
		t.Fatal("overwrite must kill the watch")
	}
}

func TestRegBankSlowerThanSPM(t *testing.T) {
	spm := NewBank(BankSpec{Name: "s", Kind: SPM, Base: 0, Size: 8})
	rb := NewBank(BankSpec{Name: "r", Kind: RegBank, Base: 0, Size: 8})
	if rb.Latency() <= spm.Latency() {
		t.Fatal("register bank must model the delta read delay")
	}
}

func TestOutOfBankAccessFaults(t *testing.T) {
	b := ir.New("oob")
	base := b.Const(0x8000) // no bank there
	b.Store(base, 0, b.Const(1), 4)
	b.Halt()
	d := &Design{
		Name:   "oob",
		Kernel: b.MustProgram(),
		Banks:  []BankSpec{{Name: "IN", Kind: SPM, Base: 0, Size: 64}},
		FUs:    DefaultFUs(),
	}
	s, err := NewStandalone(d, Task{Bufs: []HostBuf{{Arg: 0, Addr: 0x1000, Len: 64}}, OutArg: 0})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(100000)
	if err == nil {
		t.Fatal("out-of-bank access must fault (the BFS crash mechanism)")
	}
}

// TestBankContainsWrapEdge: an access whose end wraps past 2^64 lies
// outside a bank at base 0, so it faults the engine instead of slicing
// out of range.
func TestBankContainsWrapEdge(t *testing.T) {
	bank := NewBank(BankSpec{Name: "IN", Kind: SPM, Base: 0, Size: 16})
	for _, c := range []struct {
		addr uint64
		n    int
		in   bool
	}{
		{0, 16, true}, {12, 4, true}, {13, 4, false}, {16, 0, true}, {0, 17, false},
		{math.MaxUint64 - 3, 4, false}, {math.MaxUint64, 1, false}, {math.MaxUint64 - 15, 16, false},
	} {
		if got := bank.Contains(c.addr, c.n); got != c.in {
			t.Errorf("Contains(%#x, %d) = %v, want %v", c.addr, c.n, got, c.in)
		}
	}
	if err := bank.Read(math.MaxUint64-3, make([]byte, 4)); err == nil {
		t.Error("read at 0xFFFFFFFFFFFFFFFC of a bank at base 0 succeeded")
	}

	b := ir.New("wrap")
	b.Load(b.Const(-4), 0, 4, false)
	b.Halt()
	d := &Design{
		Name:   "wrap",
		Kernel: b.MustProgram(),
		Banks:  []BankSpec{{Name: "IN", Kind: SPM, Base: 0, Size: 64}},
		FUs:    DefaultFUs(),
	}
	s, err := NewStandalone(d, Task{Bufs: []HostBuf{{Arg: 0, Addr: 0x1000, Len: 64}}, OutArg: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100000); err == nil || s.Cluster.Faulted() == nil {
		t.Fatalf("a load at 0xFFFFFFFFFFFFFFFC must fault the engine, got %v", err)
	}
	if v := classifyFaulty(s, 100000, nil); v.Outcome != classify.Crash || v.CrashCode != "accel-fault" {
		t.Errorf("wrapped load classified %+v, want an accel-fault crash", v)
	}
}

func TestMMRStartViaMMIOWrite(t *testing.T) {
	s, err := NewStandalone(testDesign(t, DefaultFUs()), testTask())
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Cluster
	// Drive through the MMIO interface like a CPU would.
	var buf [8]byte
	buf[0] = CtrlStart | CtrlIE
	if err := cl.MMIOWrite(0, buf[:]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && !cl.Done(); i++ {
		cl.Tick()
	}
	if !cl.Done() {
		t.Fatal("MMIO-started task did not complete")
	}
	if !cl.IRQ() {
		t.Fatal("completion must raise the interrupt line")
	}
	rd := make([]byte, 8)
	if err := cl.MMIORead(0, rd); err != nil {
		t.Fatal(err)
	}
	if rd[0]&CtrlDone == 0 {
		t.Fatal("CTRL done bit not visible over MMIO")
	}
}

func TestScheduledFlipChangesOutput(t *testing.T) {
	s, err := NewStandalone(testDesign(t, DefaultFUs()), testTask())
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit of OUT (bank 1) near the end of the run so it cannot be
	// overwritten.
	golden, err := NewStandalone(testDesign(t, DefaultFUs()), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(100000); err != nil {
		t.Fatal(err)
	}
	dur := golden.Cluster.TaskCycles()
	s.Cluster.ScheduleFlip(1, 0, dur-20)
	if err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Output()
	want, _ := golden.Output()
	same := true
	for i := range want {
		if got[i] != want[i] {
			same = false
		}
	}
	if same {
		t.Fatal("late flip in the output bank must be visible")
	}
}

func TestDesignValidate(t *testing.T) {
	d := testDesign(t, DefaultFUs())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *d
	bad.In = []Xfer{{Arg: 0, Local: 0x9999, Len: 8}}
	if err := bad.Validate(); err == nil {
		t.Fatal("transfer outside banks must be rejected")
	}
	bad2 := *d
	bad2.Banks = nil
	if err := bad2.Validate(); err == nil {
		t.Fatal("bankless design must be rejected")
	}
}

func TestAreaModelMonotonic(t *testing.T) {
	small := testDesign(t, FUConfig{Adders: 1, Multipliers: 1, Dividers: 1, MemPorts: 1})
	big := testDesign(t, FUConfig{Adders: 16, Multipliers: 16, Dividers: 2, MemPorts: 8})
	if AreaUnits(big) <= AreaUnits(small) {
		t.Fatal("more functional units must cost more area")
	}
}

func TestClusterClone(t *testing.T) {
	s, err := NewStandalone(testDesign(t, DefaultFUs()), testTask())
	if err != nil {
		t.Fatal(err)
	}
	s.Cluster.Start()
	for i := 0; i < 50; i++ {
		s.Cluster.Tick()
	}
	h2 := s.Host.Clone()
	c2 := s.Cluster.Clone(MemHostPort{h2})
	for !s.Cluster.Done() {
		s.Cluster.Tick()
	}
	for !c2.Done() {
		c2.Tick()
	}
	if s.Cluster.TaskCycles() != c2.TaskCycles() {
		t.Fatalf("clone diverged: %d vs %d", s.Cluster.TaskCycles(), c2.TaskCycles())
	}
}

// TestEngineHopBound pins the per-tick terminator bound: a chain of 17
// branch-only blocks ending in a halt-only block resolves at most 8
// terminators per tick, so it takes 3 ticks (8+8+2), not 2.
func TestEngineHopBound(t *testing.T) {
	b := ir.New("hops")
	for i := 0; i < 17; i++ {
		next := b.NewBlock()
		b.Br(next)
		b.SetBlock(next)
	}
	b.Halt()
	e, err := newEngine(b.MustProgram(), DefaultFUs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.start()
	for e.tick() {
	}
	if !e.finished || e.cycle != 3 {
		t.Fatalf("finished=%v after %d ticks, want true after 3", e.finished, e.cycle)
	}
}

// TestEngineRejectsOversizedBlock: the scheduler indexes instructions
// with int16, so a block past math.MaxInt16 instructions is an error, not
// a silent wrap.
func TestEngineRejectsOversizedBlock(t *testing.T) {
	b := ir.New("huge")
	v := b.Const(0)
	for i := 0; i < math.MaxInt16; i++ {
		b.Mov(v, v)
	}
	b.Halt()
	if _, err := newEngine(b.MustProgram(), DefaultFUs(), nil); err == nil {
		t.Fatal("newEngine accepted a block of more than math.MaxInt16 instructions")
	}
}

package accel

import (
	"fmt"

	"marvel/internal/mem"
	"marvel/internal/obs"
	"marvel/internal/program/ir"
)

// HostPort is the cluster's view of system memory for DMA transfers.
type HostPort interface {
	ReadHost(addr uint64, buf []byte) error
	WriteHost(addr uint64, data []byte) error
}

// MemHostPort adapts a plain memory as the DMA target (standalone mode).
type MemHostPort struct{ Mem *mem.Memory }

// ReadHost implements HostPort.
func (p MemHostPort) ReadHost(addr uint64, buf []byte) error { return p.Mem.Read(addr, buf) }

// WriteHost implements HostPort.
func (p MemHostPort) WriteHost(addr uint64, data []byte) error { return p.Mem.Write(addr, data) }

// Xfer describes one DMA transfer between a host buffer (whose address the
// host wrote into ARG[Arg]) and an accelerator-local address.
type Xfer struct {
	Arg   int
	Local uint64
	Len   int
}

// Design is a complete accelerator description: the kernel dataflow
// program, its memory components, its DMA plan, and its datapath sizing —
// the information gem5-SALAM reads from its YAML system description.
type Design struct {
	Name   string
	Kernel *ir.Program
	Banks  []BankSpec
	In     []Xfer
	Out    []Xfer
	FUs    FUConfig
	// Ops is the algorithmic operation count per task (for OPS/OPF).
	Ops float64
}

// Validate checks the design is self-consistent.
func (d *Design) Validate() error {
	if d.Kernel == nil {
		return fmt.Errorf("accel: design %s has no kernel", d.Name)
	}
	if err := d.Kernel.Validate(); err != nil {
		return err
	}
	if len(d.Banks) == 0 {
		return fmt.Errorf("accel: design %s has no memory banks", d.Name)
	}
	for _, x := range append(append([]Xfer(nil), d.In...), d.Out...) {
		found := false
		for _, b := range d.Banks {
			if x.Local >= b.Base && x.Local+uint64(x.Len) <= b.Base+uint64(b.Size) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("accel: design %s: transfer at %#x outside banks", d.Name, x.Local)
		}
	}
	return nil
}

// MMR offsets within the cluster's MMIO window (64-bit registers).
const (
	MMRCtrl   = 0x00 // bit0 start, bit1 done, bit2 irq-enable
	MMRArg0   = 0x08
	MMRCount  = 8 // ctrl + up to 7 args
	MMRBytes  = MMRCount * 8
	CtrlStart = 1 << 0
	CtrlDone  = 1 << 1
	CtrlIE    = 1 << 2
)

// DMABytesPerCycle is the modeled DMA bandwidth.
const DMABytesPerCycle = 8

type phase uint8

const (
	phIdle phase = iota
	phDMAIn
	phCompute
	phDMAOut
	phDone
)

func (p phase) String() string {
	switch p {
	case phIdle:
		return "idle"
	case phDMAIn:
		return "dma-in"
	case phCompute:
		return "compute"
	case phDMAOut:
		return "dma-out"
	case phDone:
		return "done"
	}
	return "phase?"
}

// Cluster is one instantiated accelerator: compute unit, banks, MMR block
// and DMA engine. It implements mem.Handler (MMIO) and the soc.Device
// Tick/IRQ contract.
type Cluster struct {
	design *Design
	banks  []*Bank
	eng    *engine
	host   HostPort

	mmr [MMRCount]uint64

	ph       phase
	dmaQueue []Xfer // remaining transfers: a suffix of design.In or design.Out, never written
	dmaPos   int    // bytes moved within the current transfer
	dmaBuf   [DMABytesPerCycle]byte
	cycle    uint64
	startCyc uint64
	doneCyc  uint64
	fault    error

	// Pending transient faults applied at given cluster cycles.
	pending []pendingFault

	// Trace receives fault-lifecycle events (flip application, phase
	// transitions) when non-nil. Not copied by Clone; ResetTo leaves it
	// alone so a campaign can arm it once per scratch.
	Trace obs.Tracer
}

type pendingFault struct {
	cycle uint64
	bank  int
	bit   uint64
}

// NewCluster instantiates a design over a host port.
func NewCluster(d *Design, host HostPort) (*Cluster, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{design: d, host: host}
	for _, bs := range d.Banks {
		c.banks = append(c.banks, NewBank(bs))
	}
	eng, err := newEngine(d.Kernel, d.FUs, c.banks)
	if err != nil {
		return nil, err
	}
	c.eng = eng
	return c, nil
}

// Design returns the instantiated design.
func (c *Cluster) Design() *Design { return c.design }

// Bank returns the named component (case-sensitive).
func (c *Cluster) Bank(name string) (*Bank, error) {
	for _, b := range c.banks {
		if b.spec.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("accel: %s has no bank %q", c.design.Name, name)
}

// Banks lists the cluster's memory components.
func (c *Cluster) Banks() []*Bank { return c.banks }

// SetArg writes an argument MMR directly (standalone host).
func (c *Cluster) SetArg(i int, v uint64) {
	if i >= 0 && i < MMRCount-1 {
		c.mmr[1+i] = v
	}
}

// Start triggers the task (standalone host equivalent of writing CTRL).
func (c *Cluster) Start() {
	c.mmr[0] |= CtrlStart | CtrlIE
	c.begin()
}

func (c *Cluster) begin() {
	c.ph = phDMAIn
	c.startCyc = c.cycle
	c.mmr[0] &^= CtrlDone
	c.dmaQueue = c.design.In
	c.dmaPos = 0
	c.fault = nil
	if len(c.dmaQueue) == 0 {
		c.ph = phCompute
		c.eng.start()
	}
	c.tracePhase()
}

// tracePhase reports the current phase to the tracer, if one is armed.
func (c *Cluster) tracePhase() {
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Cycle: c.cycle, Kind: obs.KindPhase, Target: c.design.Name, Detail: c.ph.String()})
	}
}

// Done reports task completion.
func (c *Cluster) Done() bool { return c.ph == phDone }

// Started reports whether the task has been triggered: false only for a
// pristine cluster still in the idle phase. Checkpoint-ladder restores
// resume mid-task and must not re-Start (begin rewinds the phase machine).
func (c *Cluster) Started() bool { return c.ph != phIdle }

// Faulted returns the accelerator-side error (out-of-range access), which
// the fault analysis classifies as a Crash.
func (c *Cluster) Faulted() error { return c.fault }

// Cycle returns the cluster-local cycle count.
func (c *Cluster) Cycle() uint64 { return c.cycle }

// TaskCycles returns start→done duration of the last task.
func (c *Cluster) TaskCycles() uint64 {
	if c.doneCyc >= c.startCyc {
		return c.doneCyc - c.startCyc
	}
	return 0
}

// ScheduleFlip arms a transient bit flip in bank index b at a cluster
// cycle (the campaign's injection mechanism).
func (c *Cluster) ScheduleFlip(bank int, bit, cycle uint64) {
	c.pending = append(c.pending, pendingFault{cycle: cycle, bank: bank, bit: bit})
}

// Tick implements soc.Device: advances DMA or compute by one cycle.
func (c *Cluster) Tick() {
	c.cycle++
	c.applyFlips()
	switch c.ph {
	case phDMAIn:
		c.stepDMA(true)
	case phCompute:
		if !c.eng.tick() {
			c.endCompute()
		}
	case phDMAOut:
		c.stepDMA(false)
	}
}

// applyFlips applies the scheduled transient flips due by this cycle.
func (c *Cluster) applyFlips() {
	for i := 0; i < len(c.pending); {
		if c.pending[i].cycle <= c.cycle {
			pf := c.pending[i]
			c.banks[pf.bank].Flip(pf.bit)
			if c.Trace != nil {
				c.Trace.Emit(obs.Event{Cycle: c.cycle, Kind: obs.KindBitFlipped, Target: c.banks[pf.bank].spec.Name, Bit: pf.bit})
			}
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			continue
		}
		i++
	}
}

// endCompute leaves the compute phase once the engine has stopped: on an
// engine fault the task ends, otherwise DMA-out begins.
func (c *Cluster) endCompute() {
	if c.eng.fault != nil {
		c.fault = c.eng.fault
		c.finish()
		return
	}
	c.ph = phDMAOut
	c.dmaQueue = c.design.Out
	c.dmaPos = 0
	if len(c.dmaQueue) == 0 {
		c.finish()
	} else {
		c.tracePhase()
	}
}

func (c *Cluster) finish() {
	c.ph = phDone
	c.doneCyc = c.cycle
	c.mmr[0] |= CtrlDone
	c.tracePhase()
}

// stepDMA moves up to DMABytesPerCycle bytes of the current transfer.
func (c *Cluster) stepDMA(in bool) {
	if len(c.dmaQueue) == 0 {
		if in {
			c.ph = phCompute
			c.eng.start()
			c.tracePhase()
		} else {
			c.finish()
		}
		return
	}
	x := c.dmaQueue[0]
	hostAddr := c.mmr[1+x.Arg] + uint64(c.dmaPos)
	localAddr := x.Local + uint64(c.dmaPos)
	n := x.Len - c.dmaPos
	if n > DMABytesPerCycle {
		n = DMABytesPerCycle
	}
	buf := c.dmaBuf[:n]
	var err error
	if in {
		if err = c.host.ReadHost(hostAddr, buf); err == nil {
			err = c.writeLocal(localAddr, buf)
		}
	} else {
		if err = c.readLocal(localAddr, buf); err == nil {
			err = c.host.WriteHost(hostAddr, buf)
		}
	}
	if err != nil {
		c.fault = err
		c.finish()
		return
	}
	c.dmaPos += n
	if c.dmaPos >= x.Len {
		c.dmaQueue = c.dmaQueue[1:]
		c.dmaPos = 0
		if len(c.dmaQueue) == 0 {
			if in {
				c.ph = phCompute
				c.eng.start()
				c.tracePhase()
			} else {
				c.finish()
			}
		}
	}
}

func (c *Cluster) writeLocal(addr uint64, data []byte) error {
	for _, b := range c.banks {
		if b.Contains(addr, len(data)) {
			return b.Write(addr, data)
		}
	}
	return fmt.Errorf("accel: DMA write at %#x outside banks", addr)
}

func (c *Cluster) readLocal(addr uint64, buf []byte) error {
	for _, b := range c.banks {
		if b.Contains(addr, len(buf)) {
			return b.Read(addr, buf)
		}
	}
	return fmt.Errorf("accel: DMA read at %#x outside banks", addr)
}

// IRQ implements soc.Device: raised while done with interrupts enabled.
func (c *Cluster) IRQ() bool {
	return c.mmr[0]&CtrlDone != 0 && c.mmr[0]&CtrlIE != 0
}

// MMIORead implements mem.Handler.
func (c *Cluster) MMIORead(addr uint64, buf []byte) error {
	off := addr & (MMRBytes - 1)
	reg := off / 8
	if int(reg) >= MMRCount {
		return fmt.Errorf("accel: MMR read at %#x", addr)
	}
	v := c.mmr[reg]
	for i := range buf {
		buf[i] = byte(v >> (8 * (off%8 + uint64(i)) % 64))
	}
	return nil
}

// MMIOWrite implements mem.Handler. Writing CTRL with the start bit set
// launches the task.
func (c *Cluster) MMIOWrite(addr uint64, data []byte) error {
	off := addr & (MMRBytes - 1)
	reg := off / 8
	if int(reg) >= MMRCount {
		return fmt.Errorf("accel: MMR write at %#x", addr)
	}
	v := c.mmr[reg]
	for i, d := range data {
		sh := 8 * ((off + uint64(i)) % 8)
		v = v&^(0xFF<<sh) | uint64(d)<<sh
	}
	c.mmr[reg] = v
	if reg == 0 && v&CtrlStart != 0 && c.ph == phIdle {
		c.begin()
	}
	return nil
}

// ResetTo rolls the cluster back to the state of its golden counterpart g
// (the cluster it was cloned from), dropping any scheduled transient flips
// and stuck-at faults the previous run applied. Bank contents and engine
// state are restored in place, so a reset on the steady path allocates
// nothing — the accelerator mirror of soc.System.Reset.
func (c *Cluster) ResetTo(g *Cluster) {
	c.mmr = g.mmr
	c.ph = g.ph
	c.dmaQueue = g.dmaQueue
	c.dmaPos = g.dmaPos
	c.cycle = g.cycle
	c.startCyc = g.startCyc
	c.doneCyc = g.doneCyc
	c.fault = g.fault
	c.pending = append(c.pending[:0], g.pending...)
	for i, b := range c.banks {
		b.ResetTo(g.banks[i])
	}
	c.eng.resetTo(g.eng)
}

// Clone deep-copies the cluster onto a new host port.
func (c *Cluster) Clone(host HostPort) *Cluster {
	n := *c
	n.host = host
	n.banks = make([]*Bank, len(c.banks))
	for i, b := range c.banks {
		n.banks[i] = b.Clone()
	}
	n.eng = c.eng.clone(n.banks)
	n.pending = append([]pendingFault(nil), c.pending...)
	n.Trace = nil
	return &n
}

var _ mem.Handler = (*Cluster)(nil)

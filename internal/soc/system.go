// Package soc assembles complete simulated systems: an out-of-order CPU
// with its cache hierarchy over main memory, optionally joined by
// accelerator clusters behind the MMIO bus with a GIC or PLIC interrupt
// controller — the heterogeneous SoC of the paper's Figure 1. It provides
// the deterministic run loop, output extraction, and whole-system
// checkpoint cloning that fault-injection campaigns fork from.
package soc

import (
	"fmt"

	"marvel/internal/cpu"
	"marvel/internal/isa"
	"marvel/internal/mem"
	"marvel/internal/program"
)

// MMIOBase is the start of the device address window.
const MMIOBase = 0x8000_0000

// RunStatus classifies how a simulation ended.
type RunStatus uint8

const (
	// RunCompleted means the program executed its halt instruction.
	RunCompleted RunStatus = iota
	// RunCrashed means an architectural exception terminated the run.
	RunCrashed
	// RunTimedOut means the cycle budget expired (hang); fault-effect
	// classification folds this into Crash.
	RunTimedOut
)

func (s RunStatus) String() string {
	switch s {
	case RunCompleted:
		return "completed"
	case RunCrashed:
		return "crashed"
	case RunTimedOut:
		return "timed-out"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// RunResult summarizes a simulation.
type RunResult struct {
	Status RunStatus
	Trap   *cpu.Trap
	Cycles uint64
	Output []byte
	Stats  cpu.Stats
}

// Device is a bus-attached component that advances with the system clock
// (accelerator clusters, DMA engines).
type Device interface {
	// Tick advances the device by one cycle.
	Tick()
	// IRQ reports whether the device requests an interrupt.
	IRQ() bool
}

// System is one simulated machine instance.
type System struct {
	CPU  *cpu.CPU
	Hier *mem.Hierarchy
	Mem  *mem.Memory
	Bus  *mem.Bus
	Img  *program.Image

	IntCtrl IntCtrl
	devices []Device

	// Injection-window markers captured from the program's magic
	// directives (m5_checkpoint / m5_switch_cpu).
	CheckpointCycle uint64
	SwitchCycle     uint64
	hasCheckpoint   bool
	hasSwitch       bool

	// CheckpointHook, when set, fires at the checkpoint directive (used by
	// campaigns to snapshot state).
	CheckpointHook func(cycle uint64)

	// golden is the frozen checkpoint this system was forked from (nil
	// for ordinary systems); Reset rolls back to it.
	golden *System
}

// New builds a CPU system around a compiled image.
func New(img *program.Image, ccfg cpu.Config, hcfg mem.HierarchyConfig, memLatency int) (*System, error) {
	hcfg.MMIOBase = MMIOBase
	m := mem.NewMemory(0, img.Prog.MemSize, memLatency)
	bus := mem.NewBus(4)
	h, err := mem.NewHierarchy(hcfg, m, bus)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(img.Arch, ccfg, h)
	if err != nil {
		return nil, err
	}
	if err := img.LoadInto(m); err != nil {
		return nil, err
	}
	c.Boot(img.Entry, img.InitialSP, img.SPReg)
	s := &System{CPU: c, Hier: h, Mem: m, Bus: bus, Img: img}
	s.IntCtrl = NewIntCtrl(img.Arch)
	s.hookMagic()
	return s, nil
}

func (s *System) hookMagic() {
	s.CPU.MagicHook = func(sel int64, cycle uint64) {
		switch sel {
		case isa.MagicCheckpoint:
			s.CheckpointCycle, s.hasCheckpoint = cycle, true
			if s.CheckpointHook != nil {
				s.CheckpointHook(cycle)
			}
		case isa.MagicSwitchCPU:
			s.SwitchCycle, s.hasSwitch = cycle, true
		}
	}
}

// AddDevice attaches a clocked device (accelerator cluster).
func (s *System) AddDevice(d Device) { s.devices = append(s.devices, d) }

// HasWindow reports whether the program declared an injection window via
// checkpoint/switch directives, and returns it.
func (s *System) HasWindow() (lo, hi uint64, ok bool) {
	if s.hasCheckpoint && s.hasSwitch {
		return s.CheckpointCycle, s.SwitchCycle, true
	}
	return 0, 0, false
}

// Step advances the whole system by one cycle.
func (s *System) Step() {
	irq := false
	for _, d := range s.devices {
		d.Tick()
		if d.IRQ() {
			irq = true
		}
	}
	if s.IntCtrl != nil {
		s.IntCtrl.Set(0, irq)
		s.CPU.SetIRQ(s.IntCtrl.Pending())
	}
	s.CPU.Step()
}

// Run executes until the program ends or the cycle budget expires, then
// extracts the output region coherently.
func (s *System) Run(budget uint64) RunResult {
	for !s.CPU.Done() && s.CPU.Cycle() < budget {
		s.Step()
	}
	res := RunResult{Cycles: s.CPU.Cycle(), Stats: s.CPU.Stats}
	switch {
	case s.CPU.Halted():
		res.Status = RunCompleted
		res.Output = s.Output()
	case s.CPU.Trap() != nil:
		res.Status = RunCrashed
		res.Trap = s.CPU.Trap()
	default:
		res.Status = RunTimedOut
	}
	return res
}

// RunChecked executes like Run but calls stop every `every` cycles; a true
// return ends the simulation early (used by the campaign's dead-fault
// early-termination optimization). The returned result reflects the state
// at stop time.
func (s *System) RunChecked(budget uint64, every uint64, stop func() bool) (RunResult, bool) {
	if every == 0 {
		every = 64
	}
	next := s.CPU.Cycle() + every
	for !s.CPU.Done() && s.CPU.Cycle() < budget {
		s.Step()
		if s.CPU.Cycle() >= next {
			if stop != nil && stop() {
				return RunResult{Status: RunTimedOut, Cycles: s.CPU.Cycle(), Stats: s.CPU.Stats}, true
			}
			next = s.CPU.Cycle() + every
		}
	}
	res := RunResult{Cycles: s.CPU.Cycle(), Stats: s.CPU.Stats}
	switch {
	case s.CPU.Halted():
		res.Status = RunCompleted
		res.Output = s.Output()
	case s.CPU.Trap() != nil:
		res.Status = RunCrashed
		res.Trap = s.CPU.Trap()
	default:
		res.Status = RunTimedOut
	}
	return res, false
}

// RunUntilCycle advances to the given absolute cycle (used to position a
// system at a fault's injection cycle before applying it).
func (s *System) RunUntilCycle(cycle uint64) {
	for !s.CPU.Done() && s.CPU.Cycle() < cycle {
		s.Step()
	}
}

// Output reads the program's declared output region coherently.
func (s *System) Output() []byte {
	p := s.Img.Prog
	if p.OutLen == 0 {
		return nil
	}
	buf := make([]byte, p.OutLen)
	if err := s.Hier.ReadBack(p.OutBase, buf); err != nil {
		return nil
	}
	return buf
}

// Clone returns an independent copy of the system (microarchitectural and
// architectural state), the checkpoint mechanism campaigns fork faulty
// runs from. The CPU core is copied; main memory and the caches share
// every page and cache block with s until either side writes them, and s
// gives up ownership of its buffers so it may keep running.
func (s *System) Clone() *System { return s.copyOver(s.Hier.Clone(), nil) }

// Fork creates a copy-on-write checkpoint fork of the system: main memory
// pages and cache blocks are shared read-only with s until written, the
// caches journal the sets they touch, and the CPU is copied once. A fork is meant to be
// reused across faulty runs via Reset, which rolls it back to s in time
// proportional to the state the previous run dirtied — the §IV-B forking
// speedup. The receiver becomes the frozen golden snapshot and must not
// be stepped afterwards; each fork belongs to a single goroutine, but
// many forks may share one snapshot. Like Clone, Fork does not carry
// attached devices.
func (s *System) Fork() *System { return s.copyOver(s.Hier.Fork(), s) }

// copyOver builds the copy Clone and Fork return: s's CPU core, markers
// and interrupt controller over the hierarchy h, rolling back to golden
// on Reset (nil for a clone).
func (s *System) copyOver(h *mem.Hierarchy, golden *System) *System {
	n := &System{
		CPU:             s.CPU.Clone(h),
		Hier:            h,
		Mem:             h.Mem,
		Bus:             s.Bus,
		Img:             s.Img,
		CheckpointCycle: s.CheckpointCycle,
		SwitchCycle:     s.SwitchCycle,
		hasCheckpoint:   s.hasCheckpoint,
		hasSwitch:       s.hasSwitch,
		golden:          golden,
	}
	if s.IntCtrl != nil {
		n.IntCtrl = s.IntCtrl.Clone()
	}
	n.hookMagic()
	return n
}

// Forked reports whether the system was created by Fork (and so supports
// Reset).
func (s *System) Forked() bool { return s.golden != nil }

// Reset rolls a forked system back to its golden snapshot, reusing the
// fork's storage: memory pages and cache blocks the run wrote get their
// golden buffers back (the private ones stay as spares), and CPU state is
// copied back. After Reset the system is
// indistinguishable from a fresh Clone of the snapshot.
func (s *System) Reset() {
	g := s.golden
	if g == nil {
		panic("soc: Reset on a system that was not created by Fork")
	}
	s.Hier.Reset()
	s.CPU.ResetTo(g.CPU)
	s.CheckpointCycle = g.CheckpointCycle
	s.SwitchCycle = g.SwitchCycle
	s.hasCheckpoint = g.hasCheckpoint
	s.hasSwitch = g.hasSwitch
	s.CheckpointHook = nil
	if g.IntCtrl != nil {
		s.IntCtrl = g.IntCtrl.Clone()
	}
	s.hookMagic()
}

// ForkCounters reports the cumulative copy-on-write work of a forked
// system (zeroes for ordinary systems).
func (s *System) ForkCounters() (pagesCopied, setsRestored uint64) {
	return s.Hier.ForkCounters()
}

package accel

import (
	"bytes"
	"fmt"
	"slices"

	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/metrics"
	"marvel/internal/program/ir"
)

// RunRebuildOracle is the reference the accelerator equivalence suites
// hold the dispatch kernel to: every fault runs serially on a harness
// rebuilt from scratch with NewStandalone — no fork, no reset, no ladder,
// no worker pool. Fixed budgets only (cfg.Faults faults).
func RunRebuildOracle(cfg CampaignConfig) (*CampaignResult, error) {
	g, err := PrepareGolden(cfg.Design, cfg.Task)
	if err != nil {
		return nil, err
	}
	in, err := g.injection(cfg)
	if err != nil {
		return nil, err
	}
	z := cfg.Z()
	res := &CampaignResult{
		Target:       cfg.Target,
		GoldenCycles: g.Cycles,
		GoldenOutput: g.Output,
		TargetBits:   in.bits,
		Summary: dispatch.Summary{
			Margin:    core.MarginFor(in.bits, cfg.Faults, z),
			Z:         z,
			Requested: cfg.Faults,
			Batches:   1,
		},
	}
	for i := 0; i < cfg.Faults; i++ {
		s, err := NewStandalone(cfg.Design, cfg.Task)
		if err != nil {
			return nil, fmt.Errorf("accel: rebuild oracle: %w", err)
		}
		f := in.fault(cfg, i)
		v := runFaulty(s, in.bankIdx, f, in.cycleBudget, g.Output, cfg.Trace, nil, int64(i))
		res.Records = append(res.Records, Record{Fault: f, Verdict: v})
		res.Counts.Add(v)
		res.Forking.Forks++
	}
	res.AchievedMargin = metrics.Confidence(res.Counts.AVF(), cfg.Faults, z).Half()
	return res, nil
}

// RunFaults dispatches faults through the campaign kernel over g exactly
// as RunCampaignWithGolden dispatches the population it draws — pruning
// pass, checkpoint ladder and the rungs the pass moves faults to — and
// returns their verdicts in order. cfg's sizing must be fixed; its fault
// count is ignored.
func RunFaults(cfg CampaignConfig, g *CampaignGolden, faults []core.Fault) ([]classify.Verdict, dispatch.Summary, error) {
	in, err := g.injection(cfg)
	if err != nil {
		return nil, dispatch.Summary{}, err
	}
	cfg.Faults = len(faults)
	return dispatch.Run(g.plan(cfg, in, faults))
}

// RunFull runs f the full way on a fork of g's pristine base, rung 0.
func RunFull(cfg CampaignConfig, g *CampaignGolden, f core.Fault) (classify.Verdict, error) {
	in, err := g.injection(cfg)
	if err != nil {
		return classify.Verdict{}, err
	}
	return runFaulty(g.base.Fork(), in.bankIdx, f, in.cycleBudget, g.Output, nil, nil, 0), nil
}

// PortEvent is one bank byte a port touched in the golden run, in the
// tick the clock read Cycle: a read returning Value, or an overwrite.
type PortEvent struct {
	Cycle, Byte uint64
	Read        bool
	Value       byte
}

// GoldenPortEvents runs g's task fault-free from its pristine base and
// returns every byte the ports of bank target touched, in order.
func GoldenPortEvents(g *CampaignGolden, target string) ([]PortEvent, error) {
	in, err := g.injection(CampaignConfig{Target: target})
	if err != nil {
		return nil, err
	}
	rec := g.base.Fork()
	log := &portLog{clock: rec.Cluster.Cycle}
	rec.Cluster.Banks()[in.bankIdx].Observe(log)
	if err := rec.Run(in.cycleBudget); err != nil {
		return nil, err
	}
	var out []PortEvent
	for _, e := range log.events {
		for j := uint64(0); j < e.n; j++ {
			pe := PortEvent{Cycle: e.cycle, Byte: e.at + j, Read: e.read}
			if e.read {
				pe.Value = e.data[j]
			}
			out = append(out, pe)
		}
	}
	return out, nil
}

// scanEngine is the scheduler the event-driven one replaced, kept only as
// a test oracle: every tick it rescans the whole current block and
// issues, in index order, each unissued non-terminator whose dependencies
// are all done, under the same FUConfig budgets; completions come from a
// flat event list compacted every tick. It borrows the engine's value,
// memory and branch semantics (alu, access, resolveTerminator) and keeps
// its own scheduling state, so the two differ only in how they choose
// what issues and when it completes.
type scanEngine struct {
	*engine
	deps    [][][]int16
	issued  []bool
	done    []bool
	doneCnt int
	events  []scanEvent
}

type scanEvent struct {
	cycle uint64
	instr int
	value uint64
	dst   ir.Val // NoVal: the completion writes no register
}

func newScanEngine(e *engine) *scanEngine {
	o := &scanEngine{engine: e, deps: make([][][]int16, len(e.prog.Blocks))}
	for bi := range e.prog.Blocks {
		o.deps[bi] = blockDeps(e.prog.Blocks[bi].Instrs)
	}
	return o
}

// enter resets the oracle's scheduling state for the engine's current
// block.
func (o *scanEngine) enter() {
	n := len(o.prog.Blocks[o.cur].Instrs)
	o.issued = make([]bool, n)
	o.done = make([]bool, n)
	o.doneCnt = 0
	o.events = o.events[:0]
}

func (o *scanEngine) issue(i, lat int, v uint64, dst ir.Val) {
	o.issued[i] = true
	o.events = append(o.events, scanEvent{cycle: o.cycle + uint64(lat), instr: i, value: v, dst: dst})
}

func (o *scanEngine) tick() bool {
	e := o.engine
	if !e.running {
		return false
	}
	if e.cycle == 0 {
		o.enter() // engine.start ran since the last tick
	}
	e.cycle++

	kept := o.events[:0]
	for _, ev := range o.events {
		if ev.cycle > e.cycle {
			kept = append(kept, ev)
			continue
		}
		if ev.dst != ir.NoVal {
			e.vals[ev.dst] = ev.value
		}
		o.done[ev.instr] = true
		o.doneCnt++
	}
	o.events = kept

	instrs := e.prog.Blocks[e.cur].Instrs
	for hops := 0; o.doneCnt == len(instrs)-1 && !o.issued[len(instrs)-1] && hops < 8; hops++ {
		e.resolveTerminator(&instrs[len(instrs)-1])
		if !e.running {
			return false
		}
		o.enter()
		instrs = e.prog.Blocks[e.cur].Instrs
	}

	adders, muls, divs, ports := e.fus.Adders, e.fus.Multipliers, e.fus.Dividers, e.fus.MemPorts
	for i := range instrs {
		in := &instrs[i]
		if o.issued[i] || in.Op.IsTerm() || !o.ready(i) {
			continue
		}
		switch in.Op {
		case ir.OpMul, ir.OpMulHU:
			if muls == 0 {
				continue
			}
			muls--
			o.issue(i, latMul, e.alu(in), in.Dst)
		case ir.OpDiv, ir.OpDivU, ir.OpRem, ir.OpRemU:
			if divs == 0 {
				continue
			}
			divs--
			o.issue(i, latDiv, e.alu(in), in.Dst)
		case ir.OpLoad, ir.OpStore:
			if ports == 0 {
				continue
			}
			ports--
			v, lat, ok := e.access(in)
			if !ok {
				return false
			}
			dst := in.Dst
			if in.Op == ir.OpStore {
				dst = ir.NoVal
			}
			o.issue(i, lat, v, dst)
		case ir.OpCheckpoint, ir.OpSwitchCPU, ir.OpWFI:
			o.issue(i, 1, 0, ir.NoVal)
		default:
			if adders == 0 {
				continue
			}
			adders--
			o.issue(i, latAdder, e.alu(in), in.Dst)
		}
	}
	return e.running
}

func (o *scanEngine) ready(i int) bool {
	for _, d := range o.deps[o.cur][i] {
		if !o.done[d] {
			return false
		}
	}
	return true
}

// clusterTick advances c one cycle exactly as Cluster.Tick does, except
// that the oracle schedules the compute phase.
func (o *scanEngine) clusterTick(c *Cluster) {
	if c.ph != phCompute {
		c.Tick()
		return
	}
	c.cycle++
	c.applyFlips()
	if !o.tick() {
		c.endCompute()
	}
}

// issuedSet reports which non-terminators of the current block have
// issued: an instruction whose dependencies are all done and that has left
// the ready set.
func (e *engine) issuedSet() []bool {
	n := len(e.prog.Blocks[e.cur].Instrs) - 1
	out := make([]bool, n)
	for i := range out {
		out[i] = e.pending[i] == 0 && e.ready[i/64]&(1<<(i%64)) == 0
	}
	return out
}

// ScanFlip is an optional transient flip for ScanLockstep: a bit of bank
// Bank, applied at cluster cycle Cycle.
type ScanFlip struct {
	Bank       int
	Bit, Cycle uint64
}

// ScanReport is the outcome ScanLockstep observed on both schedulers.
type ScanReport struct {
	Done         bool
	Faulted      bool
	TaskCycles   uint64
	ComputeTicks int
	Output       []byte
}

// ScanLockstep runs task on design d twice in lockstep, tick by tick: on
// the event-driven engine and under the scan-scheduler oracle, with the
// same optional transient flip. After every compute tick both must sit in
// the same block at the same cycle with the same instructions issued and
// the same values; at the end both must agree on completion, fault,
// TaskCycles and output. It returns the first divergence as an error.
func ScanLockstep(d *Design, task Task, flip *ScanFlip, budget uint64) (ScanReport, error) {
	a, err := NewStandalone(d, task)
	if err != nil {
		return ScanReport{}, err
	}
	b, err := NewStandalone(d, task)
	if err != nil {
		return ScanReport{}, err
	}
	if flip != nil {
		bit := flip.Bit % a.Cluster.banks[flip.Bank].BitLen()
		a.Cluster.ScheduleFlip(flip.Bank, bit, flip.Cycle)
		b.Cluster.ScheduleFlip(flip.Bank, bit, flip.Cycle)
	}
	ca, cb := a.Cluster, b.Cluster
	o := newScanEngine(cb.eng)
	ca.Start()
	cb.Start()
	var rep ScanReport
	for !ca.Done() && ca.Cycle() < budget {
		computing := ca.ph == phCompute
		ca.Tick()
		o.clusterTick(cb)
		if ca.ph != cb.ph || ca.cycle != cb.cycle {
			return rep, fmt.Errorf("cycle %d: phase %v vs oracle %v at cycle %d", ca.cycle, ca.ph, cb.ph, cb.cycle)
		}
		if !computing {
			continue
		}
		rep.ComputeTicks++
		ea, eb := ca.eng, cb.eng
		if ea.cur != eb.cur || ea.cycle != eb.cycle || ea.running != eb.running {
			return rep, fmt.Errorf("cycle %d: block %d engine cycle %d running %v, oracle %d/%d/%v",
				ca.cycle, ea.cur, ea.cycle, ea.running, eb.cur, eb.cycle, eb.running)
		}
		if ea.running {
			n := len(o.prog.Blocks[eb.cur].Instrs) - 1
			if got, want := ea.issuedSet(), o.issued[:n]; !slices.Equal(got, want) {
				return rep, fmt.Errorf("cycle %d block %d: issued %v, oracle %v", ca.cycle, ea.cur, got, want)
			}
		}
		if !slices.Equal(ea.vals, eb.vals) {
			return rep, fmt.Errorf("cycle %d block %d: values diverge from the oracle", ca.cycle, ea.cur)
		}
	}
	rep.Done = ca.Done()
	rep.Faulted = ca.Faulted() != nil
	rep.TaskCycles = ca.TaskCycles()
	if rep.Done != cb.Done() || rep.Faulted != (cb.Faulted() != nil) || rep.TaskCycles != cb.TaskCycles() {
		return rep, fmt.Errorf("end: done %v faulted %v %d cycles, oracle %v/%v/%d",
			rep.Done, rep.Faulted, rep.TaskCycles, cb.Done(), cb.Faulted() != nil, cb.TaskCycles())
	}
	outA, errA := a.Output()
	outB, errB := b.Output()
	if (errA == nil) != (errB == nil) || !bytes.Equal(outA, outB) {
		return rep, fmt.Errorf("end: output differs from the oracle's")
	}
	rep.Output = outA
	return rep, nil
}

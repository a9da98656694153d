package marvel

import (
	"marvel/internal/classify"
	"marvel/internal/obs"
	"marvel/internal/sweep"
)

// NewMetricsRegistry creates a campaign metrics registry to attach to
// CampaignOptions/AccelOptions/SweepOptions.Metrics, publish under expvar
// and serve via ServeDebug.
func NewMetricsRegistry() *obs.Registry { return obs.NewRegistry() }

// ServeDebug starts the runtime-introspection endpoint (JSON /metrics,
// Prometheus /metrics/prom, /debug/vars, /debug/pprof/) on addr for the
// given registry; it also publishes the registry under the expvar name
// "marvel". Close the returned server when the run finishes.
func ServeDebug(addr string, reg *obs.Registry) (*obs.DebugServer, error) {
	if err := reg.Publish("marvel"); err != nil {
		return nil, err
	}
	return obs.ServeDebug(addr, reg)
}

// ExplainOptions selects one campaign fault — coordinates plus every knob
// that shapes the fault space — for deterministic re-execution with full
// tracing. Fill the CPU fields (ISA, Workload, Target) or the accelerator
// fields (Design, Component), not both.
type ExplainOptions struct {
	// CPU fault coordinates.
	ISA      string
	Workload string
	Target   string // single structure or "prf+rob+iq" combination

	// Accelerator fault coordinates.
	Design    string
	Component string

	Model FaultModel
	// Seed and Index identify the fault: Index is the mask index inside
	// the campaign run with this Seed. Mask derivation is pure, so the
	// re-run reproduces campaign fault (Seed, Index) exactly.
	Seed  int64
	Index int

	// Campaign knobs that shape the fault space or classification; set
	// them to the values of the campaign being explained.
	BitsPerFault     int
	ValidOnly        bool
	EarlyTermination bool
	WatchdogFactor   float64
	PhysRegs         int
	Preset           string // "", "table2", "fast"
}

// TraceEvent is one fault-lifecycle observation of an explained run.
type TraceEvent struct {
	Cycle  uint64
	Kind   string // e.g. "bit-flipped", "divergence", "verdict"
	Target string
	Bit    uint64
	Commit int
	N      uint64
	Detail string
}

// ExplainedFault is one injected fault of the explained mask.
type ExplainedFault struct {
	Target string
	Bit    uint64
	Cycle  uint64 // injection cycle (transient models only)
	Model  FaultModel
}

// Explanation is the full story of one campaign fault: what was injected,
// what it did cycle by cycle, and how it was classified.
type Explanation struct {
	Kind  string // "cpu" or "accel"
	Index int
	Seed  int64

	Faults []ExplainedFault

	// Verdict fields — identical to the campaign record at this index.
	Verdict       string // "Masked", "SDC", "Crash"
	Reason        string // masking mechanism, when Masked
	CrashCode     string
	Cycles        uint64
	GoldenCycles  uint64
	EarlyStop     bool
	HVFCorrupt    bool
	DivergeCommit int // commit index of first divergence; -1 if none

	// Events is the retained cycle-ordered event timeline;
	// EventsDropped counts middle-of-stream events evicted by the
	// bounded sink.
	Events        []TraceEvent
	EventsDropped int
	// Narrative is the human-readable rendering: timeline lines plus a
	// concluding "why" sentence.
	Narrative []string
}

// grid is the one-cell sweep grid whose fault Index Explain re-runs, as
// CampaignOptions.Sweep is the grid a campaign runs. Faults = Index+1 is
// the smallest campaign that records that index; the other sizing knobs
// do not shape a single fault.
func (o ExplainOptions) grid() SweepOptions {
	spec := SweepOptions{
		Models:           []string{string(o.Model)},
		Faults:           o.Index + 1,
		Seed:             o.Seed,
		BitsPerFault:     o.BitsPerFault,
		ValidOnly:        o.ValidOnly,
		EarlyTermination: o.EarlyTermination,
		WatchdogFactor:   o.WatchdogFactor,
		PhysRegs:         o.PhysRegs,
		Preset:           o.Preset,
	}
	if o.ISA != "" || o.Workload != "" || o.Target != "" {
		spec.ISAs, spec.Workloads, spec.Targets = []string{o.ISA}, []string{o.Workload}, []string{o.Target}
	}
	if o.Design != "" || o.Component != "" {
		spec.Designs, spec.Components = []string{o.Design}, []string{o.Component}
	}
	return spec
}

// Validate resolves every name and the index without running anything,
// so the CLI fails fast with a usage error.
func (o ExplainOptions) Validate() error { return o.grid().ValidateExplain(o.Index) }

// Explain deterministically re-runs one campaign fault with tracing armed
// and narrates its propagation. It explains fault Index of the one-cell
// grid the options translate to, through the cell translation a campaign
// of that grid runs, so the verdict is bit-identical to the campaign's
// record at the same index — tracing only observes. CPU explanations
// always run the commit-trace comparison so the first architectural
// divergence is located even if the original campaign was AVF-only.
func Explain(o ExplainOptions) (*Explanation, error) {
	ex, err := sweep.Explain(o.grid(), o.Index)
	if err != nil {
		return nil, err
	}
	out := &Explanation{Kind: ex.Cell.Kind, Index: o.Index, Seed: o.Seed}
	var v classify.Verdict
	var events []obs.Event
	if c := ex.CPU; c != nil {
		v, events, out.EventsDropped = c.Verdict, c.Events, c.EventsDropped
		out.GoldenCycles = c.Golden.Cycles
		for _, f := range c.Mask.Faults {
			out.Faults = append(out.Faults, ExplainedFault{Target: f.Target, Bit: f.Bit, Cycle: f.Cycle, Model: FaultModel(f.Model.String())})
		}
	} else {
		a := ex.Accel
		v, events, out.EventsDropped = a.Verdict, a.Events, a.EventsDropped
		// The accelerator has no commit stream to diverge from.
		v.DivergeCommit = -1
		out.GoldenCycles = a.GoldenCycles
		out.Faults = []ExplainedFault{{Target: a.Fault.Target, Bit: a.Fault.Bit, Cycle: a.Fault.Cycle, Model: FaultModel(a.Fault.Model.String())}}
	}
	out.Verdict = v.Outcome.String()
	out.Reason = maskReason(v)
	out.CrashCode = v.CrashCode
	out.Cycles = v.Cycles
	out.EarlyStop = v.EarlyStop
	out.HVFCorrupt = v.HVFCorrupt
	out.DivergeCommit = v.DivergeCommit
	for _, e := range events {
		out.Events = append(out.Events, TraceEvent{
			Cycle: e.Cycle, Kind: e.Kind.String(), Target: e.Target,
			Bit: e.Bit, Commit: e.Commit, N: e.N, Detail: e.Detail,
		})
	}
	out.Narrative = obs.Narrative(events)
	return out, nil
}

// maskReason spells out the masking mechanism, empty for non-masked
// verdicts.
func maskReason(v classify.Verdict) string {
	if v.Outcome != classify.Masked {
		return ""
	}
	return v.Reason.String()
}

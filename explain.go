package marvel

import (
	"fmt"

	"marvel/internal/accel"
	"marvel/internal/campaign"
	"marvel/internal/classify"
	"marvel/internal/core"
	"marvel/internal/isa"
	"marvel/internal/machsuite"
	"marvel/internal/obs"
	"marvel/internal/program"
	"marvel/internal/sweep"
	"marvel/internal/workloads"
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

// Explain deterministically re-runs one campaign fault with tracing armed
// and narrates its propagation. The verdict is bit-identical to what a
// campaign with the same options would record at the same index — tracing
// only observes. CPU explanations always run the commit-trace comparison
// so the first architectural divergence is located even if the original
// campaign was AVF-only.
func Explain(o ExplainOptions) (*Explanation, error) {
	cpuSide := o.Workload != "" || o.ISA != "" || o.Target != ""
	accelSide := o.Design != "" || o.Component != ""
	switch {
	case cpuSide && accelSide:
		return nil, fmt.Errorf("marvel: explain: give CPU coordinates or accelerator coordinates, not both")
	case cpuSide:
		return explainCPU(o)
	case accelSide:
		return explainAccel(o)
	}
	return nil, fmt.Errorf("marvel: explain: no fault coordinates (need ISA/workload/target or design/component)")
}

func explainCPU(o ExplainOptions) (*Explanation, error) {
	a, err := isa.ByName(o.ISA)
	if err != nil {
		return nil, err
	}
	spec, err := workloads.ByName(o.Workload)
	if err != nil {
		return nil, err
	}
	model, err := core.ModelByName(string(o.Model))
	if err != nil {
		return nil, err
	}
	img, err := program.Compile(a, spec.Build())
	if err != nil {
		return nil, err
	}
	pre, err := sweep.PresetFor(o.Preset, o.PhysRegs)
	if err != nil {
		return nil, err
	}
	targets, err := sweep.SplitTarget(o.Target)
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{
		Image:            img,
		Preset:           pre,
		Model:            model,
		Seed:             o.Seed,
		BitsPerFault:     o.BitsPerFault,
		EarlyTermination: o.EarlyTermination,
		WatchdogFactor:   o.WatchdogFactor,
	}
	if o.ValidOnly {
		cfg.Domain = core.DomainValidOnly
	}
	if len(targets) > 1 {
		cfg.MultiTargets = targets
	} else {
		cfg.Target = targets[0]
	}
	ex, err := campaign.Explain(cfg, o.Index)
	if err != nil {
		return nil, err
	}
	out := &Explanation{
		Kind:          sweep.KindCPU,
		Index:         o.Index,
		Seed:          o.Seed,
		Verdict:       ex.Verdict.Outcome.String(),
		Reason:        maskReason(ex.Verdict),
		CrashCode:     ex.Verdict.CrashCode,
		Cycles:        ex.Verdict.Cycles,
		GoldenCycles:  ex.Golden.Cycles,
		EarlyStop:     ex.Verdict.EarlyStop,
		HVFCorrupt:    ex.Verdict.HVFCorrupt,
		DivergeCommit: ex.Verdict.DivergeCommit,
	}
	for _, f := range ex.Mask.Faults {
		out.Faults = append(out.Faults, ExplainedFault{Target: f.Target, Bit: f.Bit, Cycle: f.Cycle, Model: FaultModel(f.Model.String())})
	}
	fillEvents(out, ex.Events, 0)
	return out, nil
}

func explainAccel(o ExplainOptions) (*Explanation, error) {
	spec, err := machsuite.ByName(o.Design)
	if err != nil {
		return nil, err
	}
	model, err := core.ModelByName(string(o.Model))
	if err != nil {
		return nil, err
	}
	cfg := accel.CampaignConfig{
		Design:         spec.Design,
		Task:           spec.Task,
		Target:         o.Component,
		Model:          model,
		Seed:           o.Seed,
		WatchdogFactor: o.WatchdogFactor,
	}
	ex, err := accel.Explain(cfg, o.Index)
	if err != nil {
		return nil, err
	}
	out := &Explanation{
		Kind:          sweep.KindAccel,
		Index:         o.Index,
		Seed:          o.Seed,
		Verdict:       ex.Verdict.Outcome.String(),
		Reason:        maskReason(ex.Verdict),
		CrashCode:     ex.Verdict.CrashCode,
		Cycles:        ex.Verdict.Cycles,
		GoldenCycles:  ex.GoldenCycles,
		EarlyStop:     ex.Verdict.EarlyStop,
		DivergeCommit: -1,
		Faults: []ExplainedFault{{
			Target: ex.Fault.Target, Bit: ex.Fault.Bit, Cycle: ex.Fault.Cycle,
			Model: FaultModel(ex.Fault.Model.String()),
		}},
	}
	fillEvents(out, ex.Events, 0)
	return out, nil
}

// fillEvents converts and narrates the retained event stream. dropped is
// added to the sink's own eviction count (currently always 0 — the
// Explanation carries it so sinks with other policies can report theirs).
func fillEvents(out *Explanation, events []obs.Event, dropped int) {
	out.EventsDropped = dropped
	for _, e := range events {
		out.Events = append(out.Events, TraceEvent{
			Cycle: e.Cycle, Kind: e.Kind.String(), Target: e.Target,
			Bit: e.Bit, Commit: e.Commit, N: e.N, Detail: e.Detail,
		})
	}
	out.Narrative = obs.Narrative(events)
}

// maskReason spells out the masking mechanism, empty for non-masked
// verdicts.
func maskReason(v classify.Verdict) string {
	if v.Outcome != classify.Masked {
		return ""
	}
	return v.Reason.String()
}

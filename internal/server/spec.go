// Package server is the campaign-as-a-service layer: an HTTP daemon
// (`marvel serve`) that accepts JSON job submissions built from the
// facade's option structs, executes them through the sweep orchestrator
// on a bounded worker pool, and streams per-job progress and verdicts to
// watchers as JSONL or SSE.
//
// Every job — a single CPU campaign, a single accelerator campaign, or a
// full sweep — runs as a sweep grid, so a served job inherits the
// orchestrator's proven bit-reproducibility: the verdict-stream digest of
// a served campaign is identical to the same campaign run offline by the
// CLI. Jobs share one size-bounded LRU of prepared goldens, get their own
// metrics registry (served under the debug endpoint's /metrics/jobs), and
// have deterministic IDs derived from the submitted spec, which makes
// resubmission idempotent: posting the same spec twice returns the first
// job instead of running it again.
package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"marvel"
	"marvel/internal/sweep"
)

// Job kinds.
const (
	KindCampaign = "campaign"
	KindAccel    = "accel"
	KindSweep    = "sweep"
)

// Request is one submitted job: a kind plus exactly the matching facade
// option struct. Callback and registry fields of the option structs are
// excluded from JSON, so a Request is a pure value — which is what makes
// job IDs deterministic.
type Request struct {
	Kind string `json:"kind"`

	Campaign *marvel.CampaignOptions `json:"campaign,omitempty"`
	Accel    *marvel.AccelOptions    `json:"accel,omitempty"`
	Sweep    *marvel.SweepOptions    `json:"sweep,omitempty"`

	// Timeline, when non-empty, makes the daemon write the job's
	// per-worker Chrome trace-event timeline (including queue wait and
	// stream fan-out spans) to this server-side path. It participates in
	// the job ID — the same spec with and without a timeline is two jobs
	// — but omitempty keeps historical IDs for requests that never set
	// it.
	Timeline string `json:"timeline,omitempty"`
}

// Validate checks the request shape and resolves every name in the
// embedded options, so a bad submission is rejected with 400 before it
// ever reaches the queue.
func (r Request) Validate() error {
	switch r.Kind {
	case KindCampaign:
		if r.Campaign == nil {
			return fmt.Errorf(`server: kind "campaign" needs a campaign spec`)
		}
		if r.Accel != nil || r.Sweep != nil {
			return fmt.Errorf("server: exactly one spec per request")
		}
		return r.Campaign.Validate()
	case KindAccel:
		if r.Accel == nil {
			return fmt.Errorf(`server: kind "accel" needs an accel spec`)
		}
		if r.Campaign != nil || r.Sweep != nil {
			return fmt.Errorf("server: exactly one spec per request")
		}
		if r.Accel.GemmMultipliers > 0 {
			return fmt.Errorf("server: gemmMultipliers override is not available in service mode")
		}
		return r.Accel.Validate()
	case KindSweep:
		if r.Sweep == nil {
			return fmt.Errorf(`server: kind "sweep" needs a sweep spec`)
		}
		if r.Campaign != nil || r.Accel != nil {
			return fmt.Errorf("server: exactly one spec per request")
		}
		if r.Sweep.OutDir != "" {
			return fmt.Errorf("server: outDir persistence is not available in service mode")
		}
		return r.Sweep.Validate()
	case "":
		return fmt.Errorf(`server: missing job kind (want "campaign", "accel" or "sweep")`)
	}
	return fmt.Errorf("server: unknown job kind %q", r.Kind)
}

// ID derives the job's deterministic identity: an FNV-1a fingerprint of
// the canonical JSON encoding of the request (Go struct order is fixed,
// callbacks are excluded, so equal specs — including equal seeds — always
// map to the same ID). The request must already be validated.
func (r Request) ID() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Unreachable for a validated request: every serialized field is a
		// plain value type.
		panic(fmt.Sprintf("server: marshal request: %v", err))
	}
	h := fnv.New64a()
	_, _ = h.Write(b)
	return fmt.Sprintf("j-%016x", h.Sum64())
}

// grid is the sweep grid that executes the request. A campaign or
// accel job becomes its options' one-cell grid — the same grid the
// facade runs offline — which is what buys the service its
// differential guarantee: the cell runs through exactly the code path
// the sweep differential suite proves bit-identical to a standalone
// campaign.
func (r Request) grid() sweep.Spec {
	switch r.Kind {
	case KindCampaign:
		return r.Campaign.Sweep()
	case KindAccel:
		return r.Accel.Sweep()
	case KindSweep:
		return *r.Sweep
	}
	panic("server: grid on unvalidated request")
}

// TotalFaults is the job's budgeted fault count (cells × budget per
// cell), used for watcher progress; under adaptive sizing it is an upper
// bound. Returns 0 if the grid fails to plan, which a validated
// request's grid cannot.
func (r Request) TotalFaults() int64 {
	g := r.grid()
	cells, err := sweep.Plan(g)
	if err != nil {
		return 0
	}
	return int64(len(cells)) * int64(g.Sizing().Budget())
}

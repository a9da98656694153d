package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) rendering for registries.
// Counters become marvel_*_total series, derived rates become gauges,
// and the cell-latency histogram becomes a cumulative _bucket family.
// Per-job registries render as extra series on the same metric names
// with a job="<id>" label, so one scrape covers the daemon aggregate
// and every live job.

// PromContentType is the Content-Type for the exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

type promTarget struct {
	labels string // rendered label set, "" or `{job="x"}`
	snap   RegistrySnapshot
}

// WritePrometheus renders reg (unlabeled) and, when jobs is non-nil,
// every member registry (job-labeled) in Prometheus text format.
func WritePrometheus(w io.Writer, reg *Registry, jobs *RegistrySet) {
	targets := []promTarget{}
	if reg != nil {
		targets = append(targets, promTarget{labels: "", snap: reg.Snapshot()})
	}
	if jobs != nil {
		for _, k := range jobs.Keys() {
			r, ok := jobs.Lookup(k)
			if !ok {
				continue
			}
			targets = append(targets, promTarget{
				labels: `{job="` + promEscape(k) + `"}`,
				snap:   r.Snapshot(),
			})
		}
	}
	writePromTargets(w, targets)
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// mergeLabels joins an optional target label set with one extra
// key="value" pair.
func mergeLabels(base, extra string) string {
	if extra == "" {
		return base
	}
	if base == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(base, "}") + "," + extra + "}"
}

func writePromTargets(w io.Writer, targets []promTarget) {
	counter := func(name, help string, get func(RegistrySnapshot) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range targets {
			fmt.Fprintf(w, "%s%s %d\n", name, t.labels, get(t.snap))
		}
	}
	gauge := func(name, help string, get func(RegistrySnapshot) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, t := range targets {
			fmt.Fprintf(w, "%s%s %s\n", name, t.labels,
				strconv.FormatFloat(get(t.snap), 'g', -1, 64))
		}
	}

	counter("marvel_faults_done_total", "Classified fault injections.",
		func(s RegistrySnapshot) uint64 { return s.FaultsDone })
	counter("marvel_masked_total", "Faults classified Masked.",
		func(s RegistrySnapshot) uint64 { return s.Masked })
	counter("marvel_sdc_total", "Faults classified SDC.",
		func(s RegistrySnapshot) uint64 { return s.SDC })
	counter("marvel_crash_total", "Faults classified Crash.",
		func(s RegistrySnapshot) uint64 { return s.Crash })
	counter("marvel_early_stops_total", "Verdicts decided by early termination.",
		func(s RegistrySnapshot) uint64 { return s.EarlyStops })
	counter("marvel_faults_saved_total", "Budgeted injections skipped by adaptive sizing.",
		func(s RegistrySnapshot) uint64 { return s.FaultsSaved })
	counter("marvel_hvf_corrupt_total", "Runs whose commit trace diverged from golden.",
		func(s RegistrySnapshot) uint64 { return s.HVFCorrupt })
	counter("marvel_forks_total", "Fresh CoW checkpoint forks.",
		func(s RegistrySnapshot) uint64 { return s.Forks })
	counter("marvel_fork_reuses_total", "Per-fault setups served by scratch reset.",
		func(s RegistrySnapshot) uint64 { return s.ForkReuses })
	counter("marvel_pruned_total", "Faults decided by exact pruning, without a faulty run.",
		func(s RegistrySnapshot) uint64 { return s.Pruned })
	counter("marvel_rung_hits_total", "Faulty runs dispatched from a mid-window ladder rung.",
		func(s RegistrySnapshot) uint64 { return s.RungHits })
	counter("marvel_replayed_cycles_total", "Pre-injection cycles replayed between fork and injection.",
		func(s RegistrySnapshot) uint64 { return s.ReplayedCycles })
	counter("marvel_golden_runs_total", "Golden references built.",
		func(s RegistrySnapshot) uint64 { return s.GoldenRuns })
	counter("marvel_golden_hits_total", "Golden references served from cache.",
		func(s RegistrySnapshot) uint64 { return s.GoldenHits })
	counter("marvel_cells_started_total", "Sweep cells started.",
		func(s RegistrySnapshot) uint64 { return s.CellsStarted })
	counter("marvel_cells_finished_total", "Sweep cells finished.",
		func(s RegistrySnapshot) uint64 { return s.CellsFinished })
	counter("marvel_cells_skipped_total", "Sweep cells restored from a resume journal.",
		func(s RegistrySnapshot) uint64 { return s.CellsSkipped })

	gauge("marvel_faults_per_sec", "Classification rate since the first verdict.",
		func(s RegistrySnapshot) float64 { return s.FaultsPerSec })
	gauge("marvel_fork_reuse_rate", "Fraction of setups served by scratch reset.",
		func(s RegistrySnapshot) float64 { return s.ForkReuseRate })
	gauge("marvel_uptime_seconds", "Seconds since the registry was created.",
		func(s RegistrySnapshot) float64 { return s.UptimeSec })

	// Histogram: the power-of-two buckets are inclusive upper bounds on
	// integer milliseconds, so le is exact (2^i - 1). Counts are
	// cumulative as the format requires.
	name := "marvel_cell_latency_ms"
	fmt.Fprintf(w, "# HELP %s Per-cell wall-clock latency in milliseconds.\n# TYPE %s histogram\n", name, name)
	for _, t := range targets {
		var cum uint64
		for _, b := range t.snap.CellLatencyMS {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket%s %d\n", name,
				mergeLabels(t.labels, `le="`+strconv.FormatUint(b.UpperBound, 10)+`"`), cum)
		}
		count := cum
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(t.labels, `le="+Inf"`), count)
		fmt.Fprintf(w, "%s_sum%s %d\n", name, t.labels, t.snap.CellLatencySum)
		fmt.Fprintf(w, "%s_count%s %d\n", name, t.labels, count)
	}

	// Wall-clock attribution, when a profiler is attached.
	hasPhases := false
	for _, t := range targets {
		if t.snap.Profile != nil && len(t.snap.Profile.Phases) > 0 {
			hasPhases = true
		}
	}
	if hasPhases {
		fmt.Fprintf(w, "# HELP marvel_phase_seconds_total Wall-clock self-time attributed to a phase.\n# TYPE marvel_phase_seconds_total counter\n")
		for _, t := range targets {
			if t.snap.Profile == nil {
				continue
			}
			for _, p := range t.snap.Profile.Phases {
				fmt.Fprintf(w, "marvel_phase_seconds_total%s %s\n",
					mergeLabels(t.labels, `phase="`+promEscape(p.Phase)+`"`),
					strconv.FormatFloat(p.Seconds, 'g', -1, 64))
			}
		}
		fmt.Fprintf(w, "# HELP marvel_phase_spans_total Spans recorded per phase.\n# TYPE marvel_phase_spans_total counter\n")
		for _, t := range targets {
			if t.snap.Profile == nil {
				continue
			}
			for _, p := range t.snap.Profile.Phases {
				fmt.Fprintf(w, "marvel_phase_spans_total%s %d\n",
					mergeLabels(t.labels, `phase="`+promEscape(p.Phase)+`"`), p.Spans)
			}
		}
		fmt.Fprintf(w, "# HELP marvel_lane_busy_seconds_total Busy time per timeline lane.\n# TYPE marvel_lane_busy_seconds_total counter\n")
		for _, t := range targets {
			if t.snap.Profile == nil {
				continue
			}
			for _, l := range t.snap.Profile.Lanes {
				fmt.Fprintf(w, "marvel_lane_busy_seconds_total%s %s\n",
					mergeLabels(t.labels, `lane="`+promEscape(l.Lane)+`"`),
					strconv.FormatFloat(l.BusySec, 'g', -1, 64))
			}
		}
	}
}

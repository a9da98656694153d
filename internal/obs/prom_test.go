package obs

import (
	"bufio"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\S+)$`)

// checkPromExposition is a minimal text-format (version 0.0.4) checker:
// every line is a well-formed comment or sample, each metric declares
// HELP and TYPE exactly once and before its first sample, sample values
// parse as floats, and histogram _bucket series are cumulative with a
// +Inf bucket equal to _count per label set.
func checkPromExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	helps := map[string]bool{}
	samples := map[string][]string{} // metric -> label sets seen
	bucketCum := map[string]float64{}
	lastTarget := ""

	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			b := strings.TrimSuffix(name, suf)
			if b != name && types[b] == "histogram" {
				return b
			}
		}
		return name
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(f) != 2 || f[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", n, line)
			}
			if helps[f[0]] {
				t.Fatalf("line %d: duplicate HELP for %s", n, f[0])
			}
			helps[f[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line[len("# TYPE "):])
			if len(f) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", n, line)
			}
			if _, dup := types[f[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", n, f[0])
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", n, f[1])
			}
			types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", n, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", n, line)
		}
		name, labels, value := m[1], m[2], m[3]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			t.Fatalf("line %d: bad value %q: %v", n, value, err)
		}
		b := base(name)
		if types[b] == "" || !helps[b] {
			t.Fatalf("line %d: sample %s before its TYPE/HELP", n, name)
		}
		samples[b] = append(samples[b], labels)

		if types[b] == "histogram" && strings.HasSuffix(name, "_bucket") {
			// Cumulativity per target: strip the le pair to identify the
			// target's label set.
			target := regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(labels, "")
			if target != lastTarget {
				bucketCum = map[string]float64{}
				lastTarget = target
			}
			if v < bucketCum[target] {
				t.Fatalf("line %d: histogram bucket not cumulative: %q (%v < %v)",
					n, line, v, bucketCum[target])
			}
			bucketCum[target] = v
			if strings.Contains(labels, `le="+Inf"`) {
				key := b + "|" + target
				bucketCum[key+"-inf"] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, typ := range types {
		if len(samples[name]) == 0 && typ != "histogram" {
			t.Fatalf("metric %s declared but has no samples", name)
		}
	}
	return types
}

func TestWritePrometheusGlobalAndJobs(t *testing.T) {
	reg := NewRegistry()
	reg.AddVerdict("sdc", true, true)
	reg.AddVerdict("masked", false, false)
	reg.AddForkStats(2, 6)
	reg.CellLatencyMS.Observe(0)
	reg.CellLatencyMS.Observe(3)
	reg.CellLatencyMS.Observe(500)

	prof := NewProfiler()
	sp := prof.NewLane("worker-0").Begin(PhaseFaulty)
	sp.End()
	reg.AttachProfiler(prof)

	jobs := NewRegistrySet()
	j1 := jobs.Get("j-1")
	j1.AddVerdict("crash", false, false)
	jobs.Get(`j-quote"ed`).AddVerdict("masked", false, false)

	var b strings.Builder
	WritePrometheus(&b, reg, jobs)
	text := b.String()
	types := checkPromExposition(t, text)

	for metric, typ := range map[string]string{
		"marvel_faults_done_total":       "counter",
		"marvel_fork_reuses_total":       "counter",
		"marvel_faults_per_sec":          "gauge",
		"marvel_uptime_seconds":          "gauge",
		"marvel_cell_latency_ms":         "histogram",
		"marvel_phase_seconds_total":     "counter",
		"marvel_lane_busy_seconds_total": "counter",
	} {
		if types[metric] != typ {
			t.Fatalf("metric %s has type %q, want %q", metric, types[metric], typ)
		}
	}
	for _, want := range []string{
		"marvel_faults_done_total 2",
		`marvel_faults_done_total{job="j-1"} 1`,
		`marvel_faults_done_total{job="j-quote\"ed"} 1`,
		`marvel_cell_latency_ms_bucket{le="0"} 1`,
		`marvel_cell_latency_ms_bucket{le="3"} 2`,
		`marvel_cell_latency_ms_bucket{le="511"} 3`,
		`marvel_cell_latency_ms_bucket{le="+Inf"} 3`,
		"marvel_cell_latency_ms_sum 503",
		"marvel_cell_latency_ms_count 3",
		`marvel_cell_latency_ms_bucket{job="j-1",le="+Inf"} 0`,
		`marvel_phase_seconds_total{phase="faulty"}`,
		`marvel_phase_spans_total{phase="faulty"} 1`,
		`marvel_lane_busy_seconds_total{lane="worker-0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.AddVerdict("crash", false, false)
	jobs := NewRegistrySet()
	jobs.Get("j-abc").AddVerdict("sdc", false, false)

	srv, err := ServeDebugMux("127.0.0.1:0", NewDebugMux(reg, jobs))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string, wantCode int) (string, http.Header) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: %s, want %d", path, resp.Status, wantCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.Header
	}

	if body, _ := get("/metrics/jobs/j-abc", http.StatusOK); !strings.Contains(body, `"sdc": 1`) {
		t.Fatalf("/metrics/jobs/j-abc = %s", body)
	}
	get("/metrics/jobs/nope", http.StatusNotFound)

	body, hdr := get("/metrics/prom", http.StatusOK)
	if ct := hdr.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, PromContentType)
	}
	checkPromExposition(t, body)
	for _, want := range []string{
		"marvel_crash_total 1",
		`marvel_sdc_total{job="j-abc"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics/prom missing %q:\n%s", want, body)
		}
	}
}

// TestPrunedCounterExposed: faults decided by exact pruning
// reach the registry snapshot and the Prometheus exposition.
func TestPrunedCounterExposed(t *testing.T) {
	reg := NewRegistry()
	reg.Pruned.Add(3)
	if got := reg.Snapshot().Pruned; got != 3 {
		t.Fatalf("snapshot pruned = %d, want 3", got)
	}
	var b strings.Builder
	WritePrometheus(&b, reg, NewRegistrySet())
	checkPromExposition(t, b.String())
	if !strings.Contains(b.String(), "marvel_pruned_total 3\n") {
		t.Fatalf("exposition lacks marvel_pruned_total 3:\n%s", b.String())
	}
}

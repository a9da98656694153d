package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"marvel/internal/server"
)

// cmdSubmit posts a job to a running campaign service. The job spec
// comes either from -spec (a JSON file, "-" for stdin — any job kind)
// or from campaign/accel flags mirroring the offline subcommands. The
// job ID is deterministic in the spec, so resubmitting is idempotent.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	srvURL := fs.String("server", "http://localhost:8765", "campaign service base URL")
	specPath := fs.String("spec", "", `JSON job spec file ("-" = stdin); overrides the flag-built spec`)
	kind := fs.String("kind", "campaign", "flag-built job kind: campaign or accel (use -spec for sweeps)")
	isaName := fs.String("isa", "riscv", "ISA (campaign)")
	wl := fs.String("workload", "sha", "workload (campaign)")
	target := fs.String("target", "prf", `injection target (campaign); may be a "+"-joined combo`)
	design := fs.String("design", "gemm", "accelerator design (accel)")
	comp := fs.String("component", "MATRIX1", "Table IV component (accel)")
	model := fs.String("model", "transient", "fault model")
	sz := bindSizing(fs, "faults", "seed", "bits", "hvf", "validonly", "earlyterm", "margin", "confidence", "preset")
	wait := fs.Bool("wait", false, "stream the job's events until it finishes (submit + watch)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var body []byte
	if *specPath != "" {
		var err error
		if *specPath == "-" {
			body, err = io.ReadAll(os.Stdin)
		} else {
			body, err = os.ReadFile(*specPath)
		}
		if err != nil {
			return err
		}
	} else {
		var req server.Request
		switch *kind {
		case server.KindCampaign:
			opts := sz.campaign(*isaName, *wl, *target, *model)
			req = server.Request{Kind: server.KindCampaign, Campaign: &opts}
		case server.KindAccel:
			opts := sz.accel(*design, *comp, *model)
			req = server.Request{Kind: server.KindAccel, Accel: &opts}
		default:
			return usagef("unknown -kind %q (want campaign or accel; submit sweeps via -spec)", *kind)
		}
		if err := req.Validate(); err != nil {
			return usageError{err}
		}
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			return err
		}
	}

	resp, err := http.Post(strings.TrimRight(*srvURL, "/")+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
	case http.StatusTooManyRequests:
		return fmt.Errorf("service busy (retry after %ss): %s", resp.Header.Get("Retry-After"), strings.TrimSpace(string(payload)))
	default:
		return fmt.Errorf("submit failed: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	var st server.Status
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("bad service response: %w", err)
	}
	verb := "submitted"
	if resp.StatusCode == http.StatusOK {
		verb = "already known"
	}
	fmt.Printf("job %s %s (state %s, %d total faults)\n", st.ID, verb, st.State, st.TotalFaults)
	if *wait {
		return streamEvents(*srvURL, st.ID, 0)
	}
	fmt.Printf("watch with: marvel watch -server %s -job %s\n", *srvURL, st.ID)
	return nil
}

// cmdWatch streams a served job's event log (JSONL) to stdout until the
// job reaches a terminal state.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	srvURL := fs.String("server", "http://localhost:8765", "campaign service base URL")
	jobID := fs.String("job", "", "job ID to watch")
	from := fs.Int("from", 0, "first event sequence number to replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobID == "" {
		return usagef("watch needs -job")
	}
	return streamEvents(*srvURL, *jobID, *from)
}

func streamEvents(srvURL, jobID string, from int) error {
	url := fmt.Sprintf("%s/api/v1/jobs/%s/events?from=%d", strings.TrimRight(srvURL, "/"), jobID, from)
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("watch failed: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var terminal *server.Event
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fmt.Println(line)
		var e server.Event
		if json.Unmarshal([]byte(line), &e) == nil {
			switch e.Type {
			case server.EventDone, server.EventFailed, server.EventRejected:
				ev := e
				terminal = &ev
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if terminal != nil && terminal.Type != server.EventDone {
		return fmt.Errorf("job %s %s: %s", jobID, terminal.Type, terminal.Error)
	}
	return nil
}

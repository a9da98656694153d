package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marvel"
	"marvel/internal/obs"
	"marvel/internal/server"
	"marvel/internal/sweep"
)

// The served workload: an in-process campaign service on a loopback
// listener, driven by a closed loop of servedClients clients. Each client
// takes the next job of the pass's deck, posts it, reads the job's JSONL
// event stream until it is done, and only then takes another.
const (
	servedClients = 2
	// servedFaults per job and the Zipf(1) key skew are assumptions, not
	// measured traffic: a small interactive job, large enough that per-job
	// fixed costs do not dominate its latency.
	servedFaults = 16
	// servedDeckSize jobs make one pass (servedChecked in the self-test).
	servedDeckSize = 60
	// servedChecked jobs per pass are re-run offline through sweep.Run;
	// their digests must match the served ones.
	servedChecked = 4
)

// servedKeys are the (ISA, kernel) goldens jobs draw from, most popular
// first. There are more of them than the service's golden LRU holds
// (server.DefaultGoldenEntries = 8), so the cache both hits and misses.
var servedKeys = func() [][2]string {
	var keys [][2]string
	for _, k := range []string{"basicmath", "sha", "fft", "dijkstra", "qsort"} {
		for _, a := range isaNames {
			keys = append(keys, [2]string{a, k})
		}
	}
	return keys
}()

var (
	servedTargets = []string{"prf", "l1i", "l1d", "lq", "sq"}
	servedModels  = []marvel.FaultModel{marvel.Transient, marvel.StuckAt1}
)

func servedDeckLen(small bool) int {
	if small {
		return servedChecked
	}
	return servedDeckSize
}

func servedParams(small bool) string {
	return fmt.Sprintf("served clients=%d workers=2 campaignWorkers=1 keys=%v zipf=1 targets=%v models=%v faults=%d deck=%d ladder=8 validonly earlyterm checked=%d",
		servedClients, servedKeys, servedTargets, servedModels, servedFaults, servedDeckLen(small), servedChecked)
}

// servedDeck returns the jobs of one pass. The deck holds each golden key
// in proportion to its Zipf(1) popularity (largest-remainder rounding) and
// every (target, model) pair equally often, in one fixed shuffled order,
// so the golden LRU sees the same sequence of keys on every seed. The seed
// sets each job's campaign seed, and so its fault masks. The mix and the
// order of work thus do not move the figures from seed to seed.
func servedDeck(seed int64, size int) []marvel.CampaignOptions {
	weights := make([]float64, len(servedKeys))
	var total float64
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	counts := make([]int, len(servedKeys))
	rems := make([]int, len(servedKeys))
	left := size
	for i, w := range weights {
		counts[i] = int(w / total * float64(size))
		left -= counts[i]
		rems[i] = i
	}
	frac := func(i int) float64 { x := weights[i] / total * float64(size); return x - float64(int(x)) }
	sort.SliceStable(rems, func(x, y int) bool { return frac(rems[x]) > frac(rems[y]) })
	for _, i := range rems[:left] {
		counts[i]++
	}

	var deck []marvel.CampaignOptions
	for i, key := range servedKeys {
		for c := 0; c < counts[i]; c++ {
			j := len(deck)
			deck = append(deck, marvel.CampaignOptions{
				ISA:              key[0],
				Workload:         key[1],
				Target:           servedTargets[j%len(servedTargets)],
				Model:            servedModels[j/len(servedTargets)%len(servedModels)],
				Faults:           servedFaults,
				ValidOnly:        true,
				EarlyTermination: true,
				LadderRungs:      8,
			})
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(deck), func(x, y int) { deck[x], deck[y] = deck[y], deck[x] })
	for k := range deck {
		deck[k].Seed = seed*1_000_003 + int64(k)
	}
	return deck
}

// service is one running in-process campaign service.
type service struct {
	srv    *server.Server
	http   *http.Server
	url    string
	served chan error
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    server.New(server.Config{Workers: 2, CampaignWorkers: 1}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// stop shuts the listener and the job pool down and waits for both.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // streams have ended; a timeout leaves nothing to report
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("served: listener: %v\n", err)
	}
	s.srv.Manager.Drain()
}

// jobOutcome is what a client observed of one job.
type jobOutcome struct {
	k        int
	opts     marvel.CampaignOptions
	digest   string
	verdicts int
	wall     time.Duration // submit to done event
	cpu      time.Duration // host CPU time of the process over the same span
	err      error
}

// runJob submits job k and follows its event stream to the end.
func (s *service) runJob(client *http.Client, k int, opts marvel.CampaignOptions) jobOutcome {
	out := jobOutcome{k: k, opts: opts}
	body, err := json.Marshal(server.Request{Kind: server.KindCampaign, Campaign: &out.opts})
	if err != nil {
		out.err = err
		return out
	}
	watch := startWatch()
	resp, err := client.Post(s.url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	var st server.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case resp.StatusCode != http.StatusAccepted:
		out.err = fmt.Errorf("submit: %s", resp.Status)
		return out
	case err != nil:
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}

	resp, err = client.Get(s.url + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		out.err = err
		return out
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body) // read to the end so the connection is reused
		resp.Body.Close()
	}()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			out.err = fmt.Errorf("event stream: %w", err)
			return out
		}
		switch ev.Type {
		case server.EventVerdict:
			out.verdicts++
		case server.EventCell:
			if ev.Report != nil {
				out.digest = ev.Report.Digest
			}
		case server.EventDone:
			out.wall, out.cpu = watch.stop()
			return out
		case server.EventFailed, server.EventRejected:
			out.err = fmt.Errorf("job %s %s: %s", st.ID, ev.Type, ev.Error)
			return out
		}
	}
	out.err = fmt.Errorf("event stream of %s ended before done: %v", st.ID, sc.Err())
	return out
}

// offlineDigest runs the job's campaign through sweep.Run directly, the
// path the service's differential suite proves digest-identical.
func offlineDigest(o marvel.CampaignOptions) (string, error) {
	res, err := sweep.Run(sweep.Spec{
		ISAs: []string{o.ISA}, Workloads: []string{o.Workload}, Targets: []string{o.Target},
		Models: []string{string(o.Model)}, Faults: o.Faults, Seed: o.Seed,
		ValidOnly: o.ValidOnly, EarlyTermination: o.EarlyTermination, LadderRungs: o.LadderRungs,
		Workers: 1, CellParallel: 1,
	})
	if err != nil {
		return "", err
	}
	return res.Cells[0].Digest, nil
}

func runServed(b *bench) error {
	var started []*service
	setup, err := timedSetup(101, func() error {
		s, err := startService()
		if err == nil {
			started = append(started, s)
		}
		return err
	})
	for _, s := range started {
		s.stop()
	}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	lat := &latencies{}
	var (
		lastOutcomes []jobOutcome
		lastStats    server.Stats
		lastStatus   []server.Status
	)
	transport := &http.Transport{MaxIdleConnsPerHost: servedClients * 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// A pass runs the whole deck through a fresh service (cold golden
	// LRU). Every pass submits the same deck, so its digest covers every
	// job's verdict digest in deck order.
	deck := servedDeck(b.seed, servedDeckLen(b.small))
	pass := func(p int, prof *obs.Profiler) passOut {
		s, err := startService()
		if err != nil {
			b.attempted++
			b.fail("pass %d: start service: %v", p, err)
			return passOut{}
		}
		var (
			next     atomic.Int64
			outcomes = make([]jobOutcome, len(deck))
			wg       sync.WaitGroup
		)
		watch := startWatch()
		for c := 0; c < servedClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1) - 1); k < len(deck); k = int(next.Add(1) - 1) {
					outcomes[k] = s.runJob(client, k, deck[k])
				}
			}()
		}
		wg.Wait()
		window, cpu := watch.stop()
		// High-water state: the service with its golden LRU and job logs.
		heap := liveHeapMB()
		lastStats = s.srv.Manager.Stats()
		lastStatus = lastStatus[:0]
		for _, j := range s.srv.Manager.Jobs() {
			lastStatus = append(lastStatus, j.Status())
		}
		s.stop()

		runs := 0
		digests := make([]string, len(deck))
		for _, o := range outcomes {
			b.attempted++
			switch {
			case o.err != nil:
				b.fail("job %d: %v", o.k, o.err)
				continue
			case o.verdicts != servedFaults:
				b.fail("job %d streamed %d verdicts, want %d", o.k, o.verdicts, servedFaults)
			case o.digest == "":
				b.fail("job %d reported no cell digest", o.k)
			}
			runs += o.verdicts
			lat.add(o.wall, o.cpu)
			digests[o.k] = o.digest
		}
		lastOutcomes = outcomes
		return passOut{digest: fnvHex(strings.Join(digests, ";")), runs: runs, window: window, cpu: cpu, heapMB: heap}
	}

	m, err := measure(b, pass)
	if err != nil {
		return err
	}
	// Served digests must equal offline runs of the same campaigns.
	for _, o := range lastOutcomes {
		if o.k >= servedChecked || o.err != nil {
			continue
		}
		b.attempted++
		d, err := offlineDigest(o.opts)
		if err != nil {
			b.fail("offline job %d: %v", o.k, err)
		} else if d != o.digest {
			b.fail("job %d served digest %s, offline %s", o.k, o.digest, d)
		}
	}
	g := lastStats.Goldens
	b.say("faults_per_cpu_s=%.3f (classified injections per host CPU second) over %d jobs; golden LRU hits=%d misses=%d evictions=%d; throttled=%d",
		m.rate, len(lastOutcomes), g.Hits, g.Misses, g.Evictions, lastStats.Throttled)
	b.say("setup_s=%.6f (host CPU s to start the service and answer /healthz, median of 101)", setup)
	if !b.trace {
		lat.report(b, "served jobs (submit to done event)", m, setup)
		return nil
	}
	var queued, ran []float64
	for _, st := range lastStatus {
		if st.Started != nil && st.Finished != nil {
			queued = append(queued, float64(st.Started.Sub(st.Submitted).Nanoseconds())/1e6)
			ran = append(ran, float64(st.Finished.Sub(*st.Started).Nanoseconds())/1e6)
		}
	}
	b.set("server.queue_wait_ms_p50", median(queued))
	b.set("server.run_ms_p50", median(ran))
	p50, p90, n := lat.cpuQuantiles()
	b.set("server.job_p50_cpu_ms", p50)
	b.set("server.job_p90_cpu_ms", p90)
	b.say("job submit to done (host CPU clock): p50 %.3f ms, p90 %.3f ms, n=%d", p50, p90, n)
	b.set("server.lru_hit_ratio", float64(g.Hits)/float64(max(1, g.Hits+g.Misses)))
	b.set("server.throttled", float64(lastStats.Throttled))
	return nil
}

package campaign_test

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"marvel/internal/campaign"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/obs"
	"marvel/internal/sweep"
)

// TestProfilingDoesNotChangeVerdicts is the differential guard for the
// span layer: a campaign with a profiler attached must classify every
// fault bit-identically to the unprofiled campaign — span boundaries
// sit outside the simulated work. Covered serial and parallel, flat and
// laddered, with the optimization stack on.
func TestProfilingDoesNotChangeVerdicts(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	base := campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Model:  core.Transient,
		Sizing: dispatch.Sizing{Faults: 50},
		Seed:   7,
	}
	variants := []struct {
		name string
		mod  func(*campaign.Config)
	}{
		{"base", func(*campaign.Config) {}},
		{"ladder", func(c *campaign.Config) { c.LadderRungs = 4 }},
		{"validonly+earlyterm+hvf", func(c *campaign.Config) {
			c.Domain = core.DomainValidOnly
			c.EarlyTermination = true
			c.HVF = true
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.mod(&cfg)
			plain, err := campaign.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 4} {
				prof := cfg
				prof.Workers = workers
				prof.Profile = obs.NewProfiler()
				pr, err := campaign.Run(prof)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := sweep.DigestCPURecords(pr.Records), sweep.DigestCPURecords(plain.Records); got != want {
					t.Fatalf("profiled digest (%d workers) %s != unprofiled %s", workers, got, want)
				}
				snap := prof.Profile.Snapshot()
				if len(snap.Phases) == 0 || len(snap.Lanes) == 0 {
					t.Fatalf("profiler recorded nothing: %+v", snap)
				}
			}
		})
	}
}

// TestProfiledAttributionCoversWallClock pins the attribution accuracy
// contract: on a single-worker campaign with a prepared golden, the
// phase self-times (fork/reset/replay/faulty/classify + ladder, and the
// golden observation pass of stuck-at pruning) must account for nearly
// all of the engine's wall-clock — the spans bracket the expensive
// stages, so only mask generation and channel plumbing fall outside
// them.
func TestProfiledAttributionCoversWallClock(t *testing.T) {
	img := compileWorkload(t, "riscv", "crc32")
	for _, tc := range []struct {
		target string
		model  core.Model
	}{
		{"prf", core.Transient},
		// Almost every fault is pruned: the observation pass dominates.
		{"l1d", core.StuckAt1},
	} {
		t.Run(tc.target+"/"+tc.model.String(), func(t *testing.T) {
			cfg := campaign.Config{
				Image:   img,
				Preset:  config.Fast(),
				Target:  tc.target,
				Model:   tc.model,
				Sizing:  dispatch.Sizing{Faults: 60, Workers: 1},
				Seed:    5,
				Profile: obs.NewProfiler(),
			}
			waitedFrom := descheduled()
			start := time.Now()
			if _, err := campaign.Run(cfg); err != nil {
				t.Fatal(err)
			}
			wall := time.Since(start).Seconds()
			waited := (descheduled() - waitedFrom).Seconds()

			snap := cfg.Profile.Snapshot()
			var sum float64
			for _, p := range snap.Phases {
				sum += p.Seconds
			}
			// Time the process spent runnable but off a CPU stretches the
			// wall clock wherever it falls, and on a loaded host it falls
			// mostly in the handoffs between spans. Coverage is judged on
			// the time the process ran: up to the unattributed time is
			// excused.
			excused := max(0, min(waited, wall-sum))
			covered := sum / (wall - excused)
			t.Logf("attributed %.4fs of %.4fs wall (%.1f%%; %.4fs descheduled, %.1f%% of the rest), phases: %+v",
				sum, wall, 100*sum/wall, waited, 100*covered, snap.Phases)
			if covered < 0.95 {
				t.Errorf("phase self-times cover only %.1f%% of the wall-clock the process ran, want >= 95%%", 100*covered)
			}
			// Self-times are disjoint on a single worker lane (plus the
			// golden and ladder prep lanes, which precede the worker), so
			// the sum can never meaningfully exceed the wall.
			if ratio := sum / wall; ratio > 1.02 {
				t.Errorf("phase self-times cover %.1f%% of wall-clock; spans overlap", 100*ratio)
			}
		})
	}
}

// descheduled returns how long the threads of this process have been
// runnable but waiting for a CPU, summed over
// /proc/self/task/*/schedstat; 0 where that is unavailable.
func descheduled() time.Duration {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0
	}
	var ns int64
	for _, task := range tasks {
		b, err := os.ReadFile("/proc/self/task/" + task.Name() + "/schedstat")
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				ns += v
			}
		}
	}
	return time.Duration(ns)
}

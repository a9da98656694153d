package accel_test

// Deep forks: a fault the pruning pass saw read forks from the latest
// rung strictly before the tick of that read. These tests put a rung next
// to a fault's first golden read, where an off-by-one in the rung rule
// changes the run.

import (
	"fmt"
	"testing"

	"marvel/internal/accel"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/machsuite"
)

// edgeFault is a fault whose first golden read lands in tick seen.
type edgeFault struct {
	fault core.Fault
	seen  uint64
}

// edgeFaults picks, from a bank's golden port events, a stuck-at and a
// transient fault read for the first time after each quarter of a task
// of cycles ticks:
//   - a stuck-at-v bit whose earlier reads all returned v at the bit, and
//     which the read returns as !v;
//   - a transient injected in the tick after the last earlier access to
//     its byte, at least two ticks before the read, so the read is its
//     first access.
func edgeFaults(target string, events []accel.PortEvent, cycles uint64) []edgeFault {
	type history struct {
		last      uint64 // the tick of the latest access, 0 for none
		ones, all byte   // OR and AND of every value read so far
	}
	seen := map[uint64]*history{}
	var out []edgeFault
	stuckFrom, flipFrom := cycles/4, cycles/4
	for _, e := range events {
		h := seen[e.Byte]
		if h == nil {
			h = &history{all: 0xFF}
			seen[e.Byte] = h
		}
		if e.Read && e.Cycle >= stuckFrom && stuckFrom < cycles {
			for b := uint64(0); b < 8; b++ {
				m := byte(1) << b
				// Read as 1 now and only as 0 before, or the reverse.
				if d := e.Value & m; d != 0 && h.ones&m == 0 || d == 0 && h.all&m != 0 {
					model := core.StuckAt1
					if d != 0 {
						model = core.StuckAt0
					}
					out = append(out, edgeFault{core.Fault{Target: target, Bit: 8*e.Byte + b, Model: model}, e.Cycle})
					stuckFrom = e.Cycle + cycles/4
					break
				}
			}
		}
		if e.Read && e.Cycle >= flipFrom && flipFrom < cycles && h.last+2 < e.Cycle {
			f := core.Fault{Target: target, Bit: 8*e.Byte + e.Cycle%8, Cycle: h.last + 1, Model: core.Transient}
			out = append(out, edgeFault{f, e.Cycle})
			flipFrom = e.Cycle + cycles/4
		}
		h.last = e.Cycle
		if e.Read {
			h.ones |= e.Value
			h.all &= e.Value
		}
	}
	return out
}

// TestAccelDeepForkRungEdges holds faults on every design's Table IV
// components, each forked by the campaign kernel over a one-rung ladder,
// to their rung-0 full runs, with the rung at the two edges of the
// fault's first golden read:
//   - in the tick before the read, the fault forks from that rung: Stick
//     forces the stuck-at bit there, and an overdue flip lands in the
//     read's tick before its accesses;
//   - in the read's own tick the rung's snapshot comes after the read, so
//     the fault forks from rung 0.
func TestAccelDeepForkRungEdges(t *testing.T) {
	for _, spec := range machsuite.All() {
		g, err := accel.PrepareGolden(spec.Design, spec.Task)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, comp := range spec.Targets {
			events, err := accel.GoldenPortEvents(g, comp.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, ef := range edgeFaults(comp.Name, events, g.Cycles) {
				cfg := accel.CampaignConfig{
					Design: spec.Design, Task: spec.Task, Target: comp.Name,
					Sizing: dispatch.Sizing{LadderRungs: 1, Workers: 1},
				}
				want, err := accel.RunFull(cfg, g, ef.fault)
				if err != nil {
					t.Fatal(err)
				}
				// From rung 0 a transient replays up to its injection.
				var replay uint64
				if !ef.fault.Model.Permanent() {
					replay = ef.fault.Cycle
				}
				for _, edge := range []struct {
					name         string
					rung         uint64 // the rung's cycle
					hits, replay uint64
				}{
					{"the tick before", ef.seen - 1, 1, 0},
					{"its own tick", ef.seen, 0, replay},
				} {
					// A one-rung ladder puts its rung in the middle of
					// the injection window.
					cfg.WindowOverride = 2 * edge.rung
					label := fmt.Sprintf("%s/%s: %v read at %d, rung in %s", spec.Name, comp.Name, ef.fault, ef.seen, edge.name)
					got, sum, err := accel.RunFaults(cfg, g, []core.Fault{ef.fault})
					if err != nil {
						t.Fatal(err)
					}
					if got[0] != want {
						t.Errorf("%s: forked run %+v, rung-0 run %+v", label, got[0], want)
					}
					if f := sum.Forking; f.Rungs != 1 || f.Pruned != 0 || f.RungHits != edge.hits || f.ReplayedCycles != edge.replay {
						t.Errorf("%s: %d rungs, %d pruned, %d rung hits, %d replayed; want 1, 0, %d, %d",
							label, f.Rungs, f.Pruned, f.RungHits, f.ReplayedCycles, edge.hits, edge.replay)
					}
				}
				kind := "transient"
				if ef.fault.Model.Permanent() {
					kind = "stuck-at"
				}
				kinds[kind]++
				kinds[kind+" "+want.Outcome.String()]++
			}
		}
		t.Logf("%-10s %v", spec.Name, kinds)
		if kinds["stuck-at"] == 0 || kinds["transient"] == 0 {
			t.Errorf("%s: %d stuck-at and %d transient faults at rung edges; want some of each", spec.Name, kinds["stuck-at"], kinds["transient"])
		}
	}
}

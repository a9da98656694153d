package main

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// profPackages are the engine packages whose flat CPU time the traced run
// attributes (prof.share.<name>).
var profPackages = []string{"isa", "cpu", "mem", "soc", "accel", "campaign", "sweep", "server"}

// cpuProfile is a runtime/pprof CPU profile of the benchmark process.
type cpuProfile struct {
	f *os.File
}

func startCPUProfile(dir string) (*cpuProfile, error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // nothing was written; the start error is the one to report
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and folds `go tool pprof -top` into shares of the
// total sampled CPU time: flat time per engine package, plus the
// cumulative time under runtime.mallocgc (allocation, including GC assists
// charged to it) and under the background GC workers.
func (c *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := c.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", c.f.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTop(string(out))
}

// foldTop parses `go tool pprof -top -unit=ms` output.
func foldTop(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, p := range profPackages {
		shares[p] = 0
	}
	shares["runtime_malloc"], shares["runtime_gc"] = 0, 0
	var total float64
	for _, line := range strings.Split(top, "\n") {
		if _, rest, ok := strings.Cut(line, "% of "); ok && strings.HasSuffix(rest, " total") {
			v, err := parseMS(strings.TrimSuffix(rest, " total"))
			if err != nil {
				return nil, err
			}
			total = v
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := parseMS(f[0])
		cum, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			continue // the column header
		}
		fn := strings.Join(f[5:], " ")
		switch fn {
		case "runtime.mallocgc":
			shares["runtime_malloc"] += cum
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			shares["runtime_gc"] += cum
		}
		if pkg, ok := enginePackage(fn); ok {
			shares[pkg] += flat
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("go tool pprof: no total in output")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// enginePackage maps a symbol such as "marvel/internal/cpu.(*CPU).issue" to
// its profPackages name.
func enginePackage(fn string) (string, bool) {
	const prefix = "marvel/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	path := fn[len(prefix):]
	pkg, _, _ := strings.Cut(path, ".")
	return pkg, slices.Contains(profPackages, pkg)
}

func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp.Compare[string])
	return keys
}

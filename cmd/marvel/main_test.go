package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"marvel"
	"marvel/internal/campaign"
	"marvel/internal/classify"
	"marvel/internal/config"
	"marvel/internal/core"
	"marvel/internal/dispatch"
	"marvel/internal/isa"
	"marvel/internal/program"
	"marvel/internal/workloads"
)

// TestMain doubles as the CLI binary: when re-executed with
// MARVEL_RUN_MAIN=1 the test binary runs main() on its arguments, which
// lets the smoke tests below exercise real exit codes and real stdio
// without building the command separately.
func TestMain(m *testing.M) {
	if os.Getenv("MARVEL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI executes the CLI with args and returns stdout, stderr and the
// exit code.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MARVEL_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestListSmoke(t *testing.T) {
	stdout, _, code := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, want := range []string{"workloads:", "designs:", "MATRIX1"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestUnknownCommandExitsTwo(t *testing.T) {
	_, stderr, code := runCLI(t, "frobnicate")
	if code != 2 {
		t.Fatalf("unknown command exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown command") {
		t.Errorf("stderr %q missing diagnosis", stderr)
	}
}

// TestValidationExitsTwo is the exit-code contract: semantic flag
// validation (unknown names, bad combinations) diagnoses on stderr and
// exits 2 — distinct from runtime failures (exit 1) and success (0).
func TestValidationExitsTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"campaign bad target", []string{"campaign", "-target", "bogus", "-faults", "2"}, "unknown CPU target"},
		{"campaign bad isa", []string{"campaign", "-isa", "mips", "-faults", "2"}, "unknown architecture"},
		{"campaign bad model", []string{"campaign", "-model", "intermittent", "-faults", "2"}, "unknown fault model"},
		{"campaign zero faults", []string{"campaign", "-faults", "0"}, "fault count"},
		{"accel bad component", []string{"accel", "-design", "gemm", "-component", "MATRIX9", "-faults", "2"}, "no component"},
		{"accel gemm multipliers on fft", []string{"accel", "-design", "fft", "-component", "REAL", "-gemm-multipliers", "4", "-faults", "2"}, "gemm multipliers apply only to design gemm"},
		{"accel negative gemm multipliers", []string{"accel", "-gemm-multipliers", "-3", "-faults", "2"}, "gemm multipliers must be non-negative"},
		{"sweep empty grid", []string{"sweep", "-faults", "2"}, "empty grid"},
		{"sweep cpu grid without targets", []string{"sweep", "-isas", "riscv", "-faults", "2"}, "needs at least one ISA and one target"},
		{"sweep zero faults", []string{"sweep", "-isas", "riscv", "-targets", "prf", "-faults", "0"}, "fault count must be positive"},
		{"sweep negative ladder", []string{"sweep", "-isas", "riscv", "-targets", "prf", "-faults", "2", "-ladder", "-1"}, "ladder rungs must be non-negative"},
		{"sweep margin of one", []string{"sweep", "-isas", "riscv", "-targets", "prf", "-faults", "2", "-margin", "1"}, "target margin must be in [0, 1)"},
		{"sweep bad preset", []string{"sweep", "-isas", "riscv", "-targets", "prf", "-faults", "2", "-preset", "bogus"}, "unknown preset"},
		{"submit bad kind", []string{"submit", "-kind", "soc"}, "unknown -kind"},
		{"watch without job", []string{"watch"}, "needs -job"},
		{"campaign removed legacyclone", []string{"campaign", "-legacyclone", "-faults", "2"}, "flag provided but not defined: -legacyclone"},
		{"accel removed legacyrebuild", []string{"accel", "-legacyrebuild", "-faults", "2"}, "flag provided but not defined: -legacyrebuild"},
		{"explain bad isa", []string{"explain", "-isa", "mips", "-workload", "sha", "-target", "prf"}, "unknown architecture"},
		{"explain negative index", []string{"explain", "-isa", "riscv", "-workload", "sha", "-target", "prf", "-index", "-1"}, "index must be non-negative"},
		{"explain bad component", []string{"explain", "-design", "gemm", "-component", "MATRIX9"}, "no component"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exited %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q missing %q", stderr, tc.want)
			}
			if strings.Contains(stderr, "marvel: marvel:") {
				t.Errorf("stderr %q repeats the marvel: prefix", stderr)
			}
		})
	}
}

func TestSweepResumeMissingManifest(t *testing.T) {
	dir := t.TempDir()
	_, stderr, code := runCLI(t, "sweep",
		"-isas", "riscv", "-workloads", "crc32", "-targets", "prf",
		"-faults", "2", "-preset", "fast", "-quiet",
		"-out", dir, "-resume")
	if code != 2 {
		t.Fatalf("resume without manifest exited %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "nothing to resume") {
		t.Errorf("stderr %q missing clear resume diagnosis", stderr)
	}
	// A fresh run in the same directory, then -resume, succeeds.
	if _, stderr, code := runCLI(t, "sweep",
		"-isas", "riscv", "-workloads", "crc32", "-targets", "prf",
		"-faults", "2", "-preset", "fast", "-quiet", "-out", dir); code != 0 {
		t.Fatalf("fresh sweep exited %d: %s", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "sweep",
		"-isas", "riscv", "-workloads", "crc32", "-targets", "prf",
		"-faults", "2", "-preset", "fast", "-quiet", "-out", dir, "-resume")
	if code != 0 {
		t.Fatalf("resume exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "1 resumed") {
		t.Errorf("resume output %q does not show the restored cell", stdout)
	}
}

func TestCampaignSmoke(t *testing.T) {
	stdout, stderr, code := runCLI(t, "campaign",
		"-isa", "riscv", "-workload", "crc32", "-target", "prf",
		"-faults", "5", "-seed", "1", "-preset", "fast")
	if code != 0 {
		t.Fatalf("campaign exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "AVF=") || !strings.Contains(stdout, "masked=") {
		t.Errorf("campaign output missing verdict summary:\n%s", stdout)
	}
}

// TestProfileFlagsWritePprof checks that -cpuprofile and -memprofile on
// campaign, accel and sweep each leave a non-empty gzip-compressed pprof
// file behind.
func TestProfileFlagsWritePprof(t *testing.T) {
	for _, args := range [][]string{
		{"campaign", "-isa", "riscv", "-workload", "crc32", "-target", "prf", "-faults", "4", "-preset", "fast"},
		{"accel", "-design", "gemm", "-component", "MATRIX1", "-faults", "4"},
		{"sweep", "-isas", "riscv", "-workloads", "crc32", "-targets", "prf", "-faults", "4", "-preset", "fast", "-quiet"},
	} {
		t.Run(args[0], func(t *testing.T) {
			dir := t.TempDir()
			cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
			if _, stderr, code := runCLI(t, append(args, "-cpuprofile", cpu, "-memprofile", heap)...); code != 0 {
				t.Fatalf("%s exited %d: %s", args[0], code, stderr)
			}
			for _, path := range []string{cpu, heap} {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				zr, err := gzip.NewReader(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("%s: not gzip: %v", filepath.Base(path), err)
				}
				body, err := io.ReadAll(zr)
				if err != nil {
					t.Fatalf("%s: %v", filepath.Base(path), err)
				}
				if len(body) == 0 {
					t.Errorf("%s: empty profile", filepath.Base(path))
				}
			}
		})
	}
}

// TestExplainMatchesCampaignRecord replays one campaign fault through
// `marvel explain -json` and checks the verdict against what the real
// campaign records at that index — the explain path must observe, never
// perturb.
func TestExplainMatchesCampaignRecord(t *testing.T) {
	const seedV, indexV = int64(1), 3
	a, err := isa.ByName("riscv")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	img, err := program.Compile(a, ws.Build())
	if err != nil {
		t.Fatal(err)
	}
	var want classify.Verdict
	_, err = campaign.Run(campaign.Config{
		Image:  img,
		Preset: config.Fast(),
		Target: "prf",
		Sizing: dispatch.Sizing{Faults: indexV + 1},
		Seed:   seedV,
		Domain: core.DomainValidOnly,
		OnVerdict: func(i int, v classify.Verdict) {
			if i == indexV {
				want = v
			}
		},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	stdout, stderr, code := runCLI(t, "explain",
		"-isa", "riscv", "-workload", "crc32", "-target", "prf",
		"-seed", fmt.Sprint(seedV), "-index", fmt.Sprint(indexV),
		"-preset", "fast", "-json")
	if code != 0 {
		t.Fatalf("explain exited %d: %s", code, stderr)
	}
	var ex marvel.Explanation
	if err := json.Unmarshal([]byte(stdout), &ex); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, stdout)
	}
	if ex.Verdict != want.Outcome.String() {
		t.Errorf("explain verdict %s, campaign recorded %s", ex.Verdict, want.Outcome)
	}
	if ex.Cycles != want.Cycles {
		t.Errorf("explain cycles %d, campaign recorded %d", ex.Cycles, want.Cycles)
	}
}

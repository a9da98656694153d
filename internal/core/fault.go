// Package core contains the heart of the marvel fault-injection framework:
// the fault models of the paper's Table III (transient bit flips, permanent
// stuck-at faults, and multi-bit/multi-structure combinations), the Target
// interface implemented by every injectable hardware structure (physical
// register file, caches, load/store queues, scratchpad memories, register
// banks), fault-mask generation, and the statistical sample-size formula of
// Leveugle et al. used to size campaigns.
//
// core is a leaf package: the microarchitectural models in internal/mem,
// internal/cpu and internal/accel import it and implement Target; the
// campaign controller in internal/campaign drives everything.
package core

import (
	"fmt"
	"math"
)

// Model is a fault model from the paper's Table III.
type Model uint8

const (
	// Transient flips a storage bit at one clock cycle of the execution;
	// the corrupted value persists until the bit is next written.
	Transient Model = iota
	// StuckAt0 permanently forces a storage bit to 0 for the whole run.
	StuckAt0
	// StuckAt1 permanently forces a storage bit to 1 for the whole run.
	StuckAt1
)

func (m Model) String() string {
	switch m {
	case Transient:
		return "transient"
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// Permanent reports whether the model is a stuck-at fault.
func (m Model) Permanent() bool { return m == StuckAt0 || m == StuckAt1 }

// StuckBit is the value a permanent model holds its bit at: 1 for
// StuckAt1, 0 otherwise.
func (m Model) StuckBit() uint8 {
	if m == StuckAt1 {
		return 1
	}
	return 0
}

// ModelByName resolves a fault model from its String form; the empty
// string selects Transient (the campaign default).
func ModelByName(name string) (Model, error) {
	switch name {
	case "", "transient":
		return Transient, nil
	case "stuck-at-0":
		return StuckAt0, nil
	case "stuck-at-1":
		return StuckAt1, nil
	}
	return 0, fmt.Errorf("core: unknown fault model %q", name)
}

// Fault describes a single bit fault within one target structure.
type Fault struct {
	Target string // target structure name, e.g. "l1d", "prf"
	Bit    uint64 // bit coordinate within the structure's injection space
	Cycle  uint64 // injection cycle (transient faults only)
	Model  Model
}

func (f Fault) String() string {
	if f.Model == Transient {
		return fmt.Sprintf("%s@%s bit %d cycle %d", f.Model, f.Target, f.Bit, f.Cycle)
	}
	return fmt.Sprintf("%s@%s bit %d", f.Model, f.Target, f.Bit)
}

// Mask is one fault-injection experiment: the set of faults applied to a
// single simulation. Single-bit campaigns use one Fault per Mask; the
// multi-bit and multi-structure modes of the paper put several faults in
// one mask, with arbitrary spatial and temporal spread.
type Mask struct {
	ID     int
	Faults []Fault
}

// Target is implemented by every hardware structure that supports fault
// injection. Bit coordinates run from 0 to BitLen()-1 and cover the
// structure's storage (data arrays for caches and SPMs, value+metadata
// fields for queues).
type Target interface {
	// TargetName returns the structure identifier used in Fault.Target.
	TargetName() string
	// BitLen returns the size of the injection space in bits.
	BitLen() uint64
	// Live reports whether the entry holding the bit currently carries
	// live architectural state (valid cache line, allocated register,
	// occupied queue slot). Injecting into a dead entry is immediately
	// classified Masked when the campaign runs in valid-only mode.
	Live(bit uint64) bool
	// Flip inverts the bit once (transient fault).
	Flip(bit uint64)
	// Stick forces the bit to v (0 or 1) for the rest of the run
	// (permanent fault). Implementations re-apply the value after every
	// write to the containing storage.
	Stick(bit uint64, v uint8)
}

// Domain selects the population faults are drawn from.
type Domain uint8

const (
	// DomainWholeArray draws bits uniformly over the full structure, the
	// formulation of Leveugle et al. used by the paper.
	DomainWholeArray Domain = iota
	// DomainValidOnly draws bits uniformly over entries that are live at
	// injection time. This mirrors gem5-MARVEL's early termination of
	// invalid-entry hits while keeping every run informative; it changes
	// the AVF denominator and is reported separately.
	DomainValidOnly
)

// SampleSize returns the number of fault injections needed for the given
// error margin e and confidence level (expressed via the normal quantile t,
// e.g. 1.96 for 95%) over a population of n bits, using the formula of
// Leveugle et al. (DATE 2009) with the conservative p = 0.5.
//
// The paper's 1,000 faults per structure correspond to a 3% error margin at
// 95% confidence for the structure sizes of Table II.
func SampleSize(populationBits uint64, e, t float64) int {
	if populationBits == 0 {
		return 0
	}
	n := float64(populationBits)
	p := 0.5
	num := n
	den := 1 + e*e*(n-1)/(t*t*p*(1-p))
	return int(math.Ceil(num / den))
}

// MarginFor returns the error margin achieved by sample injections over a
// population of n bits at confidence quantile t (inverse of SampleSize).
func MarginFor(populationBits uint64, sample int, t float64) float64 {
	if populationBits == 0 || sample <= 0 {
		return 1
	}
	n := float64(populationBits)
	s := float64(sample)
	if s >= n {
		return 0
	}
	p := 0.5
	return t * math.Sqrt(p*(1-p)*(n-s)/(s*(n-1)))
}

package core

import (
	"cmp"
	"fmt"
	"slices"
)

// This file holds the campaign-level fault-coordinate derivation shared by
// the CPU campaign controller (internal/campaign) and the accelerator
// campaign loop (internal/accel). Both sides need the same property: every
// per-mask random quantity must be a pure function of campaign-level
// inputs (the campaign seed and the mask index), never of the execution
// schedule. Nothing about worker count, which worker picked a mask, run
// order, or the clone-vs-fork strategy may enter the derivation — that is
// what makes campaigns bit-reproducible under arbitrary parallelism.

// SplitMix64 is the finalizer of Vigna's SplitMix64 generator: a cheap,
// high-quality 64-bit mixing function used to derive per-mask random
// streams from campaign-level inputs.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Stream is a deterministic per-mask random stream. Two streams built from
// the same (seed, maskID, salt) triple produce identical sequences; the
// two SplitMix64 rounds in the constructor make streams of different masks
// statistically independent (a plain xor of the fields would let
// maskID<<32 collide with large salt values).
type Stream struct {
	state uint64
}

// MaskStream derives the stream for mask maskID of a campaign seeded with
// seed: the stream of the mask's first fault.
func MaskStream(seed int64, maskID int) Stream {
	return SaltedStream(seed, maskID, 0)
}

// SaltedStream derives a per-mask stream with an extra salt. Salts below
// 2^32 key distinct streams of one mask; the salt layout of a mask's
// streams is:
//
//	[0, 2^31)       fault k of the mask (MaskSpace.Mask)
//	[2^31, 2^32)    live-entry resampling (ResampleStream)
//
// so no derivation ever replays another's stream.
func SaltedStream(seed int64, maskID int, salt uint64) Stream {
	return Stream{state: SplitMix64(uint64(seed) ^ SplitMix64(uint64(maskID)<<32|salt))}
}

// maxMaskFaults bounds the faults one mask carries: fault salts stay below
// the resample salts.
const maxMaskFaults = 1 << 31

// ResampleStream derives the stream that redraws the dead bit of mask
// maskID (valid-only injection domain). It is keyed by the originally
// drawn bit, tagged with bit 31 so it never equals a fault stream of the
// same mask — a drawn bit of 0 would otherwise replay the mask's own
// first stream.
func ResampleStream(seed int64, maskID int, bit uint64) Stream {
	return SaltedStream(seed, maskID, maxMaskFaults|bit&(maxMaskFaults-1))
}

// Next advances the stream and returns the next 64-bit value.
func (s *Stream) Next() uint64 {
	s.state = SplitMix64(s.state)
	return s.state
}

// Uintn returns a value in [0, n). n must be positive. The modulo bias is
// negligible for the structure sizes and injection windows campaigns draw
// from (n << 2^64) and is in any case applied identically on every
// schedule, which is the property campaigns rely on.
func (s *Stream) Uintn(n uint64) uint64 {
	return s.Next() % n
}

// DeriveFault computes the single-bit fault of mask maskID purely from
// campaign-level inputs: the target's bit population, the half-open
// injection window [windowLo, windowHi) and the fault model. Transient
// faults get a cycle drawn uniformly from the window, while permanent
// faults hold for the whole run and carry none. Both engines draw from
// it: the accelerator campaigns of §V-G call it directly, and a CPU
// single-target, single-bit mask (MaskSpace.Mask) is exactly this fault.
// Because it is schedule-independent, serial and parallel campaigns see
// an identical mask population.
//
// The stream consumption is fixed — one draw for the bit, then one draw of
// windowHi-windowLo values offset by windowLo for the cycle — so a window
// of [1, w+1) reproduces the historical "[1, w]" population bit for bit.
// A degenerate window (windowHi <= windowLo) pins the cycle to windowLo
// while still consuming the cycle draw, keeping the bit stream aligned.
func DeriveFault(seed int64, maskID int, target string, model Model, bits, windowLo, windowHi uint64) Fault {
	st := MaskStream(seed, maskID)
	return st.fault(target, model, bits, windowLo, windowHi)
}

func (s *Stream) fault(target string, model Model, bits, windowLo, windowHi uint64) Fault {
	f := Fault{Target: target, Bit: s.Uintn(bits), Model: model}
	if model == Transient {
		span := uint64(1)
		if windowHi > windowLo {
			span = windowHi - windowLo
		}
		f.Cycle = windowLo + s.Uintn(span)
	}
	return f
}

// Structure is one injection target of a mask space: its name and the
// size of its bit population.
type Structure struct {
	Name string
	Bits uint64
}

// MaskSpace is the population a CPU campaign draws its masks from: the
// uniform (bit, cycle) sample of Leveugle et al. over one or more
// structures (the paper's multi-structure mode), with BitsPer faults per
// structure (multi-bit mode).
type MaskSpace struct {
	Targets  []Structure
	Model    Model
	BitsPer  int    // faults per structure per mask; <= 1 means one
	WindowLo uint64 // first cycle of the injection window (transient)
	WindowHi uint64 // one past the last cycle of the window (transient)
}

func (sp MaskSpace) perTarget() int { return max(sp.BitsPer, 1) }

// Validate rejects spaces no mask can be drawn from.
func (sp MaskSpace) Validate() error {
	if len(sp.Targets) == 0 {
		return fmt.Errorf("core: mask space has no target")
	}
	for _, t := range sp.Targets {
		if t.Bits == 0 {
			return fmt.Errorf("core: target %q has no injectable bits", t.Name)
		}
	}
	if sp.Model == Transient && sp.WindowHi <= sp.WindowLo {
		return fmt.Errorf("core: empty injection window [%d, %d)", sp.WindowLo, sp.WindowHi)
	}
	if n := sp.perTarget(); n > maxMaskFaults/len(sp.Targets) {
		return fmt.Errorf("core: %d faults per structure x %d structures exceeds %d faults per mask", n, len(sp.Targets), maxMaskFaults)
	}
	return nil
}

// Mask derives mask maskID purely from (seed, maskID) and the space.
// Fault k — structure k / BitsPer, k-th in structure-major order — is
// drawn from SaltedStream(seed, maskID, k) exactly as DeriveFault draws
// from MaskStream, so a single-structure, single-bit mask is
// DeriveFault(seed, maskID, ...). The faults are ordered by injection
// cycle (stable, so ties keep structure-major order), the order runs
// apply them in. sp must be valid.
func (sp MaskSpace) Mask(seed int64, maskID int) Mask {
	per := sp.perTarget()
	faults := make([]Fault, 0, per*len(sp.Targets))
	for ti, t := range sp.Targets {
		for j := 0; j < per; j++ {
			st := SaltedStream(seed, maskID, uint64(ti*per+j))
			faults = append(faults, st.fault(t.Name, sp.Model, t.Bits, sp.WindowLo, sp.WindowHi))
		}
	}
	slices.SortStableFunc(faults, func(a, b Fault) int { return cmp.Compare(a.Cycle, b.Cycle) })
	return Mask{ID: maskID, Faults: faults}
}

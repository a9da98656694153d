// Package isa defines the architectural layer shared by every CPU model in
// marvel: the micro-operation set executed by the out-of-order pipeline, the
// Arch interface implemented by each of the three instruction sets (RV64L,
// ARM64L, X86L), and the semantic helpers (ALU evaluation, condition codes,
// flags encoding) used by both the decoders and the execution engine.
//
// The pipeline never executes "instructions" directly: the fetch unit reads
// raw bytes from the L1 instruction cache and hands them to the active
// Arch's Decode method, which produces one or more MicroOps. Because decode
// consumes the literal cache bytes, a bit flip injected into the L1I data
// array corrupts decode exactly as it would in hardware: it can produce an
// illegal encoding (an exception once the instruction reaches commit), a
// different-but-valid instruction (silent wrong-path execution), or — on the
// variable-length X86L — desynchronize the decode of every subsequent
// instruction in the fetch stream.
package isa

import "fmt"

// Reg identifies an architectural register within an ISA. Each Arch declares
// how many registers exist; indices at or beyond the general-purpose count
// are ISA-internal (flags, micro-op temporaries).
type Reg uint8

// NoReg marks an unused register operand slot.
const NoReg Reg = 0xFF

// Kind is the micro-operation class, which selects the pipeline resources an
// operation needs (functional unit, load queue, store queue, ...).
type Kind uint8

// Micro-operation kinds.
const (
	KindNop     Kind = iota
	KindALU          // single-cycle integer op
	KindMul          // pipelined multiplier
	KindDiv          // unpipelined divider
	KindLoad         // memory read through the L1 data cache
	KindStore        // memory write, performed at commit
	KindBranch       // conditional control transfer
	KindJump         // unconditional direct control transfer
	KindJumpReg      // unconditional indirect control transfer
	KindHalt         // terminate the program
	KindWFI          // wait for interrupt
	KindMagic        // simulator directive (checkpoint, switch-cpu, ...)
	KindIllegal      // undecodable bytes; raises an exception at commit
)

func (k Kind) String() string {
	switch k {
	case KindNop:
		return "nop"
	case KindALU:
		return "alu"
	case KindMul:
		return "mul"
	case KindDiv:
		return "div"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	case KindJump:
		return "jump"
	case KindJumpReg:
		return "jumpr"
	case KindHalt:
		return "halt"
	case KindWFI:
		return "wfi"
	case KindMagic:
		return "magic"
	case KindIllegal:
		return "illegal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AluOp selects the integer operation computed by ALU, Mul and Div kinds.
type AluOp uint8

// Integer operations. Comparison ops produce 0 or 1. AluFlags computes the
// packed condition-flags word used by the flags-based ISAs (ARM64L, X86L).
const (
	AluAdd AluOp = iota
	AluSub
	AluAnd
	AluOr
	AluXor
	AluShl
	AluShrL
	AluShrA
	AluMul
	AluMulHU // high 64 bits of unsigned product
	AluDiv   // signed
	AluDivU
	AluRem
	AluRemU
	AluSltS // set if less-than, signed
	AluSltU
	AluSeq // set if equal
	AluFlags
	AluMovB   // pass through operand B (register move)
	AluSelect // Dst = Cond(flags in Src3) ? Src1 : Src2
	AluNumOps
)

// Magic directive selectors, carried in MicroOp.Imm of a KindMagic op. They
// mirror the gem5 pseudo-instructions the paper uses in Listing 1.
const (
	MagicExit       = 0 // m5_exit
	MagicCheckpoint = 1 // m5_checkpoint: start of the fault-injection window
	MagicSwitchCPU  = 2 // m5_switch_cpu: end of the fault-injection window
)

// Flag bits produced by AluFlags(a, b), describing the comparison a vs b.
const (
	FlagZ   uint64 = 1 << 0 // a == b
	FlagSLT uint64 = 1 << 1 // a < b, signed
	FlagULT uint64 = 1 << 2 // a < b, unsigned
)

// Cond is a branch, select or predication condition.
type Cond uint8

// Register-pair conditions compare Src1 against Src2; flags conditions test
// a previously computed flags word (in Src1 for branches, Src3 for selects).
const (
	CondNone Cond = iota
	CondAL        // always
	CondNV        // never
	// Register-pair conditions.
	CondEQ
	CondNE
	CondLTS
	CondGES
	CondLTU
	CondGEU
	// Flags-word conditions.
	CondFEQ
	CondFNE
	CondFLTS
	CondFGES
	CondFLES
	CondFGTS
	CondFLTU
	CondFGEU
	CondFLEU
	CondFGTU
	condNum
)

// MicroOp is the unit of work flowing through the pipeline. Decoders emit
// one MicroOp for simple instructions and several for cracked ones (X86L
// read-modify-write forms, ARM64L pre/post-indexed accesses).
type MicroOp struct {
	Kind Kind
	Alu  AluOp
	Cond Cond // branch/select condition
	Pred Cond // predication (ARM64L condition field); CondNone if unconditional

	Dst  Reg // destination register, NoReg if none
	Src1 Reg
	Src2 Reg
	Src3 Reg // store data / select flags / predicated old value
	SrcP Reg // flags source for predicated ops, NoReg otherwise

	Imm   int64 // immediate operand or memory displacement
	Scale uint8 // index scaling: EA = R[Src1] + R[Src2]<<Scale + Imm

	MemBytes  uint8 // access width for loads/stores: 1, 2, 4 or 8
	MemSigned bool  // sign-extend loads

	// Control-flow metadata filled by the decoder.
	PC     uint64 // address of the parent instruction
	NextPC uint64 // fall-through address (PC + encoded size)
	Target uint64 // taken target for direct branches/jumps

	Last bool // final micro-op of the parent instruction (commit boundary)
}

// NewUop returns a MicroOp with every register slot cleared to NoReg and
// the control-flow metadata filled in. Decoders must start from NewUop so
// that unused operand slots are never mistaken for register 0.
func NewUop(pc, nextPC uint64) MicroOp {
	return MicroOp{
		Dst: NoReg, Src1: NoReg, Src2: NoReg, Src3: NoReg, SrcP: NoReg,
		PC: pc, NextPC: nextPC,
	}
}

// IsMem reports whether the op occupies a load- or store-queue entry.
func (u *MicroOp) IsMem() bool { return u.Kind == KindLoad || u.Kind == KindStore }

// IsCtrl reports whether the op can redirect the instruction stream.
func (u *MicroOp) IsCtrl() bool {
	return u.Kind == KindBranch || u.Kind == KindJump || u.Kind == KindJumpReg
}

// MaxUops bounds the micro-ops one instruction cracks into: X86L div
// (quotient, remainder and two moves) is the longest crack.
const MaxUops = 4

// Decoded is the result of decoding one instruction's bytes. The micro-ops
// live inline, so decoding allocates nothing and a Decoded can be cached
// and copied by value.
type Decoded struct {
	uops [MaxUops]MicroOp
	n    uint8
	Size int // encoded length in bytes
}

// Uops returns the instruction's micro-ops, in program order; the last
// one has Last set. The slice aliases d.
func (d *Decoded) Uops() []MicroOp { return d.uops[:d.n] }

// decoded packs uops into a Decoded of the given encoded size. More than
// MaxUops micro-ops is a decoder bug and panics.
func decoded(size int, uops ...MicroOp) Decoded {
	d := Decoded{Size: size, n: uint8(len(uops))}
	for i, u := range uops {
		d.uops[i] = u
	}
	return d
}

// illegalOp is the decode of undecodable bytes: one KindIllegal micro-op
// covering size bytes, so the fault is raised architecturally at commit.
func illegalOp(pc uint64, size int) Decoded {
	u := NewUop(pc, pc+uint64(size))
	u.Kind, u.Last = KindIllegal, true
	return decoded(size, u)
}

// Traits captures the ISA-dependent behaviours that matter for fault
// propagation: whether an unaligned data access or a divide-by-zero raises
// an exception (a Crash in AVF terms) or is tolerated.
type Traits struct {
	TrapDivZero    bool // X86L traps; RV64L/ARM64L produce the defined result
	TrapUnaligned  bool // RV64L/ARM64L trap; X86L allows unaligned access
	FixedInstLen   int  // 0 for variable-length ISAs
	GPRs           int  // general-purpose registers visible to the compiler
	InterruptCtrl  string
	LinkOrFlagsReg Reg // flags register for flags-based ISAs, NoReg otherwise
}

// Arch is the contract every instruction set implements.
type Arch interface {
	// Name returns the ISA identifier ("riscv", "arm", "x86").
	Name() string
	// NumRegs returns the total architectural integer register count,
	// including internal registers (flags, decode temporaries).
	NumRegs() int
	// ZeroReg returns the hardwired-zero register, if the ISA has one.
	ZeroReg() (Reg, bool)
	// MaxInstLen is the longest possible encoding in bytes; fetch hands
	// Decode windows of exactly this many bytes.
	MaxInstLen() int
	// Decode decodes the instruction starting at the beginning of b, whose
	// virtual address is pc. It never fails: undecodable bytes yield a
	// single KindIllegal micro-op so the fault is raised architecturally
	// at commit, matching hardware behaviour.
	//
	// Decode reads only b[:MaxInstLen()] and is a pure function of pc and
	// those bytes: bytes past the window never change the result. The CPU
	// front end relies on this to memoize decode keyed on (pc, window).
	Decode(pc uint64, b []byte) Decoded
	// Traits reports ISA-dependent exception behaviour.
	Traits() Traits
}

// EvalAlu computes op over a and b. The divide-by-zero result follows the
// RISC-V convention (all-ones quotient, dividend remainder); ISAs that trap
// instead are handled by the pipeline via Traits.TrapDivZero.
func EvalAlu(op AluOp, a, b uint64) uint64 {
	switch op {
	case AluAdd:
		return a + b
	case AluSub:
		return a - b
	case AluAnd:
		return a & b
	case AluOr:
		return a | b
	case AluXor:
		return a ^ b
	case AluShl:
		return a << (b & 63)
	case AluShrL:
		return a >> (b & 63)
	case AluShrA:
		return uint64(int64(a) >> (b & 63))
	case AluMul:
		return a * b
	case AluMulHU:
		hi, _ := mul64(a, b)
		return hi
	case AluDiv:
		if b == 0 {
			return ^uint64(0)
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return a
		}
		return uint64(int64(a) / int64(b))
	case AluDivU:
		if b == 0 {
			return ^uint64(0)
		}
		return a / b
	case AluRem:
		if b == 0 {
			return a
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case AluRemU:
		if b == 0 {
			return a
		}
		return a % b
	case AluSltS:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case AluSltU:
		if a < b {
			return 1
		}
		return 0
	case AluSeq:
		if a == b {
			return 1
		}
		return 0
	case AluFlags:
		return EvalFlags(a, b)
	case AluMovB:
		return b
	}
	return 0
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	c = t >> 32
	m := t & mask
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + t>>32
	return hi, lo
}

// EvalFlags packs the comparison of a against b into a flags word.
func EvalFlags(a, b uint64) uint64 {
	var f uint64
	if a == b {
		f |= FlagZ
	}
	if int64(a) < int64(b) {
		f |= FlagSLT
	}
	if a < b {
		f |= FlagULT
	}
	return f
}

// EvalCond evaluates a condition. Register-pair conditions compare a
// against b; flags conditions interpret a as a flags word and ignore b.
func EvalCond(c Cond, a, b uint64) bool {
	switch c {
	case CondAL:
		return true
	case CondNV, CondNone:
		return false
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLTS:
		return int64(a) < int64(b)
	case CondGES:
		return int64(a) >= int64(b)
	case CondLTU:
		return a < b
	case CondGEU:
		return a >= b
	case CondFEQ:
		return a&FlagZ != 0
	case CondFNE:
		return a&FlagZ == 0
	case CondFLTS:
		return a&FlagSLT != 0
	case CondFGES:
		return a&FlagSLT == 0
	case CondFLES:
		return a&(FlagSLT|FlagZ) != 0
	case CondFGTS:
		return a&(FlagSLT|FlagZ) == 0
	case CondFLTU:
		return a&FlagULT != 0
	case CondFGEU:
		return a&FlagULT == 0
	case CondFLEU:
		return a&(FlagULT|FlagZ) != 0
	case CondFGTU:
		return a&(FlagULT|FlagZ) == 0
	}
	return false
}

// Negate returns the logical complement of a condition, used by decoders
// and code generators to invert branch sense.
func Negate(c Cond) Cond {
	switch c {
	case CondAL:
		return CondNV
	case CondNV:
		return CondAL
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLTS:
		return CondGES
	case CondGES:
		return CondLTS
	case CondLTU:
		return CondGEU
	case CondGEU:
		return CondLTU
	case CondFEQ:
		return CondFNE
	case CondFNE:
		return CondFEQ
	case CondFLTS:
		return CondFGES
	case CondFGES:
		return CondFLTS
	case CondFLES:
		return CondFGTS
	case CondFGTS:
		return CondFLES
	case CondFLTU:
		return CondFGEU
	case CondFGEU:
		return CondFLTU
	case CondFLEU:
		return CondFGTU
	case CondFGTU:
		return CondFLEU
	}
	return CondNV
}

// UsesFlags reports whether c tests a flags word rather than a register pair.
func UsesFlags(c Cond) bool { return c >= CondFEQ && c < condNum }

// ByName returns the Arch for one of the three supported ISA names.
func ByName(name string) (Arch, error) {
	switch name {
	case "riscv", "rv64l":
		return RV64L{}, nil
	case "arm", "arm64l":
		return ARM64L{}, nil
	case "x86", "x86l":
		return X86L{}, nil
	}
	return nil, fmt.Errorf("isa: unknown architecture %q", name)
}

// All returns the three ISAs in the order the paper's figures use.
func All() []Arch { return []Arch{ARM64L{}, X86L{}, RV64L{}} }

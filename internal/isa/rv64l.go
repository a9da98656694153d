package isa

// RV64L is the RISC-V-flavoured ISA: fixed 32-bit little-endian encodings,
// 31 general-purpose registers plus a hardwired zero, fused compare-and-
// branch instructions (no flags register), and a deliberately sparse opcode
// space in which several encoding bits are ignored by the decoder
// (funct7[29:26] and bit 31 for register-register ALU ops). Those
// "don't-care" bits model the paper's observation that RISC-V's simpler
// decode logic masks a larger share of instruction-cache bit flips.
type RV64L struct{}

// RV64L register conventions used by the code generator.
const (
	RvZero Reg = 0  // hardwired zero
	RvSP   Reg = 2  // stack pointer
	RvTmp0 Reg = 30 // reserved assembler scratch
	RvTmp1 Reg = 31 // reserved assembler scratch
)

// Major opcodes (bits [6:0]).
const (
	rvOp       = 0x33
	rvOpImm    = 0x13
	rvOpLoad   = 0x03
	rvOpStore  = 0x23
	rvOpBranch = 0x63
	rvOpLui    = 0x37
	rvOpJal    = 0x6F
	rvOpJalr   = 0x67
	rvOpSys    = 0x73
)

// Name implements Arch.
func (RV64L) Name() string { return "riscv" }

// NumRegs implements Arch. x0..x31.
func (RV64L) NumRegs() int { return 32 }

// ZeroReg implements Arch.
func (RV64L) ZeroReg() (Reg, bool) { return RvZero, true }

// MaxInstLen implements Arch.
func (RV64L) MaxInstLen() int { return 4 }

// Traits implements Arch.
func (RV64L) Traits() Traits {
	return Traits{
		TrapDivZero:    false,
		TrapUnaligned:  true,
		FixedInstLen:   4,
		GPRs:           32,
		InterruptCtrl:  "plic",
		LinkOrFlagsReg: NoReg,
	}
}

func rvEncR(f7 uint32, rs2, rs1 Reg, f3 uint32, rd Reg) uint32 {
	return f7<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | rvOp
}

func rvEncI(op uint32, imm int64, rs1 Reg, f3 uint32, rd Reg) uint32 {
	return uint32(imm&0xFFF)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | op
}

func rvEncS(imm int64, rs2, rs1 Reg, f3 uint32) uint32 {
	return uint32(imm>>5&0x7F)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 |
		f3<<12 | uint32(imm&0x1F)<<7 | rvOpStore
}

func rvEncB(imm int64, rs2, rs1 Reg, f3 uint32) uint32 {
	return uint32(imm>>12&1)<<31 | uint32(imm>>5&0x3F)<<25 |
		uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 |
		uint32(imm>>1&0xF)<<8 | uint32(imm>>11&1)<<7 | rvOpBranch
}

func rvEncJ(imm int64, rd Reg) uint32 {
	return uint32(imm>>20&1)<<31 | uint32(imm>>1&0x3FF)<<21 |
		uint32(imm>>11&1)<<20 | uint32(imm>>12&0xFF)<<12 | uint32(rd)<<7 | rvOpJal
}

// FitsImm12 reports whether v fits a 12-bit signed immediate.
func FitsImm12(v int64) bool { return v >= -2048 && v <= 2047 }

// RvALU encodes a register-register ALU operation. ok is false for
// operations RV64L cannot express in one instruction.
func RvALU(op AluOp, rd, rs1, rs2 Reg) (uint32, bool) {
	var f3, f7 uint32
	switch op {
	case AluAdd:
		f3, f7 = 0, 0
	case AluSub:
		f3, f7 = 0, 0x20
	case AluShl:
		f3, f7 = 1, 0
	case AluSltS:
		f3, f7 = 2, 0
	case AluSltU:
		f3, f7 = 3, 0
	case AluXor:
		f3, f7 = 4, 0
	case AluShrL:
		f3, f7 = 5, 0
	case AluShrA:
		f3, f7 = 5, 0x20
	case AluOr:
		f3, f7 = 6, 0
	case AluAnd:
		f3, f7 = 7, 0
	case AluMul:
		f3, f7 = 0, 1
	case AluMulHU:
		f3, f7 = 3, 1
	case AluDiv:
		f3, f7 = 4, 1
	case AluDivU:
		f3, f7 = 5, 1
	case AluRem:
		f3, f7 = 6, 1
	case AluRemU:
		f3, f7 = 7, 1
	default:
		return 0, false
	}
	return rvEncR(f7, rs2, rs1, f3, rd), true
}

// RvALUImm encodes a register-immediate ALU operation with a 12-bit signed
// immediate (6-bit for shifts).
func RvALUImm(op AluOp, rd, rs1 Reg, imm int64) (uint32, bool) {
	var f3 uint32
	switch op {
	case AluAdd:
		f3 = 0
	case AluSltS:
		f3 = 2
	case AluSltU:
		f3 = 3
	case AluXor:
		f3 = 4
	case AluOr:
		f3 = 6
	case AluAnd:
		f3 = 7
	case AluShl, AluShrL, AluShrA:
		if imm < 0 || imm > 63 {
			return 0, false
		}
		switch op {
		case AluShl:
			return rvEncI(rvOpImm, imm, rs1, 1, rd), true
		case AluShrL:
			return rvEncI(rvOpImm, imm, rs1, 5, rd), true
		default:
			return rvEncI(rvOpImm, imm|0x400, rs1, 5, rd), true
		}
	default:
		return 0, false
	}
	if !FitsImm12(imm) {
		return 0, false
	}
	return rvEncI(rvOpImm, imm, rs1, f3, rd), true
}

// RvLui encodes "load upper immediate": rd = imm20 << 12.
func RvLui(rd Reg, imm20 int64) uint32 {
	return uint32(imm20&0xFFFFF)<<12 | uint32(rd)<<7 | rvOpLui
}

// RvLoad encodes a load of the given width; imm must fit 12 bits signed.
func RvLoad(bytes uint8, signed bool, rd, rs1 Reg, imm int64) (uint32, bool) {
	if !FitsImm12(imm) {
		return 0, false
	}
	var f3 uint32
	switch {
	case bytes == 1 && signed:
		f3 = 0
	case bytes == 2 && signed:
		f3 = 1
	case bytes == 4 && signed:
		f3 = 2
	case bytes == 8:
		f3 = 3
	case bytes == 1:
		f3 = 4
	case bytes == 2:
		f3 = 5
	case bytes == 4:
		f3 = 6
	default:
		return 0, false
	}
	return rvEncI(rvOpLoad, imm, rs1, f3, rd), true
}

// RvStore encodes a store of the given width; imm must fit 12 bits signed.
func RvStore(bytes uint8, rs2, rs1 Reg, imm int64) (uint32, bool) {
	if !FitsImm12(imm) {
		return 0, false
	}
	var f3 uint32
	switch bytes {
	case 1:
		f3 = 0
	case 2:
		f3 = 1
	case 4:
		f3 = 2
	case 8:
		f3 = 3
	default:
		return 0, false
	}
	return rvEncS(imm, rs2, rs1, f3), true
}

// RvBranch encodes a fused compare-and-branch; off is the byte offset from
// the branch's own PC and must be even and fit 13 bits signed.
func RvBranch(c Cond, rs1, rs2 Reg, off int64) (uint32, bool) {
	if off < -4096 || off > 4095 || off&1 != 0 {
		return 0, false
	}
	var f3 uint32
	switch c {
	case CondEQ:
		f3 = 0
	case CondNE:
		f3 = 1
	case CondLTS:
		f3 = 4
	case CondGES:
		f3 = 5
	case CondLTU:
		f3 = 6
	case CondGEU:
		f3 = 7
	default:
		return 0, false
	}
	return rvEncB(off, rs2, rs1, f3), true
}

// RvJal encodes an unconditional jump; off must be even, 21 bits signed.
func RvJal(rd Reg, off int64) (uint32, bool) {
	if off < -(1<<20) || off >= 1<<20 || off&1 != 0 {
		return 0, false
	}
	return rvEncJ(off, rd), true
}

// RvJalr encodes an indirect jump to R[rs1]+imm.
func RvJalr(rd, rs1 Reg, imm int64) (uint32, bool) {
	if !FitsImm12(imm) {
		return 0, false
	}
	return rvEncI(rvOpJalr, imm, rs1, 0, rd), true
}

// RvSys encodes a simulator directive (MagicExit, MagicCheckpoint,
// MagicSwitchCPU) or WFI (sel=3).
func RvSys(sel int64) uint32 { return rvEncI(rvOpSys, sel, 0, 0, 0) }

// rvCondFromF3 maps a BRANCH funct3 back to a condition.
func rvCondFromF3(f3 uint32) (Cond, bool) {
	switch f3 {
	case 0:
		return CondEQ, true
	case 1:
		return CondNE, true
	case 4:
		return CondLTS, true
	case 5:
		return CondGES, true
	case 6:
		return CondLTU, true
	case 7:
		return CondGEU, true
	}
	return CondNone, false
}

func signExtend(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Decode implements Arch.
func (a RV64L) Decode(pc uint64, b []byte) Decoded {
	if len(b) < 4 {
		return illegalOp(pc, 4)
	}
	w := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	op := w & 0x7F
	rd := Reg(w >> 7 & 0x1F)
	f3 := w >> 12 & 7
	rs1 := Reg(w >> 15 & 0x1F)
	rs2 := Reg(w >> 20 & 0x1F)
	f7 := w >> 25 & 0x7F
	u := NewUop(pc, pc+4)
	u.Last = true

	switch op {
	case rvOp:
		// Decode examines only funct7 bits 30 (alternate op) and 25
		// (multiply/divide group); the remaining funct7 bits are
		// don't-cares, so single-bit flips there are masked.
		alt := f7>>5&1 == 1
		mext := f7&1 == 1
		u.Kind, u.Dst, u.Src1, u.Src2 = KindALU, rd, rs1, rs2
		switch {
		case mext:
			switch f3 {
			case 0:
				u.Kind, u.Alu = KindMul, AluMul
			case 3:
				u.Kind, u.Alu = KindMul, AluMulHU
			case 4:
				u.Kind, u.Alu = KindDiv, AluDiv
			case 5:
				u.Kind, u.Alu = KindDiv, AluDivU
			case 6:
				u.Kind, u.Alu = KindDiv, AluRem
			case 7:
				u.Kind, u.Alu = KindDiv, AluRemU
			default:
				return illegalOp(pc, 4)
			}
		default:
			switch f3 {
			case 0:
				if alt {
					u.Alu = AluSub
				} else {
					u.Alu = AluAdd
				}
			case 1:
				u.Alu = AluShl
			case 2:
				u.Alu = AluSltS
			case 3:
				u.Alu = AluSltU
			case 4:
				u.Alu = AluXor
			case 5:
				if alt {
					u.Alu = AluShrA
				} else {
					u.Alu = AluShrL
				}
			case 6:
				u.Alu = AluOr
			case 7:
				u.Alu = AluAnd
			}
		}
	case rvOpImm:
		imm := signExtend(uint64(w>>20), 12)
		u.Kind, u.Dst, u.Src1, u.Src2, u.Imm = KindALU, rd, rs1, NoReg, imm
		switch f3 {
		case 0:
			u.Alu = AluAdd
		case 1:
			u.Alu, u.Imm = AluShl, int64(w>>20&0x3F)
		case 2:
			u.Alu = AluSltS
		case 3:
			u.Alu = AluSltU
		case 4:
			u.Alu = AluXor
		case 5:
			// Bit 30 selects arithmetic shift; bits 31 and 26..29 of
			// the immediate field are ignored for shifts.
			if w>>30&1 == 1 {
				u.Alu = AluShrA
			} else {
				u.Alu = AluShrL
			}
			u.Imm = int64(w >> 20 & 0x3F)
		case 6:
			u.Alu = AluOr
		case 7:
			u.Alu = AluAnd
		}
	case rvOpLoad:
		imm := signExtend(uint64(w>>20), 12)
		u.Kind, u.Dst, u.Src1, u.Src2, u.Imm = KindLoad, rd, rs1, NoReg, imm
		switch f3 {
		case 0:
			u.MemBytes, u.MemSigned = 1, true
		case 1:
			u.MemBytes, u.MemSigned = 2, true
		case 2:
			u.MemBytes, u.MemSigned = 4, true
		case 3:
			u.MemBytes = 8
		case 4:
			u.MemBytes = 1
		case 5:
			u.MemBytes = 2
		case 6:
			u.MemBytes = 4
		default:
			return illegalOp(pc, 4)
		}
	case rvOpStore:
		if f3 > 3 {
			return illegalOp(pc, 4)
		}
		imm := signExtend(uint64(w>>25<<5|w>>7&0x1F), 12)
		u.Kind, u.Src1, u.Src3, u.Imm = KindStore, rs1, rs2, imm
		u.MemBytes = 1 << f3
	case rvOpBranch:
		c, ok := rvCondFromF3(f3)
		if !ok {
			return illegalOp(pc, 4)
		}
		off := signExtend(uint64(w>>31&1)<<12|uint64(w>>7&1)<<11|
			uint64(w>>25&0x3F)<<5|uint64(w>>8&0xF)<<1, 13)
		u.Kind, u.Cond, u.Src1, u.Src2 = KindBranch, c, rs1, rs2
		u.Target = pc + uint64(off)
	case rvOpLui:
		u.Kind, u.Alu, u.Dst, u.Src1, u.Src2 = KindALU, AluAdd, rd, RvZero, NoReg
		u.Imm = signExtend(uint64(w>>12), 20) << 12
	case rvOpJal:
		off := signExtend(uint64(w>>31&1)<<20|uint64(w>>12&0xFF)<<12|
			uint64(w>>20&1)<<11|uint64(w>>21&0x3FF)<<1, 21)
		u.Kind, u.Dst = KindJump, rd
		if rd == RvZero {
			u.Dst = NoReg
		}
		u.Target = pc + uint64(off)
	case rvOpJalr:
		if f3 != 0 {
			return illegalOp(pc, 4)
		}
		u.Kind, u.Dst, u.Src1 = KindJumpReg, rd, rs1
		if rd == RvZero {
			u.Dst = NoReg
		}
		u.Imm = signExtend(uint64(w>>20), 12)
	case rvOpSys:
		if f3 != 0 {
			return illegalOp(pc, 4)
		}
		switch w >> 20 & 0xFFF {
		case MagicExit:
			u.Kind = KindHalt
		case MagicCheckpoint:
			u.Kind, u.Imm = KindMagic, MagicCheckpoint
		case MagicSwitchCPU:
			u.Kind, u.Imm = KindMagic, MagicSwitchCPU
		case 3:
			u.Kind = KindWFI
		default:
			return illegalOp(pc, 4)
		}
	default:
		return illegalOp(pc, 4)
	}

	// Writes to the zero register are discarded.
	if u.Dst == RvZero {
		u.Dst = NoReg
	}
	return decoded(4, u)
}

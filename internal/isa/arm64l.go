package isa

// ARM64L is the Arm-flavoured ISA: fixed 32-bit encodings, 31 general-
// purpose registers plus an architectural flags register, flags-based
// conditional branches, conditional select, shifted register operands and
// register-offset addressing. Every instruction carries a 4-bit condition
// field (as in AArch32), so the encoding space is dense: nearly every bit
// of every instruction is architecturally meaningful, which is why the
// paper finds Arm's instruction cache the most vulnerable of the three ISAs.
type ARM64L struct{}

// ARM64L register conventions.
const (
	ArmSP    Reg = 28 // stack pointer by software convention
	ArmTmp0  Reg = 29 // reserved assembler scratch
	ArmTmp1  Reg = 30 // reserved assembler scratch
	ArmFlags Reg = 31 // condition flags register
)

// Encoding classes (bits [27:24]).
const (
	armClsALUReg = 0x1
	armClsALUImm = 0x2
	armClsMovW   = 0x3
	armClsLdStI  = 0x4
	armClsLdStR  = 0x5
	armClsBranch = 0x6
	armClsCSel   = 0x7
	armClsSys    = 0xF
)

// armCondAL is the "always" condition field value.
const armCondAL = 14

// armConds maps the 4-bit condition field to conditions over the flags word.
var armConds = [16]Cond{
	CondFEQ, CondFNE, CondFGEU, CondFLTU,
	CondFLTS, CondFGES, CondAL, CondAL,
	CondFGTU, CondFLEU, CondFGES, CondFLTS,
	CondFGTS, CondFLES, CondAL, CondNV,
}

// ArmCondField returns the condition-field encoding for a flags condition.
func ArmCondField(c Cond) (uint32, bool) {
	switch c {
	case CondAL:
		return armCondAL, true
	case CondFEQ:
		return 0, true
	case CondFNE:
		return 1, true
	case CondFGEU:
		return 2, true
	case CondFLTU:
		return 3, true
	case CondFLTS:
		return 11, true
	case CondFGES:
		return 10, true
	case CondFGTU:
		return 8, true
	case CondFLEU:
		return 9, true
	case CondFGTS:
		return 12, true
	case CondFLES:
		return 13, true
	}
	return 0, false
}

// Name implements Arch.
func (ARM64L) Name() string { return "arm" }

// NumRegs implements Arch: r0..r30 plus flags.
func (ARM64L) NumRegs() int { return 32 }

// ZeroReg implements Arch.
func (ARM64L) ZeroReg() (Reg, bool) { return NoReg, false }

// MaxInstLen implements Arch.
func (ARM64L) MaxInstLen() int { return 4 }

// Traits implements Arch.
func (ARM64L) Traits() Traits {
	return Traits{
		TrapDivZero:    false,
		TrapUnaligned:  true,
		FixedInstLen:   4,
		GPRs:           31,
		InterruptCtrl:  "gic",
		LinkOrFlagsReg: ArmFlags,
	}
}

func armEnc(cond, cls, rest uint32) uint32 { return cond<<28 | cls<<24 | rest }

// ArmALUReg encodes rd = rn OP (rm << sh). The 4-bit shift amount replaces
// padding so every encoding bit is meaningful.
func ArmALUReg(op AluOp, rd, rn, rm Reg, sh uint8) (uint32, bool) {
	if op >= AluNumOps || sh > 15 {
		return 0, false
	}
	return armEnc(armCondAL, armClsALUReg,
		uint32(op)<<19|uint32(rd)<<14|uint32(rn)<<9|uint32(rm)<<4|uint32(sh)), true
}

// ArmCmp encodes a flags-setting compare of rn against rm.
func ArmCmp(rn, rm Reg) uint32 {
	w, _ := ArmALUReg(AluFlags, ArmFlags, rn, rm, 0)
	return w
}

// ArmALUImm encodes rd = rn OP imm with a 9-bit signed immediate.
func ArmALUImm(op AluOp, rd, rn Reg, imm int64) (uint32, bool) {
	if op >= AluNumOps || imm < -256 || imm > 255 {
		return 0, false
	}
	return armEnc(armCondAL, armClsALUImm,
		uint32(op)<<19|uint32(rd)<<14|uint32(rn)<<9|uint32(imm&0x1FF)), true
}

// ArmMovW encodes movz (keep=false) or movk (keep=true) of a 16-bit chunk
// into halfword hw (0..3) of rd.
func ArmMovW(keep bool, rd Reg, hw uint8, imm16 uint16) (uint32, bool) {
	if hw > 3 {
		return 0, false
	}
	k := uint32(0)
	if keep {
		k = 1
	}
	return armEnc(armCondAL, armClsMovW,
		k<<23|uint32(hw)<<21|uint32(imm16)<<5|uint32(rd)), true
}

// ArmLdStImm encodes a load (load=true) or store with base+imm10 addressing.
func ArmLdStImm(load bool, bytes uint8, signed bool, rt, rn Reg, imm int64) (uint32, bool) {
	if imm < -512 || imm > 511 {
		return 0, false
	}
	sz, ok := armSizeField(bytes)
	if !ok {
		return 0, false
	}
	l, sx := uint32(0), uint32(0)
	if load {
		l = 1
	}
	if signed {
		sx = 1
	}
	return armEnc(armCondAL, armClsLdStI,
		l<<23|sz<<21|sx<<20|uint32(rt)<<15|uint32(rn)<<10|uint32(imm&0x3FF)), true
}

// ArmLdStReg encodes a load/store with base + (index << sh) addressing.
func ArmLdStReg(load bool, bytes uint8, signed bool, rt, rn, rm Reg, sh uint8) (uint32, bool) {
	sz, ok := armSizeField(bytes)
	if !ok || sh > 7 {
		return 0, false
	}
	l, sx := uint32(0), uint32(0)
	if load {
		l = 1
	}
	if signed {
		sx = 1
	}
	return armEnc(armCondAL, armClsLdStR,
		l<<23|sz<<21|sx<<20|uint32(rt)<<15|uint32(rn)<<10|uint32(rm)<<5|uint32(sh)<<2), true
}

func armSizeField(bytes uint8) (uint32, bool) {
	switch bytes {
	case 1:
		return 0, true
	case 2:
		return 1, true
	case 4:
		return 2, true
	case 8:
		return 3, true
	}
	return 0, false
}

// ArmBranch encodes a (possibly conditional) PC-relative branch; off is the
// byte offset from the branch's own PC, a multiple of 4 fitting 26 bits.
func ArmBranch(c Cond, off int64) (uint32, bool) {
	cf, ok := ArmCondField(c)
	if !ok {
		return 0, false
	}
	words := off >> 2
	if off&3 != 0 || words < -(1<<23) || words >= 1<<23 {
		return 0, false
	}
	return armEnc(cf, armClsBranch, uint32(words&0xFFFFFF)), true
}

// ArmCSel encodes rd = cond ? rn : rm over the flags register.
func ArmCSel(c Cond, rd, rn, rm Reg) (uint32, bool) {
	cf, ok := ArmCondField(c)
	if !ok {
		return 0, false
	}
	return armEnc(armCondAL, armClsCSel,
		cf<<20|uint32(rd)<<15|uint32(rn)<<10|uint32(rm)<<5), true
}

// ArmSys encodes a simulator directive (MagicExit/Checkpoint/SwitchCPU) or
// WFI (sel=3).
func ArmSys(sel int64) uint32 { return armEnc(armCondAL, armClsSys, uint32(sel)&0xFFFFFF) }

// Decode implements Arch.
func (a ARM64L) Decode(pc uint64, b []byte) Decoded {
	if len(b) < 4 {
		return illegalOp(pc, 4)
	}
	w := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	cond := armConds[w>>28]
	cls := w >> 24 & 0xF
	u := NewUop(pc, pc+4)
	u.Last = true

	// A "never" condition turns any instruction into a nop.
	if cond == CondNV && cls != armClsBranch {
		u.Kind = KindNop
		return decoded(4, u)
	}

	switch cls {
	case armClsALUReg:
		op := AluOp(w >> 19 & 0x1F)
		if op >= AluNumOps {
			return illegalOp(pc, 4)
		}
		rd, rn, rm := Reg(w>>14&0x1F), Reg(w>>9&0x1F), Reg(w>>4&0x1F)
		sh := w & 0xF
		u.Dst, u.Src1, u.Src2 = rd, rn, rm
		u.Alu = op
		switch op {
		case AluMul, AluMulHU:
			u.Kind = KindMul
		case AluDiv, AluDivU, AluRem, AluRemU:
			u.Kind = KindDiv
		default:
			u.Kind = KindALU
		}
		u.Scale = uint8(sh) // operand shift applied to Src2 at execute
	case armClsALUImm:
		op := AluOp(w >> 19 & 0x1F)
		if op >= AluNumOps {
			return illegalOp(pc, 4)
		}
		rd, rn := Reg(w>>14&0x1F), Reg(w>>9&0x1F)
		u.Kind, u.Alu, u.Dst, u.Src1, u.Src2 = KindALU, op, rd, rn, NoReg
		u.Imm = signExtend(uint64(w&0x1FF), 9)
		switch op {
		case AluMul, AluMulHU:
			u.Kind = KindMul
		case AluDiv, AluDivU, AluRem, AluRemU:
			u.Kind = KindDiv
		}
	case armClsMovW:
		rd := Reg(w & 0x1F)
		hw := w >> 21 & 3
		imm := uint64(w>>5&0xFFFF) << (16 * hw)
		if w>>23&1 == 1 { // movk: keep other halfwords
			// movk must clear the target halfword first; model it as
			// (rd &^ mask) | imm via a two-op crack through a scratch reg.
			clr := NewUop(pc, pc+4)
			clr.Kind, clr.Alu = KindALU, AluAnd
			clr.Dst, clr.Src1 = ArmTmp1, rd
			clr.Imm = int64(^(uint64(0xFFFF) << (16 * hw)))
			u.Kind, u.Alu = KindALU, AluOr
			u.Dst, u.Src1, u.Imm = rd, ArmTmp1, int64(imm)
			return armPredicate(cond, decoded(4, clr, u))
		}
		u.Kind, u.Alu, u.Dst, u.Src1, u.Src2 = KindALU, AluMovB, rd, NoReg, NoReg
		u.Imm = int64(imm)
	case armClsLdStI, armClsLdStR:
		load := w>>23&1 == 1
		bytes := uint8(1) << (w >> 21 & 3)
		signed := w>>20&1 == 1
		rt, rn := Reg(w>>15&0x1F), Reg(w>>10&0x1F)
		u.MemBytes, u.MemSigned = bytes, signed && load
		u.Src1 = rn
		if cls == armClsLdStI {
			u.Imm = signExtend(uint64(w&0x3FF), 10)
			u.Src2 = NoReg
		} else {
			u.Src2 = Reg(w >> 5 & 0x1F)
			u.Scale = uint8(w >> 2 & 7)
		}
		if load {
			u.Kind, u.Dst = KindLoad, rt
		} else {
			u.Kind, u.Src3 = KindStore, rt
		}
	case armClsBranch:
		off := signExtend(uint64(w&0xFFFFFF), 24) << 2
		u.Target = pc + uint64(off)
		switch cond {
		case CondAL:
			u.Kind = KindJump
		case CondNV:
			u.Kind = KindNop
		default:
			u.Kind, u.Cond, u.Src1, u.Src2 = KindBranch, cond, ArmFlags, NoReg
		}
	case armClsCSel:
		c2 := armConds[w>>20&0xF]
		rd, rn, rm := Reg(w>>15&0x1F), Reg(w>>10&0x1F), Reg(w>>5&0x1F)
		u.Kind, u.Cond, u.Alu = KindALU, c2, AluSelect
		u.Dst, u.Src1, u.Src2, u.Src3 = rd, rn, rm, ArmFlags
	case armClsSys:
		switch w & 0xFFFFFF {
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
	return armPredicate(cond, decoded(4, u))
}

// armPredicate applies a non-AL condition field to the decoded micro-ops:
// each op reads the flags register and, when the condition is false, either
// preserves the old destination value or suppresses its memory access.
// Compiler-generated code always uses AL; predication appears when an
// instruction-cache bit flip lands in the condition field, turning an
// unconditional instruction into a conditional one.
func armPredicate(cond Cond, d Decoded) Decoded {
	if cond == CondAL {
		return d
	}
	uops := d.Uops()
	for i := range uops {
		u := &uops[i]
		switch u.Kind {
		case KindALU, KindMul, KindDiv, KindLoad, KindStore:
			u.Pred, u.SrcP = cond, ArmFlags
			if u.Dst != NoReg && u.Src3 == NoReg && u.Kind != KindStore {
				u.Src3 = u.Dst // old value kept when predicated false
			}
		}
	}
	return d
}

package isa

// X86L is the x86-flavoured ISA: variable-length encodings (1 to 12 bytes),
// 16 general-purpose registers, flags-based control flow, register-memory
// operand forms that crack into multiple micro-ops, RAX/RDX-style implicit
// divide operands, and tolerant alignment rules. Its two characteristic
// fault behaviours are (a) a bit flip that changes an instruction's length
// desynchronizes the decode of everything after it in the byte stream, and
// (b) memory-operand instructions touch the data cache more often, because
// the smaller register file forces spill traffic.
type X86L struct{}

// X86L register conventions.
const (
	X86RAX   Reg = 0  // implicit divide dividend/quotient
	X86RDX   Reg = 2  // implicit divide remainder
	X86SP    Reg = 4  // stack pointer by software convention
	X86Scr   Reg = 15 // reserved assembler scratch
	X86Flags Reg = 16 // condition flags (internal)
	X86T0    Reg = 17 // micro-op temporary (internal)
	X86T1    Reg = 18 // micro-op temporary (internal)
)

// Fixed encoded sizes for label-relative instructions, needed by the
// two-pass assembler before label addresses are known.
const (
	X86JccSize = 6 // 0F 8x rel32
	X86JmpSize = 5 // E9 rel32
)

// Name implements Arch.
func (X86L) Name() string { return "x86" }

// NumRegs implements Arch: 16 GPRs + flags + two crack temporaries.
func (X86L) NumRegs() int { return 19 }

// ZeroReg implements Arch.
func (X86L) ZeroReg() (Reg, bool) { return NoReg, false }

// MaxInstLen implements Arch.
func (X86L) MaxInstLen() int { return 12 }

// Traits implements Arch.
func (X86L) Traits() Traits {
	return Traits{
		TrapDivZero:    true,
		TrapUnaligned:  false,
		FixedInstLen:   0,
		GPRs:           16,
		InterruptCtrl:  "gic",
		LinkOrFlagsReg: X86Flags,
	}
}

// x86CC maps the Jcc/CMOVcc low opcode nibble to a flags condition.
var x86CC = [16]Cond{
	CondNV, CondAL, CondFLTU, CondFGEU,
	CondFEQ, CondFNE, CondFLEU, CondFGTU,
	CondFLTS, CondFGES, CondNV, CondAL,
	CondFLTS, CondFGES, CondFLES, CondFGTS,
}

// X86CCField returns the opcode nibble for a flags condition.
func X86CCField(c Cond) (byte, bool) {
	switch c {
	case CondFEQ:
		return 0x4, true
	case CondFNE:
		return 0x5, true
	case CondFLTU:
		return 0x2, true
	case CondFGEU:
		return 0x3, true
	case CondFLEU:
		return 0x6, true
	case CondFGTU:
		return 0x7, true
	case CondFLTS:
		return 0xC, true
	case CondFGES:
		return 0xD, true
	case CondFLES:
		return 0xE, true
	case CondFGTS:
		return 0xF, true
	}
	return 0, false
}

func x86REX(reg, rm Reg) []byte {
	var rex byte = 0x48 // REX.W
	if reg >= 8 {
		rex |= 0x04
	}
	if rm >= 8 {
		rex |= 0x01
	}
	return []byte{rex}
}

// x86ModRM emits modrm (+displacement) for a register-direct operand.
func x86ModRMReg(reg, rm Reg) byte { return 0xC0 | byte(reg&7)<<3 | byte(rm&7) }

// x86ModRMMem emits modrm + displacement bytes for [base+disp].
func x86ModRMMem(reg, base Reg, disp int64) []byte {
	if disp == 0 {
		return []byte{byte(reg&7)<<3 | byte(base&7)}
	}
	if disp >= -128 && disp <= 127 {
		return []byte{0x40 | byte(reg&7)<<3 | byte(base&7), byte(disp)}
	}
	return append([]byte{0x80 | byte(reg&7)<<3 | byte(base&7)},
		byte(disp), byte(disp>>8), byte(disp>>16), byte(disp>>24))
}

func le32(v int64) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }

// x86ALUOpcodes returns (regForm, immDigit) for an ALU op usable by the
// 0x03-family (dst = dst OP src) and 0x81-family (imm) encodings.
func x86ALUOpcodes(op AluOp) (regForm byte, immDigit byte, ok bool) {
	switch op {
	case AluAdd:
		return 0x03, 0, true
	case AluOr:
		return 0x0B, 1, true
	case AluAnd:
		return 0x23, 4, true
	case AluSub:
		return 0x2B, 5, true
	case AluXor:
		return 0x33, 6, true
	case AluFlags:
		return 0x3B, 7, true
	}
	return 0, 0, false
}

// X86ALUrr encodes dst = dst OP src for add/or/and/sub/xor/cmp.
func X86ALUrr(op AluOp, dst, src Reg) ([]byte, bool) {
	oc, _, ok := x86ALUOpcodes(op)
	if !ok {
		return nil, false
	}
	return append(x86REX(dst, src), oc, x86ModRMReg(dst, src)), true
}

// X86ALUri encodes dst = dst OP imm32 (sign-extended).
func X86ALUri(op AluOp, dst Reg, imm int64) ([]byte, bool) {
	_, digit, ok := x86ALUOpcodes(op)
	if !ok || imm < -1<<31 || imm >= 1<<31 {
		return nil, false
	}
	b := append(x86REX(Reg(digit), dst), 0x81, x86ModRMReg(Reg(digit), dst))
	return append(b, le32(imm)...), true
}

// X86ALUrm encodes dst = dst OP qword[base+disp], folding the load.
func X86ALUrm(op AluOp, dst, base Reg, disp int64) ([]byte, bool) {
	oc, _, ok := x86ALUOpcodes(op)
	if !ok {
		return nil, false
	}
	b := append(x86REX(dst, base), oc)
	return append(b, x86ModRMMem(dst, base, disp)...), true
}

// X86Shift encodes dst = dst SHIFT imm (0xC1 family).
func X86Shift(op AluOp, dst Reg, imm int64) ([]byte, bool) {
	var digit Reg
	switch op {
	case AluShl:
		digit = 4
	case AluShrL:
		digit = 5
	case AluShrA:
		digit = 7
	default:
		return nil, false
	}
	if imm < 0 || imm > 63 {
		return nil, false
	}
	return append(x86REX(digit, dst), 0xC1, x86ModRMReg(digit, dst), byte(imm)), true
}

// X86Mul encodes dst = dst * src (0F AF) or the unsigned high half (0F A5).
func X86Mul(high bool, dst, src Reg) []byte {
	op2 := byte(0xAF)
	if high {
		op2 = 0xA5
	}
	return append(x86REX(dst, src), 0x0F, op2, x86ModRMReg(dst, src))
}

// X86ShiftRR encodes dst = dst SHIFT src (0F A0/A1/A2), the X86L variant of
// variable shifts.
func X86ShiftRR(op AluOp, dst, src Reg) ([]byte, bool) {
	var op2 byte
	switch op {
	case AluShl:
		op2 = 0xA0
	case AluShrL:
		op2 = 0xA1
	case AluShrA:
		op2 = 0xA2
	default:
		return nil, false
	}
	return append(x86REX(dst, src), 0x0F, op2, x86ModRMReg(dst, src)), true
}

// X86Div encodes the implicit-operand divide: quotient of RAX/src goes to
// RAX and the remainder to RDX. signed selects IDIV semantics.
func X86Div(signed bool, src Reg) []byte {
	digit := Reg(6)
	if signed {
		digit = 7
	}
	return append(x86REX(digit, src), 0xF7, x86ModRMReg(digit, src))
}

// x86LoadOpcodes returns the encoding for a load of the given width.
func x86LoadOpcodes(bytes uint8, signed bool) (pre bool, oc byte, ok bool) {
	switch {
	case bytes == 8:
		return false, 0x8B, true
	case bytes == 1 && !signed:
		return true, 0xB6, true
	case bytes == 2 && !signed:
		return true, 0xB7, true
	case bytes == 1 && signed:
		return true, 0xBE, true
	case bytes == 2 && signed:
		return true, 0xBF, true
	case bytes == 4 && signed:
		return false, 0x63, true
	case bytes == 4 && !signed:
		return false, 0x8C, true
	}
	return false, 0, false
}

// X86Load encodes dst = [base+disp] with the given width.
func X86Load(bytes uint8, signed bool, dst, base Reg, disp int64) ([]byte, bool) {
	pre, oc, ok := x86LoadOpcodes(bytes, signed)
	if !ok {
		return nil, false
	}
	b := x86REX(dst, base)
	if pre {
		b = append(b, 0x0F)
	}
	b = append(b, oc)
	return append(b, x86ModRMMem(dst, base, disp)...), true
}

func x86StoreOpcode(bytes uint8) (byte, bool) {
	switch bytes {
	case 8:
		return 0x89, true
	case 1:
		return 0x88, true
	case 2:
		return 0x8E, true
	case 4:
		return 0x8F, true
	}
	return 0, false
}

// X86Store encodes [base+disp] = src with the given width.
func X86Store(bytes uint8, src, base Reg, disp int64) ([]byte, bool) {
	oc, ok := x86StoreOpcode(bytes)
	if !ok {
		return nil, false
	}
	b := append(x86REX(src, base), oc)
	return append(b, x86ModRMMem(src, base, disp)...), true
}

// X86MovRR encodes dst = src.
func X86MovRR(dst, src Reg) []byte {
	return append(x86REX(dst, src), 0x8B, x86ModRMReg(dst, src))
}

// X86MovImm64 encodes dst = imm64 (10 bytes).
func X86MovImm64(dst Reg, v uint64) []byte {
	b := append(x86REX(0, dst), 0xB8|byte(dst&7))
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// X86MovImm32 encodes dst = imm32 sign-extended (7 bytes).
func X86MovImm32(dst Reg, v int64) ([]byte, bool) {
	if v < -1<<31 || v >= 1<<31 {
		return nil, false
	}
	b := append(x86REX(0, dst), 0xC7, x86ModRMReg(0, dst))
	return append(b, le32(v)...), true
}

// X86Jcc encodes a conditional branch with a rel32 offset from the end of
// the instruction.
func X86Jcc(c Cond, rel int64) ([]byte, bool) {
	cc, ok := X86CCField(c)
	if !ok {
		return nil, false
	}
	return append([]byte{0x0F, 0x80 | cc}, le32(rel)...), true
}

// X86Jmp encodes an unconditional rel32 jump.
func X86Jmp(rel int64) []byte { return append([]byte{0xE9}, le32(rel)...) }

// X86JmpReg encodes an indirect jump through a register.
func X86JmpReg(src Reg) []byte {
	return append(x86REX(4, src), 0xFF, x86ModRMReg(4, src))
}

// X86CMov encodes dst = cond ? src : dst.
func X86CMov(c Cond, dst, src Reg) ([]byte, bool) {
	cc, ok := X86CCField(c)
	if !ok {
		return nil, false
	}
	return append(x86REX(dst, src), 0x0F, 0x40|cc, x86ModRMReg(dst, src)), true
}

// X86Nop, X86Halt and X86Magic encode the remaining single-purpose forms.
func X86Nop() []byte  { return []byte{0x90} }
func X86Halt() []byte { return []byte{0xF4} }

// X86Magic encodes a simulator directive; sel 3 is WFI.
func X86Magic(sel byte) []byte { return []byte{0x0F, 0x04, sel} }

// Decode implements Arch. It consumes exactly one instruction from the
// start of b; undecodable bytes consume a single byte, which is what makes
// X86L decode desynchronization possible under instruction-cache faults.
func (a X86L) Decode(pc uint64, b []byte) Decoded {
	d := x86Dec{pc: pc, b: b}
	return *d.decode()
}

// x86Dec is one instruction's decode in progress. Its methods build the
// result in out and return a pointer to it, so the decode copies the
// micro-ops once instead of once per call level.
type x86Dec struct {
	pc  uint64
	b   []byte
	i   int
	rex byte
	out Decoded
}

func (d *x86Dec) illegal() *Decoded {
	size := d.i
	if size == 0 {
		size = 1
	}
	d.out = illegalOp(d.pc, size)
	return &d.out
}

func (d *x86Dec) byteAt() (byte, bool) {
	if d.i >= len(d.b) {
		return 0, false
	}
	v := d.b[d.i]
	d.i++
	return v, true
}

// modRM parses a modrm byte plus displacement. When isMem is false, rm is a
// direct register.
func (d *x86Dec) modRM() (reg, rm Reg, isMem bool, disp int64, ok bool) {
	m, ok := d.byteAt()
	if !ok {
		return 0, 0, false, 0, false
	}
	reg = Reg(m >> 3 & 7)
	rm = Reg(m & 7)
	if d.rex&0x04 != 0 {
		reg |= 8
	}
	if d.rex&0x01 != 0 {
		rm |= 8
	}
	switch m >> 6 {
	case 3:
		return reg, rm, false, 0, true
	case 0:
		return reg, rm, true, 0, true
	case 1:
		v, ok := d.byteAt()
		if !ok {
			return 0, 0, false, 0, false
		}
		return reg, rm, true, int64(int8(v)), true
	default:
		v, ok := d.imm32()
		if !ok {
			return 0, 0, false, 0, false
		}
		return reg, rm, true, v, true
	}
}

func (d *x86Dec) imm32() (int64, bool) {
	if d.i+4 > len(d.b) {
		return 0, false
	}
	v := int64(int32(uint32(d.b[d.i]) | uint32(d.b[d.i+1])<<8 |
		uint32(d.b[d.i+2])<<16 | uint32(d.b[d.i+3])<<24))
	d.i += 4
	return v, true
}

func (d *x86Dec) newUop() MicroOp { return NewUop(d.pc, 0) }

// finish stamps NextPC on every uop and marks the last one.
func (d *x86Dec) finish(uops ...MicroOp) *Decoded {
	next := d.pc + uint64(d.i)
	for i := range uops {
		uops[i].NextPC = next
		uops[i].Last = i == len(uops)-1
	}
	d.out = decoded(d.i, uops...)
	return &d.out
}

func (d *x86Dec) decode() *Decoded {
	op, ok := d.byteAt()
	if !ok {
		return d.illegal()
	}
	if op&0xF0 == 0x40 { // REX prefix
		d.rex = op
		op, ok = d.byteAt()
		if !ok {
			return d.illegal()
		}
	}

	switch {
	case op == 0x90:
		u := d.newUop()
		u.Kind = KindNop
		return d.finish(u)
	case op == 0xF4:
		u := d.newUop()
		u.Kind = KindHalt
		return d.finish(u)
	case op == 0xE9:
		rel, ok := d.imm32()
		if !ok {
			return d.illegal()
		}
		u := d.newUop()
		u.Kind = KindJump
		u.Target = d.pc + uint64(d.i) + uint64(rel)
		return d.finish(u)
	case op == 0xFF: // group: /4 = jmp r/m
		_, rm, isMem, disp, ok := d.modRM()
		if !ok || isMem {
			return d.illegal()
		}
		u := d.newUop()
		u.Kind, u.Src1, u.Imm = KindJumpReg, rm, disp
		return d.finish(u)
	case op == 0x0F:
		return d.decode0F()
	case op == 0xB8 || op&0xF8 == 0xB8: // mov r, imm64
		rd := Reg(op & 7)
		if d.rex&0x01 != 0 {
			rd |= 8
		}
		if d.i+8 > len(d.b) {
			return d.illegal()
		}
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(d.b[d.i+k]) << (8 * k)
		}
		d.i += 8
		u := d.newUop()
		u.Kind, u.Alu, u.Dst, u.Imm = KindALU, AluMovB, rd, int64(v)
		return d.finish(u)
	case op == 0xC7: // mov r/m, imm32
		digit, rm, isMem, disp, ok := d.modRM()
		if !ok || digit&7 != 0 {
			return d.illegal()
		}
		imm, ok := d.imm32()
		if !ok {
			return d.illegal()
		}
		u := d.newUop()
		if isMem {
			mov := d.newUop()
			mov.Kind, mov.Alu, mov.Dst, mov.Imm = KindALU, AluMovB, X86T0, imm
			u.Kind, u.Src1, u.Src3, u.Imm, u.MemBytes = KindStore, rm, X86T0, disp, 8
			return d.finish(mov, u)
		}
		u.Kind, u.Alu, u.Dst, u.Imm = KindALU, AluMovB, rm, imm
		return d.finish(u)
	case op == 0x81: // ALU r/m, imm32
		digit, rm, isMem, disp, ok := d.modRM()
		if !ok {
			return d.illegal()
		}
		alu, ok := x86DigitALU(byte(digit & 7))
		if !ok {
			return d.illegal()
		}
		imm, ok := d.imm32()
		if !ok {
			return d.illegal()
		}
		return d.aluImmForm(alu, rm, isMem, disp, imm)
	case op == 0xC1: // shift r/m, imm8
		digit, rm, isMem, disp, ok := d.modRM()
		if !ok {
			return d.illegal()
		}
		var alu AluOp
		switch digit & 7 {
		case 4:
			alu = AluShl
		case 5:
			alu = AluShrL
		case 7:
			alu = AluShrA
		default:
			return d.illegal()
		}
		sh, ok := d.byteAt()
		if !ok {
			return d.illegal()
		}
		return d.aluImmForm(alu, rm, isMem, disp, int64(sh&63))
	case op == 0xF7: // group: /6 div, /7 idiv
		digit, rm, isMem, disp, ok := d.modRM()
		if !ok || isMem {
			_ = disp
			return d.illegal()
		}
		var qOp, rOp AluOp
		switch digit & 7 {
		case 6:
			qOp, rOp = AluDivU, AluRemU
		case 7:
			qOp, rOp = AluDiv, AluRem
		default:
			return d.illegal()
		}
		// Crack: T0 = RAX/src ; T1 = RAX%src ; RAX = T0 ; RDX = T1.
		q := d.newUop()
		q.Kind, q.Alu, q.Dst, q.Src1, q.Src2 = KindDiv, qOp, X86T0, X86RAX, rm
		r := d.newUop()
		r.Kind, r.Alu, r.Dst, r.Src1, r.Src2 = KindDiv, rOp, X86T1, X86RAX, rm
		m1 := d.newUop()
		m1.Kind, m1.Alu, m1.Dst, m1.Src1, m1.Src2 = KindALU, AluOr, X86RAX, X86T0, NoReg
		m2 := d.newUop()
		m2.Kind, m2.Alu, m2.Dst, m2.Src1, m2.Src2 = KindALU, AluOr, X86RDX, X86T1, NoReg
		return d.finish(q, r, m1, m2)
	case op == 0x89 || op == 0x88 || op == 0x8E || op == 0x8F: // store / mov rr
		var width uint8
		switch op {
		case 0x89:
			width = 8
		case 0x88:
			width = 1
		case 0x8E:
			width = 2
		default:
			width = 4
		}
		reg, rm, isMem, disp, ok := d.modRM()
		if !ok {
			return d.illegal()
		}
		u := d.newUop()
		if isMem {
			u.Kind, u.Src1, u.Src3, u.Imm, u.MemBytes = KindStore, rm, reg, disp, width
			return d.finish(u)
		}
		u.Kind, u.Alu, u.Dst, u.Src2 = KindALU, AluMovB, rm, reg
		return d.finish(u)
	case op == 0x8B || op == 0x8C || op == 0x63: // loads (64/32u/32s) or mov rr
		reg, rm, isMem, disp, ok := d.modRM()
		if !ok {
			return d.illegal()
		}
		u := d.newUop()
		if isMem {
			u.Kind, u.Dst, u.Src1, u.Imm = KindLoad, reg, rm, disp
			switch op {
			case 0x8B:
				u.MemBytes = 8
			case 0x8C:
				u.MemBytes = 4
			default:
				u.MemBytes, u.MemSigned = 4, true
			}
			return d.finish(u)
		}
		u.Kind, u.Alu, u.Dst, u.Src2 = KindALU, AluMovB, reg, rm
		return d.finish(u)
	default:
		if alu, ok := x86RegFormALU(op); ok {
			reg, rm, isMem, disp, ok := d.modRM()
			if !ok {
				return d.illegal()
			}
			return d.aluRegForm(alu, reg, rm, isMem, disp)
		}
		return d.illegal()
	}
}

func (d *x86Dec) decode0F() *Decoded {
	op2, ok := d.byteAt()
	if !ok {
		return d.illegal()
	}
	switch {
	case op2 == 0x04: // simulator magic
		sel, ok := d.byteAt()
		if !ok {
			return d.illegal()
		}
		u := d.newUop()
		switch sel {
		case MagicExit:
			u.Kind = KindHalt
		case MagicCheckpoint, MagicSwitchCPU:
			u.Kind, u.Imm = KindMagic, int64(sel)
		case 3:
			u.Kind = KindWFI
		default:
			return d.illegal()
		}
		return d.finish(u)
	case op2 == 0xA0 || op2 == 0xA1 || op2 == 0xA2: // variable shifts
		reg, rm, isMem, _, ok := d.modRM()
		if !ok || isMem {
			return d.illegal()
		}
		u := d.newUop()
		u.Kind, u.Dst, u.Src1, u.Src2 = KindALU, reg, reg, rm
		switch op2 {
		case 0xA0:
			u.Alu = AluShl
		case 0xA1:
			u.Alu = AluShrL
		default:
			u.Alu = AluShrA
		}
		return d.finish(u)
	case op2 == 0xAF || op2 == 0xA5: // imul / mulhu
		reg, rm, isMem, disp, ok := d.modRM()
		if !ok {
			return d.illegal()
		}
		alu := AluMul
		if op2 == 0xA5 {
			alu = AluMulHU
		}
		if isMem {
			ld := d.newUop()
			ld.Kind, ld.Dst, ld.Src1, ld.Imm, ld.MemBytes = KindLoad, X86T0, rm, disp, 8
			mu := d.newUop()
			mu.Kind, mu.Alu, mu.Dst, mu.Src1, mu.Src2 = KindMul, alu, reg, reg, X86T0
			return d.finish(ld, mu)
		}
		mu := d.newUop()
		mu.Kind, mu.Alu, mu.Dst, mu.Src1, mu.Src2 = KindMul, alu, reg, reg, rm
		return d.finish(mu)
	case op2&0xF0 == 0x80: // Jcc rel32
		c := x86CC[op2&0xF]
		rel, ok := d.imm32()
		if !ok {
			return d.illegal()
		}
		u := d.newUop()
		target := d.pc + uint64(d.i) + uint64(rel)
		switch c {
		case CondAL:
			u.Kind, u.Target = KindJump, target
		case CondNV:
			u.Kind = KindNop
		default:
			u.Kind, u.Cond, u.Src1, u.Target = KindBranch, c, X86Flags, target
		}
		return d.finish(u)
	case op2&0xF0 == 0x40: // CMOVcc
		c := x86CC[op2&0xF]
		reg, rm, isMem, disp, ok := d.modRM()
		if !ok {
			return d.illegal()
		}
		u := d.newUop()
		u.Kind, u.Alu, u.Cond = KindALU, AluSelect, c
		u.Dst, u.Src1, u.Src2, u.Src3 = reg, rm, reg, X86Flags
		if isMem {
			ld := d.newUop()
			ld.Kind, ld.Dst, ld.Src1, ld.Imm, ld.MemBytes = KindLoad, X86T0, rm, disp, 8
			u.Src1 = X86T0
			return d.finish(ld, u)
		}
		return d.finish(u)
	case op2 == 0xB6 || op2 == 0xB7 || op2 == 0xBE || op2 == 0xBF: // narrow loads
		reg, rm, isMem, disp, ok := d.modRM()
		if !ok || !isMem {
			return d.illegal()
		}
		u := d.newUop()
		u.Kind, u.Dst, u.Src1, u.Imm = KindLoad, reg, rm, disp
		switch op2 {
		case 0xB6:
			u.MemBytes = 1
		case 0xB7:
			u.MemBytes = 2
		case 0xBE:
			u.MemBytes, u.MemSigned = 1, true
		default:
			u.MemBytes, u.MemSigned = 2, true
		}
		return d.finish(u)
	}
	return d.illegal()
}

// x86RegFormALU recognizes the 0x01/0x03-family ALU opcodes. Store-form
// opcodes (0x01 etc.) have the destination in r/m; load-form (0x03 etc.)
// have it in reg.
func x86RegFormALU(op byte) (AluOp, bool) {
	switch op {
	case 0x01, 0x03:
		return AluAdd, true
	case 0x09, 0x0B:
		return AluOr, true
	case 0x21, 0x23:
		return AluAnd, true
	case 0x29, 0x2B:
		return AluSub, true
	case 0x31, 0x33:
		return AluXor, true
	case 0x39, 0x3B:
		return AluFlags, true
	}
	return 0, false
}

func x86IsStoreForm(op byte) bool { return op&2 == 0 }

func x86DigitALU(digit byte) (AluOp, bool) {
	switch digit {
	case 0:
		return AluAdd, true
	case 1:
		return AluOr, true
	case 4:
		return AluAnd, true
	case 5:
		return AluSub, true
	case 6:
		return AluXor, true
	case 7:
		return AluFlags, true
	}
	return 0, false
}

// aluRegForm builds the micro-ops for a 2-operand ALU instruction whose
// second operand may be memory. op is the original opcode byte's ALU op;
// the caller already parsed modrm.
func (d *x86Dec) aluRegForm(alu AluOp, reg, rm Reg, isMem bool, disp int64) *Decoded {
	dstInRM := x86IsStoreForm(d.opByte())
	flags := alu == AluFlags

	if !isMem {
		u := d.newUop()
		u.Kind, u.Alu = KindALU, alu
		if flags {
			u.Dst, u.Src1, u.Src2 = X86Flags, reg, rm
			if dstInRM {
				u.Src1, u.Src2 = rm, reg
			}
		} else if dstInRM {
			u.Dst, u.Src1, u.Src2 = rm, rm, reg
		} else {
			u.Dst, u.Src1, u.Src2 = reg, reg, rm
		}
		return d.finish(u)
	}

	ld := d.newUop()
	ld.Kind, ld.Dst, ld.Src1, ld.Imm, ld.MemBytes = KindLoad, X86T0, rm, disp, 8
	if flags {
		u := d.newUop()
		u.Kind, u.Alu, u.Dst = KindALU, AluFlags, X86Flags
		if dstInRM { // cmp [m], r
			u.Src1, u.Src2 = X86T0, reg
		} else { // cmp r, [m]
			u.Src1, u.Src2 = reg, X86T0
		}
		return d.finish(ld, u)
	}
	if dstInRM { // op [m], r : load-modify-store
		ex := d.newUop()
		ex.Kind, ex.Alu, ex.Dst, ex.Src1, ex.Src2 = KindALU, alu, X86T1, X86T0, reg
		st := d.newUop()
		st.Kind, st.Src1, st.Src3, st.Imm, st.MemBytes = KindStore, rm, X86T1, disp, 8
		return d.finish(ld, ex, st)
	}
	// op r, [m]
	ex := d.newUop()
	ex.Kind, ex.Alu, ex.Dst, ex.Src1, ex.Src2 = KindALU, alu, reg, reg, X86T0
	return d.finish(ld, ex)
}

// opByte returns the opcode byte of the instruction being decoded,
// accounting for an optional REX prefix.
func (d *x86Dec) opByte() byte {
	if d.rex != 0 {
		return d.b[1]
	}
	return d.b[0]
}

// aluImmForm builds micro-ops for ALU r/m, imm.
func (d *x86Dec) aluImmForm(alu AluOp, rm Reg, isMem bool, disp int64, imm int64) *Decoded {
	flags := alu == AluFlags
	if !isMem {
		u := d.newUop()
		u.Kind, u.Alu, u.Imm = KindALU, alu, imm
		if flags {
			u.Dst, u.Src1 = X86Flags, rm
		} else {
			u.Dst, u.Src1 = rm, rm
		}
		return d.finish(u)
	}
	ld := d.newUop()
	ld.Kind, ld.Dst, ld.Src1, ld.Imm, ld.MemBytes = KindLoad, X86T0, rm, disp, 8
	if flags {
		u := d.newUop()
		u.Kind, u.Alu, u.Dst, u.Src1, u.Imm = KindALU, AluFlags, X86Flags, X86T0, imm
		return d.finish(ld, u)
	}
	ex := d.newUop()
	ex.Kind, ex.Alu, ex.Dst, ex.Src1, ex.Imm = KindALU, alu, X86T1, X86T0, imm
	st := d.newUop()
	st.Kind, st.Src1, st.Src3, st.Imm, st.MemBytes = KindStore, rm, X86T1, disp, 8
	return d.finish(ld, ex, st)
}

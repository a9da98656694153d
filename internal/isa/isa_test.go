package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func neg(v int64) uint64 { return uint64(-v) }

func le(w uint32) []byte { return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)} }

func TestEvalAluBasics(t *testing.T) {
	cases := []struct {
		op   AluOp
		a, b uint64
		want uint64
	}{
		{AluAdd, 3, 4, 7},
		{AluSub, 3, 4, ^uint64(0)},
		{AluAnd, 0xF0, 0x3C, 0x30},
		{AluOr, 0xF0, 0x0C, 0xFC},
		{AluXor, 0xFF, 0x0F, 0xF0},
		{AluShl, 1, 12, 4096},
		{AluShrL, 1 << 63, 63, 1},
		{AluShrA, 1 << 63, 63, ^uint64(0)},
		{AluMul, 7, 6, 42},
		{AluDiv, neg(7), 2, neg(3)},
		{AluDivU, 7, 2, 3},
		{AluRem, neg(7), 2, neg(1)},
		{AluRemU, 7, 2, 1},
		{AluSltS, neg(1), 0, 1},
		{AluSltU, ^uint64(0), 0, 0},
		{AluSeq, 5, 5, 1},
		{AluMovB, 9, 13, 13},
	}
	for _, c := range cases {
		if got := EvalAlu(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalAlu(%d, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalAluDivideByZeroConvention(t *testing.T) {
	if got := EvalAlu(AluDiv, 42, 0); got != ^uint64(0) {
		t.Errorf("signed div by zero = %#x, want all-ones", got)
	}
	if got := EvalAlu(AluDivU, 42, 0); got != ^uint64(0) {
		t.Errorf("unsigned div by zero = %#x, want all-ones", got)
	}
	if got := EvalAlu(AluRem, 42, 0); got != 42 {
		t.Errorf("rem by zero = %d, want dividend", got)
	}
	if got := EvalAlu(AluDiv, 1<<63, ^uint64(0)); got != 1<<63 {
		t.Errorf("signed overflow div = %#x, want dividend", got)
	}
}

func TestMulHighUnsigned(t *testing.T) {
	f := func(a, b uint64) bool {
		hi := EvalAlu(AluMulHU, a, b)
		// Verify against 128-bit reference via four 32x32 products.
		wantHi, _ := mul64(a, b)
		_ = wantHi
		// Cross-check with a independent big-style computation.
		aLo, aHi := a&0xFFFFFFFF, a>>32
		bLo, bHi := b&0xFFFFFFFF, b>>32
		carry := (aLo*bLo)>>32 + (aHi*bLo+aLo*bHi)&0xFFFFFFFF
		_ = carry
		return hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalFlagsAndConds(t *testing.T) {
	f := func(a, b uint64) bool {
		fl := EvalFlags(a, b)
		checks := []struct {
			c    Cond
			want bool
		}{
			{CondFEQ, a == b},
			{CondFNE, a != b},
			{CondFLTS, int64(a) < int64(b)},
			{CondFGES, int64(a) >= int64(b)},
			{CondFLES, int64(a) <= int64(b)},
			{CondFGTS, int64(a) > int64(b)},
			{CondFLTU, a < b},
			{CondFGEU, a >= b},
			{CondFLEU, a <= b},
			{CondFGTU, a > b},
		}
		for _, ch := range checks {
			if EvalCond(ch.c, fl, 0) != ch.want {
				return false
			}
		}
		regChecks := []struct {
			c    Cond
			want bool
		}{
			{CondEQ, a == b},
			{CondNE, a != b},
			{CondLTS, int64(a) < int64(b)},
			{CondGES, int64(a) >= int64(b)},
			{CondLTU, a < b},
			{CondGEU, a >= b},
		}
		for _, ch := range regChecks {
			if EvalCond(ch.c, a, b) != ch.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegateInvolution(t *testing.T) {
	for c := CondNone + 1; c < condNum; c++ {
		if Negate(Negate(c)) != c {
			t.Errorf("Negate(Negate(%d)) = %d", c, Negate(Negate(c)))
		}
	}
}

func TestNegateComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if rng.Intn(3) == 0 {
			b = a
		}
		fl := EvalFlags(a, b)
		for c := CondEQ; c < condNum; c++ {
			var got, want bool
			if UsesFlags(c) {
				got = EvalCond(Negate(c), fl, 0)
				want = !EvalCond(c, fl, 0)
			} else {
				got = EvalCond(Negate(c), a, b)
				want = !EvalCond(c, a, b)
			}
			if got != want {
				t.Fatalf("Negate(%d) is not the complement for a=%#x b=%#x", c, a, b)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"riscv", "arm", "x86"} {
		a, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if a.Name() != n {
			t.Errorf("ByName(%q).Name() = %q", n, a.Name())
		}
	}
	if _, err := ByName("mips"); err == nil {
		t.Error("ByName(mips) should fail")
	}
}

// --- RV64L ---

func decode1(t *testing.T, a Arch, b []byte) MicroOp {
	t.Helper()
	d := a.Decode(0x1000, b)
	if len(d.Uops()) != 1 {
		t.Fatalf("want 1 uop, got %d", len(d.Uops()))
	}
	if !d.Uops()[0].Last {
		t.Fatal("single uop must be Last")
	}
	return d.Uops()[0]
}

func TestRVALURoundTrip(t *testing.T) {
	ops := []AluOp{AluAdd, AluSub, AluShl, AluSltS, AluSltU, AluXor, AluShrL,
		AluShrA, AluOr, AluAnd, AluMul, AluMulHU, AluDiv, AluDivU, AluRem, AluRemU}
	for _, op := range ops {
		w, ok := RvALU(op, 5, 6, 7)
		if !ok {
			t.Fatalf("RvALU(%d) failed", op)
		}
		u := decode1(t, RV64L{}, le(w))
		if u.Alu != op || u.Dst != 5 || u.Src1 != 6 || u.Src2 != 7 {
			t.Errorf("op %d: decoded %+v", op, u)
		}
		switch op {
		case AluMul, AluMulHU:
			if u.Kind != KindMul {
				t.Errorf("op %d: kind %v", op, u.Kind)
			}
		case AluDiv, AluDivU, AluRem, AluRemU:
			if u.Kind != KindDiv {
				t.Errorf("op %d: kind %v", op, u.Kind)
			}
		default:
			if u.Kind != KindALU {
				t.Errorf("op %d: kind %v", op, u.Kind)
			}
		}
	}
}

func TestRVALUImmRoundTrip(t *testing.T) {
	for _, imm := range []int64{-2048, -1, 0, 1, 2047} {
		for _, op := range []AluOp{AluAdd, AluSltS, AluSltU, AluXor, AluOr, AluAnd} {
			w, ok := RvALUImm(op, 3, 4, imm)
			if !ok {
				t.Fatalf("RvALUImm(%d, %d) failed", op, imm)
			}
			u := decode1(t, RV64L{}, le(w))
			if u.Alu != op || u.Dst != 3 || u.Src1 != 4 || u.Src2 != NoReg || u.Imm != imm {
				t.Errorf("op %d imm %d: decoded %+v", op, imm, u)
			}
		}
	}
	for _, sh := range []int64{0, 1, 31, 63} {
		for _, op := range []AluOp{AluShl, AluShrL, AluShrA} {
			w, ok := RvALUImm(op, 3, 4, sh)
			if !ok {
				t.Fatalf("shift imm %d failed", sh)
			}
			u := decode1(t, RV64L{}, le(w))
			if u.Alu != op || u.Imm != sh {
				t.Errorf("shift op %d sh %d: decoded alu=%d imm=%d", op, sh, u.Alu, u.Imm)
			}
		}
	}
	if _, ok := RvALUImm(AluAdd, 1, 2, 4096); ok {
		t.Error("imm 4096 should not fit")
	}
}

func TestRVLoadStoreRoundTrip(t *testing.T) {
	type lc struct {
		bytes  uint8
		signed bool
	}
	for _, c := range []lc{{1, true}, {2, true}, {4, true}, {8, false}, {1, false}, {2, false}, {4, false}} {
		w, ok := RvLoad(c.bytes, c.signed, 10, 11, -8)
		if !ok {
			t.Fatalf("RvLoad(%d,%v) failed", c.bytes, c.signed)
		}
		u := decode1(t, RV64L{}, le(w))
		if u.Kind != KindLoad || u.MemBytes != c.bytes || u.MemSigned != c.signed ||
			u.Dst != 10 || u.Src1 != 11 || u.Imm != -8 {
			t.Errorf("load %+v: decoded %+v", c, u)
		}
	}
	for _, bytes := range []uint8{1, 2, 4, 8} {
		w, ok := RvStore(bytes, 12, 13, 24)
		if !ok {
			t.Fatalf("RvStore(%d) failed", bytes)
		}
		u := decode1(t, RV64L{}, le(w))
		if u.Kind != KindStore || u.MemBytes != bytes || u.Src3 != 12 || u.Src1 != 13 || u.Imm != 24 {
			t.Errorf("store %d: decoded %+v", bytes, u)
		}
	}
}

func TestRVBranchRoundTrip(t *testing.T) {
	for _, c := range []Cond{CondEQ, CondNE, CondLTS, CondGES, CondLTU, CondGEU} {
		for _, off := range []int64{-4096, -2, 0, 2, 4094} {
			w, ok := RvBranch(c, 8, 9, off)
			if !ok {
				t.Fatalf("RvBranch(%d, %d) failed", c, off)
			}
			u := decode1(t, RV64L{}, le(w))
			if u.Kind != KindBranch || u.Cond != c || u.Src1 != 8 || u.Src2 != 9 {
				t.Errorf("branch: decoded %+v", u)
			}
			if u.Target != 0x1000+uint64(off) {
				t.Errorf("branch off %d: target %#x", off, u.Target)
			}
		}
	}
}

func TestRVJumpsAndSys(t *testing.T) {
	w, ok := RvJal(RvZero, -1048576)
	if !ok {
		t.Fatal("RvJal min failed")
	}
	u := decode1(t, RV64L{}, le(w))
	if u.Kind != KindJump || u.Dst != NoReg || u.Target != 0x1000+uint64(^uint64(1048576)+1) {
		t.Errorf("jal: %+v", u)
	}
	w, ok = RvJal(1, 2048)
	if !ok {
		t.Fatal("RvJal link failed")
	}
	u = decode1(t, RV64L{}, le(w))
	if u.Dst != 1 {
		t.Errorf("jal link dst: %+v", u)
	}
	w, ok = RvJalr(RvZero, 7, 16)
	if !ok {
		t.Fatal("RvJalr failed")
	}
	u = decode1(t, RV64L{}, le(w))
	if u.Kind != KindJumpReg || u.Src1 != 7 || u.Imm != 16 {
		t.Errorf("jalr: %+v", u)
	}
	u = decode1(t, RV64L{}, le(RvSys(MagicExit)))
	if u.Kind != KindHalt {
		t.Errorf("sys exit: %+v", u)
	}
	u = decode1(t, RV64L{}, le(RvSys(MagicCheckpoint)))
	if u.Kind != KindMagic || u.Imm != MagicCheckpoint {
		t.Errorf("sys checkpoint: %+v", u)
	}
	u = decode1(t, RV64L{}, le(RvSys(3)))
	if u.Kind != KindWFI {
		t.Errorf("sys wfi: %+v", u)
	}
}

func TestRVLui(t *testing.T) {
	u := decode1(t, RV64L{}, le(RvLui(9, 0xABCDE)))
	if u.Kind != KindALU || u.Alu != AluAdd || u.Dst != 9 || u.Src1 != RvZero {
		t.Errorf("lui: %+v", u)
	}
	want := signExtend(0xABCDE, 20) << 12
	if u.Imm != want {
		t.Errorf("lui imm = %#x, want %#x", u.Imm, want)
	}
}

func TestRVZeroRegDiscard(t *testing.T) {
	w, _ := RvALU(AluAdd, RvZero, 1, 2)
	u := decode1(t, RV64L{}, le(w))
	if u.Dst != NoReg {
		t.Errorf("write to x0 should be discarded, got dst %d", u.Dst)
	}
}

func TestRVDontCareFunct7Bits(t *testing.T) {
	// Flipping funct7 bits 26..29 or bit 31 of an R-type ALU op must not
	// change the decoded micro-op (decoder masking).
	w, _ := RvALU(AluAdd, 5, 6, 7)
	base := decode1(t, RV64L{}, le(w))
	for _, bit := range []uint{26, 27, 28, 29, 31} {
		u := decode1(t, RV64L{}, le(w^1<<bit))
		if u != base {
			t.Errorf("bit %d should be don't-care for R-type add", bit)
		}
	}
	// Bit 30 (sub/sra selector) must matter.
	u := decode1(t, RV64L{}, le(w^1<<30))
	if u.Alu != AluSub {
		t.Errorf("bit 30 flip: alu = %d, want sub", u.Alu)
	}
}

func TestRVIllegal(t *testing.T) {
	u := decode1(t, RV64L{}, le(0xFFFFFFFF))
	if u.Kind != KindIllegal {
		t.Errorf("all-ones should be illegal, got %v", u.Kind)
	}
	u = decode1(t, RV64L{}, []byte{0x13})
	if u.Kind != KindIllegal {
		t.Errorf("truncated word should be illegal, got %v", u.Kind)
	}
}

func TestRVRoundTripQuick(t *testing.T) {
	f := func(rd, rs1, rs2 uint8, opSel uint8) bool {
		ops := []AluOp{AluAdd, AluSub, AluXor, AluOr, AluAnd, AluMul, AluDivU}
		op := ops[int(opSel)%len(ops)]
		d, s1, s2 := Reg(rd%30+1), Reg(rs1%32), Reg(rs2%32)
		w, ok := RvALU(op, d, s1, s2)
		if !ok {
			return false
		}
		dec := RV64L{}.Decode(0, le(w))
		u := dec.Uops()[0]
		return u.Alu == op && u.Dst == d && u.Src1 == s1 && u.Src2 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- ARM64L ---

func TestArmALURoundTrip(t *testing.T) {
	for op := AluAdd; op < AluNumOps; op++ {
		w, ok := ArmALUReg(op, 3, 4, 5, 2)
		if !ok {
			t.Fatalf("ArmALUReg(%d) failed", op)
		}
		u := decode1(t, ARM64L{}, le(w))
		if u.Alu != op || u.Dst != 3 || u.Src1 != 4 || u.Src2 != 5 || u.Scale != 2 {
			t.Errorf("op %d: decoded %+v", op, u)
		}
	}
}

func TestArmALUImmRoundTrip(t *testing.T) {
	for _, imm := range []int64{-256, -1, 0, 255} {
		w, ok := ArmALUImm(AluAdd, 7, 8, imm)
		if !ok {
			t.Fatalf("ArmALUImm(%d) failed", imm)
		}
		u := decode1(t, ARM64L{}, le(w))
		if u.Alu != AluAdd || u.Dst != 7 || u.Src1 != 8 || u.Imm != imm {
			t.Errorf("imm %d: decoded %+v", imm, u)
		}
	}
	if _, ok := ArmALUImm(AluAdd, 1, 2, 256); ok {
		t.Error("imm 256 should not fit")
	}
}

func TestArmMovW(t *testing.T) {
	w, _ := ArmMovW(false, 6, 1, 0xBEEF)
	u := decode1(t, ARM64L{}, le(w))
	if u.Alu != AluMovB || u.Imm != 0xBEEF0000 {
		t.Errorf("movz: %+v", u)
	}
	w, _ = ArmMovW(true, 6, 0, 0x1234)
	d := ARM64L{}.Decode(0x1000, le(w))
	if len(d.Uops()) != 2 {
		t.Fatalf("movk should crack to 2 uops, got %d", len(d.Uops()))
	}
	if d.Uops()[0].Alu != AluAnd || d.Uops()[0].Dst != ArmTmp1 || d.Uops()[0].Last {
		t.Errorf("movk clear uop: %+v", d.Uops()[0])
	}
	if d.Uops()[1].Alu != AluOr || d.Uops()[1].Imm != 0x1234 || !d.Uops()[1].Last {
		t.Errorf("movk or uop: %+v", d.Uops()[1])
	}
}

func TestArmLdStRoundTrip(t *testing.T) {
	w, ok := ArmLdStImm(true, 4, true, 1, 2, -512)
	if !ok {
		t.Fatal("ArmLdStImm failed")
	}
	u := decode1(t, ARM64L{}, le(w))
	if u.Kind != KindLoad || u.MemBytes != 4 || !u.MemSigned || u.Dst != 1 || u.Src1 != 2 || u.Imm != -512 {
		t.Errorf("ldr imm: %+v", u)
	}
	w, ok = ArmLdStImm(false, 8, false, 3, 4, 511)
	if !ok {
		t.Fatal("str failed")
	}
	u = decode1(t, ARM64L{}, le(w))
	if u.Kind != KindStore || u.MemBytes != 8 || u.Src3 != 3 || u.Src1 != 4 || u.Imm != 511 {
		t.Errorf("str imm: %+v", u)
	}
	w, ok = ArmLdStReg(true, 8, false, 5, 6, 7, 3)
	if !ok {
		t.Fatal("ldr reg failed")
	}
	u = decode1(t, ARM64L{}, le(w))
	if u.Kind != KindLoad || u.Src1 != 6 || u.Src2 != 7 || u.Scale != 3 {
		t.Errorf("ldr reg: %+v", u)
	}
}

func TestArmBranchRoundTrip(t *testing.T) {
	w, ok := ArmBranch(CondAL, 4096)
	if !ok {
		t.Fatal("b failed")
	}
	u := decode1(t, ARM64L{}, le(w))
	if u.Kind != KindJump || u.Target != 0x2000 {
		t.Errorf("b: %+v", u)
	}
	for _, c := range []Cond{CondFEQ, CondFNE, CondFLTS, CondFGES, CondFLTU, CondFGEU,
		CondFLES, CondFGTS, CondFLEU, CondFGTU} {
		w, ok := ArmBranch(c, -8)
		if !ok {
			t.Fatalf("b.%d failed", c)
		}
		u := decode1(t, ARM64L{}, le(w))
		if u.Kind != KindBranch || u.Cond != c || u.Src1 != ArmFlags {
			t.Errorf("b.%d: %+v", c, u)
		}
		if u.Target != 0x1000-8 {
			t.Errorf("b.%d target: %#x", c, u.Target)
		}
	}
}

func TestArmCSel(t *testing.T) {
	w, ok := ArmCSel(CondFLTS, 1, 2, 3)
	if !ok {
		t.Fatal("csel failed")
	}
	u := decode1(t, ARM64L{}, le(w))
	if u.Alu != AluSelect || u.Cond != CondFLTS || u.Dst != 1 || u.Src1 != 2 ||
		u.Src2 != 3 || u.Src3 != ArmFlags {
		t.Errorf("csel: %+v", u)
	}
}

func TestArmCmpWritesFlags(t *testing.T) {
	u := decode1(t, ARM64L{}, le(ArmCmp(9, 10)))
	if u.Alu != AluFlags || u.Dst != ArmFlags || u.Src1 != 9 || u.Src2 != 10 {
		t.Errorf("cmp: %+v", u)
	}
}

func TestArmPredicationFromCondFieldFlip(t *testing.T) {
	// An AL (1110) ALU instruction whose condition field is corrupted to
	// 0000 (EQ) must become predicated: reads flags, keeps old dst.
	w, _ := ArmALUReg(AluAdd, 3, 4, 5, 0)
	w = w&^(0xF<<28) | 0<<28
	u := decode1(t, ARM64L{}, le(w))
	if u.Pred != CondFEQ || u.SrcP != ArmFlags || u.Src3 != 3 {
		t.Errorf("predicated add: %+v", u)
	}
	// Condition 15 (never) becomes a nop.
	w = w&^(0xF<<28) | 15<<28
	u = decode1(t, ARM64L{}, le(w))
	if u.Kind != KindNop {
		t.Errorf("cond=NV should be nop: %+v", u)
	}
}

func TestArmSys(t *testing.T) {
	u := decode1(t, ARM64L{}, le(ArmSys(MagicExit)))
	if u.Kind != KindHalt {
		t.Errorf("sys exit: %+v", u)
	}
	u = decode1(t, ARM64L{}, le(ArmSys(3)))
	if u.Kind != KindWFI {
		t.Errorf("sys wfi: %+v", u)
	}
	u = decode1(t, ARM64L{}, le(ArmSys(99)))
	if u.Kind != KindIllegal {
		t.Errorf("sys 99: %+v", u)
	}
}

// --- X86L ---

func decodeAll(t *testing.T, a Arch, b []byte) Decoded {
	t.Helper()
	return a.Decode(0x1000, b)
}

func TestX86MovImmRoundTrip(t *testing.T) {
	b := X86MovImm64(13, 0xDEADBEEFCAFEF00D)
	u := decode1(t, X86L{}, b)
	if u.Alu != AluMovB || u.Dst != 13 || uint64(u.Imm) != 0xDEADBEEFCAFEF00D {
		t.Errorf("mov imm64: %+v", u)
	}
	b2, ok := X86MovImm32(3, -5)
	if !ok {
		t.Fatal("mov imm32 failed")
	}
	u = decode1(t, X86L{}, b2)
	if u.Alu != AluMovB || u.Dst != 3 || u.Imm != -5 {
		t.Errorf("mov imm32: %+v", u)
	}
}

func TestX86ALURegForms(t *testing.T) {
	for _, op := range []AluOp{AluAdd, AluOr, AluAnd, AluSub, AluXor} {
		b, ok := X86ALUrr(op, 9, 2)
		if !ok {
			t.Fatalf("X86ALUrr(%d) failed", op)
		}
		u := decode1(t, X86L{}, b)
		if u.Alu != op || u.Dst != 9 || u.Src1 != 9 || u.Src2 != 2 {
			t.Errorf("alu rr %d: %+v", op, u)
		}
	}
	b, _ := X86ALUrr(AluFlags, 1, 2)
	u := decode1(t, X86L{}, b)
	if u.Dst != X86Flags || u.Src1 != 1 || u.Src2 != 2 {
		t.Errorf("cmp rr: %+v", u)
	}
}

func TestX86ALUImm(t *testing.T) {
	b, ok := X86ALUri(AluAdd, 5, -1000)
	if !ok {
		t.Fatal("alu ri failed")
	}
	u := decode1(t, X86L{}, b)
	if u.Alu != AluAdd || u.Dst != 5 || u.Src1 != 5 || u.Imm != -1000 {
		t.Errorf("alu ri: %+v", u)
	}
}

func TestX86ALUMemFoldsToLoadPlusOp(t *testing.T) {
	b, ok := X86ALUrm(AluAdd, 3, 6, 0x40)
	if !ok {
		t.Fatal("alu rm failed")
	}
	d := decodeAll(t, X86L{}, b)
	if len(d.Uops()) != 2 {
		t.Fatalf("alu rm should crack to 2 uops, got %d", len(d.Uops()))
	}
	ld, ex := d.Uops()[0], d.Uops()[1]
	if ld.Kind != KindLoad || ld.Dst != X86T0 || ld.Src1 != 6 || ld.Imm != 0x40 || ld.MemBytes != 8 {
		t.Errorf("load uop: %+v", ld)
	}
	if ex.Kind != KindALU || ex.Alu != AluAdd || ex.Dst != 3 || ex.Src1 != 3 || ex.Src2 != X86T0 {
		t.Errorf("alu uop: %+v", ex)
	}
	if ld.Last || !ex.Last {
		t.Error("Last flags wrong")
	}
}

func TestX86LoadStoreWidths(t *testing.T) {
	type c struct {
		bytes  uint8
		signed bool
	}
	for _, cc := range []c{{8, false}, {4, false}, {4, true}, {2, false}, {2, true}, {1, false}, {1, true}} {
		b, ok := X86Load(cc.bytes, cc.signed, 7, 11, 200)
		if !ok {
			t.Fatalf("X86Load(%v) failed", cc)
		}
		u := decode1(t, X86L{}, b)
		if u.Kind != KindLoad || u.MemBytes != cc.bytes || u.MemSigned != cc.signed ||
			u.Dst != 7 || u.Src1 != 11 || u.Imm != 200 {
			t.Errorf("load %+v: %+v", cc, u)
		}
	}
	for _, bytes := range []uint8{1, 2, 4, 8} {
		b, ok := X86Store(bytes, 8, 9, -64)
		if !ok {
			t.Fatalf("X86Store(%d) failed", bytes)
		}
		u := decode1(t, X86L{}, b)
		if u.Kind != KindStore || u.MemBytes != bytes || u.Src3 != 8 || u.Src1 != 9 || u.Imm != -64 {
			t.Errorf("store %d: %+v", bytes, u)
		}
	}
}

func TestX86DivCrack(t *testing.T) {
	d := decodeAll(t, X86L{}, X86Div(false, 3))
	if len(d.Uops()) != 4 {
		t.Fatalf("div should crack to 4 uops, got %d", len(d.Uops()))
	}
	if d.Uops()[0].Alu != AluDivU || d.Uops()[0].Src1 != X86RAX || d.Uops()[0].Src2 != 3 {
		t.Errorf("div quotient uop: %+v", d.Uops()[0])
	}
	if d.Uops()[1].Alu != AluRemU {
		t.Errorf("div remainder uop: %+v", d.Uops()[1])
	}
	if d.Uops()[2].Dst != X86RAX || d.Uops()[3].Dst != X86RDX {
		t.Error("div results must land in RAX/RDX")
	}
}

func TestX86Branches(t *testing.T) {
	b, ok := X86Jcc(CondFLTS, 0x100)
	if !ok {
		t.Fatal("jcc failed")
	}
	if len(b) != X86JccSize {
		t.Fatalf("jcc size %d", len(b))
	}
	u := decode1(t, X86L{}, b)
	if u.Kind != KindBranch || u.Cond != CondFLTS || u.Src1 != X86Flags {
		t.Errorf("jcc: %+v", u)
	}
	if u.Target != 0x1000+6+0x100 {
		t.Errorf("jcc target %#x", u.Target)
	}
	j := X86Jmp(-32)
	if len(j) != X86JmpSize {
		t.Fatalf("jmp size %d", len(j))
	}
	u = decode1(t, X86L{}, j)
	if u.Kind != KindJump || u.Target != 0x1000+5-32 {
		t.Errorf("jmp: %+v", u)
	}
}

func TestX86CMov(t *testing.T) {
	b, ok := X86CMov(CondFEQ, 4, 9)
	if !ok {
		t.Fatal("cmov failed")
	}
	u := decode1(t, X86L{}, b)
	if u.Alu != AluSelect || u.Cond != CondFEQ || u.Dst != 4 || u.Src1 != 9 ||
		u.Src2 != 4 || u.Src3 != X86Flags {
		t.Errorf("cmov: %+v", u)
	}
}

func TestX86Misc(t *testing.T) {
	if u := decode1(t, X86L{}, X86Nop()); u.Kind != KindNop {
		t.Errorf("nop: %+v", u)
	}
	if u := decode1(t, X86L{}, X86Halt()); u.Kind != KindHalt {
		t.Errorf("halt: %+v", u)
	}
	if u := decode1(t, X86L{}, X86Magic(MagicCheckpoint)); u.Kind != KindMagic || u.Imm != MagicCheckpoint {
		t.Errorf("magic: %+v", u)
	}
	if u := decode1(t, X86L{}, X86Magic(3)); u.Kind != KindWFI {
		t.Errorf("wfi: %+v", u)
	}
	u := decode1(t, X86L{}, X86JmpReg(12))
	if u.Kind != KindJumpReg || u.Src1 != 12 {
		t.Errorf("jmp reg: %+v", u)
	}
}

func TestX86IllegalConsumesOneByte(t *testing.T) {
	d := decodeAll(t, X86L{}, []byte{0xDD, 0x90, 0x90})
	if d.Uops()[0].Kind != KindIllegal || d.Size != 1 {
		t.Errorf("illegal: %+v size %d", d.Uops()[0], d.Size)
	}
}

func TestX86VariableLengthDesync(t *testing.T) {
	// A mov imm64 followed by a nop: corrupting the mov's opcode byte so
	// that decode consumes a different length must shift where the next
	// instruction is read from. This is the desync mechanism the fault
	// injector relies on.
	x := X86L{}
	code := append(X86MovImm64(1, 0x42), X86Nop()...)
	d0 := x.Decode(0, code)
	if d0.Size != 10 {
		t.Fatalf("mov imm64 size %d", d0.Size)
	}
	// Corrupt byte 1 (the 0xB8+r opcode) to an illegal byte.
	code[1] = 0xDD
	d1 := x.Decode(0, code)
	if d1.Size == 10 {
		t.Error("corrupted opcode should change the decode span")
	}
}

func TestX86RoundTripQuick(t *testing.T) {
	f := func(dst, src uint8, opSel uint8, disp int32) bool {
		ops := []AluOp{AluAdd, AluOr, AluAnd, AluSub, AluXor}
		op := ops[int(opSel)%len(ops)]
		d, s := Reg(dst%15), Reg(src%15)
		b, ok := X86ALUrm(op, d, s, int64(disp))
		if !ok {
			return false
		}
		dec := X86L{}.Decode(0, b)
		if len(dec.Uops()) != 2 || dec.Size != len(b) {
			return false
		}
		ld, ex := dec.Uops()[0], dec.Uops()[1]
		return ld.Kind == KindLoad && ld.Src1 == s && ld.Imm == int64(disp) &&
			ex.Alu == op && ex.Dst == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodedSizesCoverStream(t *testing.T) {
	// Decoding any byte soup must always make progress and never exceed
	// MaxInstLen, for all three ISAs.
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 4096)
	rng.Read(buf)
	for _, a := range All() {
		pos := 0
		for pos < len(buf)-a.MaxInstLen() {
			d := a.Decode(uint64(pos), buf[pos:pos+a.MaxInstLen()])
			if d.Size <= 0 || d.Size > a.MaxInstLen() {
				t.Fatalf("%s: bad size %d at %d", a.Name(), d.Size, pos)
			}
			if len(d.Uops()) == 0 {
				t.Fatalf("%s: no uops at %d", a.Name(), pos)
			}
			if !d.Uops()[len(d.Uops())-1].Last {
				t.Fatalf("%s: last uop not marked at %d", a.Name(), pos)
			}
			pos += d.Size
		}
	}
}

// TestDecodeZeroAlloc requires decoding to allocate nothing on any ISA:
// micro-ops live inline in Decoded. The stream mixes random bytes (legal
// and illegal forms) with the longest cracks.
func TestDecodeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	soup := make([]byte, 4096)
	rng.Read(soup)
	movk, _ := ArmMovW(true, 3, 1, 0xBEEF)
	cracks := map[string][]byte{
		"x86":   append(X86Div(true, 3), mustX86(X86ALUrm(AluAdd, 2, 5, 0x1234))...),
		"arm":   le(movk),
		"riscv": nil,
	}
	for _, a := range All() {
		stream := append(append(append([]byte(nil), cracks[a.Name()]...), soup...), make([]byte, a.MaxInstLen())...)
		allocs := testing.AllocsPerRun(10, func() {
			for pos := 0; pos < len(stream)-a.MaxInstLen(); {
				d := a.Decode(uint64(pos), stream[pos:pos+a.MaxInstLen()])
				pos += d.Size
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per decoded stream, want 0", a.Name(), allocs)
		}
	}
}

func mustX86(b []byte, ok bool) []byte {
	if !ok {
		panic("encode failed")
	}
	return b
}

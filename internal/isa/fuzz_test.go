package isa

import (
	"reflect"
	"testing"
)

// FuzzISARoundTrip drives all three decoders over arbitrary byte streams
// and checks the contracts the pipeline depends on:
//
//   - Decode never panics and never reads past MaxInstLen (enforced by
//     handing it capacity-clamped windows of exactly MaxInstLen bytes —
//     the fetch contract — so any over-read is an index panic);
//   - Decode always makes progress: 1 <= Size <= MaxInstLen, at least
//     one micro-op, and exactly the final micro-op carries Last (the
//     commit boundary);
//   - Decode is a pure function of (pc, bytes);
//   - register-ALU encodings round-trip: encode → decode → re-encode
//     from the decoded micro-op reproduces the original bytes on every
//     ISA, so campaign fault coordinates stay stable across decoders.
func FuzzISARoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x33, 0x85, 0xC6, 0x00})             // RV64L add
	f.Add([]byte{0x0F})                               // X86L truncated two-byte opcode
	f.Add([]byte{0x0F, 0x84, 0x10, 0x00, 0x00, 0x00}) // X86L jcc
	f.Add([]byte{0x48, 0x01})                         // X86L REX + truncated ALU
	f.Add([]byte{0xF4, 0x90, 0x90, 0x90})             // X86L halt + nops
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x01, 0x00, 0x51, 0xE0, 0x33, 0x85, 0xC6, 0x00, 0x0F, 0x04, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, arch := range All() {
			checkDecodeStream(t, arch, data)
		}
		checkEncodeRoundTrip(t, data)
	})
}

// FuzzDecodeWindow checks the window contract the CPU's decode memo keys
// on, for all three ISAs and arbitrary (pc, bytes) with more bytes than
// MaxInstLen:
//
//   - Decode(pc, b) equals Decode(pc, b[:MaxInstLen]): bytes past the
//     window never change the result, so a memo keyed on (pc, window) is
//     exact;
//   - the result holds 1..MaxUops micro-ops and only the final one has
//     Last set.
func FuzzDecodeWindow(f *testing.F) {
	f.Add(uint64(0x1000), []byte{0x33, 0x85, 0xC6, 0x00, 0x13, 0x05, 0x10, 0x00, 0x90, 0x90, 0x90, 0x90, 0x90})
	f.Add(uint64(0x2002), []byte{0x48, 0xF7, 0xF3, 0xF4, 0xF4, 0xF4, 0xF4, 0xF4, 0xF4, 0xF4, 0xF4, 0xF4, 0xF4, 0xF4}) // X86L div
	f.Add(uint64(0x3000), []byte{0x48, 0x81, 0x84, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA})       // X86L ALU [m], imm32
	f.Add(uint64(0), []byte{0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})                       // X86L mov imm64
	f.Add(uint64(0xFFFFFFFFFFFFFFF0), []byte{0x0F, 0x84, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, pc uint64, data []byte) {
		for _, a := range All() {
			max := a.MaxInstLen()
			b := append([]byte(nil), data...)
			for len(b) <= max { // always hand Decode more than the window
				b = append(b, byte(len(b))*0x9D+0x5B)
			}
			full := a.Decode(pc, b)
			win := a.Decode(pc, b[:max:max])
			if full != win {
				t.Fatalf("%s: pc %#x bytes % x: decode reads past the %d-byte window:\n full   %+v\n window %+v",
					a.Name(), pc, b, max, full, win)
			}
			uops := win.Uops()
			if len(uops) < 1 || len(uops) > MaxUops {
				t.Fatalf("%s: %d micro-ops for % x, want 1..%d", a.Name(), len(uops), b[:max], MaxUops)
			}
			for i, u := range uops {
				if u.Last != (i == len(uops)-1) {
					t.Fatalf("%s: uop %d/%d Last=%v for % x", a.Name(), i, len(uops), u.Last, b[:max])
				}
			}
		}
	})
}

// checkDecodeStream decodes data as an instruction stream, handing the
// decoder exactly MaxInstLen bytes per instruction like the fetch unit
// does.
func checkDecodeStream(t *testing.T, a Arch, data []byte) {
	t.Helper()
	max := a.MaxInstLen()
	fixed := a.Traits().FixedInstLen
	// Zero-pad the tail so the last windows are full-length; clamp each
	// window's capacity so reading byte max or beyond panics the fuzzer.
	stream := append(append([]byte{}, data...), make([]byte, max)...)
	const pc0 = uint64(0x1000)
	for off := 0; off < len(data); {
		win := stream[off : off+max : off+max]
		d := a.Decode(pc0+uint64(off), win)
		if d.Size < 1 || d.Size > max {
			t.Fatalf("%s: size %d outside [1,%d] for % x", a.Name(), d.Size, max, win)
		}
		if fixed != 0 && d.Size != fixed {
			t.Fatalf("%s: size %d on a fixed-%d-byte ISA for % x", a.Name(), d.Size, fixed, win)
		}
		if len(d.Uops()) == 0 {
			t.Fatalf("%s: no micro-ops for % x", a.Name(), win)
		}
		for i, u := range d.Uops() {
			if got, want := u.Last, i == len(d.Uops())-1; got != want {
				t.Fatalf("%s: uop %d/%d Last=%v for % x", a.Name(), i, len(d.Uops()), got, win)
			}
		}
		if d2 := a.Decode(pc0+uint64(off), win); !reflect.DeepEqual(d, d2) {
			t.Fatalf("%s: decode not deterministic for % x", a.Name(), win)
		}
		off += d.Size
	}
}

// checkEncodeRoundTrip derives a register-ALU instruction from the fuzz
// input on each ISA, decodes it, and re-encodes from the decoded
// micro-op's own fields.
func checkEncodeRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	op := AluOp(data[0]) % AluNumOps

	// RV64L: 5-bit register fields; avoid x0, whose writes decode to the
	// canonical discard form.
	if w, ok := RvALU(op, Reg(data[1]%31+1), Reg(data[2]%32), Reg(data[3]%32)); ok {
		b := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
		d := RV64L{}.Decode(0x1000, b)
		if len(d.Uops()) != 1 {
			t.Fatalf("riscv: ALU word %08x cracked into %d uops", w, len(d.Uops()))
		}
		u := d.Uops()[0]
		w2, ok2 := RvALU(u.Alu, u.Dst, u.Src1, u.Src2)
		if !ok2 || w2 != w {
			t.Fatalf("riscv: %08x decoded to alu=%d rd=%d rs1=%d rs2=%d, re-encodes to %08x (ok=%v)",
				w, u.Alu, u.Dst, u.Src1, u.Src2, w2, ok2)
		}
	}

	// ARM64L: 4-bit register fields.
	if w, ok := ArmALUReg(op, Reg(data[1]%16), Reg(data[2]%16), Reg(data[3]%16), 0); ok {
		b := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
		d := ARM64L{}.Decode(0x1000, b)
		u, n := soleALU(d, op)
		if n == 0 {
			t.Fatalf("arm: ALU word %08x decoded without a matching ALU uop", w)
		}
		// Re-encode only plain register forms: flag-writing variants
		// (cmp-style) decode with the flags register as destination and
		// have no reg-ALU re-encoding.
		if n == 1 && archRegs(u, 16) {
			w2, ok2 := ArmALUReg(u.Alu, u.Dst, u.Src1, u.Src2, 0)
			if !ok2 || w2 != w {
				t.Fatalf("arm: %08x re-encodes to %08x (ok=%v)", w, w2, ok2)
			}
		}
	}

	// X86L: REX-extended 4-bit fields; dst is both source and destination.
	if enc, ok := X86ALUrr(op, Reg(data[1]%16), Reg(data[2]%16)); ok {
		d := X86L{}.Decode(0x1000, padTo(enc, X86L{}.MaxInstLen()))
		if d.Size != len(enc) {
			t.Fatalf("x86: ALU encoding % x decoded with size %d", enc, d.Size)
		}
		u, n := soleALU(d, op)
		if n == 0 {
			t.Fatalf("x86: ALU encoding % x decoded without a matching ALU uop", enc)
		}
		if n == 1 && archRegs(u, 16) {
			enc2, ok2 := X86ALUrr(u.Alu, u.Dst, u.Src2)
			if !ok2 || !reflect.DeepEqual(enc2, enc) {
				t.Fatalf("x86: % x re-encodes to % x (ok=%v)", enc, enc2, ok2)
			}
		}
	}
}

// soleALU finds the ALU micro-op computing op in a decode result and how
// many uops matched.
func soleALU(d Decoded, op AluOp) (MicroOp, int) {
	var out MicroOp
	n := 0
	for _, u := range d.Uops() {
		if u.Kind == KindALU || u.Kind == KindMul || u.Kind == KindDiv {
			if u.Alu == op {
				out = u
				n++
			}
		}
	}
	return out, n
}

// archRegs reports whether every register the uop names is one of the
// first n architectural registers (or unused).
func archRegs(u MicroOp, n Reg) bool {
	for _, r := range []Reg{u.Dst, u.Src1, u.Src2} {
		if r != NoReg && r >= n {
			return false
		}
	}
	return true
}

func padTo(b []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, b)
	return out[:n:n]
}

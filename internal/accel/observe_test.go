package accel

import (
	"testing"

	"marvel/internal/core"
)

// TestPortCompleteness is the accelerator half of the port-completeness
// guard of exact stuck-at pruning: a bank byte a Read returned is refuted
// by the summary for the opposite stuck value, and a byte only written is
// never read.
func TestPortCompleteness(t *testing.T) {
	b := NewBank(BankSpec{Name: "spm", Kind: SPM, Base: 0x100, Size: 16})
	if err := b.Write(0x100, []byte{0xC6}); err != nil {
		t.Fatal(err)
	}
	s := core.NewReadSummary(b.BitLen())
	b.Observe(s)
	if err := b.Read(0x100, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x101, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	for bit := uint64(0); bit < 8; bit++ {
		v := uint8(0xC6 >> bit & 1)
		if s.Unobserved(bit, 1-v) {
			t.Errorf("read: stuck-at-%d on bit %d, read as %d, is pruned", 1-v, bit, v)
		}
		if !s.Unobserved(8+bit, 0) || !s.Unobserved(8+bit, 1) {
			t.Errorf("bit %d of the written byte was never read but is not pruned", bit)
		}
	}
}

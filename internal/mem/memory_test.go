package mem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestMemoryCloneForkAllocBound guards the paged representation: cloning
// or forking a 4 MiB memory copies its page table, never its bytes.
func TestMemoryCloneForkAllocBound(t *testing.T) {
	const bound = 64 << 10
	m := NewMemory(0, 4<<20, 1)
	for _, a := range []uint64{0, 1 << 20, 4<<20 - 8} {
		if err := m.Write(a, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatal(err)
		}
	}
	f := m.Fork()
	for _, a := range []uint64{8, 2 << 20, 3 << 20} {
		if err := f.Write(a, []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		op   func() *Memory
	}{
		{"Clone", m.Clone},
		{"Fork", m.Fork},
		{"Clone of a fork", f.Clone},
		{"Fork of a fork", f.Fork},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := c.op()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(out)
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Errorf("%s of a 4 MiB memory with three touched pages allocated %d bytes, want < %d", c.name, got, bound)
		}
	}
}

// TestMemorySnapshotSharedAcrossGoroutines forks and clones one snapshot
// from several goroutines while the memory it was cloned from keeps
// running; under the race detector it shows that neither the running
// source nor any fork or clone writes a page buffer another can see.
func TestMemorySnapshotSharedAcrossGoroutines(t *testing.T) {
	const size, workers = 8 * pageSize, 4
	running := NewMemory(0, size, 1)
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i * 13)
	}
	if err := running.Write(0, pattern); err != nil {
		t.Fatal(err)
	}
	snap := running.Clone()
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := running.Write(uint64(i*97%size), []byte{0xff, 0xfe}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			f, c := snap.Fork(), snap.Clone()
			got := make([]byte, size)
			for i := 0; i < 50; i++ {
				a := uint64((w*1031 + i*331) % (size - 1))
				if f.Write(a, []byte{byte(w), byte(i)}) != nil || c.Write(a, []byte{byte(i)}) != nil {
					t.Error("write failed")
					return
				}
				f.Reset()
				if err := f.Read(0, got); err != nil || !bytes.Equal(got, pattern) {
					t.Errorf("worker %d: reset fork differs from the snapshot (err %v)", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := make([]byte, size)
	if err := snap.Read(0, got); err != nil || !bytes.Equal(got, pattern) {
		t.Fatalf("snapshot changed while shared (err %v)", err)
	}
}

// pagingView is one memory under FuzzMemoryPaging with its flat reference
// model. A fork also keeps the model of the image Reset restores.
type pagingView struct {
	m      *Memory
	model  []byte
	golden []byte // nil unless m is a fork
	frozen bool   // forked from: must not be written or reset again
}

// FuzzMemoryPaging drives random sequences of Write, Read, Clone, Fork and
// Reset over a small memory whose last page is partial, and after every
// operation checks every live view against a flat []byte model: writes to
// a clone or fork never show in its source and vice versa, and Reset
// restores exactly the image the fork was taken from.
func FuzzMemoryPaging(f *testing.F) {
	const (
		base     = 0x3000
		size     = 3*pageSize + 123
		maxViews = 8
		maxOps   = 64 // every op checks every view, so long inputs only slow the fuzzer
		opBytes  = 6
	)
	f.Add([]byte{
		0, 0, 0x0f, 0xfc, 8, 0xaa, // write across pages 0/1
		3, 0, 0, 0, 0, 0, // fork view 0
		0, 1, 0x0f, 0xfe, 4, 0x11, // write the fork across pages 0/1
		2, 0, 0, 0, 0, 0, // clone the frozen source
		0, 2, 0x30, 0x70, 16, 0x22, // write the partial last page of the clone
		4, 1, 0, 0, 0, 0, // reset the fork
		1, 1, 0x0f, 0xf0, 32, 0, // read it back
	})
	f.Add([]byte{
		0, 0, 0x00, 0x10, 4, 0xaa, // the root owns page 0
		2, 0, 0, 0, 0, 0, // clone the running root
		0, 0, 0x00, 0x10, 4, 0xbb, // the root writes the page it now shares
	})
	f.Add([]byte{
		3, 0, 0, 0, 0, 0, // fork an untouched memory
		0, 1, 0x00, 0x10, 4, 0xaa, // the fork materializes page 0
		2, 1, 0, 0, 0, 0, // clone the running fork
		4, 1, 0, 0, 0, 0, // reset the fork
		0, 1, 0x00, 0x20, 4, 0xbb, // re-dirty page 0 after the reset
	})
	f.Add([]byte{
		3, 0, 0, 0, 0, 0, // fork an untouched memory
		0, 1, 0x00, 0x10, 4, 0xaa, // the fork materializes page 0
		4, 1, 0, 0, 0, 0, // reset the fork: page 0 is nil again
		0, 1, 0x00, 0x40, 4, 0xbb, // re-dirty page 0 into the spare buffer
		3, 1, 0, 0, 0, 0, // fork the fork
		0, 2, 0x20, 0x00, 250, 0x01, // large write, partly out of range
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), maxOps*opBytes)]
		root := NewMemory(base, size, 1)
		views := []*pagingView{{m: root, model: make([]byte, size)}}
		buf := make([]byte, size)
		for len(ops) >= opBytes {
			op := ops[:opBytes]
			ops = ops[opBytes:]
			v := views[int(op[1])%len(views)]
			off := (int(op[2])<<8 | int(op[3])) % (size + 64)
			n := int(op[4])
			if n >= 240 {
				n = (n - 239) * pageSize / 4
			}
			switch op[0] % 5 {
			case 0: // Write
				if v.frozen {
					continue
				}
				data := bytes.Repeat([]byte{op[5]}, n)
				for i := range data {
					data[i] += byte(i)
				}
				err := v.m.Write(base+uint64(off), data)
				if inRange := off+n <= size; inRange != (err == nil) {
					t.Fatalf("Write(%#x, %d) in range %v, err %v", off, n, inRange, err)
				}
				if err == nil {
					copy(v.model[off:], data)
				}
			case 1: // Read of a sub-range
				n = min(n, size)
				err := v.m.Read(base+uint64(off), buf[:n])
				if inRange := off+n <= size; inRange != (err == nil) {
					t.Fatalf("Read(%#x, %d) in range %v, err %v", off, n, inRange, err)
				}
				if err == nil && !bytes.Equal(buf[:n], v.model[off:off+n]) {
					t.Fatalf("Read(%#x, %d) differs from the model", off, n)
				}
			case 2: // Clone
				if len(views) < maxViews {
					views = append(views, &pagingView{m: v.m.Clone(), model: bytes.Clone(v.model)})
				}
			case 3: // Fork
				if len(views) < maxViews {
					v.frozen = true
					views = append(views, &pagingView{m: v.m.Fork(), model: bytes.Clone(v.model), golden: bytes.Clone(v.model)})
				}
			case 4: // Reset
				if v.frozen {
					continue
				}
				resets := v.m.CoW().Resets
				v.m.Reset()
				if v.golden == nil {
					if got := v.m.CoW(); got != (CoWStats{}) {
						t.Fatalf("Reset of a memory that is not a fork counted %+v", got)
					}
					continue
				}
				copy(v.model, v.golden)
				if got := v.m.CoW().Resets; got != resets+1 {
					t.Fatalf("Resets %d after a reset, want %d", got, resets+1)
				}
			}
			for i, w := range views {
				if err := w.m.Read(base, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, w.model) {
					t.Fatalf("view %d differs from its model after op %v", i, op)
				}
			}
		}
	})
}

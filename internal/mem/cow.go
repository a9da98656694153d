package mem

// cowTable is a table of equally sized buffers shared copy-on-write
// between a store and its clones and forks: main memory holds its pages in
// one, and every cache its blocks of whole sets. A nil entry reads as a
// fresh buffer, so a new store allocates only the entries that get
// written. clone and fork copy only the table and share every buffer; the
// first write to an entry a table does not own materializes a private
// copy, so no table ever writes a buffer another one can see.
type cowTable[B any] struct {
	bufs []*B
	// owned[i] reports that bufs[i] is private to this table and may be
	// written in place.
	owned []bool

	// Fork state (golden != nil): golden is the table reset restores,
	// dirty lists the entries materialized since the last reset, and
	// spare[i] is the private buffer entry i last materialized into,
	// which reset keeps so re-dirtying the entry allocates nothing.
	golden []*B
	dirty  []int
	spare  []*B
	// copies counts a fork's materializations.
	copies uint64

	// alloc returns a new buffer; fill makes dst a copy of src, or a fresh
	// buffer when src is nil.
	alloc func() *B
	fill  func(dst, src *B)
}

func newCowTable[B any](n int, alloc func() *B, fill func(dst, src *B)) cowTable[B] {
	return cowTable[B]{bufs: make([]*B, n), owned: make([]bool, n), alloc: alloc, fill: fill}
}

// writable returns entry i's buffer for writing in place.
func (t *cowTable[B]) writable(i int) *B {
	if !t.owned[i] {
		t.materialize(i)
	}
	return t.bufs[i]
}

// materialize gives entry i a private copy of its current contents,
// reusing a fork's spare buffer when it has one.
func (t *cowTable[B]) materialize(i int) {
	var buf *B
	if t.golden != nil {
		if t.spare[i] == nil {
			t.spare[i] = t.alloc()
		}
		buf = t.spare[i]
		t.dirty = append(t.dirty, i)
		t.copies++
	} else {
		buf = t.alloc()
	}
	t.fill(buf, t.bufs[i])
	t.bufs[i] = buf
	t.owned[i] = true
}

// fork returns a table sharing every buffer that reset rolls back to the
// current contents. It does not modify t, so many forks may be taken from
// one table concurrently.
func (t *cowTable[B]) fork() cowTable[B] {
	n := len(t.bufs)
	return cowTable[B]{
		bufs:   append([]*B(nil), t.bufs...),
		owned:  make([]bool, n),
		golden: append([]*B(nil), t.bufs...),
		spare:  make([]*B, n),
		alloc:  t.alloc,
		fill:   t.fill,
	}
}

// reset restores the golden buffer of every entry a fork materialized:
// O(dirty entries), no allocation, no copying. It reports whether t is a
// fork; other tables ignore it.
func (t *cowTable[B]) reset() bool {
	if t.golden == nil {
		return false
	}
	for _, i := range t.dirty {
		t.bufs[i] = t.golden[i]
		t.owned[i] = false
	}
	t.dirty = t.dirty[:0]
	return true
}

// clone returns a table, not a fork, holding the current contents. It
// shares every buffer with t, and t gives up ownership of its buffers so
// that it may keep being written without writing a shared buffer in
// place. That is the only change to t, and it writes nothing when t owns
// no buffers (as with every clone and every unwritten fork), so such
// tables may be cloned concurrently.
func (t *cowTable[B]) clone() cowTable[B] {
	for i, own := range t.owned {
		if own {
			t.owned[i] = false
			if t.golden != nil {
				t.spare[i] = nil // now shared with the clone
			}
		}
	}
	return cowTable[B]{
		bufs:  append([]*B(nil), t.bufs...),
		owned: make([]bool, len(t.bufs)),
		alloc: t.alloc,
		fill:  t.fill,
	}
}

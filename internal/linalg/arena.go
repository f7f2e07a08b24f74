package linalg

// Arena is a bump allocator for the batch matrices of one processing
// iteration. The batched training loops allocate a dozen short-lived
// matrices per minibatch (inputs, activations, gradients), and a batched
// inference call does the same per chunk of plans; taking them from a
// reused slab instead of the heap removes the allocation, zeroing, and
// GC-scan costs that otherwise dominate the vectorized paths.
//
// Usage contract: call Reset at the top of each iteration, after which
// every matrix handed out since the previous Reset is dead. Matrices that
// must outlive the iteration (model weights, accumulated gradients,
// results) must not come from the arena. An Arena is owned by a single
// goroutine at a time: a training loop keeps one for its whole run, an
// inference call takes one from its package's sync.Pool and holds it
// until it returns (one Get per call), so concurrent calls never share.
type Arena struct {
	slab []float64
	off  int
	// hdrs backs the Matrix headers Alloc hands out, recycled by the same
	// rule as the floats, so a warmed-up arena allocates nothing at all.
	hdrs []Matrix
	nhdr int
}

// Reset recycles the arena: subsequent allocations reuse the slab from
// the start. The caller promises that no matrix from before the Reset is
// still in use.
func (a *Arena) Reset() { a.off, a.nhdr = 0, 0 }

// maxPooledFloats caps the slab an idle pooled arena may pin: 2 MiB of
// float64, room for a full 1024-node inference chunk at this repo's
// widths.
const maxPooledFloats = 1 << 18

// Poolable reports whether the arena is small enough to keep in a
// sync.Pool between calls. One that an unusually large batch inflated is
// dropped instead — the maxPooledEncBuf rule of serve/http.go.
func (a *Arena) Poolable() bool { return len(a.slab) <= maxPooledFloats }

// grow ensures n more floats are available. Matrices handed out earlier
// keep referencing the old slab, so they stay valid.
func (a *Arena) grow(n int) {
	size := 2 * len(a.slab)
	if size < n {
		size = n
	}
	if size < 1024 {
		size = 1024
	}
	a.slab = make([]float64, size)
	a.off = 0
}

// Floats returns an n-element scratch slice with undefined contents. The
// caller must overwrite every element it reads.
func (a *Arena) Floats(n int) []float64 {
	if a.off+n > len(a.slab) {
		a.grow(n)
	}
	out := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

// Alloc returns a rows×cols matrix with undefined contents. The caller
// must overwrite every element it reads — batched forward passes and
// full-overwrite masks qualify; accumulators do not (use AllocZero).
func (a *Arena) Alloc(rows, cols int) *Matrix {
	if a.nhdr == len(a.hdrs) {
		// Headers handed out earlier keep pointing into the old block.
		a.hdrs = make([]Matrix, max(2*len(a.hdrs), 16))
		a.nhdr = 0
	}
	m := &a.hdrs[a.nhdr]
	a.nhdr++
	*m = Matrix{Rows: rows, Cols: cols, Data: a.Floats(rows * cols)}
	return m
}

// AllocZero returns a zeroed rows×cols matrix, for use as an accumulator.
func (a *Arena) AllocZero(rows, cols int) *Matrix {
	m := a.Alloc(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

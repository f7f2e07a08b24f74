package encoding

import (
	"repro/internal/featred"
	"repro/internal/linalg"
	"repro/internal/planner"
	"repro/internal/snapshot"
)

// Featurizer composes the three stages of QCFE's feature pipeline for one
// plan node: the general encoding (always), the feature-snapshot block
// (when a snapshot is attached — the FS of §III), and the feature-reduction
// mask (when attached — the FR of §IV). Models consume nodes exclusively
// through a Featurizer, so plugging QCFE into QPPNet or MSCN is just a
// matter of which fields are set.
type Featurizer struct {
	Enc *Encoder
	// Snaps maps environment ID → that environment's feature snapshot.
	// Nodes select their snapshot through their EnvID tag. nil disables
	// the snapshot block entirely (the "general FE" baseline).
	Snaps map[int]*snapshot.Snapshot
	Mask  []bool // optional; length must equal RawDim
}

// RawDim is the unmasked feature width (encoding + snapshot block).
func (f *Featurizer) RawDim() int {
	d := f.Enc.Dim()
	if f.Snaps != nil {
		d += snapshot.FeatureDim
	}
	return d
}

// Dim is the final model input width after masking.
func (f *Featurizer) Dim() int {
	if f.Mask == nil {
		return f.RawDim()
	}
	return featred.CountKept(f.Mask)
}

// Raw returns the unmasked feature vector for one node.
func (f *Featurizer) Raw(n *planner.Node) []float64 {
	v := make([]float64, f.RawDim())
	f.rawInto(n, v)
	return v
}

// rawInto writes the unmasked vector into dst (length RawDim): the
// general encoding, then the node's environment's snapshot block — zeros
// when that environment has no snapshot.
func (f *Featurizer) rawInto(n *planner.Node, dst []float64) {
	d := f.Enc.Dim()
	f.Enc.EncodeNodeInto(n, dst[:d])
	if f.Snaps == nil {
		return
	}
	block := dst[d : d+snapshot.FeatureDim]
	if s := f.Snaps[n.EnvID]; s != nil {
		s.FeaturesInto(n, block)
		return
	}
	clear(block)
}

// rawStack is the widest raw vector the masking scratch holds on the
// stack; the three benchmark schemas need about 40. A wider schema still
// works, its scratch just comes from the heap.
const rawStack = 128

// rawScratch returns a RawDim-long masking scratch backed by buf when it
// fits. A Featurizer keeps no scratch of its own: it is a plain struct
// whose fields callers assign, shared by concurrent readers.
func (f *Featurizer) rawScratch(buf *[rawStack]float64) []float64 {
	d := f.RawDim()
	if d <= rawStack {
		return buf[:d]
	}
	return make([]float64, d)
}

// nodeInto writes the final (masked) vector for one node into dst
// (length Dim). raw is RawDim-long scratch, unused without a mask.
func (f *Featurizer) nodeInto(n *planner.Node, dst, raw []float64) {
	if f.Mask == nil {
		f.rawInto(n, dst)
		return
	}
	f.rawInto(n, raw)
	featred.ApplyInto(f.Mask, raw, dst)
}

// Node returns the final (masked) feature vector for one node.
func (f *Featurizer) Node(n *planner.Node) []float64 {
	v := make([]float64, f.Dim())
	f.NodeInto(n, v)
	return v
}

// NodeInto featurizes one node directly into dst (length Dim) — the
// allocation-free form of Node for matrix gathers.
func (f *Featurizer) NodeInto(n *planner.Node, dst []float64) {
	var buf [rawStack]float64
	f.nodeInto(n, dst, f.rawScratch(&buf))
}

// PlanMatrix featurizes every node of a plan in pre-order (Walk order)
// into one row-major matrix. Row order matches the per-sample traversal,
// which is what keeps batched set-pooling bit-identical to the scalar
// path.
func (f *Featurizer) PlanMatrix(root *planner.Node) *linalg.Matrix {
	m := linalg.NewMatrix(root.CountNodes(), f.Dim())
	f.PlanInto(root, m.Data)
	return m
}

// PlanInto featurizes every node of a plan in pre-order into dst, one
// Dim-wide row after another (dst holds CountNodes rows) — the gather
// step of the batched inference paths, which hand it a slice of their
// arena matrix.
func (f *Featurizer) PlanInto(root *planner.Node, dst []float64) {
	var buf [rawStack]float64
	w := planWalk{f: f, dim: f.Dim(), data: dst}
	w.visit(root, f.rawScratch(&buf))
}

// FeaturizedPlan is one plan with its per-node feature vectors computed
// once and kept — the value the query cache's feature tier stores. The
// two orders index the same underlying vectors: Pre is Walk (pre-order),
// the gather order of MSCN's set pooling; Post is children-first
// post-order, the order QPPNet's skeleton builder consumes. Entries are
// shared across concurrent readers and must be treated as immutable.
type FeaturizedPlan struct {
	Root *planner.Node
	Pre  [][]float64
	Post [][]float64
}

// NumNodes returns the plan size (the chunking unit of the batched
// inference paths).
func (fp *FeaturizedPlan) NumNodes() int { return len(fp.Pre) }

// Featurize computes a plan's full featurization (masked, snapshot block
// included) once, in both traversal orders. Every vector is a row of one
// n×Dim array the plan owns — never scratch, the feature tier keeps it —
// and the same slice in Pre and Post; one slice-header array backs both
// orders. Row i is bit-identical to Node() on the i-th pre-order node.
func (f *Featurizer) Featurize(root *planner.Node) *FeaturizedPlan {
	n := root.CountNodes()
	dim := f.Dim()
	rows := make([][]float64, 2*n)
	fp := &FeaturizedPlan{Root: root, Pre: rows[:n:n], Post: rows[n:]}
	var buf [rawStack]float64
	w := planWalk{f: f, dim: dim, data: make([]float64, n*dim), fp: fp}
	w.visit(root, f.rawScratch(&buf))
	return fp
}

// planWalk is the one recursion behind PlanInto and Featurize: it writes
// each node's vector into the next dim-wide row of data on the way down
// (pre-order) and, when fp is set, records the row in fp.Pre then and in
// fp.Post on the way back up. The masking scratch travels as an argument,
// not a field: rows stored in fp make the struct's contents escape, and
// the scratch must stay on the caller's stack.
type planWalk struct {
	f         *Featurizer
	dim       int
	data      []float64
	fp        *FeaturizedPlan
	pre, post int
}

func (w *planWalk) visit(n *planner.Node, raw []float64) {
	lo := w.pre * w.dim
	row := w.data[lo : lo+w.dim : lo+w.dim]
	w.f.nodeInto(n, row, raw)
	if w.fp != nil {
		w.fp.Pre[w.pre] = row
	}
	w.pre++
	for _, c := range n.Children {
		w.visit(c, raw)
	}
	if w.fp != nil {
		w.fp.Post[w.post] = row
		w.post++
	}
}

// Names labels the raw feature dimensions.
func (f *Featurizer) Names() []string {
	names := f.Enc.FeatureNames()
	if f.Snaps != nil {
		names = append(names, snapshot.FeatureNames()...)
	}
	return names
}

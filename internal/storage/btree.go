package storage

import (
	"repro/internal/catalog"
)

// btreeOrder is the maximum number of keys per node. It is sized so that a
// leaf of (Value, RowID) entries roughly fills one 8KB page, making Height
// a meaningful input to the I/O cost accounting.
const btreeOrder = 256

// BTree is a single-column B+tree secondary index mapping column values to
// heap RowIDs. Duplicate keys are allowed (non-unique indexes); entries for
// equal keys are kept in insertion order.
type BTree struct {
	root *btreeNode
	size int
}

type btreeNode struct {
	leaf     bool
	keys     []catalog.Value
	children []*btreeNode // interior: len(keys)+1
	rowIDs   []int        // leaf: parallel to keys
	next     *btreeNode   // leaf chain for range scans
}

// NewBTree returns an empty index.
func NewBTree() *BTree {
	return &BTree{root: &btreeNode{leaf: true}}
}

// Len returns the number of indexed entries.
func (t *BTree) Len() int { return t.size }

// Height returns the number of levels (1 for a leaf-only tree). The engine
// charges one random page access per level per probe.
func (t *BTree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// Insert adds (key, rowID) to the index.
func (t *BTree) Insert(key catalog.Value, rowID int) {
	t.size++
	newChild, splitKey := t.root.insert(key, rowID)
	if newChild != nil {
		t.root = &btreeNode{
			keys:     []catalog.Value{splitKey},
			children: []*btreeNode{t.root, newChild},
		}
	}
}

// insert descends to the correct leaf; on overflow it splits and returns
// the new right sibling plus the separator key.
func (n *btreeNode) insert(key catalog.Value, rowID int) (*btreeNode, catalog.Value) {
	if n.leaf {
		pos := n.upperBound(key)
		n.keys = append(n.keys, catalog.Value{})
		copy(n.keys[pos+1:], n.keys[pos:])
		n.keys[pos] = key
		n.rowIDs = append(n.rowIDs, 0)
		copy(n.rowIDs[pos+1:], n.rowIDs[pos:])
		n.rowIDs[pos] = rowID
		if len(n.keys) > btreeOrder {
			return n.splitLeaf()
		}
		return nil, catalog.Value{}
	}
	ci := n.upperBound(key)
	newChild, splitKey := n.children[ci].insert(key, rowID)
	if newChild == nil {
		return nil, catalog.Value{}
	}
	n.keys = append(n.keys, catalog.Value{})
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.keys) > btreeOrder {
		return n.splitInterior()
	}
	return nil, catalog.Value{}
}

// upperBound returns the index of the first key strictly greater than key
// (for leaves) or the child slot to descend into (for interiors).
func (n *btreeNode) upperBound(key catalog.Value) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].Compare(key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the index of the first key ≥ key.
func (n *btreeNode) lowerBound(key catalog.Value) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].Compare(key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *btreeNode) splitLeaf() (*btreeNode, catalog.Value) {
	mid := len(n.keys) / 2
	right := &btreeNode{
		leaf:   true,
		keys:   append([]catalog.Value(nil), n.keys[mid:]...),
		rowIDs: append([]int(nil), n.rowIDs[mid:]...),
		next:   n.next,
	}
	n.keys = n.keys[:mid]
	n.rowIDs = n.rowIDs[:mid]
	n.next = right
	return right, right.keys[0]
}

func (n *btreeNode) splitInterior() (*btreeNode, catalog.Value) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &btreeNode{
		keys:     append([]catalog.Value(nil), n.keys[mid+1:]...),
		children: append([]*btreeNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return right, sep
}

// Range visits rowIDs with keys in the interval defined by lo/hi (either
// may be nil for an open end) with inclusive flags. Visiting order is key
// order. The visitor returns false to stop.
func (t *BTree) Range(lo, hi *catalog.Value, loInc, hiInc bool, visit func(rowID int) bool) {
	n := t.root
	for !n.leaf {
		if lo == nil {
			n = n.children[0]
			continue
		}
		// Descend via lowerBound: duplicates equal to a separator key may
		// remain in the left sibling after a split, so the leftmost
		// occurrence of lo can live in the child *at* the separator slot.
		n = n.children[n.lowerBound(*lo)]
	}
	var pos int
	if lo != nil {
		if loInc {
			pos = n.lowerBound(*lo)
		} else {
			pos = n.upperBound(*lo)
		}
	}
	for n != nil {
		for ; pos < len(n.keys); pos++ {
			if hi != nil {
				c := n.keys[pos].Compare(*hi)
				if c > 0 || (c == 0 && !hiInc) {
					return
				}
			}
			if !visit(n.rowIDs[pos]) {
				return
			}
		}
		n = n.next
		pos = 0
	}
}

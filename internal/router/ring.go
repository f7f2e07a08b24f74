package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is the consistent-hash layout of the replica fleet: every replica
// owns Vnodes points on a 64-bit circle (FNV-1a of "id#vnode"), and a
// query's routing hash (sqlparse.RoutingHash — the FNV-1a of its
// normalized fingerprint, computed afresh for every routed query) lands
// on the first point clockwise from it.
//
// Two properties carry the serving contract:
//
//   - Resize stability: adding or removing a replica only remaps the
//     keys on that replica's own points (~1/N of the keyspace), so a
//     fleet resize mostly preserves every other replica's cache
//     locality — the reason for a ring rather than hash(key) % N.
//
//   - Deterministic fallback: the failover order for a key is the ring
//     walk clockwise from its point, first occurrence of each distinct
//     replica. It is a pure function of (key, fleet), independent of
//     load, timing, or which attempt is being made — so a retried query
//     lands on the same fallback replica every time, and routed results
//     stay reproducible even under failure.
type ring struct {
	ids    []string // replica IDs in configured order; index is the replica handle
	points []point  // sorted by hash
}

// point is one virtual node.
type point struct {
	hash    uint64
	replica int
}

// newRing lays out ids with vnodes points each. IDs must be distinct —
// two replicas hashing identical point sets would make the fallback
// walk ambiguous.
func newRing(ids []string, vnodes int) (*ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := make(map[string]bool, len(ids))
	r := &ring{ids: ids, points: make([]point, 0, len(ids)*vnodes)}
	for i, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("router: duplicate replica %q", id)
		}
		seen[id] = true
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", id, v)
			r.points = append(r.points, point{hash: h.Sum64(), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A full 64-bit collision between vnodes is astronomically
		// unlikely but must still order deterministically.
		return r.points[a].replica < r.points[b].replica
	})
	return r, nil
}

// pick returns the primary replica for a key hash: the owner of the
// first point at or clockwise of it.
func (r *ring) pick(hash uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].replica
}

// sequence returns the key's full deterministic failover order: the
// primary first, then each further distinct replica in ring-walk order.
// Every replica appears exactly once.
func (r *ring) sequence(hash uint64) []int {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	seq := make([]int, 0, len(r.ids))
	seen := make([]bool, len(r.ids))
	for k := 0; k < len(r.points) && len(seq) < len(r.ids); k++ {
		p := r.points[(start+k)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, p.replica)
		}
	}
	return seq
}

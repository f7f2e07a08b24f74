package qcache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// This file keeps the cache's previous index — a map per shard, read
// lock-free through a published copy-on-write snapshot — verbatim apart
// from the ref prefix, as the oracle TestMatchesReference compares the
// bucket-chain index against. Its hash is the one Key.hash must keep
// reproducing from the constructor-computed state: shard placement, and
// with it every CLOCK decision, depends on those bytes.

// refHash is FNV-64a over the key's components (with separators), used for
// shard selection. Inlined byte walk — no allocation.
func refHash(k Key) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	e := uint64(k.env)
	for i := 0; i < 8; i++ {
		h ^= (e >> (8 * i)) & 0xff
		h *= prime
	}
	for i := 0; i < len(k.txt); i++ {
		h ^= uint64(k.txt[i])
		h *= prime
	}
	h *= prime // separator: ("ab","c") and ("a","bc") diverge
	for i := 0; i < len(k.sig); i++ {
		h ^= uint64(k.sig[i])
		h *= prime
	}
	h *= prime // trailing separator
	return h
}

// refBox is one immutable (generation, value) pair. Stores swap a whole
// box atomically so a reader can never observe a value from one
// generation stamped with another.
type refBox struct {
	gen uint64
	val any
}

// refSlot is one resident entry, shared by pointer between the CLOCK ring,
// the authoritative index, and every published snapshot. A nil box
// means the slot was evicted: stale snapshots that still reference it
// report a miss.
type refSlot struct {
	key Key
	box atomic.Pointer[refBox]
	ref atomic.Bool // CLOCK reference bit; set lock-free by readers
}

// refShard is one lock domain. mu guards the authoritative state (index,
// ring, hand, used, missed); read is the immutable published snapshot
// the lock-free read side probes; pending counts insertions not yet
// published (readers consult it to decide whether the authoritative
// index could know more than the snapshot).
type refShard struct {
	mu      sync.Mutex
	read    atomic.Pointer[map[Key]*refSlot]
	pending atomic.Int64

	index map[Key]*refSlot
	ring  []*refSlot // fixed length = per-shard capacity; nil until first fill
	hand  int
	used  int
	// Publication pressure from the read side, both reset on publish:
	// slowHits counts locked probes that HIT (reads that would have been
	// lock-free had the snapshot caught up — once they reach pending,
	// publishing pays for itself); slowProbes counts every locked probe
	// (hit or miss) and forces a publish after a ring's worth, so a
	// cold-miss stream drains pending instead of locking forever, at an
	// amortized O(1) clone cost per probe.
	slowHits   int
	slowProbes int
}

// refTier is one cache level.
type refTier struct {
	shards       []*refShard
	mask         uint64
	promoteEvery int

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
}

func refNewTier(shards, capacity int) *refTier {
	per := max(capacity/shards, 1)
	t := &refTier{
		shards: make([]*refShard, shards),
		mask:   uint64(shards - 1),
		// Publish after at most per/8 pending insertions: cloning the
		// index costs O(per), so publication stays an amortized ~8 map
		// writes per insertion while bounding how long the snapshot can
		// trail the authoritative state.
		promoteEvery: max(per/8, 8),
	}
	for i := range t.shards {
		t.shards[i] = &refShard{index: make(map[Key]*refSlot, per), ring: make([]*refSlot, per)}
	}
	return t
}

func (t *refTier) shardFor(key Key) *refShard { return t.shards[refHash(key)&t.mask] }

// lookup is get's uninstrumented body.
func (t *refTier) lookup(key Key, g uint64) (any, bool) {
	s := t.shardFor(key)
	if m := s.read.Load(); m != nil {
		if sl, ok := (*m)[key]; ok {
			if b := sl.box.Load(); b != nil {
				// Live slots in a snapshot are authoritative: value
				// updates and generation re-stamps swap the box in
				// place, and eviction (the only way a slot leaves the
				// index) nils it.
				if b.gen == g {
					sl.ref.Store(true)
					t.hits.Add(1)
					return b.val, true
				}
				t.misses.Add(1)
				return nil, false
			}
			// Dead slot: the key may have been re-inserted behind a
			// fresher slot the snapshot does not know yet — fall through
			// to the pending check.
		}
	}
	if s.pending.Load() > 0 {
		if v, ok := s.slowGet(t, key, g); ok {
			return v, true
		}
	}
	t.misses.Add(1)
	return nil, false
}

// slowGet resolves a snapshot miss against the authoritative index while
// insertions are pending. It runs under the shard mutex — the only place
// the read side ever locks — and helps publish once enough locked
// probes have accumulated. Only locked HITS force an early publish
// (they are the reads publication would make lock-free); a miss learns
// nothing from a fresh snapshot, so misses only trigger the slow
// ring's-worth backstop — publishing the clone on every cold miss would
// turn a fresh-key workload into an O(capacity) copy per lookup.
func (s *refShard) slowGet(t *refTier, key Key, g uint64) (any, bool) {
	s.mu.Lock()
	sl, ok := s.index[key]
	var b *refBox
	if ok {
		b = sl.box.Load()
	}
	hit := b != nil && b.gen == g
	s.slowProbes++
	if hit {
		s.slowHits++
	}
	if (hit && int64(s.slowHits) >= s.pending.Load()) || s.slowProbes >= len(s.ring) {
		s.publishLocked()
	}
	s.mu.Unlock()
	if hit {
		sl.ref.Store(true)
		t.hits.Add(1)
		return b.val, true
	}
	return nil, false
}

// publishLocked clones the authoritative index into a fresh immutable
// snapshot and swaps it in. Caller holds s.mu.
func (s *refShard) publishLocked() {
	m := make(map[Key]*refSlot, len(s.index))
	for k, sl := range s.index {
		m[k] = sl
	}
	s.read.Store(&m)
	s.pending.Store(0)
	s.slowHits, s.slowProbes = 0, 0
}

// put stores val under key stamped with generation g, evicting via CLOCK
// second chance when the shard is full. Stale-generation residents are
// preferred victims regardless of their reference bit. Writers are the
// only lockers of the shard mutex in steady state; readers on published
// keys proceed untouched throughout.
func (t *refTier) put(key Key, g uint64, val any) {
	s := t.shardFor(key)
	b := &refBox{gen: g, val: val}
	s.mu.Lock()
	if sl, ok := s.index[key]; ok {
		// In-place update: visible to every snapshot holding this slot
		// without republishing.
		sl.box.Store(b)
		sl.ref.Store(true)
		s.mu.Unlock()
		t.stores.Add(1)
		return
	}
	var pos int
	if s.used < len(s.ring) {
		// Free slot available (ring not yet full): linear scan from the
		// hand — rings are small, and this only runs until first fill.
		for s.ring[s.hand] != nil {
			s.hand = (s.hand + 1) % len(s.ring)
		}
		pos = s.hand
		s.used++
	} else {
		// CLOCK sweep: clear reference bits until an unreferenced victim
		// turns up; entries from dead generations lose their second
		// chance immediately.
		for {
			v := s.ring[s.hand]
			vb := v.box.Load()
			if v.ref.Load() && vb != nil && vb.gen == g {
				v.ref.Store(false)
				s.hand = (s.hand + 1) % len(s.ring)
				continue
			}
			break
		}
		pos = s.hand
		victim := s.ring[pos]
		delete(s.index, victim.key)
		// Kill the slot, not just the index entry: readers holding a
		// snapshot that still references it must see a miss.
		victim.box.Store(nil)
		t.evictions.Add(1)
	}
	// New entries enter unreferenced — the first hit arms the bit — so a
	// stream of one-shot queries cycles through unreferenced slots
	// instead of stripping re-referenced residents of their second
	// chance (scan resistance).
	sl := &refSlot{key: key}
	sl.box.Store(b)
	s.ring[pos] = sl
	s.index[key] = sl
	s.hand = (pos + 1) % len(s.ring)
	if s.pending.Add(1) >= int64(t.promoteEvery) {
		s.publishLocked()
	}
	s.mu.Unlock()
	t.stores.Add(1)
}

func (t *refTier) stats() TierStats {
	st := TierStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Stores:    t.stores.Load(),
		Evictions: t.evictions.Load(),
	}
	for _, s := range t.shards {
		s.mu.Lock()
		st.Size += len(s.index)
		s.mu.Unlock()
	}
	return st
}

// TestMatchesReference drives seeded single-goroutine sequences through
// the bucket-chain tiers and the reference tiers side by side — gets and
// puts on all three tiers, generation flips, stale-stamped puts, 1–16
// shards and 1–512 entries so the stale-victim and second-chance rules
// fire — and after every operation
// requires the same (value, ok) and the same per-tier
// Hits/Misses/Stores/Evictions/Size. On a serial sequence the two indexes
// differ only in how a reader finds a slot, never in which slot exists.
func TestMatchesReference(t *testing.T) {
	seeds, ops := 40, 10000
	if testing.Short() {
		seeds, ops = 8, 2000
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 << rng.Intn(5)
		capacity := 1 + rng.Intn(512)
		var got [3]*tier
		var want [3]*refTier
		for i := range got {
			got[i], want[i] = newTier(shards, capacity), refNewTier(shards, capacity)
		}
		// Twice the capacity in distinct keys per tier: hits, misses and
		// evictions all happen.
		space := 2*capacity + 8
		key := func(tierIdx, n int) Key {
			fp := fmt.Sprintf("select * from t%d where a = ?", n%17)
			switch tierIdx {
			case 0:
				return TemplateKey(n%3, fmt.Sprintf("%s /*%d*/", fp, n))
			case 1:
				return FeatureKey(n%3, fp, fmt.Sprintf("n%d", n))
			default:
				return PredictionKey(n%3, fmt.Sprintf("SELECT %d", n))
			}
		}
		gen := uint64(1)
		for op := 0; op < ops; op++ {
			ti := rng.Intn(3)
			k := key(ti, rng.Intn(space))
			if h := refHash(k); k.hash() != h {
				t.Fatalf("seed %d: hash(%q) = %#x, reference %#x", seed, k.String(), k.hash(), h)
			}
			switch r := rng.Intn(100); {
			case r < 2:
				gen++
			case r < 5: // a straggler stamped with the previous generation
				got[ti].put(k, gen-1, op)
				want[ti].put(k, gen-1, op)
			case r < 50:
				got[ti].put(k, gen, op)
				want[ti].put(k, gen, op)
			default:
				v, ok := got[ti].get(k, gen)
				rv, rok := want[ti].lookup(k, gen)
				if v != rv || ok != rok {
					t.Fatalf("seed %d op %d: get(%q) = (%v, %v), reference (%v, %v)", seed, op, k.String(), v, ok, rv, rok)
				}
			}
			for i := range got {
				if g, w := got[i].stats(), want[i].stats(); g != w {
					t.Fatalf("seed %d op %d: tier %d stats %+v, reference %+v", seed, op, i, g, w)
				}
			}
		}
	}
}

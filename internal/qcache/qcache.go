// Package qcache is the sharded, generation-aware query-fingerprint
// cache behind the estimate hot path. It holds three tiers, each keyed
// off the normalized SQL fingerprint (internal/sqlparse.Fingerprint):
//
//	template    (env, fingerprint)            → resolved plan skeleton
//	feature     (env, fingerprint, literals)  → featurized plan
//	prediction  (env, exact SQL)              → predicted milliseconds
//
// A cold query pays the full front half (parse → resolve → plan →
// featurize → infer) and populates all three tiers on the way out. A
// repeat of the exact text hits the prediction tier and skips everything.
// A reformatted spelling of the same semantics hits the feature tier and
// pays only model inference. A new literal vector over a known template
// hits the template tier and skips lexing, parsing, and name resolution,
// re-planning from the cached skeleton so every literal-dependent
// decision (selectivities, operator choices) is recomputed — the property
// that keeps cached results bit-identical to uncached ones.
//
// # Generations
//
// Every entry is stamped with the generation it was computed under — a
// caller-supplied value derived from the estimator's full artifact hash
// (benchmark fingerprint, env snapshot coefficients, reduction mask,
// model weights). A lookup hits only when the entry's stamp equals the
// caller's generation, and SetGeneration is one atomic store: swapping
// in a retrained or freshly loaded estimator invalidates every tier at
// once without a global lock, and in-flight writes from the old
// generation can never satisfy new-generation reads.
//
// # Sharding and the RCU read side
//
// Each tier is split over a power-of-two number of shards, selected by
// the low bits of the key's FNV-64a hash. The hash is computed once, when
// the key is constructed (TemplateKey, FeatureKey, PredictionKey); the
// cache only folds in its tenant namespace. Within a shard a
// fixed-capacity CLOCK ring (second-chance LRU approximation) and a fixed
// power-of-two array of bucket chains index the resident entries; one
// mutex that only WRITERS take guards both. A reader picks its bucket
// from the hash's high 32 bits and walks the chain lock-free, comparing
// each slot's stored hash before its key: a warm hit is that walk plus
// three atomic operations (value load, CLOCK reference bit, hit counter)
// and performs zero heap allocations. Keys are comparable structs (not
// concatenated strings), so building a lookup key allocates nothing
// either.
//
// The chains are the textbook RCU hash list, with the garbage collector
// as the grace period — a slot nobody can reach any more is freed, and a
// reader standing on one can always reach it:
//
//   - A store to an existing key swaps the slot's value box in place (one
//     atomic pointer store), so updates — including re-stamping a key
//     after a generation swap — are visible to readers at once.
//   - A new key gets a fresh slot, pushed at the head of its bucket. Slots
//     are never reused, so put-then-get is a hit at once: the reader's
//     head load sees the pushed slot.
//   - An eviction nils the victim's box ("dead") and unlinks it with one
//     pointer store into its predecessor. The victim keeps its next, so a
//     reader standing on it walks on to the live tail.
//   - A reader that matches a dead slot walks on (a re-inserted key sits
//     nearer the head, so the walk can only end in a miss); a live slot
//     stamped with another generation is a miss.
//
// Counters are plain atomics incremented exactly once per lookup/store/
// eviction, so per-tier stats stay exact and monotonic under the
// lock-free read path.
package qcache

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// Options sizes a cache.
type Options struct {
	// Shards is the per-tier shard count, rounded up to a power of two.
	// 0 picks a default scaled to GOMAXPROCS.
	Shards int
	// Capacity is the per-tier entry budget, split evenly across shards
	// (minimum one entry per shard) and rounded to what that split holds:
	// shards × per-shard entries. 0 means 4096.
	Capacity int
	// Tenant namespaces every key this cache stores or looks up: the
	// tenant ID becomes part of the key identity (and its shard hash), so
	// entries written under one tenant can never satisfy — or collide
	// with — lookups under another, even if two caches' contents were
	// ever merged or a cache object were shared by mistake. The
	// multi-tenant registry (internal/tenant) gives every tenant its own
	// cache instance stamped with its name; single-tenant callers leave
	// it empty and keys are exactly the pre-tenant ones.
	Tenant string
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8 * runtime.GOMAXPROCS(0)
	}
	o.Shards = nextPow2(min(max(o.Shards, 8), 512))
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	o.Capacity = o.Shards * max(o.Capacity/o.Shards, 1)
	return o
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// TierStats is one tier's counter snapshot.
type TierStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
}

// Stats snapshots the whole cache.
type Stats struct {
	Generation uint64    `json:"generation"`
	Tenant     string    `json:"tenant,omitempty"`
	Shards     int       `json:"shards"`
	Capacity   int       `json:"capacity_per_tier"`
	Template   TierStats `json:"template"`
	Feature    TierStats `json:"feature"`
	Prediction TierStats `json:"prediction"`
}

// HitRate is hits/(hits+misses) over all tiers' lookups, 0 when idle.
func (s Stats) HitRate() float64 {
	h := s.Template.Hits + s.Feature.Hits + s.Prediction.Hits
	m := s.Template.Misses + s.Feature.Misses + s.Prediction.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Key identifies one cache entry: the environment ID plus the tier's
// string component(s), plus the owning cache's tenant namespace. It is
// a comparable struct rather than a concatenated string so hot-path
// lookups build it on the stack — a warm probe allocates nothing.
// Construct with PredictionKey, TemplateKey, or FeatureKey; the tenant
// component is stamped by the cache itself (from Options.Tenant) on
// every get/put, so callers cannot forge or forget it. Constructing a key
// hashes it, so a caller that probes and later stores under one key
// keeps the Key value rather than building it twice.
type Key struct {
	env int
	txt string // exact SQL (prediction) or fingerprint (template/feature)
	sig string // literal signature (feature tier only)
	tnt string // tenant namespace (Options.Tenant; "" single-tenant)
	h   uint64 // FNV-64a state up to the tenant separator; hash folds in tnt
}

// TemplateKey keys the template tier: (env, fingerprint). Tier keys
// embed the environment ID because every cached artifact downstream of
// planning is environment-specific (knobs steer operator choice; the
// snapshot block is per-environment).
func TemplateKey(envID int, fingerprint string) Key {
	return newKey(envID, fingerprint, "")
}

// FeatureKey keys the feature tier: (env, fingerprint, literal signature).
func FeatureKey(envID int, fingerprint, sig string) Key {
	return newKey(envID, fingerprint, sig)
}

// PredictionKey keys the prediction tier: (env, exact SQL text).
func PredictionKey(envID int, sql string) Key {
	return newKey(envID, sql, "")
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// newKey builds a key and runs FNV-64a over its components: the env ID's
// eight bytes, txt, a separator, sig, and the separator before the
// tenant namespace — so ("ab","c") and ("a","bc") diverge.
func newKey(env int, txt, sig string) Key {
	h := uint64(fnvOffset)
	e := uint64(env)
	for i := 0; i < 8; i++ {
		h ^= (e >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	h = fnvString(h, txt) * fnvPrime
	h = fnvString(h, sig) * fnvPrime
	return Key{env: env, txt: txt, sig: sig, h: h}
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// String renders the key for diagnostics (qcfe-explain). The hot path
// never calls it.
func (k Key) String() string {
	s := strconv.Itoa(k.env) + "\x00" + k.txt
	if k.sig != "" {
		s += "\x00" + k.sig
	}
	if k.tnt != "" {
		s = k.tnt + "\x00" + s
	}
	return s
}

// hash is the key's full FNV-64a: the constructor's state with the
// tenant namespace folded in. Its low bits pick the shard, its high 32
// the bucket.
func (k Key) hash() uint64 { return fnvString(k.h, k.tnt) }

// box is one immutable (generation, value) pair. Stores swap a whole
// box atomically so a reader can never observe a value from one
// generation stamped with another.
type box struct {
	gen uint64
	val any
}

// slot is one resident entry, shared by pointer between the CLOCK ring
// and its bucket chain. A nil box means the slot was evicted ("dead"):
// a reader that reaches it sees a miss and walks on through next, which
// an unlink never clears. Slots are never reused — a re-inserted key gets
// a fresh one.
type slot struct {
	hash uint64 // key.hash(), compared before the key's strings
	next atomic.Pointer[slot]
	key  Key
	box  atomic.Pointer[box]
	ref  atomic.Bool // CLOCK reference bit; set lock-free by readers
}

// shard is one lock domain. mu serialises writers over the ring, hand,
// used, and the bucket chains; readers walk the chains without it.
type shard struct {
	mu      sync.Mutex
	buckets []atomic.Pointer[slot] // chain heads; fixed power-of-two length
	ring    []*slot                // fixed length = per-shard capacity; nil until first fill
	hand    int
	used    int
}

// tier is one cache level.
type tier struct {
	shards []*shard
	mask   uint64 // shard index: the hash's low bits
	bmask  uint64 // bucket index: the hash's high 32 bits

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64

	// hist, when attached, records every lookup's latency (hit or miss).
	// Behind an atomic pointer so the serving layer can attach after
	// construction without racing in-flight lookups; nil (the default)
	// costs one atomic load and records nothing. Recording is two atomic
	// adds into pre-allocated registers — the zero-alloc warm path stays
	// zero-alloc with observation enabled.
	hist atomic.Pointer[obs.Histogram]
}

// newTier splits capacity over shards (at least one entry each). Each
// shard gets one bucket per entry, rounded up to a power of two, so
// chains average at most one slot.
func newTier(shards, capacity int) *tier {
	per := max(capacity/shards, 1)
	t := &tier{
		shards: make([]*shard, shards),
		mask:   uint64(shards - 1),
		bmask:  uint64(nextPow2(per) - 1),
	}
	for i := range t.shards {
		t.shards[i] = &shard{buckets: make([]atomic.Pointer[slot], t.bmask+1), ring: make([]*slot, per)}
	}
	return t
}

// locate returns the shard and the bucket chain head for a key hash. The
// two indexes use disjoint bits of the hash.
func (t *tier) locate(h uint64) (*shard, *atomic.Pointer[slot]) {
	s := t.shards[h&t.mask]
	return s, &s.buckets[(h>>32)&t.bmask]
}

// get returns the value stored under key at generation g. An entry from
// any other generation is invisible (and counted as a miss), which is
// the whole invalidation mechanism.
//
// The read side never locks: it walks the key's bucket chain, and on a
// hit loads the value box, sets the CLOCK reference bit, and bumps the
// hit counter, all atomic and allocation-free.
func (t *tier) get(key Key, g uint64) (any, bool) {
	if h := t.hist.Load(); h != nil {
		t0 := time.Now()
		v, ok := t.lookup(key, g)
		h.Record(time.Since(t0))
		return v, ok
	}
	return t.lookup(key, g)
}

// lookup is get's uninstrumented body.
func (t *tier) lookup(key Key, g uint64) (any, bool) {
	h := key.hash()
	_, head := t.locate(h)
	// The key's one live slot: value updates and generation re-stamps
	// swap its box in place.
	if sl, b := find(head.Load(), h, key); b != nil && b.gen == g {
		sl.ref.Store(true)
		t.hits.Add(1)
		return b.val, true
	}
	t.misses.Add(1)
	return nil, false
}

// find walks a chain from sl to the first live slot holding key (hash
// h), comparing hashes before strings. A dead slot is walked past even
// when it matches: it may have been evicted under the walk, and since a
// chain only links to older slots and a key's older slots all died
// before its newer one was inserted, what lies past it is never fresher.
func find(sl *slot, h uint64, key Key) (*slot, *box) {
	for ; sl != nil; sl = sl.next.Load() {
		if sl.hash == h && sl.key == key {
			if b := sl.box.Load(); b != nil {
				return sl, b
			}
		}
	}
	return nil, nil
}

// put stores val under key stamped with generation g, evicting via CLOCK
// second chance when the shard is full. Stale-generation residents are
// preferred victims regardless of their reference bit. Writers are the
// only lockers of the shard mutex; readers proceed untouched throughout.
func (t *tier) put(key Key, g uint64, val any) {
	h := key.hash()
	s, head := t.locate(h)
	b := &box{gen: g, val: val}
	s.mu.Lock()
	if sl, _ := find(head.Load(), h, key); sl != nil {
		// In-place update: visible to every reader at once.
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
		// Kill the slot, then unlink it: a reader already standing on it
		// must see a miss.
		victim.box.Store(nil)
		t.unlink(victim)
		t.evictions.Add(1)
	}
	// New entries enter unreferenced — the first hit arms the bit — so a
	// stream of one-shot queries cycles through unreferenced slots
	// instead of stripping re-referenced residents of their second
	// chance (scan resistance). The slot is complete before the head
	// store makes it reachable.
	sl := &slot{hash: h, key: key}
	sl.box.Store(b)
	sl.next.Store(head.Load())
	head.Store(sl)
	s.ring[pos] = sl
	s.hand = (pos + 1) % len(s.ring)
	s.mu.Unlock()
	t.stores.Add(1)
}

// unlink removes a slot from its bucket chain with one pointer store into
// its predecessor. The slot keeps its own next, so a reader standing on
// it walks on to the live tail; the collector frees it once no reader
// holds it. Caller holds the shard mutex.
func (t *tier) unlink(victim *slot) {
	_, p := t.locate(victim.hash)
	for cur := p.Load(); cur != victim; cur = cur.next.Load() {
		p = &cur.next
	}
	p.Store(victim.next.Load())
}

func (t *tier) stats() TierStats {
	st := TierStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Stores:    t.stores.Load(),
		Evictions: t.evictions.Load(),
	}
	for _, s := range t.shards {
		s.mu.Lock()
		st.Size += s.used
		s.mu.Unlock()
	}
	return st
}

// QueryCache is the three-tier cache. One instance serves one estimator
// at a time; attaching a different estimator just moves the generation.
// When Options.Tenant is set, every key is stamped with the tenant
// namespace on the way in — the cache's contents are disjoint, by key
// identity, from every other tenant's.
type QueryCache struct {
	opts                          Options
	gen                           atomic.Uint64
	template, feature, prediction *tier
}

// Tenant returns the namespace this cache stamps into every key (""
// for a single-tenant cache).
func (c *QueryCache) Tenant() string { return c.opts.Tenant }

// stamp folds the cache's tenant namespace into a caller-built key; the
// tier's hash then walks only the tenant bytes on top of the state the
// constructor computed. Key is a value type, so this cannot race.
func (c *QueryCache) stamp(key Key) Key {
	key.tnt = c.opts.Tenant
	return key
}

// New builds an empty cache.
func New(opts Options) *QueryCache {
	o := opts.withDefaults()
	return &QueryCache{
		opts:       o,
		template:   newTier(o.Shards, o.Capacity),
		feature:    newTier(o.Shards, o.Capacity),
		prediction: newTier(o.Shards, o.Capacity),
	}
}

// Generation returns the current generation. Callers capture it once per
// request and pass the same value to every get/put of that request, so a
// request that races a generation swap stays internally consistent and
// its writes are invisible to the new generation.
func (c *QueryCache) Generation() uint64 { return c.gen.Load() }

// SetGeneration atomically moves the cache to a new generation,
// logically invalidating every entry of all three tiers at once (stale
// entries are evicted lazily as capacity demands).
func (c *QueryCache) SetGeneration(g uint64) { c.gen.Store(g) }

// GetTemplate returns the resolved skeleton cached for a template key.
// The skeleton is shared and immutable: callers must Clone before
// binding literals.
func (c *QueryCache) GetTemplate(key Key, g uint64) (*sqlparse.Query, bool) {
	v, ok := c.template.get(c.stamp(key), g)
	if !ok {
		return nil, false
	}
	return v.(*sqlparse.Query), true
}

// PutTemplate stores a resolved skeleton. The caller hands over
// ownership: the query must not be mutated afterwards.
func (c *QueryCache) PutTemplate(key Key, g uint64, q *sqlparse.Query) {
	c.template.put(c.stamp(key), g, q)
}

// GetFeatures returns the featurized plan cached for a feature key.
// Shared and immutable.
func (c *QueryCache) GetFeatures(key Key, g uint64) (*encoding.FeaturizedPlan, bool) {
	v, ok := c.feature.get(c.stamp(key), g)
	if !ok {
		return nil, false
	}
	return v.(*encoding.FeaturizedPlan), true
}

// PutFeatures stores a featurized plan; ownership transfers.
func (c *QueryCache) PutFeatures(key Key, g uint64, fp *encoding.FeaturizedPlan) {
	c.feature.put(c.stamp(key), g, fp)
}

// GetPrediction returns the memoized prediction for an exact (env, SQL)
// pair. This is the serving warm path: lock-free and zero-alloc.
func (c *QueryCache) GetPrediction(key Key, g uint64) (float64, bool) {
	v, ok := c.prediction.get(c.stamp(key), g)
	if !ok {
		return 0, false
	}
	return v.(float64), true
}

// PutPrediction memoizes one prediction.
func (c *QueryCache) PutPrediction(key Key, g uint64, ms float64) {
	c.prediction.put(c.stamp(key), g, ms)
}

// SetLookupHistograms attaches per-tier lookup-latency histograms
// (internal/obs): every get on a tier — hit or miss — records its
// duration into that tier's histogram. A nil histogram detaches its
// tier. The serving layer attaches these so /metrics can render
// qcfe_qcache_lookup_seconds{tier=...}; the library never requires them.
func (c *QueryCache) SetLookupHistograms(template, feature, prediction *obs.Histogram) {
	c.template.hist.Store(template)
	c.feature.hist.Store(feature)
	c.prediction.hist.Store(prediction)
}

// Stats snapshots all counters.
func (c *QueryCache) Stats() Stats {
	return Stats{
		Generation: c.gen.Load(),
		Tenant:     c.opts.Tenant,
		Shards:     c.opts.Shards,
		Capacity:   c.opts.Capacity,
		Template:   c.template.stats(),
		Feature:    c.feature.stats(),
		Prediction: c.prediction.stats(),
	}
}

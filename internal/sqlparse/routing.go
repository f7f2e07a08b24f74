package sqlparse

// RoutingHash is the distributed-serving routing identity of a query:
// the 64-bit FNV-1a hash of its normalized fingerprint when the text
// lexes, of the raw text otherwise — the value the router's
// consistent-hash ring places on its keyspace. Routing on the
// fingerprint sends every literal variant of one template to the same
// replica, so that replica's template and feature cache tiers
// (internal/qcache) accumulate all of the template's traffic instead of
// each replica paying its own cold front half. The raw-text fallback
// keeps the hash total: unlexable queries still route deterministically
// (the replica will then produce the authoritative parse error).
//
// The hash is a pure function of the SQL text — two routers, or one
// router before and after a restart, always agree on it. It hashes the
// pooled fingerprint buffer in place, so it allocates nothing.
func RoutingHash(sql string) uint64 {
	sc := fpPool.Get().(*fpScratch)
	defer sc.release()
	if err := sc.normalize(sql); err != nil {
		return fnv1a64(sql)
	}
	return fnv1a64(sc.buf)
}

// fnv1a64 is hash/fnv's New64a over b, without the hasher allocation.
func fnv1a64[T string | []byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

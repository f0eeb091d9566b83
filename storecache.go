package alae

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The result-level query cache of the serving store. A server replays
// identical queries — health checks, popular reads, retried requests —
// and even with warm sessions each replay re-runs the whole
// traversal. This cache closes that gap:
// results are keyed by (mutation stamp, options fingerprint, query
// bytes). The stamp is the invalidation story: a store mutation
// (Append/Delete/Compact) bumps it, which makes every pre-mutation
// entry unreachable — stale entries are never answered, they just age
// out through normal CLOCK eviction as post-mutation traffic claims
// their space. Against one store state an exact repeat is one hash
// probe and eviction (CLOCK, approximately LRU) is pure budget
// management: every insert evicts until its bytes fit the budget.
//
// Concurrency: hits are an RLock-guarded map probe plus one atomic
// reference-bit store. Population is NOT
// single-flight — two sessions racing on the same cold query both
// compute it and the first insert wins, which is sound (both computed
// the same result against the same stamped view) and keeps misses
// lock-free while the search runs.

// cacheKey builds the cache key for one (store state, options, query)
// triple. The query bytes are copied into the key string, so cached
// entries never alias caller buffers.
func cacheKey(stamp uint64, fp string, query []byte) string {
	b := make([]byte, 0, binary.MaxVarintLen64+1+len(fp)+1+len(query))
	b = binary.AppendUvarint(b, stamp)
	b = append(b, 0)
	b = append(b, fp...)
	b = append(b, 0)
	b = append(b, query...)
	return string(b)
}

// queryEntry is one cached result. res is immutable once inserted.
type queryEntry struct {
	key  string
	used atomic.Bool // CLOCK reference bit
	res  *StoreResult
	size int64 // bytes charged against the budget (entrySize)
}

// entryOverhead is the fixed part of an entry's charge: the entry, its
// StoreResult, and its map and ring slots, rounded up.
const entryOverhead = 256

// entrySize is one result's charge against the byte budget: its key (a
// query may be a megabyte), its hits and the fixed overhead, so that no
// result, not even one with zero hits, is free.
func entrySize(key string, res *StoreResult) int64 {
	return int64(len(key)) + int64(cap(res.Hits))*int64(unsafe.Sizeof(SeqHit{})) + entryOverhead
}

// queryCache is the table. One exists per Store.
type queryCache struct {
	mu        sync.RWMutex
	budget    int64 // bytes the live entries may be charged in total
	m         map[string]*queryEntry
	ring      []*queryEntry // CLOCK ring over the live entries
	hand      int
	bytes     int64 // Σ entrySize over the live entries
	totalHits int64 // Σ len(res.Hits) over the live entries

	hits, misses atomic.Int64 // store-lifetime counters
}

// newQueryCache returns a cache with the given byte budget; 0 means the
// default and a negative budget disables caching (nil cache).
func newQueryCache(budget int) *queryCache {
	if budget < 0 {
		return nil
	}
	if budget == 0 {
		budget = defaultQueryCacheBytes
	}
	return &queryCache{budget: int64(budget), m: make(map[string]*queryEntry)}
}

// get returns the cached result for key, counting the probe.
func (qc *queryCache) get(key string) (*StoreResult, bool) {
	qc.mu.RLock()
	e := qc.m[key]
	qc.mu.RUnlock()
	if e == nil {
		qc.misses.Add(1)
		return nil, false
	}
	e.used.Store(true)
	qc.hits.Add(1)
	return e.res, true
}

// put publishes a result, first evicting CLOCK victims until it fits
// the byte budget; a result over the whole budget is not cached. The
// entry starts referenced, so it survives until the hand has passed it
// once. Racing puts of the same key keep the first entry.
func (qc *queryCache) put(key string, res *StoreResult) {
	e := &queryEntry{key: key, res: res, size: entrySize(key, res)}
	if e.size > qc.budget {
		return
	}
	e.used.Store(true)
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if _, ok := qc.m[key]; ok {
		return
	}
	qc.evictWhile(func() bool { return qc.bytes+e.size > qc.budget })
	qc.m[key] = e
	qc.ring = append(qc.ring, e)
	qc.bytes += e.size
	qc.totalHits += int64(len(res.Hits))
}

// evictWhile evicts CLOCK victims under qc.mu while over reports true
// and entries remain, and reports how many it evicted. Recently-used
// entries survive longest (their reference bits absorb the hand's
// passes), so eviction degrades the cache toward its hot set.
func (qc *queryCache) evictWhile(over func() bool) (evicted int) {
	for len(qc.ring) > 0 && over() {
		victim := qc.clockVictim()
		e := qc.ring[victim]
		delete(qc.m, e.key)
		qc.bytes -= e.size
		qc.totalHits -= int64(len(e.res.Hits))
		last := len(qc.ring) - 1
		qc.ring[victim] = qc.ring[last]
		qc.ring[last] = nil
		qc.ring = qc.ring[:last]
		if last == 0 {
			qc.hand = 0
		} else {
			qc.hand = victim % last
		}
		evicted++
	}
	return evicted
}

// clockVictim runs one CLOCK sweep under qc.mu: clear reference bits
// until an unreferenced entry turns up; bounded, falling back to the
// hand's current slot. The ring must be non-empty.
func (qc *queryCache) clockVictim() int {
	for i := 0; i < 2*len(qc.ring); i++ {
		if !qc.ring[qc.hand].used.Swap(false) {
			return qc.hand
		}
		qc.hand = (qc.hand + 1) % len(qc.ring)
	}
	return qc.hand
}

// pressure reports the cache's current footprint: live results and the
// total hit count they pin.
func (qc *queryCache) pressure() (results int, totalHits int64) {
	qc.mu.RLock()
	defer qc.mu.RUnlock()
	return len(qc.m), qc.totalHits
}

// shed evicts CLOCK victims until the cache pins at most maxHits total
// hits — every entry when maxHits ≤ 0 — and reports how many results
// were evicted.
func (qc *queryCache) shed(maxHits int64) (evicted int) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return qc.evictWhile(func() bool { return maxHits <= 0 || qc.totalHits > maxHits })
}

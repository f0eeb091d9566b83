package alae

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
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
// their slots. Against one store state an exact repeat is one hash
// probe and eviction (CLOCK, approximately LRU) is pure capacity
// management.
//
// Concurrency: hits are an RLock-guarded map probe plus one atomic
// reference-bit store. Population is NOT
// single-flight — two sessions racing on the same cold query both
// compute it and the last insert wins, which is sound (both computed
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
}

// queryCache is the table. One exists per Store.
type queryCache struct {
	mu        sync.RWMutex
	capacity  int
	m         map[string]*queryEntry
	ring      []*queryEntry // CLOCK ring over the live entries
	hand      int
	totalHits int64 // Σ len(res.Hits) over the live entries: the footprint proxy

	hits, misses atomic.Int64 // store-lifetime counters
}

// newQueryCache returns a cache of the given capacity; 0 means the
// default and a negative size disables caching (nil cache).
func newQueryCache(size int) *queryCache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = defaultQueryCacheSize
	}
	return &queryCache{capacity: size, m: make(map[string]*queryEntry, min(size, 1024))}
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

// put publishes a result, evicting one CLOCK victim when the cache is
// full. Racing puts of the same key keep the first entry (the results
// are identical).
func (qc *queryCache) put(key string, res *StoreResult) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if _, ok := qc.m[key]; ok {
		return
	}
	e := &queryEntry{key: key, res: res}
	qc.m[key] = e
	qc.totalHits += int64(len(res.Hits))
	if len(qc.ring) < qc.capacity {
		qc.ring = append(qc.ring, e)
		return
	}
	victim := qc.clockVictim()
	old := qc.ring[victim]
	delete(qc.m, old.key)
	qc.totalHits -= int64(len(old.res.Hits))
	qc.ring[victim] = e
	qc.hand = (victim + 1) % len(qc.ring)
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
// total hit count they pin. Hit count is the footprint proxy — a Hit
// is fixed-size, and the variable-size balance of an entry (key bytes,
// counters) is bounded per result.
func (qc *queryCache) pressure() (results int, totalHits int64) {
	qc.mu.RLock()
	defer qc.mu.RUnlock()
	return len(qc.m), qc.totalHits
}

// shed evicts CLOCK victims until the cache pins at most maxHits total
// hits, compacting the ring as it goes, and reports how many results
// were evicted. Recently-used entries survive longest (their reference
// bits absorb sweep passes), so a pressure sweep degrades the cache
// toward its hot set instead of clearing it.
func (qc *queryCache) shed(maxHits int64) (evicted int) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	for qc.totalHits > maxHits && len(qc.ring) > 0 {
		victim := qc.clockVictim()
		e := qc.ring[victim]
		delete(qc.m, e.key)
		qc.totalHits -= int64(len(e.res.Hits))
		last := len(qc.ring) - 1
		qc.ring[victim] = qc.ring[last]
		qc.ring[last] = nil
		qc.ring = qc.ring[:last]
		if last == 0 {
			qc.hand = 0
		} else {
			qc.hand = victim % len(qc.ring)
		}
		evicted++
	}
	return evicted
}

// len reports the number of cached results (tests and diagnostics).
func (qc *queryCache) len() int {
	qc.mu.RLock()
	defer qc.mu.RUnlock()
	return len(qc.m)
}

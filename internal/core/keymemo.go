package core

import (
	"container/list"
	"sync"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/pwl"
)

// The derive-by-key memo sits between the per-Application pointer memo
// (appMemo) and the counted artefact LRU (deriveCache). Everything a
// derivation computes beyond the cached artefacts — both controller
// designs, both closed loops, the augmented initial state, the three model
// fits and the artefact cache keys — is a pure function of the app's
// CacheKey, so an app that merely looks like one derived before (a service
// decodes a fresh Application per request row, which the pointer memo can
// never match) skips all of it.
//
// An entry deliberately stores the artefact cache keys, not the artefacts:
// a hit re-fetches both discretisations and the curve through the counted
// deriveCache.get, so hits, misses, disk read-through, LRU recency and
// single-flight behave exactly as if the row had been derived in full, and
// the memo never pins an artefact the LRU has evicted.

// keyMemoEntry is the name-free part of one successful derivation.
type keyMemoEntry struct {
	key                            string
	discTTKey, discETKey, curveKey string
	ktt, ket                       *mat.Matrix
	a1, a2                         *mat.Matrix // ET and TT closed loops (augmented)
	x0                             []float64   // augmented initial state
	nonMono, conservative, simple  *pwl.Model
	elem                           *list.Element
}

// keyMemo is a bounded LRU of keyMemoEntry values keyed by CacheKey.
// Failed derivations never reach it.
type keyMemo struct {
	mu       sync.Mutex
	capacity int // always ≥ 1
	m        map[string]*keyMemoEntry
	lru      *list.List // front = most recently used
	hits     uint64
	misses   uint64
}

func newKeyMemo(capacity int) *keyMemo {
	if capacity < 1 {
		capacity = 1
	}
	return &keyMemo{capacity: capacity, m: make(map[string]*keyMemoEntry), lru: list.New()}
}

// lookup returns the entry for key (the CacheKey bytes), or nil, and counts
// the outcome. Indexing the map with string(key) does not allocate.
func (km *keyMemo) lookup(key []byte) *keyMemoEntry {
	km.mu.Lock()
	defer km.mu.Unlock()
	e, ok := km.m[string(key)]
	if !ok {
		km.misses++
		return nil
	}
	km.hits++
	km.lru.MoveToFront(e.elem)
	return e
}

// add records a successful derivation. Concurrent misses of one key derive
// identical entries, so the first one added stays.
func (km *keyMemo) add(e *keyMemoEntry) {
	km.mu.Lock()
	defer km.mu.Unlock()
	if cur, ok := km.m[e.key]; ok {
		km.lru.MoveToFront(cur.elem)
		return
	}
	e.elem = km.lru.PushFront(e)
	km.m[e.key] = e
	km.evictLocked()
}

func (km *keyMemo) evictLocked() {
	for km.lru.Len() > km.capacity {
		victim := km.lru.Back().Value.(*keyMemoEntry)
		delete(km.m, victim.key)
		km.lru.Remove(victim.elem)
	}
}

func (km *keyMemo) setCapacity(n int) {
	if n < 1 {
		n = 1
	}
	km.mu.Lock()
	defer km.mu.Unlock()
	km.capacity = n
	km.evictLocked()
}

func (km *keyMemo) reset() {
	km.mu.Lock()
	defer km.mu.Unlock()
	km.m = make(map[string]*keyMemoEntry)
	km.lru.Init()
	km.hits, km.misses = 0, 0
}

func (km *keyMemo) stats() MemoStats {
	km.mu.Lock()
	defer km.mu.Unlock()
	return MemoStats{Hits: km.hits, Misses: km.misses, Entries: km.lru.Len()}
}

// MemoStats is a snapshot of the derive-by-key memo's counters. Hits are
// derivations that skipped controller design, closed loops and model fits
// because an app with the same CacheKey derived before; Misses derived in
// full. Entries is bounded by the derivation cache's entry capacity.
type MemoStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// deriveMemo is the process-wide derive-by-key memo. It shares the
// derivation cache's entry capacity (SetDeriveCacheCapacity) and is emptied
// with it (ResetDeriveCache).
var deriveMemo = newKeyMemo(defaultDeriveCacheEntries)

// DeriveMemoStats reports the derive-by-key memo's counters, exported by
// cpsdynd's /statsz and /metrics.
func DeriveMemoStats() MemoStats { return deriveMemo.stats() }

package artefact

import (
	"context"
	"slices"
	"sync"

	"repro/internal/logx"
	"repro/internal/tracex"
)

// Store memoizes node values across evaluations. Entries are keyed by
// (node name, node key); concurrent evaluations asking for the same
// entry deduplicate onto one computation (the rest block until it
// finishes), so two requests for different tables of the same world
// run the shared prefix of the graph exactly once. The store never
// memoizes errors — a failed computation is dropped so the next
// evaluation retries.
//
// The bound is per node name, not per store: each node keeps its keep
// most recently used keys (Node.Keep, or Resolve's keep argument), so a
// node whose values are large — the generated world, the crawl corpus —
// cannot crowd out another node's entries, and a store's footprint is
// the sum of its nodes' bounds whatever the traffic mix.
//
// It also serves as the node-execution ledger: ComputeCount reports
// how many times a node actually computed (as opposed to being
// answered from memo), which is what selectivity and reuse tests
// assert on.
type Store struct {
	mu      sync.Mutex
	entries map[string]*entry   // node+"\x00"+key → entry
	lru     map[string][]string // node → its keys, least recently used first

	computes map[string]int // node name → actual computations
	hits     int64
	evicted  int64
}

// entry deduplicates one computation: the creator computes, waiters
// block on done.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		entries:  make(map[string]*entry),
		lru:      make(map[string][]string),
		computes: make(map[string]int),
	}
}

// Resolve returns the memoized value for (node, key), computing it
// with fn on first use. memoized reports that the value came from the
// store rather than this call's fn. keep bounds how many of node's
// completed keys the store retains (keep <= 0: no bound). An empty key
// bypasses the store entirely (the node is computed every time, and
// still ledgered).
//
// A waiter that observes the creator's failure retries with its own
// fn instead of inheriting the error: one evaluation's timeout or
// cancellation must not poison the evaluations that happened to be
// waiting on its in-flight nodes. Only the waiter's own cancellation
// ends its attempt.
func (s *Store) Resolve(ctx context.Context, node, key string, keep int, fn func(context.Context) (any, error)) (val any, memoized bool, err error) {
	// The context logger (when the caller bound one — the study
	// service's request/run ids arrive this way) sees every memo
	// outcome at debug level; the context tracer records the same
	// outcomes as "node X" spans, with computed work nested inside.
	lg := logx.FromContext(ctx)
	ctx, sp := tracex.StartSpan(ctx, "node "+node)
	defer sp.End()
	if key == "" {
		s.mu.Lock()
		s.computes[node]++
		s.mu.Unlock()
		lg.Debug("memo bypass", "node", node)
		sp.SetAttr("outcome", "bypass")
		v, err := fn(ctx)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		return v, false, err
	}
	id := node + "\x00" + key

	var e *entry
	for e == nil {
		s.mu.Lock()
		cur, ok := s.entries[id]
		if !ok {
			e = &entry{done: make(chan struct{})}
			s.entries[id] = e
			s.lru[node] = append(s.lru[node], key)
			s.evictLocked(node, keep)
			s.computes[node]++
			s.mu.Unlock()
			continue
		}
		s.touchLocked(node, key)
		s.mu.Unlock()
		select {
		case <-cur.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if cur.err == nil {
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			lg.Debug("memo hit", "node", node)
			sp.SetAttr("outcome", "hit")
			return cur.val, true, nil
		}
		// The creator failed and already dropped its entry; loop and
		// compute (or join a newer in-flight attempt) ourselves.
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}

	lg.Debug("memo compute", "node", node)
	sp.SetAttr("outcome", "compute")
	e.val, e.err = fn(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.err != nil {
		sp.SetAttr("error", e.err.Error())
		// Never memoize failure: drop the entry (waiters already hold
		// the pointer, observe the error, and retry on their own) so
		// the next attempt recomputes.
		if s.entries[id] == e {
			delete(s.entries, id)
			s.lru[node] = slices.DeleteFunc(s.lru[node], func(k string) bool { return k == key })
		}
		close(e.done)
		return e.val, false, e.err
	}
	// Completion counts as a use, and a completed entry may now be
	// evicted: re-apply the bound with this entry most recently used.
	close(e.done)
	s.touchLocked(node, key)
	s.evictLocked(node, keep)
	return e.val, false, nil
}

// evictLocked drops node's least recently used completed entries until
// at most keep of its entries remain. In-flight entries are never
// evicted — that would detach future resolvers from a running
// computation and duplicate its work — so a node may transiently hold
// more than keep entries while computations are in flight; never more
// than keep completed ones. Caller holds s.mu.
func (s *Store) evictLocked(node string, keep int) {
	keys := s.lru[node]
	for i := 0; keep > 0 && i < len(keys) && len(keys) > keep; {
		id := node + "\x00" + keys[i]
		select {
		case <-s.entries[id].done:
			keys = slices.Delete(keys, i, i+1)
			delete(s.entries, id)
			s.evicted++
			// i now indexes the next candidate.
		default:
			i++ // in flight: skip
		}
	}
	s.lru[node] = keys
}

// touchLocked moves key to the most-recently-used end of node's LRU
// order. Caller holds s.mu.
func (s *Store) touchLocked(node, key string) {
	keys := s.lru[node]
	if i := slices.Index(keys, key); i >= 0 {
		copy(keys[i:], keys[i+1:])
		keys[len(keys)-1] = key
	}
}

// Len returns the number of memoized entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// ComputeCount returns how many times the named node actually
// computed through this store.
func (s *Store) ComputeCount(node string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.computes[node]
}

// TotalComputes returns the total number of node computations across
// the store's lifetime.
func (s *Store) TotalComputes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, v := range s.computes {
		n += v
	}
	return n
}

// StoreStats is a snapshot of the store's counters.
type StoreStats struct {
	// Entries is the number of memoized values currently held.
	Entries int `json:"entries"`
	// Hits counts resolves answered from an existing entry (including
	// waits on another evaluation's in-flight computation).
	Hits int64 `json:"hits"`
	// Computes counts actual node computations.
	Computes int64 `json:"computes"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var computes int64
	for _, v := range s.computes {
		computes += int64(v)
	}
	return StoreStats{
		Entries:   len(s.entries),
		Hits:      s.hits,
		Computes:  computes,
		Evictions: s.evicted,
	}
}

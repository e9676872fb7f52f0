package pipeline

import (
	"container/list"
	"context"
	"sync"

	"tracescale/internal/obs"
)

// sessionMemoCap bounds each Session's selection and reconstruction memo.
// Keys are client-chosen (widths, projections), so an unbounded memo is a
// memory leak a client can drive; the bound sits well above the distinct
// keys one scenario sees under sustained traffic, so evictions stay rare.
const sessionMemoCap = 4096

// memo is the package's one memoization mechanism: a map plus an LRU
// list, optionally bounded, with a singleflight in front. The first
// stored value for a key wins, so concurrent producers converge on one
// shared value; errors are never stored, so a failed or cancelled
// computation leaves no poison behind. A memo is safe for concurrent use.
type memo[K comparable, V any] struct {
	capacity int // zero = unbounded
	c        memoCounters

	mu      sync.Mutex
	entries map[K]*list.Element // of *memoEntry[K, V]
	order   *list.List          // front = least recently used
	flights map[K]*flight[V]
	hits    int // lookups answered without starting a computation
	misses  int // lookups that started one
}

// memoCounters are the metrics one memo records. Each construction site
// passes them as literal registry lookups, so the metric names stay
// visible to static checks. Nil instruments are no-ops (the obs contract).
type memoCounters struct {
	hits      *obs.Counter // answered from a stored value
	shared    *obs.Counter // joined an in-progress computation
	misses    *obs.Counter // started a computation
	evictions *obs.Counter // dropped the least recently used value
	cancelled *obs.Counter // the last waiter left before its computation finished
	size      *obs.Gauge   // stored values
}

type memoEntry[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress computation shared by every concurrent caller
// of the same key.
type flight[V any] struct {
	done    chan struct{} // closed once val/err are set
	val     V
	err     error
	waiters int // guarded by memo.mu
	cancel  context.CancelFunc
}

func newMemo[K comparable, V any](capacity int, c memoCounters) *memo[K, V] {
	return &memo[K, V]{
		capacity: capacity,
		c:        c,
		entries:  make(map[K]*list.Element),
		order:    list.New(),
		flights:  make(map[K]*flight[V]),
	}
}

// get returns the stored value for key, marking it most recently used.
// A miss is not counted: the caller decides what a miss means.
func (m *memo[K, V]) get(key K) (V, bool) {
	m.mu.Lock()
	val, ok := m.lookupLocked(key)
	m.mu.Unlock()
	if ok {
		m.c.hits.Inc()
	}
	return val, ok
}

func (m *memo[K, V]) lookupLocked(key K) (V, bool) {
	el, ok := m.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.order.MoveToBack(el)
	m.hits++
	return el.Value.(*memoEntry[K, V]).val, true
}

// add stores val under key unless a value is already stored, and returns
// the stored value and whether it is val.
func (m *memo[K, V]) add(key K, val V) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addLocked(key, val)
}

func (m *memo[K, V]) addLocked(key K, val V) (V, bool) {
	if el, ok := m.entries[key]; ok {
		m.order.MoveToBack(el)
		return el.Value.(*memoEntry[K, V]).val, false
	}
	m.entries[key] = m.order.PushBack(&memoEntry[K, V]{key: key, val: val})
	if m.capacity > 0 && m.order.Len() > m.capacity {
		lru := m.order.Front()
		m.order.Remove(lru)
		delete(m.entries, lru.Value.(*memoEntry[K, V]).key)
		m.c.evictions.Inc()
	}
	m.c.size.Set(int64(m.order.Len()))
	return val, true
}

// do returns the stored value for key, or computes it. Concurrent callers
// with the same key share one computation. It runs on a goroutine of its
// own under a context of its own, so a caller whose ctx ends returns
// promptly with ctx's error while the remaining waiters keep the
// computation alive; the last waiter to leave cancels it. A caller whose
// ctx can never end (Done is nil) could never leave, so the computation
// runs on that caller's goroutine instead.
func (m *memo[K, V]) do(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	m.mu.Lock()
	if val, ok := m.lookupLocked(key); ok {
		m.mu.Unlock()
		m.c.hits.Inc()
		return val, nil
	}
	if f, ok := m.flights[key]; ok {
		f.waiters++
		m.hits++
		m.mu.Unlock()
		m.c.shared.Inc()
		return m.wait(ctx, key, f)
	}
	// The computation must outlive any single waiter's ctx: deriving it
	// from this caller's ctx would cancel everyone's result when the first
	// caller times out. wait cancels it when the last waiter leaves.
	//lint:ignore ctxflow singleflight computation detaches deliberately; the last departing waiter cancels it
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	m.flights[key] = f
	m.misses++
	m.mu.Unlock()
	m.c.misses.Inc()
	fly := func() {
		val, err := compute(fctx)
		m.mu.Lock()
		if err == nil {
			val, _ = m.addLocked(key, val)
		}
		if m.flights[key] == f {
			delete(m.flights, key)
		}
		f.val, f.err = val, err
		m.mu.Unlock()
		cancel()
		close(f.done)
	}
	if ctx.Done() == nil {
		fly()
		return f.val, f.err
	}
	go fly()
	return m.wait(ctx, key, f)
}

// wait blocks until the flight completes or ctx ends. The context strictly
// wins: even when the flight finished in the same instant, an expired
// caller gets ctx's error, never a value its deadline already disowned. A
// departing waiter deregisters itself; the last one out cancels the
// computation and retires the flight so the next caller starts afresh.
func (m *memo[K, V]) wait(ctx context.Context, key K, f *flight[V]) (V, error) {
	select {
	case <-f.done:
		if ctx.Err() == nil {
			return f.val, f.err
		}
	case <-ctx.Done():
	}
	m.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && m.flights[key] == f {
		delete(m.flights, key)
	}
	m.mu.Unlock()
	if last {
		f.cancel() // idempotent; a no-op when the flight already finished
		m.c.cancelled.Inc()
	}
	var zero V
	return zero, ctx.Err()
}

// len returns the number of stored values.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// stats returns the lifetime lookups answered without a computation
// (stored or shared) and the lookups that started one.
func (m *memo[K, V]) stats() (hits, misses int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

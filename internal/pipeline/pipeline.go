// Package pipeline unifies the selection pipeline behind a shared, cached
// Session layer. A Session owns one scenario's analyzed interleaving — the
// Product of its instance set and the Evaluator precomputed over it — and
// memoizes selection Results per normalized Config (Workers is erased from
// the key: every worker count selects a byte-identical Result), so that
// width sweeps, candidate dumps, ablation curves, CLI invocations, the
// serving layer, and the public facade all reuse one analysis instead of
// re-interleaving per data point. Concurrent identical selections are
// singleflighted: they share one in-progress computation, and cancelling
// every interested caller cancels the computation itself. Sessions are
// themselves memoized in a Cache keyed by a content fingerprint of the
// instance set (flow structure + indices), so independently built but
// structurally identical scenarios share the same Session.
//
// Every memo in the package — the Cache's sessions, the ResultStore's
// memory tier, and each Session's selections and reconstructions — is one
// mechanism (memo.go): an LRU map with a singleflight in front. A
// Session's memos are bounded because their keys are client-chosen.
//
// The layer is observable: a Cache built with NewCacheObs records
// pipeline.cache.* (hits, misses, evictions, size), pipeline.fingerprint_ns,
// pipeline.results.*, and pipeline.reconstruct.* into its registry, and
// threads the registry into the interleave build and the core selectors so
// one snapshot covers the whole analysis chain. A nil registry is a no-op (the obs contract).
package pipeline

import (
	"context"
	"time"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/reconstruct"
)

// Session is one scenario's analyzed selection pipeline: the interleaved
// Product of its instance set, the Evaluator over it, and bounded memos of
// selection and reconstruction Results. A Session is safe for concurrent
// use; Results it returns are shared between callers and must be treated
// as read-only.
type Session struct {
	fp string
	p  *interleave.Product
	e  *core.Evaluator

	results *memo[core.Config, *core.Result]
	recons  *memo[reconKey, *reconstruct.Result]
}

// NewSession analyzes the instance set: it interleaves the instances and
// precomputes the Evaluator. The Session is not registered in any Cache;
// use Cache.Session (or the package-level For) for memoized construction.
func NewSession(instances []flow.Instance) (*Session, error) {
	return NewSessionObs(instances, nil)
}

// NewSessionObs is NewSession with an observability registry: the
// fingerprint, interleave build, and every Select the session runs record
// into reg. A nil registry makes it identical to NewSession.
func NewSessionObs(instances []flow.Instance, reg *obs.Registry) (*Session, error) {
	fp := fingerprint(instances, reg)
	return newSession(fp, instances, reg)
}

// fingerprint computes the instance-set fingerprint, recording the hash
// time (the cache-key cost the session layer pays per lookup).
func fingerprint(instances []flow.Instance, reg *obs.Registry) string {
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	fp := interleave.Fingerprint(instances)
	if reg != nil {
		reg.Counter("pipeline.fingerprints").Inc()
		reg.Add("pipeline.fingerprint_ns", time.Since(start).Nanoseconds())
	}
	return fp
}

func newSession(fp string, instances []flow.Instance, reg *obs.Registry) (*Session, error) {
	p, err := interleave.NewObserved(instances, reg)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	reg.Counter("pipeline.session.builds").Inc()
	return &Session{
		fp: fp,
		p:  p,
		e:  e,
		results: newMemo[core.Config, *core.Result](sessionMemoCap, memoCounters{
			hits:      reg.Counter("pipeline.results.hits"),
			shared:    reg.Counter("pipeline.results.shared"),
			misses:    reg.Counter("pipeline.results.misses"),
			evictions: reg.Counter("pipeline.results.evictions"),
			cancelled: reg.Counter("pipeline.results.flights_cancelled"),
		}),
		recons: newMemo[reconKey, *reconstruct.Result](sessionMemoCap, memoCounters{
			hits:      reg.Counter("pipeline.reconstruct.hits"),
			shared:    reg.Counter("pipeline.reconstruct.shared"),
			misses:    reg.Counter("pipeline.reconstruct.misses"),
			evictions: reg.Counter("pipeline.reconstruct.evictions"),
			cancelled: reg.Counter("pipeline.reconstruct.flights_cancelled"),
		}),
	}, nil
}

// Fingerprint returns the content fingerprint of the session's instance
// set — the key it is cached under.
func (s *Session) Fingerprint() string { return s.fp }

// Product returns the session's interleaved flow.
func (s *Session) Product() *interleave.Product { return s.p }

// Evaluator returns the session's precomputed evaluator.
func (s *Session) Evaluator() *core.Evaluator { return s.e }

// memoKey normalizes cfg into the memo and singleflight key. Workers is
// zeroed: every worker count selects a byte-identical Result (the
// parallel-equals-serial property the repo pins), so configs differing
// only in Workers must share one memo slot instead of recomputing an
// identical Result per worker count. Runner is erased on the same grounds
// — a conforming ShardRunner changes where shards execute, never what they
// compute (the distributed≡local differential pins this) — which also
// keeps the key comparable regardless of the runner's dynamic type.
func memoKey(cfg core.Config) core.Config {
	cfg.Workers = 0
	cfg.Runner = nil
	return cfg
}

// Select runs the selection pipeline with the given configuration,
// memoizing the Result: repeated selections at the same Config (the same
// buffer width, method, packing and candidate options — Workers is
// normalized away) return the cached Result. The returned Result is
// shared — callers must not modify it.
func (s *Session) Select(cfg core.Config) (*core.Result, error) {
	return s.SelectContext(context.Background(), cfg)
}

// SelectContext is Select with cancellation and singleflight: concurrent
// callers with the same normalized Config share one computation instead of
// duplicating it. A caller whose ctx ends returns promptly with ctx's
// error while the remaining waiters keep the computation alive; the last
// waiter to leave cancels the underlying core.SelectContext, aborting its
// shard pool. Errors are not memoized — a timed-out selection leaves no
// poison behind.
func (s *Session) SelectContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	// Validate before the memo lookup: the key normalizes Workers away, so
	// without this check a Config whose Workers count the method cannot
	// honor would be answered from a cache entry computed at Workers 0 —
	// silently masking the invalid combination instead of rejecting it.
	if err := core.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	return s.results.do(ctx, memoKey(cfg), func(fctx context.Context) (*core.Result, error) {
		return core.SelectContext(fctx, s.e, cfg)
	})
}

// Cache memoizes Sessions by instance-set fingerprint. A Cache built with
// a capacity evicts the least-recently-used session once full; capacity
// zero means unbounded (the Default cache's mode).
type Cache struct {
	obs      *obs.Registry
	sessions *memo[string, *Session]
}

// NewCache returns an empty, unbounded, unobserved session cache.
func NewCache() *Cache { return NewCacheObs(nil, 0) }

// NewCacheObs returns an empty session cache that records
// pipeline.cache.* metrics into reg and holds at most capacity sessions
// (zero = unbounded), evicting least-recently-used sessions past that.
func NewCacheObs(reg *obs.Registry, capacity int) *Cache {
	return &Cache{
		obs: reg,
		sessions: newMemo[string, *Session](capacity, memoCounters{
			hits: reg.Counter("pipeline.cache.hits"),
			// A lookup that joins an in-progress build is a hit too: it
			// builds nothing.
			shared:    reg.Counter("pipeline.cache.hits"),
			misses:    reg.Counter("pipeline.cache.misses"),
			evictions: reg.Counter("pipeline.cache.evictions"),
			size:      reg.Gauge("pipeline.cache.size"),
		}),
	}
}

// Session returns the cached Session for the instance set, analyzing it on
// first use. Concurrent requests for the same scenario share one analysis;
// requests for other scenarios proceed meanwhile.
func (c *Cache) Session(instances []flow.Instance) (*Session, error) {
	fp := fingerprint(instances, c.obs)
	return c.sessions.do(context.Background(), fp, func(context.Context) (*Session, error) {
		return newSession(fp, instances, c.obs)
	})
}

// Stats returns the cache's lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int) { return c.sessions.stats() }

// Len returns the number of cached sessions.
func (c *Cache) Len() int { return c.sessions.len() }

// Default is the process-wide session cache the experiment harness, CLI
// tools, and public facade share. It records into obs.Default, which the
// CLI tools snapshot via -metrics-json.
var Default = NewCacheObs(obs.Default, 0)

// For returns the Default-cached Session for the instance set.
func For(instances []flow.Instance) (*Session, error) {
	return Default.Session(instances)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"tracescale/internal/campaign"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/serve"
	"tracescale/internal/spec"
	"tracescale/internal/synth"
)

// The serve-mix traffic: per request, hot /select on the four exported
// specs (store hits), cold /select on a never-seen synthetic scenario
// (store and cache misses), or /reconstruct on a T2 scenario.
//
// A quarter of the /reconstruct requests observe a pooled execution
// through the mi selection. Under it a T2 scenario has only 20-24 distinct
// projections, so these repeat whatever the pool size and are answered
// from the session's memo once seen. The other three quarters observe a
// fresh execution through a seeded random traced set of the mi selection's
// size, so they miss the memo and run the reconstruction engine; the
// median /reconstruct latency is a miss's.
const (
	hotPct         = 60
	coldPct        = 20
	reconFreshPct  = 75  // of /reconstruct requests: fresh traced set, a memo miss
	serveClients   = 2   // closed loop: callers wait for each reply
	reconPerT2     = 8   // pooled mi projections per T2 scenario
	replayRequests = 500 // the fixed sequence retained heap and counts are read after
	// serveMaxRate is the request rate the pre-generated sequence is sized
	// for, several times what the handler serves on a 2-core host. A
	// faster run generates its remaining requests inline and says so.
	serveMaxRate = 1000
	// exhaustiveMaxMessages is the largest universe exhaustive selection
	// accepts under its default MaxCandidates (1<<22 masks).
	exhaustiveMaxMessages = 22
)

// coldParams shape the cold scenarios: three random branching flows.
var coldParams = synth.Params{States: 6, Branch: 0.3}

// serveWorkload drives an in-process traceserved handler with
// traceserved's defaults (cache capacity 64, default store, MaxInFlight 4)
// from two closed-loop clients. The hot specs' selections are warmed into
// the store during setup; every cold scenario and the reconstruct memo
// start empty. Setup generates every request body of the run, so the timed
// loop only sends them.
func serveWorkload(root string) workload {
	return workload{name: "serve-mix", clients: serveClients, setup: func(seed int64, d time.Duration) (runner, error) {
		return newServeRunner(root, seed, int(d.Seconds()*serveMaxRate))
	}}
}

// request is one seeded request of the sequence.
type request struct {
	path, class string
	key         string // digest key for repeated inputs; "" for one-off ones
	body        []byte
	universe    map[string]bool
}

// reconScenario is a T2 scenario /reconstruct requests observe.
type reconScenario struct {
	name     string
	product  *interleave.Product
	prefix   []byte   // the scenario's spec body without its closing brace
	mi       []string // the mi selection, from the setup warm-up
	messages []string // the universe, sorted
	universe map[string]bool
}

type serveRunner struct {
	seed     int64
	root     string
	hot      []request
	t2       []*reconScenario
	pool     []request // the pooled mi /reconstruct requests
	seq      []request // the run's requests, generated in setup
	inline   atomic.Int64
	digests  *digestBook
	srv      *httptest.Server
	reg      *obs.Registry
	setupReg map[string]int64 // reg at the end of setup
	timed    map[string]int64 // reg's growth over the timed phase
	latNs    atomic.Int64     // summed client latency of timed requests
	reqs     atomic.Int64
	replay   *obs.Registry // the fixed replay's registry, after settle
	replaySv *httptest.Server
}

func newServeRunner(root string, seed int64, requests int) (*serveRunner, error) {
	r := &serveRunner{seed: seed, root: root, digests: newDigestBook()}
	toy := flow.CacheCoherence()
	hotSpecs := []*spec.Scenario{spec.FromFlows("toy-cache-coherence", []*flow.Flow{toy},
		[]flow.Instance{{Flow: toy, Index: 1}, {Flow: toy, Index: 2}}, 2)}
	var t2 []opensparc.Scenario
	for _, s := range opensparc.Scenarios() {
		t2 = append(t2, s)
		hotSpecs = append(hotSpecs, spec.FromFlows(s.Name, s.Flows(), s.Instances(), 32))
	}
	for _, sc := range hotSpecs {
		body, err := specBody(sc)
		if err != nil {
			return nil, err
		}
		insts, err := sc.Build()
		if err != nil {
			return nil, err
		}
		r.hot = append(r.hot, request{path: "/select", class: "select_hit", key: "hot " + sc.Name,
			body: body, universe: universeOf(insts)})
	}
	var err error
	if r.srv, r.reg, err = r.startServer(); err != nil {
		return nil, err
	}
	// Warm the hot selections into the store, and take the mi selections
	// the reconstruct projections are observed through.
	traced := make([][]string, len(r.hot))
	for k, h := range r.hot {
		out, err := r.send(r.srv, h)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up %s: %w", h.key, err)
		}
		var resp serve.Response
		if err := json.Unmarshal(out, &resp); err != nil {
			r.close()
			return nil, err
		}
		traced[k] = resp.Selected
	}
	rng := rand.New(rand.NewSource(seed))
	for k, s := range t2 {
		rs, err := newReconScenario(s, hotSpecs[k+1], traced[k+1])
		if err != nil {
			r.close()
			return nil, err
		}
		r.t2 = append(r.t2, rs)
		for j := 0; j < reconPerT2; j++ {
			q, err := rs.request(rs.mi, rng)
			if err != nil {
				r.close()
				return nil, err
			}
			q.key = fmt.Sprintf("recon %s %d", s.Name, j)
			r.pool = append(r.pool, q)
		}
	}
	if err := r.checkGoldens(r.srv); err != nil {
		r.close()
		return nil, err
	}
	r.seq = make([]request, max(requests, replayRequests))
	for i := range r.seq {
		if r.seq[i], err = r.request(i); err != nil {
			r.close()
			return nil, err
		}
	}
	r.setupReg = r.reg.Snapshot()
	return r, nil
}

// startServer starts a handler configured as traceserved's defaults.
func (r *serveRunner) startServer() (*httptest.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	store, err := pipeline.NewResultStore(reg, 512, "")
	if err != nil {
		return nil, nil, err
	}
	h := serve.NewHandler(serve.Config{
		Cache:          pipeline.NewCacheObs(reg, 64),
		Registry:       reg,
		MaxInFlight:    serve.DefaultMaxInFlight,
		RequestTimeout: 30 * time.Second,
		Store:          store,
	})
	return httptest.NewServer(h), reg, nil
}

func specBody(sc *spec.Scenario) ([]byte, error) {
	var buf bytes.Buffer
	if err := spec.Write(&buf, sc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func universeOf(insts []flow.Instance) map[string]bool {
	u := make(map[string]bool)
	for _, in := range insts {
		for _, m := range in.Flow.Messages() {
			u[m.Name] = true
		}
	}
	return u
}

func newReconScenario(s opensparc.Scenario, sc *spec.Scenario, mi []string) (*reconScenario, error) {
	p, err := interleave.New(s.Instances())
	if err != nil {
		return nil, err
	}
	body, err := specBody(sc)
	if err != nil {
		return nil, err
	}
	body = bytes.TrimRight(body, " \n")
	if len(body) == 0 || body[len(body)-1] != '}' {
		return nil, fmt.Errorf("%s: spec body is not a JSON object", s.Name)
	}
	u := universeOf(s.Instances())
	return &reconScenario{name: s.Name, product: p, prefix: body[:len(body)-1], mi: mi,
		messages: sortedKeys(u), universe: u}, nil
}

// request observes a random execution of the interleaved flow through
// traced, as a /reconstruct request.
func (rs *reconScenario) request(traced []string, rng *rand.Rand) (request, error) {
	set := make(map[string]bool, len(traced))
	for _, n := range traced {
		set[n] = true
	}
	proj := interleave.ProjectTrace(rs.product.RandomExecution(rng).Trace(rs.product), set)
	observed := make([]serve.ObservedMsg, len(proj))
	for j, m := range proj {
		observed[j] = serve.ObservedMsg{Name: m.Name, Index: m.Index}
	}
	tail, err := json.Marshal(struct {
		Traced       []string            `json:"traced"`
		Observed     []serve.ObservedMsg `json:"observed"`
		MaxWitnesses int                 `json:"maxWitnesses"`
	}{traced, observed, 1})
	if err != nil {
		return request{}, err
	}
	// Splice the fields into the spec object: {spec...,"traced":...}.
	body := append(append(append([]byte(nil), rs.prefix...), ','), tail[1:]...)
	return request{path: "/reconstruct", class: "reconstruct", body: body, universe: rs.universe}, nil
}

// request builds request i of the seeded sequence; it depends only on the
// seed, i, and the setup warm-up.
func (r *serveRunner) request(i int) (request, error) {
	h := uint64(campaign.DerivedSeed(r.seed, i))
	pick := int(h / 100 % (1 << 30))
	switch u := h % 100; {
	case u < hotPct:
		return r.hot[pick%len(r.hot)], nil
	case u < hotPct+coldPct:
		return coldRequest(r.seed, i)
	case pick%100 >= reconFreshPct:
		return r.pool[pick/100%len(r.pool)], nil
	default:
		rng := rand.New(rand.NewSource(campaign.DerivedSeed(r.seed, i) ^ 0x7ace))
		rs := r.t2[pick/100%len(r.t2)]
		traced := make([]string, len(rs.mi))
		for k, j := range rng.Perm(len(rs.messages))[:len(rs.mi)] {
			traced[k] = rs.messages[j]
		}
		sort.Strings(traced)
		return rs.request(traced, rng)
	}
}

// at returns request i: from the pre-generated sequence, or generated
// inline (and counted) if the run outran it.
func (r *serveRunner) at(i int) (request, error) {
	if i < len(r.seq) {
		return r.seq[i], nil
	}
	r.inline.Add(1)
	return r.request(i)
}

// coldRequest draws a fresh synthetic scenario for request i, redrawing
// any whose universe is past exhaustive selection's ceiling so that no
// request is refused.
func coldRequest(seed int64, i int) (request, error) {
	rng := rand.New(rand.NewSource(campaign.DerivedSeed(seed, i) ^ 0x5eed))
	for {
		insts, err := synth.Scenario(3, coldParams, rng)
		if err != nil {
			return request{}, err
		}
		u := universeOf(insts)
		if len(u) > exhaustiveMaxMessages {
			continue
		}
		flows := make([]*flow.Flow, len(insts))
		for k, in := range insts {
			flows[k] = in.Flow
		}
		body, err := specBody(spec.FromFlows(fmt.Sprintf("synth-%d-%d", seed, i), flows, insts, 32))
		if err != nil {
			return request{}, err
		}
		return request{path: "/select", class: "select_miss", body: body, universe: u}, nil
	}
}

// send posts one request and checks its reply: status 200, a body that
// decodes, names only messages of the request's universe, and repeats the
// first reply to the same input byte for byte.
func (r *serveRunner) send(srv *httptest.Server, q request) ([]byte, error) {
	resp, err := srv.Client().Post(srv.URL+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", q.path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	var names []string
	if q.path == "/select" {
		var sr serve.Response
		if err := json.Unmarshal(out, &sr); err != nil {
			return nil, fmt.Errorf("decoding /select reply: %w", err)
		}
		names = append(names, sr.Selected...)
		for _, p := range sr.Packed {
			names = append(names, p.Message)
		}
		if len(sr.Selected) == 0 {
			return nil, fmt.Errorf("/select reply selects nothing")
		}
	} else {
		var rr serve.ReconstructResponse
		if err := json.Unmarshal(out, &rr); err != nil {
			return nil, fmt.Errorf("decoding /reconstruct reply: %w", err)
		}
		// The observation came from a real execution, so at least that one
		// is consistent with it.
		amb, ok := new(big.Int).SetString(rr.Ambiguity, 10)
		if !ok || amb.Sign() <= 0 || !rr.Exact {
			return nil, fmt.Errorf("/reconstruct ambiguity %q exact=%v for a real execution", rr.Ambiguity, rr.Exact)
		}
		for _, wt := range rr.Witnesses {
			for _, im := range wt {
				_, name, found := strings.Cut(im, ":")
				if !found {
					return nil, fmt.Errorf("/reconstruct witness entry %q is not i:Name", im)
				}
				names = append(names, name)
			}
		}
	}
	for _, n := range names {
		if !q.universe[n] {
			return nil, fmt.Errorf("%s reply names %q outside its universe", q.path, n)
		}
	}
	if q.key != "" {
		if err := r.digests.check(q.key, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkGoldens replays traceserved's committed golden exchanges.
func (r *serveRunner) checkGoldens(srv *httptest.Server) error {
	dir := filepath.Join(r.root, "cmd/traceserved/testdata")
	for _, g := range []struct {
		path, golden string
		req          request
	}{
		{"/select", "toy_response.golden.json", r.hot[0]},
		{"/reconstruct", "reconstruct_response.golden.json", request{}},
	} {
		q := g.req
		if g.path == "/reconstruct" {
			body, err := os.ReadFile(filepath.Join(dir, "reconstruct_request.json"))
			if err != nil {
				return err
			}
			q = request{path: g.path, body: body, universe: r.hot[0].universe}
		}
		out, err := r.send(srv, q)
		if err != nil {
			return fmt.Errorf("golden %s: %w", g.golden, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, g.golden))
		if err != nil {
			return err
		}
		if !bytes.Equal(out, want) {
			return fmt.Errorf("%s reply differs from %s", g.path, g.golden)
		}
	}
	return nil
}

func (r *serveRunner) pass() int { return 1 }

func (r *serveRunner) op(i int, tr *tracer, root int) (string, time.Duration, error) {
	q, err := r.at(i)
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	_, err = r.send(r.srv, q)
	lat := time.Since(t0)
	r.latNs.Add(int64(lat))
	r.reqs.Add(1)
	return q.class, lat, err
}

// settle replays the fixed first replayRequests requests of the sequence,
// one at a time, against a fresh handler warmed like the timed one: the
// cache, store, and memo state that retained heap and the exact counts are
// read from.
func (r *serveRunner) settle() error {
	r.timed = r.reg.Snapshot()
	for k, v := range r.timed {
		r.timed[k] = v - r.setupReg[k]
	}
	// Drop the timed handler: its cache and store contents depend on how
	// many requests the timed phase got through.
	r.srv.Close()
	r.srv, r.reg = nil, nil
	srv, reg, err := r.startServer()
	if err != nil {
		return err
	}
	r.replaySv, r.replay = srv, reg
	// Keep only the replayed requests: the rest of the sequence is sized by
	// the run length and would count in the retained heap.
	r.seq = append([]request(nil), r.seq[:replayRequests]...)
	for _, h := range r.hot {
		if _, err := r.send(srv, h); err != nil {
			return err
		}
	}
	for i, q := range r.seq {
		if _, err := r.send(srv, q); err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	return nil
}

func (r *serveRunner) layers(total map[string]time.Duration, ops int) (map[string]float64, error) {
	m := make(map[string]float64)
	c := r.replay.Snapshot()
	lookups := func(name, hits, misses string) {
		rt := ratio{c[hits], c[hits] + c[misses]}
		m[name+"_hit_ratio"] = rt.value()
		m[name+"_lookups"] = float64(rt.base)
	}
	lookups("pipeline.store", "pipeline.store.hits", "pipeline.store.misses")
	lookups("pipeline.cache", "pipeline.cache.hits", "pipeline.cache.misses")
	lookups("pipeline.reconstruct", "pipeline.reconstruct.hits", "pipeline.reconstruct.misses")
	m["pipeline.cache.evictions"] = float64(c["pipeline.cache.evictions"])
	m["serve.ok"] = float64(c["serve.ok"])

	// What the handler registry recorded over the timed phase.
	t := r.timed
	reqs := r.reqs.Load()
	// The timed phase's own memo hit share: the replay above starts every
	// memo empty and is too short to reach the steady mix.
	m["pipeline.timed_reconstruct_hit_share"] = ratio{t["pipeline.reconstruct.hits"],
		t["pipeline.reconstruct.hits"] + t["pipeline.reconstruct.misses"]}.value()
	m["serve.rejected"] = float64(t["serve.status_429"])
	for k, v := range t {
		if strings.HasPrefix(k, "serve.status_") && k != "serve.status_429" {
			m["serve.errors"] += float64(v)
		}
	}
	m["pipeline.fingerprint_us_per_req"] = perUnit(float64(t["pipeline.fingerprint_ns"])/1e3, reqs)
	m["interleave.build_ms_per_build"] = perUnit(float64(t["interleave.build_ns"])/1e6, t["interleave.builds"])
	m["core.select_ms_per_run"] = perUnit(float64(t["core.select.wall_ns"])/1e6, t["core.select.runs"])
	engine := float64(t["pipeline.fingerprint_ns"] + t["serve.select_ns"] + t["serve.reconstruct_ns"])
	m["serve.residual_us_per_req"] = perUnit((float64(r.latNs.Load())-engine)/1e3, reqs)
	m["bench.dominant_layer_pct"] = perUnit(100*engine, r.latNs.Load())
	return m, nil
}

// notes reports the timed phase's reconstruct memo hit share, and any
// requests the run had to generate inline.
func (r *serveRunner) notes() []string {
	t := r.timed
	out := []string{"timed_reconstruct_hit_share=" + ratio{t["pipeline.reconstruct.hits"],
		t["pipeline.reconstruct.hits"] + t["pipeline.reconstruct.misses"]}.String()}
	if n := r.inline.Load(); n > 0 {
		out = append(out, fmt.Sprintf("inline_requests=%d (the run outran the pre-generated sequence)", n))
	}
	return out
}

func (r *serveRunner) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.replaySv != nil {
		r.replaySv.Close()
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/pipeline"
	"tracescale/internal/spec"
)

// paperObservation is the /reconstruct knobs for the paper's walkthrough:
// trace ReqE+GntE on the two-agent toy, observe 1:ReqE 1:GntE 2:ReqE.
func paperObservation() map[string]any {
	return map[string]any{
		"traced": []string{"ReqE", "GntE"},
		"observed": []map[string]any{
			{"name": "ReqE", "index": 1},
			{"name": "GntE", "index": 1},
			{"name": "ReqE", "index": 2},
		},
	}
}

func postReconstruct(t testing.TB, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reconstruct", bytes.NewReader(body)))
	return rec
}

func TestReconstructToyObservation(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	extra := paperObservation()
	extra["maxWitnesses"] = 4
	rec := postReconstruct(t, h, toyBody(t, extra))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ReconstructResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Tracing both messages of the toy fully disambiguates: the observed
	// prefix pins exactly one execution out of the six.
	if resp.Ambiguity != "1" || !resp.Exact {
		t.Errorf("ambiguity = %s (exact %v), want exactly 1", resp.Ambiguity, resp.Exact)
	}
	if resp.TotalPaths != "6" {
		t.Errorf("totalPaths = %s, want 6", resp.TotalPaths)
	}
	if resp.Mode != "exact" || resp.Match != "prefix" {
		t.Errorf("mode/match = %s/%s, want exact/prefix defaults", resp.Mode, resp.Match)
	}
	if len(resp.Witnesses) != 1 {
		t.Fatalf("witnesses = %v, want the single consistent execution", resp.Witnesses)
	}
	// The witness is a full execution; its projection onto the traced set
	// (untraced Acks dropped) must start with the observation.
	var projected []string
	for _, m := range resp.Witnesses[0] {
		if strings.HasSuffix(m, ":ReqE") || strings.HasSuffix(m, ":GntE") {
			projected = append(projected, m)
		}
	}
	if got := strings.Join(projected[:3], " "); got != "1:ReqE 1:GntE 2:ReqE" {
		t.Errorf("witness projection does not start with the observation: %v", resp.Witnesses[0])
	}
	if len(resp.Survivors) != 4 {
		t.Errorf("survivors = %v, want one entry per matched prefix length 0..3", resp.Survivors)
	}
	if snap := reg.Snapshot(); snap["serve.reconstruct.requests"] != 1 || snap["serve.ok"] != 1 {
		t.Errorf("metrics = %v, want one reconstruct request and one ok", snap)
	}
}

func TestReconstructBeamMode(t *testing.T) {
	h := NewHandler(Config{Registry: obs.NewRegistry()})
	extra := paperObservation()
	extra["mode"] = "beam"
	extra["beamWidth"] = 8
	rec := postReconstruct(t, h, toyBody(t, extra))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ReconstructResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Width 8 exceeds every frontier of the toy, so the beam is lossless.
	if resp.Mode != "beam" || !resp.Exact || resp.Ambiguity != "1" {
		t.Errorf("lossless beam: mode=%s exact=%v ambiguity=%s, want beam/true/1",
			resp.Mode, resp.Exact, resp.Ambiguity)
	}
}

// TestReconstructRequestErrors pins the status discipline: malformed
// bodies and options are 400, engine rejections are 422.
func TestReconstructRequestErrors(t *testing.T) {
	h := NewHandler(Config{Registry: obs.NewRegistry()})
	badMode := paperObservation()
	badMode["mode"] = "genetic"
	beamless := paperObservation()
	beamless["mode"] = "beam" // beamWidth missing: the engine rejects it
	untraced := map[string]any{
		"traced":   []string{"ReqE"},
		"observed": []map[string]any{{"name": "GntE", "index": 1}},
	}
	outOfRange := map[string]any{
		"traced":   []string{"ReqE"},
		"observed": []map[string]any{{"name": "ReqE", "index": 7}},
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"get not allowed", nil, http.StatusMethodNotAllowed},
		{"malformed json", []byte("{"), http.StatusBadRequest},
		{"unknown field", toyBody(t, map[string]any{"traced": []string{"ReqE"}, "beamwidth_typo": 1}), http.StatusBadRequest},
		{"unknown mode", toyBody(t, badMode), http.StatusBadRequest},
		{"bad match", toyBody(t, map[string]any{"traced": []string{"ReqE"}, "match": "fuzzy"}), http.StatusBadRequest},
		{"beam without width", toyBody(t, beamless), http.StatusUnprocessableEntity},
		{"observed untraced message", toyBody(t, untraced), http.StatusUnprocessableEntity},
		{"observed index out of range", toyBody(t, outOfRange), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			if tc.body == nil {
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/reconstruct", nil))
			} else {
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reconstruct", bytes.NewReader(tc.body)))
			}
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
		})
	}
}

// TestReconstructMemoAcrossRequests: two identical POSTs answer
// byte-identically and the second hits the session memo.
func TestReconstructMemoAcrossRequests(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	body := toyBody(t, paperObservation())
	first := postReconstruct(t, h, body)
	again := postReconstruct(t, h, body)
	if first.Code != http.StatusOK || again.Code != http.StatusOK {
		t.Fatalf("statuses = %d, %d", first.Code, again.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
		t.Error("repeated reconstruction diverged")
	}
	if snap := reg.Snapshot(); snap["pipeline.reconstruct.hits"] != 1 {
		t.Errorf("pipeline.reconstruct.hits = %d, want 1", snap["pipeline.reconstruct.hits"])
	}
}

// TestReconstructTimeoutReturns504: an expired server-side deadline maps
// to 504; the engine runs under the request's context, so an expired one
// ends the computation instead of leaving it running in the background.
func TestReconstructTimeoutReturns504(t *testing.T) {
	h := NewHandler(Config{Registry: obs.NewRegistry(), RequestTimeout: time.Nanosecond})
	rec := postReconstruct(t, h, toyBody(t, paperObservation()))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
}

// TestReconstructDeadlineCancelsEnumeration: a deadline that expires
// while the engine enumerates witnesses answers 504 and cancels the
// computation itself, so nothing lands in the memo and the identical
// retry misses it instead of being answered from an abandoned run.
func TestReconstructDeadlineCancelsEnumeration(t *testing.T) {
	reg := obs.NewRegistry()
	cache := pipeline.NewCacheObs(reg, 0)
	// Six toy instances: counting takes about a millisecond, enumerating
	// the 193k consistent executions a few hundred.
	f := flow.CacheCoherence()
	var insts []flow.Instance
	for i := 1; i <= 6; i++ {
		insts = append(insts, flow.Instance{Flow: f, Index: i})
	}
	if _, err := cache.Session(insts); err != nil { // the deadline covers only the engine
		t.Fatal(err)
	}
	h := NewHandler(Config{Registry: reg, Cache: cache, RequestTimeout: 50 * time.Millisecond})
	body := merge(t, spec.FromFlows("toy-6", []*flow.Flow{f}, insts, 2), map[string]any{
		"traced":       []string{"ReqE"},
		"observed":     []map[string]any{{"name": "ReqE", "index": 1}},
		"maxWitnesses": 1 << 20,
	})

	if rec := postReconstruct(t, h, body); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %.200s)", rec.Code, rec.Body)
	}
	snap := reg.Snapshot()
	if snap["pipeline.reconstruct.flights_cancelled"] != 1 || snap["serve.reconstruct.cancelled"] != 1 {
		t.Errorf("flights_cancelled = %d, serve.reconstruct.cancelled = %d, want 1 and 1",
			snap["pipeline.reconstruct.flights_cancelled"], snap["serve.reconstruct.cancelled"])
	}
	postReconstruct(t, h, body)
	snap = reg.Snapshot()
	if snap["pipeline.reconstruct.misses"] != 2 || snap["pipeline.reconstruct.hits"] != 0 {
		t.Errorf("retry: misses = %d, hits = %d, want 2 and 0 (the cancelled run stored nothing)",
			snap["pipeline.reconstruct.misses"], snap["pipeline.reconstruct.hits"])
	}
}

// TestReconstructObservationLongerThanAnyExecution: two toy instances
// carry at most four traced messages per execution, so 10 000 observed
// messages are a 400 before the engine sizes anything by them.
func TestReconstructObservationLongerThanAnyExecution(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandler(Config{Registry: reg})
	observed := make([]map[string]any, 10000)
	for i := range observed {
		observed[i] = map[string]any{"name": "ReqE", "index": 1}
	}
	rec := postReconstruct(t, h, toyBody(t, map[string]any{
		"traced":   []string{"ReqE", "GntE"},
		"observed": observed,
	}))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %.200s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "longer than any execution") {
		t.Errorf("body %s does not name the bound", rec.Body)
	}
}

// TestReconstructNotServedByWorkers: worker-mode handlers expose only
// /shard; the reconstruction route must not leak into the fleet.
func TestReconstructNotServedByWorkers(t *testing.T) {
	h := NewHandler(Config{Registry: obs.NewRegistry(), Worker: true})
	rec := postReconstruct(t, h, toyBody(t, paperObservation()))
	if rec.Code != http.StatusNotFound {
		t.Errorf("worker served /reconstruct with %d, want 404", rec.Code)
	}
}

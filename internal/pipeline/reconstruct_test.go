package pipeline

import (
	"context"
	"strings"
	"sync"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/reconstruct"
)

func paperProjection() reconstruct.Projection {
	return reconstruct.Projection{
		Traced: []string{"ReqE", "GntE"},
		Observed: []flow.IndexedMsg{
			{Name: "ReqE", Index: 1},
			{Name: "GntE", Index: 1},
			{Name: "ReqE", Index: 2},
		},
	}
}

// TestSessionReconstructMemoizes: a repeated reconstruction returns the
// shared cached Result (pointer identity — callers treat it read-only),
// and the hit/miss counters account for both paths.
func TestSessionReconstructMemoizes(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSessionObs(ccInstances(2), reg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Reconstruct(paperProjection(), reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Reconstruct(paperProjection(), reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("repeated reconstruction did not return the shared cached Result")
	}
	snap := reg.Snapshot()
	if snap["pipeline.reconstruct.misses"] != 1 || snap["pipeline.reconstruct.hits"] != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			snap["pipeline.reconstruct.hits"], snap["pipeline.reconstruct.misses"])
	}
}

// TestSessionReconstructKeyCanonicalizesTraced: the traced set is a set —
// two orderings of the same names share one memo slot.
func TestSessionReconstructKeyCanonicalizesTraced(t *testing.T) {
	s, err := NewSession(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	pr := paperProjection()
	first, err := s.Reconstruct(pr, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr.Traced = []string{"GntE", "ReqE"} // same set, different spelling
	again, err := s.Reconstruct(pr, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("reordered traced set missed the memo; the key must canonicalize")
	}
}

// TestSessionReconstructKeySeparatesOptions: options that change the
// Result — mode, beam width, caps — must not alias in the memo.
func TestSessionReconstructKeySeparatesOptions(t *testing.T) {
	s, err := NewSession(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Reconstruct(paperProjection(), reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	beam, err := s.Reconstruct(paperProjection(), reconstruct.Options{
		Mode: reconstruct.Beam, BeamWidth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exact == beam {
		t.Error("exact and beam reconstructions aliased to one memo slot")
	}
}

// TestSessionReconstructErrorNotMemoized: a malformed projection is
// rejected on every call, never answered from cache.
func TestSessionReconstructErrorNotMemoized(t *testing.T) {
	s, err := NewSession(ccInstances(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := reconstruct.Projection{Traced: []string{"NoSuchMsg"}}
	for i := 0; i < 2; i++ {
		if _, err := s.Reconstruct(bad, reconstruct.Options{}); err == nil ||
			!strings.Contains(err.Error(), "NoSuchMsg") {
			t.Fatalf("call %d: err = %v, want the unknown-message rejection", i, err)
		}
	}
}

// TestReconstructSingleflightSharesOneCompute: concurrent identical
// reconstructions share one computation — one miss, the rest hit or join
// the flight — and every caller gets the same Result pointer.
func TestReconstructSingleflightSharesOneCompute(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSessionObs(ccInstances(2), reg)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*reconstruct.Result, callers)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.ReconstructContext(context.Background(), paperProjection(), reconstruct.Options{MaxWitnesses: 4})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent identical reconstructions returned distinct Results")
		}
	}
	snap := reg.Snapshot()
	if snap["pipeline.reconstruct.misses"] != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", snap["pipeline.reconstruct.misses"])
	}
	if got := snap["pipeline.reconstruct.hits"] + snap["pipeline.reconstruct.shared"]; got != callers-1 {
		t.Errorf("hits+shared = %d, want %d", got, callers-1)
	}
}

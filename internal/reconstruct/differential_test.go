package reconstruct

import (
	"context"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/synth"
)

// bruteCount enumerates every execution of the product and counts those
// whose projection matches the observation under the given semantics —
// the oracle the engine's DP must agree with on small universes.
func bruteCount(p *interleave.Product, traced map[string]bool, observed []flow.IndexedMsg, mode interleave.MatchMode) int {
	count := 0
	p.Executions(func(ex interleave.Execution) bool {
		proj := interleave.ProjectTrace(ex.Trace(p), traced)
		switch mode {
		case interleave.Prefix:
			if len(proj) >= len(observed) && sameTrace(proj[:len(observed)], observed) {
				count++
			}
		case interleave.Exact:
			if sameTrace(proj, observed) {
				count++
			}
		}
		return true
	})
	return count
}

// smallUniverses yields seeded products small enough to brute-force
// (chains of 2 flows: at most 4x3 = 12 product states).
func smallUniverses(t *testing.T, fn func(seed int64, p *interleave.Product)) {
	t.Helper()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		messages := 3 + int(seed%3) // 3..5 messages over 2 chain flows
		instances, err := synth.Universe(messages, 2, synth.Params{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := interleave.New(instances)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumStates() > 12 {
			t.Fatalf("seed %d: %d states is too large for the brute-force oracle", seed, p.NumStates())
		}
		fn(seed, p)
	}
}

// TestExactMatchesBruteForce is the differential pin: on every small
// universe, for both match semantics, the engine's count equals the
// brute-force path filter.
func TestExactMatchesBruteForce(t *testing.T) {
	smallUniverses(t, func(seed int64, p *interleave.Product) {
		rng := rand.New(rand.NewSource(seed + 100))
		names := messageNames(p)
		for trial := 0; trial < 8; trial++ {
			var traced []string
			for _, n := range names {
				if rng.Intn(2) == 0 {
					traced = append(traced, n)
				}
			}
			set := tracedSet(traced)
			truth := p.RandomExecution(rng).Trace(p)
			proj := interleave.ProjectTrace(truth, set)
			// Alternate between the full projection and a truncated one
			// (the buffer-stopped-early case Prefix semantics model).
			if trial%2 == 1 && len(proj) > 0 {
				proj = proj[:rng.Intn(len(proj))]
			}
			for _, mode := range []interleave.MatchMode{interleave.Prefix, interleave.Exact} {
				res, err := Reconstruct(context.Background(), p, Projection{Traced: traced, Observed: proj},
					Options{Match: mode})
				if err != nil {
					t.Fatalf("seed %d trial %d: %v", seed, trial, err)
				}
				want := bruteCount(p, set, proj, mode)
				if res.Ambiguity.Cmp(big.NewInt(int64(want))) != 0 {
					t.Errorf("seed %d trial %d mode %v: engine = %v, brute force = %d",
						seed, trial, mode, res.Ambiguity, want)
				}
				if !res.Exact {
					t.Errorf("seed %d trial %d: exact mode must report Exact", seed, trial)
				}
			}
		}
	})
}

// TestBeamBoundsExact pins beam semantics: the beam count never exceeds
// the exact count, a beam that reports Exact equals it, and a beam wide
// enough to hold every matched-prefix cell is lossless.
func TestBeamBoundsExact(t *testing.T) {
	smallUniverses(t, func(seed int64, p *interleave.Product) {
		rng := rand.New(rand.NewSource(seed + 200))
		names := messageNames(p)
		var traced []string
		for _, n := range names {
			if rng.Intn(2) == 0 {
				traced = append(traced, n)
			}
		}
		truth := p.RandomExecution(rng).Trace(p)
		pr := Projection{Traced: traced, Observed: interleave.ProjectTrace(truth, tracedSet(traced))}
		exact, err := Reconstruct(context.Background(), p, pr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 4, len(pr.Observed) + 1} {
			beam, err := Reconstruct(context.Background(), p, pr, Options{Mode: Beam, BeamWidth: width})
			if err != nil {
				t.Fatalf("seed %d width %d: %v", seed, width, err)
			}
			if beam.Ambiguity.Cmp(exact.Ambiguity) > 0 {
				t.Errorf("seed %d width %d: beam %v exceeds exact %v",
					seed, width, beam.Ambiguity, exact.Ambiguity)
			}
			if beam.Exact && beam.Ambiguity.Cmp(exact.Ambiguity) != 0 {
				t.Errorf("seed %d width %d: beam claims exact but %v != %v",
					seed, width, beam.Ambiguity, exact.Ambiguity)
			}
			// A state holds at most len(observed)+1 matched-prefix cells, so
			// this width cannot prune: the flag and the count must both hold.
			if width == len(pr.Observed)+1 {
				if !beam.Exact || beam.Ambiguity.Cmp(exact.Ambiguity) != 0 {
					t.Errorf("seed %d: lossless-width beam = (%v, exact=%v), want (%v, true)",
						seed, beam.Ambiguity, beam.Exact, exact.Ambiguity)
				}
				// Beam survivors over-approximate exact survivors (no
				// completion filter), never under.
				for j := range beam.Survivors {
					if beam.Survivors[j] < exact.Survivors[j] {
						t.Errorf("seed %d: beam Survivors[%d] = %d < exact %d",
							seed, j, beam.Survivors[j], exact.Survivors[j])
					}
				}
			}
		}
	})
}

// TestBeamDeterminism reruns the beam on the paper example and demands
// byte-identical results — the engine is deterministic by construction.
func TestBeamDeterminism(t *testing.T) {
	p := paperProduct(t)
	pr := Projection{
		Traced:   []string{"GntE", "ReqE"},
		Observed: []flow.IndexedMsg{{Name: "ReqE", Index: 1}},
	}
	var first *Result
	for i := 0; i < 5; i++ {
		res, err := Reconstruct(context.Background(), p, pr, Options{Mode: Beam, BeamWidth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Ambiguity.Cmp(first.Ambiguity) != 0 || res.Exact != first.Exact || res.Nodes != first.Nodes {
			t.Fatalf("run %d diverged: (%v, %v, %d) vs (%v, %v, %d)",
				i, res.Ambiguity, res.Exact, res.Nodes, first.Ambiguity, first.Exact, first.Nodes)
		}
		for j := range res.Survivors {
			if res.Survivors[j] != first.Survivors[j] {
				t.Fatalf("run %d: Survivors[%d] diverged", i, j)
			}
		}
	}
}

// FuzzProjection fuzzes the projection trust boundary: arbitrary traced
// and observed strings must either validate cleanly or be rejected with
// an error — never panic — and on acceptance the beam count must respect
// the exact bound.
func FuzzProjection(f *testing.F) {
	f.Add("ReqE,GntE", "1:ReqE,1:GntE,2:ReqE", uint8(0))
	f.Add("ReqE,ReqE", "1:ReqE", uint8(1)) // duplicate traced name: reject
	f.Add("ReqE", "9:ReqE", uint8(0))      // instance tag out of range: reject
	f.Add("ReqE", "1:Ack", uint8(2))       // observed but untraced: reject
	f.Add("", "", uint8(3))
	f.Add("Ack", "-1:Ack", uint8(0))
	// Five observed messages where every execution traces at most four:
	// reject before counting.
	f.Add("ReqE,GntE", "1:ReqE,1:GntE,2:ReqE,2:GntE,1:ReqE", uint8(0))

	fl := flow.CacheCoherence()
	p, err := interleave.New([]flow.Instance{{Flow: fl, Index: 1}, {Flow: fl, Index: 2}})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, tracedCSV, observedCSV string, knob uint8) {
		pr := Projection{}
		if tracedCSV != "" {
			pr.Traced = strings.Split(tracedCSV, ",")
		}
		if observedCSV != "" {
			for _, tok := range strings.Split(observedCSV, ",") {
				idx, name, ok := strings.Cut(tok, ":")
				if !ok {
					name = tok
				}
				m := flow.IndexedMsg{Name: name}
				for _, r := range idx {
					if r >= '0' && r <= '9' {
						m.Index = m.Index*10 + int(r-'0')
					}
				}
				if strings.HasPrefix(idx, "-") {
					m.Index = -m.Index
				}
				pr.Observed = append(pr.Observed, m)
			}
		}
		opt := Options{Match: interleave.MatchMode(knob % 2)}
		if knob&4 != 0 {
			opt.MaxWitnesses = int(knob)
		}
		res, err := Reconstruct(context.Background(), p, pr, opt)
		if err != nil {
			return // rejected: the boundary held
		}
		beam, berr := Reconstruct(context.Background(), p, pr, Options{
			Match:     opt.Match,
			Mode:      Beam,
			BeamWidth: 1 + int(knob%4),
		})
		if berr != nil {
			t.Fatalf("exact accepted but beam rejected the same projection: %v", berr)
		}
		if beam.Ambiguity.Cmp(res.Ambiguity) > 0 {
			t.Fatalf("beam %v exceeds exact %v", beam.Ambiguity, res.Ambiguity)
		}
		if res.Ambiguity.Sign() < 0 || len(res.Survivors) != len(pr.Observed)+1 {
			t.Fatalf("malformed result: %+v", res)
		}
	})
}

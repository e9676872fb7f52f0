package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/synth"
)

// TestGreedyVsExhaustiveDifferential pins greedy-vs-exhaustive agreement on
// random small instances (<= 4 flows, budget <= 12): greedy's selection
// gain must stay within the documented 1/2 approximation bound of the
// exhaustive optimum (see the Greedy doc comment), knapsack must match
// exhaustive exactly (both are exact Step-2 solvers), and no heuristic may
// ever beat the exhaustive reference. Seeds are fixed, so the instances —
// and the empirical bound — are pinned.
func TestGreedyVsExhaustiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	trials := 0
	for trial := 0; trial < 40; trial++ {
		nFlows := 1 + rng.Intn(4)
		insts := make([]flow.Instance, nFlows)
		for i := range insts {
			f, err := synth.Flow(fmt.Sprintf("t%d_f%d", trial, i), synth.Params{
				States:   3 + rng.Intn(3),
				Branch:   0.3,
				MaxWidth: 6,
				IPs:      3,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			insts[i] = flow.Instance{Flow: f, Index: 1}
		}
		p, err := interleave.New(insts)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1 + rng.Intn(12)

		ex, _, exErr := selectExhaustive(context.Background(), e, Config{BufferWidth: budget, MaxCandidates: defaultMaxCandidates})
		gr, grErr := selectGreedy(e, budget)
		kn, knErr := selectKnapsack(e, budget)
		if exErr != nil {
			// Nothing fits: every solver must agree on infeasibility.
			if grErr == nil || knErr == nil {
				t.Errorf("trial %d budget %d: exhaustive infeasible (%v) but greedy err = %v, knapsack err = %v",
					trial, budget, exErr, grErr, knErr)
			}
			continue
		}
		if grErr != nil || knErr != nil {
			t.Errorf("trial %d budget %d: exhaustive feasible but greedy err = %v, knapsack err = %v",
				trial, budget, grErr, knErr)
			continue
		}
		trials++
		const eps = 1e-9
		if kn.Gain < ex.Gain-eps || kn.Gain > ex.Gain+eps {
			t.Errorf("trial %d budget %d: knapsack gain %.12f != exhaustive %.12f (both exact)",
				trial, budget, kn.Gain, ex.Gain)
		}
		if gr.Gain > ex.Gain+eps {
			t.Errorf("trial %d budget %d: greedy gain %.12f beats the exhaustive optimum %.12f",
				trial, budget, gr.Gain, ex.Gain)
		}
		if gr.Gain < 0.5*ex.Gain-eps {
			t.Errorf("trial %d budget %d: greedy gain %.12f below 1/2 of exhaustive %.12f — documented bound violated (selected %v vs %v)",
				trial, budget, gr.Gain, ex.Gain, gr.Messages, ex.Messages)
		}
		if gr.Width > budget || kn.Width > budget || ex.Width > budget {
			t.Errorf("trial %d: a solver exceeded the %d-bit budget (ex %d, gr %d, kn %d)",
				trial, budget, ex.Width, gr.Width, kn.Width)
		}
	}
	if trials < 20 {
		t.Fatalf("only %d feasible trials — the generator parameters drifted", trials)
	}
}

// degenerateChainEvaluator builds an evaluator over one random chain flow
// (one instance, so the product is the chain: every message's visible set
// is a disjoint singleton and coverage is additive) and then overwrites
// every universe gain with the given value — the degenerate universes
// (zero entropy, or uniformly tied gains) in which the old DP silently
// diverged. Selection then rides entirely on the secondary objectives:
// coverage, then enumeration order.
func degenerateChainEvaluator(t *testing.T, seed int64, gain float64) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := synth.Flow(fmt.Sprintf("degen%d", seed), synth.Params{
		States:   3 + rng.Intn(6),
		MaxWidth: 5,
		IPs:      3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.gainOf {
		e.gainOf[i] = gain
	}
	return e
}

// TestKnapsackDegenerateMatchesExhaustive pins Knapsack ≡ Exhaustive on
// the degenerate universes where the old DP silently diverged: with every
// gain zero, strict-improvement DP never took an item and returned an
// empty Candidate with no error; with gains uniformly tied, it ignored the
// coverage tie-break that better() gives the exhaustive reference. On the
// single-execution chain family (disjoint visible sets, so the coverage
// tie-break has optimal substructure) the fixed DP must reproduce the
// exhaustive Candidate exactly — same messages, width, gain, and coverage
// — for both the zero-gain and tied-gain cases across budgets.
func TestKnapsackDegenerateMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		name string
		gain float64
	}{
		{"zero-gain", 0},
		{"tied-gain", 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trials := 0
			for seed := int64(0); seed < 30; seed++ {
				e := degenerateChainEvaluator(t, seed, tc.gain)
				for _, budget := range []int{1, 2, 3, 5, 8} {
					ex, _, exErr := selectExhaustive(context.Background(), e, Config{BufferWidth: budget, MaxCandidates: defaultMaxCandidates})
					kn, knErr := selectKnapsack(e, budget)
					if (exErr == nil) != (knErr == nil) {
						t.Fatalf("seed %d budget %d: exhaustive err %v vs knapsack err %v", seed, budget, exErr, knErr)
					}
					if exErr != nil {
						continue
					}
					trials++
					if len(kn.Messages) == 0 {
						t.Fatalf("seed %d budget %d: knapsack returned an empty Candidate with no error", seed, budget)
					}
					if !reflect.DeepEqual(kn, ex) {
						t.Errorf("seed %d budget %d: knapsack %+v != exhaustive %+v", seed, budget, kn, ex)
					}
				}
			}
			if trials < 50 {
				t.Fatalf("only %d feasible degenerate trials — generator drifted", trials)
			}
		})
	}
}

// On branchy multi-flow universes with doctored tied gains, coverage
// overlaps across messages and budgeted max-coverage has no optimal
// substructure, so exact set parity is out of reach for any DP. The
// invariants that must still hold: knapsack never returns an empty
// Candidate, its gain matches the exhaustive optimum, and its coverage
// never exceeds the exhaustive tie-break winner's (exhaustive is optimal
// for the secondary objective too).
func TestKnapsackDegenerateOverlappingInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nFlows := 1 + rng.Intn(3)
		insts := make([]flow.Instance, nFlows)
		var err error
		for i := range insts {
			var f *flow.Flow
			f, err = synth.Flow(fmt.Sprintf("olap%d_f%d", seed, i), synth.Params{
				States: 3 + rng.Intn(3), Branch: 0.3, MaxWidth: 5, IPs: 3,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			insts[i] = flow.Instance{Flow: f, Index: 1}
		}
		p, err := interleave.New(insts)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range e.gainOf {
			e.gainOf[i] = 0
		}
		for _, budget := range []int{2, 5, 8} {
			ex, _, exErr := selectExhaustive(context.Background(), e, Config{BufferWidth: budget, MaxCandidates: defaultMaxCandidates})
			kn, knErr := selectKnapsack(e, budget)
			if (exErr == nil) != (knErr == nil) {
				t.Fatalf("seed %d budget %d: exhaustive err %v vs knapsack err %v", seed, budget, exErr, knErr)
			}
			if exErr != nil {
				continue
			}
			if len(kn.Messages) == 0 {
				t.Fatalf("seed %d budget %d: knapsack returned an empty Candidate with no error", seed, budget)
			}
			if kn.Gain < ex.Gain-1e-9 || kn.Gain > ex.Gain+1e-9 {
				t.Errorf("seed %d budget %d: knapsack gain %.12f != exhaustive %.12f", seed, budget, kn.Gain, ex.Gain)
			}
			if kn.Coverage > ex.Coverage+1e-9 {
				t.Errorf("seed %d budget %d: knapsack coverage %.6f beats the exhaustive tie-break winner %.6f",
					seed, budget, kn.Coverage, ex.Coverage)
			}
		}
	}
}

// The single-execution chain is the tied-gain universe in its natural
// habitat: one instance, one execution, every message contributing the
// same gain, so selection is decided by coverage and enumeration order
// alone. Knapsack must agree with exhaustive without any doctoring.
func TestKnapsackSingleExecutionChain(t *testing.T) {
	b := flow.NewBuilder("chain1")
	b.States("s0", "s1", "s2", "s3")
	b.Init("s0")
	b.Stop("s3")
	b.Message(flow.Message{Name: "A", Width: 1, Src: "X", Dst: "Y"})
	b.Message(flow.Message{Name: "B", Width: 2, Src: "X", Dst: "Y"})
	b.Message(flow.Message{Name: "C", Width: 1, Src: "Y", Dst: "X"})
	b.Chain([]string{"s0", "s1", "s2", "s3"}, []string{"A", "B", "C"})
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	for budget := 1; budget <= 4; budget++ {
		ex, _, err := selectExhaustive(context.Background(), e, Config{BufferWidth: budget, MaxCandidates: defaultMaxCandidates})
		if err != nil {
			t.Fatal(err)
		}
		kn, err := selectKnapsack(e, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kn, ex) {
			t.Errorf("budget %d: knapsack %+v != exhaustive %+v", budget, kn, ex)
		}
	}
}

// The toy cache-coherence interleaving has three gain-tied pairs at budget
// 2; the paper (and exhaustive) pick {ReqE, GntE} on coverage. Knapsack
// must land on the same pair.
func TestKnapsackToyCoverageTieBreak(t *testing.T) {
	f := flow.CacheCoherence()
	p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := selectKnapsack(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(kn.Messages) != 2 || kn.Messages[0] != "ReqE" || kn.Messages[1] != "GntE" {
		t.Errorf("knapsack selected %v, want [ReqE GntE]", kn.Messages)
	}
}

// At a width-1 budget at most one (width-1) message fits, so density order
// and exhaustive enumeration coincide: greedy must be exact.
func TestGreedyExactAtWidthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	exact := 0
	for trial := 0; trial < 30; trial++ {
		f, err := synth.Flow(fmt.Sprintf("w1_%d", trial), synth.Params{
			States:   4 + rng.Intn(3),
			MaxWidth: 3, // widths 1-3: width-1 messages are common
			IPs:      3,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := interleave.New([]flow.Instance{{Flow: f, Index: 1}})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		ex, _, exErr := selectExhaustive(context.Background(), e, Config{BufferWidth: 1, MaxCandidates: defaultMaxCandidates})
		gr, grErr := selectGreedy(e, 1)
		if exErr != nil {
			if grErr == nil {
				t.Errorf("trial %d: exhaustive infeasible at width 1 but greedy selected %v", trial, gr.Messages)
			}
			continue
		}
		if grErr != nil {
			t.Errorf("trial %d: exhaustive found %v at width 1 but greedy errored: %v", trial, ex.Messages, grErr)
			continue
		}
		exact++
		if math.Abs(gr.Gain-ex.Gain) > 1e-12 {
			t.Errorf("trial %d: width-1 greedy gain %.12f != exhaustive %.12f (%v vs %v)",
				trial, gr.Gain, ex.Gain, gr.Messages, ex.Messages)
		}
	}
	if exact < 10 {
		t.Fatalf("only %d feasible width-1 trials — raise the width-1 message density", exact)
	}
}

// selectGreedy adds messages by decreasing gain density (gain/width),
// skipping messages that no longer fit. Ties by universe order. The Greedy
// method runs selectCELF; this eager form is the oracle the differential
// tests hold it to.
func selectGreedy(e *Evaluator, budget int) (Candidate, error) {
	best, _, err := selectGreedyCounted(e, budget)
	return best, err
}

// selectGreedyCounted is the eager greedy: each round re-evaluates the
// marginal gain density of every unchosen message that still fits and takes
// the best (strictly higher density wins; ties keep the lowest universe
// index). Messages wider than the remaining budget are skipped without an
// evaluation — the budget only shrinks, so they can never fit again.
//
// This round-based formulation selects the identical Candidate to the
// classic sort-once greedy (sort by density descending, take what fits):
// at every step both take the highest-density message that fits the
// remaining budget, and an already-skipped message never becomes eligible
// again. The rounds exist to make the evaluation count explicit — evals is
// the number of density evaluations performed, the quantity CELF's lazy
// queue provably undercuts (see selectCELF) and the differential tests pin.
func selectGreedyCounted(e *Evaluator, budget int) (Candidate, int, error) {
	n := len(e.universe)
	chosen := make([]bool, n)
	left := budget
	evals := 0
	any := false
	for left > 0 {
		bestAt := -1
		bestDensity := 0.0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			w := e.widthOf[i]
			if w > left {
				continue
			}
			evals++
			if d := e.gainOf[i] / float64(w); bestAt < 0 || d > bestDensity {
				bestAt, bestDensity = i, d
			}
		}
		if bestAt < 0 {
			break
		}
		chosen[bestAt] = true
		left -= e.widthOf[bestAt]
		any = true
	}
	if !any {
		return Candidate{}, evals, errNothingFits(budget)
	}
	return e.candidateFromSet(chosen), evals, nil
}

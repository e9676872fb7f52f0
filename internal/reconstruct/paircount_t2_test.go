package reconstruct_test

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"tracescale/internal/campaign"
	"tracescale/internal/core"
	"tracescale/internal/exp"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/mine"
	"tracescale/internal/opensparc"
	"tracescale/internal/reconstruct"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
)

// minedProduct mines scenario s the way `t2campaign -mined` does at
// campaign seed 1 — three golden traces, every flow eight transactions
// deep with jittered launches — and interleaves the mined flows.
func minedProduct(t *testing.T, s opensparc.Scenario) *interleave.Product {
	t.Helper()
	var rules []tbuf.Rule
	width := 0
	for _, m := range s.Universe() {
		rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
		width += m.Width
	}
	plan, err := tbuf.NewCapturePlan(rules)
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]tbuf.Entry
	for r := 0; r < 3; r++ {
		runSeed := campaign.DerivedSeed(1, 1<<20+s.ID*64+r)
		jit := rand.New(rand.NewSource(runSeed))
		var launches []soc.Launch
		for _, f := range s.Flows() {
			for k := 1; k <= 8; k++ {
				launches = append(launches, soc.Launch{Flow: f, Index: k, Start: uint64(8*(k-1) + jit.Intn(13))})
			}
		}
		res, err := soc.Run(soc.Scenario{Name: s.Name, Launches: launches}, soc.Config{Seed: runSeed, MaxLatency: 20})
		if err != nil {
			t.Fatal(err)
		}
		mon := soc.NewMonitor(plan, tbuf.New(width, len(res.Events)+1), nil)
		if err := mon.Consume(res.Events); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, mon.Buffer().Entries())
	}
	res, err := mine.Corpus(traces, mine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := res.Materialize(fmt.Sprintf("mined-s%d-", s.ID))
	if err != nil {
		t.Fatal(err)
	}
	insts := make([]flow.Instance, len(flows))
	for i, f := range flows {
		insts[i] = flow.Instance{Flow: f, Index: 1}
	}
	p, err := interleave.New(insts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// replaySelectReconstruct replays the reconstruct strategy's greedy
// rounds — largest exact pair-count reduction per bit, ties to gain
// density within 1e-12 and then to universe order — scoring every
// candidate with count. It returns each traced set the strategy scores
// and the names it selects.
func replaySelectReconstruct(t *testing.T, e *core.Evaluator, budget int, count func(map[string]bool) *big.Int) ([]map[string]bool, []string) {
	t.Helper()
	universe := e.Universe()
	chosen := make([]bool, len(universe))
	traced := map[string]bool{}
	var scored []map[string]bool
	current := count(traced)
	for left := budget; left > 0; {
		bestAt := -1
		var bestDensity *big.Rat
		var bestPairs *big.Int
		bestGD := 0.0
		for i, m := range universe {
			w := m.TraceWidth()
			if chosen[i] || w > left {
				continue
			}
			traced[m.Name] = true
			scored = append(scored, maps.Clone(traced))
			pairs := count(traced)
			delete(traced, m.Name)
			density := new(big.Rat).SetFrac(new(big.Int).Sub(current, pairs), big.NewInt(int64(w)))
			gain, err := e.Gain([]string{m.Name})
			if err != nil {
				t.Fatal(err)
			}
			gd := gain / float64(w)
			take := bestAt < 0
			if !take {
				switch density.Cmp(bestDensity) {
				case 1:
					take = true
				case 0:
					take = gd > bestGD+1e-12
				}
			}
			if take {
				bestAt, bestDensity, bestPairs, bestGD = i, density, pairs, gd
			}
		}
		if bestAt < 0 {
			break
		}
		chosen[bestAt] = true
		traced[universe[bestAt].Name] = true
		left -= universe[bestAt].TraceWidth()
		current = bestPairs
	}
	var picked []string
	for n := range traced {
		picked = append(picked, n)
	}
	slices.Sort(picked)
	return scored, picked
}

func setKey(set map[string]bool) string {
	var names []string
	for n := range set {
		names = append(names, n)
	}
	slices.Sort(names)
	return fmt.Sprint(names)
}

// TestPairCounterMatchesOracleOnT2 is the differential over the T2
// products `t2campaign -mined` scores: for each scenario's truth and mined
// product, one PairCounter replays the reconstruct strategy at the
// campaign's buffer width; the replay must pick what core.Select picks,
// and the counter's count at every traced set the strategy scores must
// equal the oracle's.
func TestPairCounterMatchesOracleOnT2(t *testing.T) {
	for _, s := range opensparc.Scenarios() {
		truth, err := s.Interleaving()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			spec string
			p    *interleave.Product
		}{{"truth", truth}, {"mined", minedProduct(t, s)}} {
			t.Run(fmt.Sprintf("scenario%d/%s", s.ID, c.spec), func(t *testing.T) {
				t.Parallel() // the oracle is slow; use every core
				e, err := core.NewEvaluator(c.p)
				if err != nil {
					t.Fatal(err)
				}
				counter, err := reconstruct.NewPairCounter(c.p)
				if err != nil {
					t.Fatal(err)
				}
				counts := map[string]*big.Int{}
				scored, picked := replaySelectReconstruct(t, e, exp.BufferWidth, func(set map[string]bool) *big.Int {
					got, err := counter.Count(context.Background(), set)
					if err != nil {
						t.Fatal(err)
					}
					counts[setKey(set)] = got
					return got
				})
				res, err := core.Select(e, core.Config{BufferWidth: exp.BufferWidth, Method: core.Reconstruct, DisablePacking: true})
				if err != nil {
					t.Fatal(err)
				}
				got := slices.Clone(res.Selected)
				slices.Sort(got)
				if !slices.Equal(got, picked) {
					t.Fatalf("replay picked %v, core.Select %v", picked, got)
				}
				for _, set := range scored {
					want := reconstruct.OraclePairCount(c.p, set)
					if got := counts[setKey(set)]; got.Cmp(want) != 0 {
						t.Errorf("traced %v: counter %v, oracle %v", set, got, want)
					}
				}
			})
		}
	}
}

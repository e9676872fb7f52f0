package reconstruct

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/synth"
)

// synthProducts yields seeded products of three shapes: chain universes
// (every message name distinct), branching scenarios (skip edges, so
// closures fan out), and replicated instances of one flow (every message
// name shared by all instances, told apart only by index).
func synthProducts(t *testing.T, fn func(label string, p *interleave.Product)) {
	t.Helper()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chains, err := synth.Universe(8+int(seed), 3, synth.Params{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		branching, err := synth.Scenario(3, synth.Params{States: 5, Branch: 0.4}, rng)
		if err != nil {
			t.Fatal(err)
		}
		replicated, err := synth.Replicated(3, synth.Params{States: 4, Branch: 0.4}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			label string
			insts []flow.Instance
		}{{"chains", chains}, {"branching", branching}, {"replicated", replicated}} {
			p, err := interleave.New(c.insts)
			if err != nil {
				t.Fatal(err)
			}
			fn(fmt.Sprintf("%s/seed%d", c.label, seed), p)
		}
	}
}

// TestPairCounterMatchesOracle is the differential pin of the dense DP:
// on seeded synth products, at every singleton traced set and 20 random
// subsets, one counter reused across all of them, a fresh one-shot
// PairCount, and the map/big.Int oracle agree exactly. Reusing the
// counter across sets in this order is what guards the generation-stamp
// reset: a stale memo slot would leak one set's counts into the next.
func TestPairCounterMatchesOracle(t *testing.T) {
	synthProducts(t, func(label string, p *interleave.Product) {
		names := messageNames(p)
		sets := []map[string]bool{{}, tracedSet(names)}
		for _, n := range names {
			sets = append(sets, map[string]bool{n: true})
		}
		rng := rand.New(rand.NewSource(int64(len(names))))
		for k := 0; k < 20; k++ {
			set := map[string]bool{}
			for _, n := range names {
				if rng.Intn(2) == 0 {
					set[n] = true
				}
			}
			sets = append(sets, set)
		}
		c, err := NewPairCounter(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range sets {
			want := oraclePairCount(p, set)
			reused, err := c.Count(context.Background(), set)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := PairCount(p, set)
			if err != nil {
				t.Fatal(err)
			}
			if reused.Cmp(want) != 0 || fresh.Cmp(want) != 0 {
				t.Errorf("%s traced %v: reused counter %v, one-shot %v, oracle %v",
					label, set, reused, fresh, want)
			}
		}
	})
}

// chainsProduct is three independent 9-message chains: 10³ = 1000 product
// states and TotalPaths = 27!/(9!)³ ≈ 2.28·10¹¹ executions, so the blind
// pair count (TotalPaths² ≈ 5.2·10²²) passes 2^64.
func chainsProduct(t testing.TB) *interleave.Product {
	t.Helper()
	insts, err := synth.Universe(27, 3, synth.Params{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New(insts)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 1000 {
		t.Fatalf("chains product has %d states, want 1000", p.NumStates())
	}
	return p
}

// TestPairCounterBigFallback: counts past 2^64 overflow the uint64 pass,
// and the big.Int rerun must still equal the oracle exactly — the blind
// count is TotalPaths² — while a traced set whose counts fit is answered
// by the uint64 pass of the same counter afterwards.
func TestPairCounterBigFallback(t *testing.T) {
	p := chainsProduct(t)
	names := messageNames(p)
	total := p.TotalPaths()
	blind := new(big.Int).Mul(total, total)
	if blind.BitLen() <= 64 {
		t.Fatalf("blind count %v fits 64 bits; the fallback would not run", blind)
	}
	c, err := NewPairCounter(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Count(context.Background(), map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(blind) != 0 {
		t.Errorf("blind count = %v, want TotalPaths² = %v", got, blind)
	}
	if c.wide == nil {
		t.Error("a count past 2^64 must have run on big.Int cells")
	}
	for _, set := range []map[string]bool{
		{names[0]: true},
		{names[8]: true},
		{names[4]: true, names[13]: true, names[22]: true},
		tracedSet(names[:18]), // two chains traced: 60 bits, fits again
	} {
		want := oraclePairCount(p, set)
		got, err := c.Count(context.Background(), set)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("traced %v: counter %v, oracle %v", set, got, want)
		}
	}
	// Fully traced, only the diagonal pairs remain: TotalPaths fits.
	if got, _ := c.Count(context.Background(), tracedSet(names)); got.Cmp(total) != 0 {
		t.Errorf("fully traced count = %v, want TotalPaths = %v", got, total)
	}
}

// countingCtx is a context whose Err reports cancellation from its
// cancelAt-th call on, counting the calls.
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestPairCounterCancel: the DP polls its context while it runs, so a
// context cancelled mid-count stops it after a few thousand probes
// instead of at the end.
func TestPairCounterCancel(t *testing.T) {
	p := chainsProduct(t)
	names := messageNames(p)
	// Tracing two of the chains leaves a count that fits 64 bits after a
	// DP of about 3·10⁵ probes.
	set := tracedSet(names[:18])
	c, err := NewPairCounter(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	full := c.word.probes
	if full < 10*pairPollEvery {
		t.Fatalf("a full count makes only %d probes; too few to show an early stop", full)
	}

	// The first Err call is Count's entry check; the second is the DP's
	// first poll.
	ctx := &countingCtx{Context: context.Background(), cancelAt: 2}
	if _, err := c.Count(ctx, set); err != context.Canceled {
		t.Fatalf("cancelled count: err = %v, want context.Canceled", err)
	}
	if ctx.calls != 2 {
		t.Errorf("context polled %d times, want 2 (entry, then the first poll)", ctx.calls)
	}
	if got := c.word.probes; got > 2*pairPollEvery {
		t.Errorf("cancelled count made %d probes of a full %d; the DP did not stop at its first poll", got, full)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Count(cancelled, set); err != context.Canceled {
		t.Errorf("count under a cancelled context: err = %v, want context.Canceled", err)
	}
	// The counter stays usable after an aborted count.
	got, err := c.Count(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	if want := oraclePairCount(p, set); got.Cmp(want) != 0 {
		t.Errorf("count after a cancelled one = %v, oracle %v", got, want)
	}
}

// TestPairCountStateLimit: a product over MaxAmbiguityStates is refused
// by NewPairCounter, PairCount and ExpectedAmbiguity, and before anything
// quadratic is allocated.
func TestPairCountStateLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 6 flows x 5 messages each: a chain product with 6^6 = 46656 states.
	instances, err := synth.Universe(30, 6, synth.Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interleave.New(instances)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumStates()
	if n <= MaxAmbiguityStates {
		t.Fatalf("test universe too small (%d states) to trip the limit", n)
	}
	refusals := []struct {
		name string
		call func() error
	}{
		{"NewPairCounter", func() error { _, err := NewPairCounter(p); return err }},
		{"PairCount", func() error { _, err := PairCount(p, map[string]bool{}); return err }},
		{"ExpectedAmbiguity", func() error { _, err := ExpectedAmbiguity(p, map[string]bool{}); return err }},
	}
	for _, r := range refusals {
		if r.call() == nil {
			t.Errorf("%s should refuse products beyond MaxAmbiguityStates", r.name)
			continue
		}
		// Even one byte per state pair would be n² bytes; a refusal must
		// stay far below that, and below one byte per state.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = r.call()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(n) {
			t.Errorf("%s allocated %d bytes before refusing a %d-state product", r.name, got, n)
		}
	}
}

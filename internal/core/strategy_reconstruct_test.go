package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/reconstruct"
	"tracescale/internal/synth"
)

// ambiguityOf scores a selection the way the strategy does: expected
// reconstruction ambiguity of the full traced set.
func ambiguityOf(t *testing.T, e *Evaluator, traced []string) float64 {
	t.Helper()
	set := make(map[string]bool, len(traced))
	for _, n := range traced {
		set[n] = true
	}
	amb, err := reconstruct.ExpectedAmbiguity(e.Product(), set)
	if err != nil {
		t.Fatal(err)
	}
	return amb
}

// TestReconstructMinimizesAmbiguity pins the strategy's objective: on a
// seeded sweep, the reconstruct selection's expected ambiguity never
// exceeds the MI-greedy selection's at the same budget — the head-to-head
// the t2campaign scorecard runs at scale.
func TestReconstructMinimizesAmbiguity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		e := universeEvaluator(t, 8, 2, synth.Params{MaxWidth: 4}, seed)
		cfg := Config{BufferWidth: 8, Method: Reconstruct}
		recon, err := Select(e, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg.Method = Greedy
		greedy, err := Select(e, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ra := ambiguityOf(t, e, recon.TracedNames())
		ga := ambiguityOf(t, e, greedy.TracedNames())
		if ra > ga+1e-9 {
			t.Errorf("seed %d: reconstruct ambiguity %g exceeds greedy's %g (selected %v vs %v)",
				seed, ra, ga, recon.Selected, greedy.Selected)
		}
		if ra < 1 {
			t.Errorf("seed %d: ambiguity %g below 1 is impossible", seed, ra)
		}
	}
}

// TestReconstructDeterministic: repeated selections are deep-equal — the
// integer pair-count comparisons leave no epsilon for drift.
func TestReconstructDeterministic(t *testing.T) {
	e := universeEvaluator(t, 10, 2, synth.Params{MaxWidth: 4}, 3)
	first, err := Select(e, Config{BufferWidth: 12, Method: Reconstruct})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Select(e, Config{BufferWidth: 12, Method: Reconstruct})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, again, first)
		}
	}
}

// TestReconstructFullyDisambiguatesWhenAffordable: with a budget that fits
// the whole universe, the selection reaches ambiguity 1 on chain flows
// with distinct labels (every execution has a unique projection).
func TestReconstructFullyDisambiguatesWhenAffordable(t *testing.T) {
	e := universeEvaluator(t, 6, 2, synth.Params{MaxWidth: 2}, 11)
	res, err := Select(e, Config{BufferWidth: 64, Method: Reconstruct})
	if err != nil {
		t.Fatal(err)
	}
	if amb := ambiguityOf(t, e, res.TracedNames()); amb != 1 {
		t.Errorf("whole-universe budget left ambiguity %g, want 1 (traced %v)", amb, res.TracedNames())
	}
}

// TestReconstructRejectsOversizedProducts: the quadratic pair DP refuses
// products beyond reconstruct.MaxAmbiguityStates with a clear error
// instead of hanging.
func TestReconstructRejectsOversizedProducts(t *testing.T) {
	insts, err := synth.Universe(30, 6, synth.Params{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	prod, err := interleave.New(insts)
	if err != nil {
		t.Fatal(err)
	}
	if prod.NumStates() <= reconstruct.MaxAmbiguityStates {
		t.Fatalf("test universe too small (%d states)", prod.NumStates())
	}
	e, err := NewEvaluator(prod)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Select(e, Config{BufferWidth: 8, Method: Reconstruct})
	if err == nil || !strings.Contains(err.Error(), "ambiguity limit") {
		t.Errorf("oversized product: err = %v, want the ambiguity-limit error", err)
	}
}

// TestReconstructNothingFits matches the shared infeasibility contract:
// when no message fits the budget, the strategy reports errNothingFits
// like every other selector.
func TestReconstructNothingFits(t *testing.T) {
	e := universeEvaluator(t, 4, 1, synth.Params{MaxWidth: 8}, 9)
	for _, m := range e.Universe() {
		if m.TraceWidth() <= 1 {
			t.Skip("seeded universe has a 1-bit message; infeasibility not constructible here")
		}
	}
	_, err := Select(e, Config{BufferWidth: 1, Method: Reconstruct})
	if err == nil || !strings.Contains(err.Error(), "no message fits") {
		t.Errorf("a budget nothing fits should report errNothingFits, got %v", err)
	}
}

// errCountingCtx counts Err calls and never reports cancellation.
type errCountingCtx struct {
	context.Context
	calls int
}

func (c *errCountingCtx) Err() error {
	c.calls++
	return nil
}

// TestReconstructPollsContextInsideCounts: the strategy hands its context
// to the pair DP, which polls it while counting — not only once per
// candidate, as a strategy that checks between counts would. On T2
// scenario 3 a full selection polls well past one check per count.
func TestReconstructPollsContextInsideCounts(t *testing.T) {
	s, err := opensparc.ScenarioByID(3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p, err := interleave.NewObserved(s.Instances(), reg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &errCountingCtx{Context: context.Background()}
	if _, err := SelectContext(ctx, e, Config{BufferWidth: 32, Method: Reconstruct}); err != nil {
		t.Fatal(err)
	}
	evals := int(reg.Counter("core.select.ambiguity_evals").Value())
	if evals == 0 {
		t.Fatal("selection scored no candidates")
	}
	// One entry check per count (the blind count and each candidate);
	// everything beyond that is the DP polling mid-count.
	if counts := evals + 1; ctx.calls <= counts {
		t.Errorf("context checked %d times over %d counts: the pair DP never polled it", ctx.calls, counts)
	}
}

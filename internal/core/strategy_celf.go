package core

import (
	"container/heap"
	"context"
)

// celfStrategy is the lazy-greedy selector (Leskovec et al.'s
// cost-effective lazy forward selection). Sequential and candidate-free:
// KeepCandidates and Workers > 1 are rejected.
type celfStrategy struct{}

func (celfStrategy) Name() string { return "celf" }

func (celfStrategy) Capabilities() Capabilities { return Capabilities{} }

func (celfStrategy) Select(_ context.Context, e *Evaluator, cfg Config) (Candidate, []Candidate, error) {
	best, evals, err := selectCELF(e, cfg.BufferWidth)
	if err == nil {
		e.p.Obs().Add("core.select.gain_evals", int64(evals))
	}
	return best, nil, err
}

// greedyStrategy is density-greedy selection under its registry name. It
// runs selectCELF: eager and lazy greedy take the same messages in the
// same order, so the Candidate is byte-identical and only the evaluation
// count (core.select.gain_evals) differs. The eager form survives as the
// differential tests' oracle.
type greedyStrategy struct{ celfStrategy }

func (greedyStrategy) Name() string { return "greedy" }

// celfEntry is one queued message with the gain density computed at some
// (possibly stale) selection round.
type celfEntry struct {
	idx     int     // universe index
	density float64 // gainOf[idx] / widthOf[idx] as of round
	round   int     // selection round the density was evaluated in
}

// celfQueue is a max-heap of entries ordered by density descending, ties
// by ascending universe index — a strict total order (indices are
// distinct), so the heap top is always the unique maximum and heap
// re-sifting can never reorder tied entries nondeterministically.
type celfQueue []celfEntry

func (q celfQueue) Len() int { return len(q) }
func (q celfQueue) Less(i, j int) bool {
	if q[i].density != q[j].density {
		return q[i].density > q[j].density
	}
	return q[i].idx < q[j].idx
}
func (q celfQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *celfQueue) Push(x any)   { *q = append(*q, x.(celfEntry)) }
func (q *celfQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// selectCELF is greedy selection with lazy marginal-gain evaluation. The
// queue is seeded with every message that fits the full budget (one
// evaluation each); afterwards each round inspects only the queue top:
//
//   - wider than the remaining budget → dropped without an evaluation (the
//     budget only shrinks, so it can never fit again);
//   - stale (evaluated in an earlier round) → re-evaluated once, refreshed
//     in place, and re-sifted;
//   - fresh → taken.
//
// Because the gain metric is additive, a re-evaluated density never
// changes, the refreshed top stays the unique maximum (the heap order is a
// strict total order), and the very next inspection takes it. Each round
// after the first therefore costs exactly one evaluation, against eager
// greedy's one per still-fitting message — identical picks in the same
// order (both always take the highest-density fitting message, ties to the
// lowest universe index), so the selected Candidate is byte-identical to
// eager greedy's while evals is strictly smaller whenever any round after
// the first has two or more fitting messages left. The differential suite
// pins both properties against the eager form (selectGreedyCounted, kept
// in the tests as the oracle).
func selectCELF(e *Evaluator, budget int) (Candidate, int, error) {
	n := len(e.universe)
	q := make(celfQueue, 0, n)
	evals := 0
	for i := 0; i < n; i++ {
		w := e.widthOf[i]
		if w > budget {
			continue
		}
		evals++
		q = append(q, celfEntry{idx: i, density: e.gainOf[i] / float64(w)})
	}
	heap.Init(&q)

	chosen := make([]bool, n)
	left := budget
	round := 0
	any := false
	for left > 0 && q.Len() > 0 {
		top := q[0]
		if e.widthOf[top.idx] > left {
			heap.Pop(&q)
			continue
		}
		if top.round < round {
			// The lazy re-evaluation: with a submodular (here: modular)
			// objective the stale value only ever overestimates, so a top
			// that survives refresh is the true argmax and nothing below it
			// needs recomputing.
			evals++
			q[0].density = e.gainOf[top.idx] / float64(e.widthOf[top.idx])
			q[0].round = round
			heap.Fix(&q, 0)
			continue
		}
		heap.Pop(&q)
		chosen[top.idx] = true
		left -= e.widthOf[top.idx]
		round++
		any = true
	}
	if !any {
		return Candidate{}, evals, errNothingFits(budget)
	}
	return e.candidateFromSet(chosen), evals, nil
}

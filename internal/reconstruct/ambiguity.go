package reconstruct

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// MaxAmbiguityStates bounds the pairwise DP: it walks pairs of product
// states, so its table is quadratic in the state count. The T2 products
// top out at a few hundred states; past this limit the exact expectation
// is refused rather than silently approximated, before anything
// quadratic is allocated.
const MaxAmbiguityStates = 1024

// pairPollEvery sets how often the pair DP polls its context: about once
// every pairPollEvery pair-cell probes, the DP's unit of work.
const pairPollEvery = 1 << 12

// errOverflow aborts a uint64 pass whose counts no longer fit; Count then
// reruns the same DP on big.Int cells.
var errOverflow = errors.New("reconstruct: pair count exceeds 64 bits")

// PairCount returns the number of ordered pairs of executions whose
// projections onto the traced set are equal. Dividing by TotalPaths gives
// the expected reconstruction ambiguity: how many executions a debugger
// must still consider, on average, after observing the trace a uniformly
// random execution leaves behind. Tracing nothing gives TotalPaths²
// (every pair collides); a traced set that fully disambiguates gives
// exactly TotalPaths (only the diagonal pairs remain).
//
// The count is exact: a DP over state pairs synchronized on the next
// traced message, with untraced runs folded into closure counts, so no
// path enumeration and no floating point. It runs in uint64 and reruns
// on big.Int only when a count passes 2^64. PairCount is a one-shot
// NewPairCounter + Count; callers that score many traced sets against one
// product should keep a PairCounter, which reuses its tables across calls
// and takes a context.
func PairCount(p *interleave.Product, traced map[string]bool) (*big.Int, error) {
	c, err := NewPairCounter(p)
	if err != nil {
		return nil, err
	}
	return c.Count(context.Background(), traced)
}

// ExpectedAmbiguity is PairCount over TotalPaths as a float64: the mean
// number of executions consistent with a random execution's projection.
// It ranges from 1 (perfect disambiguation) to TotalPaths (blind).
func ExpectedAmbiguity(p *interleave.Product, traced map[string]bool) (float64, error) {
	pairs, err := PairCount(p, traced)
	if err != nil {
		return 0, err
	}
	total := p.TotalPaths()
	if total.Sign() == 0 {
		return 0, fmt.Errorf("reconstruct: interleaved flow has no executions")
	}
	f, _ := new(big.Rat).SetFrac(pairs, total).Float64()
	return f, nil
}

// PairCounter computes PairCount for one product under any number of
// traced sets. The traced-independent parts — the product's edges with
// their message ids, the stop mask, the initial states, and the pair-cell
// table — are built once; each Count resets its scratch by bumping a
// generation stamp, so scoring another traced set clears and allocates
// nothing quadratic. A PairCounter is not safe for concurrent use.
type PairCounter struct {
	n     int
	names []string // message-name id -> name
	// Edges of state u are outStart[u] .. outStart[u+1]-1, each with its
	// target, message-name id and indexed-message id.
	outStart []int32
	edgeTo   []int32
	edgeName []int32
	edgeMsg  []int32
	stop     []bool
	inits    []int32

	traced []bool // per message-name id, for the Count in progress

	word *pairDP[uint64, *wordArith]
	wide *pairDP[*big.Int, bigArith] // made on the first overflow
}

// NewPairCounter builds the traced-independent tables for p. It refuses
// products over MaxAmbiguityStates before allocating anything sized by
// the state count.
func NewPairCounter(p *interleave.Product) (*PairCounter, error) {
	n := p.NumStates()
	if n > MaxAmbiguityStates {
		return nil, fmt.Errorf("reconstruct: %d states exceeds the %d-state ambiguity limit", n, MaxAmbiguityStates)
	}
	m := p.NumEdges()
	c := &PairCounter{
		n:        n,
		outStart: make([]int32, n+1),
		edgeTo:   make([]int32, 0, m),
		edgeName: make([]int32, 0, m),
		edgeMsg:  make([]int32, 0, m),
		stop:     make([]bool, n),
	}
	nameID := make(map[string]int32)
	msgID := make(map[flow.IndexedMsg]int32)
	for u := 0; u < n; u++ {
		c.outStart[u] = int32(len(c.edgeTo))
		for _, e := range p.Out(u) {
			msg := p.Msg(e)
			name, ok := nameID[msg.Name]
			if !ok {
				name = int32(len(c.names))
				nameID[msg.Name] = name
				c.names = append(c.names, msg.Name)
			}
			id, ok := msgID[msg]
			if !ok {
				id = int32(len(msgID))
				msgID[msg] = id
			}
			c.edgeTo = append(c.edgeTo, int32(e.To))
			c.edgeName = append(c.edgeName, name)
			c.edgeMsg = append(c.edgeMsg, id)
		}
	}
	c.outStart[n] = int32(len(c.edgeTo))
	for _, s := range p.Stop() {
		c.stop[s] = true
	}
	seen := make([]bool, n)
	for _, s := range p.Init() {
		if !seen[s] {
			seen[s] = true
			c.inits = append(c.inits, int32(s))
		}
	}
	c.traced = make([]bool, len(c.names))
	c.word = newPairDP[uint64](c, &wordArith{})
	return c, nil
}

// Count returns PairCount for the traced set. It polls ctx while the DP
// runs and returns ctx.Err() once the context is done.
func (c *PairCounter) Count(ctx context.Context, traced map[string]bool) (*big.Int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for id, name := range c.names {
		c.traced[id] = traced[name]
	}
	w, err := c.word.run(ctx)
	if err == nil {
		return new(big.Int).SetUint64(w), nil
	}
	if !errors.Is(err, errOverflow) {
		return nil, err
	}
	if c.wide == nil {
		c.wide = newPairDP[*big.Int](c, bigArith{})
	}
	b, err := c.wide.run(ctx) // b is fresh: bigArith.add never returns a cell
	if err != nil {
		return nil, err
	}
	return b, nil
}

// arith is the arithmetic the pair DP runs on. Values are never modified
// after they are returned, so the DP may share them between cells.
type arith[V any] interface {
	of(x uint64) V
	add(x, y V) V
	mul(x, y V) V
	// addDot returns x + c·Σ ls[k].c·fs[k].
	addDot(x, c V, ls []landing[V], fs []V) V
	// overflowed reports whether a result since the last reset was not
	// exact.
	overflowed() bool
	reset()
}

// wordArith is uint64 arithmetic that records overflow instead of
// wrapping silently.
type wordArith struct{ overflow bool }

func (a *wordArith) of(x uint64) uint64 { return x }

func (a *wordArith) add(x, y uint64) uint64 {
	s, carry := bits.Add64(x, y, 0)
	if carry != 0 {
		a.overflow = true
	}
	return s
}

func (a *wordArith) mul(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	if hi != 0 {
		a.overflow = true
	}
	return lo
}

func (a *wordArith) addDot(x, c uint64, ls []landing[uint64], fs []uint64) uint64 {
	var sum, over uint64
	for k, l := range ls {
		hi, lo := bits.Mul64(l.c, fs[k])
		var carry uint64
		sum, carry = bits.Add64(sum, lo, 0)
		over |= hi | carry
	}
	hi, lo := bits.Mul64(c, sum)
	x, carry := bits.Add64(x, lo, 0)
	if over|hi|carry != 0 {
		a.overflow = true
	}
	return x
}

func (a *wordArith) overflowed() bool { return a.overflow }
func (a *wordArith) reset()           { a.overflow = false }

// bigArith is exact arbitrary-precision arithmetic; every result is a
// fresh big.Int.
type bigArith struct{}

func (bigArith) of(x uint64) *big.Int       { return new(big.Int).SetUint64(x) }
func (bigArith) add(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }
func (bigArith) mul(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }
func (bigArith) addDot(x, c *big.Int, ls []landing[*big.Int], fs []*big.Int) *big.Int {
	sum, term := new(big.Int), new(big.Int)
	for k, l := range ls {
		sum.Add(sum, term.Mul(l.c, fs[k]))
	}
	return sum.Add(x, sum.Mul(sum, c))
}

func (bigArith) overflowed() bool { return false }
func (bigArith) reset()           {}

// stamped is a memo slot, valid while gen equals the DP's generation.
type stamped[V any] struct {
	gen uint32
	v   V
}

// span locates a state's closure in the arena, valid while gen equals
// the DP's generation.
type span struct {
	gen    uint32
	lo, hi int32
}

// landing is one closure entry: key packs the traced message id (high 32
// bits) and the landing state (low 32 bits), so sorting by key groups a
// closure by message.
type landing[V any] struct {
	key uint64
	c   V
}

// pairDP is the pair-count DP and its scratch for one arithmetic. All
// memo slots carry a generation stamp; run bumps the generation instead
// of clearing them.
type pairDP[V any, A arith[V]] struct {
	c   *PairCounter
	ar  A
	gen uint32
	ctx context.Context
	err error
	// probes counts the pair-cell probes of this run; the context is
	// polled once probes reaches nextPoll.
	probes, nextPoll int
	vals             []V // f values gathered for addDot, used as a stack

	tail   []stamped[V] // per state
	clo    []span       // per state
	arena  []landing[V]
	merged [2][]landing[V] // closure merge buffers
	// cells holds f(u, v) = f(v, u) for u <= v at rowBase[v]+u: a
	// triangular n×n table.
	cells   []stamped[V]
	rowBase []int32
}

func newPairDP[V any, A arith[V]](c *PairCounter, ar A) *pairDP[V, A] {
	d := &pairDP[V, A]{
		c:       c,
		ar:      ar,
		tail:    make([]stamped[V], c.n),
		clo:     make([]span, c.n),
		rowBase: make([]int32, c.n),
	}
	for v := range d.rowBase {
		d.rowBase[v] = int32(v * (v + 1) / 2)
	}
	d.cells = make([]stamped[V], c.n*(c.n+1)/2)
	return d
}

// run computes the pair count for the counter's current traced set: the
// sum of f(u, v) over ordered pairs of initial states.
func (d *pairDP[V, A]) run(ctx context.Context) (V, error) {
	d.gen++
	if d.gen == 0 { // wrapped: stale stamps could read as current
		clear(d.tail)
		clear(d.clo)
		clear(d.cells)
		d.gen = 1
	}
	d.ctx, d.err, d.probes, d.nextPoll = ctx, nil, 0, pairPollEvery
	d.arena, d.vals = d.arena[:0], d.vals[:0]
	d.ar.reset()
	total := d.ar.of(0)
	for _, u := range d.c.inits {
		for _, v := range d.c.inits {
			total = d.ar.add(total, d.pair(u, v))
		}
	}
	d.ctx = nil
	if d.err == nil && d.ar.overflowed() {
		d.err = errOverflow
	}
	return total, d.err
}

// tailOf is the number of completions from u whose projection is empty:
// untraced edges only, ending at a stop state.
func (d *pairDP[V, A]) tailOf(u int32) V {
	if t := d.tail[u]; t.gen == d.gen {
		return t.v
	}
	c := d.c
	x := d.ar.of(0)
	if c.stop[u] {
		x = d.ar.of(1)
	}
	for e := c.outStart[u]; e < c.outStart[u+1]; e++ {
		if !c.traced[c.edgeName[e]] {
			x = d.ar.add(x, d.tailOf(c.edgeTo[e]))
		}
	}
	d.tail[u] = stamped[V]{d.gen, x}
	return x
}

// closureOf lists, for each (first traced message m, landing state w),
// the number of ways to run untraced edges from u and then cross a
// traced edge labeled m into w, sorted by (m, w).
func (d *pairDP[V, A]) closureOf(u int32) []landing[V] {
	if s := d.clo[u]; s.gen == d.gen {
		return d.arena[s.lo:s.hi]
	}
	c := d.c
	lo, hi := c.outStart[u], c.outStart[u+1]
	for e := lo; e < hi; e++ {
		if !c.traced[c.edgeName[e]] {
			d.closureOf(c.edgeTo[e])
		}
	}
	// Own traced edges first, insertion-sorted (out-degree is small),
	// then each untraced successor's closure merged in.
	acc := d.merged[0][:0]
	for e := lo; e < hi; e++ {
		if !c.traced[c.edgeName[e]] {
			continue
		}
		l := landing[V]{uint64(c.edgeMsg[e])<<32 | uint64(c.edgeTo[e]), d.ar.of(1)}
		acc = append(acc, l)
		i := len(acc) - 1
		for i > 0 && acc[i-1].key > l.key {
			acc[i] = acc[i-1]
			i--
		}
		acc[i] = l
	}
	acc = d.mergeInto(d.merged[1][:0], acc, nil) // coalesce equal keys
	other := d.merged[0][:0]
	for e := lo; e < hi; e++ {
		if !c.traced[c.edgeName[e]] {
			acc, other = d.mergeInto(other, acc, d.closureOf(c.edgeTo[e])), acc[:0]
		}
	}
	start := int32(len(d.arena))
	d.arena = append(d.arena, acc...)
	d.merged[0], d.merged[1] = acc[:0], other[:0]
	d.clo[u] = span{d.gen, start, int32(len(d.arena))}
	return d.arena[start:]
}

// mergeInto appends the key-sorted union of a and b to dst, adding the
// counts of equal keys (including equal neighbours within a).
func (d *pairDP[V, A]) mergeInto(dst, a, b []landing[V]) []landing[V] {
	push := func(l landing[V]) {
		if k := len(dst) - 1; k >= 0 && dst[k].key == l.key {
			dst[k].c = d.ar.add(dst[k].c, l.c)
			return
		}
		dst = append(dst, l)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].key <= b[j].key {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return dst
}

// pair is f(u, v): ordered pairs of completions from (u, v) with equal
// projections. Each pair either drains untraced to a stop on both sides
// or shares a first traced message m, landing in (a, b); so f(u, v) is
// tail(u)·tail(v) plus, per shared m, the closure counts times f(a, b).
// Every recursive step crosses a traced edge on both sides, so the
// recursion is well founded on the DAG.
func (d *pairDP[V, A]) pair(u, v int32) V {
	if u > v {
		u, v = v, u
	}
	idx := d.rowBase[v] + u
	if cell := d.cells[idx]; cell.gen == d.gen {
		return cell.v
	}
	if d.err == nil && d.probes >= d.nextPoll {
		d.nextPoll = d.probes + pairPollEvery
		if err := d.ctx.Err(); err != nil {
			d.err = err
		} else if d.ar.overflowed() {
			d.err = errOverflow
		}
	}
	if d.err != nil {
		return d.ar.of(0)
	}
	x := d.ar.mul(d.tailOf(u), d.tailOf(v))
	cu, cv := d.closureOf(u), d.closureOf(v)
	i, j := 0, 0
	for i < len(cu) && j < len(cv) {
		mu, mv := cu[i].key>>32, cv[j].key>>32
		switch {
		case mu < mv:
			i++
		case mu > mv:
			j++
		default:
			je := j
			for je < len(cv) && cv[je].key>>32 == mu {
				je++
			}
			bs := cv[j:je]
			for ; i < len(cu) && cu[i].key>>32 == mu; i++ {
				if d.err != nil {
					return x // aborted: run discards every value
				}
				// Gather f(a, b) over the group, probing the memo inline and
				// recursing only on a miss, then fold the group in one step.
				aw := int32(uint32(cu[i].key))
				base := len(d.vals)
				for _, b := range bs {
					lo, hi := aw, int32(uint32(b.key))
					if lo > hi {
						lo, hi = hi, lo
					}
					if cell := d.cells[d.rowBase[hi]+lo]; cell.gen == d.gen {
						d.vals = append(d.vals, cell.v)
					} else {
						f := d.pair(lo, hi) // uses d.vals above base: call before appending
						d.vals = append(d.vals, f)
					}
				}
				d.probes += len(bs)
				x = d.ar.addDot(x, cu[i].c, bs, d.vals[base:])
				d.vals = d.vals[:base]
			}
			j = je
		}
	}
	d.cells[idx] = stamped[V]{d.gen, x}
	return x
}

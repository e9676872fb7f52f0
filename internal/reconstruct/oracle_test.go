package reconstruct

import (
	"math/big"
	"sort"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
)

// oraclePairCount is the reference pair DP: the same recursion written
// plainly, memoized in maps keyed by state pair and indexed message, in
// big.Int throughout. It is the differential oracle for PairCounter's
// dense uint64 DP and its big.Int fallback.
func oraclePairCount(p *interleave.Product, traced map[string]bool) *big.Int {
	n := p.NumStates()
	isStop := make([]bool, n)
	for _, s := range p.Stop() {
		isStop[s] = true
	}

	// stopTail[u]: completions from u whose projection is empty (untraced
	// edges only, ending at a stop state).
	stopTail := make([]*big.Int, n)
	var tail func(u int) *big.Int
	tail = func(u int) *big.Int {
		if c := stopTail[u]; c != nil {
			return c
		}
		c := new(big.Int)
		stopTail[u] = c // DAG: no re-entrancy
		if isStop[u] {
			c.SetInt64(1)
		}
		for _, e := range p.Out(u) {
			if !traced[p.Msg(e).Name] {
				c.Add(c, tail(e.To))
			}
		}
		return c
	}

	// closure[u]: for each (first traced message m, landing state w), the
	// number of ways to run untraced edges from u and then cross a traced
	// edge labeled m into w. Grouped by m for the synchronized product.
	type landing struct {
		w int
		c *big.Int
	}
	closure := make([]map[flow.IndexedMsg][]landing, n)
	var closureOf func(u int) map[flow.IndexedMsg][]landing
	closureOf = func(u int) map[flow.IndexedMsg][]landing {
		if cl := closure[u]; cl != nil {
			return cl
		}
		acc := make(map[flow.IndexedMsg]map[int]*big.Int)
		bump := func(m flow.IndexedMsg, w int, c *big.Int) {
			byW := acc[m]
			if byW == nil {
				byW = make(map[int]*big.Int)
				acc[m] = byW
			}
			if got := byW[w]; got != nil {
				got.Add(got, c)
			} else {
				byW[w] = new(big.Int).Set(c)
			}
		}
		one := big.NewInt(1)
		for _, e := range p.Out(u) {
			m := p.Msg(e)
			if traced[m.Name] {
				bump(m, e.To, one)
			} else {
				for cm, landings := range closureOf(e.To) {
					for _, l := range landings {
						bump(cm, l.w, l.c)
					}
				}
			}
		}
		cl := make(map[flow.IndexedMsg][]landing, len(acc))
		for m, byW := range acc {
			ls := make([]landing, 0, len(byW))
			for w, c := range byW {
				ls = append(ls, landing{w, c})
			}
			sort.Slice(ls, func(a, b int) bool { return ls[a].w < ls[b].w })
			cl[m] = ls
		}
		closure[u] = cl
		return cl
	}

	// f[u][v]: ordered pairs of completions from (u, v) with equal
	// projections — decompose each pair by its shared first traced
	// message, or by both sides draining untraced to a stop.
	pair := make(map[[2]int]*big.Int)
	var f func(u, v int) *big.Int
	f = func(u, v int) *big.Int {
		key := [2]int{u, v}
		if c := pair[key]; c != nil {
			return c
		}
		c := new(big.Int).Mul(tail(u), tail(v))
		pair[key] = c // every recursive step crosses a traced edge on both sides: no re-entrancy
		term := new(big.Int)
		for m, lu := range closureOf(u) {
			lv, ok := closureOf(v)[m]
			if !ok {
				continue
			}
			for _, a := range lu {
				for _, b := range lv {
					term.Mul(a.c, b.c)
					term.Mul(term, f(a.w, b.w))
					c.Add(c, term)
				}
			}
		}
		return c
	}

	total := new(big.Int)
	seen := make(map[int]bool, len(p.Init()))
	inits := make([]int, 0, len(p.Init()))
	for _, s := range p.Init() {
		if !seen[s] {
			seen[s] = true
			inits = append(inits, s)
		}
	}
	for _, u := range inits {
		for _, v := range inits {
			total.Add(total, f(u, v))
		}
	}
	return total
}

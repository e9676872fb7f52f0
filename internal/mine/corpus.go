package mine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/spec"
	"tracescale/internal/tbuf"
)

// Options tunes corpus mining.
type Options struct {
	// MinSupport is the number of tag slices a message — and a message
	// pair — must occur in before its statistics are trusted (default 2).
	MinSupport int
	// MinConfidence is the fraction of a pair's co-occurrences that must
	// agree on one order for the pair to count as invariantly ordered,
	// i.e. same-flow. Default 1.0 (strictly invariant); must lie in
	// (0.5, 1] so at most one direction can win.
	MinConfidence float64
	// Workers bounds the goroutines the consistency oracle shards slices
	// across (default GOMAXPROCS). Any worker count mines the same result.
	Workers int
}

func (o Options) withDefaults() (Options, error) {
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.MinSupport < 1 {
		return o, fmt.Errorf("mine: min support %d must be positive", o.MinSupport)
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 1
	}
	if o.MinConfidence <= 0.5 || o.MinConfidence > 1 {
		return o, fmt.Errorf("mine: min confidence %g must be in (0.5, 1]", o.MinConfidence)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// Result is the outcome of mining an interleaved multi-flow corpus.
type Result struct {
	// Flows are the accepted flows in canonical order (ascending first
	// message name). Per flow, Order/Width/Count aggregate every
	// occurrence, Tags counts the slices in which the flow ran to
	// completion, and Skipped the slices holding only a truncation-shaped
	// fragment.
	Flows []*Mined
	// Traces is the number of corpus traces, Slices the number of
	// (trace, tag) transaction slices mined.
	Traces int
	Slices int
	// Truncated counts slices in which at least one accepted flow
	// appeared only as a contiguous fragment.
	Truncated int
	// Shared lists message names dropped because they occurred more than
	// once within some slice: under legal indexing each flow contributes
	// at most one instance per tag, so a repeated name is shared by
	// several flows (like the T2 siincu, carried by both PIOR and Mondo)
	// and cannot be attributed to one. Sorted.
	Shared []string
	// LowSupport lists message names dropped for occurring in fewer than
	// MinSupport slices. Sorted.
	LowSupport []string
	// Splits counts repair steps: messages ejected from a candidate flow
	// whose merged order could not explain every trace.
	Splits int
}

// slice is one transaction slice: the entries of one tag within one trace,
// in capture order. Same-index instances of different flows share a slice
// — that interleaving is exactly what the miner must see through.
type tagSlice struct {
	trace, tag int
	entries    []tbuf.Entry
}

func sliceCorpus(traces [][]tbuf.Entry) []tagSlice {
	var out []tagSlice
	for ti, tr := range traces {
		at := map[int]int{} // tag -> index into out
		for _, e := range tr {
			i, ok := at[e.Msg.Index]
			if !ok {
				i = len(out)
				at[e.Msg.Index] = i
				out = append(out, tagSlice{trace: ti, tag: e.Msg.Index})
			}
			out[i].entries = append(out[i].entries, e)
		}
	}
	return out
}

// Corpus mines a flow set from an interleaved multi-flow trace corpus.
//
// Candidate generation follows the frequent-subsequence style of the flow
// mining literature: traces are cut into per-tag transaction slices, the
// order statistics of every frequent message pair are collected across
// slices (the frequent 2-subsequences), and pairs whose order is invariant
// at MinConfidence are taken as same-flow evidence. Messages are then
// grown greedily into chains: each joins the first candidate flow it is
// order-invariant with in full, and every chain's message order is the
// one the pair statistics dictate.
//
// Interleaving artifacts are pruned by acceptance against trace
// consistency: a candidate flow set survives only if, slice by slice, the
// interleaved product of its completed instances explains the observed
// entries (interleave.Counter in Exact mode — the same pinned counting
// core the reconstruction engine trusts) and every partial projection is a
// truncation-shaped contiguous fragment. When a slice rejects a candidate
// flow, the weakest member is ejected into its own flow and acceptance
// reruns; Splits records how often.
//
// Two censored classes are excluded and reported rather than guessed at:
// names occurring more than once per slice (shared across flows —
// unattributable) and names below MinSupport.
func Corpus(traces [][]tbuf.Entry, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	slices := sliceCorpus(traces)
	if len(slices) == 0 {
		return nil, fmt.Errorf("mine: empty corpus")
	}

	// Per-name statistics and the shared/low-support censors.
	type nameStat struct{ width, count, support int }
	stats := map[string]*nameStat{}
	shared := map[string]bool{}
	for _, sl := range slices {
		perSlice := map[string]int{}
		for _, e := range sl.entries {
			st := stats[e.Msg.Name]
			if st == nil {
				st = &nameStat{}
				stats[e.Msg.Name] = st
			}
			st.count++
			if e.Bits > st.width {
				st.width = e.Bits
			}
			perSlice[e.Msg.Name]++
		}
		for name, k := range perSlice {
			stats[name].support++
			if k > 1 {
				shared[name] = true
			}
		}
	}
	res := &Result{Traces: len(traces), Slices: len(slices)}
	var frequent []string
	for name, st := range stats {
		switch {
		case shared[name]:
			res.Shared = append(res.Shared, name)
		case st.support < opt.MinSupport:
			res.LowSupport = append(res.LowSupport, name)
		default:
			frequent = append(frequent, name)
		}
	}
	sort.Strings(res.Shared)
	sort.Strings(res.LowSupport)
	sort.Strings(frequent)
	if len(frequent) == 0 {
		return nil, fmt.Errorf("mine: no message occurs in %d or more slices (%d shared, %d below support)",
			opt.MinSupport, len(res.Shared), len(res.LowSupport))
	}

	// Pair order statistics: before[i][j] = slices where i preceded j.
	// Frequent names occur at most once per slice, so "preceded" is
	// unambiguous.
	n := len(frequent)
	id := make(map[string]int, n)
	for i, name := range frequent {
		id[name] = i
	}
	before := make([][]int, n)
	for i := range before {
		before[i] = make([]int, n)
	}
	for _, sl := range slices {
		var present []int // ids in temporal order
		for _, e := range sl.entries {
			if i, ok := id[e.Msg.Name]; ok {
				present = append(present, i)
			}
		}
		for a := 0; a < len(present); a++ {
			for b := a + 1; b < len(present); b++ {
				before[present[a]][present[b]]++
			}
		}
	}
	// dir[i][j] = +1 when i invariantly precedes j, -1 when it follows,
	// 0 when the pair is incomparable (cross-flow, or under-supported).
	dir := make([][]int, n)
	for i := range dir {
		dir[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cooc := before[i][j] + before[j][i]
			if cooc < opt.MinSupport {
				continue
			}
			switch {
			case float64(before[i][j]) >= opt.MinConfidence*float64(cooc):
				dir[i][j], dir[j][i] = 1, -1
			case float64(before[j][i]) >= opt.MinConfidence*float64(cooc):
				dir[i][j], dir[j][i] = -1, 1
			}
		}
	}

	// Grow flows greedily: in name order, each message joins the first
	// candidate it is order-comparable with in full.
	var groups [][]int
	for i := 0; i < n; i++ {
		placed := false
		for gi := range groups {
			ok := true
			for _, m := range groups[gi] {
				if dir[m][i] == 0 {
					ok = false
					break
				}
			}
			if ok {
				groups[gi] = append(groups[gi], i)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{i})
		}
	}

	// Order each candidate by its predecessor count. A transitive total
	// order has distinct ranks 0..k-1; a rank collision means the pair
	// directions form a cycle, so the collision's lexicographically last
	// member is ejected into its own flow (appended, so the loop orders
	// it too).
	eject := func(g []int, out int) []int {
		kept := g[:0]
		for _, m := range g {
			if m != out {
				kept = append(kept, m)
			}
		}
		return kept
	}
	for gi := 0; gi < len(groups); gi++ {
		for {
			g := groups[gi]
			rank := make(map[int]int, len(g))
			for _, m := range g {
				r := 0
				for _, o := range g {
					if dir[o][m] == 1 {
						r++
					}
				}
				rank[m] = r
			}
			collision := -1
			seen := make([]int, len(g))
			for i := range seen {
				seen[i] = -1
			}
			for _, m := range g {
				if other := seen[rank[m]]; other >= 0 {
					// Eject the lexicographically last of the colliding pair.
					collision = m
					if frequent[other] > frequent[m] {
						collision = other
					}
					break
				}
				seen[rank[m]] = m
			}
			if collision < 0 {
				byRank := make([]int, len(g))
				for _, m := range g {
					byRank[rank[m]] = m
				}
				groups[gi] = byRank
				break
			}
			groups[gi] = eject(g, collision)
			groups = append(groups, []int{collision})
			res.Splits++
		}
	}

	// Widths the candidate flows are materialized with, per frequent id.
	widths := make([]int, n)
	for i, name := range frequent {
		widths[i] = stats[name].width
		if widths[i] < 1 {
			widths[i] = 1
		}
	}

	// Acceptance against trace consistency, with eject-and-retry repair.
	for {
		verdicts, err := runOracle(slices, groups, frequent, id, widths, opt.Workers)
		if err != nil {
			return nil, err
		}
		bad := -1
		for _, v := range verdicts {
			if v.bad >= 0 {
				bad = v.bad
				break
			}
		}
		if bad < 0 {
			// Accepted: aggregate the per-slice completeness verdicts.
			complete := make([]int, len(groups))
			skipped := make([]int, len(groups))
			for _, v := range verdicts {
				if v.truncated {
					res.Truncated++
				}
				for _, gi := range v.complete {
					complete[gi]++
				}
				for _, gi := range v.partial {
					skipped[gi]++
				}
			}
			for gi, g := range groups {
				m := &Mined{Tags: complete[gi], Skipped: skipped[gi]}
				for _, mid := range g {
					m.Order = append(m.Order, Observation{Name: frequent[mid], Width: widths[mid], Count: stats[frequent[mid]].count})
				}
				res.Flows = append(res.Flows, m)
			}
			sort.Slice(res.Flows, func(i, j int) bool {
				return res.Flows[i].Order[0].Name < res.Flows[j].Order[0].Name
			})
			return res, nil
		}
		g := groups[bad]
		if len(g) == 1 {
			return nil, fmt.Errorf("mine: message %s cannot be explained as a linear flow by the corpus", frequent[g[0]])
		}
		// Eject the member with the least co-occurrence evidence binding
		// it to the rest (ties: lexicographically last), preserving order.
		out, outCooc := -1, 0
		for _, m := range g {
			c := 0
			for _, o := range g {
				if o != m {
					c += before[m][o] + before[o][m]
				}
			}
			if out < 0 || c < outCooc || (c == outCooc && frequent[m] > frequent[out]) {
				out, outCooc = m, c
			}
		}
		groups[bad] = eject(g, out)
		groups = append(groups, []int{out})
		res.Splits++
	}
}

// verdict is one slice's oracle outcome.
type verdict struct {
	bad       int // group index of the first rejected candidate, -1 = consistent
	truncated bool
	complete  []int // group ids whose flow ran to completion in the slice
	partial   []int // group ids present only as a fragment
}

// runOracle checks every slice against the candidate flow set, sharding
// slices across workers. Verdicts are slot-indexed so the outcome is
// byte-deterministic at any worker count.
func runOracle(slices []tagSlice, groups [][]int, frequent []string, id map[string]int,
	widths []int, workers int) ([]verdict, error) {
	// Materialize one chain flow per candidate; widths are pre-clamped to
	// 1 bit because flow validation rejects zero-width messages and
	// hand-fed entries may omit Bits.
	flows := make([]*flow.Flow, len(groups))
	gid := make([]int, len(frequent))   // name id -> group
	grank := make([]int, len(frequent)) // name id -> rank within group
	for gi, g := range groups {
		b := flow.NewBuilder(fmt.Sprintf("candidate%d", gi))
		states := make([]string, len(g)+1)
		for i := range states {
			states[i] = fmt.Sprintf("S%d", i)
		}
		b.States(states...)
		b.Init(states[0])
		b.Stop(states[len(states)-1])
		msgs := make([]string, len(g))
		for i, mid := range g {
			b.Message(flow.Message{Name: frequent[mid], Width: widths[mid]})
			msgs[i] = frequent[mid]
			gid[mid], grank[mid] = gi, i
		}
		b.Chain(states, msgs)
		f, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("mine: candidate flow: %w", err)
		}
		flows[gi] = f
	}

	verdicts := make([]verdict, len(slices))
	errs := make([]error, len(slices))
	if workers > len(slices) {
		workers = len(slices)
	}
	// Workers claim slices off a shared counter; the calling goroutine is
	// one of them.
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(slices); i = int(next.Add(1) - 1) {
			verdicts[i], errs[i] = checkSlice(slices[i], groups, flows, gid, grank, id)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return verdicts, nil
}

// checkSlice classifies each candidate's projection in one slice —
// complete, truncation-shaped fragment, absent, or inconsistent — and
// verifies the completed instances jointly explain the slice via the
// interleaved product's exact path count.
func checkSlice(sl tagSlice, groups [][]int, flows []*flow.Flow, gid, grank []int, id map[string]int) (verdict, error) {
	v := verdict{bad: -1}
	proj := make([][]int, len(groups)) // per group: ranks in temporal order
	for _, e := range sl.entries {
		if mid, ok := id[e.Msg.Name]; ok {
			proj[gid[mid]] = append(proj[gid[mid]], grank[mid])
		}
	}
	for gi, ranks := range proj {
		if len(ranks) == 0 {
			continue
		}
		// The projection must be strictly increasing (chain order) and,
		// when partial, contiguous: wraparound evicts a prefix and
		// end-of-capture cuts a suffix, so anything but an infix is an
		// interleaving artifact, not truncation.
		okOrder := true
		for i := 1; i < len(ranks); i++ {
			if ranks[i] != ranks[i-1]+1 {
				okOrder = false
				break
			}
		}
		if !okOrder {
			if v.bad < 0 || gi < v.bad {
				v.bad = gi
			}
			continue
		}
		if len(ranks) == len(groups[gi]) {
			v.complete = append(v.complete, gi)
		} else {
			v.partial = append(v.partial, gi)
			v.truncated = true
		}
	}
	if v.bad >= 0 || len(v.complete) == 0 {
		return v, nil
	}

	// The shared counting core as the joint gate: the interleaved product
	// of the completed instances must have at least one execution whose
	// traced projection is exactly the observed slice.
	insts := make([]flow.Instance, len(v.complete))
	traced := map[string]bool{}
	for i, gi := range v.complete {
		insts[i] = flow.Instance{Flow: flows[gi], Index: sl.tag}
		for _, m := range flows[gi].Messages() {
			traced[m.Name] = true
		}
	}
	p, err := interleave.New(insts)
	if err != nil {
		return v, fmt.Errorf("mine: slice (trace %d, tag %d): %w", sl.trace, sl.tag, err)
	}
	var observed []flow.IndexedMsg
	for _, e := range sl.entries {
		if traced[e.Msg.Name] {
			observed = append(observed, e.Msg)
		}
	}
	c, err := p.NewCounter(traced, observed, interleave.Exact)
	if err != nil {
		return v, fmt.Errorf("mine: slice (trace %d, tag %d): %w", sl.trace, sl.tag, err)
	}
	if c.Total().Sign() == 0 {
		// Per-candidate projections were consistent, so a joint rejection
		// can only implicate the set as a whole; blame the first completed
		// candidate deterministically.
		v.bad = v.complete[0]
	}
	return v, nil
}

// Materialize builds the mined flows as DAGs. A lone flow is named base;
// several are base0, base1, ... in canonical order.
func (r *Result) Materialize(base string) ([]*flow.Flow, error) {
	out := make([]*flow.Flow, len(r.Flows))
	for i, m := range r.Flows {
		name := base
		if len(r.Flows) > 1 {
			name = fmt.Sprintf("%s%d", base, i)
		}
		f, err := m.Flow(name)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// Scenario materializes the mined flow set as a spec document with
// instances indexes 1..instances per flow — ready for pipeline.Session,
// cmd/tracesel, or the campaign's mined-vs-truth mode.
func (r *Result) Scenario(name string, instances, bufferWidth int) (*spec.Scenario, error) {
	if instances < 1 {
		return nil, fmt.Errorf("mine: instances %d must be positive", instances)
	}
	flows, err := r.Materialize(name)
	if err != nil {
		return nil, err
	}
	var insts []flow.Instance
	for _, f := range flows {
		for k := 1; k <= instances; k++ {
			insts = append(insts, flow.Instance{Flow: f, Index: k})
		}
	}
	return spec.FromFlows(name, flows, insts, bufferWidth), nil
}

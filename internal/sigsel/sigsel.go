// Package sigsel implements the two RTL/gate-level trace-signal selection
// baselines the paper compares against (§5.4, Table 4):
//
//   - SigSeT (Basu-Mishra style): pick flip-flops that maximize state
//     restorability. Implemented as standalone-restoration scoring with a
//     redundancy-aware greedy pass: a candidate already reconstructed by
//     the current selection contributes nothing and is skipped.
//   - PRNet (Ma et al. style): rank nets by PageRank over the signal
//     dependency graph and select the highest-ranked flip-flops.
//
// Both selectors spend a trace-buffer budget of one buffer bit per
// selected flip-flop per cycle.
package sigsel

import (
	"fmt"
	"sort"

	"tracescale/internal/graph"
	"tracescale/internal/netlist"
	"tracescale/internal/restore"
)

// SigSeTConfig parameterizes the SRR-based selector.
type SigSeTConfig struct {
	// Budget is the number of flip-flops to select (buffer bits).
	Budget int
	// Cycles is the sample-trace length used to score restorability
	// (default 48).
	Cycles int
	// Seed drives the sample trace's pseudo-random stimulus.
	Seed int64
	// Restore tunes the restoration engine used for scoring (default:
	// forward propagation plus sequential crossings, like typical SRR
	// tooling).
	Restore restore.Options
}

// SigSeT selects flip-flops by greedy marginal restorability: each round
// adds the flip-flop whose tracing restores the most additional
// state-bits over a sample trace. It uses lazy re-evaluation (restoration
// gain is diminishing in practice), and returns the selected net ids in
// selection order.
func SigSeT(n *netlist.Netlist, cfg SigSeTConfig) ([]int, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("sigsel: non-positive budget %d", cfg.Budget)
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 48
	}
	ffs := n.FFs()
	if len(ffs) == 0 {
		return nil, fmt.Errorf("sigsel: design has no flip-flops")
	}
	trace := netlist.Record(n, cfg.Cycles, cfg.Seed)

	// Initial bounds: standalone restorability of every flip-flop.
	type cand struct {
		id    int
		bound int // stale upper estimate of the marginal gain
	}
	cands := make([]cand, 0, len(ffs))
	for _, ff := range ffs {
		s, err := restore.KnownFFStates(trace, []int{ff}, cfg.Restore)
		if err != nil {
			return nil, err
		}
		cands = append(cands, cand{id: ff, bound: s})
	}
	before := func(a, b cand) bool {
		if a.bound != b.bound {
			return a.bound > b.bound
		}
		return a.id < b.id
	}
	sort.Slice(cands, func(i, j int) bool { return before(cands[i], cands[j]) })

	var selected []int
	current := 0
	budget := cfg.Budget
	if budget > len(cands) {
		budget = len(cands)
	}
	for len(selected) < budget {
		// Lazy greedy: refresh the head's marginal; if it still beats the
		// runner-up's (stale, optimistic) bound, take it.
		fresh, err := restore.KnownFFStates(trace, append(append([]int(nil), selected...), cands[0].id), cfg.Restore)
		if err != nil {
			return nil, err
		}
		cands[0].bound = fresh - current
		if len(cands) == 1 || cands[0].bound >= cands[1].bound {
			selected = append(selected, cands[0].id)
			current = fresh
			cands = cands[1:]
			continue
		}
		// Only the head's bound changed: move it down to its place.
		head := cands[0]
		i := 1 + sort.Search(len(cands)-1, func(j int) bool { return !before(cands[1+j], head) })
		copy(cands, cands[1:i])
		cands[i-1] = head
	}
	return selected, nil
}

// PRNetConfig parameterizes the PageRank-based selector.
type PRNetConfig struct {
	// Budget is the number of flip-flops to select.
	Budget int
	// Options tunes the PageRank iteration.
	Options graph.PageRankOptions
}

// PRNet selects the flip-flops with the highest PageRank over the
// *reversed* signal dependency graph — a net is important when it
// transitively drives a lot of logic (fanout influence), which is how the
// PageRank-based selector values candidate trace signals. It returns the
// selected net ids in rank order.
func PRNet(n *netlist.Netlist, cfg PRNetConfig) ([]int, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("sigsel: non-positive budget %d", cfg.Budget)
	}
	ffs := n.FFs()
	if len(ffs) == 0 {
		return nil, fmt.Errorf("sigsel: design has no flip-flops")
	}
	dep := n.DependencyGraph()
	rev := graph.New(dep.N())
	for u := 0; u < dep.N(); u++ {
		for _, v := range dep.Succ(u) {
			rev.AddEdge(v, u)
		}
	}
	rank := rev.PageRank(cfg.Options)
	order := append([]int(nil), ffs...)
	sort.SliceStable(order, func(i, j int) bool {
		if rank[order[i]] != rank[order[j]] {
			return rank[order[i]] > rank[order[j]]
		}
		return order[i] < order[j]
	})
	if cfg.Budget < len(order) {
		order = order[:cfg.Budget]
	}
	return order, nil
}

// BusStatus classifies how much of a signal bus a selection covers —
// Table 4's check / partial / cross cells.
type BusStatus int

const (
	// None: no bit of the bus selected.
	None BusStatus = iota
	// Partial: some but not all bits selected (Table 4's "P").
	Partial
	// Full: every bit selected.
	Full
)

func (s BusStatus) String() string {
	switch s {
	case None:
		return "✗"
	case Partial:
		return "P"
	case Full:
		return "✓"
	default:
		return "?"
	}
}

// StatusOf reports how much of the named bus the selection covers.
func StatusOf(n *netlist.Netlist, selected []int, bus string) BusStatus {
	ids := n.Bus(bus)
	if len(ids) == 0 {
		return None
	}
	sel := make(map[int]bool, len(selected))
	for _, id := range selected {
		sel[id] = true
	}
	hits := 0
	for _, id := range ids {
		if sel[id] {
			hits++
		}
	}
	switch {
	case hits == 0:
		return None
	case hits == len(ids):
		return Full
	default:
		return Partial
	}
}

// ReconstructionFraction measures how much of the named buses a selection
// can reconstruct: the fraction of bus-bit-cycles known after restoration
// from the selected flip-flops (§5.4's "no more than 26% of required
// interface messages").
func ReconstructionFraction(n *netlist.Netlist, selected []int, buses []string, cycles int, seed int64) (float64, error) {
	trace := netlist.Record(n, cycles, seed)
	res, err := restore.Restore(trace, selected)
	if err != nil {
		return 0, err
	}
	known, total := 0, 0
	for _, b := range buses {
		for _, id := range n.Bus(b) {
			for c := 0; c < trace.Cycles(); c++ {
				total++
				if res.Values[c][id] != restore.X {
					known++
				}
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("sigsel: no bus bits to reconstruct")
	}
	return float64(known) / float64(total), nil
}

// Package restore implements gate-level state restoration, the engine
// behind SRR-based trace-signal selection (Basu-Mishra's SigSeT and
// friends): given the recorded values of a small set of traced flip-flops,
// it reconstructs as many untraced flip-flop values as three-valued
// forward propagation and backward justification allow, across all time
// frames, and reports the State Restoration Ratio.
//
// The engine is word-parallel. Every net holds two uint64 words per 64
// cycles, known and value, one bit per cycle. Each rule is a few bitwise
// operations over a whole word: three-valued forward evaluation per gate
// kind, the flip-flop crossings ff@c = D@(c-1) and D@(c-1) = ff@c as
// one-bit shifts with a carry across words, and optional backward
// justification. A rule fills only bits that are still unknown. Passes
// repeat until no bit changes, and a pass runs only the rules that read a
// net which changed since they last ran. Every rule is sound on a recorded
// trace and monotone, so the result is the unique fixpoint of the rules,
// whatever the evaluation order.
//
// The paper's argument (§5.4) is that maximizing this ratio optimizes for
// the wrong thing at the application level; this package exists so that
// comparison can be reproduced honestly.
package restore

import (
	"fmt"
	"math/bits"

	"tracescale/internal/netlist"
)

// TV is a three-valued logic level.
type TV uint8

const (
	// X is unknown.
	X TV = iota
	// F is logic 0.
	F
	// T is logic 1.
	T
)

func (v TV) String() string {
	switch v {
	case X:
		return "X"
	case F:
		return "0"
	case T:
		return "1"
	default:
		return "?"
	}
}

// Result is a completed restoration.
type Result struct {
	// Values[c][net] is the restored value of every net at cycle c.
	Values [][]TV
	// TracedStates counts traced flip-flop state bits (|traced| × cycles);
	// KnownFFStates counts all flip-flop state bits known after
	// restoration (traced included).
	TracedStates  int
	KnownFFStates int
	// SRR is the State Restoration Ratio: KnownFFStates / TracedStates.
	SRR float64
	// Sweeps is the number of engine passes, the last of which changed
	// nothing. A pass runs the pending rules over every cycle at once, so
	// the count is not comparable with a cycle-by-cycle sweep count.
	Sweeps int
}

// Options tunes the restoration engine.
type Options struct {
	// Backward enables full combinational backward justification. Typical
	// SRR tooling propagates forward across gates and both directions
	// across flip-flops but justifies gate inputs only opportunistically;
	// full backward justification is substantially more powerful (it can
	// decode primary-input streams through XOR relations) and
	// correspondingly more expensive. Off by default.
	Backward bool
}

// Restore reconstructs the design state over the trace's cycles given that
// the flip-flops in traced were recorded every cycle, using the default
// (forward + sequential) engine. Primary inputs are not observable. It
// returns an error if traced contains a non-flip-flop net.
func Restore(t *netlist.Trace, traced []int) (*Result, error) {
	return RestoreWith(t, traced, Options{})
}

// RestoreWith is Restore with explicit engine options.
func RestoreWith(t *netlist.Trace, traced []int, opts Options) (*Result, error) {
	e, err := newEngine(t, traced)
	if err != nil {
		return nil, err
	}
	res := &Result{Sweeps: e.run(opts), TracedStates: e.traced * e.cycles, KnownFFStates: e.knownFFs()}
	res.Values = e.values()
	res.SRR = float64(res.KnownFFStates) / float64(res.TracedStates)
	return res, nil
}

// KnownFFStates is RestoreWith's KnownFFStates alone. It skips building
// Values, so a selector that scores many candidate sets pays only for the
// engine.
func KnownFFStates(t *netlist.Trace, traced []int, opts Options) (int, error) {
	e, err := newEngine(t, traced)
	if err != nil {
		return 0, err
	}
	e.run(opts)
	return e.knownFFs(), nil
}

// engine is one restoration's state. Bit b of word w of a net stands for
// cycle 64w+b; value bits are set only where known bits are.
type engine struct {
	n      *netlist.Netlist
	cycles int
	words  int      // words per net
	last   uint64   // the cycles present in a net's last word
	known  []uint64 // net id's words are known[id*words : (id+1)*words]
	value  []uint64 // laid out like known
	traced int      // distinct traced flip-flops

	// fwd and bwd are bitsets over net ids, the work lists: a set bit means
	// a net read by that net's forward rule (gate evaluation or flip-flop
	// crossing) or backward justification changed since the rule last ran.
	fwd, bwd []uint64
}

// newEngine loads the traced flip-flops' recorded values.
func newEngine(t *netlist.Trace, traced []int) (*engine, error) {
	n := t.Netlist
	cycles := t.Cycles()
	words := (cycles + 63) / 64
	e := &engine{
		n:      n,
		cycles: cycles,
		words:  words,
		last:   ^uint64(0),
	}
	state := make([]uint64, 2*n.N()*words)
	e.known, e.value = state[:n.N()*words], state[n.N()*words:]
	if r := cycles % 64; r != 0 {
		e.last = 1<<r - 1
	}
	for _, id := range traced {
		if id < 0 || id >= n.N() {
			return nil, fmt.Errorf("restore: traced net %d out of range", id)
		}
		if n.Gate(id).Kind != netlist.DFF {
			return nil, fmt.Errorf("restore: traced net %q is not a flip-flop", n.Name(id))
		}
		base := id * words
		if words > 0 && e.known[base]&1 != 0 {
			continue // listed twice
		}
		e.traced++
		for c := 0; c < cycles; c++ {
			bit := uint64(1) << (c % 64)
			e.known[base+c/64] |= bit
			if t.Values[c][id] {
				e.value[base+c/64] |= bit
			}
		}
	}
	if e.traced*cycles == 0 {
		return nil, fmt.Errorf("restore: no traced flip-flops")
	}
	return e, nil
}

// run applies the rules until a pass changes no bit, and returns the
// number of passes. A pass runs every pending forward rule in ascending
// net order, which is topological for combinational gates (a gate reads
// only nets declared before it), then every pending justification in
// descending order. A rule is pending only if a net it reads changed since
// it last ran; every rule is pending at the start.
func (e *engine) run(opts Options) int {
	m := (e.n.N() + 63) / 64
	lists := make([]uint64, 2*m)
	e.fwd, e.bwd = lists[:m], lists[m:]
	for id := 0; id < e.n.N(); id++ {
		pend(e.fwd, id)
		pend(e.bwd, id)
	}
	for pass := 1; ; pass++ {
		changed := false
		for i := range e.fwd {
			for e.fwd[i] != 0 {
				b := bits.TrailingZeros64(e.fwd[i])
				e.fwd[i] &^= 1 << b
				switch id := i*64 + b; e.n.Gate(id).Kind {
				case netlist.Input:
				case netlist.DFF:
					changed = e.crossing(id) || changed
				default:
					changed = e.forward(id) || changed
				}
			}
		}
		if opts.Backward {
			for i := m - 1; i >= 0; i-- {
				for e.bwd[i] != 0 {
					b := 63 - bits.LeadingZeros64(e.bwd[i])
					e.bwd[i] &^= 1 << b
					changed = e.backward(i*64+b) || changed
				}
			}
		}
		if !changed {
			return pass
		}
	}
}

// full is the mask of the cycles present in word w.
func (e *engine) full(w int) uint64 {
	if w == e.words-1 {
		return e.last
	}
	return ^uint64(0)
}

func (e *engine) word(id, w int) (known, value uint64) {
	i := id*e.words + w
	return e.known[i], e.value[i]
}

// learn sets net id's value to v on the bits of k that are still unknown
// in word w, and reports whether any bit was new.
func (e *engine) learn(id, w int, k, v uint64) bool {
	i := id*e.words + w
	newly := k & e.full(w) &^ e.known[i]
	if newly == 0 {
		return false
	}
	e.known[i] |= newly
	e.value[i] |= v & newly
	// The rules that read the net are pending again: its readers', its own
	// justification, and its own crossing if it is a flip-flop.
	if e.n.Gate(id).Kind == netlist.DFF {
		pend(e.fwd, id)
	}
	pend(e.bwd, id)
	for _, r := range e.n.Fanout(id) {
		pend(e.fwd, r)
		pend(e.bwd, r)
	}
	return true
}

// pend adds net id to a work list.
func pend(list []uint64, id int) { list[id/64] |= 1 << (id % 64) }

// forward evaluates a combinational gate in three-valued logic.
func (e *engine) forward(id int) bool {
	g := e.n.Gate(id)
	changed := false
	for w := 0; w < e.words; w++ {
		if e.known[id*e.words+w] == e.full(w) {
			continue
		}
		var k, v uint64
		switch g.Kind {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			// The output is known where some input is known at the
			// controlling value, or every input at the other one.
			nc := nonControlling(g.Kind)
			anyC, allNC := uint64(0), ^uint64(0)
			for _, u := range g.Ins {
				ku, vu := e.word(u, w)
				anyC |= ku & (vu ^ nc)
				allNC &= ku &^ (vu ^ nc)
			}
			k = anyC | allNC
			switch g.Kind {
			case netlist.And, netlist.Nor:
				v = allNC
			default:
				v = anyC
			}
		case netlist.Xor:
			k = ^uint64(0)
			for _, u := range g.Ins {
				ku, vu := e.word(u, w)
				k &= ku
				v ^= vu
			}
		case netlist.Not:
			ku, vu := e.word(g.Ins[0], w)
			k, v = ku, ku&^vu
		case netlist.Buf:
			k, v = e.word(g.Ins[0], w)
		case netlist.Const0:
			k = ^uint64(0)
		case netlist.Const1:
			k, v = ^uint64(0), ^uint64(0)
		}
		changed = e.learn(id, w, k, v) || changed
	}
	return changed
}

// crossing applies ff@c = D@(c-1), a one-bit shift of the data input's
// words towards later cycles, and D@(c-1) = ff@c, the shift back.
func (e *engine) crossing(ff int) bool {
	d := e.n.Gate(ff).Ins[0]
	changed := false
	for w := 0; w < e.words; w++ {
		k, v := e.word(d, w)
		k, v = k<<1, v<<1
		if w > 0 {
			pk, pv := e.word(d, w-1)
			k, v = k|pk>>63, v|pv>>63
		}
		changed = e.learn(ff, w, k, v) || changed
	}
	for w := 0; w < e.words; w++ {
		k, v := e.word(ff, w)
		k, v = k>>1, v>>1
		if w+1 < e.words {
			nk, nv := e.word(ff, w+1)
			k, v = k|nk<<63, v|nv<<63
		}
		changed = e.learn(d, w, k, v) || changed
	}
	return changed
}

// backward justifies a combinational gate's inputs from its known output.
func (e *engine) backward(id int) bool {
	g := e.n.Gate(id)
	changed := false
	for w := 0; w < e.words; w++ {
		ko, vo := e.word(id, w)
		if ko == 0 {
			continue
		}
		switch g.Kind {
		case netlist.Buf:
			changed = e.learn(g.Ins[0], w, ko, vo) || changed
		case netlist.Not:
			changed = e.learn(g.Ins[0], w, ko, ko&^vo) || changed
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			nc := nonControlling(g.Kind)
			raw := vo // the AND's or OR's value before inversion
			if g.Kind == netlist.Nand || g.Kind == netlist.Nor {
				raw = ko &^ vo
			}
			all := ko &^ (raw ^ nc) // where raw is nc: every input is nc
			changed = e.justify(g.Ins, w, all, ko&^all, nc) || changed
		case netlist.Xor:
			// Where exactly one input is unknown, it is the output's
			// parity with every known input.
			var one, two uint64
			acc := vo
			for _, u := range g.Ins {
				ku, vu := e.word(u, w)
				two |= one &^ ku
				one |= ^ku
				acc ^= vu
			}
			single := ko & one &^ two
			if single == 0 {
				continue
			}
			for _, u := range g.Ins {
				changed = e.learn(u, w, single, acc) || changed
			}
		}
	}
	return changed
}

// nonControlling is, as a word, the input value that does not decide an
// AND/NAND (1) or OR/NOR (0) gate's output.
func nonControlling(k netlist.Kind) uint64 {
	if k == netlist.And || k == netlist.Nand {
		return ^uint64(0)
	}
	return 0
}

// justify learns an AND/OR's inputs from its output. nc is the
// non-controlling value as a word. On the all bits (AND output 1, OR
// output 0) every input is nc. On the ctl bits (AND output 0, OR output
// 1), where exactly one input is unknown and every other input is nc, the
// unknown one holds the controlling value.
func (e *engine) justify(ins []int, w int, all, ctl, nc uint64) bool {
	changed := false
	if all != 0 {
		for _, u := range ins {
			changed = e.learn(u, w, all, nc) || changed
		}
	}
	if ctl == 0 {
		return changed
	}
	var one, two, controlled uint64
	for _, u := range ins {
		ku, vu := e.word(u, w)
		two |= one &^ ku
		one |= ^ku
		controlled |= ku & (vu ^ nc)
	}
	single := ctl & one &^ two &^ controlled
	if single == 0 {
		return changed
	}
	for _, u := range ins {
		changed = e.learn(u, w, single, ^nc) || changed
	}
	return changed
}

// knownFFs counts the known flip-flop state bits.
func (e *engine) knownFFs() int {
	known := 0
	for _, ff := range e.n.FFs() {
		for _, k := range e.known[ff*e.words : (ff+1)*e.words] {
			known += bits.OnesCount64(k)
		}
	}
	return known
}

// values expands the words into Values[c][net].
func (e *engine) values() [][]TV {
	n := e.n.N()
	flat := make([]TV, e.cycles*n)
	vals := make([][]TV, e.cycles)
	for c := range vals {
		vals[c] = flat[c*n : (c+1)*n : (c+1)*n]
	}
	for id := 0; id < n; id++ {
		for w := 0; w < e.words; w++ {
			k, v := e.word(id, w)
			for ; k != 0; k &= k - 1 {
				b := bits.TrailingZeros64(k)
				tv := F
				if v>>b&1 != 0 {
					tv = T
				}
				vals[w*64+b][id] = tv
			}
		}
	}
	return vals
}

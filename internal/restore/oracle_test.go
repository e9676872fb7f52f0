package restore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tracescale/internal/circuits"
	"tracescale/internal/netlist"
	"tracescale/internal/usb"
)

// oracleCycles cross the engine's word boundaries: one bit, a partial
// word, the default 48-cycle trace, both sides of 64, and three words.
var oracleCycles = []int{1, 2, 32, 48, 63, 64, 65, 130}

// TestWordEngineMatchesScalarOracle compares the word-parallel engine with
// the scalar one on the USB design, on generated circuits of 64, 256 and
// 1024 flip-flops, and on allKinds, under both Options settings. At every
// cycle count in oracleCycles the traced sets are 20 seeded random subsets
// of each design and all of its flip-flops. Every USB singleton, the sets
// SigSeT scores first, runs at 48 cycles (SigSeT's default, one partial
// word) and at 65 (a carry into a second word); the scalar oracle is too
// slow to run all 496 at every cycle count.
//
// Both engines are compared at the rules' fixpoint. Forward-only, the
// oracle converges inside the replaced engine's 64-sweep cap in every
// case, so the word engine's output equals the replaced engine's. With
// backward justification a few traced sets reach the 64-sweep cap:
// there the replaced engine stopped short of the fixpoint, and the oracle
// is rerun without the cap. Those cases are counted and logged.
func TestWordEngineMatchesScalarOracle(t *testing.T) {
	type design struct {
		name       string
		n          *netlist.Netlist
		singletons bool
	}
	designs := []design{{name: "usb", n: usb.Design(), singletons: true}, {name: "allkinds", n: allKinds(t)}}
	for _, ffs := range []int{64, 256, 1024} {
		n, err := circuits.Generate(circuits.Params{FFs: ffs, ShiftFraction: 0.5}, rand.New(rand.NewSource(int64(ffs))))
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{name: fmt.Sprintf("gen%d", ffs), n: n})
	}
	for _, d := range designs {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			ffs := d.n.FFs()
			var sets [][]int
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 20; i++ {
				set := make([]int, 2+rng.Intn(15))
				for j := range set {
					set[j] = ffs[rng.Intn(len(ffs))]
				}
				sets = append(sets, set)
			}
			sets = append(sets, ffs)
			capped := 0
			for _, cycles := range oracleCycles {
				tr := netlist.Record(d.n, cycles, int64(cycles))
				cases := sets
				if d.singletons && (cycles == 48 || cycles == 65) {
					cases = append([][]int(nil), sets...)
					for _, ff := range ffs {
						cases = append(cases, []int{ff})
					}
				}
				for _, opts := range []Options{{}, {Backward: true}} {
					for _, set := range cases {
						label := fmt.Sprintf("cycles=%d backward=%v traced=%v", cycles, opts.Backward, set)
						if compareWithOracle(t, label, tr, set, opts) {
							capped++
						}
					}
				}
			}
			t.Logf("%d backward restorations reached the oracle's 64-sweep cap", capped)
		})
	}
}

// allKinds is a small feedback design with every gate kind, including the
// Buf and Const0 gates the other designs lack and an AND that reads one
// net on two pins.
func allKinds(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder()
	in0, in1 := b.Input("in0"), b.Input("in1")
	q := make([]int, 8)
	for i := range q {
		q[i] = b.DFF(fmt.Sprintf("q%d", i))
	}
	zero, one := b.Gate("zero", netlist.Const0), b.Gate("one", netlist.Const1)
	gates := []int{
		b.Gate("and", netlist.And, q[0], in0, q[1]),
		b.Gate("nand", netlist.Nand, q[1], in1),
		b.Gate("or", netlist.Or, q[2], in0),
		b.Gate("nor", netlist.Nor, q[3], in1, zero),
		b.Gate("xor", netlist.Xor, q[4], in0, in1),
		b.Gate("not", netlist.Not, q[5]),
		b.Gate("buf", netlist.Buf, in1),
		b.Gate("dup", netlist.And, q[6], q[6], one),
	}
	for i := range q {
		b.Connect(q[i], gates[(i+1)%len(gates)])
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// compareWithOracle checks one restoration against the scalar oracle's
// fixpoint and reports whether the oracle reached the 64-sweep cap.
func compareWithOracle(t *testing.T, label string, tr *netlist.Trace, traced []int, opts Options) bool {
	t.Helper()
	want, err := scalarRestore(tr, traced, opts, 64)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	capped := want.Sweeps == 64
	if capped {
		if !opts.Backward {
			t.Fatalf("%s: forward-only oracle hit the 64-sweep cap", label)
		}
		const uncapped = 1 << 16
		if want, err = scalarRestore(tr, traced, opts, uncapped); err != nil || want.Sweeps == uncapped {
			t.Fatalf("%s: oracle did not converge: %v", label, err)
		}
	}
	got, err := RestoreWith(tr, traced, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.TracedStates != want.TracedStates || got.KnownFFStates != want.KnownFFStates || got.SRR != want.SRR {
		t.Fatalf("%s: traced/known/SRR = %d/%d/%g, oracle %d/%d/%g", label,
			got.TracedStates, got.KnownFFStates, got.SRR, want.TracedStates, want.KnownFFStates, want.SRR)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		for c := range want.Values {
			for id, v := range want.Values[c] {
				if got.Values[c][id] != v {
					t.Fatalf("%s: net %s cycle %d = %v, oracle %v", label, tr.Netlist.Name(id), c, got.Values[c][id], v)
				}
			}
		}
		t.Fatalf("%s: Values differ in shape", label)
	}
	known, err := KnownFFStates(tr, traced, opts)
	if err != nil || known != want.KnownFFStates {
		t.Fatalf("%s: KnownFFStates = %d, %v; oracle %d", label, known, err, want.KnownFFStates)
	}
	return capped
}

func scalarBool(b bool) TV {
	if b {
		return T
	}
	return F
}

// scalarRestore is the scalar engine the word-parallel one replaced, kept
// as the differential oracle: it sweeps every (cycle, net) pair in order,
// up to maxSweeps times, on one TV per net per cycle. The replaced engine
// ran it with maxSweeps = 64.
func scalarRestore(t *netlist.Trace, traced []int, opts Options, maxSweeps int) (*Result, error) {
	n := t.Netlist
	isFF := make(map[int]bool, len(n.FFs()))
	for _, ff := range n.FFs() {
		isFF[ff] = true
	}
	tracedSet := make(map[int]bool, len(traced))
	for _, id := range traced {
		if !isFF[id] {
			return nil, fmt.Errorf("restore: traced net %q is not a flip-flop", n.Name(id))
		}
		tracedSet[id] = true
	}

	cycles := t.Cycles()
	vals := make([][]TV, cycles)
	for c := range vals {
		vals[c] = make([]TV, n.N())
		for id := range tracedSet {
			vals[c][id] = scalarBool(t.Values[c][id])
		}
	}

	res := &Result{Values: vals, TracedStates: len(tracedSet) * cycles}
	if res.TracedStates == 0 {
		return nil, fmt.Errorf("restore: no traced flip-flops")
	}

	set := func(c, id int, v TV) bool {
		if v == X || vals[c][id] != X {
			return false
		}
		vals[c][id] = v
		return true
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for c := 0; c < cycles; c++ {
			for id := 0; id < n.N(); id++ {
				g := n.Gate(id)
				switch g.Kind {
				case netlist.Input:
					// Unobservable.
				case netlist.DFF:
					// Sequential forward: ff@c = D@(c-1).
					if c > 0 && set(c, id, vals[c-1][g.Ins[0]]) {
						changed = true
					}
					// Sequential backward: D@(c-1) = ff@c.
					if c > 0 && set(c-1, g.Ins[0], vals[c][id]) {
						changed = true
					}
				default:
					if set(c, id, scalarForward(g, vals[c])) {
						changed = true
					}
					if opts.Backward && scalarBackward(g, vals[c], id) {
						changed = true
					}
				}
			}
		}
		res.Sweeps = sweep + 1
		if !changed {
			break
		}
	}

	for c := 0; c < cycles; c++ {
		for _, ff := range n.FFs() {
			if vals[c][ff] != X {
				res.KnownFFStates++
			}
		}
	}
	res.SRR = float64(res.KnownFFStates) / float64(res.TracedStates)
	return res, nil
}

// scalarForward evaluates a combinational gate in three-valued logic.
func scalarForward(g netlist.Gate, row []TV) TV {
	switch g.Kind {
	case netlist.And, netlist.Nand:
		out := T
		for _, u := range g.Ins {
			switch row[u] {
			case F:
				out = F // a single 0 dominates regardless of Xs
			case X:
				if out == T {
					out = X
				}
			}
		}
		if out == X {
			return X
		}
		return invertIf(g.Kind == netlist.Nand, out)
	case netlist.Or, netlist.Nor:
		out := F
		for _, u := range g.Ins {
			switch row[u] {
			case T:
				return invertIf(g.Kind == netlist.Nor, T)
			case X:
				out = X
			}
		}
		if out == X {
			return X
		}
		return invertIf(g.Kind == netlist.Nor, F)
	case netlist.Xor:
		out := F
		for _, u := range g.Ins {
			switch row[u] {
			case X:
				return X
			case T:
				out = invert(out)
			}
		}
		return out
	case netlist.Not:
		return invert(row[g.Ins[0]])
	case netlist.Buf:
		return row[g.Ins[0]]
	case netlist.Const0:
		return F
	case netlist.Const1:
		return T
	default:
		return X
	}
}

func invert(v TV) TV {
	switch v {
	case F:
		return T
	case T:
		return F
	default:
		return X
	}
}

func invertIf(cond bool, v TV) TV {
	if cond {
		return invert(v)
	}
	return v
}

// scalarBackward justifies a combinational gate's inputs from a known output.
// It returns true if any input value was learned.
func scalarBackward(g netlist.Gate, row []TV, out int) bool {
	o := row[out]
	if o == X {
		return false
	}
	learn := func(id int, v TV) bool {
		if row[id] == X {
			row[id] = v
			return true
		}
		return false
	}
	switch g.Kind {
	case netlist.Buf:
		return learn(g.Ins[0], o)
	case netlist.Not:
		return learn(g.Ins[0], invert(o))
	case netlist.And, netlist.Nand:
		eff := invertIf(g.Kind == netlist.Nand, o)
		if eff == T {
			// All inputs must be 1.
			changed := false
			for _, u := range g.Ins {
				changed = learn(u, T) || changed
			}
			return changed
		}
		// Output 0: if exactly one input unknown and the rest 1, it is 0.
		return scalarJustifySingle(g.Ins, row, T, F)
	case netlist.Or, netlist.Nor:
		eff := invertIf(g.Kind == netlist.Nor, o)
		if eff == F {
			changed := false
			for _, u := range g.Ins {
				changed = learn(u, F) || changed
			}
			return changed
		}
		return scalarJustifySingle(g.Ins, row, F, T)
	case netlist.Xor:
		// If all but one input known, the unknown is determined.
		unknown := -1
		acc := o
		for _, u := range g.Ins {
			switch row[u] {
			case X:
				if unknown >= 0 {
					return false
				}
				unknown = u
			case T:
				acc = invert(acc)
			}
		}
		if unknown < 0 {
			return false
		}
		return learn(unknown, acc)
	default:
		return false
	}
}

// scalarJustifySingle: if exactly one input is X and every other input equals
// others, the unknown input must be forced (for AND-0 / OR-1 side cases).
func scalarJustifySingle(ins []int, row []TV, others, forced TV) bool {
	unknown := -1
	for _, u := range ins {
		switch row[u] {
		case X:
			if unknown >= 0 {
				return false
			}
			unknown = u
		case others:
			// consistent
		default:
			return false // output already explained by this input
		}
	}
	if unknown < 0 {
		return false
	}
	row[unknown] = forced
	return true
}

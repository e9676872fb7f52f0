// Package netlist provides the gate-level substrate the RTL-level baseline
// signal-selection methods (SigSeT, PRNet) operate on: a synchronous
// netlist of combinational gates and D flip-flops, cycle-accurate
// two-valued simulation, and the structural queries (dependency graph,
// fanin/fanout) the selectors need. The application-level method never
// looks at this layer — that contrast is the point of the paper's §5.4.
package netlist

import (
	"fmt"
	"sort"

	"tracescale/internal/graph"
)

// Kind is a net's driver type.
type Kind int

const (
	// Input is a primary input.
	Input Kind = iota
	// DFF is a D flip-flop: its value is the sampled previous-cycle value
	// of its single data input.
	DFF
	// And, Or, Xor, Nand, Nor are multi-input gates; Not and Buf are
	// single-input.
	And
	Or
	Xor
	Nand
	Nor
	Not
	Buf
	// Const0 and Const1 are tie-offs.
	Const0
	Const1
)

func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case DFF:
		return "dff"
	case And:
		return "and"
	case Or:
		return "or"
	case Xor:
		return "xor"
	case Nand:
		return "nand"
	case Nor:
		return "nor"
	case Not:
		return "not"
	case Buf:
		return "buf"
	case Const0:
		return "const0"
	case Const1:
		return "const1"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Gate is one net with its driver.
type Gate struct {
	Kind Kind
	Ins  []int
}

// Netlist is an immutable synchronous gate-level design. Build one with a
// Builder.
type Netlist struct {
	names  []string
	byName map[string]int
	gates  []Gate
	ffs    []int // DFF net ids, ascending
	inputs []int // primary input net ids, ascending
	order  []int // combinational evaluation order (non-FF, non-input nets)
	// Fanout index: the nets whose gates read net id are
	// fanout[fanStart[id]:fanStart[id+1]].
	fanout   []int
	fanStart []int
	module   map[int]string
	buses    map[string][]int
}

// N returns the number of nets.
func (n *Netlist) N() int { return len(n.gates) }

// Name returns the net's name.
func (n *Netlist) Name(id int) string { return n.names[id] }

// NetID returns the id of the named net.
func (n *Netlist) NetID(name string) (int, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// Gate returns the driver of net id.
func (n *Netlist) Gate(id int) Gate { return n.gates[id] }

// FFs returns the flip-flop net ids. The slice must not be modified.
func (n *Netlist) FFs() []int { return n.ffs }

// Inputs returns the primary input net ids. The slice must not be
// modified.
func (n *Netlist) Inputs() []int { return n.inputs }

// Fanout returns the nets whose gates read net id (combinational gates and
// flip-flop data pins), ascending; a gate that reads id on two pins is
// listed twice. The slice must not be modified.
func (n *Netlist) Fanout(id int) []int { return n.fanout[n.fanStart[id]:n.fanStart[id+1]] }

// Module returns the module a net was declared in ("" when untagged).
func (n *Netlist) Module(id int) string { return n.module[id] }

// Bus returns the ordered flip-flop ids registered under a bus name
// (LSB first), or nil.
func (n *Netlist) Bus(name string) []int { return n.buses[name] }

// Buses returns all bus names, sorted.
func (n *Netlist) Buses() []string {
	out := make([]string, 0, len(n.buses))
	for b := range n.buses {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// DependencyGraph returns the directed net dependency graph: an edge u->v
// when u drives gate v (through combinational logic or a flip-flop's data
// pin). PRNet ranks nets over this graph.
func (n *Netlist) DependencyGraph() *graph.Directed {
	g := graph.New(n.N())
	for v, gate := range n.gates {
		for _, u := range gate.Ins {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Builder incrementally constructs a Netlist.
type Builder struct {
	n      *Netlist
	module string
	errs   []error
}

// NewBuilder returns an empty netlist builder.
func NewBuilder() *Builder {
	return &Builder{n: &Netlist{
		byName: make(map[string]int),
		module: make(map[int]string),
		buses:  make(map[string][]int),
	}}
}

// SetModule tags subsequently declared nets with a module name.
func (b *Builder) SetModule(name string) { b.module = name }

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("netlist: "+format, args...))
}

func (b *Builder) add(name string, g Gate) int {
	if name == "" {
		b.errorf("empty net name")
		return -1
	}
	if _, dup := b.n.byName[name]; dup {
		b.errorf("duplicate net %q", name)
		return b.n.byName[name]
	}
	id := len(b.n.gates)
	b.n.names = append(b.n.names, name)
	b.n.byName[name] = id
	b.n.gates = append(b.n.gates, g)
	if b.module != "" {
		b.n.module[id] = b.module
	}
	return id
}

// Input declares a primary input net.
func (b *Builder) Input(name string) int { return b.add(name, Gate{Kind: Input}) }

// DFF declares a flip-flop net; its data input is connected later with
// Connect (allowing feedback through registers).
func (b *Builder) DFF(name string) int { return b.add(name, Gate{Kind: DFF}) }

// Connect wires a flip-flop's data input.
func (b *Builder) Connect(ff, d int) {
	if ff < 0 || ff >= len(b.n.gates) || b.n.gates[ff].Kind != DFF {
		b.errorf("Connect target %d is not a DFF", ff)
		return
	}
	if len(b.n.gates[ff].Ins) != 0 {
		b.errorf("DFF %q already connected", b.n.names[ff])
		return
	}
	if d < 0 || d >= len(b.n.gates) {
		b.errorf("Connect source %d out of range", d)
		return
	}
	b.n.gates[ff].Ins = []int{d}
}

// Gate declares a combinational gate.
func (b *Builder) Gate(name string, kind Kind, ins ...int) int {
	switch kind {
	case And, Or, Xor, Nand, Nor:
		if len(ins) < 2 {
			b.errorf("gate %q (%v) needs >= 2 inputs", name, kind)
			return -1
		}
	case Not, Buf:
		if len(ins) != 1 {
			b.errorf("gate %q (%v) needs exactly 1 input", name, kind)
			return -1
		}
	case Const0, Const1:
		if len(ins) != 0 {
			b.errorf("constant %q takes no inputs", name)
			return -1
		}
	default:
		b.errorf("gate %q has non-combinational kind %v", name, kind)
		return -1
	}
	for _, in := range ins {
		if in < 0 || in >= len(b.n.gates) {
			b.errorf("gate %q input %d out of range", name, in)
			return -1
		}
	}
	return b.add(name, Gate{Kind: kind, Ins: ins})
}

// Bus registers an ordered group of flip-flops under a name (LSB first) —
// the signal buses Table 4 compares (rx_data, token_pid_sel, ...).
func (b *Builder) Bus(name string, ffs []int) {
	if len(ffs) == 0 {
		b.errorf("bus %q is empty", name)
		return
	}
	if _, dup := b.n.buses[name]; dup {
		b.errorf("duplicate bus %q", name)
		return
	}
	for _, id := range ffs {
		if id < 0 || id >= len(b.n.gates) || b.n.gates[id].Kind != DFF {
			b.errorf("bus %q member %d is not a DFF", name, id)
			return
		}
	}
	b.n.buses[name] = append([]int(nil), ffs...)
}

// Build validates the netlist: every DFF connected, and the combinational
// part (everything except FF data-input crossings) acyclic.
func (b *Builder) Build() (*Netlist, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := b.n
	comb := graph.New(n.N())
	for v, gate := range n.gates {
		switch gate.Kind {
		case DFF:
			if len(gate.Ins) != 1 {
				return nil, fmt.Errorf("netlist: DFF %q has no data input", n.names[v])
			}
			n.ffs = append(n.ffs, v)
		case Input:
			n.inputs = append(n.inputs, v)
		default:
			for _, u := range gate.Ins {
				comb.AddEdge(u, v) // combinational dependency
			}
		}
	}
	order, err := comb.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("netlist: combinational cycle detected")
	}
	for _, v := range order {
		k := n.gates[v].Kind
		if k != DFF && k != Input {
			n.order = append(n.order, v)
		}
	}
	n.fanStart = make([]int, n.N()+1)
	for _, gate := range n.gates {
		for _, u := range gate.Ins {
			n.fanStart[u]++
		}
	}
	for id := 1; id <= n.N(); id++ {
		n.fanStart[id] += n.fanStart[id-1]
	}
	n.fanout = make([]int, n.fanStart[n.N()])
	for v := n.N() - 1; v >= 0; v-- {
		for _, u := range n.gates[v].Ins {
			n.fanStart[u]--
			n.fanout[n.fanStart[u]] = v
		}
	}
	built := n
	b.n = nil
	return built, nil
}

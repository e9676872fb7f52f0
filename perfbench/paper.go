package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"tracescale/internal/exp"
	"tracescale/internal/obs"
	"tracescale/internal/pipeline"
	"tracescale/internal/sigsel"
	"tracescale/internal/usb"
)

// paperSeeds are the experiment seeds one paper-all pass renders. The
// cost of `paperbench -all` depends on the seed: two of seeds 201–210
// allocated 10% more than the rest and ran 20% longer on a 2-core host. Every run therefore
// renders the same pool, and the workload seed only rotates the order.
// Seed 1 is paperbench's default.
var paperSeeds = []int64{1, 2, 3, 4}

// paperWorkload is `paperbench -all -seed <s>`: every table and figure
// rendered through the exp.Render* functions into a buffer. Caches start
// empty: each op installs a fresh pipeline.Default and obs.Default, so it
// pays what a fresh paperbench process pays.
func paperWorkload() workload {
	return workload{name: "paper-all", clients: 1, setup: func(seed int64, _ time.Duration) (runner, error) {
		// Warm-up: the session-backed T2 renders at a seed outside the
		// pool, into a cache no op uses, so the first timed op does not
		// pay for heap growth.
		obs.Default = obs.NewRegistry()
		pipeline.Default = pipeline.NewCacheObs(obs.Default, 0)
		for _, e := range paperEntries(0) {
			if e.name != "exp.table4" {
				if err := e.render(io.Discard); err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", e.name, err)
				}
			}
		}
		return &paperRunner{seed: seed, counts: newCountBook(), digests: newDigestBook(),
			reports: make(map[int64]string)}, nil
	}}
}

// paperEntry is one of paperbench -all's renders.
type paperEntry struct {
	name   string
	render func(io.Writer) error
}

// paperEntries are paperbench -all's renders, in its order.
func paperEntries(seed int64) []paperEntry {
	return []paperEntry{
		{"exp.table1", exp.RenderTable1},
		{"exp.table2", func(w io.Writer) error { exp.RenderTable2(w); return nil }},
		{"exp.table3", func(w io.Writer) error { return exp.RenderTable3(w, seed) }},
		{"exp.table4", func(w io.Writer) error { return exp.RenderTable4(w, seed) }},
		{"exp.table5", func(w io.Writer) error { return exp.RenderTable5(w, seed) }},
		{"exp.table6", func(w io.Writer) error { return exp.RenderTable6(w, seed) }},
		{"exp.table7", func(w io.Writer) error { return exp.RenderTable7(w, 1) }},
		{"exp.fig5", exp.RenderFig5},
		{"exp.fig6", func(w io.Writer) error { return exp.RenderFig6(w, seed) }},
		{"exp.fig7", func(w io.Writer) error { return exp.RenderFig7(w, seed) }},
	}
}

type paperRunner struct {
	seed    int64
	counts  *countBook
	digests *digestBook
	mu      sync.Mutex
	reports map[int64]string // the first report rendered per experiment seed
}

func (r *paperRunner) pass() int     { return len(paperSeeds) }
func (r *paperRunner) close()        {}
func (r *paperRunner) settle() error { return nil }

func (r *paperRunner) op(i int, tr *tracer, root int) (string, time.Duration, error) {
	return timeOp(func() (string, error) { return r.runOp(i, tr, root) })
}

func (r *paperRunner) runOp(i int, tr *tracer, root int) (string, error) {
	in := rotate(i, r.seed, len(paperSeeds))
	seed := paperSeeds[in]
	// The exp harness memoizes sessions in the process-wide
	// pipeline.Default cache and records into the process-wide obs.Default,
	// whose run-trace sink keeps events up to a cap. Fresh ones per op keep
	// every op cold, as in a fresh paperbench process, and keep the sink
	// from growing with the ops a run completes.
	obs.Default = obs.NewRegistry()
	pipeline.Default = pipeline.NewCacheObs(obs.Default, 0)
	var buf bytes.Buffer
	for _, e := range paperEntries(seed) {
		sp := tr.start(e.name, i, root)
		err := e.render(&buf)
		sp.end()
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.name, err)
		}
	}
	got := obs.Default.Snapshot()
	if err := r.digests.check(fmt.Sprintf("seed %d", seed), buf.Bytes()); err != nil {
		return "", err
	}
	r.mu.Lock()
	if _, ok := r.reports[seed]; !ok {
		r.reports[seed] = buf.String()
	}
	r.mu.Unlock()
	return "", r.counts.record(in, map[string]float64{
		"soc.runs":   float64(got["soc.runs"]),
		"soc.cycles": float64(got["soc.cycles"]),
	})
}

func (r *paperRunner) layers(total map[string]time.Duration, ops int) (map[string]float64, error) {
	m := r.counts.mean()
	for _, e := range paperEntries(0) {
		m[e.name+"_ms"] = spanMs(total, e.name, ops)
	}
	// Table 4's gate-level baselines, called by the benchmark in
	// exp.Table4's order outside the timed ops, once per seed of the pool,
	// so SigSeT's restoration engine gets its own spans; each seed's
	// output is checked against the Table 4 its ops rendered.
	tr := newTracer()
	for _, seed := range paperSeeds {
		if err := table4Calls(seed, tr, r.reports[seed]); err != nil {
			return m, fmt.Errorf("table 4 attribution, seed %d: %w", seed, err)
		}
	}
	st, _ := layerTimes(tr.snapshot())
	for _, l := range []string{"sigsel.sigset", "sigsel.prnet", "sigsel.reconstruction"} {
		m[l+"_ms"] = spanMs(st, l, len(paperSeeds))
	}
	// The sigsel calls run inside exp.Table4, whose only other work is an
	// application-level selection on a two-flow USB interleaving, so Table
	// 4's share of the ops stands for theirs. Dividing the separate calls'
	// time by the ops' would compare runs minutes apart on a noisy host.
	m["bench.dominant_layer_pct"] = dominantPct(total, "exp.table4")
	return m, nil
}

// table4Calls makes exp.Table4's gate-level calls — SigSeT, PRNet, and
// the two reconstruction fractions — and checks that the Table 4 in report
// shows the same statuses and fractions.
func table4Calls(seed int64, tr *tracer, report string) error {
	n := usb.Design()
	sp := tr.start("sigsel.sigset", -1, 0)
	sigSel, err := sigsel.SigSeT(n, sigsel.SigSeTConfig{Budget: exp.BufferWidth, Seed: seed})
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("sigsel.prnet", -1, 0)
	prSel, err := sigsel.PRNet(n, sigsel.PRNetConfig{Budget: exp.BufferWidth})
	sp.end()
	if err != nil {
		return err
	}
	const cycles = 48
	sp = tr.start("sigsel.reconstruction", -1, 0)
	sigRec, sigErr := sigsel.ReconstructionFraction(n, sigSel, usb.Buses, cycles, seed+1)
	prRec, prErr := sigsel.ReconstructionFraction(n, prSel, usb.Buses, cycles, seed+1)
	sp.end()
	if err := errors.Join(sigErr, prErr); err != nil {
		return err
	}
	line := fmt.Sprintf("interface-message reconstruction: SigSeT %s, PRNet %s (paper: <= 26%%)\n",
		exp.FormatPercent(sigRec), exp.FormatPercent(prRec))
	if !strings.Contains(report, line) {
		return fmt.Errorf("report lacks %q", line)
	}
	for _, bus := range usb.Buses {
		row := fmt.Sprintf("\n%-15s %-17s %-7s %-6s ", bus, usb.BusModule[bus],
			sigsel.StatusOf(n, sigSel, bus), sigsel.StatusOf(n, prSel, bus))
		if !strings.Contains(report, row) {
			return fmt.Errorf("report lacks Table 4 row %q", row)
		}
	}
	return nil
}

package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one user-facing path the benchmark drives in-process.
type workload struct {
	name string
	// clients is the closed-loop client count: 1 runs ops back to back in
	// passes over the seeded inputs; more run concurrently, each sending
	// its next request only after the previous reply.
	clients int
	// setup builds the seeded inputs and everything the first timed op
	// needs, for a timed phase of length d. It runs several times per run;
	// setup_s is the median.
	setup func(seed int64, d time.Duration) (runner, error)
}

// A run sets its workload up at least setupReps times and until
// setupTime has gone by, so that a set-up of a few tens of milliseconds
// still has a steady median.
const (
	setupReps = 5
	setupTime = time.Second
)

// noter is a runner with workload-specific lines for the report row.
type noter interface {
	notes() []string
}

// runner is a set-up workload.
type runner interface {
	// pass is how many ops one pass over the seeded inputs takes. A
	// one-client run ends on a pass boundary, so every run measures the
	// same input mix.
	pass() int
	// op runs op i of the seeded sequence and checks its output; a failed
	// check is returned as an error. class labels the latency sample, lat
	// is the op's latency. root is the op's span (0 when untraced); layer
	// spans go under it.
	op(i int, tr *tracer, root int) (class string, lat time.Duration, err error)
	// layers reports the workload's per-layer metrics after a traced run,
	// given the summed span time per name over its ops traced ops, and
	// counts read from the program's registries.
	layers(total map[string]time.Duration, ops int) (map[string]float64, error)
	// settle brings the program to the fixed state in which retained heap
	// is measured, after the timed phase.
	settle() error
	close()
}

// sample is one completed op.
type sample struct {
	lat    time.Duration
	class  string
	traced bool
}

// phase is the timed stretch of ops of one run.
type phase struct {
	attempted, failed int
	wall              time.Duration
	samples           []sample
	allocBytes        uint64
	errs              []string
}

func (p *phase) ops() int { return p.attempted - p.failed }

// latencies returns the latencies of the traced or the untraced ops,
// restricted to one class unless class is "".
func (p *phase) latencies(traced bool, class string) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if s.traced == traced && (class == "" || s.class == class) {
			out = append(out, s.lat)
		}
	}
	return out
}

// classes lists the op classes seen, sorted.
func (p *phase) classes() []string {
	seen := map[string]bool{}
	for _, s := range p.samples {
		seen[s.class] = true
	}
	return sortedKeys(seen)
}

// tracingOverhead is how much slower, in percent, traced ops ran than
// untraced ones: class by class medians, weighted by each class's untraced
// op count, so a different mix of classes among the traced ops does not
// read as overhead.
func tracingOverhead(p *phase) float64 {
	var traced, untraced float64
	for _, c := range p.classes() {
		u, t := p.latencies(false, c), p.latencies(true, c)
		if len(u) == 0 || len(t) == 0 {
			continue
		}
		w := float64(len(u))
		untraced += w * percentile(millis(u), 0.5)
		traced += w * percentile(millis(t), 0.5)
	}
	if untraced == 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// timeOp runs a sequential op body and returns its latency.
func timeOp(body func() (string, error)) (string, time.Duration, error) {
	t0 := time.Now()
	class, err := body()
	return class, time.Since(t0), err
}

// maxErrs bounds the failure messages one phase keeps.
const maxErrs = 5

// runPhase runs ops until d has elapsed: one client stops on the pass
// boundary nearest d, several clients stop claiming ops once d has
// elapsed. With a tracer every other op is traced, so traced and untraced
// ops run under the same conditions and their latencies give the tracing
// overhead. One client alternates in a checkerboard over an even number
// of passes, so every input is traced as often as it runs untraced.
func runPhase(r runner, clients int, d time.Duration, tr *tracer) *phase {
	p := &phase{}
	var mu sync.Mutex
	doOp := func(i int, traced bool) {
		opTr := tr
		if !traced {
			opTr = nil
		}
		root := opTr.start("op", i, 0)
		class, lat, err := r.op(i, opTr, root.id)
		root.end()
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		if err != nil {
			p.failed++
			if len(p.errs) < maxErrs {
				p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
			}
			return
		}
		p.samples = append(p.samples, sample{lat: lat, class: class, traced: traced})
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	if clients <= 1 {
		i := 0
		for passes := 1; ; passes++ {
			passStart := time.Now()
			for k := 0; k < r.pass(); k++ {
				doOp(i, tr != nil && (k+passes)%2 == 0)
				i++
			}
			// Stop at the pass boundary nearest d.
			if (tr == nil || passes%2 == 0) && time.Since(start)+time.Since(passStart)/2 >= d {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < d {
					i := int(next.Add(1) - 1)
					doOp(i, tr != nil && i%2 == 1)
				}
			}()
		}
		wg.Wait()
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - alloc0
	return p
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options control one benchmark run.
type options struct {
	seed      int64
	seconds   time.Duration
	traced    bool
	setupReps int       // 0 = setupReps and setupTime; tests set fewer
	spansPath string    // traced runs write their spans here ("" = don't)
	diag      io.Writer // human-readable report
}

const mb = 1 << 20

// run executes one workload and returns its result. Untraced runs report
// the end-to-end metrics; traced runs report the per-layer ones.
func run(w workload, o options) (*result, error) {
	var minTime time.Duration
	if o.setupReps == 0 {
		o.setupReps, minTime = setupReps, setupTime
	}
	var setups []float64
	var r runner
	for start := time.Now(); len(setups) < o.setupReps || time.Since(start) < minTime; {
		if r != nil {
			r.close()
			r = nil // so the collection below frees it
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.setup(o.seed, o.seconds); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	runtime.GC()

	res := &result{Metrics: make(map[string]metric)}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	p := runPhase(r, w.clients, o.seconds, tr)
	res.Attempted, res.Failed = p.attempted, p.failed
	problems := p.errs
	if err := r.settle(); err != nil {
		problems = append(problems, "settle: "+err.Error())
	}

	e2e := endToEnd(p, setups)
	if n, ok := r.(noter); ok {
		e2e.diag = append(e2e.diag, n.notes()...)
	}
	if o.traced {
		problems = append(problems, tracedMetrics(w.name, r, p, tr, res, o)...)
	}
	// Read the retained heap without the per-op samples: they are the
	// benchmark's bookkeeping and grow with the ops a run completes. Two
	// collections: the first moves sync.Pool contents to the pools' victim
	// caches, the second frees them.
	p.samples = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e.gated["retained_heap_mb"] = float64(ms.HeapAlloc) / mb
	if !o.traced {
		for name, v := range e2e.gated {
			res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
		}
	}
	reportRow(o.diag, w.name, res, e2e)
	for _, p := range problems {
		fmt.Fprintf(o.diag, "%s: FAILED CHECK: %s\n", w.name, p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// tracedMetrics fills res with the per-layer metrics of a traced phase,
// writes its spans, and reports each layer's self time. It returns the
// problems it found.
func tracedMetrics(name string, r runner, p *phase, tr *tracer, res *result, o options) []string {
	var problems []string
	spans := tr.snapshot()
	total, self := layerTimes(spans)
	traced := p.latencies(true, "")
	lm, err := r.layers(total, len(traced))
	if err != nil {
		problems = append(problems, err.Error())
	}
	for _, c := range p.classes() {
		if c != "" {
			lm[c+"_p50_ms"] = percentile(millis(p.latencies(true, c)), 0.5)
		}
	}
	if len(traced) >= 100 {
		lm["latency_p90_ms"] = percentile(millis(traced), 0.9)
	}
	lm["bench.tracing_overhead_pct"] = tracingOverhead(p)
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{Value: lm[pl.name], Unit: pl.unit}
	}
	if o.spansPath != "" {
		if err := writeSpans(o.spansPath, spans); err != nil {
			problems = append(problems, "writing spans: "+err.Error())
		}
	}
	reportSelf(o.diag, name, self, traced)
	return problems
}

// e2eSet is the end-to-end view of an untraced phase: the gated metrics
// plus the diagnostic ones that only some workloads have.
type e2eSet struct {
	gated   map[string]float64
	samples int // latency samples behind the percentiles
	diag    []string
}

// endToEnd computes the end-to-end metrics of the untraced ops; in a
// traced run, throughput and allocation cover all ops. The caller adds
// retained_heap_mb.
func endToEnd(p *phase, setups []float64) e2eSet {
	ms := millis(p.latencies(false, ""))
	s := e2eSet{samples: len(ms), gated: map[string]float64{
		"throughput_ops_s": throughput(p.ops(), p.wall),
		"latency_p50_ms":   percentile(ms, 0.5),
		"alloc_mb_per_op":  perUnit(float64(p.allocBytes)/mb, int64(p.ops())),
		"setup_s":          percentile(setups, 0.5),
	}}
	// Tail percentiles only where at least ten samples lie beyond them.
	if len(ms) >= 100 {
		s.diag = append(s.diag, fmt.Sprintf("latency_p90_ms=%.4f ms", percentile(ms, 0.9)))
	}
	if len(ms) >= 1000 {
		s.diag = append(s.diag, fmt.Sprintf("latency_p99_ms=%.4f ms (diagnostic)", percentile(ms, 0.99)))
	}
	for _, c := range p.classes() {
		if c != "" {
			l := millis(p.latencies(false, c))
			s.diag = append(s.diag, fmt.Sprintf("%s_p50_ms=%.4f ms (n=%d)", c, percentile(l, 0.5), len(l)))
		}
	}
	s.diag = append(s.diag, "error_rate="+ratio{int64(p.failed), int64(p.attempted)}.String(),
		fmt.Sprintf("setups=%d (%.4f–%.4f s)", len(setups), slices.Min(setups), slices.Max(setups)))
	return s
}

// reportRow prints one workload's row of the human-readable report.
func reportRow(w io.Writer, name string, res *result, e e2eSet) {
	fmt.Fprintf(w, "%-15s", name)
	for _, k := range []string{"throughput_ops_s", "latency_p50_ms", "alloc_mb_per_op", "retained_heap_mb", "setup_s"} {
		fmt.Fprintf(w, " %s=%.4f %s", k, e.gated[k], endToEndUnits[k])
		if k == "latency_p50_ms" {
			fmt.Fprintf(w, " (n=%d)", e.samples)
		}
	}
	for _, d := range e.diag {
		fmt.Fprintf(w, " %s", d)
	}
	fmt.Fprintf(w, " attempted=%d failed=%d\n", res.Attempted, res.Failed)
}

// reportSelf prints the traced ops' self time per layer, largest first,
// as a share of their summed latency.
func reportSelf(w io.Writer, name string, self map[string]time.Duration, traced []time.Duration) {
	var opTotal time.Duration
	for _, l := range traced {
		opTotal += l
	}
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%s self time over %d traced ops (%.1f ms of op latency):\n", name, len(traced), float64(opTotal)/1e6)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %10.1f ms %6.1f%%\n", n, float64(self[n])/1e6, 100*float64(self[n])/float64(opTotal))
	}
}

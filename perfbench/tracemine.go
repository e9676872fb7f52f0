package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"tracescale/internal/campaign"
	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/mine"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/tbuf"
	"tracescale/internal/trace"
)

// Corpus shapes: the campaign's mined corpus (3 traces of 8 tags per
// flow), and a larger one of about 0.3–0.4 MB of trace text per scenario.
// A pass mines each large corpus largePerSmall times per campaign-shaped
// one. That puts the median op inside a tight cluster of large-corpus
// ops; with more small ops it sat between clusters of small ones 30%
// apart, and moved with noise by as much.
const (
	largeReps     = 30
	largeTags     = 32
	largePerSmall = 2
)

// corpusSeeds are the campaign seeds the corpora of one pass derive from.
// Mining cost depends on the corpus: scenario 3's large corpus takes
// 0.3 s when the miner merges two flows and 0.9 s when it recovers all
// five, depending on the seed. Every run therefore mines the same pool,
// and the workload seed only rotates the order. Seed 1's campaign-shaped
// corpora are the ones cmd/t2campaign's mined golden pins.
var corpusSeeds = []int64{1, 2, 3, 4}

// traceMineWorkload is the CI mining smoke's path, in-process: golden T2
// corpora written with trace.Write in setup, then per op one scenario's
// corpus through trace.Parse, mine.Corpus, the mined spec, a fresh
// pipeline session, and knapsack selection (`tracemine -interleaved
// -spec`, then `tracesel -method knapsack`). No cache is involved.
func traceMineWorkload(root string) workload {
	return workload{name: "trace-mine", clients: 1, setup: func(seed int64, _ time.Duration) (runner, error) {
		return newTraceMineRunner(root, seed)
	}}
}

// corpusInput is one scenario's corpus as trace files.
type corpusInput struct {
	seed     int64 // the campaign seed the corpus derives from
	scenario int
	large    bool
	files    [][]byte
}

type traceMineRunner struct {
	seed    int64
	inputs  []corpusInput // one pass, in order
	golden  map[string]campaign.MiningInfo
	counts  *countBook
	digests *digestBook
}

func newTraceMineRunner(root string, seed int64) (*traceMineRunner, error) {
	r := &traceMineRunner{seed: seed, counts: newCountBook(), digests: newDigestBook()}
	var g campaign.Report
	if err := readJSON(filepath.Join(root, "cmd/t2campaign/testdata/golden_mined.json"), &g); err != nil {
		return nil, err
	}
	r.golden = make(map[string]campaign.MiningInfo)
	for _, m := range g.Mining {
		r.golden[m.Scenario] = m
	}
	for _, cseed := range corpusSeeds {
		var small, large []corpusInput
		for _, s := range opensparc.Scenarios() {
			for _, big := range []bool{false, true} {
				reps, tags := minedCorpusReps, minedCorpusTags
				if big {
					reps, tags = largeReps, largeTags
				}
				traces, err := goldenCorpus(s, cseed, reps, tags, nil, -1, 0)
				if err != nil {
					return nil, fmt.Errorf("scenario %d corpus: %w", s.ID, err)
				}
				in := corpusInput{seed: cseed, scenario: s.ID, large: big}
				for _, t := range traces {
					var buf bytes.Buffer
					if err := trace.Write(&buf, t); err != nil {
						return nil, err
					}
					in.files = append(in.files, buf.Bytes())
				}
				if big {
					large = append(large, in)
				} else {
					small = append(small, in)
				}
			}
		}
		r.inputs = append(r.inputs, small...)
		for k := 0; k < largePerSmall; k++ {
			r.inputs = append(r.inputs, large...)
		}
	}
	return r, nil
}

func (r *traceMineRunner) pass() int     { return len(r.inputs) }
func (r *traceMineRunner) close()        {}
func (r *traceMineRunner) settle() error { return nil }

func (r *traceMineRunner) op(i int, tr *tracer, root int) (string, time.Duration, error) {
	return timeOp(func() (string, error) { return r.runOp(i, tr, root) })
}

func (r *traceMineRunner) runOp(i int, tr *tracer, root int) (string, error) {
	k := rotate(i, r.seed, len(r.inputs))
	in := r.inputs[k]
	// A fresh registry per op, as in a fresh process (see campaign.go).
	reg := obs.NewRegistry()
	var traces [][]tbuf.Entry
	for _, f := range in.files {
		sp := tr.start("trace.parse", i, root)
		t, err := trace.Parse(bytes.NewReader(f))
		sp.end()
		if err != nil {
			return "", err
		}
		traces = append(traces, t)
	}
	sp := tr.start("mine.corpus", i, root)
	res, err := mine.Corpus(traces, mine.Options{})
	sp.end()
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("t2-s%d", in.scenario)
	sp = tr.start("mine.materialize", i, root)
	sc, err := res.Scenario(name, 1, 32)
	var insts []flow.Instance
	if err == nil {
		insts, err = sc.Build()
	}
	sp.end()
	if err != nil {
		return "", err
	}
	ses, err := newSession(insts, tr, i, root, reg)
	if err != nil {
		return "", err
	}
	sp = tr.start("core.select", i, root)
	sel, err := ses.Select(core.Config{BufferWidth: sc.BufferWidth, Method: core.Knapsack})
	sp.end()
	if err != nil {
		return "", err
	}
	info := campaign.MiningInfo{Scenario: fmt.Sprintf("scenario-%d", in.scenario), Traces: res.Traces,
		Slices: res.Slices, Flows: len(res.Flows), Shared: res.Shared, Splits: res.Splits}
	if err := r.check(in, info); err != nil {
		return "", err
	}
	out, err := json.Marshal(struct {
		Mining   campaign.MiningInfo
		Selected []string
	}{info, sel.TracedNames()})
	if err != nil {
		return "", err
	}
	if err := r.digests.check(fmt.Sprintf("corpus %d", k), out); err != nil {
		return "", err
	}
	got := reg.Snapshot()
	class := "small"
	if in.large {
		class = "large"
	}
	return class, r.counts.record(k, map[string]float64{
		"mine.flows":        float64(len(res.Flows)),
		"mine.shared":       float64(len(res.Shared)),
		"mine.splits":       float64(res.Splits),
		"interleave.states": float64(got["interleave.states"]),
	})
}

// check compares a campaign-shaped corpus of seed 1's mining with the
// per-scenario mining block of golden_mined.json.
func (r *traceMineRunner) check(in corpusInput, got campaign.MiningInfo) error {
	if in.seed != 1 || in.large {
		return nil
	}
	want := r.golden[got.Scenario]
	if got.Traces != want.Traces || got.Slices != want.Slices || got.Flows != want.Flows ||
		got.Splits != want.Splits || strings.Join(got.Shared, ",") != strings.Join(want.Shared, ",") {
		return fmt.Errorf("seed 1 %s mining %+v, golden_mined.json has %+v", got.Scenario, got, want)
	}
	return nil
}

func (r *traceMineRunner) layers(total map[string]time.Duration, ops int) (map[string]float64, error) {
	m := r.counts.mean()
	for _, l := range []string{"trace.parse", "mine.corpus", "mine.materialize", "pipeline.session_build", "core.select"} {
		m[l+"_ms"] = spanMs(total, l, ops)
	}
	// The traced ops are whole passes, each parsing every corpus file once.
	var passBytes int64
	for _, in := range r.inputs {
		for _, f := range in.files {
			passBytes += int64(len(f))
		}
	}
	if parse := total["trace.parse"].Seconds(); parse > 0 {
		m["trace.parse_mb_s"] = float64(passBytes) / mb * float64(ops/len(r.inputs)) / parse
	}
	m["bench.dominant_layer_pct"] = dominantPct(total, "mine.corpus")
	return m, nil
}

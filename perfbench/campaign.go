package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tracescale/internal/campaign"
	"tracescale/internal/core"
	"tracescale/internal/exp"
	"tracescale/internal/flow"
	"tracescale/internal/mine"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/pipeline"
	"tracescale/internal/reconstruct"
	"tracescale/internal/soc"
	"tracescale/internal/tbuf"
)

// campaignSeeds is the pool of campaign seeds one campaign-mined pass
// covers. The cost of `t2campaign -mined` depends strongly on the campaign
// seed (2.6–8.7 s over seeds 1–10 on a 2-core host), because the mined
// specs differ; every run therefore covers the same pool, and the workload
// seed only rotates the order. Seed 1 is the CLI default and the one the
// committed goldens pin.
var campaignSeeds = []int64{1, 2, 3, 4}

// t2campaign's defaults: the five message sets, the launch stride, and the
// mined-corpus shape (3 traces, 8 tags per flow, 13 cycles of jitter).
var campaignSets = []string{"mi", "reconstruct", "widest", "pagerank", "random"}

const (
	launchStride    = 24
	minedCorpusReps = 3
	minedCorpusTags = 8
	minedCorpusJit  = 13
)

// campaignWorkload is `t2campaign -mined` with its defaults, rebuilt from
// the public calls cmd/t2campaign's buildSpec makes. Caches start empty:
// sessions come from pipeline.NewSessionObs, never the shared Default
// cache, so every op interleaves and selects from scratch, as the CLI does
// in a fresh process.
func campaignWorkload(root string) workload {
	return workload{name: "campaign-mined", clients: 1, setup: func(seed int64, _ time.Duration) (runner, error) {
		return newCampaignRunner(root, seed)
	}}
}

type campaignRunner struct {
	seed    int64
	golden  []campaign.Scorecard // golden.json, truth sets, seed 1
	mined   *campaign.Report     // golden_mined.json (mi + mined:mi), seed 1
	counts  *countBook
	digests *digestBook
}

func newCampaignRunner(root string, seed int64) (*campaignRunner, error) {
	r := &campaignRunner{seed: seed, counts: newCountBook(), digests: newDigestBook()}
	var g campaign.Report
	if err := readJSON(filepath.Join(root, "cmd/t2campaign/testdata/golden.json"), &g); err != nil {
		return nil, err
	}
	r.golden = g.Scorecards
	r.mined = new(campaign.Report)
	if err := readJSON(filepath.Join(root, "cmd/t2campaign/testdata/golden_mined.json"), r.mined); err != nil {
		return nil, err
	}
	// Warm-up: every scenario's golden corpus and mining at a seed outside
	// the pool, so the first timed op does not pay for heap growth.
	for _, s := range opensparc.Scenarios() {
		if _, err := mineScenario(s, 0, nil, -1, 0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (r *campaignRunner) pass() int     { return len(campaignSeeds) }
func (r *campaignRunner) close()        {}
func (r *campaignRunner) settle() error { return nil }

func (r *campaignRunner) op(i int, tr *tracer, root int) (string, time.Duration, error) {
	return timeOp(func() (string, error) { return r.runOp(i, tr, root) })
}

func (r *campaignRunner) runOp(i int, tr *tracer, root int) (string, error) {
	in := rotate(i, r.seed, len(campaignSeeds))
	cseed := campaignSeeds[in]
	// A fresh registry per op, as in a fresh process: its run-trace sink
	// keeps events up to a cap, so a shared one would grow with the ops a
	// run completes and read as retained heap.
	reg := obs.NewRegistry()
	spec, mined, err := buildCampaign(cseed, tr, i, root, reg)
	if err != nil {
		return "", err
	}
	sp := tr.start("campaign.grid", i, root)
	rep, err := campaign.Run(spec)
	sp.end()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return "", err
	}
	if err := r.digests.check(fmt.Sprintf("campaign seed %d", cseed), buf.Bytes()); err != nil {
		return "", err
	}
	if cseed == 1 {
		if err := r.checkGolden(rep); err != nil {
			return "", err
		}
	}
	got := reg.Snapshot()
	c := map[string]float64{
		"core.select.ambiguity_evals": float64(got["core.select.ambiguity_evals"]),
		"interleave.states":           float64(got["interleave.states"]),
		"campaign.runs":               float64(got["campaign.runs.completed"]),
	}
	for _, m := range mined {
		c["mine.flows"] += float64(len(m.Flows))
		c["mine.shared"] += float64(len(m.Shared))
		c["mine.splits"] += float64(m.Splits)
	}
	for _, run := range rep.Runs {
		c["soc.sim_cycles"] += float64(run.EndCycle)
		c["soc.sim_events"] += float64(run.Events)
	}
	return "", r.counts.record(in, c)
}

// checkGolden compares a seed-1 report with the committed CLI goldens:
// the five truth scorecards with golden.json's (which predates spec
// provenance), and the mi pair and mining block with golden_mined.json's.
func (r *campaignRunner) checkGolden(rep *campaign.Report) error {
	for _, want := range r.golden {
		got := rep.Card(want.Set)
		if got == nil {
			return fmt.Errorf("seed 1: no scorecard for %q", want.Set)
		}
		g := *got
		g.Spec = ""
		if g != want {
			return fmt.Errorf("seed 1: scorecard %q = %+v, golden.json has %+v", want.Set, g, want)
		}
	}
	for _, want := range r.mined.Scorecards {
		got := rep.Card(want.Set)
		if got == nil || *got != want {
			return fmt.Errorf("seed 1: scorecard %q = %+v, golden_mined.json has %+v", want.Set, got, want)
		}
	}
	gm, _ := json.Marshal(rep.Mining)
	wm, _ := json.Marshal(r.mined.Mining)
	if !bytes.Equal(gm, wm) {
		return fmt.Errorf("seed 1: mining block %s, golden_mined.json has %s", gm, wm)
	}
	return nil
}

func (r *campaignRunner) layers(total map[string]time.Duration, ops int) (map[string]float64, error) {
	m := r.counts.mean()
	for _, l := range []string{"core.select_reconstruct", "reconstruct.ambiguity", "core.select_mi", "core.baselines",
		"pipeline.session_build", "soc.corpus", "mine.corpus", "mine.materialize", "campaign.grid"} {
		m[l+"_ms"] = spanMs(total, l, ops)
	}
	m["campaign.host_us_per_event"] = perUnit(m["campaign.grid_ms"]*1000, int64(m["soc.sim_events"]))
	m["bench.dominant_layer_pct"] = dominantPct(total, "core.select_reconstruct", "reconstruct.ambiguity")
	return m, nil
}

// buildCampaign is cmd/t2campaign's buildSpec for `-mined` over all three
// scenarios with the default sets, with a span around every layer call.
// It also returns each scenario's mining result.
func buildCampaign(seed int64, tr *tracer, op, root int, reg *obs.Registry) (campaign.Spec, []*mine.Result, error) {
	spec := campaign.Spec{Name: "t2", Seed: seed, Obs: reg}
	var mined []*mine.Result
	for _, s := range opensparc.Scenarios() {
		causes, err := opensparc.Causes(s.ID)
		if err != nil {
			return spec, nil, err
		}
		universe := s.Universe()
		inUniverse := make(map[string]bool, len(universe))
		for _, m := range universe {
			inUniverse[m.Name] = true
		}
		var bugs []opensparc.Bug
		for _, b := range opensparc.Bugs() {
			if inUniverse[b.Target] {
				bugs = append(bugs, b)
			}
		}
		ses, err := newSession(s.Instances(), tr, op, root, reg)
		if err != nil {
			return spec, nil, err
		}
		res, err := mineScenario(s, seed, tr, op, root)
		if err != nil {
			return spec, nil, fmt.Errorf("scenario %d: mining: %w", s.ID, err)
		}
		mined = append(mined, res)
		sp := tr.start("mine.materialize", op, root)
		flows, err := res.Materialize(fmt.Sprintf("mined-s%d-", s.ID))
		sp.end()
		if err != nil {
			return spec, nil, fmt.Errorf("scenario %d: mining: %w", s.ID, err)
		}
		insts := make([]flow.Instance, len(flows))
		for i, f := range flows {
			insts[i] = flow.Instance{Flow: f, Index: 1}
		}
		minedSes, err := newSession(insts, tr, op, root, reg)
		if err != nil {
			return spec, nil, fmt.Errorf("scenario %d: mined session: %w", s.ID, err)
		}
		spec.Mining = append(spec.Mining, campaign.MiningInfo{
			Scenario: fmt.Sprintf("scenario-%d", s.ID),
			Traces:   res.Traces,
			Slices:   res.Slices,
			Flows:    len(res.Flows),
			Shared:   res.Shared,
			Splits:   res.Splits,
		})
		var msets []campaign.MessageSet
		ambiguity := make(map[string]float64, 2*len(campaignSets))
		addSet := func(setName, provenance string, from *pipeline.Session) error {
			traced, err := tracedFor(setName, from, seed, tr, op, root)
			if err != nil {
				return err
			}
			name := setName
			if provenance == campaign.SpecMined {
				name = "mined:" + setName
			}
			msets = append(msets, campaign.MessageSet{Name: name, Traced: traced, Spec: provenance})
			tracedSet := make(map[string]bool, len(traced))
			for _, n := range traced {
				tracedSet[n] = true
			}
			sp := tr.start("reconstruct.ambiguity", op, root)
			amb, err := reconstruct.ExpectedAmbiguity(ses.Product(), tracedSet)
			sp.end()
			if err != nil {
				return fmt.Errorf("scenario %d set %q ambiguity: %w", s.ID, name, err)
			}
			ambiguity[name] = amb
			return nil
		}
		for _, name := range campaignSets {
			if err := addSet(name, campaign.SpecTruth, ses); err != nil {
				return spec, nil, err
			}
			if err := addSet(name, campaign.SpecMined, minedSes); err != nil {
				return spec, nil, err
			}
		}
		spec.Scenarios = append(spec.Scenarios, campaign.Scenario{
			Name:      fmt.Sprintf("scenario-%d", s.ID),
			Launches:  s.Launches(exp.InstancesPerFlow, launchStride),
			Universe:  universe,
			Flows:     s.Flows(),
			Causes:    causes,
			Bugs:      bugs,
			Sets:      msets,
			Ambiguity: ambiguity,
		})
	}
	return spec, mined, nil
}

func newSession(insts []flow.Instance, tr *tracer, op, root int, reg *obs.Registry) (*pipeline.Session, error) {
	sp := tr.start("pipeline.session_build", op, root)
	defer sp.end()
	return pipeline.NewSessionObs(insts, reg)
}

// mineScenario is cmd/t2campaign's golden-corpus capture and mining.
func mineScenario(s opensparc.Scenario, seed int64, tr *tracer, op, root int) (*mine.Result, error) {
	traces, err := goldenCorpus(s, seed, minedCorpusReps, minedCorpusTags, tr, op, root)
	if err != nil {
		return nil, err
	}
	sp := tr.start("mine.corpus", op, root)
	defer sp.end()
	return mine.Corpus(traces, mine.Options{})
}

// goldenCorpus simulates reps bug-free runs of the scenario, each running
// every flow tags transactions deep with jittered launches, and captures
// them at full width with no wraparound. Corpus seeds come from the
// campaign seed's reserved DerivedSeed range, as in cmd/t2campaign.
func goldenCorpus(s opensparc.Scenario, seed int64, reps, tags int, tr *tracer, op, root int) ([][]tbuf.Entry, error) {
	var rules []tbuf.Rule
	width := 0
	for _, m := range s.Universe() {
		rules = append(rules, tbuf.Rule{Message: m.Name, Width: m.Width, Bits: m.Width})
		width += m.Width
	}
	plan, err := tbuf.NewCapturePlan(rules)
	if err != nil {
		return nil, err
	}
	var traces [][]tbuf.Entry
	for rep := 0; rep < reps; rep++ {
		sp := tr.start("soc.corpus", op, root)
		runSeed := campaign.DerivedSeed(seed, 1<<20+s.ID*64+rep)
		jit := rand.New(rand.NewSource(runSeed))
		var launches []soc.Launch
		for _, f := range s.Flows() {
			for k := 1; k <= tags; k++ {
				launches = append(launches, soc.Launch{
					Flow: f, Index: k, Start: uint64(8*(k-1) + jit.Intn(minedCorpusJit)),
				})
			}
		}
		res, err := soc.Run(soc.Scenario{Name: s.Name, Launches: launches},
			soc.Config{Seed: runSeed, MaxLatency: 20})
		if err != nil {
			sp.end()
			return nil, err
		}
		if !res.Passed() {
			sp.end()
			return nil, fmt.Errorf("golden corpus run %d failed: %v", rep, res.Symptoms)
		}
		mon := soc.NewMonitor(plan, tbuf.New(width, len(res.Events)+1), nil)
		err = mon.Consume(res.Events)
		sp.end()
		if err != nil {
			return nil, err
		}
		traces = append(traces, mon.Buffer().Entries())
	}
	return traces, nil
}

// tracedFor is cmd/t2campaign's set resolution at the paper's 32-bit
// width, with a span per selector family.
func tracedFor(name string, ses *pipeline.Session, seed int64, tr *tracer, op, root int) ([]string, error) {
	e := ses.Evaluator()
	var (
		c   core.Candidate
		err error
	)
	switch name {
	case "mi", "reconstruct":
		cfg := core.Config{BufferWidth: exp.BufferWidth}
		layer := "core.select_mi"
		if name == "reconstruct" {
			if cfg.Method, err = core.ParseMethod(name); err != nil {
				return nil, err
			}
			layer = "core.select_reconstruct"
		}
		sp := tr.start(layer, op, root)
		res, err := ses.Select(cfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		return res.TracedNames(), nil
	case "widest":
		sp := tr.start("core.baselines", op, root)
		c, err = core.WidestFirstBaseline(e, exp.BufferWidth)
		sp.end()
	case "pagerank":
		sp := tr.start("core.baselines", op, root)
		c, err = core.PageRankBaseline(e, exp.BufferWidth)
		sp.end()
	case "random":
		sp := tr.start("core.baselines", op, root)
		c, err = core.RandomBaseline(e, exp.BufferWidth, seed)
		sp.end()
	default:
		return nil, fmt.Errorf("unknown message set %q", name)
	}
	if err != nil {
		return nil, err
	}
	return c.Messages, nil
}

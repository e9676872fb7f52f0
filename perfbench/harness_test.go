package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// fakeRunner renders a fixed output per input and records a count, but
// corrupts the output of op corruptAt and the count of op driftAt.
type fakeRunner struct {
	inputs            int
	corruptAt         int
	driftAt           int
	digests           *digestBook
	counts            *countBook
	settled, released bool
}

func (f *fakeRunner) pass() int { return f.inputs }
func (f *fakeRunner) op(i int, tr *tracer, root int) (string, time.Duration, error) {
	return timeOp(func() (string, error) {
		sp := tr.start("fake.layer", i, root)
		time.Sleep(time.Millisecond)
		sp.end()
		in := i % f.inputs
		out := fmt.Sprintf("output of input %d", in)
		if i == f.corruptAt {
			out = strings.ToUpper(out)
		}
		if err := f.digests.check(fmt.Sprint(in), []byte(out)); err != nil {
			return "", err
		}
		n := float64(in)
		if i == f.driftAt {
			n++
		}
		return "fake", f.counts.record(in, map[string]float64{"mine.flows": n})
	})
}
func (f *fakeRunner) layers(total map[string]time.Duration, ops int) (map[string]float64, error) {
	m := f.counts.mean()
	m["core.select_ms"] = spanMs(total, "fake.layer", ops)
	return m, nil
}
func (f *fakeRunner) settle() error { f.settled = true; return nil }
func (f *fakeRunner) close()        { f.released = true }

func fakeWorkload(f *fakeRunner) workload {
	return workload{name: "fake", clients: 1, setup: func(int64, time.Duration) (runner, error) {
		f.digests, f.counts = newDigestBook(), newCountBook()
		return f, nil
	}}
}

func TestCorruptedOpCountsAsFailed(t *testing.T) {
	f := &fakeRunner{inputs: 2, corruptAt: 3, driftAt: -1}
	res, err := run(fakeWorkload(f), options{seed: 1, seconds: 20 * time.Millisecond, setupReps: 2, diag: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Correct || res.Attempted < 4 {
		t.Errorf("attempted %d failed %d correct %v; want op 3 alone failed and the run incorrect", res.Attempted, res.Failed, res.Correct)
	}
	if res.Attempted%2 != 0 {
		t.Errorf("attempted %d ops, want whole passes of 2", res.Attempted)
	}
	if !f.settled || !f.released {
		t.Error("runner was not settled and closed")
	}
	for name := range endToEndUnits {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("untraced run lacks %s", name)
		}
	}
}

func TestDriftingCountFailsTheCheck(t *testing.T) {
	f := &fakeRunner{inputs: 2, corruptAt: -1, driftAt: 2}
	res, err := run(fakeWorkload(f), options{seed: 1, seconds: 20 * time.Millisecond, setupReps: 1, diag: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Correct {
		t.Errorf("failed %d correct %v; want the drifting op failed", res.Failed, res.Correct)
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	f := &fakeRunner{inputs: 3, corruptAt: -1, driftAt: -1}
	var diag strings.Builder
	res, err := run(fakeWorkload(f), options{seed: 1, seconds: 40 * time.Millisecond, traced: true, setupReps: 1, diag: &diag})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v failed %d:\n%s", res.Correct, res.Failed, diag.String())
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if got := res.Metrics["core.select_ms"].Value; got < 1 {
		t.Errorf("core.select_ms = %v, want the ~1ms fake layer per op", got)
	}
	if got := res.Metrics["mine.flows"].Value; got != 1 { // mean of inputs 0, 1, 2
		t.Errorf("mine.flows = %v, want 1", got)
	}
	if !strings.Contains(diag.String(), "fake.layer") {
		t.Errorf("self-time report lacks the layer:\n%s", diag.String())
	}
}

// The overhead compares like with like: a traced class mix heavier in slow
// ops is not overhead.
func TestTracingOverheadComparesClassByClass(t *testing.T) {
	p := &phase{}
	add := func(class string, lat time.Duration, traced bool, n int) {
		for k := 0; k < n; k++ {
			p.samples = append(p.samples, sample{lat: lat, class: class, traced: traced})
		}
	}
	add("hit", ms(1), false, 30)
	add("miss", ms(10), false, 10)
	add("hit", ms(1)*11/10, true, 10) // 10% slower, and fewer hits
	add("miss", ms(11), true, 30)
	if got := tracingOverhead(p); got < 9.99 || got > 10.01 {
		t.Errorf("overhead = %v%%, want 10%%", got)
	}
}

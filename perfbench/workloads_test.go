package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// heldOutSeed is a seed none of the benchmark's tuning used.
const heldOutSeed = 7

// Every workload runs at a seed other than 1 with every op passing its
// output checks.
func TestHeldOutSeedRunsEveryWorkloadWithoutErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload (about 30 s)")
	}
	for _, w := range workloads("..") {
		res, err := run(w, options{seed: heldOutSeed, seconds: 100 * time.Millisecond, setupReps: 1, diag: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// Count-type per-layer metrics repeat exactly between two runs at one
// seed.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, w := range workloads("..") {
		if w.name != "trace-mine" && w.name != "serve-mix" {
			continue
		}
		var first map[string]metric
		for k := 0; k < 2; k++ {
			res, err := run(w, options{seed: 3, seconds: 400 * time.Millisecond, traced: true, setupReps: 1, diag: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%s run %d failed its checks", w.name, k)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, pl := range perLayer {
				counted := strings.HasPrefix(pl.unit, "count") || pl.unit == "ratio"
				if counted && res.Metrics[pl.name] != first[pl.name] {
					t.Errorf("%s: %s = %v, first run %v", w.name, pl.name, res.Metrics[pl.name].Value, first[pl.name].Value)
				}
			}
		}
	}
}

// The command prints one JSON result as its last line, and refuses an
// unknown workload without printing one.
func TestCommandPrintsOneJSONResult(t *testing.T) {
	var out, diag bytes.Buffer
	if err := mainErr([]string{"--workload", "nope"}, &out, &diag); err == nil || out.Len() != 0 {
		t.Errorf("unknown workload: err %v, stdout %q", err, out.String())
	}
	out.Reset()
	args := []string{"--workload", "trace-mine", "--seed", "2", "--seconds", "1", "--trace", "0", "--root", ".."}
	if err := mainErr(args, &out, &diag); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result keys = %v", res)
	}
	if !strings.Contains(diag.String(), "trace-mine ") {
		t.Errorf("no report row on stderr:\n%s", diag.String())
	}
}

// BENCHMARK.json names exactly the workloads and metrics the command
// reports, within the limits of its format.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	ws := workloads("..")
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, %d implemented", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || len(b.Workloads[i].Why) > 200 || strings.Contains(b.Workloads[i].Why, "\n") {
			t.Errorf("workload %d = %+v, want %s with a one-line why", i, b.Workloads[i], w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, e := range b.EndToEnd {
		if endToEndUnits[e.Name] != e.Unit || e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end %+v does not match the command", e)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics listed, %d reported", len(b.EndToEnd), len(endToEndUnits))
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i, p := range b.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit || p.Bound != nil {
			t.Errorf("per-layer %d = %+v, want %+v", i, p, perLayer[i])
		}
	}
	for _, e := range append(b.EndToEnd, b.PerLayer...) {
		if !name.MatchString(e.Name) || !unit.MatchString(e.Unit) || seen[e.Name] || (e.Better != "higher" && e.Better != "lower") {
			t.Errorf("metric %+v breaks the naming rules or repeats", e)
		}
		seen[e.Name] = true
	}
}

// serve-mix's timed loop sends the seeded sequence built in setup, and a
// run that outruns it goes on with the same requests, generated inline
// and counted.
func TestServeSequenceIsTheSeededOne(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	r, err := newServeRunner("..", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if len(r.seq) != replayRequests {
		t.Fatalf("sequence of %d requests, want %d", len(r.seq), replayRequests)
	}
	for _, i := range []int{0, 1, 17, replayRequests - 1} {
		q, err := r.request(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q.body, r.seq[i].body) || q.class != r.seq[i].class {
			t.Errorf("request %d differs from the pre-generated one", i)
		}
	}
	// Most /reconstruct requests observe a fresh traced set; the pooled
	// rest repeat.
	var fresh, pooled int
	for _, q := range r.seq {
		if q.path == "/reconstruct" && q.key == "" {
			fresh++
		} else if q.path == "/reconstruct" {
			pooled++
		}
	}
	if pooled == 0 || fresh < 2*pooled {
		t.Errorf("%d fresh and %d pooled /reconstruct requests", fresh, pooled)
	}
	for i := replayRequests; i < replayRequests+20; i++ {
		if _, _, err := r.op(i, nil, 0); err != nil {
			t.Fatalf("inline request %d: %v", i, err)
		}
	}
	if n := r.inline.Load(); n != 20 {
		t.Errorf("%d requests counted inline, want 20", n)
	}
}

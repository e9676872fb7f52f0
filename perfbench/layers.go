package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A workload that never calls a layer reports 0 for
// it. "count/op" metrics are program-side counters or report fields per op,
// averaged over whole passes; they, and serve-mix's "ratio" metrics and
// their "count" bases read after its fixed replay, repeat exactly at a
// fixed seed. A "share" is measured over the timed phase and does not.
var perLayer = []struct{ name, unit string }{
	// campaign-mined
	{"core.select_reconstruct_ms", "ms"},
	{"reconstruct.ambiguity_ms", "ms"},
	{"core.select.ambiguity_evals", "count/op"},
	{"core.select_mi_ms", "ms"},
	{"core.baselines_ms", "ms"},
	{"pipeline.session_build_ms", "ms"},
	{"interleave.states", "count/op"},
	{"soc.corpus_ms", "ms"},
	{"campaign.grid_ms", "ms"},
	{"campaign.runs", "count/op"},
	{"soc.sim_cycles", "count/op"},
	{"soc.sim_events", "count/op"},
	{"campaign.host_us_per_event", "us"},
	// trace-mine (mine.* also on campaign-mined)
	{"mine.corpus_ms", "ms"},
	{"mine.flows", "count/op"},
	{"mine.shared", "count/op"},
	{"mine.splits", "count/op"},
	{"mine.materialize_ms", "ms"},
	{"core.select_ms", "ms"},
	{"trace.parse_ms", "ms"},
	{"trace.parse_mb_s", "MB/s"},
	// paper-all
	{"sigsel.sigset_ms", "ms"},
	{"sigsel.prnet_ms", "ms"},
	{"sigsel.reconstruction_ms", "ms"},
	{"exp.table1_ms", "ms"},
	{"exp.table2_ms", "ms"},
	{"exp.table3_ms", "ms"},
	{"exp.table4_ms", "ms"},
	{"exp.table5_ms", "ms"},
	{"exp.table6_ms", "ms"},
	{"exp.table7_ms", "ms"},
	{"exp.fig5_ms", "ms"},
	{"exp.fig6_ms", "ms"},
	{"exp.fig7_ms", "ms"},
	{"soc.runs", "count/op"},
	{"soc.cycles", "count/op"},
	// serve-mix
	{"pipeline.store_hit_ratio", "ratio"},
	{"pipeline.store_lookups", "count"},
	{"pipeline.cache_hit_ratio", "ratio"},
	{"pipeline.cache_lookups", "count"},
	{"pipeline.reconstruct_hit_ratio", "ratio"},
	{"pipeline.reconstruct_lookups", "count"},
	{"pipeline.timed_reconstruct_hit_share", "share"},
	{"pipeline.cache.evictions", "count"},
	{"pipeline.fingerprint_us_per_req", "us"},
	{"interleave.build_ms_per_build", "ms"},
	{"core.select_ms_per_run", "ms"},
	{"serve.residual_us_per_req", "us"},
	{"serve.ok", "count"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"select_hit_p50_ms", "ms"},
	{"select_miss_p50_ms", "ms"},
	{"reconstruct_p50_ms", "ms"},
	// every workload
	{"latency_p90_ms", "ms"},
	{"bench.dominant_layer_pct", "%"},
	{"bench.tracing_overhead_pct", "%"},
}

// endToEndUnits are the gated metrics every untraced run reports.
var endToEndUnits = map[string]string{
	"throughput_ops_s": "ops/s",
	"latency_p50_ms":   "ms",
	"alloc_mb_per_op":  "MB/op",
	"retained_heap_mb": "MB",
	"setup_s":          "s",
}

// rotate maps op i to its input in a pass of n inputs, starting the pass
// at an offset the workload seed picks.
func rotate(i int, seed int64, n int) int {
	off := int(seed % int64(n))
	if off < 0 {
		off += n
	}
	return (i + off) % n
}

// spanMs converts the summed time of the spans named name into ms per op.
func spanMs(total map[string]time.Duration, name string, ops int) float64 {
	return perUnit(float64(total[name])/float64(time.Millisecond), int64(ops))
}

// dominantPct is the share, in percent, of op latency spent in the named
// layers' spans.
func dominantPct(total map[string]time.Duration, layers ...string) float64 {
	var in time.Duration
	for _, l := range layers {
		in += total[l]
	}
	return perUnit(100*float64(in), int64(total["op"]))
}

// countBook keeps the program-side counts of the first op on each seeded
// input. An op whose counts differ from the first op's on the same input
// has drifted; deterministic layers must repeat them exactly.
type countBook struct {
	mu      sync.Mutex
	byInput map[int]map[string]float64
}

func newCountBook() *countBook { return &countBook{byInput: make(map[int]map[string]float64)} }

// record files the counts of one op on input and reports drift.
func (b *countBook) record(input int, c map[string]float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	first, ok := b.byInput[input]
	if !ok {
		b.byInput[input] = c
		return nil
	}
	for _, k := range sortedKeys(first) {
		if first[k] != c[k] {
			return fmt.Errorf("count %s drifted on input %d: %v, first op %v", k, input, c[k], first[k])
		}
	}
	return nil
}

// mean averages each count over the recorded inputs: one pass's per-op
// mean.
func (b *countBook) mean() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	inputs := make([]int, 0, len(b.byInput))
	for in := range b.byInput {
		inputs = append(inputs, in)
	}
	sort.Ints(inputs) // a fixed summation order keeps the mean exact
	out := make(map[string]float64)
	for _, in := range inputs {
		for k, v := range b.byInput[in] {
			out[k] += v
		}
	}
	for k := range out {
		out[k] /= float64(len(inputs))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// digestBook pins each seeded input's output digest to its first op's.
type digestBook struct {
	mu    sync.Mutex
	first map[string][sha256.Size]byte
}

func newDigestBook() *digestBook { return &digestBook{first: make(map[string][sha256.Size]byte)} }

// check reports whether out is byte-identical to the first output recorded
// for key.
func (b *digestBook) check(key string, out []byte) error {
	d := sha256.Sum256(out)
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.first[key]; ok && f != d {
		return fmt.Errorf("output for %s differs from the first op's", key)
	} else if !ok {
		b.first[key] = d
	}
	return nil
}

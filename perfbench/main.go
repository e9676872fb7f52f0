// Command perfbench is the repository's end-to-end benchmark. It drives
// four user-facing paths in-process and reports the metrics named in
// BENCHMARK.json:
//
//	perfbench --workload campaign-mined --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seconds 20        # one report row per workload
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 every other pass or request is
// traced, and the JSON carries the per-layer metrics. The
// human-readable report goes to standard error. perfbench/run.sh builds
// and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloads returns every workload, reading goldens relative to root.
func workloads(root string) []workload {
	return []workload{
		campaignWorkload(root),
		paperWorkload(),
		serveWorkload(root),
		traceMineWorkload(root),
	}
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "workload seed: the inputs are generated from it")
		seconds = fs.Int("seconds", 20, "length of the timed phase")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = fs.String("root", ".", "repository root (for the committed goldens)")
		spans   = fs.String("spans-dir", ".bench_build/spans", "traced runs write their spans here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	all := workloads(*root)
	var chosen []workload
	for _, w := range all {
		if *name == "all" || w.name == *name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		names := ""
		for _, w := range all {
			names += " " + w.name
		}
		return fmt.Errorf("unknown workload %q (have all%s)", *name, names)
	}
	// With several workloads the JSON carries only the totals; the report
	// rows carry each workload's metrics.
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		o := options{
			seed:    *seed,
			seconds: time.Duration(*seconds) * time.Second,
			traced:  *trace == 1,
			diag:    stderr,
		}
		if o.traced {
			o.spansPath = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		}
		res, err := run(w, o)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		if len(chosen) == 1 {
			total.Metrics = res.Metrics
		}
	}
	enc, err := json.Marshal(total)
	if err != nil {
		return err
	}
	// A failed check is reported through "correct" (and FAILED CHECK lines
	// on stderr), not the exit code: the result is still a measurement.
	fmt.Fprintln(stdout, string(enc))
	return nil
}

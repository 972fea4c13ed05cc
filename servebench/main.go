// Command servebench is the served-epoch benchmark: a single-process
// load generator that starts the resident detection service
// (service.Store behind service/httpapi) on a loopback listener, drives a
// seeded workload through POST /v1/ratings and the GET /v1/ routes,
// checks the served outputs against the planted ground truth and prints
// every metric by name with its unit.
//
// One epoch is one applied batch: decode → ingest → window roll →
// rescore → detect → publish, ending when a query can see the result.
//
//	servebench -workload small-batch-1m -seed 1 -seconds 20 -trace 0
//
// -trace 0 measures the end-to-end metrics over HTTP with tracing off.
// -trace 1 instead drives the same batches and queries in-process
// through the layers' public entry points, times each layer in spans,
// replays the batches over HTTP to prove the traced state equals the
// served one, and prints the per-layer metrics. Both print one JSON
// object as the last stdout line and write their result set, fingerprint
// included, under -out; the traced run also writes its span timeline
// (JSONL) and a per-layer report there. A failed output check exits 1
// without a result.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured ingest time per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	commit := flag.String("commit", "unknown", "commit recorded in the fingerprint")
	out := flag.String("out", ".bench_out", "directory for result sets, spans and reports")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *commit, *out); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, commit, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := w.validate(); err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	fp := machine(commit)
	fmt.Printf("machine: %+v\n", fp)
	g := newGenerator(w, seed)
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	var res *result
	if trace == 1 {
		res, err = runTraced(w, g, seconds, base, fp)
	} else {
		res, err = runServed(w, g, seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	kind := map[int]string{0: "e2e", 1: "layers"}[trace]
	if err := writeResultSet(base+"-"+kind+".json", w, seed, seconds, trace == 1, fp, res); err != nil {
		return err
	}
	fmt.Printf("%s seed %d: %v samples, %v\n", w.name, seed, res.samples, res.extra)
	printMetrics(os.Stdout, res)
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// Command benchjson converts `go test -bench -benchmem` text output into a
// stable JSON document, so benchmark baselines can be checked in and
// diffed (see `make bench-save`, which writes BENCH_detect.json).
//
// Usage:
//
//	go test -bench 'Detect' -benchmem ./internal/core/ | benchjson > BENCH_detect.json
//
// The output is a JSON array sorted by benchmark name, one object per
// benchmark line:
//
//	[{"name": "BenchmarkBasicDetect200", "ns_per_op": 1234.5,
//	  "bytes_per_op": 8304, "allocs_per_op": 14}, ...]
//
// Non-benchmark lines (goos/pkg headers, PASS/ok trailers) are ignored, so
// the raw `go test` stream can be piped in unfiltered. Repeated lines for
// the same benchmark (from `go test -count=N`) are collapsed to the
// per-metric minimum: the fastest repetition is the closest observable
// estimate of the code's true cost, so min-of-N on both the baseline and
// the candidate keeps scheduler noise out of the regression gate.
//
// Compare mode gates CI on regressions against a checked-in baseline:
//
//	benchjson -compare BENCH_detect.json new.json
//
// It exits non-zero when any benchmark present in both files regressed by
// more than 20% in ns/op, in bytes/op, or in allocs/op (the memory and
// allocation gates only apply when the baseline recorded a nonzero
// bytes_per_op or allocs_per_op respectively, so -benchmem-less baselines
// and genuinely allocation-free benchmarks stay comparable — colsimlint's
// hotalloc analyzer guards the zero-alloc paths the ratio gate cannot
// express). Benchmarks present in only one file are
// reported but do not fail the comparison (baselines are refreshed with
// `make bench-save` when benchmarks are added or removed).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	compare := flag.Bool("compare", false,
		"compare two benchmark JSON files (old new); exit non-zero on >20% ns/op, bytes/op or allocs/op regressions")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// RegressionThreshold is the growth factor beyond which -compare fails —
// applied to ns/op always, and to bytes/op and allocs/op when the baseline
// recorded a nonzero value: 1.20 tolerates CI-runner noise while catching
// real slowdowns and allocation regressions.
const RegressionThreshold = 1.20

// runCompare loads two benchmark JSON files and reports per-benchmark
// deltas to w. It returns true when any shared benchmark regressed beyond
// RegressionThreshold.
func runCompare(oldPath, newPath string, w io.Writer) (regressed bool, err error) {
	oldB, err := loadBenches(oldPath)
	if err != nil {
		return false, err
	}
	newB, err := loadBenches(newPath)
	if err != nil {
		return false, err
	}
	return Compare(oldB, newB, w), nil
}

// Compare writes a delta report for every benchmark in either slice and
// returns true when a benchmark present in both regressed by more than
// RegressionThreshold in ns/op, or in bytes/op or allocs/op for benchmarks
// whose baseline recorded a nonzero count (a zero baseline cannot express
// 20% growth; new allocations on a previously allocation-free path are
// hotalloc's job to catch at the source level).
func Compare(oldB, newB []Bench, w io.Writer) bool {
	oldByName := make(map[string]Bench, len(oldB))
	for _, b := range oldB {
		oldByName[b.Name] = b
	}
	newByName := make(map[string]Bench, len(newB))
	for _, b := range newB {
		newByName[b.Name] = b
	}
	regressed := false
	for _, nb := range newB { // newB is sorted by name
		ob, ok := oldByName[nb.Name]
		if !ok {
			fmt.Fprintf(w, "NEW   %-40s %12.0f ns/op\n", nb.Name, nb.NsPerOp)
			continue
		}
		ratio := 0.0
		if ob.NsPerOp > 0 {
			ratio = nb.NsPerOp / ob.NsPerOp
		}
		status := "OK   "
		if ratio > RegressionThreshold {
			status = "FAIL "
			regressed = true
		}
		fmt.Fprintf(w, "%s %-40s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
			status, nb.Name, ob.NsPerOp, nb.NsPerOp, 100*(ratio-1))
		// Memory gate: only when the baseline measured bytes (a zero
		// baseline means -benchmem was off, or the benchmark genuinely
		// allocates nothing — neither can express a 20% growth).
		if ob.BytesPerOp > 0 {
			bratio := float64(nb.BytesPerOp) / float64(ob.BytesPerOp)
			if bratio > RegressionThreshold {
				regressed = true
				fmt.Fprintf(w, "FAIL  %-40s %12d -> %12d B/op (%+.1f%%)\n",
					nb.Name, ob.BytesPerOp, nb.BytesPerOp, 100*(bratio-1))
			}
		}
		// Allocation gate: same shape as the memory gate. Counts are
		// steadier than bytes across runners, so this catches per-op
		// allocation creep even when sizes shrink enough to pass B/op.
		if ob.AllocsPerOp > 0 {
			aratio := float64(nb.AllocsPerOp) / float64(ob.AllocsPerOp)
			if aratio > RegressionThreshold {
				regressed = true
				fmt.Fprintf(w, "FAIL  %-40s %12d -> %12d allocs/op (%+.1f%%)\n",
					nb.Name, ob.AllocsPerOp, nb.AllocsPerOp, 100*(aratio-1))
			}
		}
	}
	for _, ob := range oldB {
		if _, ok := newByName[ob.Name]; !ok {
			fmt.Fprintf(w, "GONE  %-40s %12.0f ns/op\n", ob.Name, ob.NsPerOp)
		}
	}
	return regressed
}

// loadBenches reads a benchmark JSON document written by this command.
func loadBenches(path string) ([]Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var benches []Bench
	if err := json.Unmarshal(data, &benches); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	return benches, nil
}

func run(in io.Reader, out io.Writer) error {
	benches, err := Parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(benches)
}

// Parse reads `go test -bench` text output and returns the benchmark
// results sorted by name, with `-count=N` repetitions of the same
// benchmark collapsed to the minimum of each metric. Lines that do not
// look like benchmark results are skipped; malformed numeric fields on a
// benchmark line are an error.
func Parse(in io.Reader) ([]Bench, error) {
	var benches []Bench
	byName := make(map[string]int)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Layout: Name  N  ns/op-value ns/op  [custom metrics]  [B/op-value B/op]  [allocs-value allocs/op]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		b := Bench{Name: trimProcSuffix(fields[0])}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: ns/op: %w", line, err)
		}
		b.NsPerOp = ns
		for i := 4; i+1 < len(fields); i += 2 {
			// Custom b.ReportMetric units are not recorded, and their
			// values may be fractional.
			unit := fields[i+1]
			if unit != "B/op" && unit != "allocs/op" {
				continue
			}
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %s: %w", line, unit, err)
			}
			if unit == "B/op" {
				b.BytesPerOp = v
			} else {
				b.AllocsPerOp = v
			}
		}
		if i, ok := byName[b.Name]; ok {
			benches[i] = minBench(benches[i], b)
			continue
		}
		byName[b.Name] = len(benches)
		benches = append(benches, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	return benches, nil
}

// minBench folds two repetitions of the same benchmark into their
// per-metric minimum — the noise-floor estimate the gate compares.
func minBench(a, b Bench) Bench {
	if b.NsPerOp < a.NsPerOp {
		a.NsPerOp = b.NsPerOp
	}
	if b.BytesPerOp < a.BytesPerOp {
		a.BytesPerOp = b.BytesPerOp
	}
	if b.AllocsPerOp < a.AllocsPerOp {
		a.AllocsPerOp = b.AllocsPerOp
	}
	return a
}

// trimProcSuffix drops the -N GOMAXPROCS suffix Go appends to benchmark
// names, so baselines compare across machines with different core counts.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

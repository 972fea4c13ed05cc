package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/p2psim/collusion/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkOptimizedDetect200-8   	   10000	    104567 ns/op	    8304 B/op	      14 allocs/op
BenchmarkBasicDetect200-8       	     170	   6841234 ns/op	   45464 B/op	      12 allocs/op
BenchmarkNoMem-8                	    5000	      2000 ns/op
PASS
ok  	github.com/p2psim/collusion/internal/core	12.345s
`

func TestParse(t *testing.T) {
	benches, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(benches), benches)
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	if benches[0].Name != "BenchmarkBasicDetect200" {
		t.Fatalf("first bench = %q, want BenchmarkBasicDetect200", benches[0].Name)
	}
	if benches[0].NsPerOp != 6841234 || benches[0].BytesPerOp != 45464 || benches[0].AllocsPerOp != 12 {
		t.Fatalf("BasicDetect200 = %+v", benches[0])
	}
	if benches[1].NsPerOp != 2000 || benches[1].BytesPerOp != 0 || benches[1].AllocsPerOp != 0 {
		t.Fatalf("NoMem (no -benchmem fields) = %+v", benches[1])
	}
	if benches[2].Name != "BenchmarkOptimizedDetect200" || benches[2].AllocsPerOp != 14 {
		t.Fatalf("OptimizedDetect200 = %+v", benches[2])
	}
}

// TestParseMinOfRepetitions pins the -count=N collapse: repeated lines
// for one benchmark reduce to the per-metric minimum, so a single noisy
// repetition cannot move the checked-in baseline or trip the gate.
func TestParseMinOfRepetitions(t *testing.T) {
	const repeated = `BenchmarkA-8  100  3000 ns/op  500 B/op  9 allocs/op
BenchmarkA-8  100  1000 ns/op  700 B/op  7 allocs/op
BenchmarkA-8  100  2000 ns/op  600 B/op  8 allocs/op
BenchmarkB-8  100  42 ns/op
`
	benches, err := Parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 after collapsing: %+v", len(benches), benches)
	}
	a := benches[0]
	if a.Name != "BenchmarkA" || a.NsPerOp != 1000 || a.BytesPerOp != 500 || a.AllocsPerOp != 7 {
		t.Fatalf("collapsed BenchmarkA = %+v, want per-metric minima {1000 500 7}", a)
	}
	if benches[1].NsPerOp != 42 {
		t.Fatalf("single-repetition BenchmarkB = %+v", benches[1])
	}
}

func TestParseMalformedNumber(t *testing.T) {
	_, err := Parse(strings.NewReader("BenchmarkX-4  10  abc ns/op\n"))
	if err == nil {
		t.Fatal("malformed ns/op accepted")
	}
}

// TestParseSkipsCustomMetrics pins that b.ReportMetric columns, which sit
// between ns/op and B/op and may be fractional, neither fail the parse nor
// shift the memory fields.
func TestParseSkipsCustomMetrics(t *testing.T) {
	benches, err := Parse(strings.NewReader("BenchmarkX-4  10  5000 ns/op  512.5 rows_copied/op  96 B/op  3 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 || benches[0].NsPerOp != 5000 || benches[0].BytesPerOp != 96 || benches[0].AllocsPerOp != 3 {
		t.Fatalf("parsed %+v, want {5000 96 3}", benches)
	}
}

func TestParseEmptyInput(t *testing.T) {
	benches, err := Parse(strings.NewReader("PASS\nok x 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 0 {
		t.Fatalf("parsed %d benchmarks from non-bench output", len(benches))
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{`"name": "BenchmarkBasicDetect200"`, `"ns_per_op": 6841234`, `"allocs_per_op": 12`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
}

func TestCompareNoRegression(t *testing.T) {
	oldB := []Bench{{Name: "BenchmarkA", NsPerOp: 1000}, {Name: "BenchmarkB", NsPerOp: 500}}
	newB := []Bench{{Name: "BenchmarkA", NsPerOp: 1150}, {Name: "BenchmarkB", NsPerOp: 400}}
	var out bytes.Buffer
	if Compare(oldB, newB, &out) {
		t.Fatalf("15%% growth flagged as regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("report missing OK lines:\n%s", out.String())
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	oldB := []Bench{{Name: "BenchmarkA", NsPerOp: 1000}}
	newB := []Bench{{Name: "BenchmarkA", NsPerOp: 1300}}
	var out bytes.Buffer
	if !Compare(oldB, newB, &out) {
		t.Fatalf("30%% growth not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("report missing FAIL line:\n%s", out.String())
	}
}

// TestCompareFlagsBytesRegression pins the memory gate: a benchmark whose
// ns/op held steady but whose bytes/op grew beyond the threshold fails.
func TestCompareFlagsBytesRegression(t *testing.T) {
	oldB := []Bench{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 10000}}
	newB := []Bench{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 13000}}
	var out bytes.Buffer
	if !Compare(oldB, newB, &out) {
		t.Fatalf("30%% bytes/op growth not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "B/op") {
		t.Fatalf("report missing B/op FAIL line:\n%s", out.String())
	}
}

// TestCompareBytesWithinThreshold pins that sub-threshold byte growth and
// zero-byte baselines (no -benchmem, or genuinely allocation-free) pass.
func TestCompareBytesWithinThreshold(t *testing.T) {
	oldB := []Bench{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 10000},
		{Name: "BenchmarkNoMem", NsPerOp: 500}, // zero baseline: gate off
	}
	newB := []Bench{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 11500},
		{Name: "BenchmarkNoMem", NsPerOp: 500, BytesPerOp: 4096},
	}
	var out bytes.Buffer
	if Compare(oldB, newB, &out) {
		t.Fatalf("15%% bytes growth or zero-baseline change flagged:\n%s", out.String())
	}
}

// TestCompareFlagsAllocsRegression pins the allocation gate: a benchmark
// whose ns/op and bytes/op held steady but whose allocs/op grew beyond the
// threshold fails.
func TestCompareFlagsAllocsRegression(t *testing.T) {
	oldB := []Bench{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 10000, AllocsPerOp: 10}}
	newB := []Bench{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 10000, AllocsPerOp: 13}}
	var out bytes.Buffer
	if !Compare(oldB, newB, &out) {
		t.Fatalf("30%% allocs/op growth not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "allocs/op") {
		t.Fatalf("report missing allocs/op FAIL line:\n%s", out.String())
	}
}

// TestCompareAllocsWithinThreshold pins that sub-threshold allocation
// growth and zero-alloc baselines pass: a benchmark that was allocation-
// free cannot express 20% growth, so new allocations there are hotalloc's
// job, not the ratio gate's.
func TestCompareAllocsWithinThreshold(t *testing.T) {
	oldB := []Bench{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkZeroAlloc", NsPerOp: 500}, // zero baseline: gate off
	}
	newB := []Bench{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 11},
		{Name: "BenchmarkZeroAlloc", NsPerOp: 500, AllocsPerOp: 7},
	}
	var out bytes.Buffer
	if Compare(oldB, newB, &out) {
		t.Fatalf("10%% alloc growth or zero-baseline change flagged:\n%s", out.String())
	}
}

// TestCompareUnpairedBenchmarks pins that added/removed benchmarks are
// reported but never fail the gate — only shared-name regressions do.
func TestCompareUnpairedBenchmarks(t *testing.T) {
	oldB := []Bench{{Name: "BenchmarkGone", NsPerOp: 10}}
	newB := []Bench{{Name: "BenchmarkNew", NsPerOp: 999999}}
	var out bytes.Buffer
	if Compare(oldB, newB, &out) {
		t.Fatalf("unpaired benchmarks failed the comparison:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "NEW") || !strings.Contains(s, "GONE") {
		t.Fatalf("report missing NEW/GONE lines:\n%s", s)
	}
}

func TestRunCompareFiles(t *testing.T) {
	dir := t.TempDir()
	oldPath := dir + "/old.json"
	newPath := dir + "/new.json"
	if err := os.WriteFile(oldPath, []byte(`[{"name":"BenchmarkA","ns_per_op":100}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(`[{"name":"BenchmarkA","ns_per_op":300}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := runCompare(oldPath, newPath, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("3x slowdown not reported as regression:\n%s", out.String())
	}
	if _, err := runCompare(oldPath, dir+"/missing.json", &out); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(newPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCompare(oldPath, newPath, &out); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":        "BenchmarkX",
		"BenchmarkX":          "BenchmarkX",
		"BenchmarkX-foo":      "BenchmarkX-foo",
		"BenchmarkSparse1000": "BenchmarkSparse1000",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

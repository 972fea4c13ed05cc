package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the metrics the last stdout line carries,
// plus sample counts and secondary figures kept in the result file.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int
	extra             map[string]float64
}

func (r *result) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// line is the final stdout line.
func (r *result) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, r.metrics})
}

// fingerprint identifies the machine and build a result set came from;
// nanosecond-level numbers compare only between equal fingerprints.
type fingerprint struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machine(commit string) fingerprint {
	return fingerprint{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultSet is the file written beside every run.
type resultSet struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Traced      bool               `json:"traced"`
	Machine     fingerprint        `json:"machine"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]metric  `json:"metrics"`
	Samples     map[string]int     `json:"samples"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	GeneratedAt string             `json:"generated_at"`
}

// writeResultSet stores r as JSON at path.
func writeResultSet(path string, w workload, seed uint64, seconds int, traced bool, fp fingerprint, r *result) error {
	rs := resultSet{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Machine: fp,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics, Samples: r.samples, Extra: r.extra,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printMetrics writes r's metrics as an aligned "name value unit" table.
func printMetrics(out io.Writer, r *result) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(p*float64(len(s))+0.999999999) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms1(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us1(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

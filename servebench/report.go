package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// layers indexes the traced run's spans by name, with each span's self
// time: its duration minus the part its child spans cover (children of
// one span never overlap here, so that is their summed duration).
type layers struct {
	byName     map[string][]span
	self       map[int64]time.Duration
	epochTotal time.Duration
	memoHits   int64
	memoMisses int64
}

func summarize(epochs, queries []span) *layers {
	l := &layers{byName: make(map[string][]span), self: make(map[int64]time.Duration)}
	for _, set := range [][]span{epochs, queries} {
		for _, s := range set {
			l.byName[s.Name] = append(l.byName[s.Name], s)
			l.self[s.ID] += s.dur()
			if s.Parent != 0 {
				l.self[s.Parent] -= s.dur()
			}
		}
	}
	for _, s := range l.byName["epoch"] {
		l.epochTotal += s.dur()
	}
	for _, s := range l.byName["detect"] {
		l.memoHits += s.Attrs["memo_hits"]
		l.memoMisses += s.Attrs["memo_misses"]
	}
	return l
}

func (l *layers) durations(name string, self bool) []time.Duration {
	var ds []time.Duration
	for _, s := range l.byName[name] {
		if self {
			ds = append(ds, l.self[s.ID])
		} else {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// p50 is the median duration of the named spans (0 when there are none).
func (l *layers) p50(name string) time.Duration { return percentile(l.durations(name, false), 0.5) }

// selfP50 is the median self time of the named spans.
func (l *layers) selfP50(name string) time.Duration { return percentile(l.durations(name, true), 0.5) }

func (l *layers) total(name string) time.Duration {
	var t time.Duration
	for _, d := range l.durations(name, false) {
		t += d
	}
	return t
}

func (l *layers) selfTotal(name string) time.Duration {
	var t time.Duration
	for _, d := range l.durations(name, true) {
		t += d
	}
	return t
}

// p50Sum is the median over traces of the summed durations of the named
// spans within one trace.
func (l *layers) p50Sum(names ...string) time.Duration {
	per := make(map[string]time.Duration)
	for _, n := range names {
		for _, s := range l.byName[n] {
			per[s.Trace] += s.dur()
		}
	}
	ds := make([]time.Duration, 0, len(per))
	for _, d := range per {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	return percentile(ds, 0.5)
}

// attrP50 is the median of an integer span attribute (0 without spans).
func (l *layers) attrP50(name, key string) float64 {
	var vs []float64
	for _, s := range l.byName[name] {
		vs = append(vs, float64(s.Attrs[key]))
	}
	return median(vs)
}

func (l *layers) attrSum(name, key string) float64 {
	var sum float64
	for _, s := range l.byName[name] {
		sum += float64(s.Attrs[key])
	}
	return sum
}

// epochLayers are the spans of one epoch, in pipeline order; "apply"
// self time is the publish step (validate, hand-off, unsharded record and
// the snapshot publish).
var epochLayers = []struct{ span, layer string }{
	{"decode", "service codec (DecodeRequest + ToBatch)"},
	{"ingest", "ingest.Ingester (sharded)"},
	{"window.roll", "ingest.WindowLedger.Roll"},
	{"score", "reputation.Engine.Scores"},
	{"detect", "core DetectIncremental"},
	{"apply", "Store.Apply self = publish"},
	{"epoch", "epoch self (benchmark loop)"},
}

var queryLayers = []string{"pin", "query." + opReputation, "query." + opSuspicion, "query." + opEpoch, "query." + opFlagged}

// report renders the per-layer table of a traced run next to the
// untraced end-to-end numbers of the same workload and seed, when an
// untraced run left them at e2ePath.
func (l *layers) report(w workload, res *result, fp fingerprint, e2ePath string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s traced run (%d epochs, %d queries) on %s, %d CPUs, %s\n   %s\n",
		w.name, res.samples["epochs"], res.samples["queries"], fp.CPU, fp.NumCPU, fp.Go, w.why)
	fmt.Fprintf(&b, "%-12s %-40s %6s %10s %10s %12s %7s\n", "span", "layer", "count", "p50_ms", "self_p50", "self_total", "share")
	for _, e := range epochLayers {
		n := len(l.byName[e.span])
		if n == 0 {
			fmt.Fprintf(&b, "%-12s %-40s %6d %10s %10s %12s %7s\n", e.span, e.layer, 0, "-", "-", "-", "-")
			continue
		}
		share := float64(l.selfTotal(e.span)) / float64(l.epochTotal)
		fmt.Fprintf(&b, "%-12s %-40s %6d %10.3f %10.3f %12.1f %6.1f%%\n", e.span, e.layer, n,
			ms1(l.p50(e.span)), ms1(l.selfP50(e.span)), ms1(l.selfTotal(e.span)), 100*share)
	}
	fmt.Fprintf(&b, "%-12s %-40s %6s %10s %10s\n", "query span", "", "count", "p50_us", "self_p50")
	for _, q := range queryLayers {
		fmt.Fprintf(&b, "%-12s %-40s %6d %10.2f %10.2f\n", q, "", len(l.byName[q]), us1(l.p50(q)), us1(l.selfP50(q)))
	}
	share := func(names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			t += l.selfTotal(n)
		}
		return 100 * float64(t) / float64(l.epochTotal)
	}
	fmt.Fprintf(&b, "shares of traced epoch time: detect+publish %.1f%%, decode+ingest+window %.1f%%, score %.1f%%\n",
		share("detect", "apply"), share("decode", "ingest", "window.roll"), share("score"))
	fmt.Fprintf(&b, "traced epoch p50 %.3f ms (in-process decode+apply), untraced HTTP replay p50 %.3f ms: httpapi.overhead_ms %.3f is the HTTP plane minus tracing overhead\n",
		res.extra["traced_epoch_p50_ms"], res.extra["replayed_epoch_p50_ms"], res.metrics["httpapi.overhead_ms"].Value)
	if data, err := os.ReadFile(e2ePath); err == nil {
		var rs resultSet
		if json.Unmarshal(data, &rs) == nil {
			fmt.Fprintf(&b, "untraced end-to-end run of the same seed (%s):\n", e2ePath)
			names := make([]string, 0, len(rs.Metrics))
			for n := range rs.Metrics {
				names = append(names, n)
			}
			slices.Sort(names)
			for _, n := range names {
				fmt.Fprintf(&b, "  %-22s %14.4f %s\n", n, rs.Metrics[n].Value, rs.Metrics[n].Unit)
			}
		}
	}
	return b.String()
}

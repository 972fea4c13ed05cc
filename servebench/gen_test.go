package main

import (
	"bytes"
	"slices"
	"testing"

	"github.com/p2psim/collusion/internal/service"
)

func TestWorkloadsValid(t *testing.T) {
	for _, w := range workloads {
		if err := w.validate(); err != nil {
			t.Error(err)
		}
	}
}

// bodies encodes the first preload chunk and a few timed batches as the
// request bodies the benchmark sends.
func bodies(g *generator) [][]byte {
	var out [][]byte
	out = append(out, service.AppendRequestIngest(nil, g.appendBatch(nil, 0)))
	for j := 0; j < 3; j++ {
		out = append(out, service.AppendRequestIngest(nil, g.timedBatch(nil, j)))
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newGenerator(w, 7), newGenerator(w, 7), newGenerator(w, 8)
		ba, bb, bc := bodies(a), bodies(b), bodies(c)
		for k := range ba {
			if !bytes.Equal(ba[k], bb[k]) {
				t.Fatalf("%s: body %d differs between two generators with seed 7", w.name, k)
			}
			if bytes.Equal(ba[k], bc[k]) {
				t.Fatalf("%s: body %d is the same for seeds 7 and 8", w.name, k)
			}
		}
		qa, qb := a.queries(), b.queries()
		for k := 0; k < 1000; k++ {
			if x, y := qa.next(), qb.next(); x != y {
				t.Fatalf("%s: query %d differs: %+v vs %+v", w.name, k, x, y)
			}
		}
	}
}

func TestQueryMix(t *testing.T) {
	g := newGenerator(workloads[2], 3)
	qs := g.queries()
	counts := make(map[string]int)
	for k := 0; k < 1000; k++ {
		counts[qs.next().op]++
	}
	want := map[string]int{opReputation: 850, opSuspicion: 100, opEpoch: 40, opFlagged: 10}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("%s: %d of 1000 queries, want %d", op, counts[op], n)
		}
	}
}

func TestBatchShape(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 5)
		for _, k := range []int{0, 1, w.period()} {
			b := g.appendBatch(nil, k)
			if len(b) != w.batch {
				t.Fatalf("%s: batch %d has %d ratings, want %d", w.name, k, len(b), w.batch)
			}
			if err := service.ValidateBatch(b, w.nodes); err != nil {
				t.Fatalf("%s: batch %d: %v", w.name, k, err)
			}
		}
	}
}

// small instances of the three workload shapes: cumulative Summation,
// windowed and sharded, EigenTrust.
var smallWorkloads = []workload{
	{name: "small-cumulative", nodes: 20_000, preloadRatings: 20_000, preloadChunk: 10_000, batch: 1_000, activePairs: 1, queryRate: 200, zipfV: 1},
	{name: "small-window", nodes: 20_000, preloadRatings: 50_000, preloadChunk: 5_000, batch: 5_000, windowCycles: 4, ingestShards: 2, activePairs: 1, queryRate: 200, zipfV: 1},
	{name: "small-eigentrust", nodes: 20_000, preloadRatings: 20_000, preloadChunk: 5_000, batch: 1_000, eigenTrust: true, activePairs: 1, queryRate: 200, zipfV: 1},
}

// TestFlaggedEqualsPlanted drives small instances through the store and
// checks that the flagged pair set is exactly the planted one active so
// far, with each late pair first flagged in the epoch of its first
// timed batch, after the preload and after every later epoch.
func TestFlaggedEqualsPlanted(t *testing.T) {
	for _, w := range smallWorkloads {
		if err := w.validate(); err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2} {
			g := newGenerator(w, seed)
			store, err := newStore(w, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			chunks := g.preloadChunks()
			if err := preload(store, chunks); err != nil {
				t.Fatal(err)
			}
			epochs, ratings := int64(len(chunks)), int64(w.preloadRatings)
			for j := 0; ; j++ {
				sn := store.Acquire()
				ep := epochDoc{Epoch: sn.Epoch(), Ratings: sn.Ratings()}
				doc := service.AppendFlaggedSnapshot(nil, sn)
				sn.Release()
				if err := checkOutputs(g, ep, epochs, ratings, j, doc); err != nil {
					t.Fatalf("%s seed %d after %d timed epochs: %v", w.name, seed, j, err)
				}
				if j == 3*w.period() {
					break
				}
				b := g.timedBatch(nil, j)
				if _, err := store.Apply(b); err != nil {
					t.Fatal(err)
				}
				epochs, ratings = epochs+1, ratings+int64(len(b))
			}
			store.Close()
		}
	}
}

// TestRunsOnSmallInstances drives both run kinds end to end: the untraced
// HTTP run and the traced run, whose own checks include the memo hits
// and the byte-identical HTTP replay.
func TestRunsOnSmallInstances(t *testing.T) {
	for _, w := range smallWorkloads {
		g := newGenerator(w, 3)
		res, err := runServed(w, g, 1)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if res.samples["epochs"] < minEpochs || res.samples["queries"] == 0 || res.failed != 0 {
			t.Errorf("%s untraced: samples %v, %d failed", w.name, res.samples, res.failed)
		}
		res, err = runTraced(w, g, 1, t.TempDir()+"/run", fingerprint{})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if res.metrics["detect.memo_hit_ratio"].Value <= 0 || res.samples["replayed_epochs"] != res.samples["epochs"] {
			t.Errorf("%s traced: memo hit ratio %v, samples %v", w.name, res.metrics["detect.memo_hit_ratio"], res.samples)
		}
	}
}

// TestLatePairsCatchMissedDetection checks that every workload holds
// some pairs out of the preload, and that the output check fails when
// the served document still shows the preload's detections after the
// late pairs became active: a detect pass that misses new evidence.
func TestLatePairsCatchMissedDetection(t *testing.T) {
	for _, w := range append(slices.Clone(workloads), smallWorkloads...) {
		g := newGenerator(w, 4)
		late := 0
		for p := range g.pairs {
			if g.late(p) {
				late++
				if g.firstTimed(p) >= minEpochs {
					t.Errorf("%s: late pair %d first active in timed batch %d", w.name, p, g.firstTimed(p))
				}
			}
		}
		if late == 0 || late == len(g.pairs) {
			t.Errorf("%s: %d of %d pairs late", w.name, late, len(g.pairs))
		}
	}
	w := smallWorkloads[0]
	g := newGenerator(w, 4)
	store, err := newStore(w, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	chunks := g.preloadChunks()
	if err := preload(store, chunks); err != nil {
		t.Fatal(err)
	}
	sn := store.Acquire()
	doc := service.AppendFlaggedSnapshot(nil, sn)
	sn.Release()
	n := w.lateBatches()
	ep := epochDoc{Epoch: int64(len(chunks) + n), Ratings: int64(w.preloadRatings + n*w.batch)}
	if err := checkOutputs(g, ep, ep.Epoch, ep.Ratings, n, doc); err == nil {
		t.Fatal("output check passed a document that misses the late pairs")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/service"
)

// span is one timed interval of the traced run. Spans of one epoch share
// the trace "e<epoch>", spans of one query the trace "q<seq>".
type span struct {
	Trace  string           `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the traced run's spans in memory. Epoch spans are
// written by the ingest client and, inside Store.Apply, by the writer
// goroutine through the engine and detector decorators and the span
// observer; Apply's command hand-off orders the two, so they share the
// epoch slice without a lock. Query spans have their own slice, owned by
// the query client.
type tracer struct {
	t0  time.Time
	ids atomic.Int64
	reg *obs.Registry // the store's and detector's counters

	on     bool   // record epoch spans (off during the preload)
	trace  string // current epoch's trace ID
	apply  int64  // current apply span: parent of the store's layers
	epochs []span
	open   []time.Time // observer's open ingest / window.roll spans

	qmu     sync.Mutex
	queries []span // query client's spans, under qmu
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// child records a span under the current apply span.
func (t *tracer) child(name string, start, end time.Time, attrs map[string]int64) {
	t.epochs = append(t.epochs, span{
		Trace: t.trace, ID: t.ids.Add(1), Parent: t.apply, Name: name,
		Start: t.ns(start), End: t.ns(end), Attrs: attrs,
	})
}

// SpanBegin implements obs.SpanObserver for the store's ingest and
// window.roll spans.
func (t *tracer) SpanBegin(string) { t.open = append(t.open, time.Now()) }

// SpanEnd implements obs.SpanObserver.
func (t *tracer) SpanEnd(name string) {
	end := time.Now()
	start := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	if t.on {
		t.child(name, start, end, nil)
	}
}

// timedEngine times reputation.Engine.Scores as the "score" span.
type timedEngine struct {
	reputation.Engine
	t *tracer
}

func (e timedEngine) Scores(l *reputation.Ledger) []float64 {
	if !e.t.on {
		return e.Engine.Scores(l)
	}
	start := time.Now()
	out := e.Engine.Scores(l)
	end := time.Now()
	attrs := map[string]int64{"iterations": 1}
	if et, ok := e.Engine.(*reputation.EigenTrust); ok {
		attrs["iterations"], attrs["nnz"] = int64(et.Iterations()), int64(et.NNZ())
	}
	e.t.child("score", start, end, attrs)
	return out
}

// timedDetector times core.IncrementalDetector.DetectIncremental as the
// "detect" span. It is itself an IncrementalDetector, so the store keeps
// the incremental path; the memo counters prove it.
type timedDetector struct {
	core.IncrementalDetector
	t            *tracer
	hits, misses *obs.Counter
}

func (d timedDetector) DetectIncremental(l *reputation.Ledger, dirty []int) core.Result {
	if !d.t.on {
		return d.IncrementalDetector.DetectIncremental(l, dirty)
	}
	h0, m0 := d.hits.Value(), d.misses.Value()
	start := time.Now()
	res := d.IncrementalDetector.DetectIncremental(l, dirty)
	end := time.Now()
	d.t.child("detect", start, end, map[string]int64{
		"dirty_rows":  int64(len(dirty)),
		"pairs":       int64(len(res.Pairs)),
		"memo_hits":   d.hits.Value() - h0,
		"memo_misses": d.misses.Value() - m0,
	})
	return res
}

// tracedRun is what the traced phase leaves for the report once its
// store is gone.
type tracedRun struct {
	t        *tracer
	queries  *openLoop
	epochs   int // timed epochs
	doc      []byte
	entries  int
	recycled float64
	allocMB  float64
	gcs      float64
}

// runTraced is the per-layer run: the timed batches and queries go
// in-process through DecodeRequest/ToBatch, Store.Apply, Acquire and the
// response encoders, each timed as a span; then a fresh untraced store
// replays the same batches over HTTP, and its flagged document must be
// byte-identical to the traced one (batch ≡ served).
func runTraced(w workload, g *generator, seconds int, base string, fp fingerprint) (*result, error) {
	chunks := g.preloadChunks()
	tr, err := tracedPhase(w, g, chunks, seconds)
	if err != nil {
		return nil, err
	}
	lay := summarize(tr.t.epochs, tr.t.queries)
	if lay.memoHits == 0 {
		return nil, fmt.Errorf("detect.memo_hit_ratio is 0: the incremental path was not taken")
	}
	replay, err := replayServed(w, g, chunks, tr.epochs, tr.doc)
	if err != nil {
		return nil, fmt.Errorf("served replay: %w", err)
	}

	nnz := float64(tr.entries)
	if w.eigenTrust {
		nnz = lay.attrP50("score", "nnz")
	}
	res := &result{
		attempted: tr.epochs + tr.queries.attempted + len(replay),
		samples:   map[string]int{"epochs": tr.epochs, "queries": tr.queries.attempted, "replayed_epochs": len(replay)},
		// Figures the input fixes (batch size, pair and ledger counts) and
		// layer times that are absent on some workloads stay out of the
		// result line.
		extra: map[string]float64{
			"traced_epoch_p50_ms":      ms1(lay.p50("epoch")),
			"replayed_epoch_p50_ms":    ms1(percentile(replay, 0.5)),
			"ingest.ms":                ms1(lay.p50("ingest")),
			"window.ms":                ms1(lay.p50("window.roll")),
			"score.nnz":                nnz,
			"detect.pairs":             lay.attrP50("detect", "pairs"),
			"publish.ledger_entries":   float64(tr.entries),
			"query.suspicion_partners": lay.attrP50("query."+opSuspicion, "partners"),
		},
	}
	res.add("decode.ms", "ms", ms1(lay.p50("decode")))
	res.add("decode.mb_per_s", "MB/s", lay.attrSum("decode", "bytes")/1e6/lay.total("decode").Seconds())
	res.add("apply.ms", "ms", ms1(lay.p50("apply")))
	res.add("score.ms", "ms", ms1(lay.p50("score")))
	res.add("score.iterations", "count", lay.attrP50("score", "iterations"))
	res.add("detect.ms", "ms", ms1(lay.p50("detect")))
	res.add("detect.dirty_rows", "count", lay.attrP50("detect", "dirty_rows"))
	res.add("detect.memo_hit_ratio", "ratio", float64(lay.memoHits)/float64(lay.memoHits+lay.memoMisses))
	res.add("publish.ms", "ms", ms1(lay.selfP50("apply")))
	res.add("publish.recycled_ratio", "ratio", tr.recycled)
	res.add("query.pin_ns", "ns", float64(lay.p50("pin")))
	res.add("query.reputation_us", "us", us1(lay.selfP50("query."+opReputation)))
	res.add("query.suspicion_us", "us", us1(lay.selfP50("query."+opSuspicion)))
	res.add("query.flagged_ms", "ms", ms1(lay.selfP50("query."+opFlagged)))
	res.add("httpapi.overhead_ms", "ms", ms1(percentile(replay, 0.5))-ms1(lay.p50Sum("decode", "apply")))
	res.add("runtime.alloc_mb_per_epoch", "MB", tr.allocMB)
	res.add("runtime.gc_cycles", "count", tr.gcs)
	res.add("loadgen.late_p90_ms", "ms", ms1(percentile(tr.queries.late, 0.9)))

	all := append(tr.t.epochs, tr.t.queries...)
	slices.SortStableFunc(all, func(a, b span) int { return int(a.Start - b.Start) })
	if err := writeSpans(base+"-spans.jsonl", all); err != nil {
		return nil, err
	}
	report := lay.report(w, res, fp, base+"-e2e.json")
	fmt.Print(report)
	if err := writeFile(base+"-report.txt", []byte(report)); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedPhase builds the instrumented store, preloads it, and drives the
// run's timed batches and the open-loop queries in-process.
// The store is closed when it returns, so the replay that follows does
// not share the heap with it.
func tracedPhase(w workload, g *generator, chunks [][]ingest.Rating, seconds int) (*tracedRun, error) {
	t := &tracer{t0: time.Now(), reg: obs.NewRegistry(nil)}
	runtime.GC()
	store, err := newStore(w, g, t)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	if err := preload(store, chunks); err != nil {
		return nil, err
	}
	recycled := t.reg.Counter("service.snapshots_recycled")
	recycled0 := recycled.Value()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	stop := make(chan struct{})
	tr := &tracedRun{t: t}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var seq atomic.Int64
		tr.queries = runOpenLoop(w.queryRate, g.queries(), stop, func(q query) error {
			tracedQuery(t, store, q, "q"+strconv.FormatInt(seq.Add(1), 10))
			return nil
		})
	}()
	epochs, sent, err := tracedIngest(t, w, g, store, int64(len(chunks)), w.timedEpochs(seconds))
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	tr.epochs = int(epochs) - len(chunks)
	tr.recycled = float64(recycled.Value()-recycled0) / float64(tr.epochs)
	tr.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(tr.epochs)
	tr.gcs = float64(m1.NumGC - m0.NumGC)

	sn := store.Acquire()
	ep := epochDoc{Epoch: sn.Epoch(), Ratings: sn.Ratings()}
	tr.doc = service.AppendFlaggedSnapshot(nil, sn)
	for node := 0; node < sn.Nodes(); node++ {
		tr.entries += len(sn.Ledger().RatersOf(node))
	}
	sn.Release()
	if err := checkOutputs(g, ep, epochs, int64(w.preloadRatings)+sent, tr.epochs, tr.doc); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return tr, nil
}

// tracedIngest is the traced closed ingest loop over the first n timed
// batches: each is an "epoch" span with "decode" (DecodeRequest +
// ToBatch) and "apply" (Store.Apply) children. It returns the epoch
// watermark reached and the ratings applied.
func tracedIngest(t *tracer, w workload, g *generator, store *service.Store, epochs int64, n int) (int64, int64, error) {
	var (
		batch []ingest.Rating
		body  []byte
		sent  int64
	)
	for j := 0; j < n; j++ {
		batch = g.timedBatch(batch, j)
		body = service.AppendRequestIngest(body[:0], batch)
		trace := "e" + strconv.FormatInt(epochs+1, 10)
		epochID, decodeID := t.ids.Add(1), t.ids.Add(1)
		t0 := time.Now()
		req, err := service.DecodeRequest(body)
		var b []ingest.Rating
		if err == nil {
			b, err = req.ToBatch(w.nodes)
		}
		t1 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("decode: %w", err)
		}
		t.trace, t.apply, t.on = trace, t.ids.Add(1), true
		ep, err := store.Apply(b)
		t2 := time.Now()
		t.on = false
		if err == nil && ep != epochs+1 {
			err = fmt.Errorf("apply returned epoch %d, want %d", ep, epochs+1)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("apply: %w", err)
		}
		t.epochs = append(t.epochs,
			span{Trace: trace, ID: epochID, Name: "epoch", Start: t.ns(t0), End: t.ns(t2)},
			span{Trace: trace, ID: decodeID, Parent: epochID, Name: "decode", Start: t.ns(t0), End: t.ns(t1),
				Attrs: map[string]int64{"bytes": int64(len(body)), "ratings": int64(len(b))}},
			span{Trace: trace, ID: t.apply, Parent: epochID, Name: "apply", Start: t.ns(t1), End: t.ns(t2)})
		epochs, sent = epochs+1, sent+int64(len(b))
	}
	return epochs, sent, nil
}

// tracedQuery answers q in-process the way the HTTP handler does, as a
// query.<op> span with the snapshot pin as its "pin" child.
func tracedQuery(t *tracer, store *service.Store, q query, trace string) {
	qid, pid := t.ids.Add(1), t.ids.Add(1)
	start := time.Now()
	sn := store.Acquire()
	pinned := time.Now()
	var attrs map[string]int64
	var buf []byte
	switch q.op {
	case opReputation:
		buf = service.AppendReputation(buf, sn, q.node)
	case opSuspicion:
		buf = service.AppendSuspicion(buf, sn, store.Thresholds(), q.node)
		attrs = map[string]int64{"partners": int64(len(sn.Ledger().RatersOf(q.node)))}
	case opEpoch:
		buf = service.AppendEpoch(buf, sn)
	case opFlagged:
		buf = service.AppendFlaggedSnapshot(buf, sn)
	}
	sn.Release()
	end := time.Now()
	if attrs == nil {
		attrs = make(map[string]int64, 1)
	}
	attrs["bytes"] = int64(len(buf))
	t.qmu.Lock()
	defer t.qmu.Unlock()
	t.queries = append(t.queries,
		span{Trace: trace, ID: qid, Name: "query." + q.op, Start: t.ns(start), End: t.ns(end), Attrs: attrs},
		span{Trace: trace, ID: pid, Parent: qid, Name: "pin", Start: t.ns(start), End: t.ns(pinned)})
}

// replayServed sets up an untraced store behind HTTP and drives the
// first n timed batches through it, with the same open-loop queries as an
// untraced run; its flagged document must equal want byte for byte. It
// returns the POST round trips.
func replayServed(w workload, g *generator, chunks [][]ingest.Rating, n int, want []byte) ([]time.Duration, error) {
	runtime.GC()
	s, _, err := setUp(w, g, chunks)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ld, err := driveHTTP(w, g, s, int64(len(chunks)), int64(w.preloadRatings), n)
	if err != nil {
		return nil, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	got, err := get(c, s.url+"/v1/flagged")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("served flagged document (%d bytes) differs from the in-process one (%d bytes)", len(got), len(want))
	}
	return ld.lat, nil
}

func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return writeFile(path, buf.Bytes())
}

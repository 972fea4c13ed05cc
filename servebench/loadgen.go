package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/service"
)

// minEpochs is the fewest timed epochs a run measures, whatever its
// length, so that the epoch p90 has at least ten samples beyond it.
const minEpochs = 100

// maxInFlight bounds the open-loop client's outstanding queries (and
// its connections). A query due while maxInFlight are outstanding waits
// for a slot, and that wait shows as generator lateness.
const maxInFlight = 8

// openLoop is one open-loop client's record. Query i is due at
// start + i/rate whether or not earlier queries have finished; latency
// runs from the due time, so a stall also charges the queries it delays.
type openLoop struct {
	mu        sync.Mutex
	lat       []time.Duration // due time → reply complete
	late      []time.Duration // due time → actual send
	attempted int
	failed    int
	firstErr  error
}

// runOpenLoop sends qs at rate per second, each query on its own
// goroutine, until stop is closed; it returns once every query sent has
// finished.
func runOpenLoop(rate float64, qs *queryStream, stop <-chan struct{}, send func(query) error) *openLoop {
	ol := &openLoop{}
	interval := time.Duration(float64(time.Second) / rate)
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	defer wg.Wait()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return ol
			case <-timer.C:
			}
		}
		select {
		case <-stop:
			return ol
		case slots <- struct{}{}:
		}
		q := qs.next()
		sent := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := send(q)
			done := time.Now()
			<-slots
			ol.mu.Lock()
			defer ol.mu.Unlock()
			ol.lat = append(ol.lat, done.Sub(due))
			ol.late = append(ol.late, sent.Sub(due))
			ol.attempted++
			if err != nil {
				ol.failed++
				if ol.firstErr == nil {
					ol.firstErr = err
				}
			}
		}()
	}
}

// path is the GET route of q.
func (q query) path() string {
	switch q.op {
	case opReputation, opSuspicion:
		return "/v1/" + q.op + "/" + strconv.Itoa(q.node)
	default:
		return "/v1/" + q.op
	}
}

// httpLoad is what one HTTP load phase measured.
type httpLoad struct {
	lat     []time.Duration // POST round trips
	wall    time.Duration   // loop start to last reply
	epochs  int64           // epoch watermark reached
	ratings int64           // ratings applied in total
	sent    int64           // ratings the phase POSTed
	queries *openLoop
}

// driveHTTP is one load phase against s: one closed-loop ingest client
// POSTs the first n timed batches in order on one keep-alive connection,
// while one open-loop client queries at w.queryRate. epochs and ratings
// are the store's state before the phase.
func driveHTTP(w workload, g *generator, s *server, epochs, ratings int64, n int) (*httpLoad, error) {
	ic, qc := newClient(1), newClient(maxInFlight)
	defer ic.CloseIdleConnections()
	defer qc.CloseIdleConnections()
	stop := make(chan struct{})
	ld := &httpLoad{epochs: epochs, ratings: ratings}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ld.queries = runOpenLoop(w.queryRate, g.queries(), stop, func(q query) error {
			return discard(qc, s.url+q.path())
		})
	}()

	var batch []ingest.Rating
	var body []byte
	var err error
	start := time.Now()
	for j := 0; j < n; j++ {
		// Generating the next body is the client's think time: inside
		// the loop's wall time, outside the POST round trip.
		batch = g.timedBatch(batch, j)
		body = service.AppendRequestIngest(body[:0], batch)
		t0 := time.Now()
		var ep int64
		ep, err = post(ic, s.url, body, len(batch))
		d := time.Since(t0)
		if err == nil && ep != ld.epochs+1 {
			err = fmt.Errorf("ingest reply epoch %d, want %d", ep, ld.epochs+1)
		}
		if err != nil {
			break
		}
		ld.epochs, ld.ratings, ld.sent = ld.epochs+1, ld.ratings+int64(len(batch)), ld.sent+int64(len(batch))
		ld.lat = append(ld.lat, d)
	}
	ld.wall = time.Since(start)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if ld.queries.firstErr != nil {
		return nil, fmt.Errorf("query: %w", ld.queries.firstErr)
	}
	return ld, nil
}

// runServed is the untraced run: set up setUps times, keeping the
// last, then drive the HTTP load for the run's timed epochs and check the
// served outputs. Any failed request fails the run.
func runServed(w workload, g *generator, seconds int) (*result, error) {
	chunks := g.preloadChunks()
	var preRatings int64
	for _, c := range chunks {
		preRatings += int64(len(c))
	}
	var s *server
	var setups []float64
	for r := 0; r < setUps; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
		}
		runtime.GC()
		srv, d, err := setUp(w, g, chunks)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s, setups = srv, append(setups, d.Seconds())
	}
	defer s.close()
	epochs := int64(len(chunks))
	chunks = nil
	// heap_mb is the live heap of the set-up store: the preloaded ledger
	// and its published snapshots. At the end of a run it also counts the
	// snapshots that readers pinned across a publish: the HTTP handlers
	// hold their pin while writing the reply, and a reply stalled for a
	// whole epoch makes the store allocate another snapshot, which its
	// free ring then keeps. Whether that happens depends on scheduling,
	// so the end-of-run heap stays in the result file, ungated.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapSetUp := float64(ms.HeapAlloc) / 1e6

	timed := w.timedEpochs(seconds)
	ld, err := driveHTTP(w, g, s, epochs, preRatings, timed)
	if err != nil {
		return nil, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var ep epochDoc
	if err := getJSON(c, s.url+"/v1/epoch", &ep); err != nil {
		return nil, err
	}
	doc, err := get(c, s.url+"/v1/flagged")
	if err != nil {
		return nil, err
	}
	if err := checkOutputs(g, ep, ld.epochs, ld.ratings, timed, doc); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	doc = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)

	q := ld.queries
	res := &result{
		attempted: len(ld.lat) + q.attempted,
		samples:   map[string]int{"epochs": len(ld.lat), "queries": q.attempted},
		extra: map[string]float64{
			"loadgen.late_p90_ms": ms1(percentile(q.late, 0.9)),
			"heap_end_mb":         float64(ms.HeapAlloc) / 1e6,
			"query_rate_per_s":    w.queryRate,
			"batch_ratings":       float64(w.batch),
		},
	}
	// The query tail straddles the moments both CPUs are busy with the
	// writer, so its run-to-run spread is too wide to gate: it is
	// reported beside the result line, not in it.
	for _, p := range []float64{0.75, 0.9, 0.95, 0.99} {
		res.extra[fmt.Sprintf("epoch_p%.0f_ms", 100*p)] = ms1(percentile(ld.lat, p))
		res.extra[fmt.Sprintf("query_p%.0f_us", 100*p)] = us1(percentile(q.lat, p))
	}

	res.add("setup_s", "s", median(setups))
	res.add("epoch_p50_ms", "ms", ms1(percentile(ld.lat, 0.5)))
	res.add("epoch_p90_ms", "ms", ms1(percentile(ld.lat, 0.9)))
	res.add("ingest_ratings_per_s", "1/s", float64(ld.sent)/ld.wall.Seconds())
	res.add("query_p50_us", "us", us1(percentile(q.lat, 0.5)))
	res.add("heap_mb", "MB", heapSetUp)
	return res, nil
}
